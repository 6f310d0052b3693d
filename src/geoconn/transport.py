"""Parallel transport along admissible curves of a linear connection.

The lift of an admissible curve solves a linear first-order system for the
fiber coordinates, with the base taken from the curve itself.  Coefficient
matrices are pre-sampled on a half-step grid and handed to the RK4 kernel,
which integrates the transport matrix from the identity in one pass; the lift
through any initial fiber vector is that matrix applied to it, node by node.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from ._kernels import rk4_linear
from .bundle import AdmissibleCurve
from .connection import LinearConnection
from .defaults import BASE_CONTINUITY_TOL, TRANSPORT_STEPS_PER_UNIT
from .fields import NumericError, ShapeError


@dataclass
class TransportResult:
    """Sampled lift of a curve together with its transport operator."""

    ts: np.ndarray
    base_points: np.ndarray
    fiber_points: np.ndarray
    transport_matrix: np.ndarray
    step_count: int
    max_admissibility_residual: float
    derivative_maps: np.ndarray | None = field(default=None)

    def final_fiber(self) -> np.ndarray:
        return self.fiber_points[-1]


def _default_steps(curve: AdmissibleCurve) -> int:
    return max(1, int(round(TRANSPORT_STEPS_PER_UNIT * (curve.t1 - curve.t0))))


def _fiber_vector(conn: LinearConnection, y0) -> np.ndarray:
    y0 = np.asarray(y0, dtype=float)
    if y0.shape != (conn.l,):
        raise ShapeError(f"initial fiber vector must have length {conn.l}")
    return y0


def _propagate(amats: np.ndarray, h: float, t0: float) -> np.ndarray:
    """Transport matrices at the full-step nodes, integrated from the identity."""
    with np.errstate(over="ignore", invalid="ignore"):
        phi = rk4_linear(amats, h, np.eye(amats.shape[1]))
    finite = np.isfinite(phi).all(axis=(1, 2))
    if not finite.all():
        raise NumericError(f"lift diverged near t={t0 + int(np.argmin(finite)) * h}")
    return phi


def _curve_transport(conn: LinearConnection, curve: AdmissibleCurve, steps: int | None):
    """Nodes, base points, transport matrices and admissibility residual of a curve."""
    if steps is None:
        steps = _default_steps(curve)
    ts = np.linspace(curve.t0, curve.t1, 2 * steps + 1)
    xs = curve.x_batch(ts)
    coeff = conn.coeff_sample(xs)  # (m, k, l, l)
    amats = np.einsum("ma,maAB->mAB", curve.u_batch(ts), coeff)
    residual = conn.bundle.require_admissible(curve)
    phi = _propagate(amats, (curve.t1 - curve.t0) / steps, curve.t0)
    return ts[::2], xs[::2], phi, residual


def lift_curve(conn: LinearConnection, curve: AdmissibleCurve, y0, steps: int | None = None) -> TransportResult:
    """Lift of an admissible curve through ``y0`` plus the transport matrix.

    The curve is rejected when its admissibility residual exceeds its gate.
    The lift is the transport matrix at each node applied to ``y0``, so the
    lift and the operator come from the same integration.
    """
    y0 = _fiber_vector(conn, y0)
    ts, xs, phi, residual = _curve_transport(conn, curve, steps)
    return TransportResult(
        ts=ts,
        base_points=xs,
        fiber_points=phi @ y0,
        transport_matrix=phi[-1],
        step_count=len(ts) - 1,
        max_admissibility_residual=residual,
    )


def parallel_transport(conn: LinearConnection, curve, steps: int | None = None) -> np.ndarray:
    """Transport operator between the endpoint fibers of a curve.

    ``curve`` may be a single admissible curve or a list of segments forming
    a piecewise curve; segment base points must match up to the continuity
    gate, while fiber continuity is not required.  Segment operators compose
    in order.
    """
    segments = [curve] if isinstance(curve, AdmissibleCurve) else list(curve)
    if not segments:
        raise ShapeError("piecewise transport needs at least one segment")
    for prev, nxt in zip(segments, segments[1:]):
        gap = np.max(np.abs(prev.x(prev.t1) - nxt.x(nxt.t0)))
        if gap > BASE_CONTINUITY_TOL:
            raise ShapeError(f"segment base points disagree by {gap:.3e}")
    matrix = np.eye(conn.l)
    for seg in segments:
        matrix = _curve_transport(conn, seg, steps)[2][-1] @ matrix
    return matrix


def transport_fiber_curve(conn: LinearConnection, curve: AdmissibleCurve, y0, steps: int | None = None) -> TransportResult:
    """Transport along a curve whose base stays at one point.

    Such curves must take values in the anchor kernel at the frozen base
    point (checked).  Besides the lift, the result carries the sampled family
    of linear maps sending a frozen fiber vector to minus the contracted
    coefficients, the pointwise derivative of constant sections along the
    curve.
    """
    y0 = _fiber_vector(conn, y0)
    if steps is None:
        steps = _default_steps(curve)
    ts = np.linspace(curve.t0, curve.t1, 2 * steps + 1)
    x0 = curve.x(curve.t0)
    drift = float(np.max(np.abs(curve.x_batch(ts) - x0)))
    if drift > BASE_CONTINUITY_TOL:
        raise ShapeError(f"base point drifts by {drift:.3e}; not a fiber curve")
    gam = conn.bundle.anchor_matrix(x0)
    us = curve.u_batch(ts)
    kernel_residual = float(np.max(np.abs(us @ gam.T)))
    if kernel_residual > curve.residual_tol:
        raise ShapeError(f"curve leaves the anchor kernel by {kernel_residual:.3e}")

    coeff = conn.coeff_tensor(x0)  # (k, l, l)
    amats = np.einsum("ma,aAB->mAB", us, coeff)
    phi = _propagate(amats, (curve.t1 - curve.t0) / steps, curve.t0)
    return TransportResult(
        ts=ts[::2],
        base_points=np.tile(x0, (steps + 1, 1)),
        fiber_points=phi @ y0,
        transport_matrix=phi[-1],
        step_count=steps,
        max_admissibility_residual=kernel_residual,
        derivative_maps=-amats[::2],
    )
