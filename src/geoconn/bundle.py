"""Anchored vector bundles and admissible curves.

An anchored bundle is a rank-k vector bundle over a box domain together with
a bundle map into the tangent bundle, stored as its n-by-k coefficient matrix
field.  Curves in the total space are admissible when the anchor image of the
fiber component matches the velocity of the base component.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable

import numpy as np

from . import expr as ex
from .defaults import ADMISSIBILITY_TOL, ADMISSIBILITY_TOL_SAMPLED, RANK_REL_TOL
from .fields import CoordDomain, DomainError, GeoconnError, MatrixField, NumericError, ShapeError, VectorField
from .linalg import rank_kernel


class AdmissibilityError(GeoconnError):
    """A curve failed its admissibility gate."""

    def __init__(self, residual: float, tol: float):
        super().__init__(f"admissibility residual {residual:.3e} exceeds {tol:.3e}")
        self.residual = residual
        self.tol = tol


@dataclass(frozen=True)
class FiberPoint:
    """Point of the total space in bundle coordinates."""

    x: np.ndarray
    u: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "x", np.asarray(self.x, dtype=float))
        object.__setattr__(self, "u", np.asarray(self.u, dtype=float))


class AnchorBundle:
    """Vector bundle with an anchor map into the tangent bundle."""

    def __init__(self, base: CoordDomain, fiber_rank: int, gamma: MatrixField):
        if gamma.rows != base.dim or gamma.cols != fiber_rank:
            raise ShapeError(
                f"anchor coefficients must be {base.dim}x{fiber_rank}, got {gamma.rows}x{gamma.cols}"
            )
        if gamma.domain.bounds != base.bounds:
            raise ShapeError("anchor coefficients live on a different domain")
        self.base = base
        self.fiber_rank = fiber_rank
        self.gamma = gamma

    @property
    def n(self) -> int:
        return self.base.dim

    @property
    def k(self) -> int:
        return self.fiber_rank

    @classmethod
    def from_exprs(cls, box, rows) -> "AnchorBundle":
        domain = CoordDomain.box(box) if not isinstance(box, CoordDomain) else box
        gamma = ex.to_matrix_field(rows, domain)
        return cls(domain, gamma.cols, gamma)

    @classmethod
    def identity(cls, domain: CoordDomain) -> "AnchorBundle":
        return cls(domain, domain.dim, MatrixField.identity(domain, domain.dim))

    @classmethod
    def zero(cls, domain: CoordDomain, fiber_rank: int) -> "AnchorBundle":
        return cls(domain, fiber_rank, MatrixField.constant(domain, np.zeros((domain.dim, fiber_rank))))

    # -- anchor application --------------------------------------------------

    def anchor_matrix(self, x) -> np.ndarray:
        return self.gamma.value(x)

    def apply(self, p: FiberPoint) -> np.ndarray:
        """Tangent vector produced by the anchor at ``p``."""
        if p.u.shape != (self.k,):
            raise ShapeError(f"fiber vector must have length {self.k}")
        return self.anchor_matrix(p.x) @ p.u

    def rank_kernel_at(self, x, rel_tol: float = RANK_REL_TOL) -> tuple[int, np.ndarray]:
        """Numerical rank of the anchor at ``x`` and a basis of its kernel."""
        self.base.require(x)
        return rank_kernel(self.anchor_matrix(x), rel_tol)

    # -- admissibility --------------------------------------------------------

    def admissibility_residual(self, curve: "AdmissibleCurve", times=None) -> float:
        """Max-norm residual between base velocity and anchored fiber vector."""
        if times is None:
            times = np.linspace(curve.t0, curve.t1, 101)
        times = np.asarray(times, dtype=float)
        res = curve.xdot_batch(times) - np.einsum("mik,mk->mi", self.anchor_matrix(curve.x_batch(times)), curve.u_batch(times))
        worst = float(np.max(np.abs(res), initial=0.0))
        if not np.isfinite(worst):
            raise NumericError("admissibility residual is not finite")
        return worst

    def require_admissible(self, curve: "AdmissibleCurve", times=None) -> float:
        residual = self.admissibility_residual(curve, times)
        if residual > curve.residual_tol:
            raise AdmissibilityError(residual, curve.residual_tol)
        return residual


class AdmissibleCurve:
    """Curve ``t -> (x(t), u(t))`` in the total space of an anchored bundle.

    ``xdot`` defaults to a central difference in ``t``.  ``residual_tol`` is
    the gate used when the curve is fed to the transport machinery.  The
    batch samplers ``x_batch``, ``u_batch`` and ``xdot_batch`` stack the
    pointwise maps; expression curves and their reversals replace them with
    array evaluations.
    """

    def __init__(
        self,
        t_range: tuple[float, float],
        x: Callable[[float], np.ndarray],
        u: Callable[[float], np.ndarray],
        xdot: Callable[[float], np.ndarray] | None = None,
        residual_tol: float = ADMISSIBILITY_TOL,
        dt: float = 1e-6,
    ):
        self.t0, self.t1 = float(t_range[0]), float(t_range[1])
        if not self.t0 < self.t1:
            raise ShapeError("curve parameter range is empty")
        self._x = x
        self._u = u
        self._xdot = xdot
        self._dt = dt
        self.residual_tol = residual_tol

    def x(self, t: float) -> np.ndarray:
        return np.asarray(self._x(t), dtype=float)

    def u(self, t: float) -> np.ndarray:
        return np.asarray(self._u(t), dtype=float)

    def xdot(self, t: float) -> np.ndarray:
        if self._xdot is not None:
            return np.asarray(self._xdot(t), dtype=float)
        h = self._dt
        # One-sided at the ends of the closed interval.
        if t - h < self.t0:
            return (self.x(t + h) - self.x(t)) / h
        if t + h > self.t1:
            return (self.x(t) - self.x(t - h)) / h
        return (self.x(t + h) - self.x(t - h)) / (2.0 * h)

    def x_batch(self, ts) -> np.ndarray:
        return np.stack([self.x(t) for t in ts])

    def u_batch(self, ts) -> np.ndarray:
        return np.stack([self.u(t) for t in ts])

    def xdot_batch(self, ts) -> np.ndarray:
        return np.stack([self.xdot(t) for t in ts])

    @classmethod
    def from_exprs(
        cls,
        x_exprs,
        u_exprs,
        t_range=(0.0, 1.0),
        residual_tol: float = ADMISSIBILITY_TOL,
    ) -> "AdmissibleCurve":
        """Curve from expressions in the variable ``t``; exact velocities from dual numbers."""
        x_fn = ex.time_batch(x_exprs)
        u_fn = ex.time_batch(u_exprs)
        xdot_fn = ex.time_batch(x_exprs, derivative=True)
        curve = cls(t_range, x_fn, u_fn, xdot=xdot_fn, residual_tol=residual_tol)
        curve.x_batch, curve.u_batch, curve.xdot_batch = x_fn, u_fn, xdot_fn
        return curve

    def reversed(self) -> "AdmissibleCurve":
        """Time reversal: base traversed backwards, fiber vector negated."""
        t0, t1 = self.t0, self.t1

        def back(ts):
            return t0 + t1 - np.asarray(ts, dtype=float)

        curve = AdmissibleCurve(
            (t0, t1),
            lambda t: self.x(t0 + t1 - t),
            lambda t: -self.u(t0 + t1 - t),
            xdot=lambda t: -self.xdot(t0 + t1 - t),
            residual_tol=self.residual_tol,
        )
        curve.x_batch = lambda ts: self.x_batch(back(ts))
        curve.u_batch = lambda ts: -self.u_batch(back(ts))
        curve.xdot_batch = lambda ts: -self.xdot_batch(back(ts))
        return curve


class SampledCurve(AdmissibleCurve):
    """Curve stored as samples with cubic Hermite interpolation.

    Node derivatives are whatever the producer recorded (integrators store
    the vector-field values); the admissibility residual is still measured
    with finite differences of the samples, independent of those claims.
    """

    def __init__(self, ts, xs, us, xdots, truncated: bool = False):
        ts = np.asarray(ts, dtype=float)
        self.ts = ts
        self.xs = np.asarray(xs, dtype=float)
        self.us = np.asarray(us, dtype=float)
        self.xdots = np.asarray(xdots, dtype=float)
        self.truncated = truncated
        super().__init__(
            (ts[0], ts[-1]),
            self._interp_x,
            self._interp_u,
            xdot=None,
            residual_tol=ADMISSIBILITY_TOL_SAMPLED,
        )

    def _segment(self, t: float) -> tuple[int, float, float]:
        ts = self.ts
        i = int(np.searchsorted(ts, t, side="right") - 1)
        i = min(max(i, 0), len(ts) - 2)
        h = ts[i + 1] - ts[i]
        return i, (t - ts[i]) / h, h

    def _interp_x(self, t: float) -> np.ndarray:
        i, s, h = self._segment(t)
        p0, p1 = self.xs[i], self.xs[i + 1]
        m0, m1 = self.xdots[i] * h, self.xdots[i + 1] * h
        h00 = 2 * s**3 - 3 * s**2 + 1
        h10 = s**3 - 2 * s**2 + s
        h01 = -2 * s**3 + 3 * s**2
        h11 = s**3 - s**2
        return h00 * p0 + h10 * m0 + h01 * p1 + h11 * m1

    def _interp_u(self, t: float) -> np.ndarray:
        i, s, _ = self._segment(t)
        return (1 - s) * self.us[i] + s * self.us[i + 1]

    def xdot(self, t: float) -> np.ndarray:
        # Finite differences of the node data; deliberately not the recorded
        # node derivatives, so the admissibility check stays independent.
        ts = self.ts
        j = int(np.argmin(np.abs(ts - t)))
        if 0 < j < len(ts) - 1:
            return (self._interp_x(ts[j + 1]) - self._interp_x(ts[j - 1])) / (ts[j + 1] - ts[j - 1])
        return super().xdot(t)


@dataclass
class _FlowResult:
    ts: np.ndarray
    xs: np.ndarray
    truncated: bool


def _rk4_flow(f: Callable[[np.ndarray], np.ndarray], x0: np.ndarray, t_range, steps: int, inside) -> _FlowResult:
    """Classical fixed-step RK4 for an autonomous system, truncating on escape."""
    t0, t1 = float(t_range[0]), float(t_range[1])
    h = (t1 - t0) / steps
    ts = [t0]
    xs = [np.asarray(x0, dtype=float)]
    x = xs[0]
    truncated = False
    for i in range(steps):
        try:
            k1 = f(x)
            k2 = f(x + 0.5 * h * k1)
            k3 = f(x + 0.5 * h * k2)
            k4 = f(x + h * k3)
        except DomainError:
            # An intermediate stage left the box: truncate here.
            truncated = True
            break
        nxt = x + (h / 6.0) * (k1 + 2 * k2 + 2 * k3 + k4)
        if not np.all(np.isfinite(nxt)):
            raise NumericError(f"flow diverged at t={t0 + (i + 1) * h}")
        if not inside(nxt):
            truncated = True
            break
        x = nxt
        ts.append(t0 + (i + 1) * h)
        xs.append(x)
    if len(ts) < 2:
        raise DomainError("flow left the domain box immediately")
    return _FlowResult(np.array(ts), np.stack(xs), truncated)


def integral_curve_of_section(
    bundle: AnchorBundle,
    section: VectorField,
    x0,
    t_range=(0.0, 1.0),
    steps: int = 1000,
) -> SampledCurve:
    """Curve ``t -> (x(t), s(x(t)))`` with the base flowing along the anchored section.

    Escape from the domain box truncates the result and sets its flag.
    """
    if len(section) != bundle.k:
        raise ShapeError(f"section must have {bundle.k} components")
    x0 = bundle.base.require(x0)

    def rhs(x):
        return bundle.anchor_matrix(x) @ section.value(x)

    flow = _rk4_flow(rhs, x0, t_range, steps, bundle.base.contains)
    us = np.stack([section.value(x) for x in flow.xs])
    xdots = np.stack([rhs(x) for x in flow.xs])
    return SampledCurve(flow.ts, flow.xs, us, xdots, truncated=flow.truncated)
