"""Derivative operator of a linear connection.

Pointwise differentiation of sections, differentiation along admissible
curves, the dual-bundle extension, reconstruction of a connection from an
abstract derivative rule, and difference tensors between two connections.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

import numpy as np

from .bundle import AdmissibleCurve, AnchorBundle, FiberPoint
from .connection import LinearConnection, connection_map
from .defaults import NESTED_FD_STEP
from .fields import GeoconnError, MatrixField, ScalarField, ShapeError, VectorField, matvec


def nabla(conn: LinearConnection, s: VectorField, psi: VectorField, x) -> np.ndarray:
    """Derivative of the section ``psi`` in the direction of the section ``s``,
    at one point ``x`` or a batch.

    Components: the anchor image of ``s`` applied to ``psi`` minus the
    coefficient contraction with ``s`` and ``psi``.
    """
    if len(s) != conn.bundle.k or len(psi) != conn.l:
        raise ShapeError("section shapes do not match the connection")
    x = conn.bundle.base.require(x)
    sv = s.value(x)
    pv = psi.value(x)
    vel = matvec(conn.bundle.anchor_matrix(x), sv)
    coeff = conn.coeff_tensor(x)
    return matvec(psi.jacobian(x), vel) - np.einsum("...aAB,...a,...B->...A", coeff, sv, pv)


def nabla_point(conn: LinearConnection, nvec: FiberPoint, psi: VectorField) -> np.ndarray:
    """Derivative at a single fiber vector, through the connection map.

    Agrees with :func:`nabla` for any section passing through ``nvec``.
    """
    x = conn.bundle.base.require(nvec.x)
    rho = conn.bundle.apply(nvec)
    e = (x, psi.value(x))
    w = (rho, psi.jacobian(x) @ rho)
    return connection_map(conn, e, nvec.u, w)


def nabla_field(conn: LinearConnection, s: VectorField, psi: VectorField) -> VectorField:
    """The derivative as a derived section, usable for nested differentiation."""
    dom = conn.bundle.base

    def comp(idx):
        return ScalarField(
            dom,
            lambda p, _i=idx: nabla(conn, s, psi, np.asarray(p, dtype=float))[_i],
            mode="fd",
            step=NESTED_FD_STEP,
        )

    return VectorField([comp(i) for i in range(conn.l)])


def nabla_along_curve(
    conn: LinearConnection,
    curve: AdmissibleCurve,
    psi_tilde: Callable[[float], np.ndarray],
    psi_tilde_dot: Callable[[float], np.ndarray] | None = None,
    dt: float = 1e-6,
) -> Callable[[float], np.ndarray]:
    """Derivative of a fiber map ``t -> psi(t)`` along an admissible curve.

    Vanishes identically exactly when ``psi_tilde`` is the lift with the same
    initial value.  The time derivative defaults to a central difference.
    """

    def dot(t: float) -> np.ndarray:
        if psi_tilde_dot is not None:
            return np.asarray(psi_tilde_dot(t), dtype=float)
        lo = max(curve.t0, t - dt)
        hi = min(curve.t1, t + dt)
        return (np.asarray(psi_tilde(hi), dtype=float) - np.asarray(psi_tilde(lo), dtype=float)) / (hi - lo)

    def value(t: float) -> np.ndarray:
        x = curve.x(t)
        coeff = conn.coeff_tensor(x)
        return dot(t) - np.einsum("aAB,a,B->A", coeff, curve.u(t), np.asarray(psi_tilde(t), dtype=float))

    return value


def nabla_dual(conn: LinearConnection, s: VectorField, f: VectorField, x) -> np.ndarray:
    """Derivative of a dual section, fixed by the pairing identity.

    The coefficient term enters with the opposite sign and transposed fiber
    indices relative to :func:`nabla`, so that differentiating a pairing obeys
    the product rule.
    """
    if len(s) != conn.bundle.k or len(f) != conn.l:
        raise ShapeError("section shapes do not match the connection")
    x = conn.bundle.base.require(x)
    sv = s.value(x)
    fv = f.value(x)
    vel = matvec(conn.bundle.anchor_matrix(x), sv)
    coeff = conn.coeff_tensor(x)
    return matvec(f.jacobian(x), vel) + np.einsum("...aBA,...a,...B->...A", coeff, sv, fv)


def reconstruct_connection(
    oracle: Callable[[VectorField, VectorField, np.ndarray], np.ndarray],
    bundle: AnchorBundle,
    fiber_rank_e: int,
    linearity_tol: float = 1e-6,
) -> LinearConnection:
    """Recover the unique linear connection behind a derivative rule.

    Evaluating the rule on constant basis sections kills the velocity term,
    leaving minus the coefficients.  The rule must be function-linear in its
    direction argument; this is spot-checked and violations are rejected.
    """
    k, l = bundle.k, fiber_rank_e
    dom = bundle.base
    sigma = [VectorField.constant(dom, np.eye(k)[a]) for a in range(k)]
    pbasis = [VectorField.constant(dom, np.eye(l)[B]) for B in range(l)]

    # Spot-check function-linearity in the direction argument.
    probes = [dom.center(), dom.grid(2)[0]]
    weight = ScalarField(dom, lambda p: 0.25 + 0.5 * p[0] - 0.125 * p[-1], mode="dual")
    for x in probes:
        w = weight.value(x)
        for a in (0, k - 1):
            scaled = VectorField(
                [ScalarField(dom, (lambda p, _b=b, _a=a: weight.gen(p) * (1.0 if _b == _a else 0.0)), mode="dual") for b in range(k)]
            )
            lhs = np.asarray(oracle(scaled, pbasis[0], x), dtype=float)
            rhs = w * np.asarray(oracle(sigma[a], pbasis[0], x), dtype=float)
            if np.max(np.abs(lhs - rhs)) > linearity_tol:
                raise GeoconnError(
                    "derivative rule is not function-linear in its direction argument "
                    f"(deviation {np.max(np.abs(lhs - rhs)):.3e})"
                )

    mats = []
    for a in range(k):
        rows = []
        for A in range(l):
            row = []
            for B in range(l):
                def fn(p, _a=a, _A=A, _B=B):
                    return -float(np.asarray(oracle(sigma[_a], pbasis[_B], np.asarray(p, dtype=float)))[_A])

                row.append(ScalarField(dom, fn, mode="fd", step=NESTED_FD_STEP))
            rows.append(row)
        mats.append(MatrixField(rows))
    return LinearConnection(bundle, l, mats)


@dataclass(frozen=True)
class DifferenceTensor:
    """Pointwise difference of two derivative operators.

    Function-bilinear by construction: the components depend on the base
    point only.
    """

    bundle: AnchorBundle
    fiber_rank_e: int
    coeff: Callable[[np.ndarray], np.ndarray]  # x -> (k, l, l)

    def apply(self, s: VectorField, psi: VectorField, x) -> np.ndarray:
        return np.einsum("...aAB,...a,...B->...A", self.coeff(x), s.value(x), psi.value(x))


def difference_tensor(conn_a: LinearConnection, conn_b: LinearConnection) -> DifferenceTensor:
    """Tensor acting as the operator difference of the two derivative rules.

    Stored coefficients enter :func:`nabla` with a minus sign, so the action
    components of the difference are ``coeff_b - coeff_a``; applying the
    result to a pair of sections equals ``nabla(conn_a) - nabla(conn_b)``.
    """
    if conn_a.bundle.base.bounds != conn_b.bundle.base.bounds or conn_a.l != conn_b.l or conn_a.bundle.k != conn_b.bundle.k:
        raise ShapeError("connections are not comparable")

    def coeff(x):
        return conn_b.coeff_tensor(x) - conn_a.coeff_tensor(x)

    return DifferenceTensor(conn_a.bundle, conn_a.l, coeff)


def add_difference(conn: LinearConnection, diff: DifferenceTensor) -> LinearConnection:
    """Connection whose derivative operator is the given one plus the tensor.

    The tensor enters the stored coefficients with a minus sign, matching the
    sign with which coefficients enter :func:`nabla`.
    """
    if conn.bundle.k != diff.bundle.k or conn.l != diff.fiber_rank_e:
        raise ShapeError("difference tensor does not match the connection")
    k, l = conn.bundle.k, conn.l
    dom = conn.bundle.base
    mats = []
    for a in range(k):
        rows = []
        for A in range(l):
            row = []
            for B in range(l):
                def fn(p, _a=a, _A=A, _B=B):
                    return conn.coeffs[_a].entries[_A][_B].value(np.asarray(p, dtype=float)) - diff.coeff(
                        np.asarray(p, dtype=float)
                    )[_a, _A, _B]

                row.append(ScalarField(dom, fn, mode="fd", step=NESTED_FD_STEP))
            rows.append(row)
        mats.append(MatrixField(rows))
    return LinearConnection(conn.bundle, l, mats)
