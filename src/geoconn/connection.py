"""Connections over an anchored bundle, in local coordinate form.

A connection on a fiber bundle of rank ``l`` assigns to each total-space
point and fiber vector of the anchored bundle a tangent vector whose base
component is the anchor image.  Everything is stored as coefficient fields;
the coordinate transformation law is a first-class operation instead of
chart-gluing machinery.  The coefficient sign convention is fixed by the
lift: the fiber component of a lifted vector is ``Gamma(x) u y`` (see
:func:`lift`), and the same coefficients feed the transport equation and the
derivative operator.
"""

from __future__ import annotations

import functools
from typing import Callable, Sequence

import numpy as np

from . import expr as ex
from .bundle import AnchorBundle
from .defaults import ADMISSIBILITY_TOL, COND_LIMIT, NESTED_FD_STEP, RANK_REL_TOL
from .fields import (
    CoordDomain,
    GeoconnError,
    MatrixField,
    ScalarField,
    ShapeError,
    VectorField,
    matvec,
)
from .linalg import intersection_dim, rank_kernel, spans_whole_space


class RegularityError(GeoconnError):
    """A bundle change is singular (or numerically near-singular)."""


class PullbackError(GeoconnError):
    """A tangent vector is not compatible with the given fiber vector."""


def _fiber_box(l: int, halfwidth: float) -> list[tuple[float, float]]:
    return [(-halfwidth, halfwidth)] * l


class LinearConnection:
    """Connection with coefficients linear in the fiber coordinate.

    ``coeffs[alpha]`` is an l-by-l matrix field; entry ``[A][B]`` multiplies
    ``u^alpha y^B`` in the fiber component of the lift.
    """

    def __init__(self, bundle: AnchorBundle, fiber_rank_e: int, coeffs: Sequence[MatrixField]):
        coeffs = tuple(coeffs)
        if len(coeffs) != bundle.k:
            raise ShapeError(f"need one coefficient matrix per fiber direction ({bundle.k})")
        for m in coeffs:
            if m.rows != fiber_rank_e or m.cols != fiber_rank_e:
                raise ShapeError(f"coefficient blocks must be {fiber_rank_e}x{fiber_rank_e}")
            if m.domain.bounds != bundle.base.bounds:
                raise ShapeError("coefficients live on a different domain than the bundle")
        self.bundle = bundle
        self.fiber_rank_e = fiber_rank_e
        self.coeffs = coeffs
        # Every block as one (k*l)-by-l field, so a batch visits each point once.
        self._blocks = MatrixField([row for m in coeffs for row in m.entries])

    @property
    def l(self) -> int:
        return self.fiber_rank_e

    @property
    def linear(self) -> bool:
        return True

    @classmethod
    def zero(cls, bundle: AnchorBundle, fiber_rank_e: int) -> "LinearConnection":
        z = np.zeros((fiber_rank_e, fiber_rank_e))
        return cls(bundle, fiber_rank_e, [MatrixField.constant(bundle.base, z) for _ in range(bundle.k)])

    @classmethod
    def from_array(cls, bundle: AnchorBundle, arr) -> "LinearConnection":
        """Constant coefficients from an array indexed ``[alpha, A, B]``."""
        arr = np.asarray(arr, dtype=float)
        if arr.ndim != 3 or arr.shape[0] != bundle.k or arr.shape[1] != arr.shape[2]:
            raise ShapeError(f"expected shape (k, l, l), got {arr.shape}")
        return cls(bundle, arr.shape[1], [MatrixField.constant(bundle.base, arr[a]) for a in range(bundle.k)])

    @classmethod
    def from_exprs(cls, bundle: AnchorBundle, groups) -> "LinearConnection":
        """Expression coefficients nested ``[alpha][A][B]``: one square block
        per anchored direction, in the base variables."""
        if len(groups) != bundle.k:
            raise ShapeError(f"need one coefficient block per fiber direction ({bundle.k})")
        mats = [MatrixField([[ex.to_field(e, bundle.base) for e in row] for row in group]) for group in groups]
        l = mats[0].rows
        return cls(bundle, l, mats)

    # -- evaluation ------------------------------------------------------------

    def _split(self, blocks: np.ndarray) -> np.ndarray:
        return blocks.reshape(blocks.shape[:-2] + (self.bundle.k, self.l, self.l))

    def coeff_tensor(self, x) -> np.ndarray:
        """Coefficients at one point or a batch, indexed ``[..., alpha, A, B]``."""
        return self._split(self._blocks.value(x))

    def coeff_tensor_partial(self, x) -> np.ndarray:
        """Partials of the coefficients along every base axis, indexed ``[..., j, alpha, A, B]``."""
        return self._split(self._blocks.jacobian(x))

    def coeff_sample(self, points: np.ndarray) -> np.ndarray:
        """Batch of coefficient tensors without the domain gate, shape ``(m, k, l, l)``."""
        return self._split(self._blocks.sample(points))

    def gamma_xy(self, x, y) -> np.ndarray:
        """Induced general coefficients, the l-by-k matrix at ``(x, y)`` or a batch of them."""
        y = np.asarray(y, dtype=float)
        return np.einsum("...aAB,...B->...Aa", self.coeff_tensor(x), y)

    @property
    def supports_dual(self) -> bool:
        return all(m.supports_dual for m in self.coeffs)

    def component_gen(self, A: int, alpha: int) -> Callable:
        """Generic closure for the induced coefficient entry at ``(x, y)``."""
        n = self.bundle.n
        l = self.l
        entries = self.coeffs[alpha].entries[A]

        def fn(values):
            xs = values[:n]
            return sum(entries[B].gen(xs) * values[n + B] for B in range(l))

        return fn


class GeneralConnection:
    """Connection whose coefficients may depend arbitrarily on the fiber point.

    ``entries[A][alpha]`` is a scalar field on the product domain
    ``(x0..x{n-1}, y0..y{l-1})``.
    """

    def __init__(self, bundle: AnchorBundle, fiber_rank_e: int, entries: Sequence[Sequence[ScalarField]]):
        entries = tuple(tuple(r) for r in entries)
        if len(entries) != fiber_rank_e or any(len(r) != bundle.k for r in entries):
            raise ShapeError(f"coefficient nesting must be [l={fiber_rank_e}][k={bundle.k}]")
        self.bundle = bundle
        self.fiber_rank_e = fiber_rank_e
        self.entries = entries
        self._field = MatrixField(entries)

    @property
    def l(self) -> int:
        return self.fiber_rank_e

    @property
    def linear(self) -> bool:
        return False

    @classmethod
    def from_exprs(cls, bundle: AnchorBundle, rows) -> "GeneralConnection":
        """Expression coefficients ``[A][alpha]`` in variables x0.., y0.."""
        l = len(rows)
        ext = bundle.base.extend(_fiber_box(l, 1e6))
        names = ex.coord_names(bundle.n) + ex.coord_names(l, "y")
        entries = []
        for row in rows:
            out_row = []
            for src in row:
                node = ex.parse(src, names) if isinstance(src, str) else ex.Num(float(src))
                out_row.append(ScalarField(ext, lambda env, _n=node: ex.evaluate(_n, env), mode="dual"))
            entries.append(out_row)
        return cls(bundle, l, entries)

    def gamma_xy(self, x, y) -> np.ndarray:
        """Coefficients at ``(x, y)`` or a batch of them, shape ``(..., l, k)``."""
        return self._field.value(np.concatenate([np.asarray(x, dtype=float), np.asarray(y, dtype=float)], axis=-1))

    @property
    def supports_dual(self) -> bool:
        return self._field.supports_dual

    def component_gen(self, A: int, alpha: int) -> Callable:
        return self.entries[A][alpha].gen


Connection = LinearConnection | GeneralConnection


# -- lifts ---------------------------------------------------------------------


def lift(conn: Connection, e, nvec) -> tuple[np.ndarray, np.ndarray]:
    """Tangent vector at ``e = (x, y)`` lifting the fiber vector ``nvec``.

    The base component is the anchor image of ``nvec``; the fiber component
    contracts the connection coefficients with ``nvec`` (and ``y`` in the
    linear case).  ``x``, ``y`` and ``nvec`` may carry a leading batch axis.
    """
    x, y = e
    nvec = np.asarray(nvec, dtype=float)
    if nvec.shape[-1:] != (conn.bundle.k,):
        raise ShapeError(f"fiber vector must have length {conn.bundle.k}")
    dx = matvec(conn.bundle.anchor_matrix(x), nvec)
    dy = matvec(conn.gamma_xy(x, y), nvec)
    return dx, dy


def lift_section(conn: Connection, section: VectorField, fiber_halfwidth: float = 10.0) -> VectorField:
    """Vector field on the total space lifting a section of the anchored bundle.

    Components are exact-derivative fields whenever all ingredients support
    dual evaluation, and difference-based fields otherwise.
    """
    if len(section) != conn.bundle.k:
        raise ShapeError(f"section must have {conn.bundle.k} components")
    n, k, l = conn.bundle.n, conn.bundle.k, conn.l
    ext = conn.bundle.base.extend(_fiber_box(l, fiber_halfwidth))
    dual_ok = conn.supports_dual and section.supports_dual and conn.bundle.gamma.supports_dual
    mode = "dual" if dual_ok else "fd"
    gamma_entries = conn.bundle.gamma.entries
    s_comps = section.components

    comps = []
    for i in range(n):
        def base_fn(values, _i=i):
            xs = values[:n]
            return sum(gamma_entries[_i][a].gen(xs) * s_comps[a].gen(xs) for a in range(k))

        comps.append(ScalarField(ext, base_fn, mode=mode, step=NESTED_FD_STEP))
    for A in range(l):
        gens = [conn.component_gen(A, a) for a in range(k)]

        def fiber_fn(values, _gens=gens):
            xs = values[:n]
            return sum(g(values) * s_comps[a].gen(xs) for a, g in enumerate(_gens))

        comps.append(ScalarField(ext, fiber_fn, mode=mode, step=NESTED_FD_STEP))
    return VectorField(comps)


def vertical_part(
    conn: Connection, e, nvec, w, tol: float = ADMISSIBILITY_TOL
) -> tuple[np.ndarray, np.ndarray]:
    """Defect of a tangent vector against the lift of ``nvec``.

    ``w = (dx, dy)`` must project onto the anchor image of ``nvec`` within
    ``tol``; the result is vertical, returned as ``(zeros, dy_defect)``.
    """
    dx, dy = np.asarray(w[0], dtype=float), np.asarray(w[1], dtype=float)
    hx, hy = lift(conn, e, nvec)
    mismatch = float(np.max(np.abs(dx - hx))) if dx.size else 0.0
    if mismatch > tol:
        raise PullbackError(
            f"tangent base component deviates from the anchor image by {mismatch:.3e} (tol {tol:.3e})"
        )
    return np.zeros_like(dx), dy - hy


def connection_map(conn: Connection, e, nvec, w, tol: float = ADMISSIBILITY_TOL) -> np.ndarray:
    """Fiber vector extracted from the vertical defect of ``w`` at ``e``."""
    return vertical_part(conn, e, nvec, w, tol)[1]


# -- coordinate transformation ---------------------------------------------


def _memo_by_point(fn: Callable) -> Callable:
    """``fn`` of a point, memoised on the point's coordinates for the last 64 points.

    Every entry field of a transformed object reads one per-point evaluation.
    """
    cached = functools.lru_cache(maxsize=64)(lambda key: fn(np.array(key)))
    return lambda p: cached(tuple(np.asarray(p, dtype=float).tolist()))


class BundleChange:
    """Fiberwise-linear coordinate change of base, fiber and anchored bundle.

    ``xi`` rescales the connection fiber, ``lam`` the anchored-bundle fiber;
    both must be regular on the working box.  ``xbar``/``xbar_inverse``
    describe the base diffeomorphism (identity when omitted).
    """

    def __init__(
        self,
        domain: CoordDomain,
        xi: MatrixField,
        lam: MatrixField,
        xbar: VectorField | None = None,
        xbar_inverse: Callable | None = None,
        target_domain: CoordDomain | None = None,
    ):
        if xi.rows != xi.cols or lam.rows != lam.cols:
            raise ShapeError("change matrices must be square")
        if xbar is not None and xbar_inverse is None:
            raise ShapeError("a base change needs an explicit inverse")
        self.domain = domain
        self.xi = xi
        self.lam = lam
        self.xbar = xbar
        self.xbar_inverse = xbar_inverse
        self.target_domain = target_domain if target_domain is not None else domain

    @classmethod
    def identity(cls, domain: CoordDomain, l: int, k: int) -> "BundleChange":
        return cls(domain, MatrixField.identity(domain, l), MatrixField.identity(domain, k))

    def forward(self, x) -> np.ndarray:
        return np.asarray(x, dtype=float) if self.xbar is None else self.xbar.value(x)

    def inverse(self, xbar) -> np.ndarray:
        return np.asarray(xbar, dtype=float) if self.xbar is None else np.asarray(self.xbar_inverse(xbar), dtype=float)

    def base_jacobian(self, x) -> np.ndarray:
        return np.eye(self.domain.dim) if self.xbar is None else self.xbar.jacobian(x)

    def inverted(self) -> "BundleChange":
        """Change undoing this one, defined on the target domain."""
        src = self

        @_memo_by_point
        def inverses_at(p) -> tuple[np.ndarray, np.ndarray]:
            x = src.inverse(p)
            return np.linalg.inv(src.xi.value(x)), np.linalg.inv(src.lam.value(x))

        l, k = src.xi.rows, src.lam.rows
        dom = src.target_domain

        def entry(which, i, j):
            return ScalarField(dom, lambda p: float(inverses_at(p)[which][i, j]), mode="fd")

        xi_inv = MatrixField([[entry(0, i, j) for j in range(l)] for i in range(l)])
        lam_inv = MatrixField([[entry(1, i, j) for j in range(k)] for i in range(k)])
        xbar = None
        xbar_inverse = None
        if src.xbar is not None:
            inv_fn = src.xbar_inverse
            xbar = VectorField(
                [ScalarField(dom, (lambda p, _i=i: float(np.asarray(inv_fn(p), dtype=float)[_i])), mode="fd") for i in range(dom.dim)]
            )
            xbar_inverse = src.forward
        return BundleChange(dom, xi_inv, lam_inv, xbar=xbar, xbar_inverse=xbar_inverse, target_domain=src.domain)


def _regular_inverse(mat: np.ndarray, label: str) -> np.ndarray:
    if np.linalg.cond(mat) > COND_LIMIT:
        raise RegularityError(f"{label} is singular at a sample point (cond > {COND_LIMIT:.1e})")
    return np.linalg.inv(mat)


def transform_connection(conn: LinearConnection, change: BundleChange) -> LinearConnection:
    """Connection coefficients and anchor after a fiberwise-linear change.

    New coefficients at a target point are assembled from the source data at
    the preimage:  the fiber-change derivative contracted with the anchor,
    plus the conjugated coefficients, both twisted by the inverse change
    matrices; the anchor picks up the base Jacobian and the inverse fiber
    change.
    """
    if not isinstance(conn, LinearConnection):
        raise ShapeError("only linear connections carry the linear transformation law")
    if change.xi.rows != conn.l or change.lam.rows != conn.bundle.k:
        raise ShapeError("change matrices do not match the connection shapes")
    n, k, l = conn.bundle.n, conn.bundle.k, conn.l

    @_memo_by_point
    def data_at(p) -> tuple[np.ndarray, np.ndarray]:
        x = change.inverse(p)
        xi = change.xi.value(x)
        lam = change.lam.value(x)
        xi_inv = _regular_inverse(xi, "fiber change")
        lam_inv = _regular_inverse(lam, "anchored-bundle change")
        gam = conn.bundle.anchor_matrix(x)
        coeff = conn.coeff_tensor(x)
        dxi = change.xi.jacobian(x)
        mid = np.einsum("jAC,jb->bAC", dxi, gam) + np.einsum("AD,bDC->bAC", xi, coeff)
        new_coeff = np.einsum("bAC,CB,ba->aAB", mid, xi_inv, lam_inv)
        new_gam = change.base_jacobian(x) @ gam @ lam_inv
        return new_gam, new_coeff

    dom = change.target_domain
    gamma_field = MatrixField(
        [[ScalarField(dom, (lambda p, _i=i, _a=a: data_at(p)[0][_i, _a]), mode="fd") for a in range(k)] for i in range(n)]
    )
    new_bundle = AnchorBundle(dom, k, gamma_field)
    mats = []
    for a in range(k):
        mats.append(
            MatrixField(
                [[ScalarField(dom, (lambda p, _a=a, _A=A, _B=B: data_at(p)[1][_a, _A, _B]), mode="fd") for B in range(l)] for A in range(l)]
            )
        )
    return LinearConnection(new_bundle, l, mats)


# -- structural tests ------------------------------------------------------


def _stacked_map(conn: Connection, x, y) -> np.ndarray:
    """Matrix of the lift at ``(x, y)`` as a map from the anchored fiber."""
    return np.vstack([conn.bundle.anchor_matrix(x), conn.gamma_xy(x, y)])


def partial_connection_test(
    conn: Connection,
    x,
    y_samples: np.ndarray | None = None,
    rng: np.random.Generator | None = None,
    random_count: int = 8,
    rel_tol: float = RANK_REL_TOL,
) -> tuple[bool, dict]:
    """Whether the lift image meets the vertical space only in zero at ``x``.

    Checked through the kernel criterion: the lift kernel must match the
    anchor kernel dimensionally at every sampled fiber point.  Fiber points
    cover a small deterministic grid plus seeded random draws, since for a
    nonlinear connection the kernel can vary with the fiber point.
    """
    x = conn.bundle.base.require(x)
    l = conn.l
    dim_ker_rho = conn.bundle.k - rank_kernel(conn.bundle.anchor_matrix(x), rel_tol)[0]
    if y_samples is None:
        base = [np.zeros(l), np.ones(l)] + [e for e in np.eye(l)]
        if rng is None:
            rng = np.random.default_rng(0)
        rand = rng.uniform(-2.0, 2.0, size=(random_count, l))
        y_samples = np.vstack([base, rand])
    samples = []
    passed = True
    witness = None
    for y in np.asarray(y_samples, dtype=float):
        rank_h = rank_kernel(_stacked_map(conn, x, y), rel_tol)[0]
        dim_ker_h = conn.bundle.k - rank_h
        ok = dim_ker_h == dim_ker_rho
        samples.append({"y": y.tolist(), "dim_ker_h": dim_ker_h, "ok": ok})
        if not ok and witness is None:
            witness = y.tolist()
            passed = False
    report = {
        "x": np.asarray(x).tolist(),
        "dim_ker_rho": dim_ker_rho,
        "samples": samples,
        "passed": passed,
        "witness": witness,
    }
    return passed, report


def intersection_sum_dims(conn: Connection, e, rel_tol: float = RANK_REL_TOL) -> dict:
    """Intersection dimension with the vertical space and whether the sum fills.

    Computed twice: by kernel-dimension arithmetic and by direct subspace
    arithmetic on spanning sets; the report carries both routes.
    """
    x, y = e
    x = conn.bundle.base.require(x)
    n, k, l = conn.bundle.n, conn.bundle.k, conn.l
    gam = conn.bundle.anchor_matrix(x)
    rank_rho = rank_kernel(gam, rel_tol)[0]
    rank_h = rank_kernel(_stacked_map(conn, x, y), rel_tol)[0]
    dim_formula = (k - rank_rho) - (k - rank_h)
    sum_formula = rank_rho == n

    q_span = _stacked_map(conn, x, y)  # columns lift the fiber basis
    v_span = np.vstack([np.zeros((n, l)), np.eye(l)])
    dim_direct = intersection_dim(q_span, v_span, rel_tol)
    sum_direct = spans_whole_space(q_span, v_span, n + l, rel_tol)

    return {
        "dim_intersection": dim_formula,
        "sum_spans": sum_formula,
        "dim_intersection_direct": dim_direct,
        "sum_spans_direct": sum_direct,
        "consistent": dim_formula == dim_direct and sum_formula == sum_direct,
    }


def restrict_ordinary_connection(ordinary: Connection, bundle: AnchorBundle) -> Connection:
    """Connection over ``bundle`` induced by composing an ordinary connection
    with the anchor.

    ``ordinary`` must live over the identity-anchored tangent bundle of the
    same base; the result always passes :func:`partial_connection_test`.
    """
    src = ordinary.bundle
    if src.k != src.n or src.base.bounds != bundle.base.bounds:
        raise ShapeError("ordinary connection must live over the tangent bundle of the same base")
    probe = np.vstack([src.base.center(), src.base.grid(2)[:4]])
    if np.max(np.abs(src.anchor_matrix(probe) - np.eye(src.n))) > 1e-12:
        raise ShapeError("ordinary connection must have the identity anchor")

    n, k, l = bundle.n, bundle.k, ordinary.l
    gamma_entries = bundle.gamma.entries
    if isinstance(ordinary, LinearConnection):
        dual_ok = ordinary.supports_dual and bundle.gamma.supports_dual
        mode = "dual" if dual_ok else "fd"
        mats = []
        for a in range(k):
            rows = []
            for A in range(l):
                row = []
                for B in range(l):
                    def fn(xs, _a=a, _A=A, _B=B):
                        return sum(
                            ordinary.coeffs[j].entries[_A][_B].gen(xs) * gamma_entries[j][_a].gen(xs)
                            for j in range(n)
                        )

                    row.append(ScalarField(bundle.base, fn, mode=mode, step=NESTED_FD_STEP))
                rows.append(row)
            mats.append(MatrixField(rows))
        return LinearConnection(bundle, l, mats)

    dual_ok = ordinary.supports_dual and bundle.gamma.supports_dual
    mode = "dual" if dual_ok else "fd"
    ext = bundle.base.extend(_fiber_box(l, 1e6))
    entries = []
    for A in range(l):
        row = []
        for a in range(k):
            def fn(values, _A=A, _a=a):
                xs = values[:n]
                return sum(
                    ordinary.entries[_A][j].gen(values) * gamma_entries[j][_a].gen(xs) for j in range(n)
                )

            row.append(ScalarField(ext, fn, mode=mode, step=NESTED_FD_STEP))
        entries.append(row)
    return GeneralConnection(bundle, l, entries)
