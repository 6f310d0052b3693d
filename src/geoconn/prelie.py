"""Skew products on sections of an anchored bundle, curvature and torsion.

The product is stored through its structure functions on the coordinate
frame (kept on ordered index pairs, so skew-symmetry is exact by storage)
and extended to arbitrary sections by the derivation rule in each argument.
Curvature and torsion are computed both as operators (nested derivatives)
and through component formulas; the component formulas are stated for the
stored lift-convention coefficients, which enter the derivative operator
with a minus sign -- the redundancy between the two routes is itself part of
the test surface.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from . import expr as ex
from .bundle import AnchorBundle
from .connection import LinearConnection, lift, lift_section
from .defaults import ANCHOR_HOM_TOL, ANCHOR_HOM_TOL_FD, NESTED_FD_STEP
from .derivative import nabla, nabla_field
from .fields import (
    GeoconnError,
    MatrixField,
    ScalarField,
    ShapeError,
    VectorField,
    lie_bracket,
    matvec,
)


class StructureError(GeoconnError):
    """Structure functions violate their storage contract."""


class PreLieStructure:
    """Skew product on sections, given by structure functions on the frame."""

    def __init__(self, bundle: AnchorBundle, upper: dict[tuple[int, int], VectorField]):
        for (a, b), comps in upper.items():
            if not 0 <= a < b < bundle.k:
                raise StructureError(f"structure functions must be stored on ordered pairs, got {(a, b)}")
            if len(comps) != bundle.k:
                raise StructureError("each structure-function entry needs k components")
        self.bundle = bundle
        self.upper = dict(upper)

    @classmethod
    def zero(cls, bundle: AnchorBundle) -> "PreLieStructure":
        return cls(bundle, {})

    @classmethod
    def from_constants(cls, bundle: AnchorBundle, arr) -> "PreLieStructure":
        """Constant structure functions from an array indexed ``[lam, alpha, beta]``."""
        arr = np.asarray(arr, dtype=float)
        k = bundle.k
        if arr.shape != (k, k, k):
            raise ShapeError(f"expected shape (k, k, k), got {arr.shape}")
        if np.max(np.abs(arr + arr.transpose(0, 2, 1))) > 0.0:
            raise StructureError("constant structure functions must be exactly skew in the lower indices")
        upper = {}
        for a in range(k):
            for b in range(a + 1, k):
                if np.any(arr[:, a, b] != 0.0):
                    upper[(a, b)] = VectorField.constant(bundle.base, arr[:, a, b])
        return cls(bundle, upper)

    @classmethod
    def from_exprs(cls, bundle: AnchorBundle, rows, check_points: int = 5) -> "PreLieStructure":
        """Expression structure functions nested ``[lam][alpha][beta]``.

        Skew-symmetry of the supplied table is verified numerically at
        sampled points before the lower triangle is dropped.
        """
        k = bundle.k
        if len(rows) != k or any(len(r) != k for r in rows) or any(len(rr) != k for r in rows for rr in r):
            raise ShapeError(f"structure nesting must be [{k}][{k}][{k}]")
        fields = [[[ex.to_field(rows[lam][a][b], bundle.base) for b in range(k)] for a in range(k)] for lam in range(k)]
        rng = np.random.default_rng(0)
        pts = bundle.base.sample(rng, check_points)
        for lam in range(k):
            for a in range(k):
                if np.max(np.abs(fields[lam][a][a].value(pts))) > 1e-12:
                    raise StructureError(f"diagonal structure function [{lam}][{a}][{a}] is not zero")
                for b in range(a + 1, k):
                    if np.max(np.abs(fields[lam][a][b].value(pts) + fields[lam][b][a].value(pts))) > 1e-12:
                        raise StructureError(f"structure functions not skew at indices [{lam}][{a}][{b}]")
        upper = {}
        for a in range(k):
            for b in range(a + 1, k):
                upper[(a, b)] = VectorField([fields[lam][a][b] for lam in range(k)])
        return cls(bundle, upper)

    @classmethod
    def from_fields(cls, bundle: AnchorBundle, upper_fields: dict[tuple[int, int], Sequence[ScalarField]]) -> "PreLieStructure":
        return cls(bundle, {pair: VectorField(list(comps)) for pair, comps in upper_fields.items()})

    def tensor(self, x) -> np.ndarray:
        """Structure functions at one point or a batch, indexed ``[..., lam, alpha, beta]``."""
        k = self.bundle.k
        out = np.zeros(np.shape(x)[:-1] + (k, k, k))
        for (a, b), comps in self.upper.items():
            v = comps.value(x)
            out[..., a, b] = v
            out[..., b, a] = -v
        return out


def star_product(struct: PreLieStructure, s1: VectorField, s2: VectorField, x) -> np.ndarray:
    """Product of two sections at one point ``x`` or a batch.

    Structure-function contraction plus the derivation terms: the anchor
    image of each argument differentiates the components of the other.
    """
    bundle = struct.bundle
    x = bundle.base.require(x)
    s1v, s2v = s1.value(x), s2.value(x)
    gam = bundle.anchor_matrix(x)
    c = struct.tensor(x)
    derivation = matvec(s2.jacobian(x), matvec(gam, s1v)) - matvec(s1.jacobian(x), matvec(gam, s2v))
    return np.einsum("...lab,...a,...b->...l", c, s1v, s2v) + derivation


def star_section(struct: PreLieStructure, s1: VectorField, s2: VectorField) -> VectorField:
    """The product as a derived section, usable where a section is expected."""
    dom = struct.bundle.base

    def comp(idx):
        return ScalarField(
            dom,
            lambda p, _i=idx: star_product(struct, s1, s2, np.asarray(p, dtype=float))[_i],
            mode="fd",
            step=NESTED_FD_STEP,
        )

    return VectorField([comp(i) for i in range(struct.bundle.k)])


def anchor_hom_residual(struct: PreLieStructure, x) -> float | np.ndarray:
    """How far the anchor is from intertwining the product with the bracket.

    Max over index triples of the difference between the contracted structure
    functions and the bracket of the anchored frame fields; zero certifies
    tensoriality of the curvature at ``x``.  A float for one point, an array
    ``(m,)`` for a batch.
    """
    bundle = struct.bundle
    x = bundle.base.require(x)
    gam = bundle.anchor_matrix(x)
    dgam = bundle.gamma.jacobian(x)  # (..., n_axes, n, k)
    c = struct.tensor(x)
    lhs = np.einsum("...lab,...il->...iab", c, gam)
    rhs = np.einsum("...ja,...jib->...iab", gam, dgam) - np.einsum("...jb,...jia->...iab", gam, dgam)
    return np.max(np.abs(lhs - rhs), axis=(-3, -2, -1))


def jacobiator(struct: PreLieStructure, s1: VectorField, s2: VectorField, s3: VectorField, x) -> np.ndarray:
    """Cyclic sum of nested products; lands in the anchor kernel whenever the
    anchor intertwines the product with the bracket."""
    x = struct.bundle.base.require(x)
    out = star_product(struct, s1, star_section(struct, s2, s3), x)
    out = out + star_product(struct, s2, star_section(struct, s3, s1), x)
    out = out + star_product(struct, s3, star_section(struct, s1, s2), x)
    return out


# -- curvature ---------------------------------------------------------------


def curvature(
    conn: LinearConnection,
    struct: PreLieStructure,
    s1: VectorField,
    s2: VectorField,
    psi: VectorField,
    x,
) -> np.ndarray:
    """Curvature operator value: the antisymmetrized second derivative of
    ``psi`` minus the derivative along the product section.

    The nested derivative differentiates a derived field by differencing an
    inner evaluation.
    """
    x = conn.bundle.base.require(x)
    out = nabla(conn, s1, nabla_field(conn, s2, psi), x)
    out = out - nabla(conn, s2, nabla_field(conn, s1, psi), x)
    out = out - nabla(conn, star_section(struct, s1, s2), psi, x)
    return out


def curvature_components(conn: LinearConnection, struct: PreLieStructure, x) -> np.ndarray:
    """Curvature tensor at one point or a batch, indexed ``[..., alpha, beta, B, A]``.

    Equals :func:`curvature` on frame sections whenever the anchor
    homomorphism residual vanishes.  In terms of the stored lift-convention
    coefficients the anchored derivative terms and the structure-function
    term enter with signs opposite to the quadratic commutator (the stored
    coefficients are the negatives of the frame-derivative ones).
    """
    x = conn.bundle.base.require(x)
    gam = conn.bundle.anchor_matrix(x)
    coeff = conn.coeff_tensor(x)  # (..., k, l, l) indexed [alpha, A, B]
    dcoeff = conn.coeff_tensor_partial(x)  # (..., n, k, l, l)
    c = struct.tensor(x)
    term_d = -np.einsum("...ia,...ibBA->...abBA", gam, dcoeff) + np.einsum("...ib,...iaBA->...abBA", gam, dcoeff)
    term_q = np.einsum("...aBC,...bCA->...abBA", coeff, coeff) - np.einsum("...bBC,...aCA->...abBA", coeff, coeff)
    term_c = np.einsum("...lab,...lBA->...abBA", c, coeff)
    return term_d + term_q + term_c


def contract_curvature(components: np.ndarray, s1v, s2v, yv) -> np.ndarray:
    """Contraction of curvature components with two directions and a fiber vector."""
    return np.einsum("...abBA,...a,...b,...A->...B", components, np.asarray(s1v), np.asarray(s2v), np.asarray(yv))


@dataclass(frozen=True)
class InvolutivityDefect:
    """Vertical defect of a bracket of lifted sections (``base_max`` per point for a batch)."""

    fiber: np.ndarray
    base_max: float | np.ndarray


def involutivity_defect(
    conn: LinearConnection,
    struct: PreLieStructure,
    s1: VectorField,
    s2: VectorField,
    e,
    hom_tol: float | None = None,
) -> InvolutivityDefect:
    """Bracket of the lifted sections minus the lift of their product, at ``e``.

    ``e = (x, y)`` is one total-space point or a batch of them.  Requires the
    anchor homomorphism residual to vanish at each base point (within
    ``hom_tol``, which defaults by derivative mode); the base component of the
    defect then vanishes and the fiber component is curvature contracted
    against the reversed argument order (equivalently, minus the contraction
    in the given order).
    """
    if hom_tol is None:
        hom_tol = ANCHOR_HOM_TOL if struct.bundle.gamma.supports_dual else ANCHOR_HOM_TOL_FD
    x, y = np.asarray(e[0], dtype=float), np.asarray(e[1], dtype=float)
    residual = np.max(anchor_hom_residual(struct, x))
    if residual > hom_tol:
        raise GeoconnError(
            f"anchor homomorphism residual {residual:.3e} exceeds {hom_tol:.3e}; "
            "the bracket defect is not vertical here"
        )
    halfwidth = max(10.0, 2.0 * float(np.max(np.abs(y))) + 1.0)
    lifted1 = lift_section(conn, s1, fiber_halfwidth=halfwidth)
    lifted2 = lift_section(conn, s2, fiber_halfwidth=halfwidth)
    bracket = lie_bracket(lifted1, lifted2, np.concatenate([x, y], axis=-1))
    dx, dy = lift(conn, (x, y), star_product(struct, s1, s2, x))
    defect = bracket - np.concatenate([dx, dy], axis=-1)
    n = conn.bundle.n
    return InvolutivityDefect(fiber=defect[..., n:], base_max=np.max(np.abs(defect[..., :n]), axis=-1))


# -- torsion -----------------------------------------------------------------


def torsion(conn: LinearConnection, struct: PreLieStructure, s1: VectorField, s2: VectorField, x) -> np.ndarray:
    """Antisymmetrized derivative minus the product, for connections on the
    anchored bundle itself (fiber ranks must agree)."""
    if conn.l != conn.bundle.k:
        raise ShapeError("torsion needs a connection on the anchored bundle itself (l == k)")
    x = conn.bundle.base.require(x)
    return nabla(conn, s1, s2, x) - nabla(conn, s2, s1, x) - star_product(struct, s1, s2, x)


def torsion_components(conn: LinearConnection, struct: PreLieStructure, x) -> np.ndarray:
    """Torsion tensor at one point or a batch, indexed ``[..., alpha, beta, lam]``.

    Matches :func:`torsion` on frame sections; in the stored lift-convention
    coefficients the component formula is the coefficient transposition minus
    the original, minus the structure functions.
    """
    if conn.l != conn.bundle.k:
        raise ShapeError("torsion needs a connection on the anchored bundle itself (l == k)")
    x = conn.bundle.base.require(x)
    coeff = conn.coeff_tensor(x)  # [..., alpha, lam, beta]
    c = struct.tensor(x)  # [..., lam, alpha, beta]
    gamma_ab = np.einsum("...alb->...abl", coeff)  # [..., alpha, beta, lam]
    return np.einsum("...abl->...bal", gamma_ab) - gamma_ab - np.einsum("...lab->...abl", c)


# -- deformed bracket ---------------------------------------------------------


def apply_tensor_field(a_field: MatrixField, vec: VectorField) -> VectorField:
    """Pointwise action of a square matrix field on a vector field."""
    if a_field.rows != a_field.cols or a_field.rows != len(vec):
        raise ShapeError("tensor field and vector field shapes do not match")
    dual_ok = a_field.supports_dual and vec.supports_dual
    mode = "dual" if dual_ok else "fd"
    n = a_field.rows

    def comp(i):
        def fn(values, _i=i):
            return sum(a_field.entries[_i][j].gen(values) * vec.components[j].gen(values) for j in range(n))

        return ScalarField(a_field.domain, fn, mode=mode, step=NESTED_FD_STEP)

    return VectorField([comp(i) for i in range(n)])


def nijenhuis_bracket(a_field: MatrixField, x_field: VectorField, y_field: VectorField, x) -> np.ndarray:
    """Bracket deformed by a square tensor field.

    Standard three-term expression: bracket each argument against the image
    of the other, minus the image of the plain bracket.
    """
    term1 = lie_bracket(apply_tensor_field(a_field, x_field), y_field, x)
    term2 = lie_bracket(x_field, apply_tensor_field(a_field, y_field), x)
    term3 = matvec(a_field.value(x), lie_bracket(x_field, y_field, x))
    return term1 + term2 - term3


def nijenhuis_structure_functions(a_field: MatrixField) -> dict[tuple[int, int], list[ScalarField]]:
    """Structure functions of the deformed bracket on the coordinate frame.

    The pair entry carries the derivative of the tensor column along one axis
    minus the derivative along the other.
    """
    n = a_field.rows
    dom = a_field.domain
    out: dict[tuple[int, int], list[ScalarField]] = {}
    for a in range(n):
        for b in range(a + 1, n):
            comps = []
            for lam in range(n):
                def fn(p, _lam=lam, _a=a, _b=b):
                    return a_field.entries[_lam][_b].partial(p, _a) - a_field.entries[_lam][_a].partial(p, _b)

                comps.append(ScalarField(dom, fn, mode="fd", step=NESTED_FD_STEP))
            out[(a, b)] = comps
    return out
