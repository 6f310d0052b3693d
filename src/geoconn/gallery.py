"""Canonical anchored bundles and connections used throughout the test suite.

Each constructor wires a complete case (bundle, optional connection, optional
product structure) and verifies its expected structural flags before handing
it out; a case that fails its own advertised properties raises instead of
shipping.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from . import expr as ex
from .bundle import AnchorBundle
from .connection import LinearConnection, partial_connection_test
from .defaults import ANCHOR_HOM_TOL
from .fields import CoordDomain, GeoconnError, MatrixField
from .prelie import PreLieStructure, anchor_hom_residual, nijenhuis_structure_functions


class GalleryError(GeoconnError):
    """A gallery case failed its construction-time verification."""


@dataclass
class GalleryCase:
    name: str
    bundle: AnchorBundle
    connection: LinearConnection | None = None
    structure: PreLieStructure | None = None
    expected_flags: dict = field(default_factory=dict)
    notes: str = ""

    def verify(self, rng: np.random.Generator | None = None, samples: int = 5) -> None:
        rng = np.random.default_rng(0) if rng is None else rng
        pts = self.bundle.base.sample(rng, samples)
        if "partial" in self.expected_flags and self.connection is not None:
            want = self.expected_flags["partial"]
            for x in pts:
                got, report = partial_connection_test(self.connection, x, rng=rng)
                if got != want:
                    raise GalleryError(
                        f"{self.name}: partial-connection flag is {got}, expected {want} at {x.tolist()}"
                    )
                if not want:
                    break  # one witness point suffices for an expected failure
        if "anchor_hom" in self.expected_flags and self.structure is not None:
            want = self.expected_flags["anchor_hom"]
            residual = float(np.max(anchor_hom_residual(self.structure, pts)))
            holds = residual <= ANCHOR_HOM_TOL
            if holds != want:
                raise GalleryError(
                    f"{self.name}: anchor-homomorphism flag is {holds} "
                    f"(max residual {residual:.3e}), expected {want}"
                )


_DEFAULT_COEFFS_2D = [
    # Nested [alpha][A][B], mild smooth entries.
    [["0.2*x1", "0.1"], ["0", "0.3*x0"]],
    [["0", "-0.1*x0"], ["0.15", "0.1*x1"]],
]


def _coeffs_or_default(bundle: AnchorBundle, l: int, coeffs):
    if coeffs is None:
        return LinearConnection.zero(bundle, l)
    if isinstance(coeffs, LinearConnection):
        return coeffs
    try:
        arr = np.asarray(coeffs, dtype=float)
    except (ValueError, TypeError):
        return LinearConnection.from_exprs(bundle, coeffs)
    if arr.ndim != 3:
        raise GalleryError("connection coefficients must nest three deep: [alpha][A][B]")
    return LinearConnection.from_array(bundle, arr)


def make_ehresmann(n: int = 2, l: int = 2, coeffs=None, box=None) -> GalleryCase:
    """Identity anchor on the tangent bundle: an ordinary connection.

    The coordinate frame commutes, so the zero structure functions make the
    anchor an exact homomorphism.
    """
    domain = CoordDomain.cube(n) if box is None else CoordDomain.box(box)
    bundle = AnchorBundle.identity(domain)
    if coeffs is None and n == 2 and l == 2:
        coeffs = _DEFAULT_COEFFS_2D
    conn = _coeffs_or_default(bundle, l, coeffs)
    case = GalleryCase(
        name="ehresmann",
        bundle=bundle,
        connection=conn,
        structure=PreLieStructure.zero(bundle),
        expected_flags={"partial": True, "anchor_hom": True},
        notes="ordinary connection; every structural gate holds",
    )
    case.verify()
    return case


def heisenberg_frame(domain: CoordDomain) -> MatrixField:
    """Rank-2 frame on R^3 spanning the standard contact distribution."""
    if domain.dim != 3:
        raise GalleryError("the contact frame lives on a 3-dimensional base")
    return ex.to_matrix_field([["1", "0"], ["0", "1"], ["-x1/2", "x0/2"]], domain)


def make_subbundle_injection(n: int = 3, k: int = 2, frame: MatrixField | None = None, l: int = 2, coeffs=None, box=None) -> GalleryCase:
    """Injection of a tangent subbundle: the anchor is a full-rank frame.

    Trivial anchor kernel forces the partial-connection property for any
    coefficients; with fewer frame fields than base dimensions the lift image
    and the vertical space cannot fill the tangent space together.
    """
    domain = CoordDomain.cube(n) if box is None else CoordDomain.box(box)
    gamma = heisenberg_frame(domain) if frame is None else frame
    if gamma.cols != k or gamma.rows != n:
        raise GalleryError(f"frame must be {n}x{k}")
    bundle = AnchorBundle(domain, k, gamma)
    rng = np.random.default_rng(1)
    for x in domain.sample(rng, 5):
        rank, _ = bundle.rank_kernel_at(x)
        if rank != k:
            raise GalleryError(f"frame drops rank at {x.tolist()}")
    if coeffs is None and k == 2 and l == 2:
        coeffs = _DEFAULT_COEFFS_2D
    conn = _coeffs_or_default(bundle, l, coeffs)
    case = GalleryCase(
        name="subbundle",
        bundle=bundle,
        connection=conn,
        expected_flags={"partial": True},
        notes="full-rank frame; kernel-free anchor",
    )
    case.verify()
    return case


def make_poisson(lam=None, l: int = 2, coeffs=None, box=None) -> GalleryCase:
    """Anchor induced by a skew bivector: covectors map to tangent vectors.

    The bivector contracts its first slot, so the anchor matrix is the
    transposed coefficient matrix.  Constant bivectors carry the zero
    structure functions, which then satisfy the homomorphism condition
    exactly; non-constant bivectors ship without a verified structure.
    """
    if lam is None:
        lam = np.array([[0.0, 1.0], [-1.0, 0.0]])
    constant = not isinstance(lam, MatrixField)
    if constant:
        lam_arr = np.asarray(lam, dtype=float)
        if lam_arr.ndim != 2 or lam_arr.shape[0] != lam_arr.shape[1]:
            raise GalleryError("bivector must be square")
        if np.max(np.abs(lam_arr + lam_arr.T)) > 0.0:
            raise GalleryError("bivector must be skew")
        n = lam_arr.shape[0]
        domain = CoordDomain.cube(n) if box is None else CoordDomain.box(box)
        gamma = MatrixField.constant(domain, lam_arr.T)
    else:
        n = lam.rows
        domain = lam.domain
        rng = np.random.default_rng(2)
        for x in domain.sample(rng, 5):
            m = lam.value(x)
            if np.max(np.abs(m + m.T)) > 1e-12:
                raise GalleryError(f"bivector is not skew at {x.tolist()}")
        gamma = MatrixField([[lam.entries[a][i] for a in range(n)] for i in range(n)])
    bundle = AnchorBundle(domain, n, gamma)
    conn = _coeffs_or_default(bundle, l, coeffs) if coeffs is not None else None
    structure = PreLieStructure.zero(bundle) if constant else None
    case = GalleryCase(
        name="poisson",
        bundle=bundle,
        connection=conn,
        structure=structure,
        expected_flags={"anchor_hom": True} if constant else {},
        notes="contravariant anchor from a skew bivector",
    )
    case.verify()
    return case


def make_nijenhuis(a_field=None, l: int = 2, coeffs=None, box=None, expect_hom: bool | None = None) -> GalleryCase:
    """Anchor given by a square tensor field, with the deformed bracket.

    Structure functions come from the deformed bracket of the coordinate
    frame.  For a constant tensor they vanish and the homomorphism condition
    holds; for a generic tensor it fails, which is exactly the regime where
    curvature stops being tensorial.
    """
    if a_field is None:
        domain = CoordDomain.box([[0.5, 2.0], [0.5, 2.0]]) if box is None else CoordDomain.box(box)
        a_field = ex.to_matrix_field([["x1", "0"], ["0", "x0"]], domain)
        if expect_hom is None:
            expect_hom = False
    else:
        if not isinstance(a_field, MatrixField):
            domain = CoordDomain.cube(np.asarray(a_field, dtype=float).shape[0]) if box is None else CoordDomain.box(box)
            a_field = MatrixField.constant(domain, np.asarray(a_field, dtype=float))
            if expect_hom is None:
                expect_hom = True
        else:
            domain = a_field.domain
    if a_field.rows != a_field.cols:
        raise GalleryError("tensor field must be square")
    n = a_field.rows
    bundle = AnchorBundle(domain, n, a_field)
    structure = PreLieStructure.from_fields(bundle, nijenhuis_structure_functions(a_field))
    conn = _coeffs_or_default(bundle, l, coeffs) if coeffs is not None else None
    flags = {}
    if expect_hom is not None:
        flags["anchor_hom"] = expect_hom
    case = GalleryCase(
        name="nijenhuis",
        bundle=bundle,
        connection=conn,
        structure=structure,
        expected_flags=flags,
        notes="anchor from a (1,1) tensor field with the deformed bracket",
    )
    case.verify()
    return case


def make_subriemannian_heisenberg(l: int = 2, coeffs=None) -> GalleryCase:
    """Cotangent anchor of the flat contact sub-Riemannian structure on R^3.

    The anchor is assembled in closed form from the orthonormal frame of the
    distribution (sum of column-times-row products), which makes its rank and
    kernel exact: the kernel is spanned by the annihilator covector of the
    distribution.
    """
    domain = CoordDomain.cube(3)
    gamma = ex.to_matrix_field(
        [
            ["1", "0", "-x1/2"],
            ["0", "1", "x0/2"],
            ["-x1/2", "x0/2", "(x0^2 + x1^2)/4"],
        ],
        domain,
    )
    bundle = AnchorBundle(domain, 3, gamma)
    rng = np.random.default_rng(3)
    for x in domain.sample(rng, 5):
        rank, kernel = bundle.rank_kernel_at(x)
        if rank != 2 or kernel.shape[1] != 1:
            raise GalleryError(f"cotangent anchor should have rank 2 at {x.tolist()}, got {rank}")
        eta = annihilator_covector(x)
        if np.max(np.abs(bundle.anchor_matrix(x) @ eta)) > 1e-12:
            raise GalleryError("annihilator covector is not in the anchor kernel")
    conn = _coeffs_or_default(bundle, l, coeffs)
    case = GalleryCase(
        name="heisenberg-sr",
        bundle=bundle,
        connection=conn,
        expected_flags={"partial": True} if coeffs is None else {},
        notes="anchor of a bundle metric on a rank-2 distribution; kernel = annihilator",
    )
    case.verify()
    return case


def annihilator_covector(x) -> np.ndarray:
    """Covector annihilating the contact frame at ``x`` (anchor kernel witness)."""
    x = np.asarray(x, dtype=float)
    return np.array([x[1] / 2.0, -x[0] / 2.0, 1.0])


def contact_frame_vectors(x) -> np.ndarray:
    """Columns: the two frame fields of the contact distribution at ``x``."""
    x = np.asarray(x, dtype=float)
    return np.array([[1.0, 0.0], [0.0, 1.0], [-x[1] / 2.0, x[0] / 2.0]])


def make_heisenberg_algebroid(l: int = 2, coeffs=None) -> GalleryCase:
    """Rank-3 algebroid on R^3 whose frame closes with one central generator.

    The first two anchored frame fields bracket to the third; the single
    nonzero structure constant records exactly that, so the homomorphism
    condition holds to machine precision.
    """
    domain = CoordDomain.cube(3)
    gamma = ex.to_matrix_field(
        [["1", "0", "0"], ["0", "1", "0"], ["-x1/2", "x0/2", "1"]],
        domain,
    )
    bundle = AnchorBundle(domain, 3, gamma)
    c = np.zeros((3, 3, 3))
    c[2, 0, 1] = 1.0
    c[2, 1, 0] = -1.0
    structure = PreLieStructure.from_constants(bundle, c)
    if coeffs is None and l == 2:
        coeffs = [
            # [alpha][A][B] with k = 3, l = 2.
            [["0.2*x1", "0.1"], ["0", "0.1*x2"]],
            [["0.1", "0"], ["0.3*x0", "0.15"]],
            [["0", "0.2*x0"], ["-0.1*x2", "0"]],
        ]
    conn = _coeffs_or_default(bundle, l, coeffs)
    case = GalleryCase(
        name="heisenberg-lie",
        bundle=bundle,
        connection=conn,
        structure=structure,
        expected_flags={"partial": True, "anchor_hom": True},
        notes="nilpotent frame algebroid; full-rank anchor",
    )
    case.verify()
    return case


_REGISTRY = {
    "ehresmann": make_ehresmann,
    "subbundle": make_subbundle_injection,
    "poisson": make_poisson,
    "nijenhuis": make_nijenhuis,
    "heisenberg-sr": make_subriemannian_heisenberg,
    "heisenberg-lie": make_heisenberg_algebroid,
}


def gallery_names() -> list[str]:
    return sorted(_REGISTRY)


def by_name(name: str, **kwargs) -> GalleryCase:
    try:
        maker = _REGISTRY[name]
    except KeyError:
        raise GalleryError(f"unknown gallery case {name!r}; know {gallery_names()}") from None
    return maker(**kwargs)
