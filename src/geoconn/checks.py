"""Verification suite: every computable identity as a pass/fail check.

Each check returns a record with the measured residual and the gate it was
held to; the CLI aggregates them into a machine-readable report.  Sampling is
driven by a seeded generator so reruns are reproducible.
"""

from __future__ import annotations

import numpy as np

from .bundle import AnchorBundle
from .connection import Connection, LinearConnection, lift, partial_connection_test
from .defaults import RANK_REL_TOL
from .derivative import nabla
from .fields import CoordDomain, ScalarField, VectorField, add_sections, matvec, scale_section
from .prelie import (
    PreLieStructure,
    anchor_hom_residual,
    contract_curvature,
    curvature_components,
    involutivity_defect,
    star_product,
    torsion,
    torsion_components,
)


def random_linear_section(domain: CoordDomain, size: int, rng: np.random.Generator, count: int | None = None) -> VectorField:
    """Section with affine components and exact derivatives.

    With ``count``, ``count`` sections are drawn at once: the coefficients
    carry a leading sample axis, so on a batch of ``count`` points row ``i``
    evaluates sample ``i``'s own section.
    """
    shape = (size,) if count is None else (count, size)
    # Transposed, so each coefficient is a number or a row over the samples.
    const = rng.uniform(-1.0, 1.0, shape).T
    slope = rng.uniform(-1.0, 1.0, shape + (domain.dim,)).T

    def comp(i):
        def fn(p, _a=const[i], _b=slope[:, i]):
            out = _a
            for j in range(domain.dim):
                out = out + _b[j] * p[j]
            return out

        return ScalarField(domain, fn, mode="dual")

    return VectorField([comp(i) for i in range(size)])


def random_scalar(domain: CoordDomain, rng: np.random.Generator, count: int | None = None) -> ScalarField:
    return random_linear_section(domain, 1, rng, count).components[0]


def _record(name: str, residual: float, tolerance: float, **extra) -> dict:
    rec = {"name": name, "residual": residual, "tolerance": tolerance, "passed": bool(residual <= tolerance)}
    rec.update(extra)
    return rec


def _worst(*residuals) -> float:
    return max(float(np.max(np.abs(r))) for r in residuals)


def check_admissibility(bundle: AnchorBundle, curves) -> list[dict]:
    """Each curve's admissibility residual against the gate it carries."""
    return [
        _record(f"admissibility[{idx}]", bundle.admissibility_residual(curve), curve.residual_tol)
        for idx, curve in enumerate(curves)
    ]


def check_partial_connection(
    conn: Connection, points, rng: np.random.Generator, rel_tol: float = RANK_REL_TOL
) -> dict:
    witness = None
    passed = True
    for x in points:
        ok, report = partial_connection_test(conn, x, rng=rng, rel_tol=rel_tol)
        if not ok:
            passed = False
            witness = {"x": report["x"], "y": report["witness"]}
            break
    return {"name": "partial_connection", "passed": passed, "tolerance": rel_tol, "witness": witness}


def check_anchor_hom(struct: PreLieStructure, points, tol: float) -> dict:
    return _record("anchor_hom", _worst(anchor_hom_residual(struct, points)), tol)


def check_lift_linearity(conn: Connection, rng: np.random.Generator, samples: int) -> dict:
    """Additivity and function-linearity of the section lift, and the
    projection property of its base component."""
    dom = conn.bundle.base
    k = conn.bundle.k
    x = dom.sample(rng, samples)
    e = (x, rng.uniform(-2.0, 2.0, (samples, conn.l)))
    s1 = random_linear_section(dom, k, rng, samples)
    s2 = random_linear_section(dom, k, rng, samples)
    f = random_scalar(dom, rng, samples)
    dx1, dy1 = lift(conn, e, s1.value(x))
    dx2, dy2 = lift(conn, e, s2.value(x))
    dxs, dys = lift(conn, e, add_sections(s1, s2).value(x))
    dxf, dyf = lift(conn, e, scale_section(f, s1).value(x))
    fv = f.value(x)[:, None]
    rho = matvec(conn.bundle.anchor_matrix(x), s1.value(x))
    worst = _worst(dxs - dx1 - dx2, dys - dy1 - dy2, dxf - fv * dx1, dyf - fv * dy1, dx1 - rho)
    return _record("lift_linearity", worst, 1e-10)


def check_star_leibniz(struct: PreLieStructure, rng: np.random.Generator, samples: int) -> dict:
    """Derivation rule of the product in its second argument."""
    dom = struct.bundle.base
    k = struct.bundle.k
    x = dom.sample(rng, samples)
    s1 = random_linear_section(dom, k, rng, samples)
    s2 = random_linear_section(dom, k, rng, samples)
    f = random_scalar(dom, rng, samples)
    lhs = star_product(struct, s1, scale_section(f, s2), x)
    rho_f = np.einsum("mi,mi->m", matvec(struct.bundle.anchor_matrix(x), s1.value(x)), f.gradient(x))
    rhs = f.value(x)[:, None] * star_product(struct, s1, s2, x) + rho_f[:, None] * s2.value(x)
    return _record("star_leibniz", _worst(lhs - rhs), 1e-6)


def check_derivative_axioms(conn: LinearConnection, rng: np.random.Generator, samples: int) -> dict:
    """Bilinearity, function-linearity in the direction and the product rule."""
    dom = conn.bundle.base
    k, l = conn.bundle.k, conn.l
    x = dom.sample(rng, samples)
    s1 = random_linear_section(dom, k, rng, samples)
    s2 = random_linear_section(dom, k, rng, samples)
    psi1 = random_linear_section(dom, l, rng, samples)
    psi2 = random_linear_section(dom, l, rng, samples)
    f = random_scalar(dom, rng, samples)
    a, b = rng.uniform(-2.0, 2.0, (2, samples))

    base = nabla(conn, s1, psi1, x)
    lin_s = nabla(conn, add_sections(s1, s2), psi1, x) - base - nabla(conn, s2, psi1, x)
    lin_psi = nabla(conn, s1, add_sections(psi1, psi2), x) - base - nabla(conn, s1, psi2, x)

    scaled_s = VectorField([ScalarField(dom, (lambda p, _c=c: a * _c.gen(p)), mode="dual") for c in s1.components])
    scaled_psi = VectorField([ScalarField(dom, (lambda p, _c=c: b * _c.gen(p)), mode="dual") for c in psi1.components])
    hom_s = nabla(conn, scaled_s, psi1, x) - a[:, None] * base
    hom_psi = nabla(conn, s1, scaled_psi, x) - b[:, None] * base

    fv = f.value(x)[:, None]
    fun_lin = nabla(conn, scale_section(f, s1), psi1, x) - fv * base

    rho_f = np.einsum("mi,mi->m", matvec(conn.bundle.anchor_matrix(x), s1.value(x)), f.gradient(x))
    leibniz = nabla(conn, s1, scale_section(f, psi1), x) - fv * base - rho_f[:, None] * psi1.value(x)
    return _record("derivative_axioms", _worst(lin_s, lin_psi, hom_s, hom_psi, fun_lin, leibniz), 1e-6)


def check_bracket_defect(
    conn: LinearConnection,
    struct: PreLieStructure,
    rng: np.random.Generator,
    samples: int,
    hom_tol: float,
) -> dict:
    """Vertical defect of lifted brackets against the curvature contraction.

    The defect fiber equals the curvature contracted in reversed argument
    order (the lift-image orientation), so the residual measured here is
    ``defect + R(s1, s2) y``.  ``hom_tol`` bounds the anchor-homomorphism
    residual the defect formula may assume.
    """
    dom = conn.bundle.base
    k = conn.bundle.k
    x = dom.sample(rng, samples)
    y = rng.uniform(-2.0, 2.0, (samples, conn.l))
    s1 = random_linear_section(dom, k, rng, samples)
    s2 = random_linear_section(dom, k, rng, samples)
    defect = involutivity_defect(conn, struct, s1, s2, (x, y), hom_tol=hom_tol)
    contraction = contract_curvature(curvature_components(conn, struct, x), s1.value(x), s2.value(x), y)
    worst_base = _worst(defect.base_max)
    rec = _record("bracket_defect", _worst(defect.fiber + contraction), 1e-5, base_residual=worst_base, base_tolerance=1e-6)
    rec["passed"] = bool(rec["passed"] and worst_base <= rec["base_tolerance"])
    return rec


def check_torsion_components(conn: LinearConnection, struct: PreLieStructure, points) -> dict:
    """Frame-section torsion against the component formula."""
    dom = conn.bundle.base
    k = conn.bundle.k
    basis = [VectorField.constant(dom, np.eye(k)[a]) for a in range(k)]
    comps = torsion_components(conn, struct, points)
    worst = 0.0
    for a in range(k):
        for b in range(k):
            worst = max(worst, _worst(torsion(conn, struct, basis[a], basis[b], points) - comps[:, a, b]))
    return _record("torsion_components", worst, 1e-8)


def run_all(cfg) -> dict:
    """Run every check the configured objects support; aggregate a report."""
    rng = np.random.default_rng(cfg.seed)
    tol = cfg.tolerances
    points = np.stack(cfg.points) if cfg.points else cfg.bundle.base.sample(rng, 5)
    checks: list[dict] = []
    checks.extend(check_admissibility(cfg.bundle, cfg.curves))
    if cfg.connection is not None:
        checks.append(check_partial_connection(cfg.connection, points, rng, tol.rank_rel_tol))
        checks.append(check_lift_linearity(cfg.connection, rng, samples=20))
    hom_record = None
    if cfg.structure is not None:
        hom_record = check_anchor_hom(cfg.structure, points, tol.anchor_hom_tol)
        checks.append(hom_record)
        checks.append(check_star_leibniz(cfg.structure, rng, samples=20))
    if cfg.connection is not None and isinstance(cfg.connection, LinearConnection):
        checks.append(check_derivative_axioms(cfg.connection, rng, samples=20))
        if cfg.structure is not None:
            if hom_record["passed"]:
                checks.append(check_bracket_defect(cfg.connection, cfg.structure, rng, 10, tol.anchor_hom_tol))
            if cfg.connection.l == cfg.bundle.k:
                checks.append(check_torsion_components(cfg.connection, cfg.structure, points))
    return {
        "seed": cfg.seed,
        "checks": checks,
        "passed": all(c["passed"] for c in checks),
    }


__all__ = [
    "check_admissibility",
    "check_anchor_hom",
    "check_bracket_defect",
    "check_derivative_axioms",
    "check_lift_linearity",
    "check_partial_connection",
    "check_star_leibniz",
    "check_torsion_components",
    "random_linear_section",
    "random_scalar",
    "run_all",
]
