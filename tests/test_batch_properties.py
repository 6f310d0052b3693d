"""Property tests: an operator on a batch of points equals its one-point calls.

For each gallery case, Hypothesis draws a batch of 1-8 base points, fiber
points and fiber vectors.  Every field method and operator that accepts a
batch is called once on the batch and once per point; the batch result must
equal the stack of the one-point results within 1e-14 * max(1, |value|).
"""

import functools

import numpy as np
import pytest

pytest.importorskip("hypothesis")
from hypothesis import given, strategies as st  # noqa: E402

from geoconn import (  # noqa: E402
    GeneralConnection,
    LinearConnection,
    MatrixField,
    ScalarField,
    anchor_hom_residual,
    by_name,
    curvature_components,
    involutivity_defect,
    lie_bracket,
    lift,
    nabla,
    nabla_dual,
    star_product,
    torsion,
    torsion_components,
)
from geoconn.checks import random_linear_section  # noqa: E402

# Gallery cases that ship without a connection get these coefficients.
COEFFS_2D = [[["0.2*x1", "0.1"], ["0", "0.3*x0"]], [["0", "-0.1*x0"], ["0.15", "0.1*x1"]]]
MAKE_ARGS = {"poisson": {"coeffs": COEFFS_2D}, "nijenhuis": {"coeffs": COEFFS_2D}}
NAMES = ["ehresmann", "subbundle", "poisson", "nijenhuis", "heisenberg-sr", "heisenberg-lie"]


def as_fd(entries):
    """The same entry callables, evaluated point by point and differenced."""
    return [[ScalarField(f.domain, f.fn, mode="fd") for f in row] for row in entries]


@functools.cache
def setup(name):
    """The case, a general connection on its bundle and fixed affine sections."""
    case = by_name(name, **MAKE_ARGS.get(name, {}))
    bundle, conn = case.bundle, case.connection
    n, k, l = bundle.n, bundle.k, conn.l
    general = GeneralConnection.from_exprs(
        bundle, [[f"0.1*x{a % n}*y{A} - 0.2*y{(A + a) % l}^2" for a in range(k)] for A in range(l)]
    )
    rng = np.random.default_rng(5)
    sections = {size: [random_linear_section(bundle.base, size, rng) for _ in range(2)] for size in {n, k, l}}
    return case, general, sections


@functools.cache
def setup_fd(name):
    """The case's connection and the general connection with difference-mode entries."""
    case, general, _ = setup(name)
    conn = case.connection
    conn_fd = LinearConnection(case.bundle, conn.l, [MatrixField(as_fd(m.entries)) for m in conn.coeffs])
    return conn_fd, GeneralConnection(case.bundle, conn.l, as_fd(general.entries))


def operators(name):
    """(label, fn(x, y, nvec)) for every batched call the case supports."""
    case, general, sections = setup(name)
    bundle, conn, struct = case.bundle, case.connection, case.structure
    n, k, l = bundle.n, bundle.k, conn.l
    s1, s2 = sections[k]
    psi, phi = sections[l]
    v1, v2 = sections[n]
    conn_fd, general_fd = setup_fd(name)
    ops = [
        ("ScalarField.value", lambda x, y, u: s1.components[0].value(x)),
        ("ScalarField.gradient", lambda x, y, u: s1.components[0].gradient(x)),
        ("VectorField.value", lambda x, y, u: s1.value(x)),
        ("VectorField.jacobian", lambda x, y, u: s1.jacobian(x)),
        ("MatrixField.value", lambda x, y, u: bundle.gamma.value(x)),
        ("MatrixField.jacobian", lambda x, y, u: bundle.gamma.jacobian(x)),
        ("anchor_matrix", lambda x, y, u: bundle.anchor_matrix(x)),
        ("coeff_tensor", lambda x, y, u: conn.coeff_tensor(x)),
        ("coeff_tensor_partial", lambda x, y, u: conn.coeff_tensor_partial(x)),
        ("LinearConnection.gamma_xy", lambda x, y, u: conn.gamma_xy(x, y)),
        ("GeneralConnection.gamma_xy", lambda x, y, u: general.gamma_xy(x, y)),
        ("coeff_tensor fd", lambda x, y, u: conn_fd.coeff_tensor(x)),
        ("coeff_tensor_partial fd", lambda x, y, u: conn_fd.coeff_tensor_partial(x)),
        ("GeneralConnection.gamma_xy fd", lambda x, y, u: general_fd.gamma_xy(x, y)),
        ("lift", lambda x, y, u: lift(conn, (x, y), u)),
        ("lift general", lambda x, y, u: lift(general, (x, y), u)),
        ("nabla", lambda x, y, u: nabla(conn, s1, psi, x)),
        ("nabla_dual", lambda x, y, u: nabla_dual(conn, s2, phi, x)),
        ("lie_bracket", lambda x, y, u: lie_bracket(v1, v2, x)),
    ]
    if struct is not None:
        ops += [
            ("PreLieStructure.tensor", lambda x, y, u: struct.tensor(x)),
            ("star_product", lambda x, y, u: star_product(struct, s1, s2, x)),
            ("anchor_hom_residual", lambda x, y, u: anchor_hom_residual(struct, x)),
            ("curvature_components", lambda x, y, u: curvature_components(conn, struct, x)),
            (
                "involutivity_defect",
                lambda x, y, u: (lambda d: (d.fiber, d.base_max))(
                    involutivity_defect(conn, struct, s1, s2, (x, y), hom_tol=np.inf)
                ),
            ),
        ]
        if l == k:
            ops += [
                ("torsion_components", lambda x, y, u: torsion_components(conn, struct, x)),
                ("torsion", lambda x, y, u: torsion(conn, struct, s1, s2, x)),
            ]
    return ops


@st.composite
def batches(draw, name):
    case = setup(name)[0]
    bundle, l = case.bundle, case.connection.l
    m = draw(st.integers(1, 8))

    def block(cols, lo, hi):
        flat = draw(st.lists(st.floats(lo, hi, allow_nan=False), min_size=m * cols, max_size=m * cols))
        return np.array(flat).reshape(m, cols)

    lo, hi = np.array(bundle.base.bounds).T
    x = lo + (hi - lo) * block(bundle.n, 0.05, 0.95)
    return x, block(l, -2.0, 2.0), block(bundle.k, -1.0, 1.0)


def _parts(out):
    return out if isinstance(out, tuple) else (out,)


@pytest.mark.parametrize("name", NAMES)
@given(data=st.data())
def test_batch_equals_stacked_single_points(name, data):
    x, y, u = data.draw(batches(name))
    for label, fn in operators(name):
        together = _parts(fn(x, y, u))
        apart = [_parts(fn(xi, yi, ui)) for xi, yi, ui in zip(x, y, u)]
        for part, got in enumerate(together):
            want = np.stack([np.asarray(a[part]) for a in apart])
            assert got.shape == want.shape, (name, label)
            gap = np.abs(got - want) / np.maximum(1.0, np.abs(want))
            assert np.all(gap <= 1e-14), (name, label, float(np.max(gap)))
