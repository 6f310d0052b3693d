"""Property tests for the expression language and the dual-number engine.

Hypothesis draws expression trees built from the nodes the parser produces:
non-negative literals, coordinates, unary minus, ``+ - *``, integer powers
and ``sin``/``cos``/``exp``.  The laws checked are the printer/parser round
trip, agreement of batched and single-point dual gradients, agreement of dual
gradients with converged central differences, and exact curve velocities.
"""

import numpy as np
import pytest

pytest.importorskip("hypothesis")
from hypothesis import assume, given, strategies as st  # noqa: E402

from geoconn import AdmissibleCurve, CoordDomain, parse, to_field  # noqa: E402
from geoconn.defaults import FD_MATCH_TOL  # noqa: E402
from geoconn.expr import Bin, Call, Neg, Num, Pow, Var, to_str  # noqa: E402

DOMAIN = CoordDomain.cube(2, -1.0, 1.0)
NAMES = ["x0", "x1"]
# A difference oracle counts as converged when halving its step moves it by
# less than this; its own error is then about a third of that.
CONVERGED = FD_MATCH_TOL / 10


def trees(names, literals, exponents, max_leaves=8):
    leaves = st.one_of(literals.map(Num), st.sampled_from([Var(name, i) for i, name in enumerate(names)]))

    def extend(children):
        return st.one_of(
            st.builds(Bin, st.sampled_from("+-*"), children, children),
            st.builds(Pow, children, exponents),
            st.builds(Call, st.sampled_from(["sin", "cos", "exp"]), children),
            st.builds(Neg, children),
        )

    return st.recursive(leaves, extend, max_leaves=max_leaves)


# Moderate trees for derivative checks; no division or negative powers, so
# every tree is defined on the whole box.
small_trees = trees(NAMES, st.floats(0.0, 2.0), st.integers(0, 3))
points = st.lists(st.tuples(st.floats(-0.9, 0.9), st.floats(-0.9, 0.9)), min_size=1, max_size=6).map(np.array)


def central_difference(fn, pts, h):
    """Central differences of a batched map along every axis, shape ``(m, n) + out``."""
    cols = []
    for axis in range(pts.shape[1]):
        up, dn = pts.copy(), pts.copy()
        up[:, axis] += h
        dn[:, axis] -= h
        cols.append((fn(up) - fn(dn)) / (2.0 * h))
    return np.stack(cols, axis=1)


@given(trees(NAMES, st.floats(0.0, 1e300), st.integers(-3, 3)))
def test_parse_inverts_to_str(tree):
    assert parse(to_str(tree), NAMES) == tree


@given(small_trees, points)
def test_batched_gradient_equals_pointwise(tree, pts):
    field = to_field(tree, DOMAIN)
    with np.errstate(all="ignore"):
        batch = field.gradient(pts)
        single = np.array([field.gradient(p) for p in pts])
    assume(np.all(np.isfinite(single)))
    assert batch.shape == pts.shape
    assert np.allclose(batch, single, rtol=1e-12, atol=1e-12)


@given(small_trees, points)
def test_dual_gradient_equals_central_differences(tree, pts):
    field = to_field(tree, DOMAIN)
    with np.errstate(all="ignore"):
        grad = field.gradient(pts)
        coarse = central_difference(field.sample, pts, 1e-4)
        fine = central_difference(field.sample, pts, 5e-5)
    assume(np.all(np.isfinite(coarse)) and np.all(np.isfinite(fine)))
    assume(np.max(np.abs(coarse - fine)) < CONVERGED)
    assert np.max(np.abs(grad - fine)) < FD_MATCH_TOL


@given(st.lists(trees(["t"], st.floats(0.0, 2.0), st.integers(0, 3), max_leaves=6), min_size=1, max_size=3))
def test_curve_velocity_equals_central_difference_of_positions(x_trees):
    curve = AdmissibleCurve.from_exprs([to_str(t) for t in x_trees], ["1"], (0.0, 1.0))
    ts = np.linspace(0.1, 0.9, 9)
    with np.errstate(all="ignore"):
        xdot = curve.xdot_batch(ts)
        coarse = (curve.x_batch(ts + 1e-4) - curve.x_batch(ts - 1e-4)) / 2e-4
        fine = (curve.x_batch(ts + 5e-5) - curve.x_batch(ts - 5e-5)) / 1e-4
    assume(np.all(np.isfinite(coarse)) and np.all(np.isfinite(fine)))
    assume(np.max(np.abs(coarse - fine)) < CONVERGED)
    assert xdot.shape == (len(ts), len(x_trees))
    assert np.max(np.abs(xdot - fine)) < FD_MATCH_TOL
    assert np.array_equal(xdot[3], curve.xdot(ts[3]))
