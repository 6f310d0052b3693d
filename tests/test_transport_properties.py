"""Property tests for the algebraic laws of parallel transport.

Straight lines ``x = t v`` with ``u = v`` under the identity anchor, and
random constant coefficients; Hypothesis draws the sizes and the numbers.
"""

import numpy as np
import pytest

pytest.importorskip("hypothesis")
from hypothesis import given, strategies as st  # noqa: E402

from geoconn import AdmissibleCurve, AnchorBundle, CoordDomain, LinearConnection, parallel_transport  # noqa: E402


@st.composite
def line_transport(draw):
    """A connection with constant coefficients, |Gamma| <= 1, and a direction |v| <= 1."""
    n = draw(st.sampled_from([1, 2]))
    l = draw(st.sampled_from([1, 2, 3]))
    unit = st.floats(-1.0, 1.0, allow_nan=False)
    v = np.array(draw(st.lists(unit, min_size=n, max_size=n)))
    v = v / max(1.0, float(np.linalg.norm(v)))
    coeffs = np.array(draw(st.lists(unit, min_size=n * l * l, max_size=n * l * l))).reshape(n, l, l)
    bundle = AnchorBundle.identity(CoordDomain.cube(n, -3, 3))
    return LinearConnection.from_array(bundle, coeffs), v


def straight_line(v, t0, t1):
    return AdmissibleCurve((t0, t1), lambda t: t * v, lambda t: v, xdot=lambda t: v)


@given(line_transport(), st.integers(1, 40))
def test_transport_composes_over_halves(case, half_steps):
    # The halves with N steps each walk the same RK4 nodes as the whole
    # curve with 2N steps, so only rounding separates the two.
    conn, v = case
    whole = parallel_transport(conn, straight_line(v, 0.0, 1.0), steps=2 * half_steps)
    halves = parallel_transport(conn, [straight_line(v, 0.0, 0.5), straight_line(v, 0.5, 1.0)], steps=half_steps)
    assert np.max(np.abs(whole - halves)) < 1e-12


@given(line_transport())
def test_reversed_transport_inverts(case):
    conn, v = case
    curve = straight_line(v, 0.0, 1.0)
    forward = parallel_transport(conn, curve, steps=200)
    backward = parallel_transport(conn, curve.reversed(), steps=200)
    assert np.max(np.abs(backward @ forward - np.eye(conn.l))) < 1e-8
