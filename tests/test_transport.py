import numpy as np
import pytest

from conftest import expm_series
from geoconn import (
    AdmissibilityError,
    AdmissibleCurve,
    AnchorBundle,
    CoordDomain,
    LinearConnection,
    NumericError,
    ShapeError,
    lift_curve,
    parallel_transport,
    transport_fiber_curve,
)


@pytest.fixture
def line_bundle():
    return AnchorBundle.identity(CoordDomain.cube(1, -0.5, 1.5))


@pytest.fixture
def unit_curve():
    return AdmissibleCurve.from_exprs(["t"], ["1"], (0.0, 1.0))


class TestLiftCurve:
    def test_flat_connection_constant_lift(self, line_bundle, unit_curve):
        conn = LinearConnection.zero(line_bundle, 2)
        res = lift_curve(conn, unit_curve, np.array([1.0, -2.0]), steps=100)
        assert np.allclose(res.fiber_points, [1.0, -2.0])
        assert np.allclose(res.transport_matrix, np.eye(2))

    def test_scalar_exponential(self, line_bundle, unit_curve):
        c = 0.73
        conn = LinearConnection.from_array(line_bundle, np.array([[[c]]]))
        res = lift_curve(conn, unit_curve, np.array([2.0]), steps=1000)
        assert res.final_fiber()[0] == pytest.approx(2.0 * np.exp(c), abs=1e-8)
        assert res.transport_matrix[0, 0] == pytest.approx(np.exp(c), abs=1e-8)

    def test_constant_matrix_against_series_exponential(self, line_bundle, unit_curve):
        mat = np.array([[0.4, 1.1], [-0.7, 0.2]])
        conn = LinearConnection.from_array(line_bundle, mat[None, :, :])
        res = lift_curve(conn, unit_curve, np.array([1.0, 0.0]), steps=1000)
        assert np.max(np.abs(res.transport_matrix - expm_series(mat))) < 1e-7

    def test_rk4_order(self, line_bundle, unit_curve):
        # Halving the step divides the error by roughly 2^4.
        c = 1.0
        conn = LinearConnection.from_array(line_bundle, np.array([[[c]]]))
        errors = []
        for steps in (8, 16, 32):
            res = lift_curve(conn, unit_curve, np.array([1.0]), steps=steps)
            errors.append(abs(res.final_fiber()[0] - np.exp(c)))
        for coarse, fine in zip(errors, errors[1:]):
            assert 10.0 <= coarse / fine <= 22.0

    def test_nonadmissible_curve_rejected(self, line_bundle):
        conn = LinearConnection.zero(line_bundle, 1)
        bad = AdmissibleCurve.from_exprs(["t"], ["2"], (0.0, 1.0))
        with pytest.raises(AdmissibilityError) as err:
            lift_curve(conn, bad, np.array([1.0]))
        assert err.value.residual == pytest.approx(1.0, abs=1e-9)

    def test_wrong_length_initial_vector_rejected(self, line_bundle, unit_curve):
        conn = LinearConnection.zero(line_bundle, 2)
        with pytest.raises(ShapeError, match="length 2"):
            lift_curve(conn, unit_curve, np.array([1.0, 2.0, 3.0]), steps=10)

    def test_first_sample_matches_initial_condition_exactly(self, line_bundle, unit_curve):
        conn = LinearConnection.from_array(line_bundle, np.array([[[0.5]]]))
        y0 = np.array([3.0])
        res = lift_curve(conn, unit_curve, y0, steps=10)
        assert res.fiber_points[0, 0] == y0[0]

    def test_transport_matrix_invertible(self, heisenberg_lie_case, rng):
        conn = heisenberg_lie_case.connection
        curve = AdmissibleCurve.from_exprs(
            ["t", "t^2/2", "t^3/12"],
            ["1", "t", "0"],
            (0.0, 1.0),
        )
        # Base velocity: gamma(x(t)) u(t) = (1, t, -x1/2 + t x0/2) = (1, t, -t^2/4 + t^2/2).
        res = lift_curve(conn, curve, np.array([1.0, 0.0]), steps=400)
        det = np.linalg.det(res.transport_matrix)
        assert abs(det) > 1e-12 * np.linalg.norm(res.transport_matrix)


class TestParallelTransport:
    def test_flat_identity(self, line_bundle, unit_curve):
        conn = LinearConnection.zero(line_bundle, 3)
        assert np.allclose(parallel_transport(conn, unit_curve, steps=50), np.eye(3))

    def test_reversal_composes_to_identity(self, heisenberg_lie_case):
        conn = heisenberg_lie_case.connection
        curve = AdmissibleCurve.from_exprs(
            ["t", "t^2/2", "t^3/12"],
            ["1", "t", "0"],
            (0.0, 1.0),
        )
        forward = parallel_transport(conn, curve, steps=1000)
        backward = parallel_transport(conn, curve.reversed(), steps=1000)
        assert np.max(np.abs(backward @ forward - np.eye(conn.l))) < 2e-6

    def test_scalar_multiplication(self, line_bundle, unit_curve):
        c = -0.4
        conn = LinearConnection.from_array(line_bundle, np.array([[[c]]]))
        mat = parallel_transport(conn, unit_curve, steps=1000)
        assert mat[0, 0] == pytest.approx(np.exp(c), abs=1e-8)

    def test_linearity(self, heisenberg_lie_case, rng):
        conn = heisenberg_lie_case.connection
        curve = AdmissibleCurve.from_exprs(
            ["t", "t^2/2", "t^3/12"],
            ["1", "t", "0"],
            (0.0, 1.0),
        )
        mat = parallel_transport(conn, curve, steps=300)
        for _ in range(10):
            y1, y2 = rng.uniform(-2, 2, (2, conn.l))
            a, b = rng.uniform(-2, 2, 2)
            assert np.max(np.abs(mat @ (a * y1 + b * y2) - a * (mat @ y1) - b * (mat @ y2))) < 1e-9

    def test_same_base_curve_different_fiber_curves(self):
        # Over the zero anchor the base point never moves, yet two distinct
        # fiber profiles transport differently once the coefficients see them.
        dom = CoordDomain.cube(1)
        bundle = AnchorBundle.zero(dom, 1)
        conn = LinearConnection.from_array(bundle, np.array([[[1.0]]]))
        c1 = AdmissibleCurve.from_exprs(["0"], ["1"], (0.0, 1.0))
        c2 = AdmissibleCurve.from_exprs(["0"], ["2"], (0.0, 1.0))
        m1 = parallel_transport(conn, c1, steps=500)
        m2 = parallel_transport(conn, c2, steps=500)
        assert np.linalg.norm(m1 - m2, 2) >= 0.1

    def test_piecewise_composition(self, line_bundle):
        c = 0.3
        conn = LinearConnection.from_array(line_bundle, np.array([[[c]]]))
        seg1 = AdmissibleCurve.from_exprs(["t"], ["1"], (0.0, 0.5))
        seg2 = AdmissibleCurve.from_exprs(["t"], ["1"], (0.5, 1.0))
        mat = parallel_transport(conn, [seg1, seg2], steps=500)
        assert mat[0, 0] == pytest.approx(np.exp(c), abs=1e-8)

    def test_piecewise_base_discontinuity_rejected(self, line_bundle):
        conn = LinearConnection.zero(line_bundle, 1)
        seg1 = AdmissibleCurve.from_exprs(["t"], ["1"], (0.0, 0.5))
        seg2 = AdmissibleCurve.from_exprs(["t - 0.2"], ["1"], (0.5, 1.0))
        with pytest.raises(ShapeError):
            parallel_transport(conn, [seg1, seg2], steps=100)

    def test_piecewise_fiber_jump_allowed(self):
        # The anchored fiber vector may jump between segments; only the base
        # must be continuous.
        dom = CoordDomain.cube(1)
        bundle = AnchorBundle.zero(dom, 1)
        conn = LinearConnection.from_array(bundle, np.array([[[1.0]]]))
        seg1 = AdmissibleCurve.from_exprs(["0"], ["1"], (0.0, 0.5))
        seg2 = AdmissibleCurve.from_exprs(["0"], ["-1"], (0.5, 1.0))
        mat = parallel_transport(conn, [seg1, seg2], steps=500)
        assert mat[0, 0] == pytest.approx(1.0, abs=1e-8)  # e^{1/2} * e^{-1/2}


class TestFiberCurves:
    def test_zero_coefficients_identity(self):
        dom = CoordDomain.cube(1)
        bundle = AnchorBundle.zero(dom, 1)
        conn = LinearConnection.zero(bundle, 2)
        curve = AdmissibleCurve.from_exprs(["0.1"], ["1"], (0.0, 1.0))
        res = transport_fiber_curve(conn, curve, np.array([1.0, 2.0]), steps=100)
        assert np.allclose(res.transport_matrix, np.eye(2))
        assert np.allclose(res.final_fiber(), [1.0, 2.0])

    def test_scalar_exponential_over_fixed_point(self):
        dom = CoordDomain.cube(1)
        bundle = AnchorBundle.zero(dom, 1)
        conn = LinearConnection.from_array(bundle, np.array([[[1.0]]]))
        curve = AdmissibleCurve.from_exprs(["0.2"], ["1"], (0.0, 1.0))
        res = transport_fiber_curve(conn, curve, np.array([1.5]), steps=1000)
        assert res.final_fiber()[0] == pytest.approx(1.5 * np.e, abs=1e-8)

    def test_pointwise_derivative_maps(self):
        # With unit coefficient and fiber profile u(t) = t, the sampled map
        # family sends y0 to -t * y0.
        dom = CoordDomain.cube(1)
        bundle = AnchorBundle.zero(dom, 1)
        conn = LinearConnection.from_array(bundle, np.array([[[1.0]]]))
        curve = AdmissibleCurve.from_exprs(["0"], ["t"], (0.0, 1.0))
        res = transport_fiber_curve(conn, curve, np.array([2.0]), steps=10)
        y0 = np.array([2.0])
        for t, mat in zip(res.ts, res.derivative_maps):
            assert (mat @ y0)[0] == pytest.approx(-2.0 * t, abs=1e-12)

    def test_wrong_length_initial_vector_rejected(self):
        bundle = AnchorBundle.zero(CoordDomain.cube(1), 1)
        conn = LinearConnection.zero(bundle, 2)
        curve = AdmissibleCurve.from_exprs(["0"], ["1"], (0.0, 1.0))
        with pytest.raises(ShapeError, match="length 2"):
            transport_fiber_curve(conn, curve, np.array([1.0]), steps=10)

    def test_moving_base_rejected(self, line_bundle):
        conn = LinearConnection.zero(line_bundle, 1)
        curve = AdmissibleCurve.from_exprs(["t"], ["1"], (0.0, 1.0))
        with pytest.raises(ShapeError):
            transport_fiber_curve(conn, curve, np.array([1.0]), steps=10)

    def test_curve_outside_kernel_rejected(self):
        dom = CoordDomain.cube(1)
        bundle = AnchorBundle.identity(dom)
        conn = LinearConnection.zero(bundle, 1)
        curve = AdmissibleCurve.from_exprs(["0"], ["1"], (0.0, 1.0))
        with pytest.raises(ShapeError):
            transport_fiber_curve(conn, curve, np.array([1.0]), steps=10)


def test_matrix_integration_matches_vector_integration():
    # The lift is linear in its initial value, so integrating the identity
    # once and applying it to y0 must agree with integrating y0 itself.
    from geoconn._kernels import rk4_linear

    steps = 300
    h = 1.0 / steps
    ts = np.linspace(0.0, 1.0, 2 * steps + 1)
    s, c, e = np.sin(3 * ts), np.cos(2 * ts), np.exp(ts)
    entries = [s, 1 / e, 0.5 * c, -e * s, c * c, ts * e, 0.2 + 0 * ts, -s * c, e]
    amats = np.stack(entries, axis=1).reshape(-1, 3, 3)
    y0 = np.array([1.0, -0.5, 2.0])
    phi = rk4_linear(amats, h, np.eye(3))
    ys = rk4_linear(amats, h, y0)
    assert phi.shape == (steps + 1, 3, 3)
    assert ys.shape == (steps + 1, 3)
    assert np.max(np.abs(phi @ y0 - ys)) < 1e-13


def test_divergent_lift_raises_numeric_error(line_bundle, unit_curve):
    conn = LinearConnection.from_array(line_bundle, np.array([[[1e300]]]))
    with pytest.raises(NumericError, match="diverged near t="):
        lift_curve(conn, unit_curve, np.array([1.0]), steps=10)
