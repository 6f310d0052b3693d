import numpy as np
import pytest

from geoconn import (
    AdmissibleCurve,
    AnchorBundle,
    CoordDomain,
    DomainError,
    FiberPoint,
    MatrixField,
    integral_curve_of_section,
    to_vector_field,
)
from geoconn.defaults import ADMISSIBILITY_TOL, ADMISSIBILITY_TOL_SAMPLED


@pytest.fixture
def identity_bundle():
    return AnchorBundle.identity(CoordDomain.cube(2, -4, 4))


@pytest.fixture
def zero_bundle():
    return AnchorBundle.zero(CoordDomain.cube(2, -4, 4), 2)


class TestApplyAnchor:
    def test_identity(self, identity_bundle):
        p = FiberPoint(np.array([1.0, 2.0]), np.array([3.0, 4.0]))
        assert np.allclose(identity_bundle.apply(p), [3.0, 4.0])

    def test_zero(self, zero_bundle):
        p = FiberPoint(np.array([1.0, 2.0]), np.array([3.0, 4.0]))
        assert np.allclose(zero_bundle.apply(p), 0.0)

    def test_symplectic_bivector_contraction(self):
        # Bivector contracting its first slot: the basis covector dx0 maps to +d/dx1.
        lam = np.array([[0.0, 1.0], [-1.0, 0.0]])
        dom = CoordDomain.cube(2)
        bundle = AnchorBundle(dom, 2, MatrixField.constant(dom, lam.T))
        got = bundle.apply(FiberPoint(np.zeros(2), np.array([1.0, 0.0])))
        # Oracle: contract the first index of the bivector with the covector.
        alpha = np.array([1.0, 0.0])
        oracle = np.array([sum(lam[i, j] * alpha[i] for i in range(2)) for j in range(2)])
        assert np.allclose(got, oracle)
        assert np.allclose(got, [0.0, 1.0])

    def test_linear_in_fiber_vector(self, rng):
        dom = CoordDomain.cube(2)
        bundle = AnchorBundle.from_exprs(dom.bounds, [["x1", "1"], ["0", "x0^2"]])
        for _ in range(20):
            x = dom.sample(rng, 1)[0]
            u, v = rng.uniform(-2, 2, (2, 2))
            a, b = rng.uniform(-2, 2, 2)
            lhs = bundle.apply(FiberPoint(x, a * u + b * v))
            rhs = a * bundle.apply(FiberPoint(x, u)) + b * bundle.apply(FiberPoint(x, v))
            assert np.max(np.abs(lhs - rhs)) < 1e-12


class TestAdmissibility:
    def test_identity_anchor_unit_speed(self):
        dom = CoordDomain.cube(1, -4, 4)
        bundle = AnchorBundle.identity(dom)
        curve = AdmissibleCurve.from_exprs(["t"], ["1"], (0.0, 1.0))
        assert bundle.admissibility_residual(curve) < 1e-12

    def test_zero_anchor_fiber_curve(self):
        dom = CoordDomain.cube(1)
        bundle = AnchorBundle.zero(dom, 1)
        curve = AdmissibleCurve.from_exprs(["0.5"], ["sin(t)"], (0.0, 1.0))
        assert bundle.admissibility_residual(curve) < 1e-12

    def test_speed_mismatch(self):
        dom = CoordDomain.cube(1, -4, 4)
        bundle = AnchorBundle.identity(dom)
        curve = AdmissibleCurve.from_exprs(["t"], ["2"], (0.0, 1.0))
        assert bundle.admissibility_residual(curve) == pytest.approx(1.0, abs=1e-12)

    def test_kernel_curve_admissible_iff_base_constant(self):
        # Zero anchor: any fiber motion over a fixed base point is admissible,
        # but a moving base is not.
        dom = CoordDomain.cube(1)
        zero = AnchorBundle.zero(dom, 2)
        fiber_only = AdmissibleCurve.from_exprs(["0.25"], ["t", "1 - t"], (0.0, 1.0))
        assert zero.admissibility_residual(fiber_only) < 1e-12
        moving = AdmissibleCurve.from_exprs(["t/2"], ["t", "0"], (0.0, 1.0))
        assert zero.admissibility_residual(moving) > 0.4

    def test_trivial_kernel_leaves_only_constant_fiber(self):
        # Full-rank frame: a curve with zero base velocity must have zero fiber vector.
        dom = CoordDomain.cube(3)
        bundle = AnchorBundle.from_exprs(dom.bounds, [["1", "0"], ["0", "1"], ["-x1/2", "x0/2"]])
        resting = AdmissibleCurve.from_exprs(["0", "0", "0"], ["t", "0"], (0.0, 1.0))
        assert bundle.admissibility_residual(resting) == pytest.approx(1.0, abs=1e-12)
        zero_u = AdmissibleCurve.from_exprs(["0", "0", "0"], ["0", "0"], (0.0, 1.0))
        assert bundle.admissibility_residual(zero_u) < 1e-12


class TestRankKernel:
    def test_identity(self, identity_bundle):
        rank, kernel = identity_bundle.rank_kernel_at(np.array([0.5, 0.5]))
        assert rank == 2 and kernel.shape[1] == 0

    def test_zero(self, zero_bundle):
        rank, kernel = zero_bundle.rank_kernel_at(np.array([0.5, 0.5]))
        assert rank == 0 and kernel.shape[1] == 2

    def test_contact_frame(self, rng):
        dom = CoordDomain.cube(3)
        bundle = AnchorBundle.from_exprs(dom.bounds, [["1", "0"], ["0", "1"], ["-x1/2", "x0/2"]])
        for x in dom.sample(rng, 10):
            rank, kernel = bundle.rank_kernel_at(x)
            assert rank == 2 and kernel.shape[1] == 0
            assert rank + kernel.shape[1] == bundle.k


class TestIntegralCurve:
    def test_constant_section_straight_line(self, identity_bundle):
        s = to_vector_field(["1", "0"], identity_bundle.base)
        curve = integral_curve_of_section(identity_bundle, s, np.zeros(2), (0.0, 1.0), steps=200)
        assert np.allclose(curve.x(0.5), [0.5, 0.0], atol=1e-9)
        assert np.allclose(curve.x(1.0), [1.0, 0.0], atol=1e-9)
        assert not curve.truncated

    def test_zero_anchor_stays_put(self, zero_bundle):
        s = to_vector_field(["1", "1"], zero_bundle.base)
        curve = integral_curve_of_section(zero_bundle, s, np.array([0.3, -0.2]), (0.0, 1.0), steps=50)
        assert np.allclose(curve.x(1.0), [0.3, -0.2], atol=1e-12)

    def test_exponential_flow(self):
        dom = CoordDomain.cube(1, -0.5, 3.0)
        bundle = AnchorBundle.identity(dom)
        s = to_vector_field(["x0"], dom)
        curve = integral_curve_of_section(bundle, s, np.array([1.0]), (0.0, 1.0), steps=1000)
        assert curve.x(1.0)[0] == pytest.approx(np.e, abs=1e-6)
        assert bundle.admissibility_residual(curve) <= ADMISSIBILITY_TOL_SAMPLED

    def test_escape_truncates_with_flag(self):
        dom = CoordDomain.cube(1, -1.0, 1.0)
        bundle = AnchorBundle.identity(dom)
        s = to_vector_field(["2"], dom)
        curve = integral_curve_of_section(bundle, s, np.array([0.0]), (0.0, 2.0), steps=100)
        assert curve.truncated
        assert curve.t1 < 2.0
        assert curve.x(curve.t1)[0] <= 1.0 + 1e-12

    def test_integrator_curve_passes_its_gate(self, identity_bundle):
        s = to_vector_field(["sin(x1)", "cos(x0)/2"], identity_bundle.base)
        curve = integral_curve_of_section(identity_bundle, s, np.zeros(2), (0.0, 1.0), steps=500)
        residual = identity_bundle.admissibility_residual(curve)
        assert residual <= curve.residual_tol == ADMISSIBILITY_TOL_SAMPLED


def test_reversed_curve_is_admissible():
    dom = CoordDomain.cube(2, -4, 4)
    bundle = AnchorBundle.identity(dom)
    curve = AdmissibleCurve.from_exprs(["t", "t^2"], ["1", "2*t"], (0.0, 1.0))
    assert bundle.admissibility_residual(curve) < 1e-12
    rev = curve.reversed()
    assert bundle.admissibility_residual(rev) < 1e-10
    assert np.allclose(rev.x(0.0), curve.x(1.0))


def test_analytic_curves_hold_tighter_gate():
    assert ADMISSIBILITY_TOL < ADMISSIBILITY_TOL_SAMPLED
    curve = AdmissibleCurve.from_exprs(["t"], ["1"], (0.0, 1.0))
    assert curve.residual_tol == ADMISSIBILITY_TOL


def test_reversed_expression_curve_keeps_batch_samplers(heisenberg_lie_case):
    bundle = heisenberg_lie_case.bundle
    curve = AdmissibleCurve.from_exprs(["t", "t^2/2", "t^3/12"], ["1", "t", "0"], (0.0, 1.0))
    rev = curve.reversed()
    ts = np.linspace(0.0, 1.0, 11)
    for batch, point in ((rev.x_batch, rev.x), (rev.u_batch, rev.u), (rev.xdot_batch, rev.xdot)):
        assert np.array_equal(batch(ts), np.stack([point(t) for t in ts]))
    assert np.allclose(rev.x_batch(ts), curve.x_batch(ts[::-1]), rtol=0, atol=1e-15)
    assert bundle.admissibility_residual(rev) < 1e-12
    # The batches are built from the forward batches, not node by node.
    rev._x = rev._u = rev._xdot = None
    assert bundle.admissibility_residual(rev) < 1e-12


def test_admissibility_residual_rejects_curve_leaving_box():
    bundle = AnchorBundle.identity(CoordDomain.cube(1, -1, 1))
    curve = AdmissibleCurve.from_exprs(["2*t"], ["2"], (0.0, 1.0))
    with pytest.raises(DomainError):
        bundle.admissibility_residual(curve)
