import numpy as np
import pytest

from geoconn import dual as dm
from geoconn import (
    CoordDomain,
    DomainError,
    MatrixField,
    NumericError,
    ScalarField,
    ShapeError,
    VectorField,
    lie_bracket,
    to_field,
    to_vector_field,
)


def central_difference(fn, point, axis, step):
    up = np.array(point, dtype=float)
    dn = up.copy()
    up[axis] += step
    dn[axis] -= step
    return (fn(up) - fn(dn)) / (2 * step)


class TestDomain:
    def test_basic(self):
        dom = CoordDomain.box([[-1, 1], [0, 2]])
        assert dom.dim == 2
        assert dom.contains([0.5, 1.0])
        assert not dom.contains([2.0, 1.0])
        with pytest.raises(DomainError):
            dom.require([0.0, 5.0])

    def test_nan_point_rejected(self):
        dom = CoordDomain.cube(2)
        assert not dom.contains([np.nan, 0.0])
        assert not dom.contains([0.0, np.nan])
        with pytest.raises(DomainError):
            dom.require(np.array([0.0, np.nan]))

    def test_nan_row_in_batch_rejected(self):
        dom = CoordDomain.cube(1)
        with pytest.raises(DomainError):
            dom.require(np.array([[0.5], [np.nan]]))
        assert dom.require(np.array([[0.5], [-0.5]])).shape == (2, 1)

    def test_degenerate_interval_rejected(self):
        with pytest.raises(ShapeError):
            CoordDomain.box([[1, 1]])

    def test_grid_and_sample_stay_interior(self, rng):
        dom = CoordDomain.box([[-1, 1], [0, 4]])
        for p in dom.grid(3):
            assert dom.contains(p)
        for p in dom.sample(rng, 50):
            assert dom.contains(p)


class TestDifferentiate:
    def test_polynomial(self):
        dom = CoordDomain.cube(1, -5, 5)
        f = to_field("x0^2", dom)
        assert f.partial(np.array([3.0]), 0) == pytest.approx(6.0, abs=1e-6)

    def test_constant(self):
        dom = CoordDomain.cube(2)
        f = ScalarField.constant(dom, 5.0)
        for axis in range(2):
            assert f.partial(np.array([0.3, -0.7]), axis) == 0.0

    def test_sin_product_against_richardson(self):
        # Independent oracle: central differences at two steps, Richardson-consistent.
        dom = CoordDomain.box([[-1, 1], [0, 3]])
        f = to_field("sin(x0)*x1", dom)
        point = np.array([0.0, 2.0])
        raw = lambda p: np.sin(p[0]) * p[1]
        d4 = central_difference(raw, point, 0, 1e-4)
        d5 = central_difference(raw, point, 0, 1e-5)
        assert abs(d4 - d5) < 1e-6  # the two steps agree, so the oracle is converged
        assert f.partial(point, 0) == pytest.approx(d5, abs=1e-6)
        assert f.partial(point, 0) == pytest.approx(2.0, abs=1e-6)

    def test_out_of_domain(self):
        dom = CoordDomain.cube(1)
        f = to_field("x0", dom)
        with pytest.raises(DomainError):
            f.value(np.array([5.0]))

    def test_non_finite_value(self):
        dom = CoordDomain.cube(1)
        f = ScalarField(dom, lambda p: 1.0 / p[0], mode="fd")
        with np.errstate(divide="ignore"):
            with pytest.raises((NumericError, ZeroDivisionError)):
                f.value(np.array([0.0]))

    def test_fd_mode_opaque_callable(self):
        dom = CoordDomain.cube(1, -3, 3)
        f = ScalarField(dom, lambda p: float(np.tanh(p[0])), mode="fd")
        x = np.array([0.4])
        assert f.partial(x, 0) == pytest.approx(1.0 / np.cosh(0.4) ** 2, abs=1e-8)

    def test_fd_needs_interior_margin(self):
        dom = CoordDomain.cube(1, 0, 1)
        f = ScalarField(dom, lambda p: p[0] ** 2, mode="fd")
        with pytest.raises(DomainError):
            f.partial(np.array([0.0]), 0)

    def test_dual_callable_dropping_seeds_fails_check(self, rng):
        dom = CoordDomain.cube(1)
        good = ScalarField(dom, lambda p: p[0] ** 3, mode="dual")
        assert good.check_derivatives(rng, samples=20) < 1e-5
        # Taking the real part discards the seeds, so the dual gradient reads 0.
        bad = ScalarField(dom, lambda p: dm.real(p[0]) ** 3, mode="dual")
        with pytest.raises(NumericError):
            bad.check_derivatives(rng, samples=20)

    def test_batched_gradient_matches_pointwise(self, rng):
        dom = CoordDomain.cube(2)
        f = to_field("sin(x0)*x1 + exp(x1)", dom)
        pts = dom.sample(rng, 7)
        assert np.allclose(f.gradient(pts), [f.gradient(p) for p in pts], rtol=1e-14, atol=1e-14)
        opaque = ScalarField(dom, lambda p: float(np.sin(p[0]) * p[1] + np.exp(p[1])), mode="fd")
        assert np.allclose(opaque.gradient(pts), f.gradient(pts), atol=1e-6)
        assert np.array_equal(ScalarField.constant(dom, 2.0).gradient(pts), np.zeros((7, 2)))


class TestJacobian:
    def test_swap(self):
        dom = CoordDomain.cube(2)
        f = to_vector_field(["x1", "x0"], dom)
        assert np.allclose(f.jacobian(np.array([0.3, 0.8])), [[0, 1], [1, 0]])

    def test_identity(self):
        dom = CoordDomain.cube(2)
        f = to_vector_field(["x0", "x1"], dom)
        assert np.allclose(f.jacobian(np.array([0.5, -0.5])), np.eye(2))

    def test_hand_derivative_cross_checked(self):
        dom = CoordDomain.cube(2, -3, 3)
        f = to_vector_field(["x0*x1", "x0^2"], dom)
        point = np.array([1.0, 2.0])
        got = f.jacobian(point)
        assert np.allclose(got, [[2, 1], [2, 0]], atol=1e-6)
        raw = [lambda p: p[0] * p[1], lambda p: p[0] ** 2]
        fd = [[central_difference(raw[i], point, j, 1e-5) for j in range(2)] for i in range(2)]
        assert np.allclose(got, fd, atol=1e-6)

    def test_chain_rule_property(self, rng):
        dom = CoordDomain.cube(2, -1.2, 1.2)
        f = to_vector_field(["sin(x0) + x1^2", "x0*x1"], dom)
        g = to_vector_field(["x0/2 + x1/4", "x1/2 - x0/8"], dom)

        comps = [
            ScalarField(dom, (lambda p, _c=c: _c.gen(g.gen(p))), mode="dual")
            for c in f.components
        ]
        composed = VectorField(comps)
        for point in dom.sample(rng, 30):
            lhs = composed.jacobian(point)
            rhs = f.jacobian(g.value(point)) @ g.jacobian(point)
            assert np.max(np.abs(lhs - rhs)) < 1e-5


class TestLieBracket:
    def test_coordinate_fields_commute(self):
        dom = CoordDomain.cube(2)
        e0 = to_vector_field(["1", "0"], dom)
        e1 = to_vector_field(["0", "1"], dom)
        assert np.allclose(lie_bracket(e0, e1, np.array([0.2, 0.4])), 0.0)

    def test_self_bracket_vanishes(self):
        dom = CoordDomain.cube(2)
        x = to_vector_field(["x1^2", "sin(x0)"], dom)
        assert np.allclose(lie_bracket(x, x, np.array([0.5, 0.5])), 0.0, atol=1e-12)

    def test_component_formula_example(self):
        dom = CoordDomain.cube(2)
        x = to_vector_field(["x1", "0"], dom)
        y = to_vector_field(["0", "x0"], dom)
        assert np.allclose(lie_bracket(x, y, np.array([1.0, 1.0])), [-1.0, 1.0])

    def test_bilinear_antisymmetric(self, rng):
        dom = CoordDomain.cube(2)
        x = to_vector_field(["x1", "x0*x1"], dom)
        y = to_vector_field(["x0^2", "x1"], dom)
        z = to_vector_field(["sin(x1)", "cos(x0)"], dom)
        for point in dom.sample(rng, 25):
            a, b = rng.uniform(-2, 2, 2)
            mixed = VectorField(
                [
                    ScalarField(dom, (lambda p, _u=u, _v=v, _a=a, _b=b: _a * _u.gen(p) + _b * _v.gen(p)), mode="dual")
                    for u, v in zip(x.components, y.components)
                ]
            )
            lhs = lie_bracket(mixed, z, point)
            rhs = a * lie_bracket(x, z, point) + b * lie_bracket(y, z, point)
            assert np.max(np.abs(lhs - rhs)) < 1e-9
            assert np.max(np.abs(lie_bracket(x, y, point) + lie_bracket(y, x, point))) < 1e-9


def test_dual_vs_central_difference_on_random_points(rng):
    dom = CoordDomain.box([[-1.5, 1.5], [0.5, 2.5]])
    fields = [
        to_field("sin(x0)*x1 + x0^3", dom),
        to_field("exp(x0/2) - x1^2/4", dom),
        to_field("cos(x0*x1)", dom),
    ]
    for f in fields:
        assert f.check_derivatives(rng, samples=100) < 1e-5


def test_matrix_field_batch_and_jacobian():
    dom = CoordDomain.cube(2)
    m = MatrixField([[to_field("x0", dom), to_field("x1", dom)], [to_field("x0*x1", dom), to_field("2", dom)]])
    x = np.array([0.5, -0.5])
    assert np.allclose(m.value(x), [[0.5, -0.5], [-0.25, 2.0]])
    jac = m.jacobian(x)
    assert jac.shape == (2, 2, 2)
    assert np.allclose(jac[0], [[1, 0], [-0.5, 0]])
    assert np.allclose(jac[1], [[0, 1], [0.5, 0]])
    pts = np.array([[0.1, 0.2], [0.3, 0.4]])
    assert m.sample(pts).shape == (2, 2, 2)
    assert np.allclose(m.sample(pts)[1], m.value(pts[1]))


def test_mixed_domains_rejected():
    a = CoordDomain.cube(2)
    b = CoordDomain.cube(2, -1, 1)
    with pytest.raises(ShapeError):
        VectorField([to_field("x0", a), to_field("x1", b)])
