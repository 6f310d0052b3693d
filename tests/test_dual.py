import numpy as np
import pytest

from geoconn import dual as dm


def test_arithmetic_value_and_derivative():
    x = dm.Dual(3.0, np.array([1.0]))
    y = x * x + 2 * x - 5
    assert y.re == 3.0 * 3.0 + 6.0 - 5.0
    assert y.eps[0] == 2 * 3.0 + 2.0


def test_division_quotient_rule():
    x = dm.Dual(2.0, np.array([1.0]))
    y = (x * x) / (x + 1)  # f = x^2/(x+1), f'(2) = (2x(x+1) - x^2)/(x+1)^2
    assert y.re == pytest.approx(4.0 / 3.0)
    assert y.eps[0] == pytest.approx((2 * 2 * 3 - 4) / 9)


def test_division_by_zero_real_part():
    x = dm.Dual(0.0, np.array([1.0]))
    with pytest.raises(ZeroDivisionError):
        1.0 / x


def test_integer_powers():
    x = dm.Dual(2.0, np.array([1.0]))
    assert (x**0).re == 1.0 and (x**0).eps[0] == 0.0
    assert (x**3).eps[0] == 3 * 4.0
    assert (x**-1).eps[0] == pytest.approx(-0.25)
    with pytest.raises(TypeError):
        x**0.5


def test_transcendental_derivatives():
    x = dm.Dual(0.7, np.array([1.0]))
    assert dm.sin(x).eps[0] == pytest.approx(np.cos(0.7))
    assert dm.cos(x).eps[0] == pytest.approx(-np.sin(0.7))
    assert dm.exp(x).eps[0] == pytest.approx(np.exp(0.7))
    # Plain floats and arrays pass through to numpy.
    assert dm.sin(0.7) == np.sin(0.7)
    assert np.allclose(dm.exp(np.array([0.0, 1.0])), np.exp([0.0, 1.0]))


def test_seed_gradient():
    xs = dm.seed(np.array([1.0, 2.0]))
    f = xs[0] * xs[1] + xs[1] ** 2  # grad = (x1, x0 + 2 x1) = (2, 5)
    assert np.allclose(f.eps, [2.0, 5.0])


def test_right_operand_forms():
    x = dm.Dual(2.0, np.array([1.0]))
    assert (5.0 - x).eps[0] == -1.0
    assert (5.0 / x).eps[0] == pytest.approx(-5.0 / 4.0)
    assert (-x).re == -2.0
    assert (x < 3.0) and (x > 1.0) and (x <= 2.0) and (x >= 2.0)


def test_batched_seed_matches_pointwise():
    pts = np.array([[1.0, 2.0], [0.5, -1.0], [-0.3, 0.7]])

    def f(x):
        return dm.sin(x[0]) * x[1] ** 2 / (x[0] + 3.0) - dm.exp(x[1]) + 1.0 / (2.0 - x[0])

    batch = f(dm.seed(pts))
    assert batch.re.shape == (3,) and batch.eps.shape == (2, 3)
    for m, p in enumerate(pts):
        point = f(dm.seed(p))
        assert type(point.re) is float
        assert batch.re[m] == pytest.approx(point.re, rel=1e-14)
        assert np.allclose(batch.eps[:, m], point.eps, rtol=1e-14, atol=0)


def test_batched_power_and_zero_checks():
    xs = dm.seed(np.array([[2.0], [0.0]]))
    assert np.array_equal((xs[0] ** 0).re, [1.0, 1.0])
    assert np.array_equal((xs[0] ** 2).eps, [[4.0, 0.0]])
    with pytest.raises(ZeroDivisionError):
        1.0 / xs[0]
    with pytest.raises(ZeroDivisionError):
        xs[0] ** -1



# A batch dual: real part of shape (3,), seeds of shape (2, 3).
ARR = np.array([0.5, -2.0, 3.0])
RE = np.array([1.5, 0.25, -4.0])
EPS = np.array([[1.0, 0.0, 2.0], [0.5, -1.0, 0.0]])


@pytest.mark.parametrize("fn, re, eps", [
    (lambda a, d: a + d, ARR + RE, EPS),
    (lambda a, d: d + a, RE + ARR, EPS),
    (lambda a, d: a - d, ARR - RE, -EPS),
    (lambda a, d: d - a, RE - ARR, EPS),
    (lambda a, d: a * d, ARR * RE, ARR * EPS),
    (lambda a, d: d * a, RE * ARR, EPS * ARR),
    (lambda a, d: a / d, ARR / RE, -ARR * EPS / RE**2),
    (lambda a, d: d / a, RE / ARR, EPS / ARR),
])
def test_ndarray_operands_defer_to_dual(fn, re, eps):
    out = fn(ARR, dm.Dual(RE, EPS))
    assert isinstance(out, dm.Dual)
    np.testing.assert_allclose(out.re, re, rtol=1e-15)
    np.testing.assert_allclose(out.eps, eps, rtol=1e-15)
