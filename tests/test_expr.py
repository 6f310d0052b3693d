import numpy as np
import pytest

from geoconn import CoordDomain, ParseError, parse, to_field
from geoconn.expr import evaluate, to_str


def ev(src, variables, values):
    return evaluate(parse(src, variables), values)


class TestParse:
    def test_polynomial_example(self):
        assert ev("x0^2 + 3*x1", ["x0", "x1"], [2.0, 1.0]) == 7.0

    def test_sin_product(self):
        assert ev("sin(x0)*x1", ["x0", "x1"], [0.0, 5.0]) == 0.0

    def test_unknown_identifier_offset(self):
        with pytest.raises(ParseError) as err:
            parse("x2", ["x0", "x1"])
        assert err.value.offset == 0

    def test_unknown_identifier_mid_expression(self):
        with pytest.raises(ParseError) as err:
            parse("x0 + bogus", ["x0"])
        assert err.value.offset == 5

    def test_precedence(self):
        # ^ binds tighter than unary minus, which binds tighter than * and /.
        assert ev("-x0^2", ["x0"], [2.0]) == -4.0
        assert ev("2*x0^2", ["x0"], [3.0]) == 18.0
        assert ev("6 - 2 - 1", [], []) == 3.0  # left-associative
        assert ev("12 / 3 / 2", [], []) == 2.0
        assert ev("1 + 2*3", [], []) == 7.0

    def test_negative_exponent(self):
        assert ev("x0^-2", ["x0"], [2.0]) == 0.25

    def test_non_integer_exponent_rejected(self):
        with pytest.raises(ParseError):
            parse("x0^1.5", ["x0"])
        with pytest.raises(ParseError):
            parse("x0^x0", ["x0"])

    def test_malformed_number(self):
        with pytest.raises(ParseError) as err:
            parse("1.2.3", [])
        assert err.value.offset == 0

    def test_function_needs_argument(self):
        with pytest.raises(ParseError):
            parse("sin", ["x0"])
        with pytest.raises(ParseError):
            parse("sin + 1", ["x0"])

    def test_trailing_garbage(self):
        with pytest.raises(ParseError) as err:
            parse("x0 )", ["x0"])
        assert err.value.offset == 3

    def test_unexpected_character(self):
        with pytest.raises(ParseError):
            parse("x0 % 2", ["x0"])

    def test_empty(self):
        with pytest.raises(ParseError):
            parse("   ", ["x0"])

    def test_whitespace_insensitive(self):
        a = parse(" x0 +  2*x1 ", ["x0", "x1"])
        b = parse("x0+2*x1", ["x0", "x1"])
        assert a == b

    def test_scientific_literals(self):
        assert ev("1e-3 + 2.5E2", [], []) == pytest.approx(0.001 + 250.0)


class TestPrinter:
    @pytest.mark.parametrize(
        "src",
        [
            "x0^2 + 3*x1",
            "-x0^2",
            "-(x0 + x1)",
            "(x0 + x1)*(x0 - x1)",
            "x0 - (x1 - 2)",
            "sin(x0)*cos(x1) + exp(x0*x1)",
            "x0/(x1 + 3)",
            "1/2/x0",
            "x0^-3 * 2",
            "-sin(-x0)",
        ],
    )
    def test_round_trip(self, src):
        variables = ["x0", "x1"]
        first = parse(src, variables)
        assert parse(to_str(first), variables) == first


class TestToField:
    def test_exact_polynomial_derivative(self):
        dom = CoordDomain.cube(1, -5, 5)
        f = to_field("x0^2", dom)
        assert f.partial(np.array([3.0]), 0) == 6.0  # dual numbers: exact

    def test_exact_exp_derivative(self):
        dom = CoordDomain.cube(1)
        f = to_field("exp(x0)", dom)
        assert f.partial(np.array([0.0]), 0) == 1.0

    def test_product_partial(self):
        dom = CoordDomain.cube(2, -4, 4)
        f = to_field("x0*x1", dom)
        assert f.partial(np.array([2.0, 3.0]), 1) == 2.0

    def test_dimension_mismatch(self):
        dom = CoordDomain.cube(1)
        with pytest.raises(Exception):
            to_field("x1", dom)

    def test_batched_sampling(self):
        dom = CoordDomain.cube(2)
        f = to_field("x0^2 - x1", dom)
        pts = np.array([[0.1, 0.2], [0.5, -0.5], [1.0, 1.0]])
        assert np.allclose(f.sample(pts), pts[:, 0] ** 2 - pts[:, 1])
