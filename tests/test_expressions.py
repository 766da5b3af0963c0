import math

import mpmath as mp
import numpy as np
import pytest

from varfrac import ExpressionError, compile_expression


class TestParsingAndEvaluation:
    @pytest.mark.parametrize("src", ["x^2", "x^1.7", "x^3"])
    def test_power_scalar_matches_grid_bit_for_bit(self, src):
        # Python-float pow and numpy's array pow differ in the last bit on
        # some inputs; a scalar must get the grid's value exactly
        e = compile_expression(src, ("x",))
        x = np.random.default_rng(3).random(20000) * 3.0
        grid = e(x)
        scalar = np.array([e(float(v)) for v in x])
        assert np.array_equal(scalar, grid)

    def test_arithmetic_precedence(self):
        e = compile_expression("1+2*3-4/2", ())
        assert e() == pytest.approx(5.0)

    def test_power_is_right_associative(self):
        assert compile_expression("2^3^2", ())() == pytest.approx(512.0)

    def test_power_binds_tighter_than_unary_minus(self):
        assert compile_expression("-2^2", ())() == pytest.approx(-4.0)

    def test_unary_minus_and_plus(self):
        e = compile_expression("-t + +2", ("t",))
        assert e(1.5) == pytest.approx(0.5)

    def test_parentheses(self):
        e = compile_expression("(1+t)/4", ("t",))
        assert e(1.0) == pytest.approx(0.5)

    def test_functions(self):
        e = compile_expression("sin(t)^2 + cos(t)^2", ("t",))
        assert e(0.7) == pytest.approx(1.0, abs=1e-15)
        e = compile_expression("ln(exp(t))", ("t",))
        assert e(2.3) == pytest.approx(2.3, rel=1e-15)

    def test_constants(self):
        assert compile_expression("pi", ())() == pytest.approx(math.pi)
        assert compile_expression("e^1", ())() == pytest.approx(math.e)

    def test_scientific_notation(self):
        assert compile_expression("1e-3 + 2.5E2 + .5", ())() == pytest.approx(250.501)

    def test_array_broadcast(self):
        e = compile_expression("t*tau + 1", ("t", "tau"))
        t = np.linspace(0, 1, 5)
        out = e(t, 2.0)
        assert out.shape == (5,)
        assert np.allclose(out, 2 * t + 1)

    def test_constant_expression_broadcasts_to_array_args(self):
        e = compile_expression("0.5", ("t", "tau"))
        out = e(np.zeros(4), np.ones(4))
        assert out.shape == (4,)
        assert np.all(out == 0.5)

    def test_multi_variable(self):
        e = compile_expression("t1^2 - t2", ("t1", "t2"))
        assert e(3.0, 4.0) == pytest.approx(5.0)

    def test_constant_division_by_zero_is_inf(self):
        # numpy's division, as on a grid, not Python's ZeroDivisionError
        with np.errstate(divide="ignore"):
            assert compile_expression("1/0 + t", ("t",))(0.5) == math.inf


class TestErrors:
    def test_unknown_identifier_position(self):
        with pytest.raises(ExpressionError) as exc_info:
            compile_expression("tau + bogus", ("tau",))
        assert exc_info.value.col == 6
        assert "bogus" in str(exc_info.value)

    def test_variable_not_allowed_in_context(self):
        with pytest.raises(ExpressionError):
            compile_expression("t1 + t2", ("t", "tau"))

    def test_unknown_function(self):
        with pytest.raises(ExpressionError):
            compile_expression("tan(t)", ("t",))

    def test_unbalanced_parentheses(self):
        with pytest.raises(ExpressionError):
            compile_expression("(1 + t", ("t",))

    def test_trailing_garbage(self):
        with pytest.raises(ExpressionError, match="trailing"):
            compile_expression("1 + 2 3", ())

    def test_bad_character(self):
        with pytest.raises(ExpressionError):
            compile_expression("1 @ 2", ())

    def test_empty_input(self):
        with pytest.raises(ExpressionError):
            compile_expression("", ())

    def test_wrong_arity_call(self):
        e = compile_expression("t", ("t",))
        with pytest.raises(TypeError):
            e(1.0, 2.0)

    def test_non_string_rejected(self):
        with pytest.raises(ExpressionError):
            compile_expression(123, ("t",))

    def test_error_carries_line_and_col(self):
        with pytest.raises(ExpressionError) as exc_info:
            compile_expression("1 + §", ())
        assert exc_info.value.line == 1
        assert exc_info.value.col == 4


    def test_derivative_along_an_unknown_variable(self):
        with pytest.raises(ExpressionError, match="'t2'"):
            compile_expression("t1", ("t1",)).derivative("t2")


# one case per grammar node, and some compositions of them
DERIVATIVE_CASES = [
    "x + y^2", "x - 3*y", "x*y", "x/y", "y/x", "-x*y", "-(x - y^2)", "+x",
    "x^3", "x^2.5", "(x + y)^-1.5", "x^y", "2^x", "e^(x*y)",
    "sin(x*y)", "cos(x/y)", "exp(-x*y)", "ln(x + y^2)",
    "pi*x + e^y", "2*pi + e - 1/3", "7",
    "exp(sin(x))*ln(1 + x*y)/(2 + cos(y))", "-(x^y)/(1 + x) + (x*y)^(1/3)",
]
_MP = {"sin": mp.sin, "cos": mp.cos, "exp": mp.exp, "ln": mp.log, "pi": mp.pi, "e": mp.e}


def _mp_partial(src, var, x, y):
    """The partial of src along var at (x, y) by mpmath.diff, at 30 digits."""
    body = src.replace("^", "**")
    f = {"x": lambda s: eval(body, dict(_MP, x=s, y=mp.mpf(y))),
         "y": lambda s: eval(body, dict(_MP, x=mp.mpf(x), y=s))}[var]
    with mp.workdps(30):
        return float(mp.diff(f, mp.mpf(x if var == "x" else y)))


class TestDerivative:
    @pytest.mark.parametrize("var", ["x", "y"])
    @pytest.mark.parametrize("src", DERIVATIVE_CASES)
    def test_matches_mpmath_diff(self, src, var):
        d = compile_expression(src, ("x", "y")).derivative(var)
        rng = np.random.default_rng(11)
        x, y = 0.2 + 1.3 * rng.random((2, 8))
        got = d(x, y)
        ref = np.array([_mp_partial(src, var, a, b) for a, b in zip(x, y)])
        assert got.shape == (8,)
        assert np.all(np.abs(got - ref) <= 1e-12 * np.abs(ref))

    @pytest.mark.parametrize("src", DERIVATIVE_CASES)
    def test_text_parses_back_to_the_same_bits(self, src):
        d = compile_expression(src, ("x", "y")).derivative("x")
        x, y = 0.2 + 1.3 * np.random.default_rng(12).random((2, 50))
        assert np.array_equal(compile_expression(d.src, ("x", "y"))(x, y), d(x, y))

    def test_folds_while_building(self):
        e = compile_expression("2 + 3*t1 + 4*t2", ("t1", "t2"))
        assert e.derivative("t1").src == "3" and e.derivative("t2").src == "4"
        assert compile_expression("t1^3", ("t1",)).derivative("t1").src == "(3 * (t1 ^ 2))"
        assert compile_expression("5*t2 + t1", ("t1", "t2")).derivative("t1").src == "1"
        assert compile_expression("t1/2 - t1", ("t1",)).derivative("t1").src == "(-0.5)"

    def test_built_once_per_variable(self):
        e = compile_expression("t1*t2", ("t1", "t2"))
        assert e.derivative("t1") is e.derivative("t1")
        assert e.derivative("t1").src == "t2" and e.derivative("t2").src == "t1"

    @pytest.mark.parametrize("src", ["ln(x - 0.5)", "ln(x - 0.5) + y", "3*ln(x - 0.5)",
                                     "ln(x^2 - 0.25)", "x + ln(y - 0.5)", "x - (y - 0.5)^0.5",
                                     "x*y + 1/(y - 0.5)", "x + ln(-1)"])
    def test_nan_where_the_value_is_not_finite(self, src):
        # d ln(a) = a'/a alone is finite for a < 0, and a term free of x
        # alone would drop out of the derivative along x
        e = compile_expression(src, ("x", "y"))
        x, y = np.meshgrid(np.linspace(0.0, 1.0, 41), np.linspace(0.0, 1.0, 41))
        with np.errstate(invalid="ignore", divide="ignore"):
            value, d = e(x, y), e.derivative("x")(x, y)
        finite = np.isfinite(value)
        assert not finite.all()
        assert np.isnan(d[~finite]).all() and np.isfinite(d[finite]).all()

    def test_a_term_free_of_the_variable_is_not_evaluated_unless_it_may_be_undefined(self):
        e = compile_expression("x + 4*y*sin(y) + ln(y) + exp(0.5)", ("x", "y"))
        assert e.derivative("x").src == "(1 + (0 * ln(y)))"
