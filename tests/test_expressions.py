import math

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
