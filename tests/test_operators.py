import math
import sys

import numpy as np
import pytest
from scipy.special import gamma as sgamma

from varfrac import (ConfigurationError, DomainError, Interval, OpKind, Rect2,
                     SmoothFn1, SmoothFn2, ValidityError, VariableOrder,
                     left_caputo_derivative, left_rl_derivative,
                     left_rl_integral, partial_op, right_caputo_derivative,
                     right_rl_derivative, right_rl_integral)

from varfrac import operators
from varfrac.domain import SeparableFn2
from varfrac.quadrature import DEFAULT_QUAD, KernelRule, Side

from conftest import UNIT, UNIT_RECT, mpgamma, random_poly1, random_poly2

ALPHA_CONSTANTS = (0.25, 0.5, 0.75)


def const_alpha(c, domain=UNIT):
    return VariableOrder.constant(c, domain)


def sr_alpha():
    """Order (1 + t)/4, the variable-order power-law oracle case."""
    return VariableOrder(lambda t, tau: (1.0 + t) / 4.0, UNIT)


class TestLeftIntegral:
    def test_power_law_oracle(self):
        # left integral of tau^g with order (1+t)/4 has the closed form
        # Gamma(g+1) t^(g+alpha(t)) / Gamma(g+alpha(t)+1)
        alpha = sr_alpha()
        for g in (1, 2, 3):
            for t in np.linspace(0.1, 1.0, 7):
                v = left_rl_integral(lambda tau: tau ** g, alpha, 0.0, t)
                a_t = (1.0 + t) / 4.0
                exact = mpgamma(g + 1.0) * t ** (g + a_t) / mpgamma(g + a_t + 1.0)
                assert v == pytest.approx(exact, rel=1e-8)

    def test_constant_of_one(self):
        v = left_rl_integral(lambda tau: 1.0, const_alpha(0.5), 0.0, 1.0)
        assert v == pytest.approx(1.1283791671, abs=1e-9)

    def test_zero_function(self):
        assert left_rl_integral(lambda tau: 0.0, sr_alpha(), 0.0, 1.0) == 0.0

    def test_empty_range(self):
        assert left_rl_integral(lambda tau: 1.0, sr_alpha(), 0.0, 0.0) == 0.0

    def test_t_below_a(self):
        with pytest.raises(DomainError):
            left_rl_integral(lambda tau: 1.0, sr_alpha(), 0.5, 0.2)


class TestRightIntegral:
    def test_constant_mirror(self):
        v = right_rl_integral(lambda tau: 1.0, const_alpha(0.5), 0.0, 1.0)
        assert v == pytest.approx(1.1283791671, abs=1e-9)

    def test_monomial_closed_form(self):
        # f = (b - tau)^g: Gamma(g+1) (b-t)^(g+alpha) / Gamma(g+alpha+1)
        for a_c in ALPHA_CONSTANTS:
            v = right_rl_integral(lambda tau: (1.0 - tau) ** 2, const_alpha(a_c), 0.2, 1.0)
            exact = mpgamma(3.0) * 0.8 ** (2 + a_c) / mpgamma(3.0 + a_c)
            assert v == pytest.approx(exact, rel=1e-8)

    def test_empty_range(self):
        assert right_rl_integral(lambda tau: 1.0, sr_alpha(), 1.0, 1.0) == 0.0


def reflected_order(alpha_fn, a, b):
    """alpha~(u, v) = alpha(a + b - v, a + b - u) on the same interval."""
    return VariableOrder(lambda u, v: alpha_fn(a + b - v, a + b - u),
                         Interval(a, b))


class TestReflectionDuality:
    """Right operators equal left operators of the reflected problem."""

    def setup_method(self):
        self.alpha_fn = lambda t, tau: 0.35 + 0.1 * t + 0.05 * tau
        self.alpha = VariableOrder(self.alpha_fn, UNIT)
        self.alpha_ref = reflected_order(self.alpha_fn, 0.0, 1.0)

    def test_integral_pairs(self, rng):
        for _ in range(10):
            p = random_poly1(rng)
            t = float(rng.uniform(0.05, 0.9))
            right = right_rl_integral(p, self.alpha, t, 1.0)
            left = left_rl_integral(lambda s: p(1.0 - s), self.alpha_ref, 0.0, 1.0 - t)
            assert right == pytest.approx(left, abs=1e-10)

    def test_caputo_pairs(self, rng):
        for _ in range(10):
            p = random_poly1(rng)
            dp = p.deriv()
            t = float(rng.uniform(0.05, 0.9))
            f = SmoothFn1(p, dp, check=False)
            f_ref = SmoothFn1(lambda s: p(1.0 - s), lambda s: -dp(1.0 - s), check=False)
            right = right_caputo_derivative(f, self.alpha, t, 1.0)
            left = left_caputo_derivative(f_ref, self.alpha_ref, 0.0, 1.0 - t)
            assert right == pytest.approx(left, abs=1e-10)

    def test_rl_derivative_pairs(self, rng):
        for _ in range(10):
            p = random_poly1(rng)
            t = float(rng.uniform(0.1, 0.9))
            right = right_rl_derivative(p, self.alpha, t, 1.0)
            left = left_rl_derivative(lambda s: p(1.0 - s), self.alpha_ref, 0.0, 1.0 - t)
            assert right == pytest.approx(left, abs=1e-8)


class TestRlDerivative:
    def test_constant_order_monomial(self):
        # D^alpha (tau)^2 = Gamma(3)/Gamma(3-alpha) t^(2-alpha)
        v = left_rl_derivative(lambda tau: tau ** 2, const_alpha(0.5), 0.0, 1.0)
        assert v == pytest.approx(mpgamma(3.0) / mpgamma(2.5), rel=1e-6)
        assert mpgamma(3.0) / mpgamma(2.5) == pytest.approx(1.5045055561, abs=1e-9)

    def test_constant_function(self):
        # RL derivative of 1 is (t-a)^(-alpha)/Gamma(1-alpha), nonzero
        v = left_rl_derivative(lambda tau: 1.0, const_alpha(0.5), 0.0, 1.0)
        assert v == pytest.approx(1.0 / mpgamma(0.5), rel=1e-6)
        assert 1.0 / mpgamma(0.5) == pytest.approx(0.5641895835, abs=1e-9)

    def test_right_constant_function(self):
        v = right_rl_derivative(lambda tau: 1.0, const_alpha(0.5), 0.0, 1.0)
        assert v == pytest.approx(1.0 / mpgamma(0.5), rel=1e-6)

    def test_variable_order_against_differentiated_closed_form(self):
        # f(tau) = tau, order (1+t)/4: the (1-alpha)-integral has closed form
        # F(t) = t^(2-alpha(t)) / Gamma(3-alpha(t)); oracle: central FD of F.
        alpha = sr_alpha()

        def F(t):
            a_t = (1.0 + t) / 4.0
            return t ** (2.0 - a_t) / sgamma(3.0 - a_t)

        h = 1e-6
        for t in (0.3, 0.6, 0.9):
            oracle = (F(t + h) - F(t - h)) / (2.0 * h)
            v = left_rl_derivative(lambda tau: tau, alpha, 0.0, t)
            assert v == pytest.approx(oracle, rel=1e-6)

    def test_at_left_endpoint_raises(self):
        with pytest.raises(DomainError):
            left_rl_derivative(lambda tau: 1.0, const_alpha(0.5), 0.0, 0.0)

    def test_near_endpoint_uses_one_sided_stencil(self):
        # close to the regular endpoint b the central stencil cannot fit at
        # the default step; the backward stencil must still be accurate
        v = left_rl_derivative(lambda tau: tau ** 2, const_alpha(0.25), 0.0, 0.99999)
        exact = mpgamma(3.0) / mpgamma(2.75) * 0.99999 ** 1.75
        assert v == pytest.approx(exact, rel=1e-6)


class TestCaputo:
    def test_constant_gives_zero(self):
        f = SmoothFn1(lambda tau: 3.7 + 0 * tau, lambda tau: 0.0 * tau, check=False)
        assert left_caputo_derivative(f, sr_alpha(), 0.0, 0.8) == pytest.approx(0.0, abs=1e-14)

    def test_linear_constant_order(self):
        f = SmoothFn1(lambda tau: tau, lambda tau: 1.0 + 0 * tau, check=False)
        v = left_caputo_derivative(f, const_alpha(0.5), 0.0, 1.0)
        assert v == pytest.approx(1.0 / mpgamma(1.5), rel=1e-9)

    def test_right_linear_mirror(self):
        f = SmoothFn1(lambda tau: 1.0 - tau, lambda tau: -1.0 + 0 * tau, check=False)
        v = right_caputo_derivative(f, const_alpha(0.5), 0.0, 1.0)
        assert v == pytest.approx(1.0 / mpgamma(1.5), rel=1e-9)

    def test_variable_order_brute_force_oracle(self):
        # f = tau^2, alpha(t, tau) = 0.3 + 0.2 tau, t = 1: graded-trapezoid
        # quadrature of the defining integral with s = u^4 grading (1e6 points)
        alpha = VariableOrder(lambda t, tau: 0.3 + 0.2 * tau, UNIT)
        f = SmoothFn1(lambda tau: tau ** 2, lambda tau: 2.0 * tau, check=False)
        v = left_caputo_derivative(f, alpha, 0.0, 1.0)

        u = np.linspace(0.0, 1.0, 1_000_001)[1:]
        s = u ** 4                      # distance from the singular point tau = 1
        tau = 1.0 - s
        a_v = 0.3 + 0.2 * tau
        integrand = s ** (-a_v) / sgamma(1.0 - a_v) * (2.0 * tau) * 4.0 * u ** 3
        # integrand -> 0 as u -> 0 (exponent 3 - 4 alpha > 0); prepend that limit
        oracle = float(np.trapezoid(np.concatenate(([0.0], integrand)),
                                    np.concatenate(([0.0], u))))
        assert v == pytest.approx(oracle, rel=1e-6)

    def test_fd_fallback_matches_analytic(self):
        analytic = SmoothFn1(lambda tau: tau ** 3, lambda tau: 3.0 * tau ** 2, check=False)
        blackbox = SmoothFn1(lambda tau: tau ** 3)
        alpha = sr_alpha()
        va = left_caputo_derivative(analytic, alpha, 0.0, 0.9)
        vb = left_caputo_derivative(blackbox, alpha, 0.0, 0.9)
        assert vb == pytest.approx(va, rel=1e-8)

    def test_missing_derivative_with_fallback_disabled(self):
        with pytest.raises(ConfigurationError):
            left_caputo_derivative(lambda tau: tau ** 2, sr_alpha(), 0.0, 0.5,
                                   allow_fd_derivative=False)

    def test_empty_range(self):
        f = SmoothFn1(lambda tau: tau, lambda tau: 1.0 + 0 * tau, check=False)
        assert left_caputo_derivative(f, sr_alpha(), 0.0, 0.0) == 0.0
        assert right_caputo_derivative(f, sr_alpha(), 1.0, 1.0) == 0.0

    def test_caputo_vs_rl_on_vanishing_function(self):
        # constant order, f(a) = 0: the two derivative types agree
        for a_c in ALPHA_CONSTANTS:
            alpha = const_alpha(a_c)
            f = SmoothFn1(lambda tau: tau ** 2 + tau, lambda tau: 2 * tau + 1, check=False)
            rl = left_rl_derivative(f, alpha, 0.0, 0.7)
            cap = left_caputo_derivative(f, alpha, 0.0, 0.7)
            assert rl == pytest.approx(cap, abs=1e-6)


class TestConstantOrderReductions:
    """All six operators against classical closed forms on monomials."""

    @pytest.mark.parametrize("a_c", ALPHA_CONSTANTS)
    @pytest.mark.parametrize("g", [1, 2, 3])
    def test_all_six(self, a_c, g):
        alpha = const_alpha(a_c)
        t, b = 0.7, 1.0
        f_left = SmoothFn1(lambda tau: tau ** g, lambda tau: g * tau ** (g - 1), check=False)
        f_right = SmoothFn1(lambda tau: (b - tau) ** g,
                            lambda tau: -g * (b - tau) ** (g - 1), check=False)

        v = left_rl_integral(f_left, alpha, 0.0, t)
        assert v == pytest.approx(
            mpgamma(g + 1.0) * t ** (g + a_c) / mpgamma(g + a_c + 1.0), rel=1e-8)

        v = right_rl_integral(f_right, alpha, t, b)
        assert v == pytest.approx(
            mpgamma(g + 1.0) * (b - t) ** (g + a_c) / mpgamma(g + a_c + 1.0), rel=1e-8)

        v = left_rl_derivative(f_left, alpha, 0.0, t)
        assert v == pytest.approx(
            mpgamma(g + 1.0) / mpgamma(g + 1.0 - a_c) * t ** (g - a_c), rel=1e-6)

        v = right_rl_derivative(f_right, alpha, t, b)
        assert v == pytest.approx(
            mpgamma(g + 1.0) / mpgamma(g + 1.0 - a_c) * (b - t) ** (g - a_c), rel=1e-6)

        v = left_caputo_derivative(f_left, alpha, 0.0, t)
        assert v == pytest.approx(
            mpgamma(g + 1.0) / mpgamma(g + 1.0 - a_c) * t ** (g - a_c), rel=1e-8)

        v = right_caputo_derivative(f_right, alpha, t, b)
        assert v == pytest.approx(
            mpgamma(g + 1.0) / mpgamma(g + 1.0 - a_c) * (b - t) ** (g - a_c), rel=1e-8)


class TestLinearity:
    @pytest.mark.parametrize("kind", list(OpKind))
    def test_linear_in_f(self, kind, rng):
        alpha = VariableOrder(lambda t, tau: 0.35 + 0.1 * t + 0.05 * tau, UNIT)
        p1, p2 = random_poly1(rng), random_poly1(rng)
        c1, c2 = rng.uniform(-2, 2, 2)
        combo2 = random_poly2(rng)  # unused filler to advance rng deterministically

        def call(fn1):
            f2 = SmoothFn2(lambda t1, t2: fn1(t1) + 0.0 * t2,
                           lambda t1, t2: fn1.deriv()(t1) + 0.0 * t2 if hasattr(fn1, "deriv")
                           else None,
                           lambda t1, t2: 0.0 * t1, check=False)
            return partial_op(kind, 1, f2, alpha, (0.6, 0.5), UNIT_RECT)

        class Combo:
            def __init__(self, a, b, ca, cb):
                self.a, self.b, self.ca, self.cb = a, b, ca, cb

            def __call__(self, t):
                return self.ca * self.a(t) + self.cb * self.b(t)

            def deriv(self):
                da, db = self.a.deriv(), self.b.deriv()
                return Combo(da, db, self.ca, self.cb)

        v_combo = call(Combo(p1, p2, c1, c2))
        v_split = c1 * call(p1) + c2 * call(p2)
        assert v_combo == pytest.approx(v_split, rel=1e-11, abs=1e-11)


class TestPartialOps:
    def test_separable_factorization(self):
        # f(t1,t2) = g(t1) w(t2): I_left along axis 1 is w(t2) * 1D integral of g
        alpha = sr_alpha()
        g1 = lambda s: s ** 2 + 1.0
        w2 = lambda s: np.cos(s)
        f = SmoothFn2(lambda t1, t2: g1(t1) * w2(t2), check=False)
        v = partial_op(OpKind.I_LEFT, 1, f, alpha, (0.7, 0.4), UNIT_RECT)
        expected = w2(0.4) * left_rl_integral(g1, alpha, 0.0, 0.7)
        assert v == pytest.approx(expected, rel=1e-12)

    def test_constant_along_axis_caputo_zero(self):
        f = SmoothFn2(lambda t1, t2: t1 + 0.0 * t2,
                      lambda t1, t2: 1.0 + 0 * t1,
                      lambda t1, t2: 0.0 * t1, check=False)
        v = partial_op(OpKind.D_CAP_LEFT, 2, f, sr_alpha(), (0.5, 0.8), UNIT_RECT)
        assert v == pytest.approx(0.0, abs=1e-14)

    def test_power_law_partial_example(self):
        # f = t1 t2^2, axis 2, I_left at (0.5, 1), order (1+t)/4:
        # 0.5 * Gamma(3) / Gamma(3.5) = 0.3009011112...
        f = SmoothFn2(lambda t1, t2: t1 * t2 ** 2, check=False)
        v = partial_op(OpKind.I_LEFT, 2, f, sr_alpha(), (0.5, 1.0), UNIT_RECT)
        exact = 0.5 * mpgamma(3.0) / mpgamma(3.5)
        assert v == pytest.approx(exact, rel=1e-8)
        assert exact == pytest.approx(0.3009011112, abs=1e-10)

    def test_section_delegation_is_exact(self, rng):
        # partial_op must equal the one-variable operator on the frozen section
        alpha = sr_alpha()
        for _ in range(20):
            p = random_poly2(rng)
            t1 = float(rng.uniform(0.1, 1.0))
            t2 = float(rng.uniform(0.0, 1.0))
            via_partial = partial_op(OpKind.I_LEFT, 1, p.as_smooth_fn2(), alpha,
                                     (t1, t2), UNIT_RECT)
            direct = left_rl_integral(lambda s: p(s, t2), alpha, 0.0, t1)
            assert abs(via_partial - direct) <= 1e-14 * max(1.0, abs(direct))

    def test_axis_validation(self):
        f = SmoothFn2(lambda t1, t2: t1 * t2)
        with pytest.raises(DomainError):
            partial_op(OpKind.I_LEFT, 3, f, sr_alpha(), (0.5, 0.5), UNIT_RECT)
        with pytest.raises(DomainError):
            partial_op(OpKind.I_LEFT, 1, f, sr_alpha(), (1.5, 0.5), UNIT_RECT)

    @pytest.mark.parametrize("axis", [1, 2])
    def test_frozen_coordinate_validation(self, axis):
        # the frozen coordinate is checked as the axis coordinate is, so f
        # is never evaluated off the rectangle and NaN is a domain error
        f = SmoothFn2(lambda t1, t2: t1 + t2, check=False)
        at = lambda x, frozen: (x, frozen) if axis == 1 else (frozen, x)
        leaves = rf"coordinate {{}} leaves \[0\.0, 1\.0\] along axis {3 - axis}"
        with pytest.raises(DomainError, match=leaves.format(r"7\.0")):
            partial_op(OpKind.I_LEFT, axis, f, sr_alpha(), at(0.5, 7.0), UNIT_RECT)
        with pytest.raises(DomainError, match=leaves.format("nan")):
            partial_op(OpKind.I_LEFT, axis, f, sr_alpha(), at(0.5, np.nan), UNIT_RECT)
        grid = at(np.array([0.2, 0.5])[:, None], np.array([0.0, 1.0, -1e-9, np.nan])[None, :])
        with pytest.raises(DomainError, match=leaves.format(r"-1e-09")):
            partial_op(OpKind.D_CAP_LEFT, axis, f, sr_alpha(), grid, UNIT_RECT)
        # both closed ends are inside
        assert partial_op(OpKind.I_LEFT, axis, f, sr_alpha(), at(0.5, 1.0), UNIT_RECT) > 0.0

    @pytest.mark.parametrize("kind", [OpKind.D_CAP_LEFT, OpKind.D_CAP_RIGHT])
    def test_missing_factor_derivative_with_fallback_disabled(self, kind):
        # without the fallback, a factor along the axis with no analytic
        # derivative raises, as a field with no partial along it does
        alpha, g = VariableOrder.constant(0.4, UNIT), lambda s: s ** 2
        h = SmoothFn1(lambda s: 1.0 + s, lambda s: 1.0 + 0.0 * s, check=False)
        sep = SeparableFn2([(g, h)], UNIT_RECT)
        plain = SmoothFn2(lambda t1, t2: t1 ** 2 * (1.0 + t2), check=False)
        for f in (sep, plain):
            with pytest.raises(ConfigurationError):
                partial_op(kind, 1, f, alpha, (0.5, 0.5), UNIT_RECT, allow_fd_derivative=False)
        # the other axis's factor needs none, and the value does not move
        assert partial_op(kind, 2, sep, alpha, (0.5, 0.5), UNIT_RECT,
                          allow_fd_derivative=False) == \
            partial_op(kind, 2, sep, alpha, (0.5, 0.5), UNIT_RECT)


ONE_VARIABLE = {
    OpKind.I_LEFT: lambda f, alpha, t: left_rl_integral(f, alpha, 0.0, t),
    OpKind.I_RIGHT: lambda f, alpha, t: right_rl_integral(f, alpha, t, 1.0),
    OpKind.D_RL_LEFT: lambda f, alpha, t: left_rl_derivative(f, alpha, 0.0, t),
    OpKind.D_RL_RIGHT: lambda f, alpha, t: right_rl_derivative(f, alpha, t, 1.0),
    OpKind.D_CAP_LEFT: lambda f, alpha, t: left_caputo_derivative(f, alpha, 0.0, t),
    OpKind.D_CAP_RIGHT: lambda f, alpha, t: right_caputo_derivative(f, alpha, t, 1.0),
}


def grid_for(kind):
    """Both empty-range ends, and points where the default Riemann-Liouville
    step needs the central stencil (0.3, 0.7), the forward one (right
    kernels at 0 and 1e-5) and the backward one (left kernels at 0.99999
    and 1)."""
    pts = [0.0, 1e-5, 0.3, 0.7, 0.99999, 1.0]
    if kind is OpKind.D_RL_LEFT:
        return pts[1:]
    if kind is OpKind.D_RL_RIGHT:
        return pts[:-1]
    return pts


def same_bits(array_values, scalar_values):
    return np.asarray(array_values).tobytes() == np.array(scalar_values, dtype=float).tobytes()


class TestArrayEvaluation:
    """An array of evaluation points gives the scalar loop's values, bit for bit."""

    @pytest.mark.parametrize("kind", list(OpKind))
    @pytest.mark.parametrize("analytic", [True, False])
    def test_one_variable(self, kind, analytic, rng):
        alpha = VariableOrder(lambda t, tau: 0.35 + 0.1 * t + 0.05 * tau, UNIT)
        p = random_poly1(rng)
        f = SmoothFn1(p, p.deriv() if analytic else None, check=False)
        op = ONE_VARIABLE[kind]
        pts = grid_for(kind)
        assert same_bits(op(f, alpha, np.array(pts)), [op(f, alpha, t) for t in pts])

    @pytest.mark.parametrize("kind", list(OpKind))
    @pytest.mark.parametrize("axis", [1, 2])
    def test_partial(self, kind, axis, rng):
        alpha = VariableOrder(lambda t, tau: 0.35 + 0.1 * t + 0.05 * tau, UNIT)
        f = random_poly2(rng).as_smooth_fn2()
        along = np.array(grid_for(kind))
        other = np.linspace(0.0, 1.0, along.size)
        t1, t2 = (along, other) if axis == 1 else (other, along)
        scalar = [partial_op(kind, axis, f, alpha, (x, y), UNIT_RECT) for x, y in zip(t1, t2)]
        assert same_bits(partial_op(kind, axis, f, alpha, (t1, t2), UNIT_RECT), scalar)
        # a shared coordinate broadcasts, and the result takes the points' shape
        grid = partial_op(kind, axis, f, alpha, (t1[:, None], t2[None, :]), UNIT_RECT)
        assert grid.shape == (along.size, along.size)
        assert same_bits(np.diagonal(grid), scalar)

    def test_long_grid_spans_several_batches(self):
        alpha = VariableOrder(lambda t, tau: 0.35 + 0.1 * t + 0.05 * tau, UNIT)
        pts = np.linspace(0.0, 1.0, 700)
        f = lambda tau: 1.0 + tau - tau * tau
        assert same_bits(left_rl_integral(f, alpha, 0.0, pts),
                         [left_rl_integral(f, alpha, 0.0, t) for t in pts])

    @pytest.mark.parametrize("kind", list(OpKind))
    @pytest.mark.parametrize("axis", [1, 2])
    @pytest.mark.parametrize("analytic", [True, False])
    def test_repeated_coordinates(self, kind, axis, analytic, rng):
        # a broadcast grid repeats every axis coordinate; the RL points run
        # the central, forward and backward stencils
        alpha = VariableOrder(lambda t, tau: 0.35 + 0.1 * t + 0.05 * tau, UNIT)
        p = random_poly2(rng)
        f = p.as_smooth_fn2() if analytic else SmoothFn2(p, check=False)
        along, other = np.array(grid_for(kind)), np.array([0.0, 0.4, 1.0])
        t1, t2 = (along[:, None], other[None, :]) if axis == 1 else (other[:, None], along[None, :])
        loop = [[partial_op(kind, axis, f, alpha, (x, y), UNIT_RECT) for y in t2[0]]
                for x in t1[:, 0]]
        assert same_bits(partial_op(kind, axis, f, alpha, (t1, t2), UNIT_RECT), loop)

    def test_repeated_coordinates_span_several_batches(self):
        alpha = VariableOrder(lambda t, tau: 0.35 + 0.1 * t + 0.05 * tau, UNIT)
        f = SmoothFn2(lambda t1, t2: np.cos(t1 + 2.0 * t2), check=False)
        t1, t2 = np.linspace(0.0, 1.0, 15), np.linspace(0.0, 1.0, 21)
        assert t1.size * t2.size > 65536 // DEFAULT_QUAD.range_nodes  # one batch's points
        loop = [[partial_op(OpKind.I_RIGHT, 2, f, alpha, (x, y), UNIT_RECT) for y in t2]
                for x in t1]
        grid = partial_op(OpKind.I_RIGHT, 2, f, alpha, (t1[:, None], t2[None, :]), UNIT_RECT)
        assert same_bits(grid, loop)

    @pytest.mark.parametrize("axis", [1, 2])
    def test_signed_zeros_stay_apart(self, axis):
        # 0.0 == -0.0 under a sort, but the integrand tells them apart at the
        # branch point, so merging the two would change the sliver term
        rect = Rect2.of(-1.0, 1.0, -1.0, 1.0)
        alpha = VariableOrder(lambda t, tau: 0.4 + 0.1 * tau, rect.axis(axis))
        sign = lambda t1, t2: np.copysign(1.0, t1 if axis == 1 else t2)
        f = SmoothFn2(lambda t1, t2: 2.0 + sign(t1, t2) + 0.0 * (t1 + t2), check=False)
        along, other = np.array([0.0, -0.5, -0.0, 0.5, 0.0]), np.array([-0.3, 0.6])
        t1, t2 = (along[:, None], other[None, :]) if axis == 1 else (other[:, None], along[None, :])
        loop = [[partial_op(OpKind.I_LEFT, axis, f, alpha, (x, y), rect) for y in t2[0]]
                for x in t1[:, 0]]
        grid = partial_op(OpKind.I_LEFT, axis, f, alpha, (t1, t2), rect)
        assert same_bits(grid, loop)
        zero, minus_zero = (grid[0, 0], grid[2, 0]) if axis == 1 else (grid[0, 0], grid[0, 2])
        assert zero != minus_zero

    @pytest.mark.parametrize("kind", list(OpKind))
    @pytest.mark.parametrize("axis", [1, 2])
    @pytest.mark.parametrize("separable", [False, True])
    @pytest.mark.parametrize("layout", ["3-D", "scalar-row"])
    def test_broadcast_layouts(self, kind, axis, separable, layout):
        # the nested Caputo calls of el_residual broadcast t1 (R, 1, K)
        # against t2 (1, n, 1); a contour edge calls a scalar against a row
        alpha = VariableOrder(lambda t, tau: 0.35 + 0.1 * t + 0.05 * tau, UNIT)
        rng = np.random.default_rng(11)
        if separable:  # the last factor has no derivative
            g1, h1, g2 = (random_poly1(rng).as_smooth_fn1() for _ in range(3))
            f = SeparableFn2([(g1, h1), (g2, random_poly1(rng))], UNIT_RECT)
        else:
            f = random_poly2(rng).as_smooth_fn2()
        along = np.array(grid_for(kind))
        if layout == "3-D":
            column = np.resize(along, 6).reshape(2, 1, 3)  # one coordinate repeats
            t1 = column if axis == 1 else np.linspace(0.0, 1.0, 6).reshape(2, 1, 3)
            t2 = np.linspace(0.0, 1.0, 5).reshape(1, -1, 1) if axis == 1 else along[None, :, None]
        else:
            t1, t2 = (along[2], np.linspace(0.0, 1.0, 4)) if axis == 1 else (0.6, along)
        shape = np.broadcast(t1, t2).shape
        grid = partial_op(kind, axis, f, alpha, (t1, t2), UNIT_RECT)
        b1, b2 = np.broadcast_to(t1, shape), np.broadcast_to(t2, shape)
        loop = [partial_op(kind, axis, f, alpha, (b1[i], b2[i]), UNIT_RECT)
                for i in np.ndindex(shape)]
        assert grid.shape == shape and grid.flags.c_contiguous
        assert all(type(v) is float for v in loop)
        assert same_bits(grid.ravel(), loop)

    @pytest.fixture
    def rule_rows(self, monkeypatch):
        """The ranges built by every KernelRule of the operators, the sizes
        of the arrays that numpy sorts meanwhile, and the shapes of every
        rule's nodes and weights."""
        built, sorts, shapes = [], [], []

        class CountingRule(KernelRule):
            def __init__(self, spec, lo, hi, cfg):
                super().__init__(spec, lo, hi, cfg)
                end = np.asarray(hi if spec.side is Side.LEFT else lo)
                built.append(end.size)
                assert self.tau.shape[:-1] == end.shape
                shapes.extend([self.tau.shape, self.weights.shape])

        def counted(sort):
            return lambda x, *a, **k: sorts.append(np.size(x)) or sort(x, *a, **k)

        monkeypatch.setattr(operators, "KernelRule", CountingRule)
        for name in ("unique", "sort", "argsort", "lexsort"):
            monkeypatch.setattr(operators.np, name, counted(getattr(np, name)))
        return built, sorts, shapes

    @pytest.mark.parametrize("kind", list(OpKind))
    @pytest.mark.parametrize("axis", [1, 2])
    def test_grid_work_is_per_axis_coordinate(self, rule_rows, kind, axis):
        # on an n x m grid, nothing is sorted, no rule has a row per point,
        # and each integral calls the field on at most n * m rows of nodes
        built, sorts, shapes = rule_rows
        n, m, nodes = 6, 7, DEFAULT_QUAD.range_nodes
        p, calls = random_poly2(np.random.default_rng(5)), []

        def counted(fn):
            return lambda t1, t2: calls.append(np.broadcast(t1, t2).size) or fn(t1, t2)

        f = SmoothFn2(counted(p), counted(p.partial(1)), counted(p.partial(2)), check=False)
        along, other = np.linspace(0.1, 0.9, n), np.linspace(0.0, 1.0, m)
        t1, t2 = (along[:, None], other[None, :]) if axis == 1 else (other[:, None], along[None, :])
        partial_op(kind, axis, f, sr_alpha(), (t1, t2), UNIT_RECT)
        assert sorts == []
        assert all(math.prod(shape[:-1]) <= 5 * n for shape in shapes)
        stencil = 5 if kind in (OpKind.D_RL_LEFT, OpKind.D_RL_RIGHT) else 1
        assert calls and max(calls) <= stencil * n * m * nodes

    def test_one_rule_row_per_distinct_coordinate(self, rule_rows):
        built, sorts, _ = rule_rows
        alpha = sr_alpha()
        f = random_poly2(np.random.default_rng(3)).as_smooth_fn2()
        t1, t2 = np.linspace(0.1, 0.9, 5)[:, None], np.linspace(0.0, 1.0, 7)[None, :]
        partial_op(OpKind.I_LEFT, 1, f, alpha, (t1, t2), UNIT_RECT)
        partial_op(OpKind.D_CAP_LEFT, 2, f, alpha, (t1, t2), UNIT_RECT)
        assert built == [5, 6]  # t2 = 0 is an empty range
        built.clear()
        # central stencils at the 5 distinct t1, four points each
        partial_op(OpKind.D_RL_LEFT, 1, f, alpha, (t1, t2), UNIT_RECT)
        assert built == [20]
        assert sorts == []

    @pytest.mark.parametrize("kind", [OpKind.I_LEFT, OpKind.D_RL_LEFT, OpKind.D_CAP_LEFT])
    def test_paired_points_build_one_rule_row_per_point(self, rule_rows, kind):
        # a grid passed as paired points repeats each t1 along a row: every
        # point gets its own rule row, with the bits of the column-and-row call
        built, sorts, _ = rule_rows
        f = random_poly2(np.random.default_rng(3)).as_smooth_fn2()
        t1, t2 = np.linspace(0.2, 0.8, 3)[:, None], np.linspace(0.0, 1.0, 4)[None, :]
        grid = partial_op(kind, 1, f, sr_alpha(), (t1, t2), UNIT_RECT)
        stencil = 4 if kind is OpKind.D_RL_LEFT else 1
        assert built == [stencil * 3]
        built.clear()
        paired = partial_op(kind, 1, f, sr_alpha(), np.broadcast_arrays(t1, t2), UNIT_RECT)
        assert built == [stencil * 12] and sorts == []
        assert same_bits(paired, grid)

    @pytest.mark.parametrize("kind", [OpKind.I_LEFT, OpKind.D_RL_RIGHT, OpKind.D_CAP_LEFT])
    def test_one_point_does_not_sort(self, rule_rows, kind):
        built, sorts, _ = rule_rows
        f = random_poly2(np.random.default_rng(4)).as_smooth_fn2()
        partial_op(kind, 1, f, sr_alpha(), (0.5, 0.5), UNIT_RECT)
        left_rl_integral(lambda tau: tau, sr_alpha(), 0.0, 0.5)
        assert built == [4 if kind is OpKind.D_RL_RIGHT else 1, 1]
        assert sorts == []

    def test_distinct_points_are_not_sorted(self, rule_rows):
        # the rule is built over the points as they come
        built, sorts, _ = rule_rows
        left_rl_integral(lambda tau: tau, sr_alpha(), 0.0, np.linspace(0.1, 0.9, 9))
        assert built == [9] and sorts == []


class TestOneLoop:
    """Every kernel rule of the operators is built and integrated in _apply."""

    @pytest.fixture
    def batches(self, monkeypatch):
        """The code calling every KernelRule of the operators, and the values
        per stencil point (points x integrands x nodes) of every integrate."""
        callers, sizes = [], []

        class SpyRule(KernelRule):
            def __init__(self, *args):
                super().__init__(*args)
                callers.append(sys._getframe(1).f_code)

            def integrate(self, values):
                sizes.append(math.prod(np.broadcast(values, self.tau).shape[-3:]))
                return super().integrate(values)

        monkeypatch.setattr(operators, "KernelRule", SpyRule)
        return callers, sizes

    @pytest.mark.parametrize("kind", list(OpKind))
    def test_every_rule_is_built_in_apply(self, batches, kind):
        callers, _ = batches
        rng = np.random.default_rng(2)
        g, h = random_poly1(rng).as_smooth_fn1(), random_poly1(rng).as_smooth_fn1()
        alpha, t = sr_alpha(), np.array(grid_for(kind))
        ONE_VARIABLE[kind](lambda tau: 1.0 + tau, alpha, t)
        grid = (t[:, None], np.linspace(0.0, 1.0, 3)[None, :])
        for f in (random_poly2(rng).as_smooth_fn2(), SeparableFn2([(g, h)], UNIT_RECT)):
            partial_op(kind, 1, f, alpha, grid, UNIT_RECT)
        if kind not in (OpKind.D_RL_LEFT, OpKind.D_RL_RIGHT):
            operators.factor_op(kind, 2, SeparableFn2([(g, h)], UNIT_RECT), alpha, t, UNIT_RECT)
        # the code of every caller is a function defined in _apply's body
        assert callers and all(code in operators._apply.__code__.co_consts for code in callers)

    @pytest.mark.parametrize("kind", [OpKind.I_LEFT, OpKind.D_CAP_RIGHT])
    def test_factor_batches_count_terms(self, batches, kind):
        # 300 terms at 40 points: one point's factors alone exceed a batch
        _, sizes = batches
        rng = np.random.default_rng(6)
        polys = [random_poly1(rng).as_smooth_fn1() for _ in range(6)]
        f = SeparableFn2([(polys[k % 6], polys[(k + 1) % 6]) for k in range(300)], UNIT_RECT)
        t = np.linspace(0.0, 1.0, 40)
        assert 300 * DEFAULT_QUAD.range_nodes > operators._BATCH_NODES
        table = operators.factor_op(kind, 1, f, sr_alpha(), t, UNIT_RECT)
        assert table.shape == (300, 40)
        assert sizes and max(sizes) <= operators._BATCH_NODES
        # a term's row has the bits of the term integrated on its own
        for k in (0, 1, 299):
            one = SeparableFn2([f.terms[k]], UNIT_RECT)
            assert same_bits(table[k], operators.factor_op(kind, 1, one, sr_alpha(), t,
                                                           UNIT_RECT)[0])

    @pytest.mark.parametrize("kind", [OpKind.I_RIGHT, OpKind.D_RL_LEFT])
    def test_section_batches_stay_bounded(self, batches, kind):
        _, sizes = batches
        f = SmoothFn2(lambda t1, t2: np.cos(t1 + 2.0 * t2), check=False)
        t1, t2 = np.linspace(0.05, 1.0, 9)[:, None], np.linspace(0.0, 1.0, 300)[None, :]
        partial_op(kind, 1, f, sr_alpha(), (t1, t2), UNIT_RECT)
        assert sizes and max(sizes) <= operators._BATCH_NODES


class TestNonFinite:
    def test_nan_integrand_names_the_node(self):
        # sqrt(tau - 0.5) is NaN on [0, 0.5), which the range [0, 0.8] covers
        with np.errstate(invalid="ignore"), \
                pytest.raises(ValidityError, match=r"not finite at \(t, tau\) = \(0\.8, "):
            left_rl_integral(lambda tau: np.sqrt(tau - 0.5), sr_alpha(), 0.0, 0.8)

    def test_nan_at_one_point_of_repeated_coordinates(self):
        # on [0, 2]^2 the integrand sqrt(1 - tau * t2) is NaN only where the
        # range [0, t1] passes 1 / t2: of the four points only (1.5, 1.0),
        # whose t1 = 1.5 repeats at (1.5, 0.5)
        rect = Rect2.of(0.0, 2.0, 0.0, 2.0)
        alpha = VariableOrder(lambda t, tau: 0.4 + 0.1 * tau, rect.t1)
        f = SmoothFn2(lambda t1, t2: np.sqrt(1.0 - t1 * t2), check=False)
        grid = (np.array([0.5, 1.5])[:, None], np.array([0.5, 1.0])[None, :])
        with np.errstate(invalid="ignore"):
            with pytest.raises(ValidityError) as one:
                partial_op(OpKind.I_LEFT, 1, f, alpha, (1.5, 1.0), rect)
            with pytest.raises(ValidityError, match=r"nan is not finite at \(t, tau\) = \(1\.5, "
                               ) as batch:
                partial_op(OpKind.I_LEFT, 1, f, alpha, grid, rect)
        assert str(batch.value) == str(one.value)
        # the frozen coordinate tells (1.5, 1.0) from (1.5, 0.5)
        assert str(one.value).endswith(", t2 = 1")

    @pytest.mark.parametrize("kind", [OpKind.I_LEFT, OpKind.D_RL_LEFT])
    def test_first_nan_in_the_callers_order(self, kind):
        # along axis 2 of a (t1 column, t2 row) grid the points are evaluated
        # per t2, so (t1, t2) = (0.8, 0.2) comes before (0.2, 0.9) there; the
        # caller's order, and so the error, has (0.2, 0.9) first
        f = SmoothFn2(lambda t1, t2: np.sqrt((t2 - 0.7) * (t1 - 0.5)), check=False)
        grid = (np.array([0.2, 0.8])[:, None], np.array([0.2, 0.5, 0.9])[None, :])
        with np.errstate(invalid="ignore"):
            with pytest.raises(ValidityError) as one:
                partial_op(kind, 2, f, sr_alpha(), (0.2, 0.9), UNIT_RECT)
            with pytest.raises(ValidityError) as batch:
                partial_op(kind, 2, f, sr_alpha(), grid, UNIT_RECT)
        assert str(batch.value) == str(one.value)
        assert str(one.value).endswith(", t1 = 0.2")

    def test_exponent_outside_range_at_repeated_coordinate(self):
        # the order leaves (0, 1) for t > 0.7; of the repeated t2 values the
        # first bad one in the caller's order, 0.95, is named
        alpha = VariableOrder(lambda t, tau: 0.5 + 0.6 * (t > 0.7), UNIT, validate=False)
        f = SmoothFn2(lambda t1, t2: 1.0 + t1 * t2, check=False)
        grid = (np.array([0.2, 0.5, 0.9])[:, None], np.array([0.3, 0.95, 0.8, 0.95])[None, :])
        with pytest.raises(ValidityError) as one:
            partial_op(OpKind.I_LEFT, 2, f, alpha, (0.2, 0.95), UNIT_RECT)
        with pytest.raises(ValidityError, match=r"exponent 1\.1 outside \(0, 1\) at "
                                                r"\(t, tau\) = \(0\.95, ") as batch:
            partial_op(OpKind.I_LEFT, 2, f, alpha, grid, UNIT_RECT)
        assert str(batch.value) == str(one.value)


class TestFaultRerun:
    """A non-finite integrand value in a batched call is named by re-running
    its point alone, first in the caller's order."""

    # along axis 2 the batches run per t2, the caller's order per t1: the
    # section at t1 > 0.5 is NaN below tau = 0.7, at t1 < 0.5 above it, so
    # the first batch holds the caller's first point, clean, and a faulty one
    GRID = (np.array([0.2, 0.8, 0.3])[:, None], np.array([0.2, 0.5, 0.9, 0.95])[None, :])
    FAULTY = SmoothFn2(lambda t1, t2: np.sqrt((t2 - 0.7) * (t1 - 0.5)), check=False)

    @pytest.fixture
    def small_batches(self, monkeypatch):
        # two integrands x one point per batch: one grid row is two batches
        monkeypatch.setattr(operators, "_BATCH_NODES", 2 * DEFAULT_QUAD.range_nodes)

    @pytest.mark.parametrize("kind", [OpKind.I_LEFT, OpKind.D_CAP_LEFT, OpKind.D_RL_LEFT])
    def test_faults_in_several_batches_name_the_callers_first(self, kind, small_batches):
        with np.errstate(invalid="ignore"):
            with pytest.raises(ValidityError) as one:
                partial_op(kind, 2, self.FAULTY, sr_alpha(), (0.2, 0.9), UNIT_RECT)
            with pytest.raises(ValidityError) as batch:
                partial_op(kind, 2, self.FAULTY, sr_alpha(), self.GRID, UNIT_RECT)
        assert str(batch.value) == str(one.value)
        assert str(one.value).endswith(", t1 = 0.2")

    @pytest.mark.parametrize("kind", [OpKind.I_LEFT, OpKind.D_RL_LEFT])
    def test_a_fault_costs_one_rule_more_than_the_batches(self, kind, small_batches,
                                                          monkeypatch):
        rules = []

        class Spy(KernelRule):
            def __init__(self, *args):
                rules.append(args)
                super().__init__(*args)

        monkeypatch.setattr(operators, "KernelRule", Spy)
        clean = SmoothFn2(lambda t1, t2: 1.0 + t1 * t2, check=False)
        partial_op(kind, 2, clean, sr_alpha(), self.GRID, UNIT_RECT)
        batches = len(rules)
        rules.clear()
        with np.errstate(invalid="ignore"), pytest.raises(ValidityError):
            partial_op(kind, 2, self.FAULTY, sr_alpha(), self.GRID, UNIT_RECT)
        assert batches > 2 and len(rules) == batches + 1

    def test_factor_op_raises_the_rules_own_error(self):
        # without a rank the first batch raises at once, with no frozen coordinate
        f = SeparableFn2([(lambda s: np.sqrt(s - 0.5), lambda s: 1.0 + s)], UNIT_RECT)
        with np.errstate(invalid="ignore"):
            with pytest.raises(ValidityError) as one:
                left_rl_integral(lambda s: np.sqrt(s - 0.5), sr_alpha(), 0.0, 0.3)
            with pytest.raises(ValidityError) as table:
                operators.factor_op(OpKind.I_LEFT, 1, f, sr_alpha(), np.array([0.3, 0.8]),
                                    UNIT_RECT)
        assert str(table.value) == str(one.value)
        assert str(one.value).startswith("integrand value nan is not finite at (t, tau) = (0.3, ")


class TestBatchOnlyFault:
    """An integrand that is not finite only when evaluated with other points
    breaks the broadcast contract: its lone re-run is finite, so the batch
    raises ValidityError naming the point instead of returning NaN."""

    ALPHA = VariableOrder(lambda t, tau: 0.4 + 0.1 * t, UNIT)

    def test_one_variable(self):
        f = lambda tau: 1 + tau + (np.nan if np.shape(tau)[0] > 1 else 0.0)
        with pytest.raises(ValidityError) as exc:
            left_rl_integral(f, self.ALPHA, 0.0, np.array([0.3, 0.6]))
        assert str(exc.value) == ("integrand is not finite only when evaluated with other "
                                  "points, breaking elementwise broadcast, at t = 0.3")

    def test_partial_op_names_the_frozen_coordinate(self):
        # along axis 2 the points are the t2 rows, the frozen t1 the columns
        f = SmoothFn2(lambda t1, t2: 1 + t1 * t2 + (np.nan if np.shape(t2)[0] > 1 else 0.0),
                      check=False)
        grid = (np.array([0.2, 0.8])[:, None], np.array([0.5, 0.9])[None, :])
        with pytest.raises(ValidityError) as exc:
            partial_op(OpKind.I_LEFT, 2, f, self.ALPHA, grid, UNIT_RECT)
        assert str(exc.value).endswith("elementwise broadcast, at t = 0.5, t1 = 0.2")

    def test_an_overflow_is_returned(self):
        # finite values whose integral overflows are non-finite alone too
        alpha = VariableOrder(lambda t, tau: 0.4 + 0.0 * t, Interval(0.0, 3.0))
        with np.errstate(over="ignore"):
            values = left_rl_integral(lambda tau: 1.7e308 + 0.0 * tau, alpha, 0.0,
                                      np.array([0.1, 3.0]))
        assert np.isfinite(values[0]) and values[1] == np.inf
