import numpy as np
import pytest

from varfrac import (BoundMode, DomainError, QuadConfig, SmoothFn2, ValidityError,
                     VariableOrder, boundary_contour, contour_one_form,
                     verify_green, verify_ibp)
from varfrac.identities import _probe_c1, _right_co_integral_field

from conftest import UNIT, UNIT_RECT, BubblePoly2, mpgamma, random_poly2

ZERO = SmoothFn2(lambda t1, t2: 0.0 * t1, lambda t1, t2: 0.0 * t1,
                 lambda t1, t2: 0.0 * t1, check=False)
ONE = SmoothFn2(lambda t1, t2: 1.0 + 0.0 * t1, lambda t1, t2: 0.0 * t1,
                lambda t1, t2: 0.0 * t1, check=False)


def ibp_alpha(c=None, fn=None, l=3):
    if fn is None:
        fn = lambda t, tau: c + 0.0 * t + 0.0 * tau
    return VariableOrder(fn, UNIT, l=l, bound_mode=BoundMode.ABOVE_ONE_OVER_L)


def green_alpha(c, l=3):
    return VariableOrder.constant(c, UNIT, l=l, bound_mode=BoundMode.BELOW_ONE_MINUS)


class TestVerifyIbp:
    def test_all_zero(self):
        a = ibp_alpha(0.5)
        rep = verify_ibp(ZERO, ZERO, ZERO, ZERO, a, a, UNIT_RECT, outer_grid=8)
        assert rep.lhs == 0.0 and rep.rhs == 0.0 and rep.residual == 0.0
        assert rep.converged

    def test_constant_functions_closed_form(self):
        # every side reduces to 2 * int_0^1 t^0.5 / Gamma(1.5) dt = 4 / (3 Gamma(1.5))
        a = ibp_alpha(0.5)
        rep = verify_ibp(ONE, ONE, ONE, ONE, a, a, UNIT_RECT, outer_grid=20)
        exact = 4.0 / (3.0 * mpgamma(1.5))
        assert exact == pytest.approx(1.5045055561, abs=1e-9)
        assert rep.lhs == pytest.approx(exact, abs=1e-6)
        assert rep.rhs == pytest.approx(exact, abs=1e-6)
        assert abs(rep.residual) <= 1e-6

    def test_random_polynomials_small_residual(self, rng):
        al1 = ibp_alpha(fn=lambda t, tau: 0.4 + 0.1 * t)
        al2 = ibp_alpha(fn=lambda t, tau: 0.5 + 0.1 * tau)
        fns = [random_poly2(rng).as_smooth_fn2() for _ in range(4)]
        rep = verify_ibp(fns[0], fns[1], fns[2], fns[3], al1, al2, UNIT_RECT,
                         outer_grid=24)
        assert abs(rep.residual) <= 1e-5
        assert rep.converged

    def test_bound_mode_gate(self):
        plain = VariableOrder.constant(0.5, UNIT)
        good = ibp_alpha(0.5)
        with pytest.raises(ValidityError, match="above_one_over_l"):
            verify_ibp(ONE, ONE, ONE, ONE, plain, good, UNIT_RECT)

    def test_axis_swap_symmetry(self, rng):
        al1 = ibp_alpha(fn=lambda t, tau: 0.4 + 0.1 * t)
        al2 = ibp_alpha(fn=lambda t, tau: 0.5 + 0.1 * tau)
        f, g, e1, e2 = (random_poly2(rng) for _ in range(4))
        swap = lambda p: SmoothFn2(lambda t1, t2: p(t2, t1), check=False)
        rep = verify_ibp(f.as_smooth_fn2(), g.as_smooth_fn2(),
                         e1.as_smooth_fn2(), e2.as_smooth_fn2(),
                         al1, al2, UNIT_RECT, outer_grid=12)
        rep_swapped = verify_ibp(swap(g), swap(f), swap(e2), swap(e1),
                                 al2, al1, UNIT_RECT, outer_grid=12)
        assert rep_swapped.residual == pytest.approx(rep.residual, abs=1e-10)

    def test_report_json_fields(self):
        a = ibp_alpha(0.5)
        rep = verify_ibp(ZERO, ZERO, ZERO, ZERO, a, a, UNIT_RECT, outer_grid=8)
        d = rep.to_json_dict()
        assert list(d.keys()) == ["lhs", "rhs", "residual", "outer_grid", "panels",
                                  "nodes_per_panel", "grading", "converged"]

    def test_non_integer_outer_grid_rejected(self):
        a = ibp_alpha(0.5)
        with pytest.raises(DomainError, match="integer n >= 1, got 2.5"):
            verify_ibp(ZERO, ZERO, ZERO, ZERO, a, a, UNIT_RECT, outer_grid=2.5)


class TestContour:
    def test_zero_trace_eta_kills_contour(self):
        bubble = SmoothFn2(lambda t1, t2: t1 * (1 - t1) * t2 * (1 - t2), check=False)
        a = green_alpha(0.4)
        v = boundary_contour(bubble, ONE, ONE, a, a, UNIT_RECT)
        assert v == pytest.approx(0.0, abs=1e-12)

    def test_zero_fields(self):
        a = green_alpha(0.4)
        assert boundary_contour(ONE, ZERO, ZERO, a, a, UNIT_RECT) == 0.0

    def test_sign_pinning_hand_value(self):
        # f = 0, g = 1, eta = 1, alpha1 = 0.5 on [0,1]^2.  Hand evaluation of
        # the counterclockwise decomposition: the right edge integrand
        # vanishes (empty inner range at t1 = b1); the left edge carries the
        # full-width inner integral 1^{0.5}/Gamma(1.5) traversed downward,
        # so the contour equals -1/Gamma(1.5).
        a = VariableOrder.constant(0.5, UNIT, l=3, bound_mode=BoundMode.BELOW_ONE_MINUS)
        v = boundary_contour(ONE, ONE, ZERO, a, a, UNIT_RECT)
        assert v == pytest.approx(-1.0 / mpgamma(1.5), rel=1e-9)

    def test_constant_one_form_is_closed(self, rng):
        # exactness of constant forms on a closed rectangle contour
        c1, c2 = rng.uniform(-5, 5, 2)
        v = contour_one_form(lambda t1, t2: c2, lambda t1, t2: c1, UNIT_RECT)
        assert v == pytest.approx(0.0, abs=1e-12)

    def test_nonrectangular_exact_form(self):
        # P = t2, Q = 0: contour = -area (classical Green check of orientation)
        v = contour_one_form(lambda t1, t2: t2, lambda t1, t2: 0.0, UNIT_RECT)
        assert v == pytest.approx(-1.0, abs=1e-12)


class TestVerifyGreen:
    def test_constant_eta_forces_cancellation(self, rng):
        # LHS = 0 exactly; area and contour terms must cancel to ~1e-5
        a = green_alpha(0.4)
        f = random_poly2(rng).as_smooth_fn2()
        g = random_poly2(rng).as_smooth_fn2()
        rep = verify_green(f, g, ONE, a, a, UNIT_RECT, outer_grid=20)
        assert rep.lhs == 0.0
        assert abs(rep.rhs) <= 1e-5
        assert abs(rep.residual) <= 1e-5

    def test_zero_trace_eta_random_polynomials(self, rng):
        a = green_alpha(0.4)
        eta = BubblePoly2(random_poly2(rng, deg=2)).as_smooth_fn2()
        f = random_poly2(rng, deg=2).as_smooth_fn2()
        g = random_poly2(rng, deg=2).as_smooth_fn2()
        rep = verify_green(f, g, eta, a, a, UNIT_RECT, outer_grid=20)
        assert abs(rep.residual) <= 1e-4
        assert rep.converged

    def test_zero_functions(self):
        a = green_alpha(0.4)
        rep = verify_green(ZERO, ZERO, ZERO, a, a, UNIT_RECT, outer_grid=8)
        assert rep.residual == 0.0

    def test_bound_mode_gate(self):
        bad = VariableOrder.constant(0.4, UNIT)  # plain mode
        good = green_alpha(0.4)
        with pytest.raises(ValidityError, match="below_one_minus"):
            verify_green(ONE, ONE, ZERO, bad, good, UNIT_RECT)

    def test_refinement_reduces_residual(self, rng):
        a = green_alpha(0.4)
        eta = BubblePoly2(random_poly2(rng, deg=2)).as_smooth_fn2()
        f = random_poly2(rng, deg=2).as_smooth_fn2()
        g = random_poly2(rng, deg=2).as_smooth_fn2()
        r16 = verify_green(f, g, eta, a, a, UNIT_RECT, outer_grid=16,
                           cfg=QuadConfig(panels=16), probe=False)
        r32 = verify_green(f, g, eta, a, a, UNIT_RECT, outer_grid=32,
                           cfg=QuadConfig(panels=32), probe=False)
        assert (abs(r16.residual) < 1e-9
                or abs(r32.residual) <= abs(r16.residual) / 2.0
                or abs(r32.residual) < 1e-9)

    def test_axis_swap_symmetry(self, rng):
        a1 = green_alpha(0.35)
        a2 = green_alpha(0.45)
        f, g = random_poly2(rng, deg=2), random_poly2(rng, deg=2)
        eta = BubblePoly2(random_poly2(rng, deg=1))
        swap = lambda p: SmoothFn2(lambda t1, t2: p(t2, t1), check=False)
        eta_fn = eta.as_smooth_fn2()
        eta_sw = SmoothFn2(lambda t1, t2: eta.value(t2, t1),
                           lambda t1, t2: eta.d2(t2, t1),
                           lambda t1, t2: eta.d1(t2, t1), check=False)
        rep = verify_green(f.as_smooth_fn2(), g.as_smooth_fn2(), eta_fn,
                           a1, a2, UNIT_RECT, outer_grid=10, probe=False)
        rep_sw = verify_green(swap(g), swap(f), eta_sw, a2, a1, UNIT_RECT,
                              outer_grid=10, probe=False)
        assert rep_sw.residual == pytest.approx(rep.residual, abs=1e-10)


class TestProbe:
    def test_nan_field_rejected(self):
        with pytest.raises(ValidityError, match="not finite"):
            _probe_c1(lambda t1, t2: float("nan"), UNIT_RECT, "test field")

    def test_one_call_on_whole_probe_grid(self):
        shapes = []

        def field(t1, t2):
            shapes.append((np.shape(t1), np.shape(t2)))
            return t1 + t2

        _probe_c1(field, UNIT_RECT, "test field")
        assert shapes == [((16, 1), (1, 16))]

    def test_right_co_integral_field_empty_at_b(self):
        a = green_alpha(0.4)
        field = _right_co_integral_field(ONE, a, 1, UNIT_RECT, QuadConfig())
        assert field(1.0, 0.5) == 0.0
        assert field(0.0, 0.5) == pytest.approx(1.0 / mpgamma(1.6), rel=1e-9)
