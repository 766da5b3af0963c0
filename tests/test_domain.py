import numpy as np
import pytest

from varfrac import (BoundMode, ConfigurationError, DomainError, Interval,
                     Rect2, SmoothFn1, SmoothFn2, ValidityError, VariableOrder)

from conftest import UNIT, UNIT_RECT


class TestInterval:
    def test_basic(self):
        iv = Interval(-1.0, 2.0)
        assert iv.length == 3.0
        assert iv.contains(0.0) and not iv.contains(2.5)

    def test_rejects_reversed_and_nonfinite(self):
        with pytest.raises(DomainError):
            Interval(1.0, 1.0)
        with pytest.raises(DomainError):
            Interval(2.0, 1.0)
        with pytest.raises(DomainError):
            Interval(0.0, float("inf"))

    def test_interior_grid_is_interior(self):
        g = UNIT.interior_grid(7)
        assert len(g) == 7
        assert g[0] > 0.0 and g[-1] < 1.0


class TestRect2:
    def test_axis_and_area(self):
        r = Rect2.of(0.0, 2.0, 1.0, 4.0)
        assert r.axis(1).b == 2.0
        assert r.axis(2).a == 1.0
        assert r.area == 6.0
        with pytest.raises(DomainError):
            r.axis(3)


class TestVariableOrder:
    def test_plain_bounds(self):
        a = VariableOrder(lambda t, tau: 0.3 + 0.2 * tau, UNIT)
        assert a.bounds == (0.0, 1.0)
        assert a(0.0, 1.0) == pytest.approx(0.5)

    def test_mode_bounds(self):
        a = VariableOrder.constant(0.6, UNIT, l=2, bound_mode=BoundMode.ABOVE_ONE_OVER_L)
        assert a.bounds == (0.5, 1.0)
        b = VariableOrder.constant(0.4, UNIT, l=3, bound_mode=BoundMode.BELOW_ONE_MINUS)
        assert b.bounds[1] == pytest.approx(2.0 / 3.0)

    def test_violation_names_offending_point(self):
        with pytest.raises(ValidityError, match=r"alpha\("):
            VariableOrder(lambda t, tau: 0.2 + 0.9 * t, UNIT)

    def test_mode_violation(self):
        with pytest.raises(ValidityError):
            VariableOrder.constant(0.4, UNIT, l=2, bound_mode=BoundMode.ABOVE_ONE_OVER_L)
        with pytest.raises(ValidityError):
            VariableOrder.constant(0.9, UNIT, l=2, bound_mode=BoundMode.BELOW_ONE_MINUS)

    def test_l_validation(self):
        with pytest.raises(ValidityError):
            VariableOrder.constant(0.5, UNIT, l=1)

    @pytest.mark.parametrize("l", [float("nan"), float("inf"), "3"])
    def test_non_finite_or_non_numeric_l_is_a_validity_error(self, l):
        with pytest.raises(ValidityError, match=r"^bound parameter l must be an integer >= 2"):
            VariableOrder.constant(0.5, UNIT, l=l)

    def test_validate_off_allows_bad_orders(self):
        a = VariableOrder(lambda t, tau: 0.2 + 0.9 * t, UNIT, validate=False)
        assert a(1.0, 0.0) == pytest.approx(1.1)

    def test_bounds_check_has_no_grid_knob(self):
        # validate=False is the one switch: no lattice size turns the check off
        with pytest.raises(TypeError, match="validation_grid"):
            VariableOrder(lambda t, tau: 1.5 + 0.0 * t, UNIT, validation_grid=0)
        # the lattice reaches the domain's corners
        with pytest.raises(ValidityError, match=r"alpha\(1, 1\) = 1\.1"):
            VariableOrder(lambda t, tau: 0.5 + 0.6 * ((t == 1.0) & (tau == 1.0)), UNIT)

    def test_constant_broadcasts(self):
        a = VariableOrder.constant(0.5, UNIT)
        out = a(np.zeros(5), np.linspace(0, 1, 5))
        assert out.shape == (5,)
        assert np.all(out == 0.5)


class TestSmoothFn1:
    def test_consistent_derivative_passes(self):
        SmoothFn1(lambda t: t ** 3, lambda t: 3 * t ** 2, domain=UNIT)

    def test_inconsistent_derivative_raises(self):
        with pytest.raises(ValidityError):
            SmoothFn1(lambda t: t ** 3, lambda t: 2 * t, domain=UNIT)

    def test_fd_fallback(self):
        f = SmoothFn1(lambda t: np.sin(t))
        dfn, used_fd = f.derivative_callable(UNIT)
        assert used_fd
        x = np.linspace(0.1, 0.9, 5)
        assert np.max(np.abs(dfn(x) - np.cos(x))) < 1e-10

    def test_fd_fallback_calls_the_function_once(self):
        # one call on the four shifted copies, with the bits of four calls
        calls = []
        fn = lambda t: calls.append(np.shape(t)) or np.exp(np.sin(3.0 * t))
        dfn, _ = SmoothFn1(fn).derivative_callable(UNIT)
        x, step = np.linspace(0.1, 0.9, 7)[:, None] + np.zeros(3), 1e-5
        four = (fn(x - 2.0 * step) - 8.0 * fn(x - step)
                + 8.0 * fn(x + step) - fn(x + 2.0 * step)) / (12.0 * step)
        calls.clear()
        assert dfn(x).tobytes() == four.tobytes()
        assert calls == [(4, 7, 3)]

    def test_fd_fallback_disabled(self):
        f = SmoothFn1(lambda t: np.sin(t))
        with pytest.raises(ConfigurationError):
            f.derivative_callable(UNIT, allow_fd=False)

    def test_analytic_derivative_not_flagged(self):
        f = SmoothFn1(lambda t: t ** 2, lambda t: 2 * t, check=False)
        dfn, used_fd = f.derivative_callable(UNIT)
        assert not used_fd

    def test_wrap_idempotent(self):
        f = SmoothFn1(lambda t: t)
        assert SmoothFn1.wrap(f) is f


class TestSmoothFn2:
    def test_consistent_partials_pass(self):
        SmoothFn2(lambda t1, t2: t1 * t2 ** 2,
                  lambda t1, t2: t2 ** 2 + 0 * t1,
                  lambda t1, t2: 2 * t1 * t2,
                  domain=UNIT_RECT)

    def test_inconsistent_partial_raises(self):
        with pytest.raises(ValidityError):
            SmoothFn2(lambda t1, t2: t1 * t2 ** 2,
                      lambda t1, t2: t2 + 0 * t1, None, domain=UNIT_RECT)

    def test_section_freezes_coordinate(self):
        f = SmoothFn2(lambda t1, t2: t1 ** 2 + 3 * t2,
                      lambda t1, t2: 2 * t1 + 0 * t2,
                      lambda t1, t2: 3.0 + 0 * t1, check=False)
        s1 = f.section(1, 0.5)
        assert s1(2.0) == pytest.approx(4.0 + 1.5)
        assert s1.derivative(2.0) == pytest.approx(4.0)
        s2 = f.section(2, 2.0)
        assert s2(0.5) == pytest.approx(4.0 + 1.5)
        assert s2.derivative(0.25) == pytest.approx(3.0)

    def test_section_frozen_array_adds_axes(self):
        # the result takes the broadcast of the argument and the frozen array
        f = SmoothFn2(lambda t1, t2: t1 * t2)
        frozen, s = np.array([0.5, 2.0])[:, None, None], np.array([0.1, 0.2, 0.3])[None, :]
        for axis in (1, 2):
            out = f.section(axis, frozen).value(s)
            assert out.shape == (2, 1, 3)
            assert np.array_equal(out, frozen * s)
        # a constant field broadcasts to the same shape
        assert SmoothFn2(lambda t1, t2: 2.0).section(1, frozen).value(s).shape == (2, 1, 3)

    def test_section_without_partial_has_no_derivative(self):
        f = SmoothFn2(lambda t1, t2: t1 * t2)
        assert f.section(1, 0.3).derivative is None
