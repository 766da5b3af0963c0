import numpy as np
import pytest

from varfrac import (DEFAULT_QUAD, BoundaryData, BoundMode, DomainError,
                     Lagrangian, OpKind, QuadConfig, Rect2, RitzExpansion, SmoothFn2,
                     ValidityError, VariableOrder, clustered_gl, el_residual,
                     fd_gradient, first_variation, functional_eval, partial_op,
                     ritz_solve, string_action)
from varfrac import operators, variational
from varfrac.domain import SeparableFn2
from varfrac.quadrature import KernelRule
from varfrac.variational import _composed_slot_fields, _ritz_objective, _ritz_tables

from conftest import UNIT, UNIT_RECT, BubblePoly2, mpgamma, random_poly2

A04 = VariableOrder.constant(0.4, UNIT, l=3, bound_mode=BoundMode.BELOW_ONE_MINUS)
A05 = VariableOrder.constant(0.5, UNIT)

L_VALUE_SLOT = Lagrangian(lambda t1, t2, u, d1, d2: u,
                          lambda t1, t2, u, d1, d2: 1.0 + 0.0 * u,
                          lambda t1, t2, u, d1, d2: 0.0 * u,
                          lambda t1, t2, u, d1, d2: 0.0 * u, check=False)

U_CONST = SmoothFn2(lambda t1, t2: 1.0 + 0.0 * t1, lambda t1, t2: 0.0 * t1,
                    lambda t1, t2: 0.0 * t1, check=False)
U_ZERO = SmoothFn2(lambda t1, t2: 0.0 * t1, lambda t1, t2: 0.0 * t1,
                   lambda t1, t2: 0.0 * t1, check=False)


def bubble_eta():
    return SmoothFn2(lambda t1, t2: t1 * (1 - t1) * t2 * (1 - t2),
                     lambda t1, t2: (1 - 2 * t1) * t2 * (1 - t2),
                     lambda t1, t2: t1 * (1 - t1) * (1 - 2 * t2), check=False)


class TestLagrangian:
    def test_consistent_partials_pass(self):
        Lagrangian(lambda t1, t2, u, d1, d2: u ** 2 + t1 * d1 + d2 ** 2,
                   lambda t1, t2, u, d1, d2: 2 * u,
                   lambda t1, t2, u, d1, d2: t1 + 0 * d1,
                   lambda t1, t2, u, d1, d2: 2 * d2)

    def test_wrong_partial_rejected(self):
        with pytest.raises(ValidityError, match="dL/dd1"):
            Lagrangian(lambda t1, t2, u, d1, d2: u ** 2 + d1 ** 2,
                       lambda t1, t2, u, d1, d2: 2 * u,
                       lambda t1, t2, u, d1, d2: d1,  # missing factor 2
                       lambda t1, t2, u, d1, d2: 0 * d2)

    @staticmethod
    def curved(du_scale=1.0):
        return Lagrangian(lambda t1, t2, u, d1, d2: np.exp(3 * u) + t1 * np.sin(d1) + d2 ** 4,
                          lambda t1, t2, u, d1, d2: du_scale * 3 * np.exp(3 * u),
                          lambda t1, t2, u, d1, d2: t1 * np.cos(d1),
                          lambda t1, t2, u, d1, d2: 4 * d2 ** 3)

    def test_strongly_curved_exact_partials_pass(self):
        self.curved()

    def test_partial_off_by_1e4_relative_rejected(self):
        with pytest.raises(ValidityError, match="dL/du"):
            self.curved(1.0 + 1e-4)

    def test_string_requires_positive_tension(self):
        with pytest.raises(DomainError):
            Lagrangian.string(lambda x: 1.0, 0.0)


class TestBoundaryData:
    def test_corner_compatibility_enforced(self):
        with pytest.raises(ValidityError, match="corner"):
            BoundaryData(lambda s: s, lambda s: 5.0 + 0 * s,
                         lambda s: s, lambda s: 0.0 * s, UNIT_RECT)

    def test_nonfinite_corner_rejected(self):
        # NaN compares false, so it must not slip through the corner tolerance
        with pytest.raises(ValidityError, match="not finite at corner"):
            BoundaryData.constant(float("nan"), UNIT_RECT)
        with np.errstate(divide="ignore"), \
                pytest.raises(ValidityError, match="not finite at corner"):
            BoundaryData(lambda s: 0.0 * s, lambda s: 0.0 * s, lambda s: 0.0 * s,
                         lambda s: np.log(s), UNIT_RECT)  # -inf at (a1, a2)

    def test_constant_lift_is_exact(self):
        psi = BoundaryData.constant(2.5, UNIT_RECT)
        lift = psi.lift()
        pts = np.linspace(0.1, 0.9, 5)
        assert np.allclose(lift(pts, pts[::-1]), 2.5, atol=1e-14)
        assert np.allclose(lift.d_t1(pts, pts), 0.0, atol=1e-12)

    def test_lift_matches_edges(self):
        # psi from the trace of a smooth function: the lift agrees on all edges
        fn = SmoothFn2(lambda t1, t2: np.sin(t1) + t2 ** 2 + t1 * t2, check=False)
        psi = BoundaryData.from_function(fn, UNIT_RECT)
        lift = psi.lift()
        s = np.linspace(0.0, 1.0, 9)
        assert np.allclose(lift(s, 0.0 * s), fn(s, 0.0 * s), atol=1e-12)
        assert np.allclose(lift(s, 1.0 + 0 * s), fn(s, 1.0 + 0 * s), atol=1e-12)
        assert np.allclose(lift(0.0 * s, s), fn(0.0 * s, s), atol=1e-12)
        assert np.allclose(lift(1.0 + 0 * s, s), fn(1.0 + 0 * s, s), atol=1e-12)

    def test_lift_partials_consistent(self):
        fn = SmoothFn2(lambda t1, t2: np.sin(t1) + t2 ** 2 + t1 * t2, check=False)
        lift = BoundaryData.from_function(fn, UNIT_RECT).lift()
        # validated by the SmoothFn2 constructor check
        SmoothFn2(lift.value, lift.d_t1, lift.d_t2, domain=UNIT_RECT)

    def test_from_function_keeps_analytic_partials(self):
        # along each edge the lift's tangential partial is the edge's
        # derivative, here fn's own partial rather than a finite difference
        rect = Rect2.of(-0.3, 0.9, 0.2, 1.5)
        fn = SmoothFn2(lambda t1, t2: np.exp(t1) * np.sin(3.0 * t2),
                       lambda t1, t2: np.exp(t1) * np.sin(3.0 * t2),
                       lambda t1, t2: 3.0 * np.exp(t1) * np.cos(3.0 * t2), domain=rect)
        lift = BoundaryData.from_function(fn, rect).lift()
        s1, s2 = np.linspace(-0.3, 0.9, 13), np.linspace(0.2, 1.5, 13)
        for c in (0.2, 1.5):
            assert np.max(np.abs(lift.d_t1(s1, c) - fn.d_t1(s1, c))) <= 1e-14
        for c in (-0.3, 0.9):
            assert np.max(np.abs(lift.d_t2(c, s2) - fn.d_t2(c, s2))) <= 1e-14

    def test_zero_trace_tabulates_to_exact_zeros(self):
        rect = Rect2.of(-0.3, 0.9, 0.2, 1.5)
        alpha1, alpha2 = VariableOrder.constant(0.4, rect.t1), VariableOrder.constant(0.3, rect.t2)
        exp = RitzExpansion.zero(BoundaryData.zero(rect), 2)
        _, _, _, U0, D10, D20, *_ = _ritz_tables(exp, alpha1, alpha2, rect, 8, DEFAULT_QUAD)
        for table in (U0, D10, D20):
            assert table.shape == (64,) and np.all(table == 0.0)


class TestRitzExpansion:
    def test_modes_vanish_on_boundary(self):
        exp = RitzExpansion.zero(BoundaryData.zero(UNIT_RECT), 3)
        exp = exp.with_coeffs(np.arange(1.0, 10.0))
        s = np.linspace(0.0, 1.0, 13)
        for edge_vals in (exp.value(s, 0 * s), exp.value(s, 1 + 0 * s),
                          exp.value(0 * s, s), exp.value(1 + 0 * s, s)):
            assert np.max(np.abs(edge_vals)) <= 1e-13

    def test_boundary_trace_matched_with_lift(self):
        fn = SmoothFn2(lambda t1, t2: t1 + 2 * t2, check=False)
        psi = BoundaryData.from_function(fn, UNIT_RECT)
        exp = RitzExpansion.zero(psi, 2).with_coeffs([0.3, -0.2, 0.1, 0.4])
        s = np.linspace(0.0, 1.0, 9)
        assert np.allclose(exp.value(s, 0 * s), fn(s, 0 * s), atol=1e-12)
        assert np.allclose(exp.value(1 + 0 * s, s), fn(1 + 0 * s, s), atol=1e-12)

    def test_mode_fn_partials_consistent(self):
        exp = RitzExpansion.zero(BoundaryData.zero(UNIT_RECT), 2)
        mode = exp.mode_fn(3)
        SmoothFn2(mode.value, mode.d_t1, mode.d_t2, domain=UNIT_RECT)

    def test_coefficient_count_validated(self):
        psi = BoundaryData.zero(UNIT_RECT)
        with pytest.raises(DomainError):
            RitzExpansion(psi.lift(), 2, [1.0], UNIT_RECT)
        with pytest.raises(TypeError, match="SeparableFn2"):
            RitzExpansion(U_ZERO, 1, [1.0], UNIT_RECT)

    @pytest.mark.parametrize("n", [0, -1, 2.5])
    def test_n_per_axis_must_be_a_positive_integer(self, n):
        psi = BoundaryData.zero(UNIT_RECT)
        with pytest.raises(DomainError, match=f"n_per_axis must be a positive integer, got {n}"):
            RitzExpansion(psi.lift(), n, [1.0], UNIT_RECT)
        with pytest.raises(DomainError, match=f"n_per_axis must be a positive integer, got {n}"):
            RitzExpansion.zero(psi, n)


class TestFunctionalEval:
    def test_area_of_one(self):
        v = functional_eval(L_VALUE_SLOT, U_CONST, A05, A05, UNIT_RECT, 12)
        assert v == pytest.approx(1.0, abs=1e-12)

    def test_non_integer_outer_grid_rejected(self):
        with pytest.raises(DomainError, match="integer n >= 1, got 2.5"):
            functional_eval(L_VALUE_SLOT, U_CONST, A05, A05, UNIT_RECT, 2.5)

    def test_dirichlet_energy_of_constant_is_zero(self):
        v = functional_eval(Lagrangian.dirichlet(), U_CONST, A05, A05, UNIT_RECT, 10)
        assert v == pytest.approx(0.0, abs=1e-14)

    def test_caputo_slot_closed_form(self):
        # L = d1, u = t1, alpha = 0.5: J = int t1^0.5 / Gamma(1.5) = (2/3)/Gamma(1.5)
        L = Lagrangian(lambda t1, t2, u, d1, d2: d1,
                       lambda t1, t2, u, d1, d2: 0.0 * u,
                       lambda t1, t2, u, d1, d2: 1.0 + 0.0 * u,
                       lambda t1, t2, u, d1, d2: 0.0 * u, check=False)
        u = SmoothFn2(lambda t1, t2: t1 + 0.0 * t2, lambda t1, t2: 1.0 + 0 * t1,
                      lambda t1, t2: 0.0 * t1, check=False)
        v = functional_eval(L, u, A05, A05, UNIT_RECT, 16)
        exact = (2.0 / 3.0) / mpgamma(1.5)
        assert exact == pytest.approx(0.7522527781, abs=1e-9)
        assert v == pytest.approx(exact, rel=1e-9)

    def test_nonfinite_lagrangian_names_node(self):
        L = Lagrangian(lambda t1, t2, u, d1, d2: np.sqrt(t1 - 0.5) + u,
                       lambda t1, t2, u, d1, d2: 1.0 + 0.0 * u,
                       lambda t1, t2, u, d1, d2: 0.0 * u,
                       lambda t1, t2, u, d1, d2: 0.0 * u, check=False)
        with np.errstate(invalid="ignore"), \
                pytest.raises(ValidityError, match=r"nan is not finite at \(t1, t2\)"):
            functional_eval(L, U_CONST, A05, A05, UNIT_RECT, 8)


class TestStringAction:
    def test_zero_and_constant_displacements(self):
        assert string_action(lambda x: 1.0, 1.0, U_ZERO, A05, A05, UNIT_RECT, 8) == \
            pytest.approx(0.0, abs=1e-14)
        assert string_action(lambda x: 1.0, 1.0, U_CONST, A05, A05, UNIT_RECT, 8) == \
            pytest.approx(0.0, abs=1e-14)

    def test_linear_space_profile(self):
        # u = x (axis 2), sigma = 1, tension = 1: J = 2/pi
        u = SmoothFn2(lambda t1, t2: t2 + 0.0 * t1, lambda t1, t2: 0.0 * t1,
                      lambda t1, t2: 1.0 + 0.0 * t1, check=False)
        v = string_action(lambda x: 1.0, 1.0, u, A05, A05, UNIT_RECT, 16)
        assert v == pytest.approx(2.0 / np.pi, rel=1e-9)
        assert 2.0 / np.pi == pytest.approx(0.6366197724, abs=1e-9)

    def test_rejects_bad_sigma_and_tension(self):
        with pytest.raises(DomainError):
            string_action(lambda x: 1.0, -1.0, U_ZERO, A05, A05, UNIT_RECT, 8)
        with pytest.raises(DomainError):
            string_action(lambda x: x - 0.5, 1.0, U_ZERO, A05, A05, UNIT_RECT, 8)


class TestElResidual:
    def test_dirichlet_constant_solution_zero_residual(self):
        rep = el_residual(Lagrangian.dirichlet(), U_CONST, A04, A04, UNIT_RECT,
                          point_grid=3)
        assert np.max(np.abs(rep.values)) <= 1e-8
        assert rep.l2 <= 1e-8

    def test_value_slot_gives_unit_residual(self):
        rep = el_residual(L_VALUE_SLOT, U_CONST, A04, A04, UNIT_RECT, point_grid=3)
        assert np.allclose(rep.values, 1.0, atol=1e-10)

    def test_quadratic_value_zero_function(self):
        L = Lagrangian(lambda t1, t2, u, d1, d2: u ** 2,
                       lambda t1, t2, u, d1, d2: 2.0 * u,
                       lambda t1, t2, u, d1, d2: 0.0 * u,
                       lambda t1, t2, u, d1, d2: 0.0 * u, check=False)
        rep = el_residual(L, U_ZERO, A04, A04, UNIT_RECT, point_grid=3)
        assert np.max(np.abs(rep.values)) <= 1e-12

    @pytest.mark.parametrize("point_grid", [0, -2, 2.5])
    def test_point_grid_not_positive_integer_rejected(self, point_grid):
        with pytest.raises(DomainError, match=f"positive integer, got {point_grid}"):
            el_residual(Lagrangian.dirichlet(), U_CONST, A04, A04, UNIT_RECT,
                        point_grid=point_grid)

    def test_whole_grid_equals_row_by_row(self):
        # non-unit rectangle, (t, tau)-varying orders, a nonzero lift and modes
        rect, a1, a2, fn = _TABLE_CASES["varying_nonunit"]
        alpha1, alpha2 = VariableOrder(a1, rect.t1), VariableOrder(a2, rect.t2)
        u = RitzExpansion.zero(BoundaryData.from_function(fn, rect), 2).with_coeffs(
            [0.3, -0.2, 0.1, 0.25])
        L = Lagrangian(
            lambda t1, t2, u, d1, d2: d1 ** 2 + 0.5 * d2 ** 2 + 0.2 * u ** 4 + t1 * u,
            lambda t1, t2, u, d1, d2: 0.8 * u ** 3 + t1,
            lambda t1, t2, u, d1, d2: 2.0 * d1,
            lambda t1, t2, u, d1, d2: d2 + 0.0 * t2, rect=rect)
        cfg = QuadConfig(panels=6, nodes_per_panel=4)
        rep = el_residual(L, u, alpha1, alpha2, rect, point_grid=3, cfg=cfg)

        # reference: one outer-grid row per call
        f_u, f_d1, f_d2 = _composed_slot_fields(L, u, alpha1, alpha2, rect, cfg)
        g2 = rect.t2.interior_grid(3)
        ref = np.vstack([
            f_u(t1, g2)
            + partial_op(OpKind.D_RL_RIGHT, 1, f_d1, alpha1, (t1, g2), rect, cfg)
            + partial_op(OpKind.D_RL_RIGHT, 2, f_d2, alpha2, (t1, g2), rect, cfg)
            for t1 in rect.t1.interior_grid(3)])
        assert np.max(np.abs(ref)) > 0.1
        assert np.array_equal(rep.values, ref)


class TestFirstVariation:
    def test_zero_variation(self):
        v = first_variation(Lagrangian.quadratic(), U_CONST, U_ZERO, A04, A04,
                            UNIT_RECT, 10)
        assert v == pytest.approx(0.0, abs=1e-14)

    def test_value_slot_bubble(self):
        # L = u: FV = integral of eta = 1/36 for the bubble
        v = first_variation(L_VALUE_SLOT, U_CONST, bubble_eta(), A04, A04,
                            UNIT_RECT, 16)
        assert v == pytest.approx(1.0 / 36.0, rel=1e-9)

    def test_nonzero_trace_rejected(self):
        with pytest.raises(ValidityError, match="vanish"):
            first_variation(L_VALUE_SLOT, U_CONST, U_CONST, A04, A04, UNIT_RECT, 8)

    def test_matches_central_difference_of_functional(self, rng):
        # 10 random (L, u, eta) polynomial instances
        for _ in range(10):
            c = rng.uniform(-1.0, 1.0, 6)
            L = Lagrangian(
                lambda t1, t2, u, d1, d2, c=c: (c[0] * u + c[1] * d1 + c[2] * d2
                                                + c[3] * u ** 2 + c[4] * d1 ** 2
                                                + c[5] * d2 ** 2),
                lambda t1, t2, u, d1, d2, c=c: c[0] + 2 * c[3] * u,
                lambda t1, t2, u, d1, d2, c=c: c[1] + 2 * c[4] * d1,
                lambda t1, t2, u, d1, d2, c=c: c[2] + 2 * c[5] * d2, check=False)
            u = random_poly2(rng, deg=2).as_smooth_fn2()
            eta = BubblePoly2(random_poly2(rng, deg=1)).as_smooth_fn2()
            outer = 10
            fv = first_variation(L, u, eta, A04, A04, UNIT_RECT, outer)
            eps = 1e-5

            def shifted(sign):
                us = SmoothFn2(
                    lambda t1, t2: u(t1, t2) + sign * eps * eta(t1, t2),
                    lambda t1, t2: u.d_t1(t1, t2) + sign * eps * eta.d_t1(t1, t2),
                    lambda t1, t2: u.d_t2(t1, t2) + sign * eps * eta.d_t2(t1, t2),
                    check=False)
                return functional_eval(L, us, A04, A04, UNIT_RECT, outer)

            fd = (shifted(+1) - shifted(-1)) / (2 * eps)
            assert fv == pytest.approx(fd, rel=1e-6, abs=1e-9)


class TestSlots:
    """L's arguments along u are built once per integrand call: one outer
    grid costs one Caputo partial per axis and field."""

    @pytest.fixture
    def calls(self, monkeypatch):
        calls = []

        def spy(kind, axis, f, alpha, p, *args):
            calls.append((kind, axis, f, np.broadcast(*p).shape))
            return partial_op(kind, axis, f, alpha, p, *args)

        monkeypatch.setattr(variational, "partial_op", spy)
        return calls

    def test_functional_eval_takes_two_partials(self, calls):
        u = SmoothFn2(lambda t1, t2: t1 * t2 + t2 ** 2, check=False)
        functional_eval(Lagrangian.quadratic(), u, A04, A05, UNIT_RECT, 6)
        assert calls == [(OpKind.D_CAP_LEFT, 1, u, (6, 6)), (OpKind.D_CAP_LEFT, 2, u, (6, 6))]

    def test_first_variation_takes_four_partials(self, calls):
        eta = bubble_eta()
        first_variation(Lagrangian.quadratic(), U_CONST, eta, A04, A05, UNIT_RECT, 6)
        assert [(axis, f, shape) for _, axis, f, shape in calls] == [
            (1, U_CONST, (6, 6)), (2, U_CONST, (6, 6)), (1, eta, (6, 6)), (2, eta, (6, 6))]


class TestRitzSolve:
    def test_trivial_nonnegative_functional(self):
        rep = ritz_solve(Lagrangian.dirichlet(), BoundaryData.zero(UNIT_RECT),
                         A04, A04, UNIT_RECT, n_modes=2, outer_grid=10, el_grid=0)
        assert rep.converged
        assert rep.J_value == pytest.approx(0.0, abs=1e-12)
        assert np.max(np.abs(rep.coeffs)) <= 1e-10

    def test_convex_instance_descends_from_nonzero_start(self, rng):
        start = rng.uniform(-0.3, 0.3, 4)
        rep = ritz_solve(Lagrangian.quadratic(), BoundaryData.zero(UNIT_RECT),
                         A04, A04, UNIT_RECT, n_modes=2, outer_grid=10,
                         opt_tol=1e-8, el_grid=0, coeffs0=start)
        assert rep.converged
        assert rep.gradient_norm <= 1e-8
        assert np.max(np.abs(rep.coeffs)) <= 1e-6
        assert not rep.nonconvex_flag

    def test_gradient_richardson_consistency(self, rng):
        # finite-difference gradient of J is step-size stable (1e-5 relative)
        exp = RitzExpansion.zero(BoundaryData.zero(UNIT_RECT), 2)
        L = Lagrangian.quadratic()

        def J(c):
            return functional_eval(L, exp.with_coeffs(c), A04, A04, UNIT_RECT, 8)

        c = rng.uniform(-0.5, 0.5, 4)
        g_full = fd_gradient(J, c, rel_step=1e-5)
        g_half = fd_gradient(J, c, rel_step=5e-6)
        assert np.max(np.abs(g_full - g_half) / np.maximum(1.0, np.abs(g_full))) <= 1e-5

    def test_stationarity_against_first_variation(self, rng):
        outer = 10
        rep = ritz_solve(Lagrangian.quadratic(), BoundaryData.zero(UNIT_RECT),
                         A04, A04, UNIT_RECT, n_modes=2, outer_grid=outer,
                         opt_tol=1e-8, el_grid=0,
                         coeffs0=rng.uniform(-0.2, 0.2, 4))
        sol = rep.expansion
        for b in range(len(sol.modes)):
            fv = first_variation(Lagrangian.quadratic(), sol, sol.mode_fn(b),
                                 A04, A04, UNIT_RECT, outer)
            assert abs(fv) <= 10 * 1e-8 + 1e-9

    def test_string_reports_flag_or_convergence(self, rng):
        rep = ritz_solve(Lagrangian.string(lambda x: 1.0, 1.0),
                         BoundaryData.zero(UNIT_RECT), A04, A04, UNIT_RECT,
                         n_modes=2, outer_grid=8, max_iter=30, el_grid=0,
                         coeffs0=rng.uniform(-0.5, 0.5, 4))
        assert rep.nonconvex_flag or rep.converged

    def test_report_json_fields(self):
        rep = ritz_solve(Lagrangian.dirichlet(), BoundaryData.zero(UNIT_RECT),
                         A04, A04, UNIT_RECT, n_modes=1, outer_grid=8, el_grid=0)
        d = rep.to_json_dict()
        assert list(d.keys()) == ["coeffs", "J_value", "el_residual_l2",
                                  "gradient_norm", "iterations", "nonconvex_flag"]
        assert d["el_residual_l2"] is None  # el_grid = 0 skips the residual

    @pytest.mark.parametrize("el_grid", [-2, 2.5])
    def test_el_grid_must_be_a_non_negative_integer(self, el_grid):
        # rejected before any work, as el_residual rejects such a point_grid
        with pytest.raises(DomainError, match="el_grid must be a non-negative integer"):
            ritz_solve(Lagrangian.dirichlet(), BoundaryData.zero(UNIT_RECT),
                       A04, A04, UNIT_RECT, n_modes=1, outer_grid=8, el_grid=el_grid)

    @pytest.mark.parametrize("n_modes", [0, 2.5, float("nan")])
    def test_n_modes_must_be_a_positive_integer(self, n_modes, monkeypatch):
        # rejected before any work: no table is built
        monkeypatch.setattr(variational, "_ritz_tables", lambda *args: pytest.fail("tables"))
        with pytest.raises(DomainError, match=f"positive integer, got {n_modes}"):
            ritz_solve(Lagrangian.dirichlet(), BoundaryData.zero(UNIT_RECT),
                       A04, A04, UNIT_RECT, n_modes=n_modes, outer_grid=8, el_grid=0)

    def test_non_integer_outer_grid_rejected(self):
        with pytest.raises(DomainError, match="integer n >= 1, got 2.5"):
            ritz_solve(Lagrangian.dirichlet(), BoundaryData.zero(UNIT_RECT),
                       A04, A04, UNIT_RECT, n_modes=1, outer_grid=2.5, el_grid=0)

    def test_nonzero_boundary_constant(self):
        # psi = 2: u = 2 is admissible; Dirichlet energy minimized at c = 0
        psi = BoundaryData.constant(2.0, UNIT_RECT)
        rep = ritz_solve(Lagrangian.dirichlet(), psi, A04, A04, UNIT_RECT,
                         n_modes=2, outer_grid=10, el_grid=0)
        assert rep.converged
        assert rep.J_value == pytest.approx(0.0, abs=1e-10)
        assert np.max(np.abs(rep.coeffs)) <= 1e-8

    def test_mode_nesting_decreases_functional(self):
        # tensor mode sets are nested, so the minimum value of J cannot
        # increase with the per-axis mode count.  Recorded alongside: the
        # pointwise stationarity residual for nonzero-trace data does NOT
        # shrink at these mode counts (fractional edge effects dominate the
        # differentiated truncated sine series), so only J is asserted.
        fn = SmoothFn2(lambda t1, t2: t1 + 2 * t2, check=False)
        psi = BoundaryData.from_function(fn, UNIT_RECT)
        values = []
        for n in (2, 4, 6):
            rep = ritz_solve(Lagrangian.quadratic(), psi, A04, A04, UNIT_RECT,
                             n_modes=n, outer_grid=12, opt_tol=1e-8,
                             max_iter=300, el_grid=0)
            assert rep.converged
            values.append(rep.J_value)
        assert values[0] >= values[1] >= values[2]


# (rect, alpha1, alpha2, boundary function): constant and (t, tau)-varying
# orders, the unit and a non-unit rectangle, each with a nonzero lift
_TABLE_CASES = {
    "constant_unit": (UNIT_RECT, lambda t, tau: 0.4 + 0.0 * t + 0.0 * tau,
                      lambda t, tau: 0.3 + 0.0 * t + 0.0 * tau,
                      lambda t1, t2: t1 + 2.0 * t2 + t1 * t2),
    "varying_nonunit": (Rect2.of(-0.3, 0.9, 0.2, 1.5),
                        lambda t, tau: 0.35 + 0.1 * t - 0.05 * tau,
                        lambda t, tau: 0.3 + 0.1 * t * tau,
                        lambda t1, t2: 1.0 + np.sin(t1) + t2 ** 2 + t1 * t2),
}


def _table_problem(name, n_modes=2, outer=9):
    rect, a1, a2, fn = _TABLE_CASES[name]
    alpha1, alpha2 = VariableOrder(a1, rect.t1), VariableOrder(a2, rect.t2)
    psi = BoundaryData.from_function(fn, rect)
    exp = RitzExpansion.zero(psi, n_modes)
    tables = _ritz_tables(exp, alpha1, alpha2, rect, outer, DEFAULT_QUAD)
    return rect, alpha1, alpha2, exp, tables


class TestRitzTables:
    @pytest.mark.parametrize("name", sorted(_TABLE_CASES))
    def test_columns_match_partial_op(self, name):
        outer = 9
        rect, alpha1, alpha2, exp, tables = _table_problem(name, outer=outer)
        T1, T2, W, U0, D10, D20, PHI, D1PHI, D2PHI = tables
        t1n, _ = clustered_gl(rect.t1.a, rect.t1.b, outer)
        t2n, _ = clustered_gl(rect.t2.a, rect.t2.b, outer)
        fns = [(exp.mode_fn(b), PHI[:, b], D1PHI[:, b], D2PHI[:, b])
               for b in range(len(exp.modes))]
        fns.append((exp.boundary_lift, U0, D10, D20))
        for fn, u, d1, d2 in fns:
            assert np.array_equal(u, fn(T1, T2))
            # a plain SmoothFn2 takes partial_op's per-point path, not the factors'
            generic = SmoothFn2(fn.value, fn.d_t1, fn.d_t2, check=False)
            for axis, alpha, column in ((1, alpha1, d1), (2, alpha2, d2)):
                # one outer row per call, as the per-point path evaluates them
                ref = np.concatenate([
                    partial_op(OpKind.D_CAP_LEFT, axis, generic, alpha, (t1, t2n), rect)
                    for t1 in t1n])
                assert np.max(np.abs(ref)) > 0.0
                err = np.max(np.abs(column - ref)) / np.max(np.abs(ref))
                assert err <= 1e-13, (axis, err)

    @pytest.mark.parametrize("name", sorted(_TABLE_CASES))
    def test_columns_are_outer_products_of_the_mode_factors(self, name, monkeypatch):
        # the tables integrate the lift's terms and n sine factors per axis,
        # not n**2 mode copies, and each mode's column keeps its bits
        rows, outer, n = [], 9, 3

        def spy(kind, axis, f, *args):
            rows.append(f.count)
            return operators.factor_op(kind, axis, f, *args)

        monkeypatch.setattr(variational, "factor_op", spy)
        rect, alpha1, alpha2, exp, tables = _table_problem(name, n_modes=n, outer=outer)
        assert rows == [len(exp.boundary_lift.terms) + n] * 2
        *_, PHI, D1PHI, D2PHI = tables
        t1n, _ = clustered_gl(rect.t1.a, rect.t1.b, outer)
        t2n, _ = clustered_gl(rect.t2.a, rect.t2.b, outer)
        for b in range(len(exp.modes)):
            mode = exp.mode_fn(b)
            g1, g2 = mode.rows(1, 0, t1n)[0], mode.rows(2, 0, t2n)[0]
            c1, c2 = (operators.factor_op(OpKind.D_CAP_LEFT, axis, mode, alpha, t, rect,
                                          DEFAULT_QUAD)[0]
                      for axis, alpha, t in ((1, alpha1, t1n), (2, alpha2, t2n)))
            for table, (x, y) in zip((PHI, D1PHI, D2PHI), ((g1, g2), (c1, g2), (g1, c2))):
                assert np.array_equal(table[:, b], np.outer(x, y).ravel())

    @pytest.mark.parametrize("name", sorted(_TABLE_CASES))
    def test_exact_gradient_matches_fd(self, name, rng):
        # convex, non-quadratic and t-dependent: every slot's partial is exercised
        L = Lagrangian(
            lambda t1, t2, u, d1, d2: (d1 ** 2 + 0.5 * d2 ** 2 + 0.3 * d1 * d2 + u ** 2
                                       + 0.2 * u ** 4 + (1.0 + t1) * u),
            lambda t1, t2, u, d1, d2: 2.0 * u + 0.8 * u ** 3 + (1.0 + t1),
            lambda t1, t2, u, d1, d2: 2.0 * d1 + 0.3 * d2,
            lambda t1, t2, u, d1, d2: d2 + 0.3 * d1,
            rect=_TABLE_CASES[name][0])
        *_, tables = _table_problem(name)
        J, grad_J = _ritz_objective(L, tables)
        for _ in range(3):
            c = rng.uniform(-0.5, 0.5, 4)
            g, g_fd = grad_J(c), fd_gradient(J, c)
            assert np.max(np.abs(g - g_fd)) <= 1e-6 * np.max(np.abs(g_fd))

    def test_nan_inside_an_edge_raises(self):
        # finite and matching at the corners, NaN for t1 in (0.4, 0.6)
        edge = lambda s: np.sqrt(0.24) + 0.0 * s
        psi = BoundaryData(lambda s: np.sqrt((s - 0.5) ** 2 - 0.01), edge, edge, edge,
                           UNIT_RECT)
        with np.errstate(invalid="ignore"), pytest.raises(ValidityError, match="not finite"):
            ritz_solve(Lagrangian.quadratic(), psi, A04, A04, UNIT_RECT, n_modes=2,
                       outer_grid=8, el_grid=0)


# a non-unit rectangle, (t, tau)-varying orders and a nonzero lift from a
# function without partials, so the edge factors use finite differences
_SEP_RECT = Rect2.of(-0.3, 0.9, 0.2, 1.5)


def _separable_problem(n_modes=3):
    alpha1 = VariableOrder(lambda t, tau: 0.35 + 0.1 * t - 0.05 * tau, _SEP_RECT.t1)
    alpha2 = VariableOrder(lambda t, tau: 0.3 + 0.1 * t * tau, _SEP_RECT.t2)
    psi = BoundaryData.from_function(lambda t1, t2: 1.0 + np.sin(t1) + t2 ** 2 + t1 * t2,
                                     _SEP_RECT)
    exp = RitzExpansion.zero(psi, n_modes)
    exp = exp.with_coeffs(np.linspace(-0.4, 0.5, len(exp.modes)))
    return alpha1, alpha2, exp


class TestSeparablePath:
    @pytest.mark.parametrize("kind", [OpKind.I_LEFT, OpKind.I_RIGHT,
                                      OpKind.D_CAP_LEFT, OpKind.D_CAP_RIGHT])
    @pytest.mark.parametrize("axis", [1, 2])
    def test_matches_generic_path(self, kind, axis):
        alpha1, alpha2, exp = _separable_problem()
        alpha = alpha1 if axis == 1 else alpha2
        u = exp
        assert isinstance(u, SeparableFn2)
        generic = SmoothFn2(u.value, u.d_t1, u.d_t2, check=False)
        # both rectangle edges and interior points, repeated along both axes
        t1 = np.array([-0.3, 0.1, 0.55, 0.9, 0.1])[:, None]
        t2 = np.array([0.2, 0.7, 1.5, 1.1, 0.7])[None, :]
        grid = partial_op(kind, axis, u, alpha, (t1, t2), _SEP_RECT)
        ref = partial_op(kind, axis, generic, alpha, (t1, t2), _SEP_RECT)
        assert np.max(np.abs(grid)) > 0.0
        assert np.all(np.abs(grid - ref) <= 1e-12 * np.maximum(1.0, np.abs(ref)))
        one = [[partial_op(kind, axis, u, alpha, (x, y), _SEP_RECT) for y in t2[0]]
               for x in t1[:, 0]]
        assert grid.tobytes() == np.array(one).tobytes()

    def test_el_residual_matches_generic_path(self):
        alpha1, alpha2, exp = _separable_problem(n_modes=2)
        u = exp
        generic = SmoothFn2(u.value, u.d_t1, u.d_t2, check=False)
        cfg = QuadConfig(panels=12)
        L = Lagrangian(lambda t1, t2, u, d1, d2: d1 ** 2 + 0.5 * d2 ** 2 + u ** 2 + t1 * u,
                       lambda t1, t2, u, d1, d2: 2.0 * u + t1,
                       lambda t1, t2, u, d1, d2: 2.0 * d1,
                       lambda t1, t2, u, d1, d2: d2, check=False)
        rep = el_residual(L, exp, alpha1, alpha2, _SEP_RECT, 3, cfg)
        ref = el_residual(L, generic, alpha1, alpha2, _SEP_RECT, 3, cfg)
        assert np.max(np.abs(ref.values)) > 0.0
        assert np.all(np.abs(rep.values - ref.values)
                      <= 1e-10 * np.maximum(1.0, np.abs(ref.values)))


class TestSeparableWork:
    """Kernel rules and nodes, counted where the operators build them."""

    def test_el_residual_evaluates_n_sines_per_node(self, monkeypatch):
        # an expansion's sine rows share each sin(m pi x) and cos(m pi x), so
        # the elements evaluated grow as n, the modes per axis, not as n**2
        alpha1, alpha2, _ = _separable_problem()
        psi = BoundaryData.from_function(lambda t1, t2: 1.0 + t1 * t2 + t2 ** 2, _SEP_RECT)
        L = Lagrangian.quadratic()
        counts = {}

        def counted(fn):
            def spy(x, *args, **kwargs):
                counts[n] += np.size(x)
                return fn(x, *args, **kwargs)
            return spy

        monkeypatch.setattr(np, "sin", counted(np.sin))
        monkeypatch.setattr(np, "cos", counted(np.cos))
        for n in (2, 4):
            counts[n] = 0
            exp = RitzExpansion.zero(psi, n).with_coeffs(np.linspace(-0.3, 0.4, n * n))
            el_residual(L, exp, alpha1, alpha2, _SEP_RECT, 2, QuadConfig(panels=6))
        assert counts[2] > 0 and counts[4] == 2 * counts[2], counts

    @pytest.fixture
    def work(self, monkeypatch):
        counts = {"rules": 0, "nodes": 0}

        class CountingRule(KernelRule):
            def __init__(self, *args, **kwargs):
                super().__init__(*args, **kwargs)
                counts["rules"] += 1
                counts["nodes"] += self.tau.size

        monkeypatch.setattr(operators, "KernelRule", CountingRule)
        return counts

    def test_ritz_tables_build_one_rule_per_axis(self, work):
        alpha1, alpha2, exp = _separable_problem(n_modes=4)
        _ritz_tables(exp, alpha1, alpha2, _SEP_RECT, 16, DEFAULT_QUAD)
        assert work["rules"] == 2

    def test_el_residual_of_an_expansion(self, work):
        # README size: 4 modes per axis, a 4 x 4 grid, the default rule;
        # the per-point path takes 14.9M nodes in 232 rules here
        alpha = VariableOrder.constant(0.4, UNIT_RECT.t1, l=3,
                                       bound_mode=BoundMode.BELOW_ONE_MINUS)
        psi = BoundaryData.from_function(lambda t1, t2: 1.0 + t1 * t2 + np.sin(t1), UNIT_RECT)
        exp = RitzExpansion.zero(psi, 4).with_coeffs(np.linspace(-0.3, 0.4, 16))
        el_residual(Lagrangian.quadratic(), exp, alpha, alpha, UNIT_RECT, 4)
        assert work["nodes"] <= 2_500_000, work
