import functools

import mpmath as mp
import numpy as np
import pytest

from varfrac import (DomainError, Interval, QuadConfig, Rect2, Side,
                     SingularKernelSpec, ValidityError, VariableOrder,
                     WeightShift, clustered_gl, line_integral_edge,
                     singular_integral, tensor_integral)
from varfrac.quadrature import DEFAULT_QUAD, KernelRule

from conftest import UNIT, UNIT_RECT, mpgamma, random_poly1


def left_spec(alpha, shift=WeightShift.INTEGRAL):
    return SingularKernelSpec(alpha, Side.LEFT, shift)


class TestQuadConfig:
    def test_defaults(self):
        assert DEFAULT_QUAD.panels == 24
        assert DEFAULT_QUAD.nodes_per_panel == 10

    @pytest.mark.parametrize("kwargs", [
        {"panels": 0}, {"nodes_per_panel": 1}, {"grading": 0.0}, {"grading": 1.0},
    ])
    def test_validation(self, kwargs):
        with pytest.raises(DomainError):
            QuadConfig(**kwargs)


class TestSingularIntegral:
    def test_constant_order_constant_integrand(self):
        # beta = 0.5, h = 1 on [0, 1]: value (t-a)^0.5 / Gamma(1.5)
        spec = left_spec(VariableOrder.constant(0.5, UNIT))
        v = singular_integral(spec, lambda s: 1.0, 0.0, 1.0)
        assert v == pytest.approx(1.1283791670955126, abs=1e-9)

    def test_power_law_oracle_variable_order(self):
        # order (1 + t)/4 at t = 1, h(tau) = tau: Gamma(2) / Gamma(2.5)
        alpha = VariableOrder(lambda t, tau: (1.0 + t) / 4.0, UNIT)
        v = singular_integral(left_spec(alpha), lambda s: s, 0.0, 1.0)
        exact = mpgamma(2.0) / mpgamma(2.5)
        assert v == pytest.approx(exact, rel=1e-9)
        assert exact == pytest.approx(0.7522527781, abs=1e-10)

    def test_zero_integrand(self):
        alpha = VariableOrder(lambda t, tau: 0.3 + 0.2 * tau, UNIT)
        for shift in WeightShift:
            assert singular_integral(
                SingularKernelSpec(alpha, Side.LEFT, shift),
                lambda s: 0.0, 0.0, 0.7) == 0.0

    def test_reversed_range_rejected(self):
        spec = left_spec(VariableOrder.constant(0.5, UNIT))
        with pytest.raises(DomainError):
            singular_integral(spec, lambda s: 1.0, 0.5, 0.2)

    def test_degenerate_range(self):
        alpha = VariableOrder.constant(0.5, UNIT)
        assert singular_integral(left_spec(alpha), lambda s: 1.0, 0.3, 0.3) == 0.0
        with pytest.raises(ValidityError):
            singular_integral(left_spec(alpha, WeightShift.DERIVATIVE),
                              lambda s: 1.0, 0.3, 0.3)

    def test_exponent_out_of_range_names_point(self):
        alpha = VariableOrder(lambda t, tau: 0.2 + 0.9 * tau, UNIT, validate=False)
        with pytest.raises(ValidityError, match=r"\(t, tau\)"):
            singular_integral(left_spec(alpha), lambda s: 1.0, 0.0, 1.0)

    def test_linearity(self, rng):
        alpha = VariableOrder(lambda t, tau: 0.3 + 0.2 * tau, UNIT)
        spec = left_spec(alpha)
        for _ in range(5):
            h1, h2 = random_poly1(rng), random_poly1(rng)
            c1, c2 = rng.uniform(-2.0, 2.0, 2)
            combo = singular_integral(spec, lambda s: c1 * h1(s) + c2 * h2(s), 0.0, 0.9)
            split = (c1 * singular_integral(spec, h1, 0.0, 0.9)
                     + c2 * singular_integral(spec, h2, 0.0, 0.9))
            assert combo == pytest.approx(split, rel=1e-12, abs=1e-13)

    def test_grading_convergence_on_power_law(self):
        # doubling the panel count cuts the error by at least 2x until < 1e-10
        alpha = VariableOrder(lambda t, tau: (1.0 + t) / 4.0, UNIT)
        exact = mpgamma(2.0) / mpgamma(2.5)
        errors = []
        for panels in (2, 4, 8, 16, 32):
            cfg = QuadConfig(panels=panels)
            v = singular_integral(left_spec(alpha), lambda s: s, 0.0, 1.0, cfg)
            errors.append(abs(v - exact))
        for e_prev, e_next in zip(errors, errors[1:]):
            if e_prev < 1e-10:
                break
            assert e_next <= e_prev / 2.0

    @pytest.mark.parametrize("beta", [0.25, 0.5, 0.75])
    @pytest.mark.parametrize("gamma_exp", [0, 1, 2, 3])
    def test_constant_order_monomials(self, beta, gamma_exp):
        # h = tau^g on [0, t]: Gamma(g+1) t^(g+beta) / Gamma(g+beta+1)
        alpha = VariableOrder.constant(beta, UNIT)
        t = 0.8
        v = singular_integral(left_spec(alpha), lambda s: s ** gamma_exp, 0.0, t)
        exact = (mpgamma(gamma_exp + 1.0) * t ** (gamma_exp + beta)
                 / mpgamma(gamma_exp + beta + 1.0))
        assert v == pytest.approx(exact, rel=1e-8)

    def test_right_side_transposes_order_arguments(self):
        # alpha depends only on its first argument; right kernels must read
        # alpha(tau, t), so the integral over [t, b] sees alpha varying with tau.
        alpha = VariableOrder(lambda t, tau: 0.3 + 0.4 * t, UNIT)
        spec = SingularKernelSpec(alpha, Side.RIGHT, WeightShift.INTEGRAL)
        v = singular_integral(spec, lambda s: 1.0, 0.0, 1.0)
        # independent check: graded trapezoid (s = u^4) with explicit alpha(tau, 0)
        from scipy.special import gamma as sgamma
        u = np.linspace(0.0, 1.0, 400001)[1:]

        def graded_trapezoid(beta):
            # integrand -> 0 as u -> 0 (exponent 4 beta - 1 > 0 here)
            vals = s ** (beta - 1.0) / sgamma(beta) * 4.0 * u ** 3
            return float(np.trapezoid(np.concatenate(([0.0], vals)),
                                      np.concatenate(([0.0], u))))

        s = u ** 4
        brute = graded_trapezoid(0.3 + 0.4 * s)   # tau = 0 + s, alpha(tau, t=0)
        assert v == pytest.approx(brute, rel=1e-6)
        # and the value differs from the non-transposed reading alpha(t, tau)
        wrong = graded_trapezoid(0.3 + 0.0 * s)   # alpha(t=0, tau) = 0.3
        assert abs(v - wrong) > 1e-2


class TestKernelRule:
    @pytest.mark.parametrize("side", list(Side), ids=lambda s: s.value)
    def test_batch_equals_one_range_calls(self, side):
        # three integrands over P ranges in one call, each value bit for bit
        alpha = VariableOrder(lambda t, tau: 0.35 + 0.1 * t + 0.05 * tau, UNIT)
        spec = SingularKernelSpec(alpha, side, WeightShift.DERIVATIVE)
        ends = np.linspace(0.05, 0.95, 7)
        lo, hi = (0.0, ends) if side is Side.LEFT else (ends, 1.0)
        hs = [lambda s: np.exp(s), lambda s: 1.0 + s - s * s, lambda s: np.cos(3.0 * s)]
        rule = KernelRule(spec, lo, hi)
        values = np.stack([h(rule.tau) for h in hs])
        assert values.shape == (3,) + rule.tau.shape == (3, 7, DEFAULT_QUAD.range_nodes)
        batch = rule.integrate(values)
        assert batch.shape == (3, 7)
        for k, h in enumerate(hs):
            for p, end in enumerate(ends):
                one = singular_integral(spec, h, *((0.0, end) if side is Side.LEFT else (end, 1.0)))
                assert batch[k, p] == one
            assert np.array_equal(rule.integrate(values[k]), batch[k])

    def test_scalar_integrand_broadcasts(self):
        spec = left_spec(VariableOrder(lambda t, tau: 0.3 + 0.2 * tau, UNIT))
        v = singular_integral(spec, lambda s: 2.0, 0.1, 0.9)
        assert v == singular_integral(spec, lambda s: 2.0 + 0.0 * s, 0.1, 0.9)
        rule = KernelRule(spec, 0.1, np.array([0.5, 0.9]))
        assert rule.integrate(2.0)[1] == v

    def test_nonfinite_value_names_node(self):
        spec = left_spec(VariableOrder.constant(0.5, UNIT))
        rule = KernelRule(spec, 0.0, np.array([0.4, 0.8]))
        values = np.ones((2,) + rule.tau.shape)
        values[1, 1, 3] = np.inf
        with pytest.raises(ValidityError, match=rf"inf is not finite at \(t, tau\) = "
                                                rf"\(0\.8, {rule.tau[1, 3]:.6g}\)"):
            rule.integrate(values)


# a strongly graded mesh, whose panels are split into sub-panels of ratio
# >= 1/4, at the default 10 and at 14 nodes per panel
_SWEEP_GRADED = QuadConfig(panels=30, nodes_per_panel=14, grading=0.15)
_SWEEP_GRADED_10 = QuadConfig(panels=30, grading=0.15)


def _sweep_order(c, varying, lib):
    """Order c, plus a (t, tau) ripple of half its distance to 0 or 1 when varying."""
    amp = 0.5 * min(c, 1.0 - c) if varying else 0.0
    return lambda t, tau: c + amp * lib.sin(t + 2 * tau)


@functools.lru_cache(maxsize=None)
def _sweep_case(c, varying, side, shift, a, b):
    """(lo, hi, exact) for h = exp(distance to the regular end) over 3/4 of [a, b].

    With y the distance to the singular point and S = hi - lo the value is
    int_0^S y^(beta - 1) / Gamma(beta) exp(S - y) dy.  For constant beta it
    is exp(S) P(beta, S) (regularized lower incomplete Gamma).  Otherwise
    v = y^beta0, with beta0 = beta at the singular point, moves the
    singularity out of the integrand, and mp.quad integrates
    (1/beta0) y^(beta - beta0) / Gamma(beta) exp(S - y) over v.
    """
    S = 0.75 * (b - a)
    lo, hi = (a, a + S) if side is Side.LEFT else (b - S, b)
    t = mp.mpf(hi if side is Side.LEFT else lo)
    step = -1 if side is Side.LEFT else 1
    order = _sweep_order(c, varying, mp)

    def beta(y):
        tau = t + step * y
        alpha = order(t, tau) if side is Side.LEFT else order(tau, t)
        return alpha if shift is WeightShift.INTEGRAL else 1 - alpha

    beta0 = beta(mp.mpf(0))

    def over_v(v):
        y = v ** (1 / beta0)
        return y ** (beta(y) - beta0) / mp.gamma(beta(y)) * mp.exp(S - y)

    V = mp.mpf(S) ** beta0
    exact = mp.quad(over_v, [0, V / 2, V]) / beta0
    if not varying:
        closed = mp.exp(S) * mp.gammainc(beta0, 0, S, regularized=True)
        assert abs(exact - closed) <= 1e-20 * abs(closed)  # the oracles agree
        exact = closed
    return lo, hi, float(exact)


class TestMpmathSweep:
    @pytest.mark.parametrize("cfg", [DEFAULT_QUAD, _SWEEP_GRADED, _SWEEP_GRADED_10],
                             ids=["default", "graded", "graded10"])
    @pytest.mark.parametrize("a, b", [(0.0, 1.0), (-0.3, 1.7)], ids=["unit", "shifted"])
    @pytest.mark.parametrize("shift", list(WeightShift), ids=lambda w: w.value)
    @pytest.mark.parametrize("side", list(Side), ids=lambda s: s.value)
    @pytest.mark.parametrize("varying", [False, True], ids=["const", "varying"])
    @pytest.mark.parametrize("c", [0.001, 0.5, 0.999])
    def test_singular_integral_within_contract(self, c, varying, side, shift, a, b, cfg):
        # QuadConfig's 1e-8 relative contract against high-precision oracles
        lo, hi, exact = _sweep_case(c, varying, side, shift, a, b)
        alpha = VariableOrder(_sweep_order(c, varying, np), Interval(a, b))
        h = (lambda s: np.exp(s - lo)) if side is Side.LEFT else (lambda s: np.exp(hi - s))
        v = singular_integral(SingularKernelSpec(alpha, side, shift), h, lo, hi, cfg)
        assert abs(v - exact) <= 1e-8 * abs(exact)


class TestLineIntegralEdge:
    def test_constant(self):
        assert line_integral_edge(lambda s: 1.0, 0.0, 2.0, +1) == pytest.approx(2.0, abs=1e-13)

    def test_linear_reversed(self):
        assert line_integral_edge(lambda s: s, 0.0, 1.0, -1) == pytest.approx(-0.5, abs=1e-13)

    def test_quadratic(self):
        v = line_integral_edge(lambda s: s ** 2, 0.0, 1.0, +1)
        assert v == pytest.approx(1.0 / 3.0, abs=1e-12)

    def test_rejects_bad_range_and_orientation(self):
        with pytest.raises(DomainError):
            line_integral_edge(lambda s: 1.0, 1.0, 1.0, +1)
        with pytest.raises(DomainError):
            line_integral_edge(lambda s: 1.0, 0.0, 1.0, 2)

    def test_nonfinite_integrand_names_node(self):
        with np.errstate(invalid="ignore"), \
                pytest.raises(ValidityError, match=r"not finite at s = 0\.0"):
            line_integral_edge(lambda s: np.sqrt(s - 0.5), 0.0, 1.0, 1)


class TestClusteredRule:
    def test_smooth_integrand(self):
        t, w = clustered_gl(0.0, 1.0, 20)
        assert float(w @ np.cos(t)) == pytest.approx(np.sin(1.0), abs=1e-12)

    def test_endpoint_algebraic_integrand(self):
        t, w = clustered_gl(0.0, 1.0, 24)
        v = float(w @ (1.0 - t) ** 0.4)
        assert v == pytest.approx(1.0 / 1.4, abs=1e-10)

    def test_tensor_integral_product(self):
        v = tensor_integral(lambda t1, t2: t1 * t2 ** 2, UNIT_RECT, 16)
        assert v == pytest.approx(0.5 / 3.0, abs=1e-11)

    def test_tensor_integral_calls_field_once_on_whole_grid(self):
        shapes = []

        def field(t1, t2):
            shapes.append((np.shape(t1), np.shape(t2)))
            return t1 * t2 ** 2

        v = tensor_integral(field, UNIT_RECT, 7)
        assert shapes == [((7, 1), (1, 7))]
        # reference: one outer-grid row per call
        t, w = clustered_gl(0.0, 1.0, 7)
        assert v == float(w @ np.vstack([t1 * t ** 2 for t1 in t]) @ w)

    def test_tensor_integral_scalar_field_same_bits(self):
        # a scalar field broadcasts to a stride-0 view; it must sum as a full grid does
        rect = Rect2.of(-0.3, 0.9, 0.2, 1.5)
        c = 0.7310585786300049
        for n in (5, 13, 24):
            assert (tensor_integral(lambda t1, t2: c, rect, n)
                    == tensor_integral(lambda t1, t2: c + 0 * t1 + 0 * t2, rect, n))

    def test_tensor_integral_nonfinite_field_names_node(self):
        field = lambda t1, t2: np.sqrt(t1 - 0.5) + 0 * t2
        first = f"{clustered_gl(0.0, 1.0, 8)[0][0]:.6g}"  # the first (t1, t2) node
        with np.errstate(invalid="ignore"), pytest.raises(
                ValidityError, match=rf"nan is not finite at \(t1, t2\) = \({first}, {first}\)"):
            tensor_integral(field, Rect2.of(0, 1, 0, 1), 8)
