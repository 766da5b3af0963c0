"""Bundled invariant suite behind the ``selftest`` CLI command.

Each property prints one PASS/FAIL line with its measured metric.  The
seed controls only the random-instance generators; for a fixed seed the
output is byte-identical from run to run.
"""

from __future__ import annotations

import numpy as np

from .domain import BoundMode, Interval, Rect2, SmoothFn1, SmoothFn2, VariableOrder
from .identities import contour_one_form, verify_green, verify_ibp
from .operators import (left_caputo_derivative, left_rl_derivative,
                        left_rl_integral, right_rl_integral)
from .quadrature import (QuadConfig, Side, SingularKernelSpec, WeightShift,
                         singular_integral)
from .specialfn import gamma, gamma_lower_bound_check
from .variational import Lagrangian, first_variation, functional_eval

_DOM = Interval(0.0, 1.0)
_RECT = Rect2(_DOM, _DOM)


def _poly1(rng, deg=3):
    c = rng.uniform(-1.0, 1.0, deg + 1)
    return lambda t: sum(ci * np.asarray(t, float) ** i for i, ci in enumerate(c))


def _poly2(rng, deg=2):
    c = rng.uniform(-1.0, 1.0, (deg + 1, deg + 1))
    for i in range(deg + 1):
        for j in range(deg + 1):
            if i + j > deg:
                c[i, j] = 0.0

    def p(t1, t2):
        t1 = np.asarray(t1, float)
        t2 = np.asarray(t2, float)
        return sum(c[i, j] * t1 ** i * t2 ** j
                   for i in range(deg + 1) for j in range(deg + 1))

    return p


def _check_gamma_recurrence(rng):
    x = 0.05 + rng.random(200) * 4.95
    dev = np.max(np.abs(gamma(x + 1.0) - x * gamma(x)) / gamma(x + 1.0))
    return dev <= 1e-12, f"max_rel_dev={dev:.3e}"


def _check_gamma_half_integers(rng):
    worst = 0.0
    fact = 1.0
    four_n = 1.0
    two_n_fact = 1.0
    for n in range(6):
        if n > 0:
            fact *= n
            four_n *= 4.0
            two_n_fact *= (2 * n) * (2 * n - 1)
        exact = two_n_fact * np.sqrt(np.pi) / (four_n * fact)
        worst = max(worst, abs(gamma(n + 0.5) - exact) / exact)
    return worst <= 1e-12, f"max_rel_err={worst:.3e}"


def _check_gamma_inequality(rng):
    grid = np.linspace(0.0, 1.0, 1001)
    ok = all(gamma_lower_bound_check(float(x)) for x in grid)
    slack = np.min(gamma(grid + 1.0) - (grid ** 2 + 1.0) / (grid + 1.0))
    return ok, f"min_slack={slack:.3e}"


def _check_quad_linearity(rng):
    alpha = VariableOrder(lambda t, tau: 0.3 + 0.2 * tau, _DOM)
    spec = SingularKernelSpec(alpha, Side.LEFT, WeightShift.INTEGRAL)
    h1, h2 = _poly1(rng), _poly1(rng)
    c1, c2 = rng.uniform(-2, 2, 2)
    combo = singular_integral(spec, lambda s: c1 * h1(s) + c2 * h2(s), 0.0, 0.9)
    parts = c1 * singular_integral(spec, h1, 0.0, 0.9) \
        + c2 * singular_integral(spec, h2, 0.0, 0.9)
    dev = abs(combo - parts) / max(1.0, abs(combo))
    return dev <= 1e-12, f"rel_dev={dev:.3e}"


def _check_power_law_oracle(rng):
    alpha = VariableOrder(lambda t, tau: (1.0 + t) / 4.0, _DOM)
    worst = 0.0
    for g_exp in (1, 2, 3):
        for t in (0.3, 0.65, 1.0):
            approx = left_rl_integral(lambda tau: tau ** g_exp, alpha, 0.0, t)
            a_t = (1.0 + t) / 4.0
            exact = gamma(g_exp + 1.0) * t ** (g_exp + a_t) / gamma(g_exp + a_t + 1.0)
            worst = max(worst, abs(approx - exact) / abs(exact))
    return worst <= 1e-8, f"max_rel_err={worst:.3e}"


def _check_constant_order(rng):
    worst = 0.0
    for a_c in (0.25, 0.5, 0.75):
        alpha = VariableOrder.constant(a_c, _DOM)
        v = left_rl_integral(lambda tau: tau ** 2, alpha, 0.0, 1.0)
        worst = max(worst, abs(v - gamma(3.0) / gamma(3.0 + a_c)))
        v = left_rl_derivative(lambda tau: tau ** 2, alpha, 0.0, 1.0)
        worst = max(worst, abs(v - gamma(3.0) / gamma(3.0 - a_c)) / abs(v))
        f = SmoothFn1(lambda tau: tau ** 2, lambda tau: 2.0 * tau, check=False)
        v = left_caputo_derivative(f, alpha, 0.0, 1.0)
        worst = max(worst, abs(v - gamma(3.0) / gamma(3.0 - a_c)) / abs(v))
    return worst <= 1e-6, f"max_err={worst:.3e}"


def _check_reflection_duality(rng):
    alpha = VariableOrder(lambda t, tau: 0.35 + 0.1 * t + 0.05 * tau, _DOM)
    alpha_ref = VariableOrder(lambda u, v: 0.35 + 0.1 * (1.0 - v) + 0.05 * (1.0 - u), _DOM)
    worst = 0.0
    for _ in range(3):
        f = _poly1(rng)
        t = float(rng.uniform(0.05, 0.85))
        right = right_rl_integral(f, alpha, t, 1.0)
        left = left_rl_integral(lambda s: f(1.0 - s), alpha_ref, 0.0, 1.0 - t)
        worst = max(worst, abs(right - left))
    return worst <= 1e-10, f"max_abs_dev={worst:.3e}"


def _check_contour_orientation(rng):
    c1, c2 = rng.uniform(-3, 3, 2)
    val = contour_one_form(lambda t1, t2: c2, lambda t1, t2: c1, _RECT)
    return abs(val) <= 1e-12, f"closed_form_residual={val:.3e}"


def _check_ibp_small(rng):
    al1 = VariableOrder(lambda t, tau: 0.4 + 0.1 * t, _DOM, l=3,
                        bound_mode=BoundMode.ABOVE_ONE_OVER_L)
    al2 = VariableOrder(lambda t, tau: 0.5 + 0.1 * tau, _DOM, l=3,
                        bound_mode=BoundMode.ABOVE_ONE_OVER_L)
    rep = verify_ibp(_poly2(rng), _poly2(rng), _poly2(rng), _poly2(rng),
                     al1, al2, _RECT, outer_grid=12,
                     cfg=QuadConfig(panels=12))
    return abs(rep.residual) <= 1e-6, f"residual={rep.residual:.3e}"


def _check_green_small(rng):
    al = VariableOrder.constant(0.4, _DOM, l=3, bound_mode=BoundMode.BELOW_ONE_MINUS)
    eta = SmoothFn2(lambda t1, t2: t1 * (1 - t1) * t2 * (1 - t2),
                    lambda t1, t2: (1 - 2 * t1) * t2 * (1 - t2),
                    lambda t1, t2: t1 * (1 - t1) * (1 - 2 * t2), check=False)
    rep = verify_green(_poly2(rng), _poly2(rng), eta, al, al, _RECT,
                       outer_grid=10, cfg=QuadConfig(panels=12))
    return abs(rep.residual) <= 1e-5, f"residual={rep.residual:.3e}"


def _check_first_variation(rng):
    alpha = VariableOrder.constant(0.4, _DOM)
    lagr = Lagrangian.quadratic()
    u = SmoothFn2(lambda t1, t2: t1 * t2, lambda t1, t2: t2 + 0 * t1,
                  lambda t1, t2: t1 + 0 * t2, check=False)
    eta = SmoothFn2(lambda t1, t2: t1 * (1 - t1) * t2 * (1 - t2),
                    lambda t1, t2: (1 - 2 * t1) * t2 * (1 - t2),
                    lambda t1, t2: t1 * (1 - t1) * (1 - 2 * t2), check=False)
    fv = first_variation(lagr, u, eta, alpha, alpha, _RECT, outer_grid=12)
    eps = 1e-5

    def shifted(sign):
        us = SmoothFn2(
            lambda t1, t2: u(t1, t2) + sign * eps * eta(t1, t2),
            lambda t1, t2: u.d_t1(t1, t2) + sign * eps * eta.d_t1(t1, t2),
            lambda t1, t2: u.d_t2(t1, t2) + sign * eps * eta.d_t2(t1, t2),
            check=False)
        return functional_eval(lagr, us, alpha, alpha, _RECT, outer_grid=12)

    fd = (shifted(+1) - shifted(-1)) / (2 * eps)
    dev = abs(fv - fd) / max(1.0, abs(fv))
    return dev <= 1e-6, f"rel_dev={dev:.3e}"


def _check_expressions(rng):
    from .expressions import compile_expression
    expr = compile_expression("sin(t)^2 + cos(t)^2 - 1", ("t",))
    dev = float(np.max(np.abs(expr(np.linspace(0, 3, 7)))))
    return dev <= 1e-15, f"max_abs={dev:.3e}"


_CHECKS = [
    ("gamma_recurrence", _check_gamma_recurrence),
    ("gamma_half_integers", _check_gamma_half_integers),
    ("gamma_lower_bound_grid", _check_gamma_inequality),
    ("singular_quadrature_linearity", _check_quad_linearity),
    ("power_law_oracle", _check_power_law_oracle),
    ("constant_order_reduction", _check_constant_order),
    ("reflection_duality", _check_reflection_duality),
    ("contour_orientation", _check_contour_orientation),
    ("integration_by_parts_identity", _check_ibp_small),
    ("green_identity", _check_green_small),
    ("first_variation_consistency", _check_first_variation),
    ("expression_language", _check_expressions),
]


def run(out, seed: int = 0) -> bool:
    """Run every property; print one line each; return overall success."""
    failures = 0
    for index, (name, check) in enumerate(_CHECKS):
        rng = np.random.default_rng([seed, index])
        ok, detail = check(rng)
        status = "PASS" if ok else "FAIL"
        out.write(f"{status} {name} ({detail})\n")
        if not ok:
            failures += 1
    out.write(f"selftest: {len(_CHECKS) - failures} passed, {failures} failed\n")
    return failures == 0
