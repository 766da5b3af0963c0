"""Acceptance suite: every criterion at its stated tolerance and budget.

Each test prints one `ACCEPTANCE <n> <name>: PASS/FAIL (<metrics>)` line
(visible with `pytest -s` or on failure).  Expected values come from
closed forms evaluated with mpmath or from explicit brute-force
quadrature, independent of the code paths under test.
"""

import subprocess
import sys
import time

import numpy as np

from varfrac import (DEFAULT_QUAD, BoundaryData, BoundMode, Lagrangian, OpKind,
                     QuadConfig, Rect2, RitzExpansion, SmoothFn1, SmoothFn2,
                     VariableOrder, boundary_contour, el_residual, first_variation,
                     functional_eval, left_caputo_derivative,
                     left_rl_derivative, left_rl_integral, partial_op,
                     right_caputo_derivative, right_rl_derivative,
                     right_rl_integral, ritz_solve, tensor_integral,
                     verify_green, verify_ibp)
from varfrac.variational import _composed_slot_fields

from conftest import (UNIT, UNIT_RECT, BubblePoly2, mpgamma, random_poly1,
                      random_poly2)


def report(num, name, ok, detail, elapsed, budget):
    status = "PASS" if ok else "FAIL"
    print(f"ACCEPTANCE {num} {name}: {status} ({detail}; {elapsed:.1f}s of {budget}s)")
    assert ok, f"{name}: {detail}"
    assert elapsed <= budget, f"{name} exceeded its {budget}s budget ({elapsed:.1f}s)"


def halving_ok(r_coarse, r_fine, floor=1e-9):
    """Residual halves on refinement, except below the resolution floor."""
    return (abs(r_coarse) < floor or abs(r_fine) <= abs(r_coarse) / 2.0
            or abs(r_fine) < floor)


def test_01_power_law_oracle():
    t0 = time.time()
    alpha = VariableOrder(lambda t, tau: (1.0 + t) / 4.0, UNIT)
    worst = 0.0
    for g in (1, 2, 3):
        for t in np.linspace(0.05, 1.0, 20):
            v = left_rl_integral(lambda tau: tau ** g, alpha, 0.0, float(t))
            a_t = (1.0 + t) / 4.0
            exact = mpgamma(g + 1.0) * t ** (g + a_t) / mpgamma(g + a_t + 1.0)
            worst = max(worst, abs(v - exact) / abs(exact))
    report(1, "power-law closed-form oracle", worst <= 1e-8,
           f"max_rel_err={worst:.3e}", time.time() - t0, 1.0)


def test_02_constant_order_reductions():
    t0 = time.time()
    worst_soft = 0.0   # integrals and Caputo, tolerance 1e-8
    worst_hard = 0.0   # RL derivatives, tolerance 1e-6 (finite-difference limited)
    b = 1.0
    for a_c in (0.25, 0.5, 0.75):
        alpha = VariableOrder.constant(a_c, UNIT)
        for g in (1, 2, 3):
            for t in (0.35, 0.8):
                f_left = SmoothFn1(lambda tau, g=g: tau ** g,
                                   lambda tau, g=g: g * tau ** (g - 1), check=False)
                f_right = SmoothFn1(lambda tau, g=g: (b - tau) ** g,
                                    lambda tau, g=g: -g * (b - tau) ** (g - 1),
                                    check=False)
                i_exact = mpgamma(g + 1.0) * t ** (g + a_c) / mpgamma(g + a_c + 1.0)
                d_exact = mpgamma(g + 1.0) / mpgamma(g + 1.0 - a_c) * t ** (g - a_c)
                i_exact_r = (mpgamma(g + 1.0) * (b - t) ** (g + a_c)
                             / mpgamma(g + a_c + 1.0))
                d_exact_r = (mpgamma(g + 1.0) / mpgamma(g + 1.0 - a_c)
                             * (b - t) ** (g - a_c))

                worst_soft = max(
                    worst_soft,
                    abs(left_rl_integral(f_left, alpha, 0.0, t) - i_exact) / i_exact,
                    abs(right_rl_integral(f_right, alpha, t, b) - i_exact_r) / i_exact_r,
                    abs(left_caputo_derivative(f_left, alpha, 0.0, t) - d_exact) / d_exact,
                    abs(right_caputo_derivative(f_right, alpha, t, b) - d_exact_r) / d_exact_r,
                )
                worst_hard = max(
                    worst_hard,
                    abs(left_rl_derivative(f_left, alpha, 0.0, t) - d_exact) / d_exact,
                    abs(right_rl_derivative(f_right, alpha, t, b) - d_exact_r) / d_exact_r,
                )
    ok = worst_soft <= 1e-8 and worst_hard <= 1e-6
    report(2, "constant-order reductions, all six operators", ok,
           f"integral/caputo={worst_soft:.3e}, rl_deriv={worst_hard:.3e}",
           time.time() - t0, 5.0)


def test_03_integration_by_parts_residual():
    t0 = time.time()
    al1 = VariableOrder(lambda t, tau: 0.4 + 0.1 * t, UNIT, l=3,
                        bound_mode=BoundMode.ABOVE_ONE_OVER_L)
    al2 = VariableOrder(lambda t, tau: 0.5 + 0.1 * tau, UNIT, l=3,
                        bound_mode=BoundMode.ABOVE_ONE_OVER_L)
    worst = 0.0
    refine_ok = True
    for seed in range(5):
        rng = np.random.default_rng([3, seed])
        f, g, e1, e2 = (random_poly2(rng, deg=3).as_smooth_fn2() for _ in range(4))
        rep = verify_ibp(f, g, e1, e2, al1, al2, UNIT_RECT, outer_grid=24)
        worst = max(worst, abs(rep.residual))
        r16 = verify_ibp(f, g, e1, e2, al1, al2, UNIT_RECT, outer_grid=16,
                         cfg=QuadConfig(panels=16)).residual
        r32 = verify_ibp(f, g, e1, e2, al1, al2, UNIT_RECT, outer_grid=32,
                         cfg=QuadConfig(panels=32)).residual
        refine_ok = refine_ok and halving_ok(r16, r32)
    ok = worst <= 1e-5 and refine_ok
    report(3, "integration-by-parts residual", ok,
           f"max_resid={worst:.3e}, refinement_ok={refine_ok}",
           time.time() - t0, 60.0)


def test_04_green_identity_residual():
    t0 = time.time()
    al = VariableOrder.constant(0.4, UNIT, l=3, bound_mode=BoundMode.BELOW_ONE_MINUS)
    worst = 0.0
    refine_ok = True
    for seed in range(5):
        rng = np.random.default_rng([4, seed])
        eta = BubblePoly2(random_poly2(rng, deg=2)).as_smooth_fn2()
        f = random_poly2(rng, deg=2).as_smooth_fn2()
        g = random_poly2(rng, deg=2).as_smooth_fn2()
        rep = verify_green(f, g, eta, al, al, UNIT_RECT, outer_grid=20)
        worst = max(worst, abs(rep.residual))
        r16 = verify_green(f, g, eta, al, al, UNIT_RECT, outer_grid=16,
                           cfg=QuadConfig(panels=16), probe=False).residual
        r32 = verify_green(f, g, eta, al, al, UNIT_RECT, outer_grid=32,
                           cfg=QuadConfig(panels=32), probe=False).residual
        refine_ok = refine_ok and halving_ok(r16, r32)

    # boundary-touching variation: the contour term must be genuinely nonzero
    rng = np.random.default_rng([4, 99])
    eta_b = SmoothFn2(lambda t1, t2: 1.0 + 0.5 * t1 * t2,
                      lambda t1, t2: 0.5 * t2 + 0 * t1,
                      lambda t1, t2: 0.5 * t1 + 0 * t2, check=False)
    f = random_poly2(rng, deg=2).as_smooth_fn2()
    g = random_poly2(rng, deg=2).as_smooth_fn2()
    contour = boundary_contour(eta_b, g, f, al, al, UNIT_RECT)
    rep_b = verify_green(f, g, eta_b, al, al, UNIT_RECT, outer_grid=20)
    ok = (worst <= 1e-4 and refine_ok and abs(contour) > 1e-6
          and abs(rep_b.residual) <= 1e-4)
    report(4, "Green-type identity residual", ok,
           f"max_resid={worst:.3e}, refinement_ok={refine_ok}, "
           f"contour={contour:.3e}, boundary_eta_resid={rep_b.residual:.3e}",
           time.time() - t0, 120.0)


def test_05_gamma_inequality():
    t0 = time.time()
    from varfrac import gamma, gamma_lower_bound_check
    grid = np.linspace(0.0, 1.0, 1001)
    slack = float(np.min(gamma(grid + 1.0) - (grid ** 2 + 1.0) / (grid + 1.0)))
    ok = slack >= -1e-12 and all(gamma_lower_bound_check(float(x)) for x in grid)
    report(5, "Gamma lower-bound inequality on [0,1]", ok,
           f"min_slack={slack:.3e}", time.time() - t0, 5.0)


def _random_quadratic_lagrangian(rng):
    c = rng.uniform(-1.0, 1.0, 6)
    return Lagrangian(
        lambda t1, t2, u, d1, d2: (c[0] * u + c[1] * d1 + c[2] * d2
                                   + c[3] * u ** 2 + c[4] * d1 ** 2 + c[5] * d2 ** 2),
        lambda t1, t2, u, d1, d2: c[0] + 2 * c[3] * u,
        lambda t1, t2, u, d1, d2: c[1] + 2 * c[4] * d1,
        lambda t1, t2, u, d1, d2: c[2] + 2 * c[5] * d2,
        check=False)


def _green_transformed_form(L, u2, eta2, al1, al2, outer_grid, cfg):
    """Integral of eta * [dL/du + right-D dL/dd1 + right-D dL/dd2] along u."""
    f_u, f_d1, f_d2 = _composed_slot_fields(L, u2, al1, al2, UNIT_RECT, cfg)

    def integrand(t1, t2):
        r = (f_u(t1, t2)
             + partial_op(OpKind.D_RL_RIGHT, 1, f_d1, al1, (t1, t2), UNIT_RECT, cfg)
             + partial_op(OpKind.D_RL_RIGHT, 2, f_d2, al2, (t1, t2), UNIT_RECT, cfg))
        return eta2(t1, t2) * r

    return tensor_integral(integrand, UNIT_RECT, outer_grid)


def test_06_euler_lagrange_replay():
    t0 = time.time()
    al = VariableOrder.constant(0.4, UNIT, l=3, bound_mode=BoundMode.BELOW_ONE_MINUS)
    worst_fd = 0.0
    worst_bridge = 0.0
    light = QuadConfig(panels=10, nodes_per_panel=6)
    for seed in range(3):
        rng = np.random.default_rng([6, seed])
        L = _random_quadratic_lagrangian(rng)
        u = random_poly2(rng, deg=2).as_smooth_fn2()
        eta = BubblePoly2(random_poly2(rng, deg=1)).as_smooth_fn2()
        outer = 14

        fv = first_variation(L, u, eta, al, al, UNIT_RECT, outer)
        eps = 1e-5

        def shifted(sign):
            us = SmoothFn2(
                lambda t1, t2: u(t1, t2) + sign * eps * eta(t1, t2),
                lambda t1, t2: u.d_t1(t1, t2) + sign * eps * eta.d_t1(t1, t2),
                lambda t1, t2: u.d_t2(t1, t2) + sign * eps * eta.d_t2(t1, t2),
                check=False)
            return functional_eval(L, us, al, al, UNIT_RECT, outer)

        fd = (shifted(+1) - shifted(-1)) / (2 * eps)
        worst_fd = max(worst_fd, abs(fv - fd) / max(1.0, abs(fv)))

        bridge = _green_transformed_form(L, u, eta, al, al, 10, light)
        fv_light = first_variation(L, u, eta, al, al, UNIT_RECT, 10, light)
        worst_bridge = max(worst_bridge, abs(fv_light - bridge))

    ok = worst_fd <= 1e-6 and worst_bridge <= 1e-4
    report(6, "first-variation replay (difference quotient and Green-transformed form)",
           ok, f"fd_rel={worst_fd:.3e}, bridge_abs={worst_bridge:.3e}",
           time.time() - t0, 120.0)


def test_07_ritz_stationarity_and_convergence():
    t0 = time.time()
    al = VariableOrder.constant(0.4, UNIT, l=3, bound_mode=BoundMode.BELOW_ONE_MINUS)
    L = Lagrangian.quadratic()
    psi = BoundaryData.zero(UNIT_RECT)
    outer = 16

    rng = np.random.default_rng([7, 0])
    rep = ritz_solve(L, psi, al, al, UNIT_RECT, n_modes=4, outer_grid=outer,
                     opt_tol=1e-7, max_iter=500, el_grid=0,
                     coeffs0=rng.uniform(-0.2, 0.2, 16))
    grad_ok = rep.converged and rep.gradient_norm <= 1e-7 and rep.iterations <= 500

    worst_fv = 0.0
    sol = rep.expansion
    for b in range(len(sol.modes)):
        fv = first_variation(L, sol, sol.mode_fn(b), al, al, UNIT_RECT, outer)
        worst_fv = max(worst_fv, abs(fv))

    light = QuadConfig(panels=12, nodes_per_panel=8)
    el_ladder = [
        ritz_solve(L, psi, al, al, UNIT_RECT, n_modes=n, outer_grid=outer,
                   opt_tol=1e-7, max_iter=500, el_grid=4, el_cfg=light).el_residual_l2
        for n in (2, 4, 6)
    ]
    el_ok = el_ladder[0] >= el_ladder[1] >= el_ladder[2]

    ok = grad_ok and worst_fv <= 1e-6 and el_ok
    report(7, "Ritz stationarity and mode convergence", ok,
           f"grad={rep.gradient_norm:.3e} in {rep.iterations} iters, "
           f"max|first_variation|={worst_fv:.3e}, "
           f"el_l2(n=2,4,6)={el_ladder[0]:.3e},{el_ladder[1]:.3e},{el_ladder[2]:.3e}",
           time.time() - t0, 600.0)


def test_07b_ritz_recovers_a_manufactured_minimizer():
    # A nonzero problem with a known solution: u* = lift + sum c*_km modes at
    # n = 2, F = R_Q(u*) the Euler-Lagrange operator of L_Q = d1^2 + d2^2 + u^2
    # at u*, and L_F = L_Q - F u.  L_F is strictly convex and u* satisfies its
    # EL equation, so ritz_solve must return c*.  Measured at outer 24 (under
    # 2 s on a two-core host): max|c - c*| = 9.7e-9, el_l2 = 8.7e-8 (2.8 at
    # c = 0), max|first_variation| = 2.2e-9.  The bounds are about ten times
    # those, and el_l2 at c = 0 must exceed 1, so the residual can fail.
    t0 = time.time()
    rect = Rect2.of(-0.3, 0.9, 0.2, 1.5)
    al1 = VariableOrder(lambda t, tau: 0.35 + 0.1 * t - 0.05 * tau, rect.t1)
    al2 = VariableOrder(lambda t, tau: 0.3 + 0.1 * t * tau, rect.t2)
    psi = BoundaryData.from_function(
        SmoothFn2(lambda t1, t2: 1.0 + t1 * t2 + t2 ** 2, lambda t1, t2: t2 + 0.0 * t1,
                  lambda t1, t2: t1 + 2.0 * t2, check=False), rect)
    c_star = np.array([0.3, -0.2, 0.1, 0.05])
    u_star = RitzExpansion.zero(psi, 2).with_coeffs(c_star)
    f_u, f_d1, f_d2 = _composed_slot_fields(Lagrangian.quadratic(), u_star, al1, al2, rect,
                                            DEFAULT_QUAD)
    grids = {}

    def F(t1, t2):
        # R_Q(u*) on the grid of the distinct coordinates, once per grid
        t1, t2 = np.broadcast_arrays(t1, t2)
        (g1, i1), (g2, i2) = (np.unique(t, return_inverse=True) for t in (t1, t2))
        key = (g1.tobytes(), g2.tobytes())
        if key not in grids:
            p = (g1[:, None], g2[None, :])
            grids[key] = (f_u(*p) + partial_op(OpKind.D_RL_RIGHT, 1, f_d1, al1, p, rect)
                          + partial_op(OpKind.D_RL_RIGHT, 2, f_d2, al2, p, rect))
        return grids[key][i1.reshape(t1.shape), i2.reshape(t2.shape)]

    L = Lagrangian(lambda t1, t2, u, d1, d2: d1 ** 2 + d2 ** 2 + u ** 2 - F(t1, t2) * u,
                   lambda t1, t2, u, d1, d2: 2.0 * u - F(t1, t2),
                   lambda t1, t2, u, d1, d2: 2.0 * d1,
                   lambda t1, t2, u, d1, d2: 2.0 * d2, check=False)
    outer = 24
    rep = ritz_solve(L, psi, al1, al2, rect, n_modes=2, outer_grid=outer)
    coeff_err = float(np.max(np.abs(rep.coeffs - c_star)))
    sol = rep.expansion
    worst_fv = max(abs(first_variation(L, sol, sol.mode_fn(b), al1, al2, rect, outer))
                   for b in range(len(sol.modes)))
    el_start = el_residual(L, u_star.with_coeffs(np.zeros(4)), al1, al2, rect, 4).l2

    ok = (rep.converged and coeff_err <= 1e-7 and rep.el_residual_l2 <= 1e-6
          and worst_fv <= 2e-8 and el_start >= 1.0)
    report("7b", "Ritz recovers a manufactured minimizer", ok,
           f"max|c-c*|={coeff_err:.3e}, el_l2={rep.el_residual_l2:.3e} "
           f"(at c=0: {el_start:.3e}), max|first_variation|={worst_fv:.3e}",
           time.time() - t0, 20.0)


def test_08_reflection_duality():
    t0 = time.time()
    alpha_fn = lambda t, tau: 0.35 + 0.1 * t + 0.05 * tau
    alpha = VariableOrder(alpha_fn, UNIT)
    alpha_ref = VariableOrder(lambda u, v: alpha_fn(1.0 - v, 1.0 - u), UNIT)
    worst_soft = 0.0  # integrals and Caputo: 1e-10
    worst_hard = 0.0  # RL derivatives: 1e-8
    rng = np.random.default_rng([8, 0])
    for _ in range(10):
        p = random_poly1(rng)
        dp = p.deriv()
        t = float(rng.uniform(0.1, 0.9))
        f = SmoothFn1(p, dp, check=False)
        f_ref = SmoothFn1(lambda s: p(1.0 - s), lambda s: -dp(1.0 - s), check=False)

        worst_soft = max(
            worst_soft,
            abs(right_rl_integral(p, alpha, t, 1.0)
                - left_rl_integral(lambda s: p(1.0 - s), alpha_ref, 0.0, 1.0 - t)),
            abs(right_caputo_derivative(f, alpha, t, 1.0)
                - left_caputo_derivative(f_ref, alpha_ref, 0.0, 1.0 - t)),
        )
        worst_hard = max(
            worst_hard,
            abs(right_rl_derivative(p, alpha, t, 1.0)
                - left_rl_derivative(lambda s: p(1.0 - s), alpha_ref, 0.0, 1.0 - t)),
        )
    ok = worst_soft <= 1e-10 and worst_hard <= 1e-8
    report(8, "left/right reflection duality", ok,
           f"integral/caputo={worst_soft:.3e}, rl_deriv={worst_hard:.3e}",
           time.time() - t0, 30.0)


def test_09_selftest_determinism_across_threads():
    t0 = time.time()
    outs = []
    for threads in ("1", "8"):
        proc = subprocess.run(
            [sys.executable, "-m", "varfrac.cli", "selftest", "--threads", threads],
            capture_output=True)
        assert proc.returncode == 0, proc.stdout.decode() + proc.stderr.decode()
        outs.append(proc.stdout)
    ok = outs[0] == outs[1]
    report(9, "selftest byte-identical across thread counts", ok,
           f"bytes={len(outs[0])}", time.time() - t0, 120.0)
