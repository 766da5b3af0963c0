"""Quasi-Newton minimizer with caller-supplied or finite-difference gradients.

Objective evaluations in this library are nested quadratures, so the
curvature reuse of BFGS beats plain gradient descent by a wide margin; the
line search is Armijo backtracking.  A caller that knows the exact
gradient passes it; otherwise central finite differences stand in.
Everything is pure and deterministic.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import OptimizationError

_ARMIJO_C = 1e-4
_SHRINK = 0.5
_MAX_BACKTRACKS = 60


@dataclass
class MinimizeResult:
    x: np.ndarray
    fun: float
    gradient_norm: float
    iterations: int
    converged: bool
    nonconvex: bool
    fun_evals: int


def fd_gradient(fun, x: np.ndarray, rel_step: float = 1e-6) -> np.ndarray:
    """Central finite-difference gradient with per-coordinate step
    rel_step * (1 + |x_i|)."""
    x = np.asarray(x, dtype=float)
    g = np.empty_like(x)
    for i in range(x.size):
        h = rel_step * (1.0 + abs(x[i]))
        xp, xm = x.copy(), x.copy()
        xp[i] += h
        xm[i] -= h
        g[i] = (fun(xp) - fun(xm)) / (2.0 * h)
    return g


def minimize_bfgs(fun, x0, *, grad_tol: float = 1e-7, max_iter: int = 500,
                  rel_step: float = 1e-6, grad=None) -> MinimizeResult:
    """Minimize ``fun`` from ``x0`` by BFGS.

    ``grad(x)`` returns the gradient of ``fun``; when it is omitted,
    :func:`fd_gradient` with ``rel_step`` stands in.  ``fun_evals`` counts
    the calls of ``fun``, including those of the finite-difference
    fallback.  Stops when the gradient 2-norm drops below ``grad_tol`` or after
    ``max_iter`` accepted steps.  A secant pair with non-positive curvature
    (s . y <= 0) certifies that the objective is not convex along the path;
    the update is skipped and the result is flagged ``nonconvex``.

    Raises:
        OptimizationError: if the objective goes non-finite; the error
            carries the offending coefficients.
    """
    x = np.asarray(x0, dtype=float).copy()
    f = float(fun(x))
    evals = 1
    if not np.isfinite(f):
        raise OptimizationError("objective is non-finite at the starting point", x)
    n = x.size
    # with the finite-difference fallback every gradient costs 2n calls of fun
    gradient, grad_evals = (grad, 0) if grad is not None \
        else (lambda z: fd_gradient(fun, z, rel_step), 2 * n)
    H = np.eye(n)
    g = np.asarray(gradient(x), dtype=float)
    evals += grad_evals
    nonconvex = False
    iterations = 0

    while iterations < max_iter:
        if float(np.linalg.norm(g)) <= grad_tol:
            break
        d = -H @ g
        slope = float(g @ d)
        if slope >= 0.0:  # numerical loss of descent; restart curvature
            H = np.eye(n)
            d = -g
            slope = -float(g @ g)

        step = 1.0
        accepted = False
        for _ in range(_MAX_BACKTRACKS):
            x_new = x + step * d
            f_new = float(fun(x_new))
            evals += 1
            if not np.isfinite(f_new):
                raise OptimizationError(
                    f"objective became non-finite during line search (step {step:.3e})",
                    x_new,
                )
            if f_new <= f + _ARMIJO_C * step * slope:
                accepted = True
                break
            step *= _SHRINK
        if not accepted:
            break  # no descent at the smallest step: treat as stalled

        g_new = np.asarray(gradient(x_new), dtype=float)
        evals += grad_evals
        s = x_new - x
        y = g_new - g
        sy = float(s @ y)
        if sy <= 0.0:
            nonconvex = True  # negative secant curvature certified
        elif sy > 1e-12 * float(np.linalg.norm(s)) * float(np.linalg.norm(y)):
            rho = 1.0 / sy
            sy_outer = np.outer(s, y)
            H = (np.eye(n) - rho * sy_outer) @ H @ (np.eye(n) - rho * sy_outer.T) \
                + rho * np.outer(s, s)
        x, f, g = x_new, f_new, g_new
        iterations += 1

    gnorm = float(np.linalg.norm(g))
    return MinimizeResult(
        x=x, fun=f, gradient_norm=gnorm, iterations=iterations,
        converged=gnorm <= grad_tol, nonconvex=nonconvex, fun_evals=evals,
    )
