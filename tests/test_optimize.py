import numpy as np
import pytest

from varfrac import OptimizationError, fd_gradient, minimize_bfgs


def test_fd_gradient_on_quadratic():
    fun = lambda x: float(x @ x + 3.0 * x[0])
    x = np.array([0.7, -1.2])
    g = fd_gradient(fun, x)
    assert g == pytest.approx([2 * 0.7 + 3.0, -2.4], rel=1e-8)


def test_converges_on_quadratic():
    A = np.array([[3.0, 1.0], [1.0, 2.0]])
    b = np.array([1.0, -2.0])
    fun = lambda x: float(0.5 * x @ A @ x - b @ x)
    res = minimize_bfgs(fun, np.zeros(2), grad_tol=1e-9, max_iter=100)
    assert res.converged
    assert res.x == pytest.approx(np.linalg.solve(A, b), abs=1e-6)
    assert not res.nonconvex
    assert res.iterations < 50


def test_exact_gradient_replaces_finite_differences():
    A = np.array([[3.0, 1.0], [1.0, 2.0]])
    b = np.array([1.0, -2.0])
    calls = []

    def fun(x):
        calls.append(1)
        return float(0.5 * x @ A @ x - b @ x)

    res = minimize_bfgs(fun, np.zeros(2), grad_tol=1e-9, max_iter=100,
                        grad=lambda x: A @ x - b)
    assert res.converged
    assert res.x == pytest.approx(np.linalg.solve(A, b), abs=1e-9)
    # fun_evals counts the calls of fun, and with grad= there are no
    # finite-difference gradients among them
    assert res.fun_evals == len(calls) < 2 * len(b) * res.iterations


def test_converges_on_rosenbrock():
    fun = lambda x: float((1 - x[0]) ** 2 + 100 * (x[1] - x[0] ** 2) ** 2)
    res = minimize_bfgs(fun, np.array([-1.2, 1.0]), grad_tol=1e-6, max_iter=300)
    assert res.converged
    assert res.x == pytest.approx([1.0, 1.0], abs=1e-4)


def test_already_stationary():
    fun = lambda x: float(x @ x)
    res = minimize_bfgs(fun, np.zeros(3), grad_tol=1e-7)
    assert res.converged and res.iterations == 0


def test_nonconvex_flag_on_concave_objective():
    fun = lambda x: float(-(x @ x))
    res = minimize_bfgs(fun, np.array([0.5]), grad_tol=1e-12, max_iter=5)
    assert res.nonconvex
    assert not res.converged


def test_non_finite_objective_carries_coefficients():
    def fun(x):
        with np.errstate(invalid="ignore"):
            return float(np.sqrt(1.0 - x[0]))

    with pytest.raises(OptimizationError) as exc_info:
        minimize_bfgs(fun, np.array([0.9]), grad_tol=1e-12, max_iter=50)
    assert exc_info.value.coeffs is not None
    assert exc_info.value.coeffs[0] > 1.0


def test_max_iter_reported():
    # slow narrow valley, few iterations allowed
    fun = lambda x: float((1 - x[0]) ** 2 + 100 * (x[1] - x[0] ** 2) ** 2)
    res = minimize_bfgs(fun, np.array([-1.2, 1.0]), grad_tol=1e-10, max_iter=3)
    assert not res.converged
    assert res.iterations == 3
