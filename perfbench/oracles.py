"""mpmath reference values for the ``ops`` workload.

Every ``ops`` task evaluates one operator on a cubic

    f(tau) = p0 + p1 s + p2 s^2 + p3 s^3,   s = (tau - a) / L,

with the order alpha(x, y) = c0 + c1 (x - a) / L + c2 (y - a) / L on the
interval [a, b], L = b - a.  Left kernels read alpha(t, tau) and right
kernels alpha(tau, t), as the library documents.

* When the kernel's order is constant along the integration (``const`` and
  ``point`` orders), the operator of a polynomial has a closed form built
  from Gamma ratios; Riemann-Liouville derivatives differentiate that
  closed form with ``mpmath.diff``.
* When the order varies with tau (``both``), the reference is mpmath's
  tanh-sinh quadrature.  Riemann-Liouville derivatives then use the
  derivative of the co-order integral written in the distance variable
  s = |t - tau|, where the kernel is differentiable in t under the integral
  sign:
      d/dx int_0^D(x) s^(b-1)/Gamma(b) f(x -+ s) ds
        = D'(x) [s^(b-1)/Gamma(b) f]_(s=D) + int_0^D s^(b-1)/Gamma(b)
          [b' (ln s - psi(b)) f -+ ... + f'] ds,
  with b = 1 - alpha and b' = -(c1 + c2) / L.

None of this code calls the library; it runs outside every timed region.
"""

from __future__ import annotations

import mpmath as mp

_DPS = 25


def _mpf_list(values):
    return [mp.mpf(v) for v in values]


class _Case:
    """mpmath view of one operator instance on an interval."""

    def __init__(self, a, b, p, c):
        self.a, self.b = mp.mpf(a), mp.mpf(b)
        self.L = self.b - self.a
        self.p = _mpf_list(p)
        self.c0, self.c1, self.c2 = _mpf_list(c)

    def alpha(self, x, y):
        return self.c0 + self.c1 * (x - self.a) / self.L + self.c2 * (y - self.a) / self.L

    def f(self, tau):
        s = (tau - self.a) / self.L
        p0, p1, p2, p3 = self.p
        return p0 + s * (p1 + s * (p2 + s * p3))

    def df(self, tau):
        s = (tau - self.a) / self.L
        _, p1, p2, p3 = self.p
        return (p1 + s * (2 * p2 + 3 * p3 * s)) / self.L

    def left_coeffs(self):
        """Coefficients of f in powers of (tau - a)."""
        return [pk / self.L ** k for k, pk in enumerate(self.p)]

    def right_coeffs(self):
        """Coefficients of f in powers of (b - tau), from s = 1 - r."""
        out = []
        for j in range(4):
            e = sum(pk * mp.binomial(k, j) for k, pk in enumerate(self.p) if k >= j)
            out.append((-1) ** j * e / self.L ** j)
        return out


def _gamma_sum(coeffs, shift, d, start=0):
    """sum_k c_k k! / Gamma(k + 1 + shift) d^(k + shift), k >= start."""
    return sum(coeffs[k] * mp.factorial(k) / mp.gamma(k + 1 + shift) * d ** (k + shift)
               for k in range(start, len(coeffs)))


def _closed_form(case: _Case, kind: str, t):
    left = kind.endswith("left")
    coeffs = case.left_coeffs() if left else case.right_coeffs()
    dist = (lambda x: x - case.a) if left else (lambda x: case.b - x)
    # const/point orders: alpha is constant along the kernel, so evaluating
    # at (x, x) reads its value at the evaluation point for either side
    order = lambda x: case.alpha(x, x)
    if kind.startswith("I_"):
        return _gamma_sum(coeffs, order(t), dist(t))
    if kind.startswith("D_cap"):
        return _gamma_sum(coeffs, -order(t), dist(t), start=1)
    co_integral = lambda x: _gamma_sum(coeffs, 1 - order(x), dist(x))
    deriv = mp.diff(co_integral, t)
    return deriv if left else -deriv


def _kernel(beta, s):
    return s ** (beta - 1) / mp.gamma(beta)


def _dist_quad(g, D):
    """int_0^D g(s) ds under s = D w^4, which smooths the branch point at
    s = 0 enough for tanh-sinh to reach full working precision."""
    return mp.quad(lambda w: g(D * w ** 4) * 4 * D * w ** 3, [0, 1])


def _quadrature(case: _Case, kind: str, t):
    a, b = case.a, case.b
    if kind == "I_left":
        return _dist_quad(lambda s: _kernel(case.alpha(t, t - s), s) * case.f(t - s), t - a)
    if kind == "I_right":
        return _dist_quad(lambda s: _kernel(case.alpha(t + s, t), s) * case.f(t + s), b - t)
    if kind == "D_cap_left":
        return _dist_quad(lambda s: _kernel(1 - case.alpha(t, t - s), s) * case.df(t - s), t - a)
    if kind == "D_cap_right":
        return -_dist_quad(lambda s: _kernel(1 - case.alpha(t + s, t), s) * case.df(t + s), b - t)
    dbeta = -(case.c1 + case.c2) / case.L
    if kind == "D_rl_left":
        def integrand(s):
            beta = 1 - case.alpha(t, t - s)
            return _kernel(beta, s) * (dbeta * (mp.log(s) - mp.digamma(beta)) * case.f(t - s)
                                       + case.df(t - s))
        edge = _kernel(1 - case.alpha(t, a), t - a) * case.f(a)
        return edge + _dist_quad(integrand, t - a)
    if kind == "D_rl_right":
        def integrand(s):
            beta = 1 - case.alpha(t + s, t)
            return _kernel(beta, s) * (dbeta * (mp.log(s) - mp.digamma(beta)) * case.f(t + s)
                                       + case.df(t + s))
        edge = -_kernel(1 - case.alpha(b, t), b - t) * case.f(b)
        return -(edge + _dist_quad(integrand, b - t))
    raise ValueError(f"unknown operator kind {kind!r}")


def operator_values(kind: str, order_type: str, a: float, b: float, p, c, grid) -> list:
    """Reference values of one operator on a cubic at each grid point."""
    with mp.workdps(_DPS):
        case = _Case(a, b, p, c)
        evaluate = _quadrature if order_type == "both" else _closed_form
        return [float(evaluate(case, kind, mp.mpf(t))) for t in grid]
