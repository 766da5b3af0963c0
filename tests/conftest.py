"""Shared fixtures: independent oracles and random polynomial instances.

Expected values come from mpmath (high-precision Gamma) or explicit
brute-force quadrature, never from the code paths under test.
"""

import os
from pathlib import Path

import mpmath as mp
import numpy as np
import pytest

from varfrac import Interval, Rect2, SmoothFn1, SmoothFn2

mp.mp.dps = 30

UNIT = Interval(0.0, 1.0)
UNIT_RECT = Rect2(UNIT, UNIT)


def mpgamma(x: float) -> float:
    """Reference Gamma via mpmath; the independent oracle for closed forms."""
    return float(mp.gamma(mp.mpf(x)))


class Poly1:
    """Univariate polynomial with analytic derivative."""

    def __init__(self, coeffs):
        self.coeffs = np.asarray(coeffs, dtype=float)

    def __call__(self, t):
        t = np.asarray(t, dtype=float)
        out = np.zeros_like(t)
        for c in self.coeffs[::-1]:
            out = out * t + c
        return out

    def deriv(self):
        n = len(self.coeffs)
        return Poly1([i * self.coeffs[i] for i in range(1, n)]) if n > 1 else Poly1([0.0])

    def as_smooth_fn1(self) -> SmoothFn1:
        d = self.deriv()
        return SmoothFn1(self, d, check=False)


class Poly2:
    """Bivariate polynomial sum c[i,j] t1^i t2^j with analytic partials."""

    def __init__(self, coeffs):
        self.coeffs = np.asarray(coeffs, dtype=float)

    def __call__(self, t1, t2):
        t1 = np.asarray(t1, dtype=float)
        t2 = np.asarray(t2, dtype=float)
        out = 0.0
        for i in range(self.coeffs.shape[0]):
            for j in range(self.coeffs.shape[1]):
                if self.coeffs[i, j] != 0.0:
                    out = out + self.coeffs[i, j] * t1 ** i * t2 ** j
        return out + 0.0 * t1 + 0.0 * t2

    def partial(self, axis):
        c = self.coeffs
        if axis == 1:
            d = np.array([[i * c[i, j] for j in range(c.shape[1])]
                          for i in range(1, c.shape[0])]) if c.shape[0] > 1 else np.zeros((1, 1))
        else:
            d = np.array([[j * c[i, j] for j in range(1, c.shape[1])]
                          for i in range(c.shape[0])]) if c.shape[1] > 1 else np.zeros((1, 1))
        return Poly2(np.atleast_2d(d))

    def as_smooth_fn2(self) -> SmoothFn2:
        return SmoothFn2(self, self.partial(1), self.partial(2), check=False)


def random_poly1(rng, deg=3) -> Poly1:
    return Poly1(rng.uniform(-1.0, 1.0, deg + 1))


def random_poly2(rng, deg=3) -> Poly2:
    c = rng.uniform(-1.0, 1.0, (deg + 1, deg + 1))
    for i in range(deg + 1):
        for j in range(deg + 1):
            if i + j > deg:
                c[i, j] = 0.0
    return Poly2(c)


class BubblePoly2:
    """t1(1-t1)t2(1-t2) * p(t1,t2): zero trace on the unit square, analytic partials."""

    def __init__(self, poly: Poly2):
        self.p = poly

    def value(self, t1, t2):
        return t1 * (1 - t1) * t2 * (1 - t2) * self.p(t1, t2)

    def d1(self, t1, t2):
        bub = t1 * (1 - t1)
        return t2 * (1 - t2) * ((1 - 2 * t1) * self.p(t1, t2) + bub * self.p.partial(1)(t1, t2))

    def d2(self, t1, t2):
        bub = t2 * (1 - t2)
        return t1 * (1 - t1) * ((1 - 2 * t2) * self.p(t1, t2) + bub * self.p.partial(2)(t1, t2))

    def as_smooth_fn2(self) -> SmoothFn2:
        return SmoothFn2(self.value, self.d1, self.d2, check=False)


@pytest.fixture(scope="session", autouse=True)
def src_on_child_pythonpath():
    """Put this checkout's src/ first on PYTHONPATH, so child interpreters
    (``python -m varfrac.cli``) import the package under test; pytest's
    ``pythonpath`` setting reaches only its own process."""
    src = str(Path(__file__).resolve().parents[1] / "src")
    old = os.environ.get("PYTHONPATH")
    os.environ["PYTHONPATH"] = src if not old else src + os.pathsep + old
    yield
    if old is None:
        del os.environ["PYTHONPATH"]
    else:
        os.environ["PYTHONPATH"] = old


@pytest.fixture
def rng():
    return np.random.default_rng(20240811)
