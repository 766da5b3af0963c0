import math

import mpmath as mp
import numpy as np
import pytest

from varfrac import DomainError, gamma, gamma_lower_bound_check, rgamma
from varfrac.specialfn import rgamma1p

from conftest import mpgamma


def test_classical_values():
    assert gamma(5.0) == pytest.approx(24.0, rel=1e-13)
    assert gamma(1.0) == pytest.approx(1.0, rel=1e-13)
    assert gamma(0.5) == pytest.approx(math.sqrt(math.pi), rel=1e-13)


def test_relative_error_contract_on_0_10():
    xs = np.linspace(1e-4, 10.0, 2001)
    worst = 0.0
    for x in xs:
        exact = mp.gamma(mp.mpf(float(x)))
        worst = max(worst, float(abs((mp.mpf(gamma(float(x))) - exact) / exact)))
    assert worst <= 1e-13


def test_recurrence_property(rng):
    x = 0.05 + rng.random(200) * 4.95
    dev = np.abs(gamma(x + 1.0) - x * gamma(x)) / gamma(x + 1.0)
    assert np.max(dev) <= 1e-12


def test_half_integer_closed_form():
    for n in range(6):
        exact = (mp.factorial(2 * n) * mp.sqrt(mp.pi)
                 / (mp.mpf(4) ** n * mp.factorial(n)))
        assert gamma(n + 0.5) == pytest.approx(float(exact), rel=1e-12)


def test_array_input_matches_scalar():
    xs = np.array([0.3, 1.0, 2.5, 7.9])
    vals = gamma(xs)
    assert vals.shape == xs.shape
    for x, v in zip(xs, vals):
        assert v == gamma(float(x))


def test_domain_errors():
    for bad in (0.0, -1.0, -0.5, float("nan"), float("inf")):
        with pytest.raises(DomainError):
            gamma(bad)
    with pytest.raises(DomainError):
        gamma(np.array([1.0, -2.0]))
    with pytest.raises(DomainError):
        gamma(np.array([2.0, np.inf]))


def test_matches_math_gamma_on_10_171_6():
    xs = np.linspace(10.0, 171.6, 4001)[1:]
    vals = gamma(xs)
    assert np.all(np.isfinite(vals))
    exact = np.array([math.gamma(float(x)) for x in xs])
    assert np.max(np.abs(vals - exact) / exact) <= 1e-13
    assert gamma(150.0) == pytest.approx(math.gamma(150.0), rel=1e-13)  # 3.8e260


def test_overflows_to_inf_above_171_62():
    assert math.isfinite(gamma(171.62))
    assert gamma(171.63) == math.inf and gamma(1e300) == math.inf
    assert np.array_equal(gamma(np.array([2.0, 172.0, 1e300])), [1.0, np.inf, np.inf])


# a dense grid of (0, 1] with both ends approached to 1e-12 and tiny arguments
_UNIT_GRID = np.concatenate([np.linspace(1e-12, 1.0 - 1e-12, 10001), [1.0],
                             np.geomspace(1e-300, 1e-12, 60)])


def test_reciprocal_against_mpmath_on_0_1():
    vals = rgamma(_UNIT_GRID)
    worst = 0.0
    for x, v in zip(_UNIT_GRID, vals):
        exact = mp.rgamma(mp.mpf(float(x)))
        worst = max(worst, float(abs((mp.mpf(float(v)) - exact) / exact)))
    assert worst <= 5e-16


def test_polynomial_is_reciprocal_of_gamma_of_one_plus_x():
    xs = np.concatenate([[0.0], _UNIT_GRID[::10]])
    worst = 0.0
    for x, v in zip(xs, rgamma1p(xs)):
        exact = mp.rgamma(1 + mp.mpf(float(x)))
        worst = max(worst, float(abs((mp.mpf(float(v)) - exact) / exact)))
    assert worst <= 5e-16
    assert rgamma1p(0.5) == pytest.approx(2.0 / math.sqrt(math.pi), rel=1e-16)


@pytest.mark.parametrize("fn", [rgamma, rgamma1p])
def test_reciprocal_array_call_is_scalar_call_bit_for_bit(fn):
    xs = _UNIT_GRID[::37].reshape(-1, 1)
    vals = fn(xs)
    assert vals.shape == xs.shape
    assert [fn(float(x)) for x in xs.ravel()] == list(vals.ravel())
    assert isinstance(fn(0.3), float)


def test_reciprocal_domain_errors():
    for bad in (0.0, -0.5, 1.0 + 1e-15, 2.0, float("nan"), float("inf")):
        with pytest.raises(DomainError):
            rgamma(bad)
    with pytest.raises(DomainError):
        rgamma(np.array([0.5, 1.5]))


def test_lower_bound_endpoints_and_midpoint():
    assert gamma_lower_bound_check(0.0)   # Gamma(1) = 1 >= 1
    assert gamma_lower_bound_check(1.0)   # Gamma(2) = 1 >= 1
    # derived: Gamma(1.5) ~ 0.886227 >= 1.25 / 1.5 ~ 0.833333
    assert mpgamma(1.5) >= 1.25 / 1.5
    assert gamma_lower_bound_check(0.5)


def test_lower_bound_grid_1001():
    grid = np.linspace(0.0, 1.0, 1001)
    assert all(gamma_lower_bound_check(float(x)) for x in grid)


def test_lower_bound_domain_error():
    for bad in (-0.1, 1.1):
        with pytest.raises(DomainError):
            gamma_lower_bound_check(bad)
