"""Domain types: intervals, rectangles, order functions, smooth-function wrappers.

All user-supplied callables (order functions, integrands, partial
derivatives) must accept numpy arrays and broadcast elementwise; the
quadrature engine evaluates them on whole node vectors at once.
:class:`SeparableFn2` is the two-variable function that the partial
operators can take apart axis by axis.
"""

from __future__ import annotations

import enum
import math
import numbers
from dataclasses import dataclass
from typing import Callable, Optional

import numpy as np

from .errors import ConfigurationError, DomainError, ValidityError

_CHECK_RNG_SEED = 0x5EED
# points per side of the lattice on which an order function's bounds are checked
_VALIDATION_GRID = 64


def _as_array_fn(fn):
    """Wrap a callable so scalar-returning constants broadcast like arrays.

    The result takes the broadcast shape of the arguments and of what
    ``fn`` returned, so a section whose frozen coordinates add axes keeps
    them."""

    def wrapped(*args):
        out = np.asarray(fn(*args), dtype=float)
        shape = np.broadcast(out, *args).shape
        if out.shape != shape:
            out = np.broadcast_to(out, shape).copy()
        return out

    return wrapped


def _is_count(value, least: int) -> bool:
    """Whether value is a finite integral number >= least."""
    return (isinstance(value, numbers.Real) and math.isfinite(value) and value >= least
            and int(value) == value)


def _require_count(name: str, value, least: int) -> int:
    """int(value); DomainError unless value is an integer >= least."""
    if not _is_count(value, least):
        kind = {0: "a non-negative integer", 1: "a positive integer"}.get(
            least, f"an integer >= {least}")
        raise DomainError(f"{name} must be {kind}, got {value}")
    return int(value)


@dataclass(frozen=True)
class Interval:
    """Closed interval [a, b] with a < b."""

    a: float
    b: float

    def __post_init__(self):
        if not (np.isfinite(self.a) and np.isfinite(self.b)):
            raise DomainError(f"interval endpoints must be finite, got [{self.a}, {self.b}]")
        if not self.a < self.b:
            raise DomainError(f"interval requires a < b, got [{self.a}, {self.b}]")

    @property
    def length(self) -> float:
        return self.b - self.a

    def contains(self, x: float, tol: float = 0.0) -> bool:
        return self.a - tol <= x <= self.b + tol

    def interior_grid(self, n: int) -> np.ndarray:
        """n uniformly spaced strictly interior points."""
        return self.a + (np.arange(1, n + 1) / (n + 1)) * self.length


@dataclass(frozen=True)
class Rect2:
    """Axis-aligned rectangle [a1, b1] x [a2, b2]."""

    t1: Interval
    t2: Interval

    @classmethod
    def of(cls, a1: float, b1: float, a2: float, b2: float) -> "Rect2":
        return cls(Interval(a1, b1), Interval(a2, b2))

    def axis(self, i: int) -> Interval:
        if i == 1:
            return self.t1
        if i == 2:
            return self.t2
        raise DomainError(f"axis must be 1 or 2, got {i}")

    @property
    def area(self) -> float:
        return self.t1.length * self.t2.length


class BoundMode(enum.Enum):
    """Which open interval the order function is declared to live in.

    PLAIN:            0 < alpha < 1
    ABOVE_ONE_OVER_L: 1/l < alpha < 1      (integration-by-parts regime)
    BELOW_ONE_MINUS:  0 < alpha < 1 - 1/l  (Green-identity regime)
    """

    PLAIN = "plain"
    ABOVE_ONE_OVER_L = "above_one_over_l"
    BELOW_ONE_MINUS = "below_one_minus"


@dataclass(frozen=True)
class VariableOrder:
    """Order function alpha(t, tau) together with its declared bounds.

    ``fn`` is evaluated with both arguments in ``domain``; left-sided kernels
    call it as alpha(t, tau), right-sided kernels as alpha(tau, t).  On
    construction the values are sampled on a 64 x 64 lattice of domain x
    domain and must lie strictly inside the interval implied by
    ``bound_mode`` and ``l``, unless ``validate`` is off.
    """

    fn: Callable[[np.ndarray, np.ndarray], np.ndarray]
    domain: Interval
    l: int = 2
    bound_mode: BoundMode = BoundMode.PLAIN
    validate: bool = True

    def __post_init__(self):
        if not _is_count(self.l, 2):
            raise ValidityError(f"bound parameter l must be an integer >= 2, got {self.l}")
        object.__setattr__(self, "fn", _as_array_fn(self.fn))
        if self.validate:
            self._check_bounds_on_grid()

    @property
    def bounds(self) -> tuple[float, float]:
        if self.bound_mode is BoundMode.ABOVE_ONE_OVER_L:
            return (1.0 / self.l, 1.0)
        if self.bound_mode is BoundMode.BELOW_ONE_MINUS:
            return (0.0, 1.0 - 1.0 / self.l)
        return (0.0, 1.0)

    def __call__(self, t, tau):
        return self.fn(t, tau)

    def _check_bounds_on_grid(self):
        lo, hi = self.bounds
        g = np.linspace(self.domain.a, self.domain.b, _VALIDATION_GRID)
        tt, uu = np.meshgrid(g, g, indexing="ij")
        vals = self.fn(tt, uu)
        bad = ~((vals > lo) & (vals < hi))
        if np.any(bad):
            i, j = np.argwhere(bad)[0]
            raise ValidityError(
                f"order function leaves ({lo:g}, {hi:g}) declared by mode "
                f"'{self.bound_mode.value}' with l={self.l}: "
                f"alpha({tt[i, j]:.6g}, {uu[i, j]:.6g}) = {vals[i, j]:.6g}"
            )

    @classmethod
    def constant(cls, value: float, domain: Interval, l: int = 2,
                 bound_mode: BoundMode = BoundMode.PLAIN) -> "VariableOrder":
        return cls(lambda t, tau: value + 0.0 * t + 0.0 * tau, domain, l, bound_mode)


# (offsets in steps, weights) of the 4th-order first-derivative stencils;
# the one-sided stencil runs the way of its step's sign
_CENTRAL = ((-2.0, -1.0, 1.0, 2.0), (1.0, -8.0, 8.0, -1.0))
_ONE_SIDED = ((0.0, 1.0, 2.0, 3.0, 4.0), (-25.0, 48.0, -36.0, 16.0, -3.0))


def _fd_derivative(fn, step, stencil=_CENTRAL):
    """The library's one 4th-order finite difference of an elementwise fn,
    from its values at the points ``x + offset * step`` of ``stencil``, step
    a float or an array that broadcasts against x.  ``fn`` is called once,
    on those copies of x stacked on a new leading axis; the weighted values
    are summed left to right and divided by ``12 * step``."""
    offsets, weights = stencil

    def dfn(x):
        v = fn(np.stack([x + k * step for k in offsets]))
        acc = weights[0] * v[0]
        for k in range(1, len(weights)):
            acc = acc + weights[k] * v[k]
        return acc / (12.0 * step)

    return dfn


class SmoothFn1:
    """Scalar function of one variable with an optional analytic derivative.

    When both ``derivative`` and ``domain`` are supplied (and ``check`` is
    on), the derivative is compared against a central finite difference of
    ``value`` at 16 interior points to 1e-6 absolute.
    """

    def __init__(self, value, derivative=None, *, domain: Optional[Interval] = None,
                 check: bool = True):
        self.value = _as_array_fn(value)
        self.derivative = None if derivative is None else _as_array_fn(derivative)
        if check and self.derivative is not None and domain is not None:
            self._check_derivative(domain)

    def __call__(self, t):
        return self.value(t)

    @classmethod
    def wrap(cls, f) -> "SmoothFn1":
        return f if isinstance(f, SmoothFn1) else cls(f, check=False)

    def derivative_callable(self, interval: Interval, allow_fd: bool = True):
        """Return (derivative function, used_fd_fallback).

        The fallback is a 4th-order central difference of step
        length * 1e-5; callers that disable it get a ConfigurationError
        when no analytic derivative was supplied.
        """
        if self.derivative is not None:
            return self.derivative, False
        if not allow_fd:
            raise ConfigurationError(
                "no analytic derivative available and the finite-difference "
                "fallback is disabled"
            )
        return _fd_derivative(self.value, interval.length * 1e-5), True

    def _check_derivative(self, domain: Interval):
        rng = np.random.default_rng(_CHECK_RNG_SEED)
        pts = domain.a + (0.05 + 0.9 * rng.random(16)) * domain.length
        fd = _fd_derivative(self.value, domain.length * 1e-6)
        err = np.max(np.abs(fd(pts) - self.derivative(pts)))
        if not err <= 1e-6:
            raise ValidityError(
                f"declared derivative disagrees with a finite difference of the "
                f"value by {err:.3e} (> 1e-6)"
            )


class SmoothFn2:
    """Scalar function of two variables with optional analytic partials."""

    def __init__(self, value, d_t1=None, d_t2=None, *, domain: Optional[Rect2] = None,
                 check: bool = True):
        self.value = _as_array_fn(value)
        self.d_t1 = None if d_t1 is None else _as_array_fn(d_t1)
        self.d_t2 = None if d_t2 is None else _as_array_fn(d_t2)
        if check and domain is not None:
            self._check_partials(domain)

    def __call__(self, t1, t2):
        return self.value(t1, t2)

    @classmethod
    def wrap(cls, f) -> "SmoothFn2":
        return f if isinstance(f, SmoothFn2) else cls(f, check=False)

    def section(self, axis: int, frozen) -> SmoothFn1:
        """One-variable section with the other coordinate frozen.

        ``frozen`` may be an array that broadcasts against the section's
        argument, such as a column holding one frozen value per row.  The
        section's derivative comes from the matching analytic partial when
        present; otherwise it is left unset so the one-variable operators
        apply their own finite-difference policy.
        """
        if axis == 1:
            value = lambda s: self.value(s, frozen)
            part = self.d_t1
            dsec = None if part is None else (lambda s: part(s, frozen))
        elif axis == 2:
            value = lambda s: self.value(frozen, s)
            part = self.d_t2
            dsec = None if part is None else (lambda s: part(frozen, s))
        else:
            raise DomainError(f"axis must be 1 or 2, got {axis}")
        return SmoothFn1(value, dsec, check=False)

    def _check_partials(self, rect: Rect2):
        rng = np.random.default_rng(_CHECK_RNG_SEED)
        p1 = rect.t1.a + (0.05 + 0.9 * rng.random(16)) * rect.t1.length
        p2 = rect.t2.a + (0.05 + 0.9 * rng.random(16)) * rect.t2.length
        for axis, part in ((1, self.d_t1), (2, self.d_t2)):
            if part is None:
                continue
            along, frozen = (p1, p2) if axis == 1 else (p2, p1)
            fd = _fd_derivative(self.section(axis, frozen).value, rect.axis(axis).length * 1e-6)
            err = np.max(np.abs(fd(along) - part(p1, p2)))
            if not err <= 1e-6:
                raise ValidityError(
                    f"declared partial along axis {axis} disagrees with a finite "
                    f"difference by {err:.3e} (> 1e-6)"
                )


def _sum_products(a, b):
    """Sum over the leading axis of a * b, one term after the other, so an
    element gets the same bits in any batch."""
    out = a[0] * b[0]
    for r in range(1, len(a)):
        out = out + a[r] * b[r]
    return out


class SeparableFn2(SmoothFn2):
    """Short sum of products ``sum_r g_r(t1) * h_r(t2)`` of one-variable factors.

    ``terms`` holds the (g_r, h_r) pairs, SmoothFn1 or plain callables.  A
    factor without an analytic derivative gets the finite-difference
    fallback of :meth:`SmoothFn1.derivative_callable` on its axis of
    ``rect``, and the partials are sums of products with the factors'
    derivatives.  :meth:`rows` evaluates the ``count`` factors along an
    axis; a subclass may append rows of its own there.  The partial
    integrals and Caputo derivatives of
    :func:`varfrac.operators.partial_op` act on those rows along their
    axis only.
    """

    def __init__(self, terms, rect: Rect2):
        self.terms = [(SmoothFn1.wrap(g), SmoothFn1.wrap(h)) for g, h in terms]
        self.rect = rect
        self.count = len(self.terms)
        # _factors[axis - 1][order]: every term's factor along the axis, as a
        # callable, for order 0, and its derivative for order 1
        self._factors = [([fn.value for fn in column],
                          [fn.derivative_callable(rect.axis(i + 1))[0] for fn in column])
                         for i, column in enumerate(zip(*self.terms))]
        rows = self.rows
        super().__init__(lambda t1, t2: _sum_products(rows(1, 0, t1), rows(2, 0, t2)),
                         lambda t1, t2: _sum_products(rows(1, 1, t1), rows(2, 0, t2)),
                         lambda t1, t2: _sum_products(rows(1, 0, t1), rows(2, 1, t2)),
                         check=False)

    def rows(self, axis: int, order: int, s) -> list:
        """The ``count`` factors along ``axis`` at s, or their derivatives
        for ``order`` 1, one value per row."""
        return [fn(s) for fn in self._factors[axis - 1][order]]
