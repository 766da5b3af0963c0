"""The six variable-order fractional operators on an interval, plus the
partial (two-variable) versions obtained by freezing the other coordinate.

Conventions, applied uniformly through :class:`SingularKernelSpec`:

* left kernels read the order as alpha(t, tau), right kernels as
  alpha(tau, t) -- the argument transposition lives in the quadrature
  engine and nowhere else;
* Riemann-Liouville derivatives differentiate the order-(1 - alpha)
  integral in its free endpoint; the derivative is taken with a 5-point
  central stencil whose step shrinks proportionally to the distance from
  the weakly singular endpoint (the integral's derivatives blow up there,
  and a fixed step would lose all accuracy), falling back to one-sided
  4th-order stencils against the opposite, regular endpoint;
* Caputo derivatives apply the order-(1 - alpha) integral to df/dtau,
  using the analytic derivative when available and a finite-difference
  fallback otherwise;
* at an empty range, integrals and Caputo derivatives return 0 by
  continuity while Riemann-Liouville derivatives raise, their limit being
  genuinely undefined.

Every operator takes a scalar or an array of points and returns a float or
an array of that shape.  The kernel integrals of a call go in bounded
batches to :class:`KernelRule`.  The kernel depends on the singular
endpoint alone, never on a frozen coordinate, so where a batch repeats
endpoints (a grid of a partial operator) its rule has one row per distinct
endpoint, gathered per point.  A partial integral or Caputo derivative of
a :class:`SeparableFn2` goes further (:func:`factor_op`): one rule per
batch of distinct axis coordinates integrates every factor along the axis
at once, and the factors of the other axis are multiplied in afterwards;
RL derivatives and other fields integrate the section at each point.
Rule construction is elementwise and each row is reduced on its own, so
every value is bit-identical to the one-point call.  All operations are
pure.
"""

from __future__ import annotations

import enum
from typing import Optional

import numpy as np

from .domain import Rect2, SeparableFn2, SmoothFn1, SmoothFn2, VariableOrder, _sum_products
from .errors import DomainError, ValidityError
from .quadrature import (DEFAULT_QUAD, KernelRule, QuadConfig, Side, SingularKernelSpec,
                         WeightShift)

# step = min(h, _STEP_DISTANCE_FRACTION * distance-to-singular-endpoint)
_STEP_DISTANCE_FRACTION = 0.1
_DEFAULT_STEP_FRACTION = 1e-4
# bound on the kernel nodes per batch of evaluation points, so memory stays
# flat for any number of points (a stencil multiplies it by at most 5)
_BATCH_NODES = 1 << 16

# (offsets in steps, weights) of the 4th-order first-derivative stencils,
# in the order they are tried; the weights are applied left to right and
# the sum divided by 12 * step
_STENCILS = (
    ((-2.0, -1.0, 1.0, 2.0), (1.0, -8.0, 8.0, -1.0)),
    ((0.0, 1.0, 2.0, 3.0, 4.0), (-25.0, 48.0, -36.0, 16.0, -3.0)),
    ((0.0, -1.0, -2.0, -3.0, -4.0), (25.0, -48.0, 36.0, -16.0, 3.0)),
)


class OpKind(enum.Enum):
    I_LEFT = "I_left"
    I_RIGHT = "I_right"
    D_RL_LEFT = "D_rl_left"
    D_RL_RIGHT = "D_rl_right"
    D_CAP_LEFT = "D_cap_left"
    D_CAP_RIGHT = "D_cap_right"


# kind: message for an evaluation point outside the operator's range
_RANGE_ERRORS = {
    OpKind.I_LEFT: "left integral needs t >= a, got t={t}, a={a}",
    OpKind.I_RIGHT: "right integral needs t <= b, got t={t}, b={b}",
    OpKind.D_RL_LEFT: "left RL derivative is undefined for t <= a (t={t}, a={a})",
    OpKind.D_RL_RIGHT: "right RL derivative is undefined for t >= b (t={t}, b={b})",
    OpKind.D_CAP_LEFT: "left Caputo derivative needs t >= a, got t={t}, a={a}",
    OpKind.D_CAP_RIGHT: "right Caputo derivative needs t <= b, got t={t}, b={b}",
}
_LEFT = (OpKind.I_LEFT, OpKind.D_RL_LEFT, OpKind.D_CAP_LEFT)
_RL = (OpKind.D_RL_LEFT, OpKind.D_RL_RIGHT)
_CAPUTO = (OpKind.D_CAP_LEFT, OpKind.D_CAP_RIGHT)


def _check(ok: np.ndarray, t: np.ndarray, message):
    """Raise DomainError with ``message(t)`` at the first point failing ``ok``."""
    if not ok.all():
        raise DomainError(message(float(t[np.argmin(ok)])))


def _stencil_derivative(F, t: np.ndarray, lo: float, hi: float, h: float,
                        dist_to_singular: np.ndarray) -> np.ndarray:
    """d/dt of a field F with algebraic endpoint behaviour, 4th order.

    ``F(x, rows)`` evaluates the field at stencil points x, where ``rows``
    indexes the point of t that each stencil point belongs to; the stencil
    points of all of t that share a stencil go to F in one call.
    """
    if h <= 0.0:
        raise DomainError(f"stencil step must be positive, got {h}")
    h_eff = np.minimum(h, _STEP_DISTANCE_FRACTION * dist_to_singular)
    _check(h_eff > 0.0, t, lambda x: "evaluation point coincides with the singular endpoint")
    central = (t - 2.0 * h_eff >= lo) & (t + 2.0 * h_eff <= hi)
    forward = ~central & (t + 4.0 * h_eff <= hi)
    backward = ~central & ~forward & (t - 4.0 * h_eff >= lo)
    fits = central | forward | backward
    if not fits.all():
        i = int(np.argmin(fits))
        raise DomainError(
            f"no 5-point stencil of step {h_eff[i]:.3e} fits inside [{lo}, {hi}] at t={t[i]}; "
            f"reduce the step h"
        )
    out = np.empty(t.shape)
    for mask, (offsets, weights) in zip((central, forward, backward), _STENCILS):
        i = np.flatnonzero(mask)
        x = (t[i, None] + np.array(offsets) * h_eff[i, None]).ravel()
        v = F(x, np.repeat(i, len(offsets))).reshape(i.size, len(offsets))
        acc = weights[0] * v[:, 0]
        for k in range(1, len(offsets)):
            acc = acc + weights[k] * v[:, k]
        out[i] = acc / (12.0 * h_eff[i])
    return out


def _distinct(x: np.ndarray):
    """The distinct values of x, compared by bits (0.0 and -0.0 stay apart)
    and in order of first occurrence, and the index of each x among them."""
    _, first, inverse = np.unique(x.view(np.int64), return_index=True, return_inverse=True)
    return x[np.sort(first)], np.argsort(np.argsort(first))[inverse]


def _rule(kind: OpKind, alpha: VariableOrder, a: float, b: float, x: np.ndarray,
          cfg: QuadConfig, rows=None) -> KernelRule:
    """The kernel rule of ``kind`` at the singular endpoints x, over [a, x]
    for a left kernel and [x, b] for a right one."""
    left = kind in _LEFT
    spec = SingularKernelSpec(alpha, Side.LEFT if left else Side.RIGHT,
                              WeightShift.INTEGRAL if kind in (OpKind.I_LEFT, OpKind.I_RIGHT)
                              else WeightShift.DERIVATIVE)
    return KernelRule(spec, *((a, x) if left else (x, b)), cfg, rows)


def _apply(kind: OpKind, sections, alpha: VariableOrder, a: float, b: float,
           t: np.ndarray, cfg: QuadConfig, h: Optional[float], allow_fd: bool,
           where=None) -> np.ndarray:
    """The operator ``kind`` at the 1-D points t; ``sections(rows)`` is the
    one-variable integrand (a SmoothFn1) of the points t[rows], rows being
    an index array.  Left kernels integrate from a, right to b.

    For more than one point, each kernel rule is built over the distinct
    singular endpoints and, where some endpoint repeats, its rows are
    gathered per point; stencil points of a repeated t repeat too.  A
    one-point call sorts nothing.  Errors name the first offending point,
    as a rule of one row per point would, and ``where(i)``, if given, adds
    what else locates a non-finite integrand value at point t[i]."""
    left, rl = kind in _LEFT, kind in _RL
    # an empty range is allowed, and gives 0, everywhere but under an RL derivative
    _check((t > a if rl else t >= a) if left else (t < b if rl else t <= b), t,
           lambda x: _RANGE_ERRORS[kind].format(t=x, a=a, b=b))

    def integrals(points, x):
        """Kernel integrals at x, over [a, x] left and [x, b] right, of the
        section (or its derivative) of the points t[points] that x belongs to."""
        f = sections(points)
        fn = f.derivative_callable(alpha.domain, allow_fd)[0] if kind in _CAPUTO else f.value
        if not x.size:
            return np.empty(0)
        rows = None
        if t.size > 1:
            distinct, inverse = _distinct(x)
            if distinct.size < x.size:
                x, rows = distinct, inverse
        rule = _rule(kind, alpha, a, b, x, cfg, rows)
        values = fn(rule.tau)
        try:
            return rule.integrate(values)
        except ValidityError as exc:
            if where is None:
                raise
            finite = np.isfinite(np.broadcast_to(values, rule.tau.shape)).all(axis=1)
            raise ValidityError(f"{exc}, {where(points[np.argmin(finite)])}") from None

    if rl:
        F = lambda x, rows: integrals(rows, x)
        step = alpha.domain.length * _DEFAULT_STEP_FRACTION if h is None else h
        if left:
            return _stencil_derivative(F, t, a, alpha.domain.b, step, t - a)
        return -_stencil_derivative(F, t, alpha.domain.a, b, step, b - t)
    live = np.flatnonzero(t > a if left else t < b)
    values = integrals(live, t[live])
    out = np.zeros(t.shape)
    out[live] = -values if kind is OpKind.D_CAP_RIGHT else values
    return out


def _shaped(values: np.ndarray, points: np.ndarray):
    """Values of the flattened points as a float for a scalar point, else in the points' shape."""
    return float(values[0]) if points.ndim == 0 else values.reshape(points.shape)


def _chunked(apply, points: np.ndarray, cfg: QuadConfig):
    """``apply`` over slices of the flattened points, each within _BATCH_NODES,
    reassembled by :func:`_shaped`."""
    n, step = points.size, max(1, _BATCH_NODES // cfg.range_nodes)
    return _shaped(apply(slice(None)) if n <= step
                   else np.concatenate([apply(slice(i, i + step)) for i in range(0, n, step)]),
                   points)


def interval_op(kind: OpKind, f, alpha: VariableOrder, a: float, b: float, t,
                cfg: QuadConfig = DEFAULT_QUAD, h: Optional[float] = None, *,
                allow_fd_derivative: bool = True):
    """One-variable operator ``kind`` on [a, b] at t, a scalar or an array.

    Left operators integrate from a, right operators to b; the arguments
    are those of the matching named operator.
    """
    f = SmoothFn1.wrap(f)
    kind = OpKind(kind)
    t = np.asarray(t, dtype=float)
    return _chunked(lambda c: _apply(kind, lambda rows: f, alpha, a, b, t.ravel()[c], cfg, h,
                                     allow_fd_derivative), t, cfg)


def left_rl_integral(f, alpha: VariableOrder, a: float, t,
                     cfg: QuadConfig = DEFAULT_QUAD):
    """Left Riemann-Liouville integral of variable order at t.

    Integral over [a, t] of (t - tau)**(alpha(t, tau) - 1) / Gamma(alpha(t, tau)) * f(tau).
    """
    return interval_op(OpKind.I_LEFT, f, alpha, a, alpha.domain.b, t, cfg)


def right_rl_integral(f, alpha: VariableOrder, t, b: float,
                      cfg: QuadConfig = DEFAULT_QUAD):
    """Right Riemann-Liouville integral of variable order at t.

    Integral over [t, b] of (tau - t)**(alpha(tau, t) - 1) / Gamma(alpha(tau, t)) * f(tau);
    note the transposed order arguments.
    """
    return interval_op(OpKind.I_RIGHT, f, alpha, alpha.domain.a, b, t, cfg)


def left_rl_derivative(f, alpha: VariableOrder, a: float, t,
                       cfg: QuadConfig = DEFAULT_QUAD, h: Optional[float] = None):
    """Left Riemann-Liouville derivative: d/dt of the left (1 - alpha)-integral."""
    return interval_op(OpKind.D_RL_LEFT, f, alpha, a, alpha.domain.b, t, cfg, h)


def right_rl_derivative(f, alpha: VariableOrder, t, b: float,
                        cfg: QuadConfig = DEFAULT_QUAD, h: Optional[float] = None):
    """Right Riemann-Liouville derivative: -d/dt of the right (1 - alpha)-integral."""
    return interval_op(OpKind.D_RL_RIGHT, f, alpha, alpha.domain.a, b, t, cfg, h)


def left_caputo_derivative(f, alpha: VariableOrder, a: float, t,
                           cfg: QuadConfig = DEFAULT_QUAD, *,
                           allow_fd_derivative: bool = True):
    """Left Caputo derivative: left (1 - alpha)-integral applied to df/dtau."""
    return interval_op(OpKind.D_CAP_LEFT, f, alpha, a, alpha.domain.b, t, cfg,
                       allow_fd_derivative=allow_fd_derivative)


def right_caputo_derivative(f, alpha: VariableOrder, t, b: float,
                            cfg: QuadConfig = DEFAULT_QUAD, *,
                            allow_fd_derivative: bool = True):
    """Right Caputo derivative: minus the right (1 - alpha)-integral of df/dtau."""
    return interval_op(OpKind.D_CAP_RIGHT, f, alpha, alpha.domain.a, b, t, cfg,
                       allow_fd_derivative=allow_fd_derivative)


def partial_op(kind: OpKind, axis: int, f, alpha: VariableOrder, p, rect: Rect2,
               cfg: QuadConfig = DEFAULT_QUAD, h: Optional[float] = None, *,
               allow_fd_derivative: bool = True):
    """Partial variable-order operator along one axis of a rectangle.

    ``p = (t1, t2)`` is one point or two arrays of coordinates that
    broadcast together; the result has their broadcast shape.  Each point
    freezes the other coordinate of ``f``, and the matching one-variable
    operator acts on that section; by construction this is exactly the
    partial operator definition.  For a :class:`SeparableFn2` and an
    integral or Caputo kind, the operator acts on the factors along the
    axis instead (:func:`factor_op`), once per distinct axis coordinate.
    Both coordinates of every point must lie in the closed rectangle, else
    DomainError names the first that leaves.
    """
    if axis not in (1, 2):
        raise DomainError(f"axis must be 1 or 2, got {axis}")
    kind = OpKind(kind)
    f2 = SmoothFn2.wrap(f)
    interval = rect.axis(axis)
    t1, t2 = np.asarray(p[0], dtype=float), np.asarray(p[1], dtype=float)
    if t1.shape != t2.shape:
        t1, t2 = np.broadcast_arrays(t1, t2)
    ti, frozen = (t1.ravel(), t2.ravel()) if axis == 1 else (t2.ravel(), t1.ravel())
    for x, i in ((ti, axis), (frozen, 3 - axis)):
        lo, hi = rect.axis(i).a, rect.axis(i).b
        _check((x >= lo) & (x <= hi), x,
               lambda v: f"coordinate {v} leaves [{lo}, {hi}] along axis {i}")
    if isinstance(f2, SeparableFn2) and kind not in _RL:
        x, inverse = _distinct(ti)
        return _shaped(_sum_products(factor_op(kind, axis, f2, alpha, x, rect, cfg)[:, inverse],
                                     f2.stack(3 - axis, 0, frozen)), t1)
    return _chunked(lambda c: _apply(kind, lambda rows: f2.section(axis, frozen[c][rows, None]),
                                     alpha, interval.a, interval.b, ti[c], cfg, h,
                                     allow_fd_derivative,
                                     lambda i: f"t{3 - axis} = {frozen[c][i]:.6g}"), t1, cfg)


def factor_op(kind: OpKind, axis: int, f: SeparableFn2, alpha: VariableOrder, t,
              rect: Rect2, cfg: QuadConfig = DEFAULT_QUAD) -> np.ndarray:
    """The integral or Caputo kind ``kind`` along ``axis`` of each factor of
    ``f`` on that axis, at the 1-D points t: an array (terms, t.size).

    One kernel rule per batch of points integrates all factors at once.
    The points must lie in the axis interval, as :func:`partial_op`
    checks; called on distinct points, this is its 1-D work on a separable
    field, whose value at (t, frozen) is the sum over terms of this table
    times the other factor at frozen.
    """
    kind, interval, t = OpKind(kind), rect.axis(axis), np.asarray(t, dtype=float)
    live = np.flatnonzero(t > interval.a if kind in _LEFT else t < interval.b)
    out, step = np.zeros((len(f.terms), t.size)), max(1, _BATCH_NODES // cfg.range_nodes)
    for i in range(0, live.size, step):
        rule = _rule(kind, alpha, interval.a, interval.b, t[live[i:i + step]], cfg)
        values = rule.integrate(f.stack(axis, kind in _CAPUTO, rule.tau))
        out[:, live[i:i + step]] = -values if kind is OpKind.D_CAP_RIGHT else values
    return out
