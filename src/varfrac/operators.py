"""The six variable-order fractional operators on an interval, plus the
partial (two-variable) versions obtained by freezing the other coordinate.

Conventions, applied uniformly through :class:`SingularKernelSpec`:

* left kernels read the order as alpha(t, tau), right kernels as
  alpha(tau, t) -- the argument transposition lives in the quadrature
  engine and nowhere else;
* Riemann-Liouville derivatives differentiate the order-(1 - alpha)
  integral in its free endpoint with the 4th-order stencils of
  :func:`~varfrac.domain._fd_derivative`.  The step shrinks in proportion
  to the distance from the weakly singular endpoint (the integral's
  derivatives blow up there, and a fixed step would lose all accuracy).
  Where the central stencil would cross the regular endpoint, a one-sided
  stencil points back to the singular one, which it never reaches;
* Caputo derivatives apply the order-(1 - alpha) integral to df/dtau,
  using the analytic derivative when available and a finite-difference
  fallback otherwise;
* at an empty range, integrals and Caputo derivatives return 0 by
  continuity while Riemann-Liouville derivatives raise, their limit being
  genuinely undefined.

Every operator takes a scalar or an array of points and returns a float or
an array of that shape.  The kernel integrals of a call go in bounded
batches to :class:`KernelRule`.  The kernel depends on the singular
endpoint alone, never on a frozen coordinate, so a partial operator keeps
the axis coordinates and the frozen ones apart: the points are laid out
as one row per axis coordinate and one column per frozen point that it
meets (a grid with t1 a column and t2 a row is n rows of m columns), each
rule has one row per row of points, and the field is called once on those
rows against the frozen coordinates, broadcasting to rows x columns x
nodes.  So a grid passed as a column and a row costs one rule row per
axis coordinate, while paired points (two arrays of one shape) cost one
per point, a repeated axis coordinate included.  A partial integral or
Caputo derivative of a :class:`SeparableFn2` goes further
(:func:`factor_op`): one rule per batch of axis coordinates integrates
every factor along the axis at once, and the factors of the other axis
are multiplied in at the frozen coordinates.  Rule construction is
elementwise and each row is reduced on its own, so every value is
bit-identical to the one-point call.  All operations are pure.
"""

from __future__ import annotations

import enum
import math
from typing import Optional

import numpy as np

from .domain import (_CENTRAL, _ONE_SIDED, Rect2, SeparableFn2, SmoothFn1, SmoothFn2,
                     VariableOrder, _fd_derivative, _sum_products)
from .errors import DomainError, ValidityError
from .quadrature import (DEFAULT_QUAD, KernelRule, QuadConfig, Side, SingularKernelSpec,
                         WeightShift, _require_finite)

# step = min(h, _STEP_DISTANCE_FRACTION * distance-to-singular-endpoint)
_STEP_DISTANCE_FRACTION = 0.1
_DEFAULT_STEP_FRACTION = 1e-4
# bound on the kernel nodes per batch of evaluation points, so memory stays
# flat for any number of points (a stencil multiplies it by at most 5)
_BATCH_NODES = 1 << 16
# the frozen coordinates of a one-variable operator: one column, no value
_NO_FROZEN = np.zeros((1, 1))


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
        raise DomainError(message(float(t.flat[np.argmin(ok)])))


def _stencil_derivative(F, t: np.ndarray, lo: float, hi: float, h: float, left: bool,
                        out: np.ndarray):
    """d/dt of a field F with algebraic behaviour at its singular endpoint,
    lo for a left kernel and hi for a right one, 4th order, into out.

    ``F(i, x)`` evaluates the field at the stencil points ``x[k, j, 0]`` of
    the points ``t[i]``, i an index array, and returns the values, one per
    stencil point, point and column of ``out``.  The step is
    ``min(h, 0.1 * distance to the singular endpoint)``.  The central
    stencil serves the points where it fits in [lo, hi], the one-sided
    stencil the others, each in one call of F.
    """
    if h <= 0.0:
        raise DomainError(f"stencil step must be positive, got {h}")
    h_eff = np.minimum(h, _STEP_DISTANCE_FRACTION * (t - lo if left else hi - t))
    _check(h_eff > 0.0, t, lambda x: "evaluation point coincides with the singular endpoint")
    # Every stencil point lies within 4 h_eff <= 0.4 * distance (up to the
    # rounding of 0.1 and of the distance) of t, so the exact value of a
    # point on the singular side lies at least 0.6 * distance inside the
    # range, and rounding it to the nearest double cannot carry it past the
    # singular endpoint, itself a double.  So only the regular endpoint can
    # stop the central stencil, and there the one-sided stencil, pointed at
    # the singular endpoint (a negative step for a left kernel, a positive
    # one for a right kernel), always fits: for any t that passes the range
    # check, t beyond the order's domain included.
    central = (t - 2.0 * h_eff >= lo) & (t + 2.0 * h_eff <= hi)
    for mask, stencil, sign in ((central, _CENTRAL, 1.0),
                                (~central, _ONE_SIDED, -1.0 if left else 1.0)):
        i = mask.nonzero()[0]
        if i.size:
            out[i] = _fd_derivative(lambda x: F(i, x), sign * h_eff[i, None], stencil)(t[i, None])


def _rule(kind: OpKind, alpha: VariableOrder, a: float, b: float, x: np.ndarray,
          cfg: QuadConfig) -> KernelRule:
    """The kernel rule of ``kind`` at the singular endpoints x, over [a, x]
    for a left kernel and [x, b] for a right one."""
    left = kind in _LEFT
    spec = SingularKernelSpec(alpha, Side.LEFT if left else Side.RIGHT,
                              WeightShift.INTEGRAL if kind in (OpKind.I_LEFT, OpKind.I_RIGHT)
                              else WeightShift.DERIVATIVE)
    return KernelRule(spec, *((a, x) if left else (x, b)), cfg)


def _batch(kind: OpKind, section, alpha: VariableOrder, a: float, b: float, t: np.ndarray,
           frozen: np.ndarray, cfg: QuadConfig, h: Optional[float], allow_fd: bool,
           rank, where, faults: list, out: np.ndarray):
    """The operator ``kind`` at the (t.size, m) points of one batch, into
    out, which holds zeros: row i holds the axis coordinate t[i] and
    column j the frozen coordinates ``frozen[i, j]``, or ``frozen[0, j]``
    when one row serves all.

    Each kernel rule has one row per row of points, and the field is
    called once on those rows against the frozen coordinates: rows x
    columns x nodes.  A non-finite integrand value appends :func:`_fault`
    of the first point in ``rank(row, column)`` order to ``faults``, and
    the batch goes on.
    """
    def integrals(i, x):
        """Kernel integrals, over [a, x] left and [x, b] right, of the
        section (or its derivative) at the rows i, ``x[..., j, 0]`` holding
        the singular endpoints of row i[j], and any leading axes of x those
        of a stencil: an array x.shape[:-1] + (m,)."""
        fz = frozen if frozen.shape[0] == 1 else frozen[i]
        f = section(fz[..., None])
        fn = f.derivative_callable(alpha.domain, allow_fd)[0] if kind in _CAPUTO else f.value
        shape = x.shape[:-1] + frozen.shape[1:]
        if not i.size:
            return np.empty(shape)
        rule = _rule(kind, alpha, a, b, x, cfg)
        values = fn(rule.tau)
        try:
            return rule.integrate(values)
        except ValidityError:
            faults.append(_fault(rule, np.broadcast_to(values, shape + rule.tau.shape[-1:]),
                                 lambda r, j: rank(i[r], j),
                                 where and (lambda r, j: where(fz[r if len(fz) > 1 else 0, j]))))
            return np.zeros(shape)

    if kind in _RL:
        step = alpha.domain.length * _DEFAULT_STEP_FRACTION if h is None else h
        if kind in _LEFT:
            _stencil_derivative(integrals, t, a, alpha.domain.b, step, True, out)
        else:
            _stencil_derivative(integrals, t, alpha.domain.a, b, step, False, out)
            np.negative(out, out=out)
        return
    live = (t > a if kind in _LEFT else t < b).nonzero()[0]
    values = integrals(live, t[live, None])
    out[live] = -values if kind is OpKind.D_CAP_RIGHT else values


def _fault(rule: KernelRule, values: np.ndarray, rank, where):
    """``(rank(i, j), message)`` of the point (i, j) first in ``rank`` order
    among those whose integrand values ``values[..., i, j, :]``, at every
    stencil point if a leading axis holds a stencil, are not all finite;
    the message is the one the rule raises for that point alone, with
    ``where(i, j)`` appended if given."""
    i, j = np.nonzero(~np.isfinite(values).all(axis=(*range(values.ndim - 3), -1)))
    first = np.argmin(rank(i, j))
    i, j = i[first], j[first]
    try:
        _require_finite(values[..., i, j, :], "integrand value",
                        lambda idx: rule._node(idx[:-1] + (i, j) + idx[-1:]))
    except ValidityError as exc:
        return rank(i, j), str(exc) if where is None else f"{exc}, {where(i, j)}"


def _apply(kind: OpKind, section, alpha: VariableOrder, a: float, b: float, t: np.ndarray,
           frozen: np.ndarray, cfg: QuadConfig, h: Optional[float], allow_fd: bool, order,
           where=None) -> np.ndarray:
    """The operator ``kind`` at the points of a (t.size, m) layout: row i
    holds the axis coordinate t[i] and column j the frozen coordinates
    ``frozen[i, j]``, or ``frozen[0, j]`` when one row serves all.  Left
    kernels integrate from a, right to b; ``section(fz)`` is the
    one-variable integrand (a SmoothFn1) at frozen coordinates fz that
    broadcast against its argument.

    Batches of at most _BATCH_NODES kernel nodes are cut along the rows,
    and along the columns where one row alone holds more (:func:`_batch`).
    Errors name the first offending point, as a one-point call would: a
    range error the first t, and a non-finite integrand value, over all
    batches, the first point in the caller's order ``order()``, each
    point's index there as a (t.size, m) array; ``where(v)``, if given,
    adds the frozen value v to that message.
    """
    left, rl = kind in _LEFT, kind in _RL
    # an empty range is allowed, and gives 0, everywhere but under an RL derivative
    _check((t > a if rl else t >= a) if left else (t < b if rl else t <= b), t,
           lambda x: _RANGE_ERRORS[kind].format(t=x, a=a, b=b))
    m, per_batch = frozen.shape[1], max(1, _BATCH_NODES // cfg.range_nodes)
    col_step = min(m, per_batch)
    row_step = max(1, per_batch // col_step)
    out, faults, shared = np.zeros((t.size, m)), [], len(frozen) == 1
    for r0 in range(0, t.size, row_step):
        for c0 in range(0, m, col_step):
            r, c = slice(r0, r0 + row_step), slice(c0, c0 + col_step)
            _batch(kind, section, alpha, a, b, t[r], frozen[slice(None) if shared else r, c],
                   cfg, h, allow_fd, lambda i, j: order()[r0 + i, c0 + j], where, faults,
                   out[r, c])
    if faults:
        raise ValidityError(min(faults)[1])
    return out


def _grid(along: np.ndarray, frozen: np.ndarray):
    """The points of the broadcast of the axis coordinates ``along``
    against the ``frozen`` coordinates, laid out for :func:`_apply`.

    There is one row per element of ``along``, in its order, and one
    column per point of the broadcast axes along which ``along`` is
    constant; ``frozen`` keeps one row for all rows unless it varies along
    the axes of ``along`` too.  Returns the rows' coordinates, the frozen
    coordinates, the ``order`` function of :func:`_apply`, and the map of
    (rows, columns) values back to the broadcast shape.
    """
    shape = np.broadcast(along, frozen).shape
    lead = len(shape) - along.ndim
    cols = [k for k, n in enumerate(shape) if n > 1 and (k < lead or along.shape[k - lead] == 1)]
    perm = [k for k in range(len(shape)) if k not in cols] + cols
    layout, m = [shape[k] for k in perm], math.prod(shape[k] for k in cols)
    fz = frozen.reshape((1,) * (len(shape) - frozen.ndim) + frozen.shape).transpose(perm)
    back = sorted(range(len(perm)), key=perm.__getitem__)
    return (along.ravel(), (np.broadcast_to(fz, layout) if fz.size > m else fz).reshape(-1, m),
            lambda: np.arange(math.prod(shape)).reshape(shape).transpose(perm).reshape(-1, m),
            lambda out: out.reshape(layout).transpose(back))


def interval_op(kind: OpKind, f, alpha: VariableOrder, a: float, b: float, t,
                cfg: QuadConfig = DEFAULT_QUAD, h: Optional[float] = None, *,
                allow_fd_derivative: bool = True):
    """One-variable operator ``kind`` on [a, b] at t, a scalar or an array.

    Left operators integrate from a, right operators to b; the arguments
    are those of the matching named operator.
    """
    f = SmoothFn1.wrap(f)
    t = np.asarray(t, dtype=float)
    values = _apply(OpKind(kind), lambda frozen: f, alpha, a, b, t.ravel(), _NO_FROZEN, cfg, h,
                    allow_fd_derivative, lambda: np.arange(t.size)[:, None])
    return float(values[0, 0]) if t.ndim == 0 else values.reshape(t.shape)


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
    partial operator definition.  The coordinates along the axis and the
    frozen ones keep their own shapes: each kernel rule has one row per
    element of the axis coordinates, and ``f`` is called on those rows
    against the frozen coordinates, so on a grid (t1 a column, t2 a row)
    nothing is copied per point before the integrand.  Pass a grid that
    way: as paired points (two arrays of the grid's shape) every point
    builds its own rule row, however often its axis coordinate repeats.
    For a :class:`SeparableFn2` and an integral or Caputo kind, the
    operator acts on the factors along the axis instead
    (:func:`factor_op`), once per element of the axis coordinates, times
    the other factors at the frozen coordinates.  Both coordinates of
    every point must lie in the closed rectangle, else DomainError names
    the first that leaves.
    """
    if axis not in (1, 2):
        raise DomainError(f"axis must be 1 or 2, got {axis}")
    kind = OpKind(kind)
    f2 = SmoothFn2.wrap(f)
    interval = rect.axis(axis)
    t1, t2 = np.asarray(p[0], dtype=float), np.asarray(p[1], dtype=float)
    along, frozen = (t1, t2) if axis == 1 else (t2, t1)
    for x, i in ((along, axis), (frozen, 3 - axis)):
        lo, hi = rect.axis(i).a, rect.axis(i).b
        _check((x >= lo) & (x <= hi), x,
               lambda v: f"coordinate {v} leaves [{lo}, {hi}] along axis {i}")
    shape = np.broadcast(along, frozen).shape
    if not all(shape):
        return np.zeros(shape)
    if isinstance(f2, SeparableFn2) and kind not in _RL:
        # factors are evaluated on arrays, as for a batch of points, never on a 0-d one
        along, frozen = np.atleast_1d(along), np.atleast_1d(frozen)
        table = factor_op(kind, axis, f2, alpha, along.ravel(), rect, cfg)
        table = table.reshape((-1,) + along.shape)
        values = _sum_products(table, f2.stack(3 - axis, 0, frozen)).reshape(shape)
        return float(values) if values.ndim == 0 else values
    t, fz, order, back = _grid(along, frozen)
    values = back(_apply(kind, lambda fz: f2.section(axis, fz), alpha, interval.a, interval.b,
                         t, fz, cfg, h, allow_fd_derivative, order,
                         lambda v: f"t{3 - axis} = {v:.6g}"))
    return float(values) if values.ndim == 0 else np.ascontiguousarray(values)


def factor_op(kind: OpKind, axis: int, f: SeparableFn2, alpha: VariableOrder, t,
              rect: Rect2, cfg: QuadConfig = DEFAULT_QUAD) -> np.ndarray:
    """The integral or Caputo kind ``kind`` along ``axis`` of each factor of
    ``f`` on that axis, at the 1-D points t: an array (terms, t.size).

    One kernel rule per batch of points integrates all factors at once.
    The points must lie in the axis interval, as :func:`partial_op`
    checks; called on its axis coordinates, this is its 1-D work on a
    separable field, whose value at (t, frozen) is the sum over terms of
    this table times the other factor at frozen.
    """
    kind, interval, t = OpKind(kind), rect.axis(axis), np.asarray(t, dtype=float)
    live = np.flatnonzero(t > interval.a if kind in _LEFT else t < interval.b)
    out, step = np.zeros((len(f.terms), t.size)), max(1, _BATCH_NODES // cfg.range_nodes)
    for i in range(0, live.size, step):
        rule = _rule(kind, alpha, interval.a, interval.b, t[live[i:i + step]], cfg)
        values = rule.integrate(f.stack(axis, kind in _CAPUTO, rule.tau))
        out[:, live[i:i + step]] = -values if kind is OpKind.D_CAP_RIGHT else values
    return out
