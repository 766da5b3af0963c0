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
an array of that shape.  One loop, :func:`_apply`, builds and integrates
every kernel rule: a call is a set of points along the axis, each with
one or more integrands, whose values go to :class:`KernelRule` in the
points-first layout (points, integrands, nodes), in batches bounded by
points x integrands x nodes.  A one-variable operator has one integrand
per point.  The kernel depends on the singular endpoint alone, never on a
frozen coordinate, so a partial operator keeps the axis coordinates and
the frozen ones apart: its points are the axis coordinates and its
integrands the sections at the frozen points each one meets (a grid with
t1 a column and t2 a row is n points of m integrands), each rule has one
row per point, and the field is called once on those rows against the
frozen coordinates.  So a grid passed as a column and a row costs one
rule row per axis coordinate, while paired points (two arrays of one
shape) cost one per point, a repeated axis coordinate included.  A
partial integral or Caputo derivative of a :class:`SeparableFn2` goes
further (:func:`factor_op`): its integrands are the field's factors along
the axis, and the factors of the other axis are multiplied in at the
frozen coordinates.  Rule construction is elementwise and each (point,
integrand) row is reduced on its own, so every value is bit-identical to
the one-point call, whatever batch it falls in.  A non-finite integrand
value is named by re-running its point alone after the loop, so the error
is the one-point call's too.  All operations are pure.
"""

from __future__ import annotations

import enum
import math
from typing import Optional

import numpy as np

from .domain import (_CENTRAL, _ONE_SIDED, Interval, Rect2, SeparableFn2, SmoothFn1,
                     SmoothFn2, VariableOrder, _fd_derivative, _sum_products)
from .errors import DomainError, ValidityError
from .quadrature import (DEFAULT_QUAD, KernelRule, QuadConfig, Side, SingularKernelSpec,
                         WeightShift)

# step = min(h, _STEP_DISTANCE_FRACTION * distance-to-singular-endpoint)
_STEP_DISTANCE_FRACTION = 0.1
_DEFAULT_STEP_FRACTION = 1e-4
# bound on the integrand values (points x integrands x kernel nodes) per
# batch, so memory stays flat for any number of points and integrands (a
# stencil multiplies it by at most 5)
_BATCH_NODES = 1 << 16


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


def _apply(kind: OpKind, integrand, lead: int, alpha: VariableOrder, a: float, b: float,
           t: np.ndarray, cfg: QuadConfig, h: Optional[float] = None, rank=None,
           where=None) -> np.ndarray:
    """The operator ``kind`` of ``lead`` integrands at the points t: a
    (t.size, lead) table.  Left kernels integrate from a, right ones to b.

    This is the one loop that builds and integrates kernel rules.
    ``integrand(tau, i, c)`` returns the values of the integrands c, a
    slice, for the points t[i] at their kernel nodes tau, in the
    points-first layout ``(..., points, integrands, N+1)``; tau has shape
    ``(..., points, 1, N+1)``, any leading axes holding an RL stencil.  The
    integrand of a Caputo kind is the field's derivative; the sign of the
    right derivatives is applied here.  Batches of at most _BATCH_NODES
    values (points x integrands x nodes) are cut along the points, and
    along the integrands where one point's alone exceed that.

    Errors name the first offending point, as a one-point call would: a
    range error the first t.  Without ``rank`` a non-finite integrand value
    raises the rule's own ValidityError.  With it, the (point, integrand)
    rows of such a value are NaN, an RL stencil carrying them into the
    derivative, and after the loop the non-finite results are re-run one
    at a time, alone, in ``rank(i, j)`` order: the first that raises, or
    that is finite alone (an integrand that does not broadcast elementwise),
    raises, with ``where(i, j)`` appended if given.  An overflow, non-finite
    alone too, is returned.
    """
    left, rl = kind in _LEFT, kind in _RL
    # an empty range is allowed, and gives 0, everywhere but under an RL derivative
    _check((t > a if rl else t >= a) if left else (t < b if rl else t <= b), t,
           lambda x: _RANGE_ERRORS[kind].format(t=x, a=a, b=b))
    spec = SingularKernelSpec(alpha, Side.LEFT if left else Side.RIGHT,
                              WeightShift.INTEGRAL if kind in (OpKind.I_LEFT, OpKind.I_RIGHT)
                              else WeightShift.DERIVATIVE)
    per_batch = max(1, _BATCH_NODES // cfg.range_nodes)
    col_step = min(lead, per_batch)
    row_step = max(1, per_batch // col_step)
    out = np.zeros((t.size, lead))

    def integrals(i, x, c):
        """Kernel integrals of the integrands c for the points t[i], an
        array x.shape[:-1] + (integrands,): ``x[..., j, 0]`` holds the
        singular end of point i[j], any leading axes those of a stencil."""
        rule = KernelRule(spec, *((a, x) if left else (x, b)), cfg)
        values = integrand(rule.tau, i, c)
        try:
            return rule.integrate(values)
        except ValidityError:
            if rank is None:
                raise
            # NaN marks the faulty (point, integrand) rows, named after the loop
            values = np.broadcast_to(values, np.broadcast(values, rule.tau).shape)
            return np.where(np.isfinite(values).all(axis=-1), 0.0, np.nan)

    step = alpha.domain.length * _DEFAULT_STEP_FRACTION if h is None else h
    lo, hi = (a, alpha.domain.b) if left else (alpha.domain.a, b)
    for r0 in range(0, t.size, row_step):
        r = slice(r0, r0 + row_step)
        for c0 in range(0, lead, col_step):
            c = slice(c0, c0 + col_step)
            batch = out[r, c]
            if rl:
                _stencil_derivative(lambda i, x: integrals(r0 + i, x, c), t[r], lo, hi, step,
                                    left, batch)
                if not left:
                    np.negative(batch, out=batch)
            else:
                live = (t[r] > a if left else t[r] < b).nonzero()[0]
                if live.size:  # a batch with no live point builds no rule
                    values = integrals(r0 + live, t[r][live, None], c)
                    batch[live] = -values if kind is OpKind.D_CAP_RIGHT else values
    if rank is not None and not np.isfinite(out).all():
        bad = np.argwhere(~np.isfinite(out))
        for p, q in bad[np.argsort(rank(*bad.T))]:
            try:  # an overflow of finite values, non-finite alone too, is returned
                alone = _apply(kind, lambda tau, i, c: integrand(tau, p + i, slice(q, q + 1)), 1,
                               alpha, a, b, t[p:p + 1], cfg, h)
                if np.isfinite(alone).all():
                    raise ValidityError("integrand is not finite only when evaluated with other "
                                        f"points, breaking elementwise broadcast, at t = {t[p]}")
            except ValidityError as exc:
                raise ValidityError(f"{exc}, {where(p, q)}" if where else str(exc)) from None
    return out


def _integrand_of(kind: OpKind, f: SmoothFn1, interval: Interval, allow_fd: bool):
    """The one-variable integrand of ``kind``: f, or its derivative for a Caputo kind."""
    return f.derivative_callable(interval, allow_fd)[0] if kind in _CAPUTO else f.value


def _grid(along: np.ndarray, frozen: np.ndarray):
    """The points of the broadcast of the axis coordinates ``along``
    against the ``frozen`` coordinates, laid out for :func:`_apply`.

    There is one row per element of ``along``, in its order, and one
    column per point of the broadcast axes along which ``along`` is
    constant; ``frozen`` keeps one row for all rows unless it varies along
    the axes of ``along`` too.  Returns the rows' coordinates, the points
    of :func:`_apply`; the frozen coordinates, one integrand per column;
    the ``rank`` of :func:`_apply`, each point's index in the broadcast;
    and the map of (rows, columns) values back to the broadcast shape.
    """
    shape = np.broadcast(along, frozen).shape
    lead = len(shape) - along.ndim
    cols = [k for k, n in enumerate(shape) if n > 1 and (k < lead or along.shape[k - lead] == 1)]
    perm = [k for k in range(len(shape)) if k not in cols] + cols
    layout, m = [shape[k] for k in perm], math.prod(shape[k] for k in cols)
    fz = frozen.reshape((1,) * (len(shape) - frozen.ndim) + frozen.shape).transpose(perm)
    back = sorted(range(len(perm)), key=perm.__getitem__)
    index = lambda: np.arange(math.prod(shape)).reshape(shape).transpose(perm).reshape(-1, m)
    return (along.ravel(), (np.broadcast_to(fz, layout) if fz.size > m else fz).reshape(-1, m),
            lambda i, j: index()[i, j], lambda out: out.reshape(layout).transpose(back))


def interval_op(kind: OpKind, f, alpha: VariableOrder, a: float, b: float, t,
                cfg: QuadConfig = DEFAULT_QUAD, h: Optional[float] = None, *,
                allow_fd_derivative: bool = True):
    """One-variable operator ``kind`` on [a, b] at t, a scalar or an array.

    Left operators integrate from a, right operators to b; the arguments
    are those of the matching named operator.
    """
    kind, t = OpKind(kind), np.asarray(t, dtype=float)
    fn = _integrand_of(kind, SmoothFn1.wrap(f), alpha.domain, allow_fd_derivative)
    values = _apply(kind, lambda tau, i, c: fn(tau), 1, alpha, a, b, t.ravel(), cfg, h,
                    lambda i, j: i)
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
    the other factors at the frozen coordinates.  Either way the work goes
    through :func:`_apply`, whose batches count the sections or factors
    integrated at each point.  Both coordinates of every point must lie in
    the closed rectangle, else DomainError names the first that leaves.
    Without ``allow_fd_derivative``, a Caputo kind raises
    ConfigurationError when the field, or a factor of it along the axis,
    has no analytic derivative.
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
    if kind in _CAPUTO and not allow_fd_derivative:  # raise before any work, as interval_op
        for g in ([term[axis - 1] for term in f2.terms] if isinstance(f2, SeparableFn2)
                  else [f2.section(axis, frozen)]):
            g.derivative_callable(interval, False)
    shape = np.broadcast(along, frozen).shape
    if not all(shape):
        return np.zeros(shape)
    if isinstance(f2, SeparableFn2) and kind not in _RL:
        # factors are evaluated on arrays, as for a batch of points, never on a 0-d one
        along, frozen = np.atleast_1d(along), np.atleast_1d(frozen)
        table = factor_op(kind, axis, f2, alpha, along.ravel(), rect, cfg)
        table = table.reshape((-1,) + along.shape)
        values = _sum_products(table, f2.rows(3 - axis, 0, frozen)).reshape(shape)
        return float(values) if values.ndim == 0 else values
    t, fz, rank, back = _grid(along, frozen)

    def integrand(tau, i, c):
        section = f2.section(axis, (fz[:, c] if len(fz) == 1 else fz[i, c])[..., None])
        return _integrand_of(kind, section, alpha.domain, allow_fd_derivative)(tau)

    values = back(_apply(kind, integrand, fz.shape[1], alpha, interval.a, interval.b, t, cfg, h,
                         rank, lambda i, j: f"t{3 - axis} = {fz[min(i, len(fz) - 1), j]:.6g}"))
    return float(values) if values.ndim == 0 else np.ascontiguousarray(values)


def factor_op(kind: OpKind, axis: int, f: SeparableFn2, alpha: VariableOrder, t,
              rect: Rect2, cfg: QuadConfig = DEFAULT_QUAD) -> np.ndarray:
    """The integral or Caputo kind ``kind`` along ``axis`` of each row of
    ``f`` on that axis (:meth:`SeparableFn2.rows`), at the 1-D points t:
    an array (f.count, t.size).

    The rows are the integrands of :func:`_apply`, evaluated together at
    the kernel nodes and joined by one concatenate, so a batch holds
    points x rows x nodes values.  The points must lie in the axis
    interval, as :func:`partial_op` checks; called on its axis
    coordinates, this is its 1-D work on a separable field, whose value at
    (t, frozen) is the sum over rows of this table times the other axis's
    row at frozen.
    """
    kind, interval = OpKind(kind), rect.axis(axis)
    order = kind in _CAPUTO
    return _apply(kind, lambda tau, i, c: np.concatenate(f.rows(axis, order, tau)[c], axis=-2),
                  f.count, alpha, interval.a, interval.b, np.asarray(t, dtype=float), cfg).T
