"""Weakly singular quadrature for variable-exponent endpoint kernels.

The engine evaluates integrals whose integrand behaves like
``s**(beta(s) - 1) / Gamma(beta(s)) * h(s)`` near one endpoint, where the
exponent ``beta`` itself varies along the integration range.  Because the
exponent is not constant, classical Gauss-Jacobi rules do not apply;
instead the distance-to-singularity variable is split into geometrically
graded panels with a Gauss-Legendre rule on each, which handles every
exponent in (0, 1) uniformly.

The innermost sliver ``[0, S * q**panels]`` still contains the branch
point, where polynomial quadrature stalls; its contribution is integrated
in closed form with ``beta`` and ``h`` frozen at the singular point.  The
sliver is ~1e-14 of the range at the default config, so the freezing error
is far below the panel error.

Every kernel integral goes through one :class:`KernelRule`: the kernel,
panel weights and closed-form sliver of P ranges folded into one (P, N+1)
weight matrix, called against integrand values at its nodes.  Each row is
reduced by its own dot product, so a range gives the same bits alone
(:func:`singular_integral`), in a batch of operator points, or under the
leading axes of a Ritz table.  Construction is elementwise in the ranges
too, so a range that repeats in a batch has the same bits in each of its
rows.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np
from numpy.polynomial.legendre import leggauss

from .domain import VariableOrder, _require_count
from .errors import DomainError, ValidityError
from .specialfn import rgamma1p


@lru_cache(maxsize=64)
def gauss_legendre(n: int) -> tuple[np.ndarray, np.ndarray]:
    """Cached Gauss-Legendre nodes and weights on [-1, 1]; DomainError
    unless n is an integer >= 1."""
    if not isinstance(n, (int, np.integer)) or n < 1:
        raise DomainError(f"Gauss-Legendre rule needs an integer n >= 1, got {n}")
    x, w = leggauss(n)
    x.setflags(write=False)
    w.setflags(write=False)
    return x, w


@dataclass(frozen=True)
class QuadConfig:
    """Graded-mesh parameters for the singular quadrature.

    ``panels`` geometric panels shrink toward the singular endpoint with
    ratio ``grading``; each panel carries ``nodes_per_panel`` Gauss-Legendre
    nodes.  The defaults meet 1e-8 relative error on the power-law oracle
    cases at sub-millisecond cost per integral.  The outermost panel
    [grading * S, S] would set the error floor, so a ``grading`` below 1/4
    splits each panel into the fewest equal-ratio sub-panels of ratio at
    least 1/4 (two at 0.15, three at 0.05), each with ``nodes_per_panel``
    nodes.
    """

    panels: int = 24
    nodes_per_panel: int = 10
    grading: float = 0.25

    def __post_init__(self):
        # stored as ints, so 7.0 and 7 make one rule (and one cache key)
        object.__setattr__(self, "panels", _require_count("panels", self.panels, 1))
        object.__setattr__(self, "nodes_per_panel",
                           _require_count("nodes_per_panel", self.nodes_per_panel, 2))
        if not 0.0 < self.grading < 1.0:
            raise DomainError(f"grading must lie in (0, 1), got {self.grading}")

    @property
    def range_nodes(self) -> int:
        """Kernel nodes per integration range: the panel nodes and the branch point."""
        return _unit_panel_nodes(self.panels, self.nodes_per_panel, self.grading)[0].size + 1


DEFAULT_QUAD = QuadConfig()


class Side(enum.Enum):
    """Whether the kernel singularity sits at the upper or lower endpoint.

    LEFT: integral over [a, t], singular at tau = t, order args alpha(t, tau).
    RIGHT: integral over [t, b], singular at tau = t, order args alpha(tau, t).
    """

    LEFT = "left"
    RIGHT = "right"


class WeightShift(enum.Enum):
    """Effective exponent of the kernel: alpha itself or 1 - alpha."""

    INTEGRAL = "integral"      # kernel distance**(alpha - 1)
    DERIVATIVE = "derivative"  # kernel distance**(-alpha) = distance**((1-alpha) - 1)


@dataclass(frozen=True)
class SingularKernelSpec:
    """Order function plus the side/shift conventions of the kernel.

    The transposition of the order arguments for right-sided kernels is
    applied here and nowhere else.
    """

    exponent: VariableOrder
    side: Side
    weight_shift: WeightShift


@lru_cache(maxsize=64)
def _unit_panel_nodes(panels: int, nodes: int, grading: float):
    """Nodes/weights of the graded rule on [0, 1] and the sliver length;
    scale by S to use.  A grading below 1/4 splits each panel into
    sub-panels as :class:`QuadConfig` describes."""
    x, w = gauss_legendre(nodes)
    # the tolerance absorbs round-off in the log ratio at powers of 1/4
    sub = max(1, math.ceil(math.log(grading) / math.log(0.25) - 1e-9))
    edges = grading ** (np.arange(panels * sub + 1) / sub)
    hi, lo = edges[:-1], edges[1:]
    mid = 0.5 * (hi + lo)
    half = 0.5 * (hi - lo)
    s = (mid[:, None] + half[:, None] * x[None, :]).ravel()
    ws = (half[:, None] * w[None, :]).ravel()
    s.setflags(write=False)
    ws.setflags(write=False)
    return s, ws, edges[-1]


def _raise_first(bad: np.ndarray, what: str, values: np.ndarray, node):
    """ValidityError at the first entry flagged in ``bad``: ``what`` is a
    template for its value and ``node(index)`` says where it sits."""
    idx = np.unravel_index(int(np.argmax(bad)), bad.shape)
    raise ValidityError(f"{what.format(format(float(values[idx]), '.6g'))} at {node(idx)}")


def _require_finite(values: np.ndarray, what: str, node):
    """Raise as :func:`_raise_first` at the first non-finite entry of ``values``."""
    finite = np.isfinite(values)
    if not finite.all():
        _raise_first(~finite, what + " {} is not finite", values, node)


class KernelRule:
    """The graded rule of P ranges as (P, N+1) nodes and one weight matrix.

    Range p runs from ``lo`` to ``hi[p]`` for a left kernel and from
    ``lo[p]`` to ``hi`` for a right one: the singular end is an array of
    points inside their ranges, the other end may be a scalar.  For a (P,)
    singular end, row p of
    ``tau`` holds the graded panel nodes followed by the branch point, and
    row p of ``weights`` the panel weights times ``s**(beta - 1) /
    Gamma(beta)`` followed by the closed-form sliver weight
    ``eps**beta / Gamma(1 + beta)``, with beta and the integrand frozen at
    the branch point.  The integral of h over range p is
    ``sum_q weights[p, q] * h(tau[p, q])``; one rule serves any number of
    integrands.  A singular end of any other shape X gives nodes and
    weights of shape X + (N+1,).  The order function and the reciprocal
    :func:`~varfrac.specialfn.rgamma1p` are called once, and 1/Gamma(beta)
    is ``beta * rgamma1p(beta)``.  Construction is elementwise in the
    ranges, so each row has the bits of a row built on its own.  Raises
    ValidityError, naming the node, if an effective exponent leaves (0, 1).
    """

    def __init__(self, spec: SingularKernelSpec, lo, hi, cfg: QuadConfig = DEFAULT_QUAD):
        self.spec = spec
        left = spec.side is Side.LEFT
        lo, hi = np.asarray(lo, dtype=float), np.asarray(hi, dtype=float)
        self.t_sing = hi if left else lo
        s, ws, sliver = _unit_panel_nodes(cfg.panels, cfg.nodes_per_panel, cfg.grading)
        S = hi - lo
        s = S[..., None] * s
        t_col = self.t_sing[..., None]
        # the branch point itself rides along as the last node of each row
        self.tau = np.concatenate([t_col - s if left else t_col + s, t_col], axis=-1)

        beta = np.asarray(spec.exponent(t_col, self.tau) if left
                          else spec.exponent(self.tau, t_col), dtype=float)
        if spec.weight_shift is WeightShift.DERIVATIVE:
            beta = 1.0 - beta
        bad = ~((beta > 0.0) & (beta < 1.0))  # catches NaN too
        if bad.any():
            _raise_first(bad, "effective kernel exponent {} outside (0, 1)", beta, self._node)
        # 1/Gamma(1 + beta) at every node; 1/Gamma(beta) = beta / Gamma(1 + beta)
        rg1p = rgamma1p(beta)
        self.weights = np.concatenate(
            [(S[..., None] * ws) * (s ** (beta[..., :-1] - 1.0) * (beta * rg1p)[..., :-1]),
             ((S * sliver) ** beta[..., -1] * rg1p[..., -1])[..., None]], axis=-1)

    def _node(self, idx) -> str:
        """Names the node of an index into values that broadcast ``tau`` against leading axes."""
        at = tuple(i if n > 1 else 0 for i, n in zip(idx[len(idx) - self.tau.ndim:],
                                                     self.tau.shape))
        return (f"(t, tau) = ({self.t_sing[at[:-1]]:.6g}, {self.tau[at]:.6g}) "
                f"[side={self.spec.side.value}, weight={self.spec.weight_shift.value}]")

    def integrate(self, values) -> np.ndarray:
        """Integrals of integrand values sampled at ``tau``.

        ``values`` broadcasts against the nodes, and so may repeat each row
        along axes of its own; the result drops the last axis of that
        broadcast.  Each row is reduced by its own dot product over
        contiguous values, which depends on neither the other rows nor the
        other axes, so a range integrates to the same bits in any batch.
        Raises ValidityError, naming the node, at a non-finite value.
        """
        values = np.asarray(values, dtype=float)
        shape = np.broadcast(values, self.tau).shape
        if values.shape != shape:
            values = np.broadcast_to(values, shape)
        _require_finite(values, "integrand value", self._node)
        rows = np.ascontiguousarray(values)[..., None, :]
        return np.matmul(rows, self.weights[..., None])[..., 0, 0]


def singular_integral(spec: SingularKernelSpec, h, lo: float, hi: float,
                      cfg: QuadConfig = DEFAULT_QUAD) -> float:
    """Integral of ``dist**(beta - 1) / Gamma(beta) * h(tau)`` over [lo, hi].

    For ``side=LEFT`` the singular point is the upper limit (a left-sided
    operator evaluated at t = hi integrates from a = lo); for ``side=RIGHT``
    it is the lower limit.  ``dist`` is the distance from tau to the
    singular point, and ``beta`` the effective exponent selected by the
    kernel's weight shift, evaluated with the side's argument order.  The
    value is that of a one-range :class:`KernelRule`; ``h`` is called once
    on its (1, N+1) nodes and may return a scalar.

    An empty range returns 0 by continuity for integral-type kernels and is
    rejected for derivative-type kernels, whose callers need a genuine
    limit there.  A non-finite integrand value raises ValidityError.
    """
    if hi < lo:
        raise DomainError(f"integration range is reversed: [{lo}, {hi}]")
    if hi == lo:
        if spec.weight_shift is WeightShift.INTEGRAL:
            return 0.0
        raise ValidityError(
            f"degenerate range [{lo}, {hi}] with a derivative-weight kernel has no value"
        )
    rule = KernelRule(spec, np.array([lo]), np.array([hi]), cfg)
    return float(rule.integrate(h(rule.tau))[0])


def line_integral_edge(h, lo: float, hi: float, orientation: int,
                       cfg: QuadConfig = DEFAULT_QUAD) -> float:
    """Signed non-singular edge integral ``orientation * int_lo^hi h(s) ds``.

    Composite Gauss-Legendre with ``cfg.panels`` uniform panels of
    ``cfg.nodes_per_panel`` nodes; used for the contour term of the
    Green-type identity, whose edge integrands are smooth.  A non-finite
    integrand value raises ValidityError naming the first such node.
    """
    if lo >= hi:
        raise DomainError(f"edge integral requires lo < hi, got [{lo}, {hi}]")
    if orientation not in (-1, 1):
        raise DomainError(f"orientation must be +1 or -1, got {orientation!r}")
    x, w = gauss_legendre(cfg.nodes_per_panel)
    edges = np.linspace(lo, hi, cfg.panels + 1)
    mid = 0.5 * (edges[1:] + edges[:-1])
    half = 0.5 * (edges[1:] - edges[:-1])
    s = (mid[:, None] + half[:, None] * x[None, :]).ravel()
    ws = (half[:, None] * w[None, :]).ravel()
    hv = np.asarray(h(s), dtype=float)
    if hv.shape != s.shape:
        hv = np.broadcast_to(hv, s.shape)
    _require_finite(hv, "edge integrand value", lambda idx: f"s = {s[idx]:.6g}")
    return orientation * float(ws @ hv)


def _smoothstep7(u: np.ndarray) -> np.ndarray:
    return u ** 4 * (35.0 - 84.0 * u + 70.0 * u ** 2 - 20.0 * u ** 3)


def _smoothstep7_deriv(u: np.ndarray) -> np.ndarray:
    return 140.0 * u ** 3 * (1.0 - u) ** 3


def clustered_gl(a: float, b: float, n: int) -> tuple[np.ndarray, np.ndarray]:
    """Gauss-Legendre rule on [a, b] under an endpoint-clustering map.

    Fields produced by the fractional operators have algebraic endpoint
    behaviour like ``(t - a)**alpha`` or ``(b - t)**(-alpha)``; a plain
    n-point rule converges only algebraically on those.  Composing with a
    7th-order smoothstep (whose Jacobian vanishes cubically at both ends)
    restores fast convergence while leaving smooth integrands essentially
    exact for n >= 12.
    """
    x, w = gauss_legendre(n)
    u = 0.5 * (x + 1.0)
    t = a + (b - a) * _smoothstep7(u)
    wt = 0.5 * (b - a) * w * _smoothstep7_deriv(u)
    return t, wt


def tensor_integral(field, rect, outer_grid: int) -> float:
    """Clustered tensor Gauss-Legendre integral of field(t1, t2) over a rectangle.

    ``field`` is called once, on the whole outer grid: t1 nodes as a
    column and t2 nodes as a row, and must broadcast.  The field matrix is
    made contiguous before the fixed-order contraction, so a field that
    returns a scalar sums in the same order as one that fills the grid.  A
    non-finite field value raises ValidityError naming the first such
    (t1, t2) node.
    """
    t1n, w1 = clustered_gl(rect.t1.a, rect.t1.b, outer_grid)
    t2n, w2 = clustered_gl(rect.t2.a, rect.t2.b, outer_grid)
    m = np.ascontiguousarray(np.broadcast_to(field(t1n[:, None], t2n[None, :]),
                                             (outer_grid, outer_grid)), dtype=float)
    _require_finite(m, "field value",
                    lambda idx: f"(t1, t2) = ({t1n[idx[0]]:.6g}, {t2n[idx[1]]:.6g})")
    return float(w1 @ m @ w2)
