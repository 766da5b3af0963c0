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
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from functools import lru_cache

import numpy as np
from numpy.polynomial.legendre import leggauss

from .domain import VariableOrder
from .errors import DomainError, ValidityError
from .specialfn import gamma


@lru_cache(maxsize=64)
def gauss_legendre(n: int) -> tuple[np.ndarray, np.ndarray]:
    """Cached Gauss-Legendre nodes and weights on [-1, 1]."""
    if n < 1:
        raise DomainError(f"Gauss-Legendre rule needs n >= 1, got {n}")
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
    cases at sub-millisecond cost per integral.
    """

    panels: int = 24
    nodes_per_panel: int = 10
    grading: float = 0.25

    def __post_init__(self):
        if int(self.panels) != self.panels or self.panels < 1:
            raise DomainError(f"panels must be a positive integer, got {self.panels}")
        if int(self.nodes_per_panel) != self.nodes_per_panel or self.nodes_per_panel < 2:
            raise DomainError(f"nodes_per_panel must be an integer >= 2, got {self.nodes_per_panel}")
        if not 0.0 < self.grading < 1.0:
            raise DomainError(f"grading must lie in (0, 1), got {self.grading}")


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
    """Nodes/weights of the graded rule on [0, 1]; scale by S to use."""
    x, w = gauss_legendre(nodes)
    edges = grading ** np.arange(panels + 1)
    hi, lo = edges[:-1], edges[1:]
    mid = 0.5 * (hi + lo)
    half = 0.5 * (hi - lo)
    s = (mid[:, None] + half[:, None] * x[None, :]).ravel()
    ws = (half[:, None] * w[None, :]).ravel()
    s.setflags(write=False)
    ws.setflags(write=False)
    return s, ws, edges[-1]


def _effective_exponent(spec: SingularKernelSpec, t_sing, tau):
    if spec.side is Side.LEFT:
        alpha = spec.exponent(t_sing, tau)
    else:
        alpha = spec.exponent(tau, t_sing)
    alpha = np.asarray(alpha, dtype=float)
    if spec.weight_shift is WeightShift.DERIVATIVE:
        return 1.0 - alpha
    return alpha


def _raise_at(bad: np.ndarray, what: str, values: np.ndarray, spec: SingularKernelSpec,
              t_sing: np.ndarray, tau: np.ndarray):
    """ValidityError naming the first (t, tau) node flagged in ``bad``;
    ``what`` is a template for the value found there."""
    p, j = np.unravel_index(int(np.argmax(bad)), bad.shape)
    raise ValidityError(
        f"{what.format(format(float(values[p, j]), '.6g'))} "
        f"at (t, tau) = ({t_sing[p]:.6g}, {tau[p, j]:.6g}) "
        f"[side={spec.side.value}, weight={spec.weight_shift.value}]"
    )


def _check_finite(values: np.ndarray, spec: SingularKernelSpec, t_sing: np.ndarray,
                  tau: np.ndarray):
    """Raise ValidityError, naming the node, at the first non-finite value of
    ``values``, sampled at ``tau`` with any number of leading axes."""
    finite = np.isfinite(values)
    if not finite.all():
        bad = ~finite.reshape(-1, *tau.shape)
        k = int(np.argmax(bad.any(axis=(1, 2))))
        _raise_at(bad[k], "integrand value {} is not finite", values.reshape(bad.shape)[k],
                  spec, t_sing, tau)


def _kernel_nodes(spec: SingularKernelSpec, lo, hi, cfg: QuadConfig):
    """Nodes and kernel factors of the graded rule for P ranges, each with
    ``hi > lo``; the singular end is a 1-D array, the other end may be a
    scalar.

    Returns ``(t_sing, tau, ws, kernel, sliver, beta0, inv_gamma0)``:
    the (P,) singular ends, the (P, N+1) node matrix whose rows end with
    their branch points, the (P, N) panel weights, the (P, N) kernel
    ``s**(beta - 1) / Gamma(beta)`` at the panel nodes, and the sliver
    lengths, exponents and 1/Gamma at the branch points, each (P,).  The
    order function and Gamma are called once.  Raises ValidityError,
    naming the node, if an effective exponent leaves (0, 1).
    """
    lo, hi = np.asarray(lo, dtype=float), np.asarray(hi, dtype=float)
    t_sing = hi if spec.side is Side.LEFT else lo
    s, ws, sliver = _unit_panel_nodes(cfg.panels, cfg.nodes_per_panel, cfg.grading)
    S = hi - lo
    s = S[:, None] * s
    ws = S[:, None] * ws
    sliver = S * sliver
    t_col = t_sing[:, None]
    # the branch point itself rides along as the last node of each row
    tau = np.concatenate([t_col - s if spec.side is Side.LEFT else t_col + s, t_col], axis=1)

    beta = _effective_exponent(spec, t_col, tau)
    if not (float(beta.min()) > 0.0 and float(beta.max()) < 1.0):  # catches NaN too
        _raise_at(~((beta > 0.0) & (beta < 1.0)), "effective kernel exponent {} outside (0, 1)",
                  beta, spec, t_sing, tau)
    inv_gamma = 1.0 / gamma(beta)
    kernel = s ** (beta[:, :-1] - 1.0) * inv_gamma[:, :-1]
    return t_sing, tau, ws, kernel, sliver, beta[:, -1], inv_gamma[:, -1]


def _graded_integrals(spec: SingularKernelSpec, h, lo, hi,
                      cfg: QuadConfig = DEFAULT_QUAD) -> np.ndarray:
    """:func:`singular_integral` over P ranges, each with ``hi > lo``.

    The singular end is a 1-D array, the other end may be a scalar.  The
    order function, Gamma and ``h`` are each called once, on the (P, N+1)
    node matrix of :func:`_kernel_nodes`.  Each row is reduced by its own
    dot product, so every result is bit-identical to a one-range call.
    Raises ValidityError, naming the node, if an effective exponent leaves
    (0, 1) or an integrand value is not finite.
    """
    if not np.size(hi if spec.side is Side.LEFT else lo):
        return np.empty(0)
    t_sing, tau, ws, kernel, sliver, beta0, inv_gamma0 = _kernel_nodes(spec, lo, hi, cfg)
    hv = np.asarray(h(tau), dtype=float)
    if hv.shape != tau.shape:
        hv = np.broadcast_to(hv, tau.shape)
    _check_finite(hv, spec, t_sing, tau)
    terms = kernel * hv[:, :-1]

    out = np.empty(t_sing.size)
    for p in range(t_sing.size):
        total = float(ws[p] @ terms[p])
        # closed-form singular sliver with beta and h frozen at the branch point
        b0 = float(beta0[p])
        total += float(hv[p, -1]) * sliver[p] ** b0 / b0 * float(inv_gamma0[p])
        out[p] = total
    return out


class KernelRule:
    """The graded rule of P ranges as one (P, N+1) weight matrix.

    ``weights`` holds the panel weights times ``s**(beta - 1) / Gamma(beta)``
    and, in the last column, the closed-form sliver weight, so the integral
    of h over range p is ``sum_q weights[p, q] * h(tau[p, q])``.  The
    nodes, exponents and exponent check are those of
    :func:`_graded_integrals`; one rule serves any number of integrands.
    Results agree with :func:`_graded_integrals` to rounding, not bit for
    bit, since the sums are ordered differently.
    """

    def __init__(self, spec: SingularKernelSpec, lo, hi, cfg: QuadConfig = DEFAULT_QUAD):
        self.spec = spec
        self.t_sing, self.tau, ws, kernel, sliver, beta0, inv_gamma0 = \
            _kernel_nodes(spec, lo, hi, cfg)
        self.weights = np.concatenate(
            [ws * kernel, (sliver ** beta0 / beta0 * inv_gamma0)[:, None]], axis=1)

    def integrate(self, values) -> np.ndarray:
        """Integrals of integrand values sampled at ``tau``: ``values`` has
        shape (..., P, N+1) and the result (..., P).  Raises ValidityError,
        naming the node, at a non-finite value."""
        values = np.asarray(values, dtype=float)
        _check_finite(values, self.spec, self.t_sing, self.tau)
        return np.einsum("...pq,pq->...p", values, self.weights)


def singular_integral(spec: SingularKernelSpec, h, lo: float, hi: float,
                      cfg: QuadConfig = DEFAULT_QUAD) -> float:
    """Integral of ``dist**(beta - 1) / Gamma(beta) * h(tau)`` over [lo, hi].

    For ``side=LEFT`` the singular point is the upper limit (a left-sided
    operator evaluated at t = hi integrates from a = lo); for ``side=RIGHT``
    it is the lower limit.  ``dist`` is the distance from tau to the
    singular point, and ``beta`` the effective exponent selected by the
    kernel's weight shift, evaluated with the side's argument order.

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
    return float(_graded_integrals(spec, h, np.array([lo]), np.array([hi]), cfg)[0])


def line_integral_edge(h, lo: float, hi: float, orientation: int,
                       cfg: QuadConfig = DEFAULT_QUAD) -> float:
    """Signed non-singular edge integral ``orientation * int_lo^hi h(s) ds``.

    Composite Gauss-Legendre with ``cfg.panels`` uniform panels of
    ``cfg.nodes_per_panel`` nodes; used for the contour term of the
    Green-type identity, whose edge integrands are smooth.
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


def tensor_integral(field, rect, outer_grid: int, threads: int = 1) -> float:
    """Clustered tensor Gauss-Legendre integral of field(t1, t2) over a rectangle.

    ``field`` is called once per row of the outer grid, with a scalar t1
    and the vector of t2 nodes, and must broadcast.  Rows are independent
    and may run on a thread pool; the contraction order is fixed, so the
    result does not depend on the thread count.
    """
    from .parallel import map_ordered

    t1n, w1 = clustered_gl(rect.t1.a, rect.t1.b, outer_grid)
    t2n, w2 = clustered_gl(rect.t2.a, rect.t2.b, outer_grid)

    def row(i):
        return np.broadcast_to(np.asarray(field(t1n[i], t2n), dtype=float), t2n.shape)

    m = np.vstack(map_ordered(row, range(outer_grid), threads))
    return float(w1 @ m @ w2)
