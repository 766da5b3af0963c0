"""Two-dimensional variational problems with variable-order Caputo partials.

The functional is J[u] = integral over the rectangle of
L(t1, t2, u, CapD1 u, CapD2 u), subject to a prescribed boundary trace.
This module evaluates J, computes the stationarity residual
``dL/du + right-D^alpha1 dL/dd1 + right-D^alpha2 dL/dd2`` on interior
grids, replays the first variation, and solves the problem directly by a
Ritz method: a transfinite boundary lift plus a span of tensor sine modes
that vanish identically on the boundary, minimized by BFGS with the exact
gradient of the discretized functional, assembled from the Lagrangian's
declared partials.

The Ritz search space satisfies the boundary condition exactly by
construction, so the minimization is unconstrained.

Note on extremum seeking: the solver minimizes.  To look for maximizers,
negate the Lagrangian.  Indefinite Lagrangians (such as the vibrating
string's difference of squares) are handled honestly: the solver reports
stationarity via the gradient norm and flags certified negative secant
curvature in ``nonconvex_flag``.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional, Sequence

import numpy as np

from .domain import Rect2, SmoothFn1, SmoothFn2, VariableOrder, _as_array_fn
from .errors import DomainError, ValidityError
from .operators import OpKind, partial_op
from .optimize import MinimizeResult, minimize_bfgs
from .quadrature import (DEFAULT_QUAD, KernelRule, QuadConfig, Side, SingularKernelSpec,
                         WeightShift, clustered_gl, tensor_integral)

_LAGRANGIAN_CHECK_SEED = 0x1A6
_CORNER_TOL = 1e-12


class Lagrangian:
    """L(t1, t2, u, d1, d2) with its three partial derivatives.

    ``dL_du``, ``dL_dd1`` and ``dL_dd2`` differentiate L with respect to
    the value slot and the two Caputo-derivative slots.  On construction
    each partial is compared against a central finite difference of L at
    32 random points (1e-6 relative).  All callables must broadcast over
    numpy arrays.
    """

    def __init__(self, L, dL_du, dL_dd1, dL_dd2, *, check: bool = True,
                 rect: Optional[Rect2] = None):
        self.L = _as_array_fn(L)
        self.dL_du = _as_array_fn(dL_du)
        self.dL_dd1 = _as_array_fn(dL_dd1)
        self.dL_dd2 = _as_array_fn(dL_dd2)
        if check:
            self._check_partials(rect)

    def _check_partials(self, rect: Optional[Rect2]):
        rng = np.random.default_rng(_LAGRANGIAN_CHECK_SEED)
        if rect is None:
            t1 = rng.random(32)
            t2 = rng.random(32)
        else:
            t1 = rect.t1.a + rng.random(32) * rect.t1.length
            t2 = rect.t2.a + rng.random(32) * rect.t2.length
        u, d1, d2 = (rng.uniform(-2.0, 2.0, 32) for _ in range(3))
        slots = {"u": (2, self.dL_du), "d1": (3, self.dL_dd1), "d2": (4, self.dL_dd2)}
        args = [t1, t2, u, d1, d2]
        for name, (idx, partial) in slots.items():
            h = 1e-5 * (1.0 + np.abs(args[idx]))
            hi = [a.copy() for a in args]
            lo = [a.copy() for a in args]
            hi[idx] = args[idx] + h
            lo[idx] = args[idx] - h
            fd = (self.L(*hi) - self.L(*lo)) / (2.0 * h)
            p = partial(*args)
            err = np.max(np.abs(fd - p) / np.maximum(1.0, np.abs(p)))
            if not err <= 1e-6:
                raise ValidityError(
                    f"declared partial dL/d{name} disagrees with a finite "
                    f"difference of L by {err:.3e} relative (> 1e-6)"
                )

    @classmethod
    def quadratic(cls) -> "Lagrangian":
        """L = d1^2 + d2^2 + u^2, a strictly convex test instance."""
        return cls(
            lambda t1, t2, u, d1, d2: d1 ** 2 + d2 ** 2 + u ** 2,
            lambda t1, t2, u, d1, d2: 2.0 * u,
            lambda t1, t2, u, d1, d2: 2.0 * d1,
            lambda t1, t2, u, d1, d2: 2.0 * d2,
            check=False,
        )

    @classmethod
    def dirichlet(cls) -> "Lagrangian":
        """L = d1^2 + d2^2 (fractional Dirichlet energy)."""
        return cls(
            lambda t1, t2, u, d1, d2: d1 ** 2 + d2 ** 2,
            lambda t1, t2, u, d1, d2: 0.0 * u,
            lambda t1, t2, u, d1, d2: 2.0 * d1,
            lambda t1, t2, u, d1, d2: 2.0 * d2,
            check=False,
        )

    @classmethod
    def string(cls, sigma, tension: float) -> "Lagrangian":
        """Vibrating-string action density sigma(x) d2^2 - tension * d1^2.

        Axis 1 plays the role of time, axis 2 of space; ``sigma`` is the
        mass density along the space coordinate t2 and ``tension`` the
        constant tension.
        """
        if not tension > 0.0:
            raise DomainError(f"string tension must be positive, got {tension}")
        sigma = _as_array_fn(sigma)
        return cls(
            lambda t1, t2, u, d1, d2: sigma(t2) * d2 ** 2 - tension * d1 ** 2,
            lambda t1, t2, u, d1, d2: 0.0 * u,
            lambda t1, t2, u, d1, d2: -2.0 * tension * d1,
            lambda t1, t2, u, d1, d2: 2.0 * sigma(t2) * d2,
            check=False,
        )


class BoundaryData:
    """Boundary trace given as four edge functions with compatible corners.

    ``bottom``/``top`` are functions of t1 on t2 = a2 / t2 = b2;
    ``left``/``right`` are functions of t2 on t1 = a1 / t1 = b1.  Adjacent
    edges must be finite and agree at shared corners to 1e-12.
    """

    def __init__(self, bottom, right, top, left, rect: Rect2, *,
                 all_zero: bool = False):
        self.bottom = SmoothFn1.wrap(bottom)
        self.right = SmoothFn1.wrap(right)
        self.top = SmoothFn1.wrap(top)
        self.left = SmoothFn1.wrap(left)
        self.rect = rect
        self.all_zero = all_zero
        self._check_corners()

    @classmethod
    def zero(cls, rect: Rect2) -> "BoundaryData":
        z = SmoothFn1(lambda s: 0.0 * s, lambda s: 0.0 * s, check=False)
        return cls(z, z, z, z, rect, all_zero=True)

    @classmethod
    def constant(cls, c: float, rect: Rect2) -> "BoundaryData":
        f = SmoothFn1(lambda s: c + 0.0 * s, lambda s: 0.0 * s, check=False)
        return cls(f, f, f, f, rect, all_zero=(c == 0.0))

    @classmethod
    def from_function(cls, fn2, rect: Rect2) -> "BoundaryData":
        """Edge restrictions of a full two-variable function."""
        fn2 = SmoothFn2.wrap(fn2)
        a1, b1, a2, b2 = rect.t1.a, rect.t1.b, rect.t2.a, rect.t2.b
        return cls(lambda s: fn2(s, a2), lambda s: fn2(b1, s),
                   lambda s: fn2(s, b2), lambda s: fn2(a1, s), rect)

    def _check_corners(self):
        a1, b1 = self.rect.t1.a, self.rect.t1.b
        a2, b2 = self.rect.t2.a, self.rect.t2.b
        corners = [
            ("bottom/left at (a1, a2)", self.bottom(a1), self.left(a2)),
            ("bottom/right at (b1, a2)", self.bottom(b1), self.right(a2)),
            ("top/right at (b1, b2)", self.top(b1), self.right(b2)),
            ("top/left at (a1, b2)", self.top(a1), self.left(b2)),
        ]
        for name, u, v in corners:
            u, v = float(u), float(v)
            if not (np.isfinite(u) and np.isfinite(v)):
                raise ValidityError(
                    f"edge function is not finite at corner {name}: {u!r} vs {v!r}")
            if abs(u - v) > _CORNER_TOL:
                raise ValidityError(f"edge functions disagree at corner {name}: {u!r} vs {v!r}")

    def lift(self) -> SmoothFn2:
        """Transfinite (Coons) interpolant of the four edges.

        Matches the boundary trace exactly and is C^1 inside for C^1 edge
        data; its partial derivatives use the edges' derivatives, falling
        back to finite differences of the edge functions.
        """
        if self.all_zero:
            z2 = lambda t1, t2: 0.0 * t1 + 0.0 * t2
            return SmoothFn2(z2, z2, z2, check=False)
        rect = self.rect
        a1, w1 = rect.t1.a, rect.t1.length
        a2, w2 = rect.t2.a, rect.t2.length
        c_aa = float(self.bottom(rect.t1.a))
        c_ba = float(self.bottom(rect.t1.b))
        c_ab = float(self.top(rect.t1.a))
        c_bb = float(self.top(rect.t1.b))
        bottom, top = self.bottom.value, self.top.value
        left, right = self.left.value, self.right.value
        d_bottom, _ = self.bottom.derivative_callable(rect.t1)
        d_top, _ = self.top.derivative_callable(rect.t1)
        d_left, _ = self.left.derivative_callable(rect.t2)
        d_right, _ = self.right.derivative_callable(rect.t2)

        def value(t1, t2):
            x = (t1 - a1) / w1
            y = (t2 - a2) / w2
            blend = ((1 - x) * (1 - y) * c_aa + x * (1 - y) * c_ba
                     + (1 - x) * y * c_ab + x * y * c_bb)
            return ((1 - y) * bottom(t1) + y * top(t1)
                    + (1 - x) * left(t2) + x * right(t2) - blend)

        def d_t1(t1, t2):
            y = (t2 - a2) / w2
            blend = (-(1 - y) * c_aa + (1 - y) * c_ba - y * c_ab + y * c_bb) / w1
            return ((1 - y) * d_bottom(t1) + y * d_top(t1)
                    + (right(t2) - left(t2)) / w1 - blend)

        def d_t2(t1, t2):
            x = (t1 - a1) / w1
            blend = (-(1 - x) * c_aa - x * c_ba + (1 - x) * c_ab + x * c_bb) / w2
            return ((top(t1) - bottom(t1)) / w2
                    + (1 - x) * d_left(t2) + x * d_right(t2) - blend)

        return SmoothFn2(value, d_t1, d_t2, check=False)


class RitzExpansion:
    """Boundary lift plus a span of boundary-vanishing tensor sine modes.

    u = lift + sum over modes (k, m) of c_km * sin(k pi x1) * sin(m pi x2)
    in coordinates normalized to the rectangle.  Every mode vanishes
    identically on the boundary, so u matches the prescribed trace exactly
    for any coefficient vector.
    """

    def __init__(self, boundary_lift: SmoothFn2, modes: Sequence[tuple[int, int]],
                 coeffs, rect: Rect2):
        coeffs = np.asarray(coeffs, dtype=float)
        if coeffs.shape != (len(modes),):
            raise DomainError(
                f"expected {len(modes)} coefficients, got shape {coeffs.shape}"
            )
        self.boundary_lift = boundary_lift
        self.modes = [(int(k), int(m)) for k, m in modes]
        self.coeffs = coeffs
        self.rect = rect

    @staticmethod
    def tensor_modes(n_per_axis: int) -> list[tuple[int, int]]:
        if n_per_axis < 1:
            raise DomainError(f"n_per_axis must be >= 1, got {n_per_axis}")
        return [(k, m) for k in range(1, n_per_axis + 1)
                for m in range(1, n_per_axis + 1)]

    @classmethod
    def zero(cls, psi: BoundaryData, n_per_axis: int) -> "RitzExpansion":
        modes = cls.tensor_modes(n_per_axis)
        return cls(psi.lift(), modes, np.zeros(len(modes)), psi.rect)

    def _hat(self, t1, t2):
        x1 = (np.asarray(t1, float) - self.rect.t1.a) / self.rect.t1.length
        x2 = (np.asarray(t2, float) - self.rect.t2.a) / self.rect.t2.length
        return x1, x2

    def value(self, t1, t2):
        x1, x2 = self._hat(t1, t2)
        out = np.asarray(self.boundary_lift(t1, t2), dtype=float).copy()
        for c, (k, m) in zip(self.coeffs, self.modes):
            out = out + c * np.sin(k * np.pi * x1) * np.sin(m * np.pi * x2)
        return out

    def d_t1(self, t1, t2):
        x1, x2 = self._hat(t1, t2)
        out = np.asarray(self.boundary_lift.d_t1(t1, t2), dtype=float).copy()
        for c, (k, m) in zip(self.coeffs, self.modes):
            out = out + c * (k * np.pi / self.rect.t1.length) \
                * np.cos(k * np.pi * x1) * np.sin(m * np.pi * x2)
        return out

    def d_t2(self, t1, t2):
        x1, x2 = self._hat(t1, t2)
        out = np.asarray(self.boundary_lift.d_t2(t1, t2), dtype=float).copy()
        for c, (k, m) in zip(self.coeffs, self.modes):
            out = out + c * (m * np.pi / self.rect.t2.length) \
                * np.sin(k * np.pi * x1) * np.cos(m * np.pi * x2)
        return out

    def as_smooth_fn2(self) -> SmoothFn2:
        return SmoothFn2(self.value, self.d_t1, self.d_t2, check=False)

    def with_coeffs(self, coeffs) -> "RitzExpansion":
        return RitzExpansion(self.boundary_lift, self.modes, coeffs, self.rect)

    def mode_fn(self, index: int) -> SmoothFn2:
        """The index-th basis mode as a SmoothFn2 with analytic partials."""
        k, m = self.modes[index]
        w1, w2 = self.rect.t1.length, self.rect.t2.length

        def val(t1, t2):
            x1, x2 = self._hat(t1, t2)
            return np.sin(k * np.pi * x1) * np.sin(m * np.pi * x2)

        def d1(t1, t2):
            x1, x2 = self._hat(t1, t2)
            return (k * np.pi / w1) * np.cos(k * np.pi * x1) * np.sin(m * np.pi * x2)

        def d2(t1, t2):
            x1, x2 = self._hat(t1, t2)
            return (m * np.pi / w2) * np.sin(k * np.pi * x1) * np.cos(m * np.pi * x2)

        return SmoothFn2(val, d1, d2, check=False)


@dataclass
class SolveReport:
    """Outcome of a Ritz solve; ``expansion`` carries the solution itself."""

    coeffs: np.ndarray
    J_value: float
    el_residual_l2: float
    gradient_norm: float
    iterations: int
    nonconvex_flag: bool
    converged: bool
    expansion: Optional[RitzExpansion] = field(default=None, repr=False)

    def to_json_dict(self) -> dict:
        el = self.el_residual_l2
        return {
            "coeffs": [float(c) for c in self.coeffs],
            "J_value": self.J_value,
            "el_residual_l2": el if np.isfinite(el) else None,
            "gradient_norm": self.gradient_norm,
            "iterations": self.iterations,
            "nonconvex_flag": self.nonconvex_flag,
        }


def _as_fn2(u) -> SmoothFn2:
    if isinstance(u, RitzExpansion):
        return u.as_smooth_fn2()
    return SmoothFn2.wrap(u)


def _caputo_pair(u2: SmoothFn2, alpha1: VariableOrder, alpha2: VariableOrder,
                 rect: Rect2, cfg: QuadConfig):
    d1 = lambda t1, t2: partial_op(OpKind.D_CAP_LEFT, 1, u2, alpha1, (t1, t2), rect, cfg)
    d2 = lambda t1, t2: partial_op(OpKind.D_CAP_LEFT, 2, u2, alpha2, (t1, t2), rect, cfg)
    return d1, d2


def functional_eval(L: Lagrangian, u, alpha1: VariableOrder, alpha2: VariableOrder,
                    rect: Rect2, outer_grid: int = 20,
                    cfg: QuadConfig = DEFAULT_QUAD) -> float:
    """J[u]: clustered tensor quadrature of L(t, u, CapD1 u, CapD2 u)."""
    u2 = _as_fn2(u)
    cap1, cap2 = _caputo_pair(u2, alpha1, alpha2, rect, cfg)

    def integrand(t1, t2):
        return L.L(t1, t2, u2(t1, t2), cap1(t1, t2), cap2(t1, t2))

    return tensor_integral(integrand, rect, outer_grid)


def string_action(sigma, tension: float, u, alpha1: VariableOrder,
                  alpha2: VariableOrder, rect: Rect2, outer_grid: int = 20,
                  cfg: QuadConfig = DEFAULT_QUAD) -> float:
    """Action of the vibrating string with density sigma and constant tension.

    Axis 1 is time, axis 2 is space.  ``sigma`` must be continuous and
    positive on the space interval (sampled check) and ``tension`` positive.
    """
    sigma = _as_array_fn(sigma)
    probe = np.linspace(rect.t2.a, rect.t2.b, 33)
    sv = sigma(probe)
    if not np.all(np.isfinite(sv)) or np.any(sv <= 0.0):
        raise DomainError("string density sigma must be positive on the space interval")
    lagr = Lagrangian.string(sigma, tension)
    return functional_eval(lagr, u, alpha1, alpha2, rect, outer_grid, cfg)


def _composed_slot_fields(L: Lagrangian, u2: SmoothFn2, alpha1: VariableOrder,
                          alpha2: VariableOrder, rect: Rect2, cfg: QuadConfig):
    """The fields t -> dL/du, dL/dd1, dL/dd2 evaluated along u."""
    cap1, cap2 = _caputo_pair(u2, alpha1, alpha2, rect, cfg)

    def make(partial):
        return SmoothFn2(lambda t1, t2: partial(t1, t2, u2(t1, t2), cap1(t1, t2), cap2(t1, t2)),
                         check=False)

    return make(L.dL_du), make(L.dL_dd1), make(L.dL_dd2)


@dataclass
class ElResidualReport:
    """Stationarity residual sampled on an interior grid."""

    t1: np.ndarray
    t2: np.ndarray
    values: np.ndarray  # shape (len(t1), len(t2))
    l2: float


def el_residual(L: Lagrangian, u, alpha1: VariableOrder, alpha2: VariableOrder,
                rect: Rect2, point_grid: int = 8, cfg: QuadConfig = DEFAULT_QUAD,
                h: Optional[float] = None) -> ElResidualReport:
    """Residual of the stationarity equation on a uniform interior grid.

    R(t) = dL/du{u}(t) + right-RL-D^alpha1 of dL/dd1{u} along axis 1
         + right-RL-D^alpha2 of dL/dd2{u} along axis 2.

    The composed slot fields are available only as callables, so their
    right derivatives use the same differentiate-the-integral scheme as the
    operators module; points close to the right edges automatically get
    distance-scaled or one-sided stencils.  Each of the three terms is
    evaluated once on the whole grid, t1 as a column and t2 as a row.  The
    report's ``l2`` is the discrete L2 norm sqrt(mean(R^2) * area).  Raises
    DomainError unless ``point_grid`` is a positive integer.
    """
    if int(point_grid) != point_grid or point_grid < 1:
        raise DomainError(f"point_grid must be a positive integer, got {point_grid}")
    u2 = _as_fn2(u)
    f_u, f_d1, f_d2 = _composed_slot_fields(L, u2, alpha1, alpha2, rect, cfg)
    g1 = rect.t1.interior_grid(point_grid)
    g2 = rect.t2.interior_grid(point_grid)
    p = (g1[:, None], g2[None, :])
    values = (f_u(*p)
              + partial_op(OpKind.D_RL_RIGHT, 1, f_d1, alpha1, p, rect, cfg, h)
              + partial_op(OpKind.D_RL_RIGHT, 2, f_d2, alpha2, p, rect, cfg, h))
    l2 = float(np.sqrt(np.mean(values ** 2) * rect.area))
    return ElResidualReport(g1, g2, values, l2)


def _check_zero_trace(eta: SmoothFn2, rect: Rect2):
    a1, b1 = rect.t1.a, rect.t1.b
    a2, b2 = rect.t2.a, rect.t2.b
    s1 = np.linspace(a1, b1, 17)
    s2 = np.linspace(a2, b2, 17)
    edge_max = max(
        float(np.max(np.abs(eta(s1, np.full_like(s1, a2))))),
        float(np.max(np.abs(eta(s1, np.full_like(s1, b2))))),
        float(np.max(np.abs(eta(np.full_like(s2, a1), s2)))),
        float(np.max(np.abs(eta(np.full_like(s2, b1), s2)))),
    )
    i1 = rect.t1.interior_grid(5)
    i2 = rect.t2.interior_grid(5)
    interior = float(np.max(np.abs(eta(i1[:, None], i2[None, :]))))
    if edge_max > 1e-9 * max(1.0, interior):
        raise ValidityError(
            f"variation must vanish on the boundary; probe found |eta| = {edge_max:.3e} "
            f"on an edge"
        )


def first_variation(L: Lagrangian, u, eta, alpha1: VariableOrder,
                    alpha2: VariableOrder, rect: Rect2, outer_grid: int = 20,
                    cfg: QuadConfig = DEFAULT_QUAD) -> float:
    """Directional derivative of J at u along a zero-trace variation eta.

    Integrates dL/du * eta + dL/dd1 * CapD1 eta + dL/dd2 * CapD2 eta, the
    integrand of d/deps J[u + eps eta] at eps = 0.
    """
    u2 = _as_fn2(u)
    eta2 = _as_fn2(eta)
    _check_zero_trace(eta2, rect)
    cap1, cap2 = _caputo_pair(u2, alpha1, alpha2, rect, cfg)
    ecap1, ecap2 = _caputo_pair(eta2, alpha1, alpha2, rect, cfg)

    def integrand(t1, t2):
        args = (t1, t2, u2(t1, t2), cap1(t1, t2), cap2(t1, t2))
        return (L.dL_du(*args) * eta2(t1, t2) + L.dL_dd1(*args) * ecap1(t1, t2)
                + L.dL_dd2(*args) * ecap2(t1, t2))

    return tensor_integral(integrand, rect, outer_grid)


def _ritz_tables(expansion: RitzExpansion, psi: BoundaryData,
                 alpha1: VariableOrder, alpha2: VariableOrder, rect: Rect2,
                 outer_grid: int, cfg: QuadConfig):
    """Precompute u, CapD1 u, CapD2 u at the outer nodes as affine maps of c.

    The left Caputo kernel along axis 1 depends on t1 and tau only, so one
    kernel rule per axis, assembled at that axis's outer nodes, serves
    every mode, the boundary lift and every node of the other axis: each
    table column is one contraction of the rule's weights with the
    function's partial derivative at the rule's nodes.  After that every
    J(c) evaluation is a handful of dense matrix products.
    """
    t1n, w1 = clustered_gl(rect.t1.a, rect.t1.b, outer_grid)
    t2n, w2 = clustered_gl(rect.t2.a, rect.t2.b, outer_grid)
    T1 = np.repeat(t1n, outer_grid)
    T2 = np.tile(t2n, outer_grid)
    W = np.outer(w1, w2).ravel()
    rule1, rule2 = (
        KernelRule(SingularKernelSpec(alpha, Side.LEFT, WeightShift.DERIVATIVE),
                   rect.axis(axis).a, nodes, cfg)
        for axis, alpha, nodes in ((1, alpha1, t1n), (2, alpha2, t2n)))

    def columns(fn: SmoothFn2):
        """fn, CapD1 fn and CapD2 fn at (T1, T2)."""
        # axis 1: rows of the rule are t1 nodes, leading axis the t2 nodes
        d1 = rule1.integrate(fn.d_t1(rule1.tau, t2n[:, None, None])).T
        d2 = rule2.integrate(fn.d_t2(t1n[:, None, None], rule2.tau))
        return np.asarray(fn(T1, T2), dtype=float), d1.ravel(), d2.ravel()

    PHI, D1PHI, D2PHI = (np.column_stack(c) for c in zip(
        *(columns(expansion.mode_fn(b)) for b in range(len(expansion.modes)))))
    if psi.all_zero:
        U0 = D10 = D20 = np.zeros(T1.size)
    else:
        U0, D10, D20 = columns(expansion.boundary_lift)
    return T1, T2, W, U0, D10, D20, PHI, D1PHI, D2PHI


def _ritz_objective(L: Lagrangian, tables):
    """J(c) and its exact gradient from the tables of :func:`_ritz_tables`.

    J is an explicit function of the affine tables, so with the declared
    partials of L the gradient is
    PHI^T (W dL/du) + D1PHI^T (W dL/dd1) + D2PHI^T (W dL/dd2).
    """
    T1, T2, W, U0, D10, D20, PHI, D1PHI, D2PHI = tables

    def slots(c):
        return T1, T2, U0 + PHI @ c, D10 + D1PHI @ c, D20 + D2PHI @ c

    def J(c):
        return float(W @ np.asarray(L.L(*slots(c)), dtype=float))

    def grad_J(c):
        args = slots(c)
        return (PHI.T @ (W * L.dL_du(*args)) + D1PHI.T @ (W * L.dL_dd1(*args))
                + D2PHI.T @ (W * L.dL_dd2(*args)))

    return J, grad_J


def ritz_solve(L: Lagrangian, psi: BoundaryData, alpha1: VariableOrder,
               alpha2: VariableOrder, rect: Rect2, n_modes: int,
               outer_grid: int = 20, cfg: QuadConfig = DEFAULT_QUAD,
               opt_tol: float = 1e-7, max_iter: int = 500, *,
               el_grid: int = 4, el_cfg: Optional[QuadConfig] = None,
               coeffs0=None) -> SolveReport:
    """Direct minimization of J over the Ritz space for the given boundary data.

    ``n_modes`` is the mode count per axis (n_modes**2 coefficients).  The
    returned report carries the coefficient vector, the functional value,
    the gradient norm reached, and the stationarity residual of the
    solution on an ``el_grid`` x ``el_grid`` interior grid (``el_grid=0``
    skips that, leaving NaN).  BFGS gets the exact gradient of the
    tabulated J from the declared partials of ``L``.  Evaluation is serial.
    """
    expansion = RitzExpansion.zero(psi, n_modes)
    if coeffs0 is not None:
        expansion = expansion.with_coeffs(coeffs0)
    J, grad_J = _ritz_objective(L, _ritz_tables(expansion, psi, alpha1, alpha2, rect,
                                                outer_grid, cfg))
    result: MinimizeResult = minimize_bfgs(
        J, expansion.coeffs, grad_tol=opt_tol, max_iter=max_iter, grad=grad_J)
    solution = expansion.with_coeffs(result.x)

    if el_grid > 0:
        rep = el_residual(L, solution, alpha1, alpha2, rect, el_grid,
                          el_cfg or cfg)
        el_l2 = rep.l2
    else:
        el_l2 = float("nan")

    return SolveReport(
        coeffs=result.x,
        J_value=result.fun,
        el_residual_l2=el_l2,
        gradient_norm=result.gradient_norm,
        iterations=result.iterations,
        nonconvex_flag=result.nonconvex,
        converged=result.converged,
        expansion=solution,
    )
