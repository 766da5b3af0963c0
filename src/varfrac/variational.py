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

L's arguments along a field u, ``(t1, t2, u, CapD1 u, CapD2 u)``, are
built in one place, :func:`_slots`: J, its first variation and the
Euler-Lagrange slot fields all evaluate L or its partials there.  The
Ritz objective keeps the same tuple as tables affine in the coefficients.

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
from typing import Optional

import numpy as np

from .domain import (Interval, Rect2, SeparableFn2, SmoothFn1, SmoothFn2, VariableOrder,
                     _as_array_fn, _fd_derivative, _require_count, _sum_products)
from .errors import DomainError, ValidityError
from .operators import OpKind, factor_op, partial_op
from .optimize import MinimizeResult, minimize_bfgs
from .quadrature import DEFAULT_QUAD, QuadConfig, clustered_gl, tensor_integral

_LAGRANGIAN_CHECK_SEED = 0x1A6
_CORNER_TOL = 1e-12


class Lagrangian:
    """L(t1, t2, u, d1, d2) with its three partial derivatives.

    ``dL_du``, ``dL_dd1`` and ``dL_dd2`` differentiate L with respect to
    the value slot and the two Caputo-derivative slots.  On construction
    each partial is compared against a 4th-order central difference of L
    at 32 random points (1e-6 relative).  All callables must broadcast over
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
            fd = _fd_derivative(lambda x: self.L(*args[:idx], x, *args[idx + 1:]),
                                1e-5 * (1.0 + np.abs(args[idx])))(args[idx])
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

    def __init__(self, bottom, right, top, left, rect: Rect2):
        self.bottom = SmoothFn1.wrap(bottom)
        self.right = SmoothFn1.wrap(right)
        self.top = SmoothFn1.wrap(top)
        self.left = SmoothFn1.wrap(left)
        self.rect = rect
        self._check_corners()

    @classmethod
    def zero(cls, rect: Rect2) -> "BoundaryData":
        return cls.constant(0.0, rect)

    @classmethod
    def constant(cls, c: float, rect: Rect2) -> "BoundaryData":
        f = SmoothFn1(lambda s: c + 0.0 * s, lambda s: 0.0 * s, check=False)
        return cls(f, f, f, f, rect)

    @classmethod
    def from_function(cls, fn2, rect: Rect2) -> "BoundaryData":
        """Edge restrictions of a full two-variable function, whose partials
        along an edge, when given, are the edge's derivative."""
        fn2 = SmoothFn2.wrap(fn2)
        a1, b1, a2, b2 = rect.t1.a, rect.t1.b, rect.t2.a, rect.t2.b
        return cls(*(fn2.section(axis, c) for axis, c in ((1, a2), (2, b1), (1, b2), (2, a1))),
                   rect)

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

    def lift(self) -> SeparableFn2:
        """Transfinite (Coons) interpolant of the four edges, in four terms.

        With x, y the coordinates normalised to the rectangle, the terms are
        ``(1 - y) * (bottom - line)``, ``y * (top - line)``, ``(1 - x) * left``
        and ``x * right``, where each line joins its edge's corner values:
        the bilinear corner blend folded into the two edge factors.  The
        lift matches the boundary trace exactly and is C^1 inside for C^1
        edge data; its partials use the edges' derivatives, falling back to
        finite differences of the edge functions.  A zero trace gives exact
        zeros.
        """
        t1, t2 = self.rect.t1, self.rect.t2
        (x0, x1), (y0, y1) = _ramps(t1), _ramps(t2)

        def edge(fn: SmoothFn1):
            c0, c1, d = float(fn(t1.a)), float(fn(t1.b)), fn.derivative_callable(t1)[0]
            slope = (c1 - c0) / t1.length
            return SmoothFn1(lambda s: fn.value(s) - (c0 + slope * (s - t1.a)),
                             lambda s: d(s) - slope, check=False)

        return SeparableFn2([(edge(self.bottom), y0), (edge(self.top), y1),
                             (x0, self.left), (x1, self.right)], self.rect)


def _ramps(iv: Interval):
    """The linear functions 1 - x and x of x = (s - a) / length, with derivatives."""
    return (SmoothFn1(lambda s: (iv.b - s) / iv.length, lambda s: -1.0 / iv.length + 0.0 * s,
                      check=False),
            SmoothFn1(lambda s: (s - iv.a) / iv.length, lambda s: 1.0 / iv.length + 0.0 * s,
                      check=False))


def _sines(C: np.ndarray, iv: Interval, order: int, s) -> list:
    """The rows of C times the sines at s: row k is the sum over m = 1, 2, ...
    of C[k, m - 1] * sin(m pi x), x = (s - a) / length, or its derivative
    for ``order`` 1.  Each sine or cosine is computed once for all rows,
    and each row sums its terms in m order from 0, as ``sum`` does, so a
    unit row has the bits of its one sine: a zero term adds +-0, which
    leaves a nonzero double unchanged."""
    x, acc = (s - iv.a) / iv.length, 0
    for m, c in enumerate(C.T, 1):
        acc = acc + (np.multiply.outer(c * (m * np.pi / iv.length), np.cos(m * np.pi * x))
                     if order else np.multiply.outer(c, np.sin(m * np.pi * x)))
    return list(acc)


def _sine(j: int, iv: Interval) -> SmoothFn1:
    """s -> sin(j pi x), the one row of :func:`_sines` for the unit row of j."""
    e = np.eye(1, j, j - 1)
    return SmoothFn1(lambda s: _sines(e, iv, 0, s)[0], lambda s: _sines(e, iv, 1, s)[0],
                     check=False)


class RitzExpansion(SeparableFn2):
    """Boundary lift plus a span of boundary-vanishing tensor sine modes.

    u = lift + sum over modes (k, m) of c_km * sin(k pi x1) * sin(m pi x2)
    in coordinates normalized to the rectangle, k and m from 1 to
    ``n_per_axis``.  Every mode vanishes identically on the boundary, so u
    matches the prescribed trace exactly for any coefficient vector.
    ``coeffs`` holds the c_km k-major, in the order of ``modes``.
    ``boundary_lift`` is a SeparableFn2, as :meth:`BoundaryData.lift`
    returns, and u is one too: its rows (:meth:`rows`) are the lift's,
    then n sine rows per axis, ``sin(k pi x1)`` on axis 1 and ``sum_m c_km
    sin(m pi x2)`` on axis 2, from :func:`_sines` with the identity and
    with the coefficient matrix C = (c_km).  Raises DomainError unless
    ``n_per_axis`` is a positive integer and ``coeffs`` holds its square.
    """

    def __init__(self, boundary_lift: SeparableFn2, n_per_axis: int, coeffs, rect: Rect2):
        if not isinstance(boundary_lift, SeparableFn2):
            raise TypeError("boundary_lift must be a SeparableFn2, as BoundaryData.lift() returns")
        n = _require_count("n_per_axis", n_per_axis, 1)
        coeffs = np.asarray(coeffs, dtype=float)
        if coeffs.shape != (n * n,):
            raise DomainError(f"expected {n * n} coefficients, got shape {coeffs.shape}")
        self.boundary_lift, self.n_per_axis = boundary_lift, n
        self.modes = [(k, m) for k in range(1, n + 1) for m in range(1, n + 1)]
        self.coeffs = coeffs
        # the coefficient matrix of each axis's sine rows
        self._blocks = (np.eye(n), coeffs.reshape(n, n))
        super().__init__(boundary_lift.terms, rect)
        self.count += n

    def rows(self, axis: int, order: int, s) -> list:
        return (super().rows(axis, order, s)
                + _sines(self._blocks[axis - 1], self.rect.axis(axis), order, s))

    @classmethod
    def zero(cls, psi: BoundaryData, n_per_axis: int) -> "RitzExpansion":
        n = _require_count("n_per_axis", n_per_axis, 1)
        return cls(psi.lift(), n, np.zeros(n * n), psi.rect)

    def with_coeffs(self, coeffs) -> "RitzExpansion":
        return RitzExpansion(self.boundary_lift, self.n_per_axis, coeffs, self.rect)

    def mode_fn(self, index: int) -> SeparableFn2:
        """The index-th basis mode, one term with analytic partials."""
        k, m = self.modes[index]
        return SeparableFn2([(_sine(k, self.rect.t1), _sine(m, self.rect.t2))], self.rect)


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


def _slots(u, alpha1: VariableOrder, alpha2: VariableOrder, rect: Rect2, cfg: QuadConfig):
    """The one builder of L's arguments along u: (t1, t2) -> (t1, t2, u,
    CapD1 u, CapD2 u), the Caputo partials from :func:`partial_op`.
    :func:`_ritz_objective` keeps the same tuple as affine tables."""
    u2 = SmoothFn2.wrap(u)
    cap = lambda axis, alpha, t: partial_op(OpKind.D_CAP_LEFT, axis, u2, alpha, t, rect, cfg)
    return lambda t1, t2: (t1, t2, u2(t1, t2), cap(1, alpha1, (t1, t2)), cap(2, alpha2, (t1, t2)))


def functional_eval(L: Lagrangian, u, alpha1: VariableOrder, alpha2: VariableOrder,
                    rect: Rect2, outer_grid: int = 20,
                    cfg: QuadConfig = DEFAULT_QUAD) -> float:
    """J[u]: clustered tensor quadrature of L(t, u, CapD1 u, CapD2 u)."""
    slots = _slots(u, alpha1, alpha2, rect, cfg)
    return tensor_integral(lambda t1, t2: L.L(*slots(t1, t2)), rect, outer_grid)


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
    """The fields t -> dL/du, dL/dd1, dL/dd2 evaluated along u, at the
    arguments built by :func:`_slots`, the one place that builds them."""
    slots = _slots(u2, alpha1, alpha2, rect, cfg)
    return tuple(SmoothFn2(lambda t1, t2, p=p: p(*slots(t1, t2)), check=False)
                 for p in (L.dL_du, L.dL_dd1, L.dL_dd2))


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
    distance-scaled or one-sided stencils.  The Caputo partials of u inside
    those fields, at every stencil node, take the separable path of
    :func:`partial_op` when u is a SeparableFn2 such as a RitzExpansion:
    1-D integrals of its factors once per distinct coordinate.  Each of
    the three terms is evaluated once on the whole grid, t1 as a column
    and t2 as a row.  The report's ``l2`` is the discrete L2 norm
    sqrt(mean(R^2) * area).  Raises DomainError unless ``point_grid`` is a
    positive integer.
    """
    _require_count("point_grid", point_grid, 1)
    f_u, f_d1, f_d2 = _composed_slot_fields(L, u, alpha1, alpha2, rect, cfg)
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
    eta2 = SmoothFn2.wrap(eta)
    _check_zero_trace(eta2, rect)
    at_u, along = _slots(u, alpha1, alpha2, rect, cfg), _slots(eta2, alpha1, alpha2, rect, cfg)

    def integrand(t1, t2):
        args, (_, _, e, e1, e2) = at_u(t1, t2), along(t1, t2)
        return L.dL_du(*args) * e + L.dL_dd1(*args) * e1 + L.dL_dd2(*args) * e2

    return tensor_integral(integrand, rect, outer_grid)


def _ritz_tables(expansion: RitzExpansion, alpha1: VariableOrder, alpha2: VariableOrder,
                 rect: Rect2, outer_grid: int, cfg: QuadConfig):
    """Precompute u, CapD1 u, CapD2 u at the outer nodes as affine maps of c.

    The boundary lift and every mode are sums of products of one-variable
    factors, and a partial Caputo derivative acts on the factors along its
    axis only.  So the basis is the expansion with the identity for its
    coefficient matrix: its rows (:meth:`RitzExpansion.rows`) are the
    lift's, then ``sin(j pi x)`` for j = 1..n on each axis, tabulated at
    each axis's outer nodes with one kernel rule per axis
    (:func:`factor_op`): n sine rows per axis for n**2 modes.  Each table
    column is a sum of outer products of those row tables.  After that
    every J(c) evaluation is a handful of dense matrix products.
    """
    t1n, w1 = clustered_gl(rect.t1.a, rect.t1.b, outer_grid)
    t2n, w2 = clustered_gl(rect.t2.a, rect.t2.b, outer_grid)
    T1 = np.repeat(t1n, outer_grid)
    T2 = np.tile(t2n, outer_grid)
    W = np.outer(w1, w2).ravel()
    basis = expansion.with_coeffs(np.eye(expansion.n_per_axis).ravel())
    G1, G2 = np.array(basis.rows(1, 0, t1n)), np.array(basis.rows(2, 0, t2n))
    C1 = factor_op(OpKind.D_CAP_LEFT, 1, basis, alpha1, t1n, rect, cfg)
    C2 = factor_op(OpKind.D_CAP_LEFT, 2, basis, alpha2, t2n, rect, cfg)

    # u, CapD1 u and CapD2 u of a term are the outer products of these pairs;
    # mode (k, m) pairs row r + k - 1 on axis 1 with row r + m - 1 on axis 2
    pairs, r = ((G1, G2), (C1, G2), (G1, C2)), expansion.boundary_lift.count
    U0, D10, D20 = (_sum_products(g1[:r, :, None], g2[:r, None, :]).ravel() for g1, g2 in pairs)
    k, m = r - 1 + np.array(expansion.modes).T
    PHI, D1PHI, D2PHI = ((g1[k, :, None] * g2[m, None, :]).reshape(len(k), -1).T
                         for g1, g2 in pairs)
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

    ``n_modes`` is the mode count per axis (n_modes**2 coefficients;
    DomainError, before any work, unless it is a positive integer).  The
    returned report carries the coefficient vector, the functional value,
    the gradient norm reached, and the stationarity residual of the
    solution on an ``el_grid`` x ``el_grid`` interior grid (``el_grid=0``
    skips that, leaving NaN; DomainError, before any work, unless it is a
    non-negative integer).  BFGS gets the exact gradient of the tabulated
    J from the declared partials of ``L``.  Evaluation is serial.
    """
    _require_count("el_grid", el_grid, 0)
    expansion = RitzExpansion.zero(psi, n_modes)
    if coeffs0 is not None:
        expansion = expansion.with_coeffs(coeffs0)
    J, grad_J = _ritz_objective(L, _ritz_tables(expansion, alpha1, alpha2, rect, outer_grid,
                                                cfg))
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
