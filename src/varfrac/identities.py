"""Numerical verification of the two exchange identities for variable-order
partial operators on a rectangle:

* the integration-by-parts identity, which moves left partial integrals of
  variable order onto the other factor as right partial integrals under a
  double integral;
* the Green-type identity, which converts double integrals of Caputo
  partial derivatives into right Riemann-Liouville partial derivatives
  plus a counterclockwise contour integral of order-(1 - alpha) right
  integrals over the rectangle boundary.

Both verifiers return signed residuals; outer double integrals use the
endpoint-clustered tensor Gauss-Legendre rule, the inner operators come
from :mod:`varfrac.operators`.  Each field, and each inner operator in it,
is evaluated once on a whole outer grid (or probe grid, or edge) and
reduced in fixed grid order, so results are deterministic.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

import numpy as np

from .domain import BoundMode, Rect2, SmoothFn2, VariableOrder
from .errors import ValidityError
from .operators import OpKind, partial_op
from .quadrature import DEFAULT_QUAD, QuadConfig, line_integral_edge, tensor_integral

_PROBE_GRID = 16


@dataclass
class IdentityReport:
    """Both sides of an identity, their residual, and the quadrature used."""

    lhs: float
    rhs: float
    residual: float
    outer_grid: int
    quad: QuadConfig
    converged: bool

    def to_json_dict(self) -> dict:
        return {
            "lhs": self.lhs,
            "rhs": self.rhs,
            "residual": self.residual,
            "outer_grid": self.outer_grid,
            "panels": self.quad.panels,
            "nodes_per_panel": self.quad.nodes_per_panel,
            "grading": self.quad.grading,
            "converged": self.converged,
        }


def _require_mode(alpha: VariableOrder, mode: BoundMode, hypothesis: str, name: str):
    if alpha.bound_mode is not mode:
        raise ValidityError(
            f"{name} must be declared in bound mode '{mode.value}' "
            f"(hypothesis {hypothesis}), got '{alpha.bound_mode.value}'"
        )


def verify_ibp(f, g, eta1, eta2, alpha1: VariableOrder, alpha2: VariableOrder,
               rect: Rect2, outer_grid: int = 20, cfg: QuadConfig = DEFAULT_QUAD,
               tolerance: float = 1e-5) -> IdentityReport:
    """Residual of the integration-by-parts identity for partial integrals.

    LHS integrates g * (left I^alpha1 eta1) + f * (left I^alpha2 eta2);
    RHS integrates eta1 * (right I^alpha1 g) + eta2 * (right I^alpha2 f).
    Requires both orders declared in the 1/l < alpha < 1 regime.
    """
    _require_mode(alpha1, BoundMode.ABOVE_ONE_OVER_L, "1/l1 < alpha1 < 1", "alpha1")
    _require_mode(alpha2, BoundMode.ABOVE_ONE_OVER_L, "1/l2 < alpha2 < 1", "alpha2")
    f, g = SmoothFn2.wrap(f), SmoothFn2.wrap(g)
    eta1, eta2 = SmoothFn2.wrap(eta1), SmoothFn2.wrap(eta2)

    def lhs_field(t1, t2):
        return (g(t1, t2) * partial_op(OpKind.I_LEFT, 1, eta1, alpha1, (t1, t2), rect, cfg)
                + f(t1, t2) * partial_op(OpKind.I_LEFT, 2, eta2, alpha2, (t1, t2), rect, cfg))

    def rhs_field(t1, t2):
        return (eta1(t1, t2) * partial_op(OpKind.I_RIGHT, 1, g, alpha1, (t1, t2), rect, cfg)
                + eta2(t1, t2) * partial_op(OpKind.I_RIGHT, 2, f, alpha2, (t1, t2), rect, cfg))

    lhs = tensor_integral(lhs_field, rect, outer_grid)
    rhs = tensor_integral(rhs_field, rect, outer_grid)
    residual = lhs - rhs
    return IdentityReport(lhs, rhs, residual, outer_grid, cfg, abs(residual) <= tolerance)


def contour_one_form(p_field, q_field, rect: Rect2,
                     cfg: QuadConfig = DEFAULT_QUAD) -> float:
    """Counterclockwise contour integral of P dt1 + Q dt2 over the boundary.

    Four-edge decomposition: bottom (t2 = a2, dt1 > 0) and top (t2 = b2,
    dt1 < 0) carry P; right (t1 = b1, dt2 > 0) and left (t1 = a1, dt2 < 0)
    carry Q.  Each field is called once per edge, with the vector of edge
    nodes for the varying coordinate and a scalar for the fixed one.
    """
    a1, b1 = rect.t1.a, rect.t1.b
    a2, b2 = rect.t2.a, rect.t2.b
    bottom = line_integral_edge(lambda s: p_field(s, a2), a1, b1, +1, cfg)
    right = line_integral_edge(lambda s: q_field(b1, s), a2, b2, +1, cfg)
    top = line_integral_edge(lambda s: p_field(s, b2), a1, b1, -1, cfg)
    left = line_integral_edge(lambda s: q_field(a1, s), a2, b2, -1, cfg)
    return bottom + right + top + left


def boundary_contour(eta, g, f, alpha1: VariableOrder, alpha2: VariableOrder,
                     rect: Rect2, cfg: QuadConfig = DEFAULT_QUAD) -> float:
    """Contour term of the Green-type identity.

    Counterclockwise integral over the rectangle boundary of
    eta * [ (right I^(1-alpha1) g) dt2 - (right I^(1-alpha2) f) dt1 ].
    The inner right integrals are empty (hence zero) on the edges t1 = b1
    and t2 = b2, so only the left and bottom edges contribute in practice;
    all four are still assembled explicitly.
    """
    eta, g, f = SmoothFn2.wrap(eta), SmoothFn2.wrap(g), SmoothFn2.wrap(f)
    i1g = _right_co_integral_field(g, alpha1, 1, rect, cfg)
    i2f = _right_co_integral_field(f, alpha2, 2, rect, cfg)
    p_field = lambda t1, t2: -eta(t1, t2) * i2f(t1, t2)
    q_field = lambda t1, t2: eta(t1, t2) * i1g(t1, t2)
    return contour_one_form(p_field, q_field, rect, cfg)


def _right_co_integral_field(f2: SmoothFn2, alpha: VariableOrder, axis: int,
                             rect: Rect2, cfg: QuadConfig):
    """Right (1 - alpha)-integral of f2 along the given axis, as a field:
    the right integral of order 1 - alpha."""
    co_order = VariableOrder(lambda t, tau: 1.0 - alpha(t, tau), alpha.domain, validate=False)
    return lambda t1, t2: partial_op(OpKind.I_RIGHT, axis, f2, co_order, (t1, t2), rect, cfg)


def _probe_c1(field, rect: Rect2, name: str):
    """Sample-check that a field is finite with bounded difference quotients."""
    t1 = np.linspace(rect.t1.a, rect.t1.b, _PROBE_GRID)
    t2 = np.linspace(rect.t2.a, rect.t2.b, _PROBE_GRID)
    vals = np.broadcast_to(field(t1[:, None], t2[None, :]), (_PROBE_GRID, _PROBE_GRID))
    if not np.all(np.isfinite(vals)):
        raise ValidityError(f"{name} is not finite on the probe grid")
    scale = 1.0 + np.max(np.abs(vals))
    d1 = np.abs(np.diff(vals, axis=0)) / (t1[1] - t1[0])
    d2 = np.abs(np.diff(vals, axis=1)) / (t2[1] - t2[0])
    if max(d1.max(), d2.max()) > 1e8 * scale:
        raise ValidityError(f"{name} has unbounded difference quotients on the probe grid")


def verify_green(f, g, eta, alpha1: VariableOrder, alpha2: VariableOrder,
                 rect: Rect2, outer_grid: int = 20, cfg: QuadConfig = DEFAULT_QUAD,
                 tolerance: float = 1e-4, h: Optional[float] = None,
                 probe: bool = True) -> IdentityReport:
    """Residual of the Green-type identity.

    LHS integrates g * (Caputo D1 eta) + f * (Caputo D2 eta); RHS adds the
    area integral of eta * (right RL D1 g + right RL D2 f) and the
    counterclockwise boundary contour of the order-(1 - alpha) right
    integrals.  Requires both orders declared in the
    0 < alpha < 1 - 1/l regime.

    The hypothesis that the inner right integrals of f and g are
    continuously differentiable is not checkable for black-box inputs; a
    probe grid rejects obvious violations (non-finite values, exploding
    difference quotients) and the rest is assumed.
    """
    _require_mode(alpha1, BoundMode.BELOW_ONE_MINUS, "0 < alpha1 < 1 - 1/l1", "alpha1")
    _require_mode(alpha2, BoundMode.BELOW_ONE_MINUS, "0 < alpha2 < 1 - 1/l2", "alpha2")
    f, g, eta = SmoothFn2.wrap(f), SmoothFn2.wrap(g), SmoothFn2.wrap(eta)

    if probe:
        _probe_c1(_right_co_integral_field(g, alpha1, 1, rect, cfg), rect,
                  "right (1-alpha1)-integral of g")
        _probe_c1(_right_co_integral_field(f, alpha2, 2, rect, cfg), rect,
                  "right (1-alpha2)-integral of f")

    def lhs_field(t1, t2):
        return (g(t1, t2) * partial_op(OpKind.D_CAP_LEFT, 1, eta, alpha1, (t1, t2), rect, cfg)
                + f(t1, t2) * partial_op(OpKind.D_CAP_LEFT, 2, eta, alpha2, (t1, t2), rect, cfg))

    def area_field(t1, t2):
        return eta(t1, t2) * (
            partial_op(OpKind.D_RL_RIGHT, 1, g, alpha1, (t1, t2), rect, cfg, h)
            + partial_op(OpKind.D_RL_RIGHT, 2, f, alpha2, (t1, t2), rect, cfg, h))

    lhs = tensor_integral(lhs_field, rect, outer_grid)
    rhs = (tensor_integral(area_field, rect, outer_grid)
           + boundary_contour(eta, g, f, alpha1, alpha2, rect, cfg))
    residual = lhs - rhs
    return IdentityReport(lhs, rhs, residual, outer_grid, cfg, abs(residual) <= tolerance)
