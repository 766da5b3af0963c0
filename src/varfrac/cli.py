"""Batch CLI: operator evaluation, identity verification with convergence
ladders, variational solving, and a bundled self-test.

Configuration comes from a single JSON file (``--config``) plus flag
overrides.  Numeric output uses 17-significant-digit formatting, which
round-trips every double exactly.  Evaluation is serial; ``--threads`` is
accepted for compatibility and ignored, so output does not depend on it.

Exit codes: 0 ok, 2 parse error (config or expression), 3 validity error
(order bounds, hypotheses, domains), 4 identity residual above tolerance
or failed self-test property, 5 optimizer did not reach its tolerance.
"""

from __future__ import annotations

import argparse
import json
import sys

import numpy as np

from .domain import BoundMode, Interval, Rect2, SmoothFn1, SmoothFn2, VariableOrder
from .errors import (ConfigurationError, DomainError, ExpressionError,
                     OptimizationError, ValidityError)
from .expressions import compile_expression
from .identities import verify_green, verify_ibp
from .operators import OpKind, interval_op, partial_op
from .quadrature import DEFAULT_QUAD, QuadConfig
from .variational import BoundaryData, Lagrangian, ritz_solve
from . import selftest as _selftest

_COMMANDS = ("op", "verify", "solve", "selftest")


def _fmt(x: float) -> str:
    return format(float(x), ".17g")


def _build_quad(cfg_obj) -> QuadConfig:
    if not cfg_obj:
        return DEFAULT_QUAD
    return QuadConfig(
        panels=int(cfg_obj.get("panels", DEFAULT_QUAD.panels)),
        nodes_per_panel=int(cfg_obj.get("nodes_per_panel", DEFAULT_QUAD.nodes_per_panel)),
        grading=float(cfg_obj.get("grading", DEFAULT_QUAD.grading)),
    )


def _build_alpha(spec, interval: Interval, default_l: int = 2,
                 default_mode: str = "plain") -> VariableOrder:
    """Order function from an expression string or {expr, l, bound_mode} object."""
    if isinstance(spec, dict):
        expr_src = spec["expr"]
        l = int(spec.get("l", default_l))
        mode = BoundMode(spec.get("bound_mode", default_mode))
    else:
        expr_src = str(spec)
        l = default_l
        mode = BoundMode(default_mode)
    expr = compile_expression(expr_src, ("t", "tau"))
    return VariableOrder(expr, interval, l=l, bound_mode=mode)


def _build_rect(obj) -> Rect2:
    return Rect2.of(float(obj["a1"]), float(obj["b1"]), float(obj["a2"]), float(obj["b2"]))


def _fn2_from_config(config, name: str) -> SmoothFn2:
    value = compile_expression(config[name], ("t1", "t2"))
    d1 = config.get(name + "_d1")
    d2 = config.get(name + "_d2")
    return SmoothFn2(
        value,
        None if d1 is None else compile_expression(d1, ("t1", "t2")),
        None if d2 is None else compile_expression(d2, ("t1", "t2")),
        check=False,
    )


def _cmd_op(config, args) -> int:
    kind = OpKind(config["kind"])
    quad = _build_quad(config.get("quad"))
    h = config.get("h")
    h = None if h is None else float(h)
    out = sys.stdout

    if "axis" in config:  # two-variable partial operator
        axis = int(config["axis"])
        rect = _build_rect(config["rect"])
        alpha = _build_alpha(config["alpha"], rect.axis(axis),
                             int(config.get("l", 2)), config.get("bound_mode", "plain"))
        f = _fn2_from_config(config, "f")
        points = np.array(config.get("points", []), dtype=float).reshape(-1, 2)
        values = partial_op(kind, axis, f, alpha, points.T, rect, quad, h)
        out.write("t1,t2,value\n")
        for (t1, t2), v in zip(points, values):
            out.write(f"{_fmt(t1)},{_fmt(t2)},{_fmt(v)}\n")
        return 0

    a, b = float(config["a"]), float(config["b"])
    interval = Interval(a, b)
    alpha = _build_alpha(config["alpha"], interval,
                         int(config.get("l", 2)), config.get("bound_mode", "plain"))
    fexpr = compile_expression(config["f"], ("tau",))
    dexpr = config.get("f_d")
    f = SmoothFn1(fexpr,
                  None if dexpr is None else compile_expression(dexpr, ("tau",)),
                  check=False)
    grid_obj = config.get("grid", {})
    if isinstance(grid_obj, dict) and "values" in grid_obj:
        grid = [float(v) for v in grid_obj["values"]]
    elif isinstance(grid_obj, list):
        grid = [float(v) for v in grid_obj]
    else:
        count = int(grid_obj.get("count", 0))
        grid = list(np.linspace(float(grid_obj.get("start", a)),
                                float(grid_obj.get("stop", b)), count)) if count else []

    values = interval_op(kind, f, alpha, a, b, grid, quad, h)
    out.write("t,value\n")
    for t, v in zip(grid, values):
        out.write(f"{_fmt(t)},{_fmt(v)}\n")
    return 0


def _cmd_verify(config, args) -> int:
    identity = config["identity"]
    if identity not in ("ibp", "green"):
        raise ExpressionError(f"unknown identity {identity!r}; expected 'ibp' or 'green'")
    rect = _build_rect(config["rect"])
    quad = _build_quad(config.get("quad"))
    tolerance = args.tolerance if args.tolerance is not None \
        else float(config.get("tolerance", 1e-5 if identity == "ibp" else 1e-4))
    mode = "above_one_over_l" if identity == "ibp" else "below_one_minus"
    alpha1 = _build_alpha(config["alpha1"], rect.t1, int(config.get("l1", 2)), mode)
    alpha2 = _build_alpha(config["alpha2"], rect.t2, int(config.get("l2", 2)), mode)
    ladder = config.get("ladder", [[16, 16], [24, 24], [32, 32]])

    f = _fn2_from_config(config, "f")
    g = _fn2_from_config(config, "g")

    out = sys.stdout
    out.write("level,outer_grid,panels,lhs,rhs,residual\n")
    etas = [_fn2_from_config(config, name)
            for name in (("eta1", "eta2") if identity == "ibp" else ("eta",))]
    verify = verify_ibp if identity == "ibp" else verify_green
    last = None
    for level, (outer_grid, panels) in enumerate(ladder):
        cfg = QuadConfig(panels=int(panels), nodes_per_panel=quad.nodes_per_panel,
                         grading=quad.grading)
        rep = verify(f, g, *etas, alpha1, alpha2, rect, int(outer_grid), cfg, tolerance)
        out.write(f"{level},{int(outer_grid)},{int(panels)},"
                  f"{_fmt(rep.lhs)},{_fmt(rep.rhs)},{_fmt(rep.residual)}\n")
        last = rep
    return 0 if last is not None and abs(last.residual) <= tolerance else 4


_L_VARS = ("t1", "t2", "u", "d1", "d2")


def _build_lagrangian(config) -> Lagrangian:
    spec = config.get("lagrangian", "quadratic")
    if spec == "quadratic":
        return Lagrangian.quadratic()
    if spec == "string":
        sigma = compile_expression(str(config.get("sigma", "1")), ("t2",))
        return Lagrangian.string(sigma, float(config.get("tension", 1.0)))
    if isinstance(spec, dict):
        return Lagrangian(
            compile_expression(spec["L"], _L_VARS),
            compile_expression(spec["dL_du"], _L_VARS),
            compile_expression(spec["dL_dd1"], _L_VARS),
            compile_expression(spec["dL_dd2"], _L_VARS),
        )
    raise ExpressionError(f"unknown lagrangian preset {spec!r}")


def _build_psi(config, rect: Rect2) -> BoundaryData:
    psi = config.get("psi", 0.0)
    if isinstance(psi, (int, float)):
        return BoundaryData.zero(rect) if psi == 0 else BoundaryData.constant(float(psi), rect)
    return BoundaryData(
        compile_expression(psi["bottom"], ("t1",)),
        compile_expression(psi["right"], ("t2",)),
        compile_expression(psi["top"], ("t1",)),
        compile_expression(psi["left"], ("t2",)),
        rect,
    )


def _cmd_solve(config, args) -> int:
    rect = _build_rect(config["rect"])
    quad = _build_quad(config.get("quad"))
    lagr = _build_lagrangian(config)
    psi = _build_psi(config, rect)
    mode = config.get("bound_mode", "below_one_minus")
    alpha1 = _build_alpha(config["alpha1"], rect.t1, int(config.get("l1", 2)), mode)
    alpha2 = _build_alpha(config["alpha2"], rect.t2, int(config.get("l2", 2)), mode)
    opt_tol = args.tolerance if args.tolerance is not None \
        else float(config.get("opt_tol", 1e-7))
    coeffs0 = config.get("coeffs0")
    report = ritz_solve(
        lagr, psi, alpha1, alpha2, rect,
        n_modes=int(config.get("n_modes", 4)),
        outer_grid=int(config.get("outer_grid", 16)),
        cfg=quad,
        opt_tol=opt_tol,
        max_iter=int(config.get("max_iter", 500)),
        el_grid=int(config.get("el_grid", 4)),
        coeffs0=None if coeffs0 is None else [float(c) for c in coeffs0],
    )
    sys.stdout.write(json.dumps(report.to_json_dict(), indent=2) + "\n")
    return 0 if report.converged else 5


def _cmd_selftest(args) -> int:
    ok = _selftest.run(sys.stdout, seed=args.seed)
    return 0 if ok else 4


def _parse_args(argv):
    parser = argparse.ArgumentParser(
        prog="varfrac",
        description="Variable-order fractional calculus: operators, identity "
                    "verification, and variational solving.",
    )
    parser.add_argument("command_pos", nargs="?", choices=_COMMANDS, metavar="command",
                        help="one of: " + ", ".join(_COMMANDS))
    parser.add_argument("--config", help="path to a JSON configuration file")
    parser.add_argument("--command", dest="command_flag", choices=_COMMANDS,
                        help="command override when not given positionally")
    parser.add_argument("--tolerance", type=float, default=None,
                        help="override the config tolerance (verify: residual gate; "
                             "solve: optimizer gradient tolerance)")
    parser.add_argument("--threads", type=int, default=1,
                        help="accepted and ignored: evaluation is serial")
    parser.add_argument("--seed", type=int, default=0,
                        help="seed for the random instances in selftest")
    return parser.parse_args(argv)


def main(argv=None) -> int:
    args = _parse_args(argv)
    config = {}
    if args.config:
        try:
            with open(args.config, "r", encoding="utf-8") as fh:
                config = json.load(fh)
        except OSError as exc:
            print(f"cannot read config: {exc}", file=sys.stderr)
            return 2
        except json.JSONDecodeError as exc:
            print(f"config parse error: {exc} (line {exc.lineno}, column {exc.colno})",
                  file=sys.stderr)
            return 2

    command = args.command_pos or args.command_flag or config.get("command")
    if command not in _COMMANDS:
        print(f"no command given; expected one of {', '.join(_COMMANDS)}",
              file=sys.stderr)
        return 2

    try:
        # a non-finite value is reported by the library's finiteness checks
        # as a validity error, so numpy's floating-point warnings stay off
        with np.errstate(invalid="ignore", divide="ignore", over="ignore"):
            if command == "op":
                return _cmd_op(config, args)
            if command == "verify":
                return _cmd_verify(config, args)
            if command == "solve":
                return _cmd_solve(config, args)
            return _cmd_selftest(args)
    except ExpressionError as exc:
        print(f"parse error: {exc}", file=sys.stderr)
        return 2
    except KeyError as exc:
        print(f"config is missing required key {exc}", file=sys.stderr)
        return 2
    except (ValidityError, DomainError, ConfigurationError) as exc:
        print(f"validity error: {exc}", file=sys.stderr)
        return 3
    except OptimizationError as exc:
        print(f"optimizer failure: {exc}", file=sys.stderr)
        return 5


if __name__ == "__main__":
    sys.exit(main())
