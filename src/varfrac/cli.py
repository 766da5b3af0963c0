"""Batch CLI: operator evaluation, identity verification with convergence
ladders, variational solving, and a bundled self-test.

Configuration comes from a single JSON file (``--config``) plus flag
overrides.  Numeric output uses 17-significant-digit formatting, which
round-trips every double exactly.  Evaluation is serial; ``--threads`` is
accepted for compatibility and ignored, so output does not depend on it.

Exit codes: 0 ok, 2 parse error (config file, config value or
expression), 3 validity error (order bounds, hypotheses, domains), 4
identity residual above tolerance or failed self-test property, 5
optimizer did not reach its tolerance.
"""

from __future__ import annotations

import argparse
import functools
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


def _int(value, name: str) -> int:
    """``value`` as an int if it is an integral number, so 4 and 4.0 both
    give 4; anything else is a parse error naming ``name``."""
    if not isinstance(value, bool) and (isinstance(value, int) or
                                        isinstance(value, float) and value.is_integer()):
        return int(value)
    raise ExpressionError(f"{name} must be an integer, got {value!r}")


def _num(value, name: str) -> float:
    """``value`` as a float if it is a finite number; anything else, NaN
    and infinities included, is a parse error naming ``name``."""
    if (not isinstance(value, bool) and isinstance(value, (int, float))
            and abs(value) <= sys.float_info.max):
        return float(value)
    raise ExpressionError(f"{name} must be a finite number, got {value!r}")


def _nums(value, name: str) -> list:
    """``value`` as a list of floats if it is a list of numbers."""
    if not isinstance(value, list):
        raise ExpressionError(f"{name} must be a list of numbers, got {value!r}")
    return [_num(v, f"{name} entry") for v in value]


def _points(value) -> np.ndarray:
    """The ``points`` list of [t1, t2] pairs as an (n, 2) array."""
    if not isinstance(value, list) or any(not isinstance(p, list) or len(p) != 2 for p in value):
        raise ExpressionError(f"points must be a list of [t1, t2] pairs, got {value!r}")
    return np.array([_nums(p, "points") for p in value]).reshape(-1, 2)


def _obj(value, name: str) -> dict:
    """``value`` if it is a JSON object; anything else is a parse error."""
    if not isinstance(value, dict):
        raise ExpressionError(f"{name} must be a JSON object, got {value!r}")
    return value


def _choice(value, enum_cls, name: str):
    """The member of ``enum_cls`` whose value is ``value``."""
    try:
        return enum_cls(value)
    except ValueError:
        expected = ", ".join(repr(m.value) for m in enum_cls)
        raise ExpressionError(f"{name} must be one of {expected}, got {value!r}") from None


def _build_quad(cfg_obj) -> QuadConfig:
    if not cfg_obj:
        return DEFAULT_QUAD
    cfg_obj = _obj(cfg_obj, "quad")
    return QuadConfig(
        panels=_int(cfg_obj.get("panels", DEFAULT_QUAD.panels), "panels"),
        nodes_per_panel=_int(cfg_obj.get("nodes_per_panel", DEFAULT_QUAD.nodes_per_panel),
                             "nodes_per_panel"),
        grading=_num(cfg_obj.get("grading", DEFAULT_QUAD.grading), "grading"),
    )


def _build_alpha(spec, interval: Interval, default_l: int = 2,
                 default_mode: str = "plain") -> VariableOrder:
    """Order function from an expression string or {expr, l, bound_mode} object."""
    if isinstance(spec, dict):
        expr_src = spec["expr"]
        l = _int(spec.get("l", default_l), "l")
        mode = _choice(spec.get("bound_mode", default_mode), BoundMode, "bound_mode")
    else:
        expr_src = str(spec)
        l = default_l
        mode = _choice(default_mode, BoundMode, "bound_mode")
    expr = compile_expression(expr_src, ("t", "tau"))
    return VariableOrder(expr, interval, l=l, bound_mode=mode)


def _build_rect(obj) -> Rect2:
    obj = _obj(obj, "rect")
    return Rect2.of(*(_num(obj[key], key) for key in ("a1", "b1", "a2", "b2")))


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
    kind = _choice(config["kind"], OpKind, "kind")
    quad = _build_quad(config.get("quad"))
    h = config.get("h")
    h = None if h is None else _num(h, "h")
    out = sys.stdout

    if "axis" in config:  # two-variable partial operator
        axis = _int(config["axis"], "axis")
        rect = _build_rect(config["rect"])
        alpha = _build_alpha(config["alpha"], rect.axis(axis),
                             _int(config.get("l", 2), "l"), config.get("bound_mode", "plain"))
        f = _fn2_from_config(config, "f")
        points = _points(config.get("points", []))
        values = partial_op(kind, axis, f, alpha, points.T, rect, quad, h)
        out.write("t1,t2,value\n")
        for (t1, t2), v in zip(points, values):
            out.write(f"{_fmt(t1)},{_fmt(t2)},{_fmt(v)}\n")
        return 0

    a, b = _num(config["a"], "a"), _num(config["b"], "b")
    interval = Interval(a, b)
    alpha = _build_alpha(config["alpha"], interval,
                         _int(config.get("l", 2), "l"), config.get("bound_mode", "plain"))
    fexpr = compile_expression(config["f"], ("tau",))
    dexpr = config.get("f_d")
    f = SmoothFn1(fexpr,
                  None if dexpr is None else compile_expression(dexpr, ("tau",)),
                  check=False)
    grid_obj = config.get("grid", {})
    if isinstance(grid_obj, list):
        grid = _nums(grid_obj, "grid")
    elif "values" in _obj(grid_obj, "grid"):
        grid = _nums(grid_obj["values"], "grid values")
    else:
        count = _int(grid_obj.get("count", 0), "count")
        grid = list(np.linspace(_num(grid_obj.get("start", a), "start"),
                                _num(grid_obj.get("stop", b), "stop"), count)) if count else []

    values = interval_op(kind, f, alpha, a, b, grid, quad, h)
    out.write("t,value\n")
    for t, v in zip(grid, values):
        out.write(f"{_fmt(t)},{_fmt(v)}\n")
    return 0


def _cmd_verify(config, args) -> int:
    identity = config["identity"]
    if identity not in ("ibp", "green"):
        raise ExpressionError(f"unknown identity {identity!r}; expected 'ibp' or 'green'")
    ladder = config.get("ladder", [[16, 16], [24, 24], [32, 32]])
    if not ladder:
        raise ExpressionError("ladder has no rungs; expected [[outer_grid, panels], ...]")
    if not isinstance(ladder, list) or any(not isinstance(r, list) or len(r) != 2
                                           for r in ladder):
        raise ExpressionError(f"ladder {ladder!r} is not a list of [outer_grid, panels] rungs")
    ladder = [(_int(g, "ladder outer_grid"), _int(p, "ladder panels")) for g, p in ladder]
    rect = _build_rect(config["rect"])
    quad = _build_quad(config.get("quad"))
    tolerance = _num(args.tolerance, "--tolerance") if args.tolerance is not None \
        else _num(config.get("tolerance", 1e-5 if identity == "ibp" else 1e-4), "tolerance")
    mode = "above_one_over_l" if identity == "ibp" else "below_one_minus"
    alpha1 = _build_alpha(config["alpha1"], rect.t1, _int(config.get("l1", 2), "l1"), mode)
    alpha2 = _build_alpha(config["alpha2"], rect.t2, _int(config.get("l2", 2), "l2"), mode)

    f = _fn2_from_config(config, "f")
    g = _fn2_from_config(config, "g")

    out = sys.stdout
    out.write("level,outer_grid,panels,lhs,rhs,residual\n")
    etas = [_fn2_from_config(config, name)
            for name in (("eta1", "eta2") if identity == "ibp" else ("eta",))]
    verify = verify_ibp if identity == "ibp" else verify_green
    for level, (outer_grid, panels) in enumerate(ladder):
        cfg = QuadConfig(panels=panels, nodes_per_panel=quad.nodes_per_panel,
                         grading=quad.grading)
        # the Green C^1 probe's outcome does not depend on the rung: probe once
        rep = verify(f, g, *etas, alpha1, alpha2, rect, outer_grid, cfg, tolerance,
                     **({} if identity == "ibp" else {"probe": level == 0}))
        out.write(f"{level},{outer_grid},{panels},"
                  f"{_fmt(rep.lhs)},{_fmt(rep.rhs)},{_fmt(rep.residual)}\n")
    return 0 if abs(rep.residual) <= tolerance else 4


_L_VARS = ("t1", "t2", "u", "d1", "d2")


def _build_lagrangian(config, rect: Rect2) -> Lagrangian:
    spec = config.get("lagrangian", "quadratic")
    if spec == "quadratic":
        return Lagrangian.quadratic()
    if spec == "string":
        sigma = compile_expression(str(config.get("sigma", "1")), ("t2",))
        return Lagrangian.string(sigma, _num(config.get("tension", 1.0), "tension"))
    if isinstance(spec, dict):
        return Lagrangian(
            compile_expression(spec["L"], _L_VARS),
            compile_expression(spec["dL_du"], _L_VARS),
            compile_expression(spec["dL_dd1"], _L_VARS),
            compile_expression(spec["dL_dd2"], _L_VARS),
            rect=rect,
        )
    raise ExpressionError(f"unknown lagrangian preset {spec!r}")


def _build_psi(config, rect: Rect2) -> BoundaryData:
    psi = config.get("psi", 0.0)
    if isinstance(psi, (int, float)):
        psi = _num(psi, "psi")
        return BoundaryData.zero(rect) if psi == 0 else BoundaryData.constant(psi, rect)
    psi = _obj(psi, "psi")
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
    lagr = _build_lagrangian(config, rect)
    psi = _build_psi(config, rect)
    mode = config.get("bound_mode", "below_one_minus")
    alpha1 = _build_alpha(config["alpha1"], rect.t1, _int(config.get("l1", 2), "l1"), mode)
    alpha2 = _build_alpha(config["alpha2"], rect.t2, _int(config.get("l2", 2), "l2"), mode)
    opt_tol = _num(args.tolerance, "--tolerance") if args.tolerance is not None \
        else _num(config.get("opt_tol", 1e-7), "opt_tol")
    coeffs0 = config.get("coeffs0")
    report = ritz_solve(
        lagr, psi, alpha1, alpha2, rect,
        n_modes=_int(config.get("n_modes", 4), "n_modes"),
        outer_grid=_int(config.get("outer_grid", 16), "outer_grid"),
        cfg=quad,
        opt_tol=opt_tol,
        max_iter=_int(config.get("max_iter", 500), "max_iter"),
        el_grid=_int(config.get("el_grid", 4), "el_grid"),
        coeffs0=None if coeffs0 is None else _nums(coeffs0, "coeffs0"),
    )
    sys.stdout.write(json.dumps(report.to_json_dict(), indent=2) + "\n")
    return 0 if report.converged else 5


def _cmd_selftest(args) -> int:
    ok = _selftest.run(sys.stdout, seed=args.seed)
    return 0 if ok else 4


@functools.cache
def _parser() -> argparse.ArgumentParser:
    """The argument parser, built once per process; parsing leaves it unchanged."""
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
    return parser


def main(argv=None) -> int:
    args = _parser().parse_args(argv)
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

    try:
        config = _obj(config, "config")
        command = args.command_pos or args.command_flag or config.get("command")
        if command not in _COMMANDS:
            print(f"no command given; expected one of {', '.join(_COMMANDS)}",
                  file=sys.stderr)
            return 2
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
