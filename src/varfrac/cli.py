"""Batch CLI: operator evaluation, identity verification with convergence
ladders, variational solving, and a bundled self-test.

Configuration comes from a single JSON file (``--config``) plus flag
overrides.  Each command reads its config once, against one key table per
shape: ``op`` with ``axis`` (``rect``, ``points``, ``f_d1``/``f_d2``) or
without (``a``, ``b``, ``grid``, ``f_d``), ``verify`` per identity
(``eta1``/``eta2`` for ``ibp``, ``eta`` for ``green``), and ``solve``, whose
``"string"`` Lagrangian alone reads ``sigma`` and ``tension``.  Nested
objects have tables of their own: ``rect``, ``quad``, the ``grid`` object,
an order object, the ``psi`` object and the Lagrangian object.  A table
maps each key to its converter and its default, or marks it required; a
key outside the table is a parse error that names it.  Every command
accepts the keys ``command`` and ``threads`` and ignores them.  An
expression key takes an expression string or a finite number.  A
derivative key (``f_d``, ``*_d1``, ``*_d2``) that is absent, and the
derivative of each ``psi`` edge, is the exact derivative of the
expression, built the first time a command takes it.

Numeric output uses 17-significant-digit formatting, which round-trips
every double exactly.  Evaluation is serial; ``--threads`` is accepted for
compatibility and ignored, so output does not depend on it.

Exit codes: 0 ok, 2 parse error (config file, unknown or missing key,
config value or expression), 3 validity error (order bounds, hypotheses,
domains), 4 identity residual above tolerance or failed self-test
property, 5 optimizer did not reach its tolerance.
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


_MAX_COUNT = 10**6  # the most points a grid object's count may ask for


def _count(value, name: str) -> int:
    """``value`` as an int if it is an integral number from 0 to ``_MAX_COUNT``,
    so a count the grid cannot hold is a parse error, not a numpy error."""
    n = _int(value, name)
    if n < 0:
        raise ExpressionError(f"{name} must be a non-negative integer, got {value!r}")
    if n > _MAX_COUNT:
        raise ExpressionError(f"{name} must be at most {_MAX_COUNT}, got {value!r}")
    return n


def _finite(value) -> bool:
    return (not isinstance(value, bool) and isinstance(value, (int, float))
            and abs(value) <= sys.float_info.max)


def _num(value, name: str) -> float:
    """``value`` as a float if it is a finite number; anything else, NaN
    and infinities included, is a parse error naming ``name``."""
    if _finite(value):
        return float(value)
    raise ExpressionError(f"{name} must be a finite number, got {value!r}")


def _nums(value, name: str) -> list:
    """``value`` as a list of floats if it is a list of numbers."""
    if not isinstance(value, list):
        raise ExpressionError(f"{name} must be a list of numbers, got {value!r}")
    return [_num(v, f"{name} entry") for v in value]


def _points(value, name: str) -> np.ndarray:
    """The ``points`` list of [t1, t2] pairs as an (n, 2) array."""
    if not isinstance(value, list) or any(not isinstance(p, list) or len(p) != 2 for p in value):
        raise ExpressionError(f"points must be a list of [t1, t2] pairs, got {value!r}")
    return np.array([_nums(p, "points") for p in value]).reshape(-1, 2)


def _obj(value, name: str) -> dict:
    """``value`` if it is a JSON object; anything else is a parse error."""
    if not isinstance(value, dict):
        raise ExpressionError(f"{name} must be a JSON object, got {value!r}")
    return value


def _choice(enum_cls):
    """The converter of a key naming a member of ``enum_cls`` by its value."""
    def convert(value, name: str):
        try:
            return enum_cls(value)
        except ValueError:
            expected = ", ".join(repr(m.value) for m in enum_cls)
            raise ExpressionError(f"{name} must be one of {expected}, got {value!r}") from None
    return convert


def _expr(*variables):
    """The converter of an expression key over ``variables``: an expression
    string, or a finite number for a constant."""
    def convert(value, name: str):
        if not (isinstance(value, str) or _finite(value)):
            raise ExpressionError(f"{name} must be an expression string or a finite number, "
                                  f"got {value!r}")
        return compile_expression(str(value), variables)
    return convert


def _read(obj, table: dict, name: str) -> dict:
    """Every key of ``table`` read from the JSON object ``obj``.

    ``table`` maps a key to its converter and its default, or to
    ``_REQUIRED`` for a key that must be given.  A key outside the table
    is a parse error naming it; then an absent required key is a
    KeyError.  Each value, or else its default, goes through the
    converter.  A key whose default is null is optional: absent or null,
    it reads as None.
    """
    obj = _obj(obj, name)
    for key in obj:
        if key not in table:
            raise ExpressionError(f"{key} is not a key of {name}; expected one of "
                                  + ", ".join(table))
    for key, (_, default) in table.items():
        if default is _REQUIRED and key not in obj:
            raise KeyError(key)
    return {key: None if default is None and obj.get(key) is None
            else convert(obj.get(key, default), key) for key, (convert, default) in table.items()}


def _any(value, name: str):
    """A key accepted as given: ``command``, which ``main`` reads, ``threads``, which
    nothing reads, and ``identity``, which ``verify`` reads to pick its table."""
    return value


def _table(table: dict, build):
    """The converter of a JSON object read against ``table``, then passed to ``build``."""
    return lambda value, name: build(**_read(value, table, name))


def _order_spec(value, name: str) -> dict:
    """An order key: an expression in (t, tau), or an {expr, l, bound_mode} object."""
    if isinstance(value, dict):
        return _read(value, _ORDER, name)
    return {"expr": _TTAU(value, name), "l": None, "bound_mode": None}


def _grid(value, name: str):
    """The ``grid`` key: a list of points, or a {values} or {count, start, stop} object."""
    return _nums(value, name) if isinstance(value, list) else _read(value, _GRID, name)


def _ladder(value, name: str) -> list:
    """The ``ladder`` key: a non-empty list of [outer_grid, panels] rungs."""
    if not value:
        raise ExpressionError("ladder has no rungs; expected [[outer_grid, panels], ...]")
    if not isinstance(value, list) or any(not isinstance(r, list) or len(r) != 2
                                          for r in value):
        raise ExpressionError(f"ladder {value!r} is not a list of [outer_grid, panels] rungs")
    return [(_int(g, "ladder outer_grid"), _int(p, "ladder panels")) for g, p in value]


def _quad(value, name: str) -> QuadConfig:
    """The ``quad`` key: a {panels, nodes_per_panel, grading} object, or
    null (any false value) for the default rule."""
    return QuadConfig(**_read(value, _QUAD, name)) if value else DEFAULT_QUAD


def _psi(value, name: str):
    """The ``psi`` key: a constant, or a {bottom, right, top, left} object."""
    return _num(value, name) if isinstance(value, (int, float)) else _read(value, _PSI, name)


def _lagrangian(value, name: str):
    """The ``lagrangian`` key: a preset name, or an {L, dL_du, dL_dd1, dL_dd2} object."""
    if isinstance(value, dict):
        return _read(value, _LAGRANGIAN, name)
    if value in ("quadratic", "string"):
        return value
    raise ExpressionError(f"unknown lagrangian preset {value!r}")


def _field(name: str) -> dict:
    """The keys of a field ``name`` over (t1, t2) and of its optional partials."""
    return {name: (_T1T2, _REQUIRED), name + "_d1": (_T1T2, None), name + "_d2": (_T1T2, None)}


_REQUIRED = object()  # the default of a key that must be given
_TTAU, _T1T2 = _expr("t", "tau"), _expr("t1", "t2")
_MODE = _choice(BoundMode)
_RECT = {key: (_num, _REQUIRED) for key in ("a1", "b1", "a2", "b2")}
_QUAD = {"panels": (_int, DEFAULT_QUAD.panels),
         "nodes_per_panel": (_int, DEFAULT_QUAD.nodes_per_panel),
         "grading": (_num, DEFAULT_QUAD.grading)}
_GRID = {"values": (_nums, None), "count": (_count, 0), "start": (_num, None), "stop": (_num, None)}
_ORDER = {"expr": (_TTAU, _REQUIRED), "l": (_int, None), "bound_mode": (_MODE, None)}
_PSI = {"bottom": (_expr("t1"), _REQUIRED), "right": (_expr("t2"), _REQUIRED),
        "top": (_expr("t1"), _REQUIRED), "left": (_expr("t2"), _REQUIRED)}
_LAGRANGIAN = {key: (_expr("t1", "t2", "u", "d1", "d2"), _REQUIRED)
               for key in ("L", "dL_du", "dL_dd1", "dL_dd2")}
# the key tables of the commands, one per shape
_COMMON = {"command": (_any, None), "threads": (_any, None),
           "quad": (_quad, {})}
_OP = {**_COMMON, "kind": (_choice(OpKind), _REQUIRED), "alpha": (_order_spec, _REQUIRED),
       "l": (_int, 2), "bound_mode": (_MODE, "plain"), "h": (_num, None)}
_OP_AXIS = {**_OP, "axis": (_int, _REQUIRED), "rect": (_table(_RECT, Rect2.of), _REQUIRED),
            **_field("f"), "points": (_points, [])}
_OP_INTERVAL = {**_OP, "a": (_num, _REQUIRED), "b": (_num, _REQUIRED),
                "f": (_expr("tau"), _REQUIRED), "f_d": (_expr("tau"), None), "grid": (_grid, [])}
_TWO_ORDERS = {"rect": _OP_AXIS["rect"], "alpha1": (_order_spec, _REQUIRED),
               "alpha2": (_order_spec, _REQUIRED), "l1": (_int, 2), "l2": (_int, 2)}
_VERIFY = {**_COMMON, **_TWO_ORDERS, "identity": (_any, _REQUIRED),
           "ladder": (_ladder, [[16, 16], [24, 24], [32, 32]]), **_field("f"), **_field("g")}
# per identity: its key table, the orders' bound mode, its verifier and its test fields
_IDENTITIES = {
    "ibp": ({**_VERIFY, "tolerance": (_num, 1e-5), **_field("eta1"), **_field("eta2")},
            BoundMode.ABOVE_ONE_OVER_L, verify_ibp, ("eta1", "eta2")),
    "green": ({**_VERIFY, "tolerance": (_num, 1e-4), **_field("eta")},
              BoundMode.BELOW_ONE_MINUS, verify_green, ("eta",)),
}
_SOLVE = {**_COMMON, **_TWO_ORDERS, "bound_mode": (_MODE, "below_one_minus"),
          "lagrangian": (_lagrangian, "quadratic"), "psi": (_psi, 0.0),
          "opt_tol": (_num, 1e-7), "n_modes": (_int, 4), "outer_grid": (_int, 16),
          "max_iter": (_int, 500), "el_grid": (_int, 4), "coeffs0": (_nums, None)}
_SOLVE_STRING = {**_SOLVE, "sigma": (_expr("t2"), "1"), "tension": (_num, 1.0)}


def _order(cfg: dict, n: str, interval: Interval, mode: BoundMode) -> VariableOrder:
    """The order ``alpha<n>`` of ``cfg`` on ``interval``, with ``l<n>`` and
    ``mode`` unless an order object gives its own ``l`` or ``bound_mode``."""
    spec = cfg["alpha" + n]
    return VariableOrder(spec["expr"], interval,
                         l=cfg["l" + n] if spec["l"] is None else spec["l"],
                         bound_mode=mode if spec["bound_mode"] is None else spec["bound_mode"])


def _derived(expr, var: str):
    """The derivative of ``expr`` along ``var``, built on its first call, so
    a command that takes no derivative builds none."""
    return lambda *args: expr.derivative(var)(*args)


def _fn1(expr, derivative=None) -> SmoothFn1:
    """A one-variable expression with ``derivative``, or else its own."""
    return SmoothFn1(expr, derivative or _derived(expr, expr.variables[0]))


def _fn2(cfg: dict, name: str) -> SmoothFn2:
    """The field ``name`` with its ``_d1``/``_d2`` keys, or else its own partials."""
    f = cfg[name]
    return SmoothFn2(f, cfg[name + "_d1"] or _derived(f, "t1"),
                     cfg[name + "_d2"] or _derived(f, "t2"))


def _cmd_op(config, args) -> int:
    axis = "axis" in config
    cfg = _read(config, _OP_AXIS if axis else _OP_INTERVAL,
                "op with axis" if axis else "op without axis")
    out = sys.stdout

    if axis:  # two-variable partial operator
        rect, points = cfg["rect"], cfg["points"]
        alpha = _order(cfg, "", rect.axis(cfg["axis"]), cfg["bound_mode"])
        values = partial_op(cfg["kind"], cfg["axis"], _fn2(cfg, "f"), alpha,
                            points.T, rect, cfg["quad"], cfg["h"])
        out.write("t1,t2,value\n")
        for (t1, t2), v in zip(points, values):
            out.write(f"{_fmt(t1)},{_fmt(t2)},{_fmt(v)}\n")
        return 0

    a, b, grid = cfg["a"], cfg["b"], cfg["grid"]
    alpha = _order(cfg, "", Interval(a, b), cfg["bound_mode"])
    f = _fn1(cfg["f"], cfg["f_d"])
    if isinstance(grid, dict):  # its start and stop default to a and b
        grid = grid["values"] if grid["values"] is not None else list(np.linspace(
            a if grid["start"] is None else grid["start"],
            b if grid["stop"] is None else grid["stop"], grid["count"]))

    values = interval_op(cfg["kind"], f, alpha, a, b, grid, cfg["quad"], cfg["h"])
    out.write("t,value\n")
    for t, v in zip(grid, values):
        out.write(f"{_fmt(t)},{_fmt(v)}\n")
    return 0


def _cmd_verify(config, args) -> int:
    identity = config["identity"]
    if identity not in ("ibp", "green"):  # a tuple, so an unhashable value is no TypeError
        raise ExpressionError(f"unknown identity {identity!r}; expected 'ibp' or 'green'")
    table, mode, verify, etas = _IDENTITIES[identity]
    cfg = _read(config, table, f"verify {identity}")
    rect, quad = cfg["rect"], cfg["quad"]
    tolerance = cfg["tolerance"] if args.tolerance is None else _num(args.tolerance, "--tolerance")
    alpha1, alpha2 = _order(cfg, "1", rect.t1, mode), _order(cfg, "2", rect.t2, mode)
    fields = [_fn2(cfg, name) for name in ("f", "g") + etas]

    out = sys.stdout
    out.write("level,outer_grid,panels,lhs,rhs,residual\n")
    for level, (outer_grid, panels) in enumerate(cfg["ladder"]):
        rung = QuadConfig(panels=panels, nodes_per_panel=quad.nodes_per_panel,
                          grading=quad.grading)
        # the Green C^1 probe's outcome does not depend on the rung: probe once
        rep = verify(*fields, alpha1, alpha2, rect, outer_grid, rung, tolerance,
                     **({} if identity == "ibp" else {"probe": level == 0}))
        out.write(f"{level},{outer_grid},{panels},"
                  f"{_fmt(rep.lhs)},{_fmt(rep.rhs)},{_fmt(rep.residual)}\n")
    return 0 if abs(rep.residual) <= tolerance else 4


def _cmd_solve(config, args) -> int:
    string = config.get("lagrangian") == "string"
    cfg = _read(config, _SOLVE_STRING if string else _SOLVE,
                "solve with the string lagrangian" if string else "solve")
    rect, spec, psi = cfg["rect"], cfg["lagrangian"], cfg["psi"]
    lagr = (Lagrangian.quadratic() if spec == "quadratic" else
            Lagrangian.string(cfg["sigma"], cfg["tension"]) if string else
            Lagrangian(*spec.values(), rect=rect))
    psi = (BoundaryData(**{edge: _fn1(e) for edge, e in psi.items()}, rect=rect)
           if isinstance(psi, dict) else
           BoundaryData.zero(rect) if psi == 0 else BoundaryData.constant(psi, rect))
    mode = cfg["bound_mode"]
    opt_tol = cfg["opt_tol"] if args.tolerance is None else _num(args.tolerance, "--tolerance")
    report = ritz_solve(
        lagr, psi, _order(cfg, "1", rect.t1, mode), _order(cfg, "2", rect.t2, mode), rect,
        n_modes=cfg["n_modes"], outer_grid=cfg["outer_grid"], cfg=cfg["quad"], opt_tol=opt_tol,
        max_iter=cfg["max_iter"], el_grid=cfg["el_grid"], coeffs0=cfg["coeffs0"],
    )
    sys.stdout.write(json.dumps(report.to_json_dict(), indent=2) + "\n")
    return 0 if report.converged else 5


def _cmd_selftest(config, args) -> int:
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
            return {"op": _cmd_op, "verify": _cmd_verify, "solve": _cmd_solve,
                    "selftest": _cmd_selftest}[command](config, args)
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
