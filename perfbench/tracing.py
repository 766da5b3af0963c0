"""Span tracing of varfrac from outside the package.

``Tracer.installed()`` replaces each traced public function of a varfrac
module by a wrapper, in every varfrac namespace that holds it (so
``varfrac.operators.singular_integral`` and ``varfrac.left_rl_integral``
are wrapped as well as the definitions), and patches three methods on
their classes.  Leaving the context restores the originals.  Nothing under
``src/`` changes.

Each wrapper records a span: its duration, and its self time, the part not
covered by child spans on the same thread's span stack.  Work submitted to
the thread pool opens a new stack on the worker thread, so a parent's self
time includes the time it waits for its workers.  Spans and counts stay in
memory, one table per thread, and are merged when the run ends.

Which end-to-end metric each layer metric should move, and where:

* ``specialfn.gamma.*``: task_ms.p50 on ops.
* ``quadrature.singular_integral.*``: tasks_per_s on ops, task_ms.p90 on
  solve.  ``nodes`` is computed from each call's QuadConfig.
* ``quadrature.tensor_integral.*``, ``quadrature.line_integral_edge.*``:
  task_ms.p50 on verify_cli.
* ``domain.*``: ops and solve.  ``domain.integrand`` counts calls into the
  benchmark's own callables (integrands, boundary functions, Lagrangians);
  verify_cli passes expression strings, counted under ``expressions.eval``.
* ``operators.*``: ops, and task_ms.p90 on verify_cli.
* ``identities.*``: task_ms.p90 on verify_cli.
* ``variational.*``: the EL residual moves solve p90, ritz_solve's self
  time (the table build) solve p50.  No workload's tasks call
  functional_eval or first_variation (solve's oracle calls functional_eval
  outside the traced pass), so they read 0 until a change routes work
  through them.
* ``optimize.*``: task_ms.p50 on solve.  ``iterations_per_eval`` is
  accepted steps per objective evaluation.
* ``expressions.*``, ``parallel.*``, ``cli.*``: verify_cli.

The kernels are limited by Python overhead, not memory, so node and
element counts are reported and no roofline.
"""

from __future__ import annotations

import importlib
import sys
import threading
from collections import defaultdict
from contextlib import contextmanager
from time import perf_counter

import numpy as np

_RL_DERIVATIVES = ("operators.D_rl_left", "operators.D_rl_right")

# (module, attribute, span name)
_FUNCTIONS = [
    ("varfrac.specialfn", "gamma", "specialfn.gamma"),
    ("varfrac.quadrature", "singular_integral", "quadrature.singular_integral"),
    ("varfrac.quadrature", "tensor_integral", "quadrature.tensor_integral"),
    ("varfrac.quadrature", "line_integral_edge", "quadrature.line_integral_edge"),
    ("varfrac.operators", "left_rl_integral", "operators.I_left"),
    ("varfrac.operators", "right_rl_integral", "operators.I_right"),
    ("varfrac.operators", "left_rl_derivative", "operators.D_rl_left"),
    ("varfrac.operators", "right_rl_derivative", "operators.D_rl_right"),
    ("varfrac.operators", "left_caputo_derivative", "operators.D_cap_left"),
    ("varfrac.operators", "right_caputo_derivative", "operators.D_cap_right"),
    ("varfrac.operators", "partial_op", "operators.partial_op"),
    ("varfrac.identities", "verify_ibp", "identities.verify_ibp"),
    ("varfrac.identities", "verify_green", "identities.verify_green"),
    ("varfrac.identities", "boundary_contour", "identities.boundary_contour"),
    ("varfrac.variational", "ritz_solve", "variational.ritz_solve"),
    ("varfrac.variational", "el_residual", "variational.el_residual"),
    ("varfrac.variational", "functional_eval", "variational.functional_eval"),
    ("varfrac.variational", "first_variation", "variational.first_variation"),
    ("varfrac.optimize", "minimize_bfgs", "optimize.minimize_bfgs"),
    ("varfrac.optimize", "fd_gradient", "optimize.fd_gradient"),
    ("varfrac.expressions", "compile_expression", "expressions.compile"),
    ("varfrac.parallel", "map_ordered", "parallel.map_ordered"),
    ("varfrac.cli", "main", "cli.main"),
]

# (module, class, method, span name)
_METHODS = [
    ("varfrac.domain", "VariableOrder", "__call__", "domain.order"),
    ("varfrac.domain", "SmoothFn1", "derivative_callable", "domain.derivative_callable"),
    ("varfrac.expressions", "Expression", "__call__", "expressions.eval"),
]


def _arg(args, kwargs, index, name, default):
    if len(args) > index:
        return args[index]
    return kwargs.get(name, default)


class Tracer:
    """Collects spans and counts while installed; ``totals()`` reads them."""

    def __init__(self):
        self._local = threading.local()
        self._tables = []
        self._lock = threading.Lock()
        self.enabled = False

    # -- per-thread state -------------------------------------------------

    def _state(self):
        local = self._local
        try:
            return local.stack, local.table
        except AttributeError:
            local.stack = []
            local.table = defaultdict(float)
            with self._lock:
                self._tables.append(local.table)
            return local.stack, local.table

    def _enter(self, name):
        stack, table = self._state()
        frame = [name, perf_counter(), 0.0]
        stack.append(frame)
        return stack, table, frame

    @staticmethod
    def _exit(stack, table, frame):
        dur = perf_counter() - frame[1]
        stack.pop()
        name = frame[0]
        table[name + ".calls"] += 1
        table[name + ".s"] += dur
        table[name + ".self_s"] += dur - frame[2]
        if stack:
            stack[-1][2] += dur

    # -- wrappers ---------------------------------------------------------

    def _wrap(self, fn, name):
        count = _COUNTERS.get(name)

        def traced(*args, **kwargs):
            if not self.enabled:
                return fn(*args, **kwargs)
            if name == "parallel.map_ordered":  # materialise once to count items
                args = (args[0], list(args[1])) + args[2:]
            stack, table, frame = self._enter(name)
            try:
                out = fn(*args, **kwargs)
            finally:
                self._exit(stack, table, frame)
            if count is not None:
                count(table, stack, args, kwargs, out)
            return out

        traced.__wrapped__ = fn
        traced.__name__ = getattr(fn, "__name__", name)
        traced.__doc__ = getattr(fn, "__doc__", None)
        return traced

    def integrand(self, fn):
        """Wrap one of the benchmark's own callables as ``domain.integrand``."""

        def traced(*args):
            if not self.enabled:
                return fn(*args)
            stack, table, frame = self._enter("domain.integrand")
            try:
                out = fn(*args)
            finally:
                self._exit(stack, table, frame)
            table["domain.integrand.elems"] += np.size(out)
            return out

        return traced

    @contextmanager
    def installed(self):
        """Patch varfrac for the duration of the block and record spans."""
        for mod_name, _, _ in _FUNCTIONS:
            importlib.import_module(mod_name)
        namespaces = [m for n, m in list(sys.modules.items())
                      if m is not None and (n == "varfrac" or n.startswith("varfrac."))]
        restore = []
        try:
            for mod_name, attr, name in _FUNCTIONS:
                orig = getattr(sys.modules[mod_name], attr)
                wrapper = self._wrap(orig, name)
                for ns in namespaces:
                    for key, value in list(vars(ns).items()):
                        if value is orig:
                            restore.append((ns, key, orig))
                            setattr(ns, key, wrapper)
            for mod_name, cls_name, meth, name in _METHODS:
                cls = getattr(sys.modules[mod_name], cls_name)
                orig = cls.__dict__[meth]
                restore.append((cls, meth, orig))
                setattr(cls, meth, self._wrap(orig, name))
            self.enabled = True
            yield self
        finally:
            self.enabled = False
            for owner, key, orig in reversed(restore):
                setattr(owner, key, orig)

    # -- results ----------------------------------------------------------

    def totals(self) -> dict:
        merged = defaultdict(float)
        with self._lock:
            for table in self._tables:
                for key, value in table.items():
                    merged[key] += value
        return merged


def _count_gamma(table, stack, args, kwargs, out):
    table["specialfn.gamma.elems"] += np.size(args[0])


def _count_singular(table, stack, args, kwargs, out):
    from varfrac.quadrature import DEFAULT_QUAD

    lo, hi = args[2], args[3]
    cfg = _arg(args, kwargs, 4, "cfg", DEFAULT_QUAD)
    if hi > lo:
        # graded panel nodes plus the branch point evaluated for the sliver
        table["quadrature.singular_integral.nodes"] += cfg.panels * cfg.nodes_per_panel + 1
    for frame in reversed(stack):
        if frame[0].startswith("operators."):
            if frame[0] in _RL_DERIVATIVES:
                table["operators.rl_derivative.integrals"] += 1
            break


def _count_tensor(table, stack, args, kwargs, out):
    n = int(_arg(args, kwargs, 2, "outer_grid", 0))
    table["quadrature.tensor_integral.points"] += n * n


def _count_el(table, stack, args, kwargs, out):
    n = int(_arg(args, kwargs, 5, "point_grid", 8))
    table["variational.el_residual.points"] += n * n


def _count_bfgs(table, stack, args, kwargs, out):
    table["optimize.minimize_bfgs.iterations"] += out.iterations
    table["optimize.minimize_bfgs.fun_evals"] += out.fun_evals


def _count_map(table, stack, args, kwargs, out):
    items = len(args[1])
    threads = _arg(args, kwargs, 2, "threads", 1)
    table["parallel.map_ordered.items"] += items
    if threads is not None and threads > 1 and items > 1:
        table["parallel.map_ordered.pooled_calls"] += 1


def _count_main(table, stack, args, kwargs, out):
    if out != 0:
        table["cli.main.nonzero_exits"] += 1


def _count_order(table, stack, args, kwargs, out):
    table["domain.order.elems"] += np.size(out)


def _count_derivative(table, stack, args, kwargs, out):
    if out[1]:
        table["domain.fd_fallbacks"] += 1


def _count_eval(table, stack, args, kwargs, out):
    table["expressions.eval.elems"] += np.size(out)


_COUNTERS = {
    "specialfn.gamma": _count_gamma,
    "quadrature.singular_integral": _count_singular,
    "quadrature.tensor_integral": _count_tensor,
    "variational.el_residual": _count_el,
    "optimize.minimize_bfgs": _count_bfgs,
    "parallel.map_ordered": _count_map,
    "cli.main": _count_main,
    "domain.order": _count_order,
    "domain.derivative_callable": _count_derivative,
    "expressions.eval": _count_eval,
}


def _ratio(num, den):
    return num / den if den else 0.0


def layer_metrics(t: dict) -> dict:
    """The per-layer metrics, by name, as (value, unit) pairs."""
    ops = ("I_left", "I_right", "D_rl_left", "D_rl_right", "D_cap_left", "D_cap_right",
           "partial_op")
    rl_calls = t["operators.D_rl_left.calls"] + t["operators.D_rl_right.calls"]
    out = {
        "specialfn.gamma.calls": (t["specialfn.gamma.calls"], "count"),
        "specialfn.gamma.elems": (t["specialfn.gamma.elems"], "count"),
        "specialfn.gamma.self_s": (t["specialfn.gamma.self_s"], "s"),
        "specialfn.gamma.elems_per_call": (
            _ratio(t["specialfn.gamma.elems"], t["specialfn.gamma.calls"]), "elems/call"),
        "quadrature.singular_integral.calls": (t["quadrature.singular_integral.calls"], "count"),
        "quadrature.singular_integral.nodes": (t["quadrature.singular_integral.nodes"], "count"),
        "quadrature.singular_integral.self_s": (t["quadrature.singular_integral.self_s"], "s"),
        "quadrature.tensor_integral.calls": (t["quadrature.tensor_integral.calls"], "count"),
        "quadrature.tensor_integral.points": (t["quadrature.tensor_integral.points"], "count"),
        "quadrature.tensor_integral.self_s": (t["quadrature.tensor_integral.self_s"], "s"),
        "quadrature.line_integral_edge.calls": (t["quadrature.line_integral_edge.calls"], "count"),
        "quadrature.line_integral_edge.self_s": (t["quadrature.line_integral_edge.self_s"], "s"),
        "domain.order.calls": (t["domain.order.calls"], "count"),
        "domain.order.elems": (t["domain.order.elems"], "count"),
        "domain.integrand.calls": (t["domain.integrand.calls"], "count"),
        "domain.integrand.elems": (t["domain.integrand.elems"], "count"),
        "domain.integrand.self_s": (t["domain.integrand.self_s"], "s"),
        "domain.derivative_callable.calls": (t["domain.derivative_callable.calls"], "count"),
        "domain.fd_fallbacks": (t["domain.fd_fallbacks"], "count"),
        "domain.fd_fallback_frac": (
            _ratio(t["domain.fd_fallbacks"], t["domain.derivative_callable.calls"]), "ratio"),
    }
    for op in ops:
        out[f"operators.{op}.calls"] = (t[f"operators.{op}.calls"], "count")
    out["operators.self_s"] = (sum(t[f"operators.{op}.self_s"] for op in ops), "s")
    out["operators.rl_derivative.integrals_per_call"] = (
        _ratio(t["operators.rl_derivative.integrals"], rl_calls), "integrals/call")
    for name in ("verify_ibp", "verify_green", "boundary_contour"):
        out[f"identities.{name}.self_s"] = (t[f"identities.{name}.self_s"], "s")
    for name in ("ritz_solve", "el_residual", "functional_eval", "first_variation"):
        out[f"variational.{name}.self_s"] = (t[f"variational.{name}.self_s"], "s")
    out["variational.el_residual.points"] = (t["variational.el_residual.points"], "count")
    out.update({
        "optimize.minimize_bfgs.self_s": (t["optimize.minimize_bfgs.self_s"], "s"),
        "optimize.minimize_bfgs.iterations": (t["optimize.minimize_bfgs.iterations"], "count"),
        "optimize.minimize_bfgs.fun_evals": (t["optimize.minimize_bfgs.fun_evals"], "count"),
        "optimize.fd_gradient.calls": (t["optimize.fd_gradient.calls"], "count"),
        "optimize.iterations_per_eval": (
            _ratio(t["optimize.minimize_bfgs.iterations"], t["optimize.minimize_bfgs.fun_evals"]),
            "ratio"),
        "expressions.compile.calls": (t["expressions.compile.calls"], "count"),
        "expressions.compile.self_s": (t["expressions.compile.self_s"], "s"),
        "expressions.eval.calls": (t["expressions.eval.calls"], "count"),
        "expressions.eval.elems": (t["expressions.eval.elems"], "count"),
        "expressions.eval.self_s": (t["expressions.eval.self_s"], "s"),
        "parallel.map_ordered.calls": (t["parallel.map_ordered.calls"], "count"),
        "parallel.map_ordered.items": (t["parallel.map_ordered.items"], "count"),
        "parallel.map_ordered.pooled_calls": (t["parallel.map_ordered.pooled_calls"], "count"),
        "parallel.map_ordered.s": (t["parallel.map_ordered.s"], "s"),
        "cli.main.calls": (t["cli.main.calls"], "count"),
        "cli.main.s": (t["cli.main.s"], "s"),
        "cli.main.nonzero_exits": (t["cli.main.nonzero_exits"], "count"),
    })
    return {name: (int(value) if unit == "count" else value, unit)
            for name, (value, unit) in out.items()}
