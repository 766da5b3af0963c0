"""The three seeded workloads: inputs, program objects, oracles and gates.

A workload turns a seed into a list of task specs (plain JSON data: the
same seed gives byte-identical specs), builds the program's own objects
from them, and checks each task's output.  Every workload is a closed loop
with one caller: the next task starts when the previous one returned.

* ``ops``: one of the six 1-D operators, or ``partial_op``, on a 3-point
  grid, threads=1.  Stratified: every family x order type (const / point /
  both) x derivative (analytic / FD fallback) appears equally often, plus
  four invalid-input tasks whose correct outcome is a library error.
* ``verify_cli``: ``varfrac verify`` run in-process through ``cli.main``,
  IBP:Green = 19:6, a two-rung ladder each.  Two IBP tasks run with
  ``--threads 2``, so the thread pool is exercised; the rest run with
  ``--threads 1``.  On a shared two-core host, times of two busy threads
  spread twice as wide from one stretch of a run to the next as times of
  one, so the pool is kept to a share of tasks too small to move p50 or
  p90 by more than a rank.
* ``solve``: ``ritz_solve`` with threads=1 on small convex problems with a
  seeded boundary lift; one task in four also computes the EL residual.

varfrac is imported lazily, so the set-up probe can time that import.
"""

from __future__ import annotations

import hashlib
import io
import json
import math
from contextlib import redirect_stdout
from pathlib import Path

import numpy as np

OPS_KINDS = ("I_left", "I_right", "D_rl_left", "D_rl_right", "D_cap_left", "D_cap_right")
ORDER_TYPES = ("const", "point", "both")
OPS_REPEATS = 2          # per family x order type x derivative
OPS_GRID = 3             # points per task
OPS_INVALID = 2          # tasks per invalid-input case
# relative-error gates: the quadrature's documented 1e-8 contract, and the
# finite-difference-limited ~1e-6 of Riemann-Liouville derivatives
OPS_GATES = {"I": 1e-8, "D_cap": 1e-8, "D_rl": 1e-6}

VERIFY_IBP, VERIFY_GREEN = 19, 6
VERIFY_POOLED = 2  # IBP tasks run with --threads 2; the others with 1
VERIFY_LADDER = {"ibp": [[8, 12], [10, 16]], "green": [[6, 8], [8, 12]]}
# residual gates at these grids: the largest residuals measured over 80 IBP
# and 48 Green configs were 5e-6 and 2.8e-3
VERIFY_TOLERANCE = {"ibp": 1e-4, "green": 1e-2}

SOLVE_PLAIN, SOLVE_EL = 12, 4
SOLVE_MODES, SOLVE_OUTER = 2, 8
# panels, nodes_per_panel of the EL residual's quadrature; its residuals
# agree with those at (12, 6) to three digits at 60% of the cost
SOLVE_EL_QUAD = (6, 4)


def program():
    import varfrac
    import varfrac.cli  # noqa: F401  (verify_cli calls it; import cost is set-up)
    return varfrac


def digest(specs) -> str:
    return hashlib.sha256(json.dumps(specs, sort_keys=True).encode()).hexdigest()


def _rng(seed: int, salt: int):
    return np.random.default_rng([seed, salt])


def _shuffled(rng, specs):
    return [specs[i] for i in rng.permutation(len(specs))]


def _floats(values):
    return [float(v) for v in values]


class Task:
    """One user-level call and what its outcome is checked against."""

    __slots__ = ("spec", "run", "problem", "expect_error")

    def __init__(self, spec, run, problem=None, expect_error=False):
        self.spec = spec
        self.run = run
        self.problem = problem  # program objects a reference computation reuses
        self.expect_error = expect_error


def relative_error(values, reference) -> float:
    """Normwise relative error: max |v - r| / max |r| over the task's grid."""
    v = np.asarray(values, dtype=float)
    r = np.asarray(reference, dtype=float)
    return float(np.max(np.abs(v - r)) / np.max(np.abs(r)))


# ---------------------------------------------------------------- ops

def _ops_interval(rng):
    if rng.random() < 0.5:
        return 0.0, 1.0
    a = rng.uniform(-1.0, 1.0)
    return float(a), float(a + rng.uniform(0.5, 3.0))


def _ops_order(rng, order_type, right_kernel):
    if order_type == "const":
        return [float(rng.uniform(0.15, 0.85)), 0.0, 0.0]
    if order_type == "point":
        # varies with the evaluation point only: the first argument of a
        # left kernel's alpha(t, tau), the second of a right kernel's alpha(tau, t)
        c0, slope = float(rng.uniform(0.2, 0.6)), float(rng.uniform(-0.1, 0.25))
        return [c0, 0.0, slope] if right_kernel else [c0, slope, 0.0]
    return [float(rng.uniform(0.35, 0.55))] + _floats(rng.uniform(-0.12, 0.12, 2))


def _ops_spec(rng, family, order_type, analytic, index):
    # partial_op cycles through the six kinds, so every seed has the same mix
    kind = family if family != "partial_op" else OPS_KINDS[index % len(OPS_KINDS)]
    a, b = _ops_interval(rng)
    spec = {
        "family": family, "kind": kind, "order_type": order_type, "analytic": analytic,
        "a": a, "b": b,
        "p": _floats(rng.uniform(-1.0, 1.0, 4)),
        "c": _ops_order(rng, order_type, kind.endswith("right")),
        "grid": _floats(a + (b - a) * np.sort(rng.uniform(0.1, 0.9, OPS_GRID))),
    }
    if family == "partial_op":
        a2, b2 = _ops_interval(rng)
        spec.update(axis=int(rng.integers(1, 3)), other=[a2, b2],
                    frozen=float(a2 + (b2 - a2) * rng.uniform(0.0, 1.0)),
                    e=float(rng.uniform(-0.5, 0.5)))
    return spec


def _ops_invalid(rng, case):
    a, b = _ops_interval(rng)
    L = b - a
    if case == "nonfinite":
        # sqrt(tau - cut) is NaN on [a, cut), which every left integral covers
        cut = a + 0.3 * L
        return {"family": "invalid", "case": case, "a": a, "b": b,
                "c": [float(rng.uniform(0.2, 0.8)), 0.0, 0.0], "cut": float(cut),
                "grid": _floats(a + L * np.sort(rng.uniform(0.4, 0.9, OPS_GRID)))}
    # declared plain bounds (0, 1) but the order reaches 1.1 at t = b
    return {"family": "invalid", "case": case, "a": a, "b": b,
            "c": [float(rng.uniform(0.5, 0.7)), 0.6, 0.0],
            "grid": _floats(a + L * np.sort(rng.uniform(0.1, 0.9, OPS_GRID)))}


def ops_specs(seed):
    rng = _rng(seed, 1)
    strata = [(order_type, analytic, rep) for order_type in ORDER_TYPES
              for analytic in (True, False) for rep in range(OPS_REPEATS)]
    specs = [_ops_spec(rng, family, order_type, analytic, index)
             for family in OPS_KINDS + ("partial_op",)
             for index, (order_type, analytic, _) in enumerate(strata)]
    specs += [_ops_invalid(rng, case) for case in ("nonfinite", "order_bounds")
              for _ in range(OPS_INVALID)]
    return _shuffled(rng, specs)


def _order_fn(a, L, c):
    c0, c1, c2 = c
    return lambda t, tau: c0 + c1 * (t - a) / L + c2 * (tau - a) / L


def _cubic(p, a, L):
    p0, p1, p2, p3 = p
    inv = 1.0 / L

    def f(tau):
        s = (tau - a) * inv
        return p0 + s * (p1 + s * (p2 + s * p3))

    def df(tau):
        s = (tau - a) * inv
        return (p1 + s * (2.0 * p2 + 3.0 * p3 * s)) * inv

    return f, df


def _operator_1d(vf, kind, f, alpha, a, b):
    if kind == "I_left":
        return lambda t: vf.left_rl_integral(f, alpha, a, t)
    if kind == "I_right":
        return lambda t: vf.right_rl_integral(f, alpha, t, b)
    if kind == "D_rl_left":
        return lambda t: vf.left_rl_derivative(f, alpha, a, t)
    if kind == "D_rl_right":
        return lambda t: vf.right_rl_derivative(f, alpha, t, b)
    if kind == "D_cap_left":
        return lambda t: vf.left_caputo_derivative(f, alpha, a, t)
    return lambda t: vf.right_caputo_derivative(f, alpha, t, b)


def _ops_build_one(vf, spec, hook):
    a, b, grid = spec["a"], spec["b"], spec["grid"]
    L = b - a
    interval = vf.Interval(a, b)
    if spec["family"] == "invalid":
        order = _order_fn(a, L, spec["c"])
        if spec["case"] == "order_bounds":
            # the order is part of the call: building it is what must fail
            def run():
                alpha = vf.VariableOrder(order, interval)
                return [vf.left_rl_integral(lambda tau: 1.0 + 0.0 * tau, alpha, a, t)
                        for t in grid]
            return Task(spec, run, expect_error=True)
        alpha = vf.VariableOrder(order, interval)
        cut = spec["cut"]
        f = hook(lambda tau: np.sqrt(tau - cut))

        def run():
            with np.errstate(invalid="ignore"):
                return [vf.left_rl_integral(f, alpha, a, t) for t in grid]
        return Task(spec, run, expect_error=True)

    alpha = vf.VariableOrder(_order_fn(a, L, spec["c"]), interval)
    f, df = _cubic(spec["p"], a, L)
    if spec["family"] != "partial_op":
        fs = vf.SmoothFn1(hook(f), hook(df) if spec["analytic"] else None, domain=interval)
        op = _operator_1d(vf, spec["kind"], fs, alpha, a, b)
        return Task(spec, lambda: [op(t) for t in grid])

    a2, b2 = spec["other"]
    e, frozen, axis = spec["e"], spec["frozen"], spec["axis"]
    L2 = b2 - a2
    other = vf.Interval(a2, b2)
    kind = vf.OpKind(spec["kind"])
    if axis == 1:
        rect = vf.Rect2(interval, other)
        value = lambda t1, t2: f(t1) * (1.0 + e * (t2 - a2) / L2)
        d_axis = lambda t1, t2: df(t1) * (1.0 + e * (t2 - a2) / L2)
        d_other = lambda t1, t2: f(t1) * (e / L2)
        partials = (d_axis, d_other)
        point = lambda t: (t, frozen)
    else:
        rect = vf.Rect2(other, interval)
        value = lambda t1, t2: f(t2) * (1.0 + e * (t1 - a2) / L2)
        d_axis = lambda t1, t2: df(t2) * (1.0 + e * (t1 - a2) / L2)
        d_other = lambda t1, t2: f(t2) * (e / L2)
        partials = (d_other, d_axis)
        point = lambda t: (frozen, t)
    if spec["analytic"]:
        f2 = vf.SmoothFn2(hook(value), hook(partials[0]), hook(partials[1]), domain=rect)
    else:
        f2 = vf.SmoothFn2(hook(value), domain=rect)
    return Task(spec, lambda: [vf.partial_op(kind, axis, f2, alpha, point(t), rect)
                               for t in grid])


def ops_build(vf, specs, hook, workdir):
    return [_ops_build_one(vf, spec, hook) for spec in specs]


def ops_caches(vf, specs):
    return [vf.DEFAULT_QUAD], []


def ops_reference(vf, task, out):
    from oracles import operator_values

    spec = task.spec
    if spec["family"] == "invalid":
        return None
    values = operator_values(spec["kind"], spec["order_type"], spec["a"], spec["b"],
                             spec["p"], spec["c"], spec["grid"])
    if spec["family"] == "partial_op":
        a2, b2 = spec["other"]
        factor = 1.0 + spec["e"] * (spec["frozen"] - a2) / (b2 - a2)
        values = [factor * v for v in values]
    return values


def _ops_gate(kind):
    for prefix in ("D_rl", "D_cap", "I"):
        if kind.startswith(prefix):
            return OPS_GATES[prefix]


def ops_check(vf, task, out, exc, expected):
    """(passed, err); err is None where no accuracy is defined."""
    if task.expect_error:
        return isinstance(exc, vf.VarfracError), None
    if exc is not None or not np.all(np.isfinite(out)):
        return False, None
    err = relative_error(out, expected)
    return err <= _ops_gate(task.spec["kind"]), err


# ---------------------------------------------------------- verify_cli

def _expr2(rng):
    c = rng.uniform(-0.25, 0.25, 4)
    return (f"{1.0 + abs(c[0]):.3f}{c[1]:+.3f}*t1{c[2]:+.3f}*t2"
            f"{c[3]:+.3f}*sin(t1*t2)")


def _order_expr(rng, form):
    # inside (1/3, 2/3) for |t| <= 1.5, so both identities' regimes hold at l = 3
    c0 = rng.uniform(0.47, 0.53)
    if form == 0:
        return f"{c0:.3f}"
    if form == 1:
        return f"{c0:.3f}{rng.uniform(-0.04, 0.04):+.3f}*t"
    if form == 2:
        return f"{c0:.3f}{rng.uniform(-0.04, 0.04):+.3f}*tau"
    return f"{c0:.3f}{rng.uniform(-0.02, 0.02):+.3f}*t{rng.uniform(-0.02, 0.02):+.3f}*tau"


def _verify_spec(rng, identity, forms, threads=1):
    a1, a2 = rng.uniform(0.0, 0.25, 2)
    L1, L2 = rng.uniform(0.9, 1.1, 2)
    cfg = {
        "identity": identity,
        "f": _expr2(rng), "g": _expr2(rng),
        "alpha1": _order_expr(rng, forms[0]), "alpha2": _order_expr(rng, forms[1]),
        "l1": 3, "l2": 3,
        "rect": {"a1": float(round(a1, 3)), "b1": float(round(a1 + L1, 3)),
                 "a2": float(round(a2, 3)), "b2": float(round(a2 + L2, 3))},
        "ladder": VERIFY_LADDER[identity],
        "tolerance": VERIFY_TOLERANCE[identity],
        "threads": threads,  # the task's --threads; the CLI ignores the key
    }
    if identity == "ibp":
        cfg.update(eta1=_expr2(rng), eta2=_expr2(rng))
    else:
        cfg.update(eta=_expr2(rng))
    return cfg


def verify_specs(seed):
    rng = _rng(seed, 2)
    # order forms (const, t, tau, both) cycle through each identity's tasks
    specs = ([_verify_spec(rng, "ibp", (i % 4, (i + 1) % 4), 2 if i < VERIFY_POOLED else 1)
              for i in range(VERIFY_IBP)]
             + [_verify_spec(rng, "green", (i % 4, (i + 1) % 4)) for i in range(VERIFY_GREEN)])
    return _shuffled(rng, specs)


def _verify_path(workdir: Path, i: int) -> Path:
    return workdir / f"verify_{i}.json"


def verify_write(specs, workdir: Path):
    """Write each config where its task's ``--config`` points."""
    for i, spec in enumerate(specs):
        _verify_path(workdir, i).write_text(json.dumps(spec))


def verify_build(vf, specs, hook, workdir: Path):
    tasks = []
    for i, spec in enumerate(specs):
        path = _verify_path(workdir, i)
        argv = ["verify", "--config", str(path), "--threads", str(spec["threads"])]

        def run(argv=argv):
            buf = io.StringIO()
            with redirect_stdout(buf):
                code = vf.cli.main(argv)
            return code, buf.getvalue()
        tasks.append(Task(spec, run))
    return tasks


def verify_caches(vf, specs):
    rungs = [rung for spec in specs for rung in spec["ladder"]]
    return [vf.QuadConfig(panels=p) for _, p in rungs], [n for n, _ in rungs]


def verify_check(vf, task, out, exc, expected):
    if exc is not None:
        return False, None
    code, text = out
    rows = text.strip().splitlines()[1:]
    if code != 0 or len(rows) != len(task.spec["ladder"]):
        return False, None
    _, _, _, lhs, _, residual = (float(x) for x in rows[-1].split(","))
    if not (math.isfinite(lhs) and math.isfinite(residual)):
        return False, None
    return abs(residual) <= task.spec["tolerance"], abs(residual) / max(1.0, abs(lhs))


# --------------------------------------------------------------- solve

def _solve_spec(rng, el_grid, order_types):
    a = rng.uniform(-0.5, 0.5, 2)
    L = rng.uniform(0.6, 1.6, 2)
    orders = []
    for order_type in order_types:
        c = [float(rng.uniform(0.3, 0.5))] + _floats(rng.uniform(-0.1, 0.1, 2))
        if order_type == "const":
            c[1] = c[2] = 0.0
        elif order_type == "point":
            c[2] = 0.0
        orders.append(c)
    return {
        "rect": [float(a[0]), float(a[0] + L[0]), float(a[1]), float(a[1] + L[1])],
        "boundary": _floats(rng.uniform(-1.0, 1.0, 5)),
        # L = w1 d1^2 + w2 d2^2 + w0 u^2 + k u^4 + q (1 + t1) u, convex in (u, d1, d2)
        "weights": _floats(rng.uniform(0.5, 2.0, 3)),
        "quartic": float(rng.uniform(0.0, 0.3)),
        "load": float(rng.uniform(-1.0, 1.0)),
        "alpha1": orders[0], "alpha2": orders[1],
        "el_grid": el_grid,
    }


def solve_specs(seed):
    rng = _rng(seed, 3)
    # the two axes' order types (const, point, both) cycle through the tasks
    types = lambda i: (ORDER_TYPES[i % 3], ORDER_TYPES[(i + 1) % 3])
    specs = ([_solve_spec(rng, 0, types(i)) for i in range(SOLVE_PLAIN)]
             + [_solve_spec(rng, 1, types(i)) for i in range(SOLVE_EL)])
    return _shuffled(rng, specs)


def _solve_problem(vf, spec, hook):
    a1, b1, a2, b2 = spec["rect"]
    rect = vf.Rect2.of(a1, b1, a2, b2)
    L1, L2 = b1 - a1, b2 - a2
    p0, p1, p2, p3, p4 = spec["boundary"]

    def boundary(t1, t2):
        x, y = (t1 - a1) / L1, (t2 - a2) / L2
        return p0 + p1 * x + p2 * y + p3 * x * y + p4 * x * x

    w1, w2, w0 = spec["weights"]
    k, q = spec["quartic"], spec["load"]
    lagr = vf.Lagrangian(
        hook(lambda t1, t2, u, d1, d2: (w1 * d1 ** 2 + w2 * d2 ** 2 + w0 * u ** 2
                                        + k * u ** 4 + q * (1.0 + t1) * u)),
        hook(lambda t1, t2, u, d1, d2: 2.0 * w0 * u + 4.0 * k * u ** 3 + q * (1.0 + t1)),
        hook(lambda t1, t2, u, d1, d2: 2.0 * w1 * d1),
        hook(lambda t1, t2, u, d1, d2: 2.0 * w2 * d2),
        rect=rect)
    psi = vf.BoundaryData.from_function(hook(boundary), rect)
    alpha1 = vf.VariableOrder(_order_fn(a1, L1, spec["alpha1"]), rect.t1)
    alpha2 = vf.VariableOrder(_order_fn(a2, L2, spec["alpha2"]), rect.t2)
    return lagr, psi, alpha1, alpha2, rect


def solve_build(vf, specs, hook, workdir):
    el_quad = vf.QuadConfig(*SOLVE_EL_QUAD)
    tasks = []
    for spec in specs:
        problem = _solve_problem(vf, spec, hook)

        def run(problem=problem, el_grid=spec["el_grid"]):
            return vf.ritz_solve(*problem, n_modes=SOLVE_MODES, outer_grid=SOLVE_OUTER,
                                 el_grid=el_grid, el_cfg=el_quad)
        tasks.append(Task(spec, run, problem=problem))
    return tasks


def solve_caches(vf, specs):
    return [vf.DEFAULT_QUAD, vf.QuadConfig(*SOLVE_EL_QUAD)], [SOLVE_OUTER]


def solve_check(vf, task, out, exc, expected):
    """``expected`` is J of the solution by the pointwise path, or None
    when the task did not return a report."""
    if exc is not None or not (out.converged and math.isfinite(out.J_value)):
        return False, None
    if task.spec["el_grid"] > 0 and not math.isfinite(out.el_residual_l2):
        return False, None
    return True, abs(out.J_value - expected) / max(1.0, abs(out.J_value))


def solve_reference(vf, task, out):
    lagr, _, alpha1, alpha2, rect = task.problem
    return vf.functional_eval(lagr, out.expansion, alpha1, alpha2, rect,
                              outer_grid=SOLVE_OUTER)


def solve_fingerprint(out):
    return repr((out.coeffs.tolist(), out.J_value, out.el_residual_l2, out.iterations))


class Workload:
    """The parts of one workload that ``run.py`` drives."""

    def __init__(self, specs, build, caches, reference, check, fingerprint, *, threads,
                 trace_passes, write=None):
        self.specs = specs              # seed -> list of specs
        self.write = write or (lambda specs, workdir: None)  # input files, if any
        self.build = build              # (vf, specs, hook, workdir) -> list of Task
        self.caches = caches            # (vf, specs) -> (QuadConfigs, outer grids)
        self.reference = reference      # (vf, task, first output) -> expected
        self.check = check              # (vf, task, out, exc, expected) -> (passed, err)
        self.fingerprint = fingerprint  # output -> value compared across passes
        self.threads = threads
        self.trace_passes = trace_passes  # fixed, so traced counts repeat exactly


def _same(out):
    return out


def _no_reference(vf, task, out):
    return None


WORKLOADS = {
    "ops": Workload(ops_specs, ops_build, ops_caches, ops_reference, ops_check, _same,
                    threads=1, trace_passes=20),
    "verify_cli": Workload(verify_specs, verify_build, verify_caches, _no_reference,
                           verify_check, _same, threads=f"1 (2 on {VERIFY_POOLED} tasks)",
                           write=verify_write,
                           trace_passes=2),
    "solve": Workload(solve_specs, solve_build, solve_caches, solve_reference, solve_check,
                      solve_fingerprint, threads=1, trace_passes=2),
}


def warm(vf, caches):
    """Fill the program's lru caches: graded panel rules and Gauss-Legendre rules."""
    quads, grids = caches
    unit = vf.VariableOrder.constant(0.5, vf.Interval(0.0, 1.0))
    for cfg in set(quads):
        vf.left_rl_integral(lambda t: 1.0 + 0.0 * t, unit, 0.0, 1.0, cfg)
    for n in set(grids):
        vf.gauss_legendre(n)
