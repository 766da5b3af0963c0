"""Replay a fixed corpus of CLI and solver calls and fingerprint their output.

Prints one line per call: its name, its exit code and the sha256 of its
stdout and of its stderr.  Two checkouts print the same lines exactly when
every call of the corpus gives the same bytes, so a diff of two runs is
the byte-identity check of a change:

    python tools/cli_replay.py > after.txt

With ``--raw`` each call prints a header line ``== name code`` followed by
its stdout itself (for a ``solve`` task, the repr of its report) and, when
not empty, a ``-- stderr`` line and its stderr.  A change that is meant
to move values at the rounding level bounds the movement from a diff of
two raw runs:

    python tools/cli_replay.py --raw > after_raw.txt

The corpus:

* the ``op``, ``verify`` and ``solve`` example configs of README.md;
* ``op`` configs of the RL derivatives (:data:`STENCIL_OPS`) at points
  where the central stencil fits and where it does not: a left one in the
  middle, near and at b, a right one near and at a, and a partial one;
* ``op`` configs whose integrand meets a NaN (:data:`FAULT_OPS`), which
  exit 3 naming the first faulty point in the listed order: a partial one
  whose first point is clean and whose next two are not, and an RL one
  where only some of a point's stencil integrals meet the NaN;
* a Green ``verify`` config whose C^1 probe of the right co-integral of
  g meets a NaN at the first rung (:data:`GREEN_PROBE_FAULT`), exit 3;
* ``solve`` configs (:data:`SOLVE_CONFIGS`) with a nonzero boundary lift,
  three and four modes per axis and a stationarity residual grid, on
  non-unit rectangles with (t, tau)-varying orders;
* configs with a misspelled or misplaced key (:data:`UNKNOWN_KEYS`): at
  the top level of each command, inside ``grid``, ``quad``, an order
  object, ``rect``, ``psi`` and a Lagrangian object, ``eta`` under the IBP
  identity and ``grid`` with ``axis``.  Each exits 2 with one stderr line
  naming the key, the last part of its name;
* ``selftest --seed 0`` and ``selftest --seed 5``;
* the ``verify_cli`` benchmark configs of seeds 301 and 302;
* ``repr(ritz_solve(...).to_json_dict())`` of the ``solve`` benchmark
  tasks of seeds 301 and 302, and for the first :data:`PINNED_SOLVES` of
  each seed the variational layer at the solution: J as the benchmark's
  oracle computes it, the first variation along each mode and the
  Euler-Lagrange residual values on a 2 x 2 grid, one ``repr`` line each.

The benchmark inputs, and the calls made on them, come from
``perfbench/workloads.py``, imported and never written to.  CLI calls run
in-process through ``varfrac.cli.main``.
"""

from __future__ import annotations

import argparse
import hashlib
import io
import json
import re
import sys
import tempfile
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path[:0] = [str(ROOT / "src"), str(ROOT / "perfbench")]

import varfrac.cli  # noqa: E402
import workloads  # noqa: E402

SEEDS = (301, 302)
SELFTEST_SEEDS = (0, 5)
_UNIT = {"a1": 0.0, "b1": 1.0, "a2": 0.0, "b2": 1.0}
# (name, config) of the RL derivative calls; at the default step (1e-4 of
# the length) the central stencil does not fit within 2e-4 of the regular end
STENCIL_OPS = (
    ("op/D_rl_left", {"kind": "D_rl_left", "f": "exp(tau)*(1+tau^2)",
                      "alpha": "0.3+0.2*t*tau+0.1*tau", "a": 0.0, "b": 1.0,
                      "grid": [0.5, 0.99999, 1.0]}),
    ("op/D_rl_right", {"kind": "D_rl_right", "f": "exp(tau)*(1+tau^2)",
                       "alpha": "0.3+0.2*t*tau+0.1*tau", "a": 0.0, "b": 1.0,
                       "grid": [0.5, 1e-5, 0.0]}),
    ("op/D_rl_left/axis2", {"kind": "D_rl_left", "axis": 2, "f": "sin(1+t1*t2)+t1^2",
                            "alpha": "0.4+0.1*t*tau",
                            "rect": {"a1": 0.0, "b1": 1.0, "a2": 0.0, "b2": 1.0},
                            "points": [[0.3, 0.5], [0.7, 0.99999], [1.0, 1.0]]}),
)
# (name, config) of the op calls that fail: (t1 - 0.5)^0.5 is NaN at the
# 2nd and 3rd points, and (0.9 - tau)^0.5 under the stencil integrals of
# 0.89999 that reach past 0.9, and under every one of 0.95
FAULT_OPS = (
    ("fault/op/I_left/axis2", {"kind": "I_left", "axis": 2, "f": "(t1-0.5)^0.5*(1+t2)",
                               "alpha": "0.4+0.1*t*tau",
                               "rect": {"a1": 0.0, "b1": 1.0, "a2": 0.0, "b2": 1.0},
                               "points": [[0.8, 0.9], [0.3, 0.6], [0.2, 0.4]]}),
    ("fault/op/D_rl_left", {"kind": "D_rl_left", "f": "(0.9-tau)^0.5*exp(tau)",
                            "alpha": "0.3+0.2*t*tau+0.1*tau", "a": 0.0, "b": 1.0,
                            "grid": [0.5, 0.89999, 0.95]}),
)
# the Green probe of the right co-integral of g = ln(t1 - 0.5) meets a NaN
GREEN_PROBE_FAULT = ("probe/verify/green",
                     {"identity": "green", "f": "1+t1*t2", "g": "ln(t1-0.5)", "eta": "t2+t1^2",
                      "alpha1": "0.4+0.1*t", "alpha2": "0.5+0.1*tau", "l1": 3, "l2": 3,
                      "rect": {"a1": 0, "b1": 1, "a2": 0, "b2": 1},
                      "ladder": [[8, 8], [12, 12]]})
# (name, config) of the solve calls; the edges are those of 1 + t1*t2 + t2^2
# on each rectangle
SOLVE_CONFIGS = (
    ("solve/lift/n3", {"lagrangian": "quadratic",
                       "psi": {"bottom": "1.25-0.5*t1", "right": "1+1.5*t2+t2^2",
                               "top": "2+t1", "left": "1+t2^2"},
                       "alpha1": "0.3+0.1*t*tau", "alpha2": "0.25+0.1*t+0.05*tau",
                       "l1": 3, "l2": 3, "rect": {"a1": 0.0, "b1": 1.5, "a2": -0.5, "b2": 1.0},
                       "n_modes": 3, "outer_grid": 12, "el_grid": 2}),
    ("solve/lift/n4", {"lagrangian": "quadratic",
                       "psi": {"bottom": "1.04+0.2*t1", "right": "1+0.9*t2+t2^2",
                               "top": "3.25+1.5*t1", "left": "1-0.3*t2+t2^2"},
                       "alpha1": "0.35+0.1*t-0.05*tau", "alpha2": "0.3+0.1*t*tau",
                       "l1": 3, "l2": 3, "rect": {"a1": -0.3, "b1": 0.9, "a2": 0.2, "b2": 1.5},
                       "n_modes": 4, "outer_grid": 14, "el_grid": 2}),
)
# (name, config) of the calls with a key that no table of theirs holds;
# each name is unknown/<command>/<key>
_OP = {"kind": "I_left", "f": "tau", "alpha": "0.5", "a": 0.0, "b": 1.0, "grid": [0.5]}
_IBP = {"identity": "ibp", "f": "1+t1", "g": "t2", "eta1": "t1*t2", "eta2": "1-t2",
        "alpha1": "0.6", "alpha2": "0.6+0.1*tau", "rect": _UNIT, "ladder": [[8, 8]]}
_QUADRATIC = {"alpha1": "0.4", "alpha2": "0.4", "rect": _UNIT, "n_modes": 2, "outer_grid": 8,
              "el_grid": 2}
UNKNOWN_KEYS = (
    ("unknown/solve/outer_gird", dict(_QUADRATIC, outer_gird=40, el_grdi=0)),
    ("unknown/verify/ladders", dict(_IBP, ladders=[[4, 4]], tolerence=1e-30)),
    ("unknown/op/cout", dict(_OP, grid={"cout": 3})),
    ("unknown/op/points", dict(_OP, points=[[0.5, 0.5]])),
    ("unknown/op/panel", dict(_OP, quad={"panel": 2})),
    ("unknown/op/bound_mod", dict(_OP, alpha={"expr": "0.6", "bound_mod": "above_one_over_l"})),
    ("unknown/solve/sigma", dict(_QUADRATIC, lagrangian="quadratic", sigma="1+t2", tenson=3)),
    ("unknown/verify/b3", dict(_IBP, rect={"a1": 0, "b1": 1, "a2": 0, "b3": 1})),
    ("unknown/solve/rigth",
     dict(_QUADRATIC, psi={"bottom": "1", "rigth": "1", "top": "1", "left": "1"})),
    ("unknown/solve/dL_d2",
     dict(_QUADRATIC, lagrangian={"L": "d1^2+d2^2+u^2", "dL_du": "2*u", "dL_dd1": "2*d1",
                                  "dL_d2": "2*d2"})),
    ("unknown/verify/eta", dict(_IBP, eta="t1+t2")),
    ("unknown/op/grid", {"kind": "I_left", "axis": 1, "f": "t1*t2", "alpha": "0.5",
                         "rect": _UNIT, "points": [[0.5, 0.5]], "grid": [0.5]}),
)
_SAME = lambda fn: fn  # the benchmark's tracing hook, here a no-op
PINNED_SOLVES = 6  # solve tasks per seed whose solution the variational layer replays


def _sha(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()


def digest(call) -> str:
    """The fingerprint line of a ``(name, code, stdout, stderr)`` call."""
    name, code, out, err = call
    return f"{name} {code} {_sha(out)} {_sha(err)}\n"


def _ended(text: str) -> str:
    return text if not text or text.endswith("\n") else text + "\n"


def raw(call) -> str:
    """The ``--raw`` block of a ``(name, code, stdout, stderr)`` call."""
    name, code, out, err = call
    return f"== {name} {code}\n{_ended(out)}" + (f"-- stderr\n{_ended(err)}" if err else "")


def _cli(name: str, argv):
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        code = varfrac.cli.main(argv)
    return name, code, out.getvalue(), err.getvalue()


def readme_configs():
    """(command, config) of each example config block in README.md."""
    text = (ROOT / "README.md").read_text(encoding="utf-8")
    blocks = re.findall(r"Example `(\w+)` config.*?```json\n(.*?)```", text, re.S)
    return [(command, json.loads(body)) for command, body in blocks]


def verify_calls(seed: int, workdir: Path):
    """Yield a call per ``verify_cli`` benchmark config of ``seed``."""
    specs = workloads.verify_specs(seed)
    workloads.verify_write(specs, workdir)
    for i, task in enumerate(workloads.verify_build(varfrac, specs, _SAME, workdir)):
        err = io.StringIO()
        with redirect_stderr(err):
            code, out = task.run()  # the task captures its own stdout
        yield f"verify_cli/{seed}/{i}", code, out, err.getvalue()


def _variational(task, report) -> str:
    """J, the first variation along each mode and the Euler-Lagrange
    residual values at the solution of a ``solve`` task, a line each."""
    lagr, _, alpha1, alpha2, rect = task.problem
    u = report.expansion
    fv = [varfrac.first_variation(lagr, u, u.mode_fn(b), alpha1, alpha2, rect,
                                  workloads.SOLVE_OUTER) for b in range(len(u.modes))]
    el = varfrac.el_residual(lagr, u, alpha1, alpha2, rect, 2,
                             varfrac.QuadConfig(*workloads.SOLVE_EL_QUAD))
    return (f"{workloads.solve_reference(varfrac, task, report)!r}\n{fv!r}\n"
            f"{el.values.tolist()!r}\n")


def solve_calls(seed: int, workdir: Path):
    """Yield a call per ``solve`` benchmark task of ``seed``, each of the
    first :data:`PINNED_SOLVES` followed by one of :func:`_variational`."""
    for i, task in enumerate(workloads.solve_build(varfrac, workloads.solve_specs(seed),
                                                   _SAME, workdir)):
        try:
            report = task.run()
            out, code = repr(report.to_json_dict()), 0
        except varfrac.VarfracError as exc:
            report, out, code = None, f"{type(exc).__name__}: {exc}", 1
        yield f"solve/{seed}/{i}", code, out, ""
        if report is not None and i < PINNED_SOLVES:
            yield f"variational/{seed}/{i}", 0, _variational(task, report), ""


def replay(workdir: Path):
    """Yield the corpus calls in order, each as ``(name, code, stdout, stderr)``."""
    for command, config in readme_configs():
        path = workdir / f"readme_{command}.json"
        path.write_text(json.dumps(config))
        yield _cli(f"readme/{command}", [command, "--config", str(path)])
    for name, config in STENCIL_OPS + FAULT_OPS:
        path = workdir / "stencil_op.json"
        path.write_text(json.dumps(config))
        yield _cli(name, ["op", "--config", str(path)])
    path = workdir / "green_probe.json"
    path.write_text(json.dumps(GREEN_PROBE_FAULT[1]))
    yield _cli(GREEN_PROBE_FAULT[0], ["verify", "--config", str(path)])
    for name, config in SOLVE_CONFIGS:
        path = workdir / "solve.json"
        path.write_text(json.dumps(config))
        yield _cli(name, ["solve", "--config", str(path)])
    for name, config in UNKNOWN_KEYS:
        path = workdir / "unknown_key.json"
        path.write_text(json.dumps(config))
        yield _cli(name, [name.split("/")[1], "--config", str(path)])
    for seed in SELFTEST_SEEDS:
        yield _cli(f"selftest/{seed}", ["selftest", "--seed", str(seed)])
    for seed in SEEDS:
        yield from verify_calls(seed, workdir)
    for seed in SEEDS:
        yield from solve_calls(seed, workdir)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--raw", action="store_true",
                        help="print each call's output in place of its sha256")
    show = raw if parser.parse_args(argv).raw else digest
    with tempfile.TemporaryDirectory() as tmp:
        for call in replay(Path(tmp)):
            print(show(call), end="", flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
