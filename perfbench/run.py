"""Benchmark of the varfrac library and CLI: one seeded workload per run.

Run from the repository root:

    python3 perfbench/run.py --workload ops --seed 1 --seconds 30 --trace 0

Workloads (see ``workloads.py``): ``ops``, ``verify_cli`` and ``solve``.
Each is a closed loop with one caller.  The seed makes the inputs; the
program only receives them.

``--trace 0`` measures end to end.  The task list runs in whole passes
until ``--seconds`` of pass time have passed and at least ``MIN_TASKS``
tasks were timed, so p90 has ten samples above it.  task_ms.p50 and p90
are percentiles of all timed tasks.  tasks_per_s is the throughput of one
pass at each task's median latency over the passes, so a stall of a shared
machine that hits a few tasks does not move it.  ``setup_s`` is the median over
``SETUP_PROBES`` fresh interpreters, each timing from its first statement
to ready: importing varfrac, building the program's own objects and
filling its caches, without the input generation.  Oracles run after the
timed loop.

``--trace 1`` runs the task list a fixed number of passes untraced and as
many traced, alternating, and reports per-layer spans and counts
(``tracing.py``) of the traced passes with the tracing overhead, traced
minus untraced wall time.  ``--seconds`` does not apply.  Counts repeat
exactly for a seed.

The last line of stdout is one JSON object with the keys ``correct``,
``attempted``, ``failed`` and ``metrics``.  ``failed`` counts tasks that
raised unexpectedly, returned a non-finite value, missed their gate, gave
a different result in a later pass, or returned where a library error was
the correct outcome.  ``correct`` is false when any task with valid input
failed; failures of invalid-input tasks show in ``failed`` and ``ok_frac``.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import shutil
import statistics
import subprocess
import sys
from pathlib import Path
from time import perf_counter

import workloads

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORK = ROOT / ".perfbench_work"

SETUP_PROBES = 9
MIN_TASKS = 100
MAX_PASS_SECONDS = 120.0  # a much slower program stops short of MIN_TASKS instead
MAX_DIGITS = 16.0

END_TO_END_UNITS = {
    "setup_s": "s",
    "task_ms.p50": "ms",
    "task_ms.p90": "ms",
    "tasks_per_s": "1/s",
    "accuracy_digits": "digits",
    "ok_frac": "ratio",
}


def locate_program() -> bool:
    """Put the checkout's ``src`` first on the path; False if it has no varfrac."""
    if not (SRC / "varfrac" / "__init__.py").is_file():
        return False
    sys.path.insert(0, str(SRC))
    return True


def make_workdir() -> Path:
    path = WORK / str(os.getpid())
    path.mkdir(parents=True, exist_ok=True)
    return path


def remove_workdir(path: Path):
    shutil.rmtree(path, ignore_errors=True)
    try:
        WORK.rmdir()
    except OSError:
        pass  # another run still uses it


def setup_probe(workload: str, seed: int) -> float:
    """One set-up in a fresh interpreter (``setup_probe.py``), as it reports it."""
    proc = subprocess.run([sys.executable, str(HERE / "setup_probe.py"), workload, str(seed)],
                          cwd=ROOT, capture_output=True, text=True, timeout=120)
    if proc.returncode != 0:
        raise RuntimeError(f"set-up probe exited with code {proc.returncode}: {proc.stderr}")
    return float(json.loads(proc.stdout.splitlines()[-1])["setup_s"])


def run_pass(tasks, records):
    for i, task in enumerate(tasks):
        start = perf_counter()
        try:
            out, exc = task.run(), None
        except Exception as err:  # the outcome is judged by the workload's gate
            out, exc = None, err
        records.append((i, perf_counter() - start, out, exc))


def timed_loop(tasks, seconds: float, probe):
    """Whole passes until ``seconds`` of pass time and ``MIN_TASKS`` tasks.

    The ``SETUP_PROBES`` set-up probes run between passes, outside the
    timed passes, spread over the run so that slow and fast stretches of
    a shared machine weigh on setup_s as they weigh on the task times.
    """
    records, setups, pass_times = [], [probe()], []
    elapsed = 0.0
    while True:
        start = perf_counter()
        run_pass(tasks, records)
        pass_times.append(perf_counter() - start)
        elapsed += pass_times[-1]
        if elapsed >= seconds and len(records) >= MIN_TASKS or elapsed >= MAX_PASS_SECONDS:
            break
        done = min(1.0, elapsed / seconds) if seconds > 0 else 1.0
        due = 1 + int(done * (SETUP_PROBES - 1))
        while len(setups) < min(due, SETUP_PROBES - 1):
            setups.append(probe())
    while len(setups) < SETUP_PROBES:
        setups.append(probe())
    return records, pass_times, statistics.median(setups)


def evaluate(wl, vf, tasks, records):
    """(failed, failed with valid input, accuracy digits) over all records."""
    first = {}
    for i, _, out, exc in records:
        first.setdefault(i, (out, exc))
    expected = {i: (wl.reference(vf, tasks[i], out) if exc is None else None)
                for i, (out, exc) in first.items()}
    failed = failed_valid = 0
    digits = MAX_DIGITS
    for i, _, out, exc in records:
        passed, err = wl.check(vf, tasks[i], out, exc, expected[i])
        if passed and exc is None:
            passed = wl.fingerprint(out) == wl.fingerprint(first[i][0])
        if not passed:
            failed += 1
            failed_valid += not tasks[i].expect_error
        if err is not None:
            digits = min(digits, MAX_DIGITS if err == 0.0 else -math.log10(err))
    return failed, failed_valid, digits


def prepare(wl, vf, seed, workdir):
    specs = wl.specs(seed)
    wl.write(specs, workdir)
    tasks = wl.build(vf, specs, lambda fn: fn, workdir)
    workloads.warm(vf, wl.caches(vf, specs))
    return specs, tasks


def end_to_end(args, wl, vf, workdir):
    specs, tasks = prepare(wl, vf, args.seed, workdir)
    records, pass_times, setup_s = timed_loop(
        tasks, args.seconds, lambda: setup_probe(args.workload, args.seed))
    failed, failed_valid, digits = evaluate(wl, vf, tasks, records)
    latencies = [r[1] * 1e3 for r in records]
    by_task = {}
    for i, dt, _, _ in records:
        by_task.setdefault(i, []).append(dt)
    values = {
        "setup_s": setup_s,
        "task_ms.p50": statistics.median(latencies),
        "task_ms.p90": statistics.quantiles(latencies, n=10)[-1],
        "tasks_per_s": len(tasks) / sum(statistics.median(t) for t in by_task.values()),
        "accuracy_digits": digits,
        "ok_frac": 1.0 - failed / len(records),
    }
    notes = [f"samples {len(records)} tasks in {sum(pass_times):.3f} s "
             f"({len(pass_times)} passes)"]
    metrics = {name: (values[name], unit) for name, unit in END_TO_END_UNITS.items()}
    return specs, records, failed, failed_valid, metrics, notes


def traced(args, wl, vf, workdir):
    from tracing import Tracer, layer_metrics

    specs, tasks = prepare(wl, vf, args.seed, workdir)
    tracer = Tracer()
    traced_tasks = wl.build(vf, specs, tracer.integrand, workdir)
    records, traced_records = [], []
    pass_s = traced_s = 0.0
    for _ in range(wl.trace_passes):  # alternate, so drift in machine speed cancels
        start = perf_counter()
        run_pass(tasks, records)
        pass_s += perf_counter() - start
        with tracer.installed():
            start = perf_counter()
            run_pass(traced_tasks, traced_records)
            traced_s += perf_counter() - start
    records += traced_records
    failed, failed_valid, _ = evaluate(wl, vf, tasks, records)

    metrics = layer_metrics(tracer.totals())
    metrics.update({
        "trace.tasks": (len(traced_records), "count"),
        "trace.pass_s": (pass_s, "s"),
        "trace.traced_pass_s": (traced_s, "s"),
        "trace.overhead_s": (traced_s - pass_s, "s"),
    })
    notes = [f"{wl.trace_passes} untraced passes {pass_s:.3f} s, as many traced "
             f"{traced_s:.3f} s (overhead {traced_s - pass_s:+.3f} s)"]
    return specs, records, failed, failed_valid, metrics, notes


def parse_args(argv):
    parser = argparse.ArgumentParser(description="varfrac benchmark")
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def main(argv=None) -> int:
    if not locate_program():
        print(f"varfrac sources not found under {SRC}", file=sys.stderr)
        return 2
    args = parse_args(argv)
    vf = workloads.program()
    wl = workloads.WORKLOADS[args.workload]
    workdir = make_workdir()
    try:
        measure = traced if args.trace else end_to_end
        specs, records, failed, failed_valid, metrics, notes = measure(args, wl, vf, workdir)
    finally:
        remove_workdir(workdir)

    print(f"# workload {args.workload} seed {args.seed} trace {args.trace}: closed loop, "
          f"one caller, threads={wl.threads}")
    print(f"# inputs {len(specs)} tasks per pass, sha256 {workloads.digest(specs)}")
    for note in notes:
        print(f"# {note}")
    for name, (value, unit) in metrics.items():
        print(f"{name} {value:.6g} {unit}")
    print(f"# failed {failed} of {len(records)} ({failed_valid} with valid input)")
    print(json.dumps({
        "correct": failed_valid == 0,
        "attempted": len(records),
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
