"""Tiny-size smoke check of the benchmark itself.

    python3 perfbench/smoke.py

Runs every workload on the first few tasks of its seed-1 list: once end to
end, twice traced.  Checks that each run ends with the result line, that
every metric named in BENCHMARK.json is emitted with its unit, that no
task with valid input failed, that the three runs report the same input
digest, and that every count repeats exactly across the two traced runs.
Exits 0 when all checks hold.
"""

from __future__ import annotations

import io
import json
import sys
from contextlib import redirect_stdout

import run
import workloads

TINY = {"ops": 12, "verify_cli": 2, "solve": 2}
COUNT_UNITS = {"count", "elems/call", "integrals/call", "ratio"}


def _result(argv):
    """The result object and the inputs line of one run."""
    buf = io.StringIO()
    with redirect_stdout(buf):
        code = run.main(argv)
    if code != 0:
        raise AssertionError(f"run.py {' '.join(argv)} exited with {code}")
    lines = buf.getvalue().splitlines()
    result = json.loads(lines[-1])
    if sorted(result) != ["attempted", "correct", "failed", "metrics"]:
        raise AssertionError(f"unexpected result keys {sorted(result)}")
    return result, next(line for line in lines if line.startswith("# inputs"))


def _check_names(result, declared, label):
    emitted = {name: m["unit"] for name, m in result["metrics"].items()}
    wanted = {m["name"]: m["unit"] for m in declared}
    if emitted != wanted:
        missing = sorted(set(wanted) - set(emitted))
        extra = sorted(set(emitted) - set(wanted))
        wrong = sorted(n for n in set(wanted) & set(emitted) if wanted[n] != emitted[n])
        raise AssertionError(f"{label}: missing {missing}, extra {extra}, wrong unit {wrong}")
    if not result["correct"] or result["attempted"] < 1:
        raise AssertionError(f"{label}: correct={result['correct']} "
                             f"attempted={result['attempted']}")


def main() -> int:
    bench = json.loads((run.ROOT / "BENCHMARK.json").read_text())
    if not run.locate_program():
        print("varfrac sources not found", file=sys.stderr)
        return 2
    run.MIN_TASKS = 1
    run.SETUP_PROBES = 1
    for name, size in TINY.items():
        wl = workloads.WORKLOADS[name]
        wl.specs = (lambda full, n: lambda seed: full(seed)[:n])(wl.specs, size)
        base = ["--workload", name, "--seed", "1", "--seconds", "0"]
        plain, inputs = _result(base + ["--trace", "0"])
        _check_names(plain, bench["end_to_end"], name)
        (first, inputs1), (second, inputs2) = (_result(base + ["--trace", "1"]) for _ in range(2))
        if not inputs == inputs1 == inputs2:
            raise AssertionError(f"{name}: inputs differ between runs of one seed")
        _check_names(first, bench["per_layer"], name + " traced")
        for metric, m in first["metrics"].items():
            if m["unit"] in COUNT_UNITS and m["value"] != second["metrics"][metric]["value"]:
                raise AssertionError(f"{name}: {metric} changed between traced runs: "
                                     f"{m['value']} vs {second['metrics'][metric]['value']}")
        print(f"smoke {name}: ok ({size} tasks per pass)")
    return 0


if __name__ == "__main__":
    sys.exit(main())
