"""Compare two git revisions on one benchmark workload, end to end.

    python tools/ab_pairs.py --workload verify_cli --seed 301 --pairs 10 \\
        [--seconds 30] [--parent HEAD~1] [--change HEAD]

Each revision is exported with ``git archive`` into a temporary directory,
so the repository and its ``.git`` are only read.  Each pair runs
``perfbench/run.py --trace 0`` once in each export, alternating which side
runs first.  For every end-to-end metric of the change's BENCHMARK.json
the tool prints each side's median and quartiles (as
``statistics.quantiles(values, n=4)`` gives them) and the pairs the change
won (ties count for neither side), then two verdicts:

* ``gain``: the change won at least nine tenths of the pairs and its
  median is better than the parent's by more than the parent's
  interquartile distance;
* ``worse``: the change's median is worse than the parent's by more than
  the metric's bound, taken relative to the parent's median.

The last line sums the failed and attempted tasks of each side.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def export(rev: str, dest: Path) -> Path:
    """Write the files of ``rev`` into a new directory dest with ``git archive``."""
    dest.mkdir()
    archive = subprocess.run(["git", "archive", "--format=tar", rev], cwd=ROOT,
                             capture_output=True, check=True).stdout
    subprocess.run(["tar", "-x", "-C", str(dest)], input=archive, check=True)
    return dest


def run_once(root: Path, workload: str, seed: int, seconds: float) -> dict:
    """The result object that one untraced ``run.py`` prints last."""
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds), "--trace", "0"],
        cwd=root, capture_output=True, text=True, check=True)
    return json.loads(proc.stdout.splitlines()[-1])


def quartiles(values):
    """(q1, median, q3) of the values."""
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, median, q3 = statistics.quantiles(values, n=4)
    return q1, median, q3


def summarize(parent: list, change: list, end_to_end: list) -> list:
    """One row per end-to-end metric of paired results.

    ``parent[i]`` and ``change[i]`` are the ``metrics`` objects of pair i
    (name to ``{"value": ...}``); ``end_to_end`` is BENCHMARK.json's list
    of ``{"name", "better", "bound"}``.
    """
    rows = []
    for metric in end_to_end:
        name, sign = metric["name"], 1.0 if metric["better"] == "higher" else -1.0
        p = [run[name]["value"] for run in parent]
        c = [run[name]["value"] for run in change]
        pq, cq = quartiles(p), quartiles(c)
        gap = sign * (cq[1] - pq[1])  # > 0 where the change is better
        wins = sum(sign * (y - x) > 0 for x, y in zip(p, c))
        rows.append({
            "name": name, "parent": pq, "change": cq, "wins": wins, "pairs": len(p),
            "gain": 10 * wins >= 9 * len(p) and gap > pq[2] - pq[0],
            "worse": -gap > metric["bound"] * abs(pq[1]),
        })
    return rows


def format_rows(rows: list) -> list:
    """Text lines, one per row of :func:`summarize`."""
    fmt = lambda q: f"{q[1]:.6g} [{q[0]:.6g}, {q[2]:.6g}]"
    return [f"{r['name']:16s} parent {fmt(r['parent'])}  change {fmt(r['change'])}  "
            f"wins {r['wins']}/{r['pairs']}  gain {'yes' if r['gain'] else 'no'}  "
            f"worse {'yes' if r['worse'] else 'no'}" for r in rows]


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--pairs", type=int, default=10)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--parent", default="HEAD~1")
    parser.add_argument("--change", default="HEAD")
    args = parser.parse_args(argv)
    with tempfile.TemporaryDirectory() as tmp:
        sides = {side: export(rev, Path(tmp, side))
                 for side, rev in (("parent", args.parent), ("change", args.change))}
        results = {"parent": [], "change": []}
        for i in range(args.pairs):
            for side in (("parent", "change") if i % 2 == 0 else ("change", "parent")):
                results[side].append(run_once(sides[side], args.workload, args.seed,
                                              args.seconds))
            print(f"# pair {i + 1}: " + "  ".join(
                f"{side} tasks_per_s {results[side][-1]['metrics']['tasks_per_s']['value']:.6g}"
                for side in ("parent", "change")), flush=True)
        bench = json.loads((sides["change"] / "BENCHMARK.json").read_text())
    rows = summarize([r["metrics"] for r in results["parent"]],
                     [r["metrics"] for r in results["change"]], bench["end_to_end"])
    print(f"{args.workload} seed {args.seed}, {args.pairs} pairs of {args.seconds:g} s runs, "
          f"{args.parent} -> {args.change}")
    print("\n".join(format_rows(rows)))
    print("failed/attempted: " + "  ".join(
        f"{side} {sum(r['failed'] for r in runs)}/{sum(r['attempted'] for r in runs)}"
        for side, runs in results.items()))
    return 0


if __name__ == "__main__":
    sys.exit(main())
