"""Run the benchmark over several seeds and summarise it.

    python3 perfbench/collect.py --seeds 1-10 [--workloads ops,solve] [--out FILE]

For each workload: one ``run.py`` per seed with tracing off, then one
traced run on the first seed.  Prints, per end-to-end metric, the median,
the quartiles and the spread (interquartile distance over the median, as
``statistics.quantiles(values, n=4)`` gives them) next to the metric's
bound from BENCHMARK.json.  ``--out`` also writes the summary as JSON with
the machine it ran on.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


def _seeds(text):
    lo, _, hi = text.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def _run(workload, seed, seconds, trace):
    proc = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds), "--trace", str(trace)],
        cwd=ROOT, capture_output=True, text=True, timeout=600)
    if proc.returncode != 0:
        raise RuntimeError(f"{workload} seed {seed} exited {proc.returncode}: {proc.stderr}")
    lines = proc.stdout.splitlines()
    return json.loads(lines[-1]), [line for line in lines if line.startswith("# ")]


def machine() -> dict:
    import numpy

    model = ""
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                model = line.split(":", 1)[1].strip()
                break
    except OSError:
        pass
    return {"nproc": os.cpu_count(), "cpu": model or platform.processor(),
            "python": platform.python_version(), "numpy": numpy.__version__}


def summarise(values):
    q1, med, q3 = statistics.quantiles(values, n=4)
    return {"median": med, "q1": q1, "q3": q3,
            "spread": (q3 - q1) / med if med else float("inf"), "values": values}


def main(argv=None) -> int:
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seeds", default="1-10")
    parser.add_argument("--workloads", default=",".join(w["name"] for w in bench["workloads"]))
    parser.add_argument("--seconds", type=float, default=bench["run_seconds"])
    parser.add_argument("--out")
    args = parser.parse_args(argv)
    bounds = {m["name"]: m["bound"] for m in bench["end_to_end"]}
    seeds = _seeds(args.seeds)

    report = {"machine": machine(), "seeds": seeds, "run_seconds": args.seconds,
              "workloads": {}}
    for workload in args.workloads.split(","):
        runs = [_run(workload, seed, args.seconds, 0) for seed in seeds]
        entry = {"attempted": [r["attempted"] for r, _ in runs],
                 "failed": [r["failed"] for r, _ in runs],
                 "correct": all(r["correct"] for r, _ in runs),
                 "loop": runs[0][1][0].split(": ", 1)[1],
                 "inputs_sha256": {seed: notes[1].split()[-1]
                                   for seed, (_, notes) in zip(seeds, runs)},
                 "end_to_end": {}}
        print(f"{workload}: correct={entry['correct']} attempted={entry['attempted']} "
              f"failed={entry['failed']}")
        for name, bound in bounds.items():
            s = summarise([r["metrics"][name]["value"] for r, _ in runs])
            entry["end_to_end"][name] = s
            print(f"  {name:16s} median {s['median']:.6g}  q1 {s['q1']:.6g}  "
                  f"q3 {s['q3']:.6g}  spread {s['spread']:.4f}  bound {bound}")
        traced, _ = _run(workload, seeds[0], args.seconds, 1)
        layers = {k: m["value"] for k, m in traced["metrics"].items()}
        entry["traced_seed"] = seeds[0]
        entry["per_layer"] = layers
        print(f"  traced seed {seeds[0]}: pass {layers['trace.pass_s']:.3f} s, "
              f"tracing overhead {layers['trace.overhead_s']:+.3f} s")
        report["workloads"][workload] = entry
    if args.out:
        Path(args.out).write_text(json.dumps(report, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
