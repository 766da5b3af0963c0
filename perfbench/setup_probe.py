"""One set-up of a workload in a fresh interpreter, for ``run.py``'s setup_s.

    python3 perfbench/setup_probe.py <workload> <seed>

Times, from its first statement, importing varfrac, building the program's
own objects from the workload's inputs and filling its caches; the input
generation is timed apart and left out.  Prints one JSON line.
"""

from time import perf_counter

START = perf_counter()

import json  # noqa: E402
import sys  # noqa: E402

import workloads  # noqa: E402
from run import locate_program, make_workdir, remove_workdir  # noqa: E402


def main() -> int:
    if not locate_program():
        return 2
    workload, seed = sys.argv[1], int(sys.argv[2])
    vf = workloads.program()
    wl = workloads.WORKLOADS[workload]
    workdir = make_workdir()
    try:
        start = perf_counter()
        specs = wl.specs(seed)
        wl.write(specs, workdir)
        excluded = perf_counter() - start
        wl.build(vf, specs, lambda fn: fn, workdir)
        workloads.warm(vf, wl.caches(vf, specs))
        setup_s = perf_counter() - START - excluded
    finally:
        remove_workdir(workdir)
    print(json.dumps({"setup_s": setup_s}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
