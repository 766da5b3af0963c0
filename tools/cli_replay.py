"""Replay a fixed corpus of CLI and solver calls and fingerprint their output.

Prints one line per call: its name, its exit code and the sha256 of its
stdout and of its stderr.  Two checkouts print the same lines exactly when
every call of the corpus gives the same bytes, so a diff of two runs is
the byte-identity check of a change:

    python tools/cli_replay.py > after.txt

The corpus:

* the ``op``, ``verify`` and ``solve`` example configs of README.md;
* ``selftest --seed 0`` and ``selftest --seed 5``;
* the ``verify_cli`` benchmark configs of seeds 301 and 302;
* ``repr(ritz_solve(...).to_json_dict())`` of the ``solve`` benchmark
  tasks of seeds 301 and 302.

The benchmark inputs, and the calls made on them, come from
``perfbench/workloads.py``, imported and never written to.  CLI calls run
in-process through ``varfrac.cli.main``.
"""

from __future__ import annotations

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
_SAME = lambda fn: fn  # the benchmark's tracing hook, here a no-op


def _sha(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()


def _line(name: str, code, out: str, err: str) -> str:
    return f"{name} {code} {_sha(out)} {_sha(err)}"


def _cli(name: str, argv) -> str:
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        code = varfrac.cli.main(argv)
    return _line(name, code, out.getvalue(), err.getvalue())


def readme_configs():
    """(command, config) of each example config block in README.md."""
    text = (ROOT / "README.md").read_text(encoding="utf-8")
    blocks = re.findall(r"Example `(\w+)` config.*?```json\n(.*?)```", text, re.S)
    return [(command, json.loads(body)) for command, body in blocks]


def verify_lines(seed: int, workdir: Path):
    """Yield a line per ``verify_cli`` benchmark config of ``seed``."""
    specs = workloads.verify_specs(seed)
    workloads.verify_write(specs, workdir)
    for i, task in enumerate(workloads.verify_build(varfrac, specs, _SAME, workdir)):
        err = io.StringIO()
        with redirect_stderr(err):
            code, out = task.run()  # the task captures its own stdout
        yield _line(f"verify_cli/{seed}/{i}", code, out, err.getvalue())


def solve_lines(seed: int, workdir: Path):
    """Yield a line per ``solve`` benchmark task of ``seed``."""
    for i, task in enumerate(workloads.solve_build(varfrac, workloads.solve_specs(seed),
                                                   _SAME, workdir)):
        try:
            out, code = repr(task.run().to_json_dict()), 0
        except varfrac.VarfracError as exc:
            out, code = f"{type(exc).__name__}: {exc}", 1
        yield _line(f"solve/{seed}/{i}", code, out, "")


def replay(workdir: Path):
    """Yield the corpus lines in order."""
    for command, config in readme_configs():
        path = workdir / f"readme_{command}.json"
        path.write_text(json.dumps(config))
        yield _cli(f"readme/{command}", [command, "--config", str(path)])
    for seed in SELFTEST_SEEDS:
        yield _cli(f"selftest/{seed}", ["selftest", "--seed", str(seed)])
    for seed in SEEDS:
        yield from verify_lines(seed, workdir)
    for seed in SEEDS:
        yield from solve_lines(seed, workdir)


def main() -> int:
    with tempfile.TemporaryDirectory() as tmp:
        for line in replay(Path(tmp)):
            print(line, flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
