"""``tools/cli_replay.py`` still finds its corpus.

The tool reads the README's example configs and builds the benchmark's
``verify_cli`` and ``solve`` tasks through ``perfbench/workloads.py``, so a
README edit or a change of that module's interface can break it silently.
This runs the first call of each part of the corpus.
"""

import importlib.util
import re
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
LINE = re.compile(r"\S+ -?\d+ [0-9a-f]{64} [0-9a-f]{64}")


@pytest.fixture
def replay_tool(monkeypatch):
    if not (ROOT / "perfbench" / "workloads.py").is_file():
        pytest.skip("perfbench/ is not in this checkout")
    monkeypatch.setattr(sys, "path", list(sys.path))  # the tool extends it
    spec = importlib.util.spec_from_file_location("cli_replay", ROOT / "tools" / "cli_replay.py")
    tool = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tool)
    return tool


def test_finds_the_readme_configs(replay_tool):
    assert [command for command, _ in replay_tool.readme_configs()] == ["op", "verify", "solve"]


def test_benchmark_tasks_replay(replay_tool, tmp_path):
    verify = next(replay_tool.verify_lines(301, tmp_path))
    solve = next(replay_tool.solve_lines(301, tmp_path))
    assert verify.startswith("verify_cli/301/0 0 ") and LINE.fullmatch(verify)
    assert solve.startswith("solve/301/0 ") and LINE.fullmatch(solve)
