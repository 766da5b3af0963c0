"""``tools/cli_replay.py`` still finds its corpus.

The tool reads the README's example configs and builds the benchmark's
``verify_cli`` and ``solve`` tasks through ``perfbench/workloads.py``, so a
README edit or a change of that module's interface can break it silently.
This runs the first call of each part of the corpus and the RL, failing
``op``, failing Green probe, lifted ``solve`` and unknown-key calls and a
variational replay, and checks the two ways the tool prints a call: its
sha256 line and its ``--raw`` block.
"""

import ast
import hashlib
import importlib.util
import itertools
import json
import math
import re
import sys
from pathlib import Path

import numpy as np
import pytest

ROOT = Path(__file__).resolve().parents[1]
LINE = re.compile(r"\S+ -?\d+ [0-9a-f]{64} [0-9a-f]{64}\n")


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


def test_stencil_ops_reach_the_regular_ends(replay_tool, tmp_path):
    # each RL call reaches its regular end, where only the one-sided stencil fits
    calls = itertools.takewhile(lambda call: not call[0].startswith("selftest/"),
                                replay_tool.replay(tmp_path))
    calls = [call for call in calls if call[0].startswith("op/")]
    assert [name for name, *_ in calls] == [name for name, _ in replay_tool.STENCIL_OPS]
    for (name, code, out, err), (_, config) in zip(calls, replay_tool.STENCIL_OPS):
        rows = out.splitlines()[1:]
        assert code == 0 and err == ""
        assert len(rows) == len(config["grid"] if "grid" in config else config["points"])
        end = 1.0 if config["kind"] == "D_rl_left" else 0.0
        assert any(float(row.split(",")[-2]) == end for row in rows)


def test_fault_ops_name_the_first_faulty_point(replay_tool, tmp_path):
    # exit 3 with one stderr line, naming the listed order's first faulty
    # point: the second of the partial op, the 0.89999 stencil of the RL one
    calls = itertools.takewhile(lambda call: not call[0].startswith("selftest/"),
                                replay_tool.replay(tmp_path))
    calls = [call for call in calls if call[0].startswith("fault/")]
    assert [name for name, *_ in calls] == [name for name, _ in replay_tool.FAULT_OPS]
    ends = ("(t, tau) = (0.6, 0.444129) [side=left, weight=integral], t1 = 0.3\n",
            "(t, tau) = (0.90009, 0.900033) [side=left, weight=derivative]\n")
    for (name, code, out, err), end in zip(calls, ends):
        assert (code, out) == (3, "") and err.count("\n") == 1
        assert err.startswith("validity error: integrand value nan is not finite at ")
        assert err.endswith(end)


def test_green_probe_fault_exits_3_at_the_first_rung(replay_tool, tmp_path):
    calls = itertools.takewhile(lambda call: not call[0].startswith("selftest/"),
                                replay_tool.replay(tmp_path))
    [(_, code, out, err)] = [call for call in calls
                             if call[0] == replay_tool.GREEN_PROBE_FAULT[0]]
    assert (code, out) == (3, "level,outer_grid,panels,lhs,rhs,residual\n")
    assert err.startswith("validity error: integrand value nan is not finite at ")
    assert err.count("\n") == 1


def test_unknown_keys_exit_2_naming_the_key(replay_tool, tmp_path):
    # one stderr line, naming the key that ends the call's name, and no output
    calls = itertools.takewhile(lambda call: not call[0].startswith("selftest/"),
                                replay_tool.replay(tmp_path))
    calls = [call for call in calls if call[0].startswith("unknown/")]
    assert [name for name, *_ in calls] == [name for name, _ in replay_tool.UNKNOWN_KEYS]
    for name, code, out, err in calls:
        assert (code, out) == (2, "") and err.count("\n") == 1
        assert err.startswith(f"parse error: {name.rsplit('/', 1)[1]} is not a key of ")


def test_pinned_solves_replay_the_variational_layer(replay_tool, tmp_path):
    # J, the first variation along each of the 4 modes, which vanishes at
    # the minimizer, and the 2 x 2 residual values, one repr line each
    solve, (name, code, out, err) = itertools.islice(replay_tool.solve_calls(301, tmp_path), 2)
    assert solve[0] == "solve/301/0" and (name, code, err) == ("variational/301/0", 0, "")
    J, fv, el = map(ast.literal_eval, out.splitlines())
    assert math.isfinite(J) and len(fv) == 4 and max(map(abs, fv)) < 1e-6
    assert np.shape(el) == (2, 2) and np.isfinite(el).all()


def test_solve_configs_have_a_lift_and_a_residual(replay_tool, tmp_path):
    # the lift's terms and three or more sine modes per axis in one table,
    # four in one config, and the stationarity residual of the solution on a
    # grid of a non-unit rectangle
    assert max(config["n_modes"] for _, config in replay_tool.SOLVE_CONFIGS) >= 4
    calls = itertools.takewhile(lambda call: not call[0].startswith("selftest/"),
                                replay_tool.replay(tmp_path))
    calls = [call for call in calls if call[0].startswith("solve/")]
    assert [name for name, *_ in calls] == [name for name, _ in replay_tool.SOLVE_CONFIGS]
    for (name, code, out, err), (_, config) in zip(calls, replay_tool.SOLVE_CONFIGS):
        assert isinstance(config["psi"], dict)
        assert config["n_modes"] >= 3 and config["el_grid"] >= 2
        assert config["rect"] != {"a1": 0.0, "b1": 1.0, "a2": 0.0, "b2": 1.0}
        report = json.loads(out)
        assert code == 0 and err == ""
        assert len(report["coeffs"]) == config["n_modes"] ** 2
        assert math.isfinite(report["el_residual_l2"])


def test_benchmark_tasks_replay(replay_tool, tmp_path):
    verify = replay_tool.digest(next(replay_tool.verify_calls(301, tmp_path)))
    solve = replay_tool.digest(next(replay_tool.solve_calls(301, tmp_path)))
    assert verify.startswith("verify_cli/301/0 0 ") and LINE.fullmatch(verify)
    assert solve.startswith("solve/301/0 ") and LINE.fullmatch(solve)


def test_raw_prints_the_output_itself(replay_tool, tmp_path):
    name, code, out, err = call = next(replay_tool.verify_calls(301, tmp_path))
    assert replay_tool.raw(call) == f"== {name} {code}\n{out}"
    assert out.startswith("level,outer_grid,panels,lhs,rhs,residual\n") and err == ""
    _, _, report, _ = solve = next(replay_tool.solve_calls(301, tmp_path))
    assert replay_tool.raw(solve) == f"== solve/301/0 0\n{report}\n"
    assert report.startswith("{") and "'J_value': " in report


def test_raw_keeps_stderr_apart(replay_tool):
    call = ("selftest/0", 4, "a\n", "b")
    assert replay_tool.raw(call) == "== selftest/0 4\na\n-- stderr\nb\n"
    out_sha, err_sha = (hashlib.sha256(text.encode()).hexdigest() for text in call[2:])
    assert replay_tool.digest(call) == f"selftest/0 4 {out_sha} {err_sha}\n"


def test_main_raw_flag(replay_tool, monkeypatch, capsys):
    calls = [("a", 0, "x,y\n1,2\n", ""), ("b", 3, "", "validity error: nan\n")]
    monkeypatch.setattr(replay_tool, "replay", lambda workdir: iter(calls))
    assert replay_tool.main(["--raw"]) == 0
    assert capsys.readouterr().out == ("== a 0\nx,y\n1,2\n"
                                       "== b 3\n-- stderr\nvalidity error: nan\n")
    assert replay_tool.main([]) == 0
    assert capsys.readouterr().out == "".join(map(replay_tool.digest, calls))
