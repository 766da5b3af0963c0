import json
import subprocess
import sys

import numpy as np
import pytest

from varfrac.cli import main

from conftest import mpgamma


def run_cli(capsys, argv):
    code = main(argv)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def write_config(tmp_path, obj, name="cfg.json"):
    path = tmp_path / name
    path.write_text(json.dumps(obj))
    return str(path)


class TestOpCommand:
    def test_power_law_row(self, tmp_path, capsys):
        cfg = write_config(tmp_path, {
            "kind": "I_left", "f": "tau", "alpha": "(1+t)/4",
            "a": 0.0, "b": 1.0, "grid": {"start": 1.0, "stop": 1.0, "count": 1},
        })
        code, out, _ = run_cli(capsys, ["op", "--config", cfg])
        assert code == 0
        lines = out.strip().split("\n")
        assert lines[0] == "t,value"
        t, value = lines[1].split(",")
        assert float(t) == 1.0
        assert float(value) == pytest.approx(mpgamma(2.0) / mpgamma(2.5), rel=1e-8)

    def test_caputo_of_constant_is_zero(self, tmp_path, capsys):
        cfg = write_config(tmp_path, {
            "kind": "D_cap_left", "f": "1", "alpha": "0.5",
            "a": 0.0, "b": 1.0, "grid": {"start": 0.2, "stop": 1.0, "count": 4},
        })
        code, out, _ = run_cli(capsys, ["op", "--config", cfg])
        assert code == 0
        rows = out.strip().split("\n")[1:]
        assert len(rows) == 4
        assert all(abs(float(r.split(",")[1])) < 1e-10 for r in rows)

    def test_empty_grid_emits_header_only(self, tmp_path, capsys):
        cfg = write_config(tmp_path, {
            "kind": "I_left", "f": "tau", "alpha": "0.5",
            "a": 0.0, "b": 1.0, "grid": {"count": 0},
        })
        code, out, _ = run_cli(capsys, ["op", "--config", cfg])
        assert code == 0
        assert out == "t,value\n"

    def test_partial_operator_rows(self, tmp_path, capsys):
        cfg = write_config(tmp_path, {
            "kind": "I_left", "axis": 2, "f": "t1*t2^2", "alpha": "(1+t)/4",
            "rect": {"a1": 0, "b1": 1, "a2": 0, "b2": 1},
            "points": [[0.5, 1.0]],
        })
        code, out, _ = run_cli(capsys, ["op", "--config", cfg])
        assert code == 0
        lines = out.strip().split("\n")
        assert lines[0] == "t1,t2,value"
        assert float(lines[1].split(",")[2]) == pytest.approx(
            0.5 * mpgamma(3.0) / mpgamma(3.5), rel=1e-8)

    def test_expression_parse_failure_exit_2(self, tmp_path, capsys):
        cfg = write_config(tmp_path, {
            "kind": "I_left", "f": "tau + nope", "alpha": "0.5",
            "a": 0.0, "b": 1.0, "grid": {"count": 0},
        })
        code, _, err = run_cli(capsys, ["op", "--config", cfg])
        assert code == 2
        assert "column" in err

    def test_alpha_bounds_violation_exit_3(self, tmp_path, capsys):
        cfg = write_config(tmp_path, {
            "kind": "I_left", "f": "tau", "alpha": "1.5",
            "a": 0.0, "b": 1.0, "grid": {"count": 1, "start": 1, "stop": 1},
        })
        code, _, err = run_cli(capsys, ["op", "--config", cfg])
        assert code == 3

    def test_nonfinite_integrand_exit_3(self, tmp_path, capsys):
        # ln(tau - 0.5) is NaN on [0, 0.5), inside the range [0, 0.8]
        cfg = write_config(tmp_path, {
            "kind": "I_left", "f": "ln(tau - 0.5)", "alpha": "0.5",
            "a": 0.0, "b": 1.0, "grid": {"count": 1, "start": 0.8, "stop": 0.8},
        })
        with np.errstate(invalid="ignore"):
            code, out, err = run_cli(capsys, ["op", "--config", cfg])
        assert code == 3
        assert out == ""
        assert "not finite" in err

    def test_round_trip_formatting(self, tmp_path, capsys):
        cfg = write_config(tmp_path, {
            "kind": "I_left", "f": "tau^3", "alpha": "0.3+0.2*tau",
            "a": 0.0, "b": 1.0, "grid": {"start": 0.1, "stop": 0.9, "count": 5},
        })
        code, out, _ = run_cli(capsys, ["op", "--config", cfg])
        assert code == 0
        for row in out.strip().split("\n")[1:]:
            for field in row.split(","):
                x = float(field)
                assert format(x, ".17g") == field


class TestVerifyCommand:
    def test_ibp_zero_functions(self, tmp_path, capsys):
        cfg = write_config(tmp_path, {
            "identity": "ibp", "f": "0", "g": "0", "eta1": "0", "eta2": "0",
            "alpha1": "0.5", "alpha2": "0.5", "l1": 3, "l2": 3,
            "rect": {"a1": 0, "b1": 1, "a2": 0, "b2": 1},
            "ladder": [[8, 8]], "tolerance": 1e-9,
        })
        code, out, _ = run_cli(capsys, ["verify", "--config", cfg])
        assert code == 0
        lines = out.strip().split("\n")
        assert lines[0] == "level,outer_grid,panels,lhs,rhs,residual"
        assert float(lines[1].split(",")[5]) == 0.0

    def test_green_polynomials_within_tolerance(self, tmp_path, capsys):
        cfg = write_config(tmp_path, {
            "identity": "green",
            "f": "t1+t2", "g": "1-t1*t2",
            "eta": "t1*(1-t1)*t2*(1-t2)",
            "alpha1": "0.4", "alpha2": "0.4", "l1": 3, "l2": 3,
            "rect": {"a1": 0, "b1": 1, "a2": 0, "b2": 1},
            "ladder": [[10, 12]], "tolerance": 1e-4,
        })
        code, out, _ = run_cli(capsys, ["verify", "--config", cfg])
        assert code == 0

    def test_violated_bounds_exit_3(self, tmp_path, capsys):
        # alpha = 0.9 under the green regime with l = 2 requires alpha < 0.5
        cfg = write_config(tmp_path, {
            "identity": "green", "f": "1", "g": "1", "eta": "0",
            "alpha1": "0.9", "alpha2": "0.9", "l1": 2, "l2": 2,
            "rect": {"a1": 0, "b1": 1, "a2": 0, "b2": 1},
            "ladder": [[8, 8]],
        })
        code, _, err = run_cli(capsys, ["verify", "--config", cfg])
        assert code == 3
        assert "below_one_minus" in err or "0.5" in err

    def test_unreachable_tolerance_exit_4(self, tmp_path, capsys):
        cfg = write_config(tmp_path, {
            "identity": "ibp",
            "f": "1+t1", "g": "t2", "eta1": "t1*t2", "eta2": "1-t2",
            "alpha1": "0.4+0.1*t", "alpha2": "0.5+0.1*tau", "l1": 3, "l2": 3,
            "rect": {"a1": 0, "b1": 1, "a2": 0, "b2": 1},
            "ladder": [[8, 8]], "tolerance": 1e-30,
        })
        code, out, _ = run_cli(capsys, ["verify", "--config", cfg])
        assert code == 4

    def test_tolerance_flag_overrides_config(self, tmp_path, capsys):
        cfg = write_config(tmp_path, {
            "identity": "ibp", "f": "1", "g": "1", "eta1": "1", "eta2": "1",
            "alpha1": "0.5", "alpha2": "0.5", "l1": 3, "l2": 3,
            "rect": {"a1": 0, "b1": 1, "a2": 0, "b2": 1},
            "ladder": [[10, 10]], "tolerance": 1e-30,
        })
        code, _, _ = run_cli(capsys, ["verify", "--config", cfg, "--tolerance", "1e-3"])
        assert code == 0


class TestSolveCommand:
    def test_quadratic_zero_boundary(self, tmp_path, capsys):
        cfg = write_config(tmp_path, {
            "lagrangian": "quadratic", "psi": 0.0,
            "alpha1": "0.4", "alpha2": "0.4", "l1": 3, "l2": 3,
            "rect": {"a1": 0, "b1": 1, "a2": 0, "b2": 1},
            "n_modes": 2, "outer_grid": 10, "opt_tol": 1e-7,
            "max_iter": 100, "el_grid": 0,
        })
        code, out, _ = run_cli(capsys, ["solve", "--config", cfg])
        assert code == 0
        report = json.loads(out)
        assert list(report.keys()) == ["coeffs", "J_value", "el_residual_l2",
                                       "gradient_norm", "iterations", "nonconvex_flag"]
        assert max(abs(c) for c in report["coeffs"]) <= 1e-8
        assert abs(report["J_value"]) <= 1e-10

    def test_custom_lagrangian_expressions(self, tmp_path, capsys):
        cfg = write_config(tmp_path, {
            "lagrangian": {"L": "d1^2+d2^2+u^2", "dL_du": "2*u",
                           "dL_dd1": "2*d1", "dL_dd2": "2*d2"},
            "psi": 0.0, "alpha1": "0.4", "alpha2": "0.4", "l1": 3, "l2": 3,
            "rect": {"a1": 0, "b1": 1, "a2": 0, "b2": 1},
            "n_modes": 1, "outer_grid": 8, "el_grid": 0,
            "coeffs0": [0.2],
        })
        code, out, _ = run_cli(capsys, ["solve", "--config", cfg])
        assert code == 0
        report = json.loads(out)
        assert abs(report["coeffs"][0]) <= 1e-6

    def test_malformed_lagrangian_exit_2(self, tmp_path, capsys):
        cfg = write_config(tmp_path, {
            "lagrangian": {"L": "d1^2 +)", "dL_du": "0", "dL_dd1": "2*d1",
                           "dL_dd2": "0"},
            "psi": 0.0, "alpha1": "0.4", "alpha2": "0.4",
            "rect": {"a1": 0, "b1": 1, "a2": 0, "b2": 1},
        })
        code, _, err = run_cli(capsys, ["solve", "--config", cfg])
        assert code == 2

    def test_optimizer_stall_exit_5(self, tmp_path, capsys):
        cfg = write_config(tmp_path, {
            "lagrangian": "string", "sigma": "1", "tension": 1.0, "psi": 0.0,
            "alpha1": "0.4", "alpha2": "0.4", "l1": 3, "l2": 3,
            "rect": {"a1": 0, "b1": 1, "a2": 0, "b2": 1},
            "n_modes": 2, "outer_grid": 8, "opt_tol": 1e-14, "max_iter": 1,
            "el_grid": 0, "coeffs0": [0.4, -0.3, 0.2, 0.1],
        })
        code, out, _ = run_cli(capsys, ["solve", "--config", cfg])
        assert code == 5


    def test_nonfinite_corner_exit_3(self, tmp_path, capsys):
        # (t1 - 2)^0.5 is NaN on the whole bottom edge, corners included
        cfg = write_config(tmp_path, {
            "lagrangian": "quadratic",
            "psi": {"bottom": "(t1-2)^0.5", "right": "1", "top": "1", "left": "1"},
            "alpha1": "0.4", "alpha2": "0.4", "l1": 3, "l2": 3,
            "rect": {"a1": 0, "b1": 1, "a2": 0, "b2": 1},
            "n_modes": 1, "outer_grid": 8, "el_grid": 0,
        })
        with np.errstate(invalid="ignore"):
            code, out, err = run_cli(capsys, ["solve", "--config", cfg])
        assert code == 3
        assert out == ""
        assert "not finite at corner" in err


class TestThreadsFlagIgnored:
    @pytest.mark.parametrize("command, config", [
        ("verify", {
            "identity": "ibp",
            "f": "1+t1", "g": "t2", "eta1": "t1*t2", "eta2": "1-t2",
            "alpha1": "0.4+0.1*t", "alpha2": "0.5+0.1*tau", "l1": 3, "l2": 3,
            "rect": {"a1": 0, "b1": 1, "a2": 0, "b2": 1},
            "ladder": [[8, 8], [10, 10]], "tolerance": 1e-30,
        }),
        ("solve", {
            "lagrangian": "quadratic", "psi": 1.0,
            "alpha1": "0.4", "alpha2": "0.3+0.1*t", "l1": 3, "l2": 3,
            "rect": {"a1": 0, "b1": 1, "a2": 0, "b2": 1},
            "n_modes": 2, "outer_grid": 8, "el_grid": 2,
        }),
    ], ids=["verify", "solve"])
    def test_same_output_for_any_threads_value(self, tmp_path, capsys, command, config):
        cfg = write_config(tmp_path, config)
        runs = [run_cli(capsys, [command, "--config", cfg, "--threads", n])
                for n in ("1", "4")]
        assert runs[0][1]  # the command printed its report
        assert runs[0][:2] == runs[1][:2]


class TestCommandResolution:
    def test_missing_command_exit_2(self, capsys):
        code, _, err = run_cli(capsys, [])
        assert code == 2

    def test_command_flag(self, tmp_path, capsys):
        cfg = write_config(tmp_path, {
            "kind": "I_left", "f": "tau", "alpha": "0.5",
            "a": 0.0, "b": 1.0, "grid": {"count": 0},
        })
        code, out, _ = run_cli(capsys, ["--command", "op", "--config", cfg])
        assert code == 0

    def test_command_from_config(self, tmp_path, capsys):
        cfg = write_config(tmp_path, {
            "command": "op", "kind": "I_left", "f": "tau", "alpha": "0.5",
            "a": 0.0, "b": 1.0, "grid": {"count": 0},
        })
        code, _, _ = run_cli(capsys, ["--config", cfg])
        assert code == 0

    def test_bad_json_exit_2(self, tmp_path, capsys):
        path = tmp_path / "broken.json"
        path.write_text("{not json")
        code, _, err = run_cli(capsys, ["op", "--config", str(path)])
        assert code == 2
        assert "line" in err

    def test_missing_key_exit_2(self, tmp_path, capsys):
        cfg = write_config(tmp_path, {"kind": "I_left"})
        code, _, err = run_cli(capsys, ["op", "--config", cfg])
        assert code == 2
        assert "missing" in err


class TestSelftest:
    def test_passes_and_is_deterministic_across_threads(self, capsys):
        code1, out1, _ = run_cli(capsys, ["selftest", "--threads", "1"])
        code8, out8, _ = run_cli(capsys, ["selftest", "--threads", "8"])
        assert code1 == 0 and code8 == 0
        assert out1 == out8
        assert out1.count("PASS") == out1.count("\n") - 1  # every check line passes

    def test_subprocess_entry_point(self):
        # module entry works end to end in a fresh interpreter
        proc = subprocess.run(
            [sys.executable, "-m", "varfrac.cli", "op", "--config", "/dev/null"],
            capture_output=True, text=True)
        assert proc.returncode == 2  # empty config file is a parse error
