import json
import math
import subprocess
import sys

import pytest

from varfrac import identities
from varfrac.cli import _parser, main

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

    @pytest.mark.parametrize("field", [{"quad": {"panels": 8.5}}, {"l": "3"},
                                       {"grid": {"count": 2.5}}, {"axis": 1.5}])
    def test_op_non_integer_field_exit_2(self, tmp_path, capsys, field):
        cfg = {"kind": "I_left", "f": "tau", "alpha": "0.5", "a": 0.0, "b": 1.0,
               "grid": [0.5]}
        if "axis" in field:
            cfg = {"kind": "I_left", "f": "t1*t2", "alpha": "0.5", "points": [[0.5, 0.5]],
                   "rect": {"a1": 0, "b1": 1, "a2": 0, "b2": 1}}
        cfg.update(field)
        code, out, err = run_cli(capsys, ["op", "--config", write_config(tmp_path, cfg)])
        assert (code, out) == (2, "")
        assert "must be an integer, got" in err

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

    @pytest.mark.parametrize("kind", ["I_left", "D_rl_right", "D_cap_left"])
    def test_partial_points_repeating_t1_match_one_point_configs(self, tmp_path, capsys, kind):
        # every point builds its own rule row, repeated t1 or not
        base = {"kind": kind, "axis": 1, "f": "t1*t2^2+sin(t1*t2)", "alpha": "0.3+0.1*t*tau",
                "rect": {"a1": 0, "b1": 1, "a2": 0, "b2": 1}}
        points = [[0.4, 0.2], [0.7, 0.5], [0.4, 0.9], [0.4, 0.2]]
        code, out, _ = run_cli(capsys, ["op", "--config",
                                        write_config(tmp_path, {**base, "points": points})])
        assert code == 0
        lines = out.strip().split("\n")
        assert len(lines) == 1 + len(points) and lines[1] == lines[4]
        for k, point in enumerate(points):
            one = write_config(tmp_path, {**base, "points": [point]}, name=f"one{k}.json")
            code, out, _ = run_cli(capsys, ["op", "--config", one])
            assert code == 0 and out.strip().split("\n")[1] == lines[1 + k]

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
        code, out, err = run_cli(capsys, ["op", "--config", cfg])
        assert code == 3
        assert out == ""
        assert "not finite" in err

    def test_nonfinite_integrand_stderr_is_one_line(self, tmp_path):
        # no numpy warning, which would name the install path, precedes the error
        cfg = write_config(tmp_path, {
            "kind": "I_left", "f": "ln(tau - 0.5)", "alpha": "0.5",
            "a": 0.0, "b": 1.0, "grid": {"count": 1, "start": 0.8, "stop": 0.8},
        })
        proc = subprocess.run([sys.executable, "-m", "varfrac.cli", "op", "--config", cfg],
                              capture_output=True, text=True)
        assert proc.returncode == 3
        assert proc.stdout == ""
        lines = proc.stderr.splitlines()
        assert len(lines) == 1
        assert lines[0].startswith("validity error: ") and "not finite" in lines[0]

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

    def test_green_probe_runs_at_the_first_rung_only(self, tmp_path, capsys, monkeypatch):
        # the README's verify config as a Green identity: its 3 rungs probe the
        # right co-integrals of g and of f once, and each row is the one a
        # one-rung ladder, whose probe runs at that rung, prints
        config = {"identity": "green", "f": "1+t1*t2", "g": "t1-t2^2", "eta": "t2+t1^2",
                  "alpha1": "0.4+0.1*t", "alpha2": "0.5+0.1*tau", "l1": 3, "l2": 3,
                  "rect": {"a1": 0, "b1": 1, "a2": 0, "b2": 1},
                  "ladder": [[16, 16], [24, 24], [32, 32]], "tolerance": 1e-5}
        probe, calls = identities._probe_c1, []
        monkeypatch.setattr(identities, "_probe_c1", lambda *a: calls.append(a) or probe(*a))
        _, out, _ = run_cli(capsys, ["verify", "--config", write_config(tmp_path, config)])
        assert len(calls) == 2
        rows = []
        for rung in config["ladder"]:
            cfg = write_config(tmp_path, dict(config, ladder=[rung]))
            rows.append(run_cli(capsys, ["verify", "--config", cfg])[1].split("\n")[1])
        assert out.split("\n")[1:4] == [f"{level}{row[1:]}" for level, row in enumerate(rows)]
        assert len(calls) == 2 + 2 * 3

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

    def test_empty_ladder_exit_2(self, tmp_path, capsys):
        # exit 4 would claim a residual above tolerance that was never computed
        cfg = write_config(tmp_path, {
            "identity": "ibp", "f": "1", "g": "1", "eta1": "1", "eta2": "1",
            "alpha1": "0.5", "alpha2": "0.5", "l1": 3, "l2": 3,
            "rect": {"a1": 0, "b1": 1, "a2": 0, "b2": 1},
            "ladder": [],
        })
        code, out, err = run_cli(capsys, ["verify", "--config", cfg])
        assert code == 2
        assert out == ""
        assert err.startswith("parse error: ladder has no rungs")

    @pytest.mark.parametrize("ladder", [[[8]], [[8, 8, 8]], [8, 8], [[8, 8.5]], [["8", 8]]])
    def test_malformed_rung_exit_2_before_output(self, tmp_path, capsys, ladder):
        cfg = write_config(tmp_path, {
            "identity": "ibp", "f": "1", "g": "1", "eta1": "1", "eta2": "1",
            "alpha1": "0.5", "alpha2": "0.5", "l1": 3, "l2": 3,
            "rect": {"a1": 0, "b1": 1, "a2": 0, "b2": 1},
            "ladder": [[8, 8]] + ladder,
        })
        code, out, err = run_cli(capsys, ["verify", "--config", cfg])
        assert code == 2
        assert out == ""
        assert err.startswith("parse error: ladder")

    def test_integral_float_rung_accepted(self, tmp_path, capsys):
        cfg = {
            "identity": "ibp", "f": "1", "g": "1", "eta1": "1", "eta2": "1",
            "alpha1": "0.5", "alpha2": "0.5", "l1": 3, "l2": 3.0,
            "rect": {"a1": 0, "b1": 1, "a2": 0, "b2": 1},
            "ladder": [[8, 8]],
        }
        code, out, _ = run_cli(capsys, ["verify", "--config", write_config(tmp_path, cfg)])
        cfg.update(ladder=[[8.0, 8.0]], l2=3)
        assert run_cli(capsys, ["verify", "--config", write_config(tmp_path, cfg)]) == \
            (code, out, "")

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

    def test_custom_lagrangian_checked_on_the_config_rect(self, tmp_path, capsys):
        # ln(t1 - 1.5) is finite on [2, 3] x [0, 1] but not on the unit square
        cfg = write_config(tmp_path, {
            "lagrangian": {"L": "d1^2 + d2^2 + u^2*ln(t1 - 1.5)",
                           "dL_du": "2*u*ln(t1 - 1.5)", "dL_dd1": "2*d1", "dL_dd2": "2*d2"},
            "psi": 0.0, "alpha1": "0.4", "alpha2": "0.4", "l1": 3, "l2": 3,
            "rect": {"a1": 2, "b1": 3, "a2": 0, "b2": 1},
            "n_modes": 1, "outer_grid": 8, "el_grid": 0,
        })
        code, out, err = run_cli(capsys, ["solve", "--config", cfg])
        assert (code, err) == (0, "")
        assert abs(json.loads(out)["coeffs"][0]) <= 1e-6

    @pytest.mark.parametrize("command, key, value, message", [
        ("solve", "el_grid", 2.5, "el_grid must be an integer, got 2.5"),
        ("verify", "identity", "stokes", "unknown identity 'stokes'; expected 'ibp' or 'green'"),
        ("solve", "lagrangian", "cubic", "unknown lagrangian preset 'cubic'"),
    ])
    def test_config_value_error_has_no_position(self, tmp_path, capsys, command, key, value,
                                                message):
        # a config value is not an expression: no line or column to name
        cfg = write_config(tmp_path, {
            "lagrangian": "quadratic", "psi": 0.0, "alpha1": "0.4", "alpha2": "0.4",
            "rect": {"a1": 0, "b1": 1, "a2": 0, "b2": 1},
            "n_modes": 1, "outer_grid": 8, "el_grid": 0, key: value,
        })
        assert run_cli(capsys, [command, "--config", cfg]) == (2, "", f"parse error: {message}\n")

    @pytest.mark.parametrize("key, value", [("el_grid", 2.5), ("n_modes", 2.7),
                                            ("n_modes", "four"), ("outer_grid", True),
                                            ("max_iter", None)])
    def test_non_integer_field_exit_2(self, tmp_path, capsys, key, value):
        cfg = write_config(tmp_path, {
            "lagrangian": "quadratic", "psi": 0.0, "alpha1": "0.4", "alpha2": "0.4",
            "rect": {"a1": 0, "b1": 1, "a2": 0, "b2": 1},
            "n_modes": 1, "outer_grid": 8, "el_grid": 0, key: value,
        })
        code, out, err = run_cli(capsys, ["solve", "--config", cfg])
        assert code == 2
        assert out == ""
        assert err.startswith(f"parse error: {key} must be an integer, got {value!r}")

    def test_integral_float_fields_accepted(self, tmp_path, capsys):
        cfg = {"lagrangian": "quadratic", "psi": 0.0, "alpha1": "0.4", "alpha2": "0.4",
               "rect": {"a1": 0, "b1": 1, "a2": 0, "b2": 1},
               "n_modes": 1, "outer_grid": 8, "el_grid": 2}
        code, out, _ = run_cli(capsys, ["solve", "--config", write_config(tmp_path, cfg)])
        cfg.update(n_modes=1.0, outer_grid=8.0, el_grid=2.0)
        assert run_cli(capsys, ["solve", "--config", write_config(tmp_path, cfg)]) == \
            (code, out, "")

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


    @pytest.mark.parametrize("el_grid", [-2, -1])
    def test_negative_el_grid_exit_3(self, tmp_path, capsys, el_grid):
        cfg = write_config(tmp_path, {
            "lagrangian": "quadratic", "psi": 0.0,
            "alpha1": "0.4", "alpha2": "0.4", "l1": 3, "l2": 3,
            "rect": {"a1": 0, "b1": 1, "a2": 0, "b2": 1},
            "n_modes": 1, "outer_grid": 8, "el_grid": el_grid,
        })
        code, out, err = run_cli(capsys, ["solve", "--config", cfg])
        assert code == 3
        assert out == ""
        assert f"el_grid must be a non-negative integer, got {el_grid}" in err

    def test_nonfinite_corner_exit_3(self, tmp_path, capsys):
        # (t1 - 2)^0.5 is NaN on the whole bottom edge, corners included
        cfg = write_config(tmp_path, {
            "lagrangian": "quadratic",
            "psi": {"bottom": "(t1-2)^0.5", "right": "1", "top": "1", "left": "1"},
            "alpha1": "0.4", "alpha2": "0.4", "l1": 3, "l2": 3,
            "rect": {"a1": 0, "b1": 1, "a2": 0, "b2": 1},
            "n_modes": 1, "outer_grid": 8, "el_grid": 0,
        })
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

    @pytest.mark.parametrize("argv, code", [(["--help"], 0), (["bogus"], 2),
                                            (["op", "--threads", "x"], 2)])
    def test_parser_built_once_prints_the_same_bytes(self, capsys, argv, code):
        runs = []
        for _ in range(2):
            with pytest.raises(SystemExit) as exc:
                main(argv)
            runs.append((exc.value.code, *capsys.readouterr()))
        assert runs[0] == runs[1]
        assert runs[0][0] == code
        assert runs[0][1 if code == 0 else 2].startswith("usage: varfrac ")
        assert _parser() is _parser()
        assert _parser.__wrapped__().format_help() == _parser().format_help()

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


_OP = {"kind": "I_left", "f": "tau", "alpha": "0.5", "a": 0.0, "b": 1.0, "grid": [0.5]}
_PARTIAL = {"kind": "I_left", "axis": 1, "f": "t1*t2", "alpha": "0.5", "points": [[0.5, 0.5]],
            "rect": {"a1": 0, "b1": 1, "a2": 0, "b2": 1}}
_SOLVE = {"lagrangian": "string", "psi": 0.0, "alpha1": "0.4", "alpha2": "0.4",
          "rect": {"a1": 0, "b1": 1, "a2": 0, "b2": 1}, "n_modes": 1, "outer_grid": 8,
          "el_grid": 0}
_VERIFY = {"identity": "ibp", "f": "0", "g": "0", "eta1": "0", "eta2": "0",
           "alpha1": "0.4", "alpha2": "0.4", "l1": 3, "l2": 3,
           "rect": {"a1": 0, "b1": 1, "a2": 0, "b2": 1}, "ladder": [[8, 8]]}


class TestMalformedConfigValue:
    @pytest.mark.parametrize("command, config, key", [
        ("op", dict(_OP, kind="I_sideways"), "kind"),
        ("op", dict(_OP, a="zero"), "a"),
        ("op", dict(_OP, grid=5), "grid"),
        ("op", dict(_PARTIAL, points=[["x", 0.5]]), "points"),
        ("op", dict(_PARTIAL, points=[[0.3, 0.6, 0.5]]), "points"),
        # two one-coordinate lists are not the one point (0.3, 0.6)
        ("op", dict(_PARTIAL, points=[[0.3], [0.6]]), "points"),
        ("solve", dict(_SOLVE, bound_mode="sideways"), "bound_mode"),
        ("solve", dict(_SOLVE, tension="taut"), "tension"),
        ("solve", dict(_SOLVE, psi="1"), "psi"),
        ("verify", dict(_VERIFY, tolerance="tight"), "tolerance"),
        ("verify", dict(_VERIFY, rect=[0, 1, 0, 1]), "rect"),
        ("verify", dict(_VERIFY, identity=["ibp"]), "unknown"),
        ("verify", dict(_VERIFY, identity={"ibp": 1}), "unknown"),
        ("verify", [1, 2], "config"),
        # a non-finite number is malformed too, not a value to compute with
        ("verify", dict(_VERIFY, tolerance=math.nan), "tolerance"),
        ("solve", dict(_SOLVE, opt_tol=math.nan), "opt_tol"),
        ("op", dict(_OP, kind="D_rl_left", h=math.nan), "h"),
        ("solve", dict(_SOLVE, coeffs0=[math.inf]), "coeffs0"),
        ("solve", dict(_SOLVE, psi=math.nan), "psi"),
        ("op", dict(_PARTIAL, points=[[0.3, -math.inf]]), "points"),
        # a key outside the table of the command, of its shape or of its object
        ("solve", dict(_SOLVE, outer_gird=40, el_grdi=0), "outer_gird"),
        ("verify", dict(_VERIFY, ladders=[[4, 4]], tolerence=1e-30), "ladders"),
        ("op", dict(_OP, grid={"cout": 3}), "cout"),
        ("op", dict(_OP, points=[[0.5, 0.5]]), "points"),
        ("op", dict(_OP, quad={"panel": 2}), "panel"),
        ("op", dict(_OP, alpha={"expr": "0.4", "bound_mod": "above_one_over_l"}), "bound_mod"),
        ("solve", dict(_SOLVE, lagrangian="quadratic", sigma="1+t2", tenson=3), "sigma"),
        ("solve", dict(_SOLVE, tenson=3), "tenson"),
        ("verify", dict(_VERIFY, rect={"a1": 0, "b1": 1, "a2": 0, "b3": 1}), "b3"),
        ("solve", dict(_SOLVE, psi={"bottom": "0", "rigth": "0", "top": "0", "left": "0"}),
         "rigth"),
        ("solve", dict(_SOLVE, lagrangian={"L": "u^2", "dL_du": "2*u", "dL_dd1": "0",
                                           "dL_d2": "0"}), "dL_d2"),
        ("verify", dict(_VERIFY, eta="0"), "eta"),
        ("op", dict(_PARTIAL, grid=[0.5]), "grid"),
        # an expression key takes a string or a finite number, nothing else
        ("op", dict(_OP, alpha=[0.4]), "alpha"),
        ("op", dict(_OP, f=True), "f"),
        ("op", dict(_PARTIAL, f_d1={"expr": "t2"}), "f_d1"),
        ("solve", dict(_SOLVE, sigma=math.inf), "sigma"),
        ("solve", dict(_SOLVE, psi={"bottom": None, "right": "0", "top": "0", "left": "0"}),
         "bottom"),
    ])
    def test_exit_2_with_one_line_naming_the_key(self, tmp_path, capsys, command, config, key):
        cfg = write_config(tmp_path, config)
        code, out, err = run_cli(capsys, [command, "--config", cfg])
        assert (code, out) == (2, "")
        assert err.startswith(f"parse error: {key} ") and err.count("\n") == 1

    @pytest.mark.parametrize("command, config", [("verify", _VERIFY), ("solve", _SOLVE)])
    def test_a_nan_tolerance_flag_is_a_parse_error(self, tmp_path, capsys, command, config):
        cfg = write_config(tmp_path, config)
        code, out, err = run_cli(capsys, [command, "--config", cfg, "--tolerance", "nan"])
        assert (code, out) == (2, "")
        assert err == "parse error: --tolerance must be a finite number, got nan\n"


class TestExpressionKeys:
    @pytest.mark.parametrize("command, config, numbers", [
        ("op", _OP, {"f": 1, "alpha": 0.4}),
        ("op", dict(_PARTIAL, kind="D_cap_left"), {"f": 2, "f_d1": 0, "f_d2": 0}),
        ("verify", _VERIFY, {"eta1": 0, "g_d2": 0}),
        ("solve", dict(_SOLVE, psi={"bottom": "1", "right": "1", "top": "1", "left": "1"}),
         {"psi": {"bottom": 1, "right": 1, "top": 1.0, "left": 1}, "sigma": 2}),
        ("solve", dict(_SOLVE, lagrangian={"L": "d1^2+d2^2", "dL_du": "0", "dL_dd1": "2*d1",
                                           "dL_dd2": "2*d2"}),
         {"lagrangian": {"L": "d1^2+d2^2", "dL_du": 0, "dL_dd1": "2*d1", "dL_dd2": "2*d2"}}),
    ])
    def test_a_number_prints_the_bytes_of_its_string(self, tmp_path, capsys, command, config,
                                                     numbers):
        # "f": 1 reads as "f": "1"; psi edges and Lagrangian parts too
        def as_strings(value):
            return ({k: as_strings(v) for k, v in value.items()} if isinstance(value, dict)
                    else str(value))

        strings = write_config(tmp_path, {**config, **as_strings(numbers)})
        expected = run_cli(capsys, [command, "--config", strings])
        cfg = write_config(tmp_path, {**config, **numbers}, name="numbers.json")
        assert expected[0] == 0 and run_cli(capsys, [command, "--config", cfg]) == expected


_UNIT = {"a1": 0, "b1": 1, "a2": 0, "b2": 1}
_QUAD_DEFAULTS = {"panels": 24, "nodes_per_panel": 10, "grading": 0.25}


class TestEveryAcceptedKey:
    # each shape's minimal config, and each key it accepts beyond it set to
    # its default; command and threads are accepted and ignored, and a null
    # quad is the default rule
    @pytest.mark.parametrize("command, minimal, defaults", [
        ("op", {"kind": "I_left", "f": "tau^2", "alpha": "0.3+0.1*t", "a": 0.0, "b": 1.0,
                "grid": {"count": 3}},
         {"command": "op", "threads": 2, "quad": _QUAD_DEFAULTS, "l": 2, "bound_mode": "plain",
          "h": None, "f_d": None, "alpha": {"expr": "0.3+0.1*t", "l": 2, "bound_mode": "plain"},
          "grid": {"count": 3, "start": 0.0, "stop": 1.0}}),
        ("op", {"kind": "D_rl_left", "axis": 2, "f": "t1*t2^2", "alpha": "0.4",
                "rect": _UNIT, "points": [[0.5, 0.5], [0.2, 0.9]]},
         {"command": "op", "threads": 1, "quad": None, "l": 2, "bound_mode": "plain",
          "h": None, "f_d1": None, "f_d2": None,
          "alpha": {"expr": "0.4", "l": 2, "bound_mode": "plain"}}),
        ("verify", {"identity": "ibp", "f": "1+t1", "g": "t2", "eta1": "t1*t2", "eta2": "1-t2",
                    "alpha1": "0.6", "alpha2": "0.6+0.1*tau", "rect": _UNIT},
         {"command": "verify", "threads": 1, "quad": _QUAD_DEFAULTS, "l1": 2, "l2": 2,
          "ladder": [[16, 16], [24, 24], [32, 32]], "tolerance": 1e-5,
          "alpha1": {"expr": "0.6", "l": 2, "bound_mode": "above_one_over_l"},
          **{f"{name}_d{i}": None for name in ("f", "g", "eta1", "eta2") for i in (1, 2)}}),
        ("verify", {"identity": "green", "f": "1+t1*t2", "g": "t1-t2^2", "eta": "t2+t1^2",
                    "alpha1": "0.4", "alpha2": "0.3+0.1*t", "rect": _UNIT},
         {"command": "verify", "threads": 1, "quad": _QUAD_DEFAULTS, "l1": 2, "l2": 2,
          "ladder": [[16, 16], [24, 24], [32, 32]], "tolerance": 1e-4,
          "alpha2": {"expr": "0.3+0.1*t", "l": 2, "bound_mode": "below_one_minus"},
          **{f"{name}_d{i}": None for name in ("f", "g", "eta") for i in (1, 2)}}),
        ("solve", {"alpha1": "0.3", "alpha2": "0.3+0.1*tau", "rect": _UNIT,
                   "psi": {"bottom": "1", "right": "1+t2", "top": "2", "left": "1+t2"}},
         {"command": "solve", "threads": 1, "quad": _QUAD_DEFAULTS, "lagrangian": "quadratic",
          "l1": 2, "l2": 2, "bound_mode": "below_one_minus", "opt_tol": 1e-7, "n_modes": 4,
          "outer_grid": 16, "max_iter": 500, "el_grid": 4, "coeffs0": None,
          "alpha1": {"expr": "0.3", "l": 2, "bound_mode": "below_one_minus"}}),
        ("solve", {"lagrangian": "string", "alpha1": "0.3", "alpha2": "0.3", "rect": _UNIT,
                   "psi": 0.5},
         {"command": "solve", "threads": 1, "quad": _QUAD_DEFAULTS, "l1": 2, "l2": 2,
          "bound_mode": "below_one_minus", "opt_tol": 1e-7, "n_modes": 4, "outer_grid": 16,
          "max_iter": 500, "el_grid": 4, "coeffs0": None, "sigma": "1", "tension": 1.0}),
    ], ids=["op", "op-axis", "verify-ibp", "verify-green", "solve", "solve-string"])
    def test_defaults_print_the_bytes_of_the_minimal_config(self, tmp_path, capsys, command,
                                                           minimal, defaults):
        expected = run_cli(capsys, [command, "--config", write_config(tmp_path, minimal)])
        cfg = write_config(tmp_path, {**minimal, **defaults}, name="defaults.json")
        assert expected[1] and run_cli(capsys, [command, "--config", cfg]) == expected


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
