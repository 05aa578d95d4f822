import argparse
import io
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import rickerwaves
from rickerwaves import ConfigError, WaveOptions
from rickerwaves.cli import _fmt, emit_csv, load_config, main, run, write_csv


BASE_CONFIG = """\
# minimal experiment
model.r1 = 0.5
model.r2 = 0.5
model.a1 = 2
model.a2 = 3
kernel.family = gaussian
kernel.sigma = 1.0
"""


@pytest.fixture
def config_path(tmp_path):
    path = tmp_path / "exp.cfg"
    path.write_text(BASE_CONFIG)
    return path


def parse_csv(text):
    import csv
    import io

    lines = [ln for ln in text.splitlines() if ln and not ln.startswith("#")]
    parsed = list(csv.reader(io.StringIO("\n".join(lines))))
    header = parsed[0]
    rows = [dict(zip(header, row)) for row in parsed[1:]]
    return header, rows


class TestLoadConfig:
    def test_minimal_file_gets_defaults(self, config_path):
        cfg = load_config(config_path)
        assert cfg.params.r1 == 0.5 and cfg.params.a2 == 3.0
        assert cfg.half_length == 200.0 and cfg.dx == 0.1
        assert cfg.wave_opts.max_steps == 2000
        assert cfg.wave_opts == WaveOptions()
        assert cfg.kernel1.sigma == 1.0 and cfg.kernel2.sigma == 1.0

    def test_unknown_key_reports_line_number(self, tmp_path):
        path = tmp_path / "bad.cfg"
        path.write_text(BASE_CONFIG + "mystery.knob = 3\n")
        with pytest.raises(ConfigError, match=r"bad\.cfg:8"):
            load_config(path)

    def test_malformed_value_reports_location(self, tmp_path):
        path = tmp_path / "bad.cfg"
        path.write_text(BASE_CONFIG.replace("kernel.sigma = 1.0", "kernel.sigma = wide"))
        with pytest.raises(ConfigError, match="kernel.sigma"):
            load_config(path)

    def test_missing_required_key(self, tmp_path):
        path = tmp_path / "bad.cfg"
        path.write_text("model.r1 = 0.5\n")
        with pytest.raises(ConfigError, match="missing required"):
            load_config(path)

    def test_flag_overrides_file_value(self, config_path):
        cfg = load_config(config_path, {"grid.dx": "0.05"})
        assert cfg.dx == 0.05
        assert cfg.digest != load_config(config_path).digest

    def test_per_kernel_entries_override_shared(self, tmp_path):
        path = tmp_path / "two.cfg"
        path.write_text(BASE_CONFIG + "kernel2.family = uniform\nkernel2.halfwidth = 0.5\n")
        cfg = load_config(path)
        assert cfg.kernel1.family == "gaussian"
        assert cfg.kernel2.family == "uniform"
        assert cfg.kernel2.halfwidth == 0.5

    def test_table_kernel_from_file(self, tmp_path):
        offsets = np.linspace(-1, 1, 21)
        dens = np.maximum(1 - np.abs(offsets), 0)
        np.savetxt(tmp_path / "kern.txt", np.column_stack([offsets, dens]))
        path = tmp_path / "tbl.cfg"
        path.write_text(
            BASE_CONFIG.replace("kernel.family = gaussian", "kernel.family = table")
            .replace("kernel.sigma = 1.0", "kernel.table_path = kern.txt")
        )
        cfg = load_config(path)
        assert cfg.kernel1.family == "table"

    def test_missing_kernel_parameter_names_kernel_and_key(self, tmp_path):
        path = tmp_path / "nosigma.cfg"
        path.write_text(BASE_CONFIG.replace("kernel.sigma = 1.0\n", ""))
        with pytest.raises(ConfigError, match="kernel1: gaussian kernel needs shape parameter 'sigma'"):
            load_config(path)

    def test_sweep_lists_parse(self, tmp_path):
        path = tmp_path / "sweep.cfg"
        path.write_text(BASE_CONFIG + "sweep.a2 = 2, 3, 4\n")
        cfg = load_config(path)
        assert cfg.sweep["a2"] == [2.0, 3.0, 4.0]


class TestSubcommands:
    def test_validate_passes_on_default_config(self, config_path, capsys):
        code = main(["validate", "--config", str(config_path)])
        out = capsys.readouterr().out
        assert code == 0
        header, rows = parse_csv(out)
        assert all(row["passed"] == "true" for row in rows)
        names = {row["check"] for row in rows}
        assert {"H1-admissible", "A1-translation", "A3-order-preserving",
                "A5-bistability", "A6-counter-propagation"} <= names

    def test_validate_names_violated_clause(self, tmp_path, capsys):
        path = tmp_path / "bad.cfg"
        path.write_text(BASE_CONFIG.replace("model.r1 = 0.5", "model.r1 = 1.5"))
        code = main(["validate", "--config", str(path)])
        out = capsys.readouterr().out
        assert code == 1
        _, rows = parse_csv(out)
        h1 = next(row for row in rows if row["check"] == "H1-admissible")
        assert h1["passed"] == "false"
        assert "r1" in h1["detail"]

    def test_equilibria_table(self, config_path, capsys):
        code = main(["equilibria", "--config", str(config_path)])
        out = capsys.readouterr().out
        assert code == 0
        _, rows = parse_csv(out)
        assert len(rows) == 8
        by_name = {row["point"]: row for row in rows}
        assert float(by_name["E3"]["u"]) == pytest.approx(0.2)
        assert float(by_name["F2"]["u"]) == pytest.approx(0.8)
        assert by_name["F0"]["stability"] == "stable"
        assert by_name["F2"]["stability"] == "unstable"

    def test_speeds_table_and_curves(self, config_path, capsys, tmp_path):
        out_dir = tmp_path / "art"
        code = main(["speeds", "--config", str(config_path), "--curve",
                     "--out", str(out_dir)])
        out = capsys.readouterr().out
        assert code == 0
        _, rows = parse_csv(out)
        by_name = {row["quantity"]: row for row in rows}
        assert float(by_name["c_minus_F1F3"]["value"]) == pytest.approx(1.0, abs=1e-6)
        assert float(by_name["lambda_B0"]["value"]) == pytest.approx(1.2, abs=1e-9)
        assert float(by_name["sum_edge"]["value"]) == pytest.approx(2.0, abs=1e-6)
        curves = sorted(p.name for p in out_dir.glob("curve_*.csv"))
        assert len(curves) == 4
        text = (out_dir / curves[0]).read_text()
        assert text.startswith("# config")
        assert text.splitlines()[1] == "mu,objective"

    def test_speeds_curve_without_out_fails(self, config_path, capsys, tmp_path,
                                            monkeypatch):
        monkeypatch.chdir(tmp_path)
        code = main(["speeds", "--config", str(config_path), "--curve"])
        captured = capsys.readouterr()
        assert code == 2
        assert "error: speeds --curve needs --out DIR" in captured.err
        assert captured.out == ""
        assert sorted(tmp_path.iterdir()) == [config_path]

    def test_simulate_writes_snapshots(self, config_path, capsys, tmp_path):
        out_dir = tmp_path / "snaps"
        code = main(["simulate", "--config", str(config_path), "--steps", "6",
                     "--set", "grid.L=20", "--set", "sim.thin=3",
                     "--out", str(out_dir)])
        assert code == 0
        files = sorted(p.name for p in out_dir.glob("sim_step_*.csv"))
        assert files == ["sim_step_00000.csv", "sim_step_00003.csv", "sim_step_00006.csv"]
        lines = (out_dir / files[0]).read_text().splitlines()
        assert lines[0].startswith("# config")
        assert lines[1] == "x,U,V"
        assert len(lines) == 2 + 401

    def test_simulate_without_out_writes_nothing(self, config_path, capsys, tmp_path,
                                                 monkeypatch):
        monkeypatch.chdir(tmp_path)
        before = sorted(tmp_path.iterdir())
        code = main(["simulate", "--config", str(config_path), "--steps", "2",
                     "--set", "grid.L=20"])
        assert code == 2
        assert "error: simulate needs --out DIR" in capsys.readouterr().err
        assert sorted(tmp_path.iterdir()) == before

    @pytest.mark.parametrize("init", ["step", "bump"])
    @pytest.mark.parametrize("frame", ["Original", "orignal"])
    def test_simulate_rejects_unknown_frame(self, config_path, capsys, tmp_path, init, frame):
        out_dir = tmp_path / "snaps"
        code = main(["simulate", "--config", str(config_path), "--steps", "2",
                     "--set", "grid.L=20", "--init", init, "--set", f"sim.frame={frame}",
                     "--out", str(out_dir)])
        captured = capsys.readouterr()
        assert code == 2
        assert f"unknown sim.frame {frame!r}" in captured.err
        assert "transformed" in captured.err and "original" in captured.err
        assert captured.out == ""
        assert not out_dir.exists()

    def test_wave_profile_and_report(self, config_path, capsys, tmp_path):
        out_dir = tmp_path / "wave"
        code = main(["wave", "--config", str(config_path), "--set", "grid.L=60",
                     "--out", str(out_dir)])
        out = capsys.readouterr().out
        assert code == 0
        _, rows = parse_csv(out)
        row = rows[0]
        assert row["monotone"] == "true" and row["residual_ok"] == "true"
        assert float(row["residual"]) < 1e-4
        profile = (out_dir / "wave_profile.csv").read_text().splitlines()
        assert profile[1] == "x,phi,psi"
        first = profile[2].split(",")
        last = profile[-1].split(",")
        assert float(first[1]) < 1e-3 and float(last[1]) > 1 - 1e-3

    def test_wave_original_frame_output(self, config_path, tmp_path, capsys):
        out_dir = tmp_path / "wave2"
        code = main(["wave", "--config", str(config_path), "--set", "grid.L=60",
                     "--frame", "original", "--out", str(out_dir)])
        assert code == 0
        capsys.readouterr()
        profile = (out_dir / "wave_profile.csv").read_text().splitlines()
        first = profile[2].split(",")
        last = profile[-1].split(",")
        # exclusion wave: (1, 0) on the left, (0, 1) on the right
        assert float(first[1]) > 1 - 1e-3 and float(first[2]) < 1e-3
        assert float(last[1]) < 1e-3 and float(last[2]) > 1 - 1e-3

    def test_wave_without_L_solves_on_the_sized_grid(self, config_path, capsys, tmp_path):
        sized_dir, full_dir = tmp_path / "sized", tmp_path / "full"
        assert main(["wave", "--config", str(config_path), "--out", str(sized_dir)]) == 0
        _, sized = parse_csv(capsys.readouterr().out)
        assert main(["wave", "--config", str(config_path), "--L", "200",
                     "--out", str(full_dir)]) == 0
        _, full = parse_csv(capsys.readouterr().out)
        assert abs(float(sized[0]["speed"]) - float(full[0]["speed"])) <= 1e-9

        cfg = load_config(config_path)
        grid = rickerwaves.wave_grid(cfg.params, cfg.kernel1, cfg.kernel2, cfg.dx,
                                     cfg.wave_opts)
        assert grid.half_length < 200.0
        rows = (sized_dir / "wave_profile.csv").read_text().splitlines()[2:]
        assert len(rows) == grid.n_points
        assert float(rows[0].split(",")[0]) == pytest.approx(grid.x[0], abs=1e-12)
        assert len((full_dir / "wave_profile.csv").read_text().splitlines()) == 2 + 4001

    def test_wave_sized_grid_follows_dx_and_simulate_keeps_200(self, config_path, tmp_path):
        cfg = load_config(config_path, {"grid.dx": "0.2"})
        args = argparse.Namespace(out=str(tmp_path), seed=0, curve=False, frame="transformed")
        assert run("wave", cfg, io.StringIO(), args).passed
        grid = rickerwaves.wave_grid(cfg.params, cfg.kernel1, cfg.kernel2, 0.2, cfg.wave_opts)
        rows = (tmp_path / "wave_profile.csv").read_text().splitlines()[2:]
        assert len(rows) == grid.n_points
        assert float(rows[1].split(",")[0]) - float(rows[0].split(",")[0]) == pytest.approx(0.2)
        # simulate's grid keeps the default half length
        assert cfg.grid() == rickerwaves.Grid(half_length=200.0, dx=0.2)

    def test_wave_on_a_grid_too_coarse_for_the_kernel_fails(self, config_path, capsys):
        # sigma = 1 at dx = 5: the front "converges" at 2.6 times the speed
        assert main(["wave", "--config", str(config_path), "--dx", "5"]) == 1
        _, rows = parse_csv(capsys.readouterr().out)
        assert float(rows[0]["speed"]) > 0.3
        report = run("wave", load_config(config_path, {"grid.dx": "5"}), io.StringIO())
        failed = [check for check in report.checks if not check.ok]
        assert [check.name for check in failed] == ["wave-kernel-resolved"]
        assert "tolerance 0.05" in failed[0].detail

    def test_wave_resolved_kernels_pass_the_mgf_check(self, config_path, tmp_path):
        path = tmp_path / "uniform.cfg"
        path.write_text(BASE_CONFIG + "kernel2.family = uniform\nkernel2.halfwidth = 2.0\n")
        for cfg in (load_config(config_path), load_config(path)):
            checks = {c.name: c for c in run("wave", cfg, io.StringIO()).checks}
            assert checks["wave-kernel-resolved"].ok, checks["wave-kernel-resolved"].detail

    def test_wave_converged_detail_carries_the_error_estimate(self, config_path):
        cfg = load_config(config_path)
        out = io.StringIO()
        checks = {c.name: c for c in run("wave", cfg, out).checks}
        header, rows = parse_csv(out.getvalue())
        assert header == ["speed", "residual", "steps", "monotone", "range", "left_tail",
                          "right_tail", "residual_ok"]
        wp = rickerwaves.find_bistable_wave(cfg.params, cfg.kernel1, cfg.kernel2,
                                            opts=cfg.wave_opts)
        assert rows[0]["steps"] == str(wp.steps)
        detail = checks["wave-converged"].detail
        assert f"speed_error {_fmt(wp.speed_error)}" in detail
        assert f"contraction_rate {_fmt(wp.contraction_rate)}" in detail

    def test_sweep_rows_all_positive(self, tmp_path, capsys):
        path = tmp_path / "sweep.cfg"
        path.write_text(BASE_CONFIG + "sweep.a2 = 2, 3, 4\n")
        code = main(["sweep", "--config", str(path)])
        out = capsys.readouterr().out
        assert code == 0
        _, rows = parse_csv(out)
        assert len(rows) == 3
        assert [row["a2"] for row in rows] == ["2", "3", "4"]
        assert all(float(row["sum_edge"]) > 0 for row in rows)
        assert all(float(row["sum_interior"]) > 0 for row in rows)
        assert all(row["passed"] == "true" for row in rows)

    def test_sweep_without_lattice_fails(self, config_path, capsys):
        code = main(["sweep", "--config", str(config_path)])
        assert code == 2
        assert "sweep" in capsys.readouterr().err

    def test_missing_config_file(self, tmp_path, capsys):
        code = main(["validate", "--config", str(tmp_path / "nope.cfg")])
        assert code == 2
        assert "error:" in capsys.readouterr().err


class TestCsv:
    def test_artifact_matches_emit_csv(self, tmp_path, rng):
        # more rows than one formatting block, and values whose .12g forms
        # are signed zero, a three-digit negative exponent and a large exponent
        n = 4096 + 37
        columns = [np.linspace(-3.0, 3.0, n), rng.uniform(-1.0, 1.0, n),
                   rng.standard_normal(n) * 10.0 ** rng.integers(-20, 20, n)]
        columns[1][:4] = [-0.0, 1e-300, 1.2345678901234567e20, 0.0]
        columns[2][4096] = -0.0
        path = write_csv(tmp_path / "sub" / "table.csv", "abc123", ("x", "U", "V"), columns)
        expected = io.StringIO()
        emit_csv(expected, "abc123", ("x", "U", "V"), zip(*columns))
        text = Path(path).read_text()
        assert text == expected.getvalue()
        assert [line.split(",")[1] for line in text.splitlines()[2:6]] == [
            "-0", "1e-300", "1.23456789012e+20", "0"]


class TestDeterminism:
    def test_identical_runs_are_byte_identical(self, config_path, capsys):
        main(["speeds", "--config", str(config_path)])
        first = capsys.readouterr().out
        main(["speeds", "--config", str(config_path)])
        second = capsys.readouterr().out
        assert first == second

    def test_validate_deterministic_with_seed(self, config_path, capsys):
        main(["validate", "--config", str(config_path), "--seed", "7"])
        first = capsys.readouterr().out
        main(["validate", "--config", str(config_path), "--seed", "7"])
        second = capsys.readouterr().out
        assert first == second


class TestImport:
    def test_cli_import_loads_no_scipy(self):
        code = ("import sys, rickerwaves.cli; "
                "print([m for m in sys.modules if m == 'scipy' or m.startswith('scipy.')])")
        src = str(Path(rickerwaves.__file__).parents[1])
        env = {**os.environ, "PYTHONPATH": os.pathsep.join(
            filter(None, [src, os.environ.get("PYTHONPATH")]))}
        result = subprocess.run([sys.executable, "-c", code], capture_output=True,
                                text=True, check=True, env=env)
        assert result.stdout.strip() == "[]"


class TestRunApi:
    def test_unknown_subcommand_rejected(self, config_path):
        cfg = load_config(config_path)
        with pytest.raises(ConfigError):
            run("explode", cfg)

    def test_run_defaults_write_to_stdout(self, config_path, capsys):
        cfg = load_config(config_path)
        report = run("equilibria", cfg)
        assert report.passed
        assert "point,frame" in capsys.readouterr().out
