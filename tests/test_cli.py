import argparse
import hashlib
import io
import itertools
import json
import os
import re
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import rickerwaves
from rickerwaves import (
    ConfigError,
    GaussianKernel,
    ModelParams,
    TableKernel,
    UniformKernel,
    WaveOptions,
    evolution,
    find_bistable_wave,
    kernels,
    model,
    speeds,
    waves,
)
from rickerwaves.cli import (
    _KEY_SPEC,
    _REQUIRED,
    _build_parser,
    _fmt,
    _quote,
    emit_csv,
    load_config,
    main,
    run,
    write_csv,
)

README = Path(__file__).resolve().parents[1] / "README.md"


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
        assert cfg["grid.L"] is None and cfg.dx == 0.1
        # every key the file does not set reads its default
        given = {"model.r1": 0.5, "model.r2": 0.5, "model.a1": 2.0, "model.a2": 3.0,
                 "kernel.family": "gaussian", "kernel.sigma": 1.0}
        assert {key: cfg[key] for key in _KEY_SPEC} == {
            key: given.get(key, default) for key, (_, default) in _KEY_SPEC.items()}
        assert cfg.grid() == rickerwaves.Grid(half_length=200.0, dx=0.1)
        assert cfg.wave_opts.max_steps == 2000
        assert cfg.wave_opts == WaveOptions()
        assert cfg.kernel1.sigma == 1.0 and cfg.kernel2.sigma == 1.0

    def test_unknown_key_reports_line_number(self, tmp_path):
        path = tmp_path / "bad.cfg"
        path.write_text(BASE_CONFIG + "mystery.knob = 3\n")
        with pytest.raises(ConfigError, match=r"bad\.cfg:8"):
            load_config(path)

    @pytest.mark.parametrize("line", ["solver.init_width = 2", "kernel.eps_trunc = 1e-9"])
    def test_removed_keys_are_unknown(self, tmp_path, line):
        path = tmp_path / "old.cfg"
        path.write_text(BASE_CONFIG + line + "\n")
        key = line.split(" = ")[0]
        with pytest.raises(ConfigError, match=rf"old\.cfg:8: unknown key '{key}'"):
            load_config(path)

    def test_readme_key_list_is_the_key_spec(self):
        text = README.read_text()
        start = text.index("Config keys beyond the required")
        paragraph = text[start : text.index("(comma separated)", start)]
        listed = [token for token in re.findall(r"`([^`]+)`", paragraph)
                  if re.fullmatch(r"[a-z]+[12]?\.(\w+|\*)", token)]
        shared = [key for key in listed if key.startswith("kernel.")]
        expanded = {"model.*": [f"model.{name}" for name in ModelParams._fields],
                    "kernel1.*": [key.replace("kernel.", "kernel1.") for key in shared],
                    "kernel2.*": [key.replace("kernel.", "kernel2.") for key in shared]}
        documented = set()
        for key in listed:
            documented.update(expanded.get(key, [key]))
        assert set(_REQUIRED) <= documented
        assert documented == set(_KEY_SPEC)
        assert len(_KEY_SPEC) == 31

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

    def test_non_string_override_parses_like_set(self, config_path):
        as_float = load_config(config_path, {"grid.dx": 0.05})
        as_text = load_config(config_path, {"grid.dx": "0.05"})
        assert as_float.dx == as_text.dx == 0.05
        assert as_float.digest == as_text.digest
        # an int for a float key is the float that --set model.a1=2 gives
        as_int = load_config(config_path, {"model.a1": 2})
        assert as_int.digest == load_config(config_path, {"model.a1": "2"}).digest

    def test_non_string_override_is_checked(self, config_path):
        with pytest.raises(ConfigError, match=r"override: bad value for sim\.steps: '2\.5'"):
            load_config(config_path, {"sim.steps": 2.5})

    def test_override_key_and_value_are_stripped_like_set(self, config_path):
        cfg = load_config(config_path, {" model.a1 ": " 2.5 "})
        assert cfg.params.a1 == 2.5
        assert cfg.digest == load_config(config_path, {"model.a1": "2.5"}).digest

    def test_override_family_is_stripped_before_the_table_read(self, tmp_path):
        offsets = np.linspace(-1, 1, 21)
        np.savetxt(tmp_path / "kern.txt",
                   np.column_stack([offsets, np.maximum(1 - np.abs(offsets), 0)]))
        path = tmp_path / "tbl.cfg"
        path.write_text(BASE_CONFIG + "kernel.table_path = kern.txt\n")
        cfg = load_config(path, {"kernel.family": " table "})
        assert isinstance(cfg.kernel1, TableKernel)
        assert cfg.kernel2 is cfg.kernel1

    def test_per_kernel_entries_override_shared(self, tmp_path):
        path = tmp_path / "two.cfg"
        path.write_text(BASE_CONFIG + "kernel2.family = uniform\nkernel2.halfwidth = 0.5\n")
        cfg = load_config(path)
        assert cfg.kernel1 == GaussianKernel(1.0)
        assert cfg.kernel2 == UniformKernel(0.5)

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
        assert isinstance(cfg.kernel1, TableKernel)

    def test_missing_table_file_names_kernel_and_path(self, tmp_path):
        path = tmp_path / "tbl.cfg"
        path.write_text(BASE_CONFIG + "kernel1.family = table\nkernel1.table_path = absent.txt\n")
        with pytest.raises(ConfigError, match=r"kernel1: cannot read table .*absent\.txt") as info:
            load_config(path)
        assert isinstance(info.value.__cause__, FileNotFoundError)

    def test_non_numeric_table_names_kernel_and_path(self, tmp_path):
        (tmp_path / "words.txt").write_text("-1 0\n0 one\n1 0\n")
        path = tmp_path / "tbl.cfg"
        path.write_text(BASE_CONFIG + "kernel2.family = table\nkernel2.table_path = words.txt\n")
        with pytest.raises(ConfigError, match=r"kernel2: cannot read table .*words\.txt") as info:
            load_config(path)
        assert isinstance(info.value.__cause__, ValueError)

    @pytest.mark.parametrize("which", ["kernel1", "kernel2"])
    def test_table_without_a_path_names_the_kernel_key(self, tmp_path, which):
        path = tmp_path / "tbl.cfg"
        path.write_text(BASE_CONFIG + f"{which}.family = table\n")
        with pytest.raises(ConfigError,
                           match=rf"^{which}: table kernel needs {which}\.table_path$"):
            load_config(path)

    def test_missing_kernel_parameter_names_kernel_and_key(self, tmp_path):
        path = tmp_path / "nosigma.cfg"
        path.write_text(BASE_CONFIG.replace("kernel.sigma = 1.0\n", ""))
        with pytest.raises(ConfigError, match="kernel1: gaussian kernel needs shape parameter 'sigma'"):
            load_config(path)

    def test_equal_kernel_entries_share_one_kernel(self, config_path, tmp_path):
        cfg = load_config(config_path)
        assert cfg.kernel2 is cfg.kernel1
        path = tmp_path / "two.cfg"
        path.write_text(BASE_CONFIG + "kernel2.sigma = 2.0\n")
        cfg = load_config(path)
        assert cfg.kernel2 is not cfg.kernel1
        assert (cfg.kernel1.sigma, cfg.kernel2.sigma) == (1.0, 2.0)

    def test_shared_kernel_is_discretized_once_per_solve(self, config_path):
        cfg = load_config(config_path)
        wp = find_bistable_wave(cfg.params, cfg.kernel1, cfg.kernel2)
        assert wp.discrete_kernels[0] is wp.discrete_kernels[1]
        # equal but distinct kernels are one kernel and share one set of weights
        wp = find_bistable_wave(cfg.params, GaussianKernel(1.0), GaussianKernel(1.0))
        assert wp.discrete_kernels[0] is wp.discrete_kernels[1]
        wp = find_bistable_wave(cfg.params, GaussianKernel(1.0), GaussianKernel(1.5))
        assert wp.discrete_kernels[0] is not wp.discrete_kernels[1]

    def test_shared_table_kernel_reads_its_file_once(self, tmp_path, monkeypatch):
        offsets = np.linspace(-1, 1, 21)
        np.savetxt(tmp_path / "kern.txt", np.column_stack([offsets, 1 - np.abs(offsets)]))
        path = tmp_path / "tbl.cfg"
        path.write_text(
            BASE_CONFIG.replace("kernel.family = gaussian", "kernel.family = table")
            .replace("kernel.sigma = 1.0", "kernel.table_path = kern.txt")
        )
        reads = []
        loadtxt = np.loadtxt

        def counted(fname, *args, **kwargs):
            reads.append(fname)
            return loadtxt(fname, *args, **kwargs)

        monkeypatch.setattr(np, "loadtxt", counted)
        cfg = load_config(path)
        assert reads == [tmp_path / "kern.txt"]
        assert cfg.kernel2 is cfg.kernel1

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

    def test_per_species_kernels_run(self, tmp_path, capsys):
        # one kernel per species and no kernel.* keys
        path = tmp_path / "species.cfg"
        path.write_text(BASE_CONFIG.replace("kernel.", "kernel1.")
                        + "kernel2.family = uniform\nkernel2.halfwidth = 2\n"
                        + "sweep.a1 = 1.5, 2.5\n")
        for sub in ("validate", "speeds", "sweep"):
            assert main([sub, "--config", str(path)]) == 0, sub
        assert capsys.readouterr().err == ""

    def test_kernel1_alone_names_kernel2_family(self, tmp_path, capsys):
        path = tmp_path / "one.cfg"
        path.write_text(BASE_CONFIG.replace("kernel.", "kernel1."))
        assert main(["validate", "--config", str(path)]) == 2
        assert capsys.readouterr().err == (
            "error: kernel2: no kernel family: set kernel.family or kernel2.family\n")

    @pytest.mark.parametrize("wide", [["kernel2.sigma=2.0"], ["kernel.sigma=3.0"]],
                             ids=["sigma2-2", "sigma-3"])
    def test_validate_keeps_an_axiom_interior_for_wide_kernels(self, config_path, capsys, wide):
        # a kernel wider than sigma = 1.3 at dx = 0.1 has a margin of more
        # than 100 cells, which left no interior on the L = 10 grid (exit 2)
        assert main(["validate", "--config", str(config_path), "--set", *wide]) == 0
        _, rows = parse_csv(capsys.readouterr().out)
        passed = {row["check"]: row["passed"] for row in rows}
        assert passed["A1-translation"] == passed["A3-order-preserving"] == "true"

    def test_validate_steps_no_state_and_discretizes_no_kernel(self, config_path, capsys,
                                                               monkeypatch):
        # A1 and A3 follow from (H1) and the lattice convolution, so the
        # rows stand without a grid, a discretized kernel or a step of Q
        main(["validate", "--config", str(config_path)])
        _, expected = parse_csv(capsys.readouterr().out)

        def refuse(*args, **kwargs):
            raise AssertionError("validate must not reach this")

        monkeypatch.setattr(evolution, "apply_Q", refuse)
        monkeypatch.setattr(kernels, "discretize", refuse)
        assert main(["validate", "--config", str(config_path)]) == 0
        _, rows = parse_csv(capsys.readouterr().out)
        assert [(row["check"], row["passed"]) for row in rows] == [
            (row["check"], row["passed"]) for row in expected]

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

    def test_validate_h1_row_lists_every_violation(self, tmp_path, capsys):
        path = tmp_path / "bad.cfg"
        path.write_text(BASE_CONFIG.replace("model.r1 = 0.5", "model.r1 = 1.5")
                        .replace("model.a1 = 2", "model.a1 = 0.5")
                        .replace("model.a2 = 3", "model.a2 = nan"))
        assert main(["validate", "--config", str(path)]) == 1
        lines = capsys.readouterr().out.splitlines()
        # the hypothesis rows only: no axiom check runs on inadmissible parameters
        assert lines[1:] == [
            "check,passed,detail",
            'H1-admissible,false,"a2=nan is not finite; r1=1.5 outside (0, 1); '
            'a1=0.5 outside (1, inf)"',
            "H2-finite-mgf-kernel1,true,",
            "H3-symmetric-kernel1,true,",
            "H2-finite-mgf-kernel2,true,",
            "H3-symmetric-kernel2,true,",
        ]

    def test_validate_reports_a_failed_certificate(self, config_path, capsys, monkeypatch):
        # no dyadic level to try: A5 fails with the CertificateError's text in its row
        monkeypatch.setattr(model, "STABILITY_MAX_LEVEL", 0)
        assert main(["validate", "--config", str(config_path)]) == 1
        _, rows = parse_csv(capsys.readouterr().out)
        a5 = next(row for row in rows if row["check"] == "A5-bistability")
        assert a5["passed"] == "false"
        assert a5["detail"].startswith("no dyadic delta down to 2^-0 certifies strong stability")

    def test_validate_does_not_report_an_unrelated_error_as_a_failed_check(
            self, config_path, capsys, monkeypatch):
        def broken(p):
            raise ZeroDivisionError("float division by zero")

        monkeypatch.setattr(model, "strong_stability_vectors", broken)
        assert main(["validate", "--config", str(config_path)]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == "error: float division by zero\n"

    def test_validate_reports_a_degenerate_interior_state(self, config_path, capsys):
        # r2 = 1e-17: lambda(B_0) rounds to 1, so A6 fails with the error's
        # text in its row rather than ending the run with exit code 2
        code = main(["validate", "--config", str(config_path), "--set", "model.r2=1e-17"])
        out = capsys.readouterr().out
        assert code == 1
        _, rows = parse_csv(out)
        a6 = next(row for row in rows if row["check"] == "A6-counter-propagation")
        assert a6["passed"] == "false"
        assert a6["detail"] == "lambda(B_0) = 1.0 is not above 1: no positive interior speed"
        assert main(["speeds", "--config", str(config_path), "--set", "model.r2=1e-17"]) == 2
        assert "lambda(B_0) = 1.0 is not above 1" in capsys.readouterr().err

    def test_validate_reports_an_interior_minimum_below_the_mu_floor(self, config_path, capsys):
        # a2 = 1 + 1e-15 with two kernels: the interior search reaches MU_FLOOR
        # still falling, and A6 fails rather than passing on the floor's value
        near = ["--set", "model.a2=1.000000000000001", "--set", "kernel2.family=uniform",
                "--set", "kernel2.halfwidth=1.0"]
        assert main(["validate", "--config", str(config_path), *near]) == 1
        _, rows = parse_csv(capsys.readouterr().out)
        a6 = next(row for row in rows if row["check"] == "A6-counter-propagation")
        assert a6["passed"] == "false"
        assert a6["detail"].startswith("objective still decreasing at the mu floor 1e-06")

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
        code = main(["simulate", "--config", str(config_path), "--set", "sim.steps=6",
                     "--set", "grid.L=20", "--set", "sim.thin=3",
                     "--out", str(out_dir)])
        assert code == 0
        files = sorted(p.name for p in out_dir.glob("sim_step_*.csv"))
        assert files == ["sim_step_00000.csv", "sim_step_00003.csv", "sim_step_00006.csv"]
        lines = (out_dir / files[0]).read_text().splitlines()
        assert lines[0].startswith("# config")
        assert lines[1] == "x,U,V"
        assert len(lines) == 2 + 401

    @pytest.mark.parametrize("steps,thin,kept", [
        (7, 3, [0, 3, 6, 7]), (0, 3, [0]), (0, 1, [0]), (2, 5, [0, 2]),
    ])
    def test_simulate_keeps_every_thin_step_and_the_last(self, config_path, capsys, tmp_path,
                                                         steps, thin, kept):
        out_dir = tmp_path / "snaps"
        code = main(["simulate", "--config", str(config_path), "--set", "grid.L=20",
                     "--set", f"sim.steps={steps}", "--set", f"sim.thin={thin}",
                     "--out", str(out_dir)])
        assert code == 0
        _, rows = parse_csv(capsys.readouterr().out)
        assert (rows[0]["saved_states"], rows[0]["final_step"]) == (str(len(kept)), str(steps))
        assert sorted(p.name for p in out_dir.iterdir()) == [
            f"sim_step_{n:05d}.csv" for n in kept]

    def test_simulate_writes_each_snapshot_before_the_next_step(self, config_path, capsys,
                                                                tmp_path, monkeypatch):
        # when step n is taken, every kept state before it is on disk
        out_dir = tmp_path / "snaps"
        on_disk = []
        apply_Q = evolution.apply_Q

        def recording(state, *args):
            on_disk.append((state.step + 1, sorted(p.name for p in out_dir.glob("*.csv"))))
            return apply_Q(state, *args)

        monkeypatch.setattr(evolution, "apply_Q", recording)
        assert main(["simulate", "--config", str(config_path), "--set", "grid.L=20",
                     "--set", "sim.steps=7", "--set", "sim.thin=3",
                     "--out", str(out_dir)]) == 0
        capsys.readouterr()
        assert on_disk == [(n, [f"sim_step_{k:05d}.csv" for k in (0, 3, 6) if k < n])
                           for n in range(1, 8)]

    def test_simulate_without_out_writes_nothing(self, config_path, capsys, tmp_path,
                                                 monkeypatch):
        monkeypatch.chdir(tmp_path)
        before = sorted(tmp_path.iterdir())
        code = main(["simulate", "--config", str(config_path), "--set", "sim.steps=2",
                     "--set", "grid.L=20"])
        assert code == 2
        assert "error: simulate needs --out DIR" in capsys.readouterr().err
        assert sorted(tmp_path.iterdir()) == before

    @pytest.mark.parametrize("init", ["step", "bump"])
    @pytest.mark.parametrize("frame", ["Original", "orignal"])
    def test_simulate_rejects_unknown_frame(self, config_path, capsys, tmp_path, init, frame):
        out_dir = tmp_path / "snaps"
        code = main(["simulate", "--config", str(config_path), "--set", "sim.steps=2",
                     "--set", "grid.L=20", "--set", f"sim.init={init}",
                     "--set", f"sim.frame={frame}",
                     "--out", str(out_dir)])
        captured = capsys.readouterr()
        assert code == 2
        assert f"unknown sim.frame {frame!r}" in captured.err
        assert "transformed" in captured.err and "original" in captured.err
        assert captured.out == ""
        assert not out_dir.exists()

    @pytest.mark.parametrize("width", ["0", "-1", "inf", "nan"])
    @pytest.mark.parametrize("init,message", [
        ("step", "sim.init_width must be positive and finite"),
        ("bump", "sim.init_width must be positive and finite"),
    ])
    def test_simulate_rejects_a_bump_width_that_is_not_positive_and_finite(
            self, config_path, capsys, tmp_path, init, message, width):
        out_dir = tmp_path / "snaps"
        code = main(["simulate", "--config", str(config_path), "--set", "sim.steps=2",
                     "--set", "grid.L=20", "--set", f"sim.init={init}",
                     "--set", f"sim.init_width={width}", "--out", str(out_dir)])
        captured = capsys.readouterr()
        assert code == 2
        assert f"error: {message}" in captured.err
        assert captured.out == ""
        assert not out_dir.exists()

    @pytest.mark.parametrize("setting,message", [
        ("sim.steps=-1", "error: sim.steps must be nonnegative, got -1\n"),
        ("sim.thin=0", "error: sim.thin must be at least 1, got 0\n"),
        ("sim.thin=-3", "error: sim.thin must be at least 1, got -3\n"),
    ], ids=["steps", "thin-0", "thin-negative"])
    def test_simulate_names_a_bad_step_count_or_thinning_before_stepping(
            self, config_path, capsys, tmp_path, monkeypatch, setting, message):
        steps = []
        monkeypatch.setattr(evolution, "apply_Q", lambda *args: steps.append(args))
        out_dir = tmp_path / "snaps"
        code = main(["simulate", "--config", str(config_path), "--set", "grid.L=20",
                     "--set", setting, "--out", str(out_dir)])
        assert code == 2
        assert capsys.readouterr() == ("", message)
        assert steps == [] and not out_dir.exists()

    @pytest.mark.parametrize("extra,message", [
        ((), "error: unknown sim.init 'wedge' (expected step or bump)\n"),
        (("--set", "sim.frame=orig"),
         "error: unknown sim.frame 'orig' (expected transformed or original)\n"),
    ], ids=["init", "frame-first"])
    def test_simulate_checks_the_frame_then_the_start_then_the_width(
            self, config_path, capsys, tmp_path, extra, message):
        out_dir = tmp_path / "snaps"
        code = main(["simulate", "--config", str(config_path), "--set", "sim.init=wedge",
                     "--set", "sim.init_width=0", *extra, "--out", str(out_dir)])
        assert code == 2
        assert capsys.readouterr() == ("", message)
        assert not out_dir.exists()

    def test_simulate_step_start_in_the_original_frame(self, config_path, capsys, tmp_path):
        out_dir = tmp_path / "snaps"
        code = main(["simulate", "--config", str(config_path), "--set", "grid.L=20",
                     "--set", "sim.steps=2", "--set", "sim.frame=original",
                     "--out", str(out_dir)])
        assert code == 0
        capsys.readouterr()
        columns = np.loadtxt(out_dir / "sim_step_00000.csv", delimiter=",", skiprows=2)
        x, U, V = columns.T
        ramp = 1.0 / (1.0 + np.exp(-x))  # the logistic ramp of width sim.init_width = 1
        np.testing.assert_allclose(U, 1.0 - ramp, rtol=0, atol=1e-12)
        np.testing.assert_allclose(V, ramp, rtol=0, atol=1e-12)

    def test_simulate_discretizes_a_shared_kernel_once(self, config_path, capsys, tmp_path,
                                                       monkeypatch):
        # as in a wave solve, equal kernels share one discretization and so
        # one spectrum cache; distinct kernels get one each
        calls = []
        discretize = kernels.discretize

        def counting(*args, **kwargs):
            calls.append(args)
            return discretize(*args, **kwargs)

        monkeypatch.setattr(kernels, "discretize", counting)
        base = ["simulate", "--config", str(config_path), "--set", "grid.L=20",
                "--set", "sim.steps=2"]
        assert main([*base, "--out", str(tmp_path / "shared")]) == 0
        assert len(calls) == 1
        assert main([*base, "--set", "kernel2.sigma=1.5", "--out", str(tmp_path / "two")]) == 0
        assert len(calls) == 3
        capsys.readouterr()

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
        assert main(["wave", "--config", str(config_path), "--set", "grid.L=200",
                     "--out", str(full_dir)]) == 0
        _, full = parse_csv(capsys.readouterr().out)
        assert abs(float(sized[0]["speed"]) - float(full[0]["speed"])) <= 1e-9

        cfg = load_config(config_path)
        grid = rickerwaves.find_bistable_wave(cfg.params, cfg.kernel1, cfg.kernel2,
                                              opts=cfg.wave_opts, dx=cfg.dx).grid
        assert grid.half_length < 200.0
        rows = (sized_dir / "wave_profile.csv").read_text().splitlines()[2:]
        assert len(rows) == grid.n_points
        assert float(rows[0].split(",")[0]) == pytest.approx(grid.x[0], abs=1e-12)
        assert len((full_dir / "wave_profile.csv").read_text().splitlines()) == 2 + 4001

    def test_wave_sized_grid_follows_dx_and_simulate_keeps_200(self, config_path, tmp_path):
        cfg = load_config(config_path, {"grid.dx": "0.2"})
        args = argparse.Namespace(out=str(tmp_path), seed=0, curve=False, frame="transformed")
        assert run("wave", cfg, io.StringIO(), args).passed
        grid = rickerwaves.find_bistable_wave(cfg.params, cfg.kernel1, cfg.kernel2,
                                              opts=cfg.wave_opts, dx=0.2).grid
        rows = (tmp_path / "wave_profile.csv").read_text().splitlines()[2:]
        assert len(rows) == grid.n_points
        assert float(rows[1].split(",")[0]) - float(rows[0].split(",")[0]) == pytest.approx(0.2)
        # simulate's grid keeps the default half length
        assert cfg.grid() == rickerwaves.Grid(half_length=200.0, dx=0.2)

    def test_wave_on_a_grid_too_coarse_for_the_kernel_fails(self, config_path, capsys):
        # sigma = 1 at dx = 5: the front "converges" at 2.6 times the speed
        assert main(["wave", "--config", str(config_path), "--set", "grid.dx=5"]) == 1
        _, rows = parse_csv(capsys.readouterr().out)
        assert float(rows[0]["speed"]) > 0.3
        report = run("wave", load_config(config_path, {"grid.dx": "5"}), io.StringIO())
        failed = [check for check in report.checks if not check.ok]
        assert [check.name for check in failed] == ["wave-kernel-resolved"]
        assert "tolerance 0.05" in failed[0].detail

    def test_a_failed_check_says_why_on_stderr(self, config_path, capsys):
        # stdout keeps its table, and stderr gets one line per failed check
        assert main(["wave", "--config", str(config_path), "--set", "grid.dx=3"]) == 1
        captured = capsys.readouterr()
        assert len(parse_csv(captured.out)[1]) == 1
        [line] = captured.err.splitlines()
        assert line.startswith("failed check wave-kernel-resolved: relative MGF error")
        assert line.endswith("(tolerance 0.05)")
        assert main(["validate", "--config", str(config_path), "--set", "model.a1=0.5"]) == 1
        assert capsys.readouterr().err == (
            "failed check H1-admissible: a1=0.5 outside (1, inf)\n")
        # a run whose checks pass writes nothing there
        assert main(["wave", "--config", str(config_path)]) == 0
        assert capsys.readouterr().err == ""

    @pytest.mark.parametrize("command,code", [("speeds", 0), ("validate", 0), ("sweep", 0),
                                              ("wave", 2)])
    def test_a_uniform_kernel_whose_square_underflows_ends(self, tmp_path, capsys,
                                                           monkeypatch, command, code):
        # at halfwidth 1e-300 the speed searches end on an exact root where
        # the tilted variance is 0; they once bisected to the same mu for ever
        calls = []
        moments = UniformKernel.moments

        def bounded(self, mu):
            calls.append(mu)
            assert len(calls) < 20000, "the speed search does not end"
            return moments(self, mu)

        monkeypatch.setattr(UniformKernel, "moments", bounded)
        path = tmp_path / "narrow.cfg"
        path.write_text(BASE_CONFIG.replace("kernel.family = gaussian", "kernel.family = uniform")
                        .replace("kernel.sigma = 1.0", "kernel.halfwidth = 1e-300")
                        + "sweep.r1 = 0.3, 0.6\n")
        assert main([command, "--config", str(path)]) == code
        captured = capsys.readouterr()
        if code:
            # the wave's grid cannot resolve the kernel
            assert "exceeds the kernel support radius 1e-300" in captured.err
        else:
            assert captured.err == ""
            assert "e-301" in captured.out

    @pytest.mark.parametrize("command,code", [("validate", 1), ("wave", 2)])
    @pytest.mark.parametrize("family", ["gaussian", "uniform"])
    def test_a_subnormal_kernel_fails_counter_propagation(self, tmp_path, capsys, family,
                                                          command, code):
        # a scale of 5e-324 at r1 = r2 = 0.1: the Gaussian speeds underflow to
        # 0, and the uniform search's start 1/halfwidth overflows;
        # either way A6 fails in validate and the wave is refused
        scale = "sigma" if family == "gaussian" else "halfwidth"
        path = tmp_path / "subnormal.cfg"
        path.write_text(BASE_CONFIG.replace("r1 = 0.5", "r1 = 0.1").replace("r2 = 0.5", "r2 = 0.1")
                        .replace("kernel.family = gaussian", f"kernel.family = {family}")
                        .replace("kernel.sigma = 1.0", f"kernel.{scale} = 5e-324"))
        assert main([command, "--config", str(path)]) == code
        err = capsys.readouterr().err
        if command == "validate":
            assert "failed check A6-counter-propagation" in err
        elif family == "gaussian":
            assert err == "error: counter-propagation sums are not both positive\n"
        else:
            assert err == "error: objective still decreasing when mu overflowed\n"

    def test_wave_faster_than_the_sizing_speed_passes(self, config_path, capsys):
        # a1 = 1.05 moves at 0.320, above the interior monostable speed 0.214
        # the grid is sized with
        assert main(["wave", "--config", str(config_path), "--set", "model.a1=1.05",
                     "--set", "model.a2=2.5"]) == 0
        _, rows = parse_csv(capsys.readouterr().out)
        assert rows[0]["speed"] == "0.3200465431"

    def test_wave_resolved_kernels_pass_the_mgf_check(self, config_path, tmp_path):
        path = tmp_path / "uniform.cfg"
        path.write_text(BASE_CONFIG + "kernel2.family = uniform\nkernel2.halfwidth = 2.0\n")
        for cfg in (load_config(config_path), load_config(path)):
            checks = {c.name: c for c in run("wave", cfg, io.StringIO()).checks}
            assert checks["wave-kernel-resolved"].ok, checks["wave-kernel-resolved"].detail

    @pytest.mark.parametrize("extra,expected", [((), 1), (("--set", "grid.L=60"), 1)],
                             ids=["sized", "grid.L"])
    def test_wave_discretizes_once_per_grid_build(self, config_path, capsys, monkeypatch,
                                                 extra, expected):
        # the solver alone discretizes the kernels and bounds the speed,
        # sized grid or not, and the README config's two species share one
        # kernel, so it is discretized once; the kernel check reads its
        # kernels from the profile
        calls, bounds = [], []
        discretize = rickerwaves.kernels.discretize
        bound = rickerwaves.speeds.system_speed_bound

        def counting(*args, **kwargs):
            calls.append(args)
            return discretize(*args, **kwargs)

        for module in (rickerwaves.kernels, rickerwaves.waves):
            monkeypatch.setattr(module, "discretize", counting)
        monkeypatch.setattr(rickerwaves.speeds, "system_speed_bound",
                            lambda *args: bounds.append(args) or bound(*args))
        assert main(["wave", "--config", str(config_path), *extra]) == 0
        capsys.readouterr()
        assert len(calls) == expected
        assert len(bounds) == 1

    @pytest.mark.parametrize("value", ["nan", "inf", "0", "-1"])
    @pytest.mark.parametrize("name", ["profile_tol", "speed_tol"])
    def test_wave_tolerance_not_positive_and_finite_fails_before_stepping(
            self, config_path, capsys, monkeypatch, name, value):
        steps = []
        monkeypatch.setattr(waves, "apply_Q", lambda *args: steps.append(args))
        code = main(["wave", "--config", str(config_path), "--set", f"solver.{name}={value}"])
        assert code == 2
        assert f"error: solver {name} must be positive and finite" in capsys.readouterr().err
        assert steps == []

    @pytest.mark.parametrize("width", ["kernel.sigma=1e160", "kernel.halfwidth=1e160"])
    def test_a_kernel_width_whose_square_overflows_exits_2(self, config_path, capsys, width):
        family = ["--set", "kernel.family=uniform"] if "halfwidth" in width else []
        assert main(["speeds", "--config", str(config_path), *family, "--set", width]) == 2
        assert "must be positive with a finite square, got 1e+160" in capsys.readouterr().err

    @pytest.mark.parametrize("dx", ["1e-300", "5e-324"])
    def test_wave_dx_too_fine_for_any_grid_is_named(self, config_path, capsys, dx):
        assert main(["wave", "--config", str(config_path), "--set", f"grid.dx={dx}"]) == 2
        err = capsys.readouterr().err
        assert f"error: dx={float(dx)} is too fine" in err and "half width J" in err

    @pytest.mark.parametrize("half_length", ["3", "7.3", "7.4", "7.9"])
    def test_wave_grid_too_short_for_the_kernel_fails_before_solving(
            self, config_path, capsys, monkeypatch, half_length):
        steps = []
        apply_Q = rickerwaves.waves.apply_Q
        monkeypatch.setattr(rickerwaves.waves, "apply_Q",
                            lambda *args: steps.append(1) or apply_Q(*args))
        assert main(["wave", "--config", str(config_path),
                     "--set", f"grid.L={half_length}"]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "needs at least 8 (72 + 6 + 2 cells of 0.1)" in captured.err
        assert steps == []
        # a grid the check lets through is solved on and only fails its tail checks
        assert main(["wave", "--config", str(config_path), "--set", "grid.L=8"]) == 1
        _, rows = parse_csv(capsys.readouterr().out)
        assert rows[0]["left_tail"] == "false" or rows[0]["right_tail"] == "false"

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

    @pytest.mark.parametrize("extra,sets,message", [
        ("", ["sweep.a1= , "], "override: bad value for sweep.a1: ',' (empty list)"),
        ("kernel.family = table\nkernel.table_path = column.txt\n", [],
         "kernel1: table file must have two columns (offset, density)"),
        ("grid.L 20\n", [], "{path}:8: expected 'key = value', got 'grid.L 20'"),
        ("", ["sweep.knob=1"], "override: unknown key 'sweep.knob'"),
        ("kernel.family = uniform\nkernel.halfwidth = 2\n", ["sweep.sigma=1"],
         "sweep.sigma requires gaussian kernels"),
        ("", ["sweep.a1"], "--set expects KEY=VALUE, got 'sweep.a1'"),
    ], ids=["empty-list", "one-column-table", "no-equals", "unknown-override",
            "sigma-on-uniform", "set-without-equals"])
    def test_a_config_error_exits_2_with_its_line(self, tmp_path, capsys, extra, sets,
                                                  message):
        (tmp_path / "column.txt").write_text("-1\n0\n1\n")
        path = tmp_path / "exp.cfg"
        path.write_text(BASE_CONFIG + extra)
        argv = ["sweep", "--config", str(path)]
        for setting in sets:
            argv += ["--set", setting]
        assert main(argv) == 2
        assert capsys.readouterr() == ("", f"error: {message.format(path=path)}\n")


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

    def test_float_fast_path_matches_per_cell_rendering(self):
        floats = [0.1 + 0.2, 1e-300, 1e300, -0.0, float("inf"), float("-inf"),
                  float("nan"), 123456789012345.0]
        others = [1, np.int64(-7), True, False, None, "", "a,b", 'q"t']
        rows = [floats, [np.float64(x) for x in floats], others,
                [cell for pair in zip(floats, others) for cell in pair],
                [np.float64(0.1 + 0.2), 0.1 + 0.2, "a,b", 1e300, np.int64(3)]]
        out = io.StringIO()
        emit_csv(out, "abc123", ("h1", "h2"), rows)
        expected = "# config abc123\nh1,h2\n" + "".join(
            ",".join(_quote(_fmt(cell)) for cell in row) + "\n" for row in rows)
        assert out.getvalue() == expected
        assert out.getvalue().splitlines()[2] == (
            "0.3,1e-300,1e+300,-0,inf,-inf,nan,1.23456789012e+14")

    def test_repeated_floats_render_as_each_cell_alone(self):
        # one table whose floats repeat: zeros of both signs in either order
        # (one dict key, two texts), NaNs that are distinct objects, both
        # infinities, a value as float and as np.float64, and 1.0 beside 1
        # and True
        nan_a, nan_b = float("nan"), float("inf") - float("inf")
        assert nan_a is not nan_b
        rows = [
            [0.0, -0.0, -0.0, 0.0, nan_a, float("inf")],
            [-0.0, 0.0, 0.0, -0.0, nan_b, float("-inf")],
            [0.0, 0.0, -0.0, -0.0, nan_a, nan_b],
            [0.1 + 0.2, np.float64(0.1 + 0.2), np.float64(-0.0), -0.0, float("inf"), 1e300],
            [1.0, 1, True, 1.0, True, 1],
            [np.float64(1.0), 1.0, False, 0, 0.0, -0.0],
        ]
        out = io.StringIO()
        emit_csv(out, "abc123", ("a", "b", "c", "d", "e", "f"), rows)
        assert out.getvalue() == "# config abc123\na,b,c,d,e,f\n" + "".join(
            ",".join(_quote(_fmt(cell)) for cell in row) + "\n" for row in rows)
        assert out.getvalue().splitlines()[2:] == [
            "0,-0,-0,0,nan,inf",
            "-0,0,0,-0,nan,-inf",
            "0,0,-0,-0,nan,nan",
            "0.3,0.3,-0,-0,inf,1e+300",
            "1,1,true,1,true,1",
            "1,1,false,0,0,-0",
        ]


class TestDeterminism:
    def test_identical_runs_are_byte_identical(self, config_path, capsys):
        main(["speeds", "--config", str(config_path)])
        first = capsys.readouterr().out
        main(["speeds", "--config", str(config_path)])
        second = capsys.readouterr().out
        assert first == second

    def test_identical_validate_runs_are_byte_identical(self, config_path, capsys):
        main(["validate", "--config", str(config_path)])
        first = capsys.readouterr().out
        main(["validate", "--config", str(config_path)])
        second = capsys.readouterr().out
        assert first == second


# The README config's `wave` stdout and the sha256 of its `wave_profile.csv`
# and of each `simulate --set sim.steps=150` snapshot.  A change that moves them on
# purpose updates these pins and says why in CHANGES.md.
README_WAVE_STDOUT = (
    "# config dddde958d71f\n"
    "speed,residual,steps,monotone,range,left_tail,right_tail,residual_ok\n"
    "0.118969811421,2.26362262268e-11,19,true,true,true,true,true\n"
)
README_WAVE_PROFILE_SHA256 = "a53875a18520a4fc6e4ee1583bd0d48e1971673a4f31ecab969bd9b41119032e"
README_SIMULATE_SHA256 = {
    0: "88a19111caf2e669256f2c723f5e821db638d965c1cf299df610008641e3cfd7",
    10: "e6265d2e066454ec41328ca9863391c3433caa73ba06591740ee6d482fb98f0d",
    20: "c7acdc3207ff62016fd7922d2d31a6c02f1708ea90591f3879933aee3e6700ce",
    30: "7caed872e031e5e4685cbdceb37a7147e7ab5fd8f213be88f8912a5b6ff67db4",
    40: "d6fad556af67d159d0327cca41c809e267e5fe56998c64a1aa14cfe634a89a10",
    50: "62fa910acd56c8ca1863e3df467a8a0c3c86ac96515b9c33defc8b1346223df7",
    60: "afe81d29e210c8306bc2406a5174fe6c518e9d1fcedc03fff976195795d2b6a6",
    70: "85f6da5eb64ce06ff10998533c6ec4c1a85446e3d5d67b580f0d948dd2bbdc3e",
    80: "d1ef1b79ac12057e163522b9127c52a68a9dcf8fe3a07b345d2993e57e2b799d",
    90: "a854d607027fa31dd4fd939a5c92584aabd6366e773ebb2523a1ffe6ab7089e8",
    100: "8cf201a63ef7b7f47fa716f361f65cd7526174c11b4ba2c6d0317917487bd37e",
    110: "392bf876630d22e3f9a081759aca636d9d16227be43cf87af4cc8d466288e5e2",
    120: "ed206646aeb371857d8ec8f744097298ad851289a99177a558d4941a93a3cb59",
    130: "1495300adb017603569031cd4bb19f21354ccdd13a35029140d4caece14a84c8",
    140: "6e67462c3ad018774732cf95a4ba6b1230be159a74487713d0484e1150571805",
    150: "6dc5512ee5c220c5f61c614eab411446685fefa342a30050892996dd2d8f9d3c",
}

# The same runs started in the original frame: `simulate --set sim.frame=original
# --set sim.steps=150`, whose step start is 1 - the cooperative ramp, and
# `wave --frame original`, whose profile is written as (1 - phi, psi).
README_ORIGINAL_SIMULATE_SHA256 = {
    0: "8b2d453b8ac7c334438e6d09615bba73e65272b904f76de4f9e5cb3e680fcf69",
    10: "6ffedafb0dbe773fc8b60f26ab8005b6d4136365b4a084a57031facbaee1da26",
    20: "aeaf89f1d9b6e56d165c63054df1e7e144cf98681123c23afb5c6ce28127227f",
    30: "34f7570b83eec11404914bd66c2cfa93453365d1b32bca2a45675cf25f275ea8",
    40: "ea13ac3cb42160906916685c6870dfbdd8e1088f9ec9ca59ac555208be5f0b3c",
    50: "20c409f6cbb7148b5d0b71a25ef56aeb8adea96b58d4775042fe5d37835bb30f",
    60: "2917ae93c39e1eb4ae1dbd87ec124fac3e4c2a79e5b414104fd1bcc48837e276",
    70: "f019bd678673ad86fa57233f49130cd767ed756e977514bc4b06ee0f75b86ca0",
    80: "4e17879c078b94c86e8289e65bc16f082bff2e473882ef7c196d4d4e600447ae",
    90: "e162bbb6a612c2449beb66a79724ad68ac43bd210d41cbcd0ae33f42ff488b97",
    100: "6fb8327747c4ee93203ecd214b5310d0ceb45f2fd75c76a00e7da3e10777c0bc",
    110: "e4099caba44e05f6cc25a3726dce37b59fa676bb37aae460d4aff564bde57519",
    120: "2b8fc8e8e3a861e2ae61679aba30c717d3eef74e9d26bac296da08be5c589b32",
    130: "0f0968b020cc7f09839b92f68dcc4fcbc11ba72af00441479207a615843b0f9c",
    140: "68a3c4a231e80f33b3bd4b7c40bc9837f611ab92fe1f48161cc65d97443b6580",
    150: "f0d4b8452a1da1bec9f8b9ac5178bc22fcfe23c33c18f2f58977fd3164a93747",
}
README_ORIGINAL_WAVE_PROFILE_SHA256 = (
    "bf3af6ac9beba6f4bba8e10477641b1326f72108bd51465ba30313a704ab4eb4")


# `wave` stdout and the sha256 of `wave_profile.csv` with one kernel per
# species, a Gaussian beside a uniform kernel: the solve steps with two
# distinct discretized kernels.
SPECIES_CONFIG = ("".join(line + "\n" for line in BASE_CONFIG.splitlines()
                          if not line.startswith("kernel."))
                  + "kernel1.family = gaussian\nkernel1.sigma = 1\n"
                  "kernel2.family = uniform\nkernel2.halfwidth = 2\n")
SPECIES_WAVE_STDOUT = (
    "# config 1cc644b1cd50\n"
    "speed,residual,steps,monotone,range,left_tail,right_tail,residual_ok\n"
    "0.106894428684,4.84157158809e-11,21,true,true,true,true,true\n"
)
SPECIES_WAVE_PROFILE_SHA256 = "bbfdd3f8a71c3902b3798eb74de0bae126ddb57bfeefea4c02cb545af3b74380"

# `validate` stdout on a table kernel built from an asymmetric table: H3
# passes with the symmetrization note on both species.
ASYMMETRIC_TABLE_VALIDATE_STDOUT = (
    "# config 85367513def7\n"
    "check,passed,detail\n"
    "H1-admissible,true,\n"
    "H2-finite-mgf-kernel1,true,\n"
    "H3-symmetric-kernel1,true,input table was asymmetric; symmetrized on construction\n"
    "H2-finite-mgf-kernel2,true,\n"
    "H3-symmetric-kernel2,true,input table was asymmetric; symmetrized on construction\n"
    "A1-translation,true,a lattice convolution commutes with whole-cell shifts\n"
    "A3-order-preserving,true,holds by (H1) and nonnegative weights\n"
    "A5-bistability,true,delta 0.5; intermediates unordered True\n"
    "A6-counter-propagation,true,edge sum 0.791289453992; interior sum 0.48598199955\n"
)

# The README config's `speeds` stdout, and `sweep` stdout over a 2x2x2x2
# lattice with a sigma axis.  The benchmark checks sweep tables only to a
# tolerance, so these pins are what holds the speeds bit for bit.
README_SPEEDS_STDOUT_SHA256 = "80f726764dbc4fee93d9456662fa65f7b5d4aacf18614901ffc2349a077a9cf4"
SWEEP_LATTICE = "sweep.r1 = 0.3, 0.6\nsweep.a1 = 1.5, 2.5\nsweep.a2 = 2, 4\nsweep.sigma = 0.8, 1.6\n"
SWEEP_STDOUT_SHA256 = "abaeb920b08058268d454e99e6d779937e5ea46c2d30b0219a56a04ae85dce3a"

# The README config's `equilibria` stdout, whose u and v columns repeat 0.0
# and 1.0, and `sweep` stdout on a halfwidth-2 uniform kernel over a 2x2
# lattice, whose interior speeds are searched.
README_EQUILIBRIA_STDOUT_SHA256 = (
    "4e1fd5f3f6c40f70bbe201f77fbf870bdd995bdf3f04fd257c32cba6c551ad19")
UNIFORM_SWEEP_CONFIG = (
    "".join(line + "\n" for line in BASE_CONFIG.splitlines() if not line.startswith("kernel."))
    + "kernel.family = uniform\nkernel.halfwidth = 2\nsweep.r1 = 0.3, 0.6\nsweep.a1 = 1.5, 2.5\n")
UNIFORM_SWEEP_STDOUT_SHA256 = (
    "26c11caed2e7f4b9a074cf398d5efcf2fb0597f3056874e74f39a76268daa970")

# `sweep` stdout on one table kernel shared by both species (the asymmetric
# table of the `validate` pin) over a 2x2 lattice.
SHARED_TABLE_SWEEP_STDOUT_SHA256 = (
    "755e61d4f8ee2722ac4f1715fe4901ca1cefee8d1d326e9a9bea3a07f6bd814c")


def _asymmetric_table_config(tmp_path):
    offsets = np.linspace(-1, 1, 21)
    dens = np.maximum(1 - np.abs(offsets), 0) * (1 + 0.5 * offsets)
    np.savetxt(tmp_path / "asym.txt", np.column_stack([offsets, dens]))
    return (BASE_CONFIG.replace("kernel.family = gaussian", "kernel.family = table")
            .replace("kernel.sigma = 1.0", "kernel.table_path = asym.txt"))


def _sha256(path):
    return hashlib.sha256(path.read_bytes()).hexdigest()


def _text_sha256(text):
    return hashlib.sha256(text.encode()).hexdigest()


class TestPinnedBytes:
    def test_readme_wave_stdout_and_profile(self, config_path, capsys, tmp_path):
        assert main(["wave", "--config", str(config_path), "--out", str(tmp_path)]) == 0
        assert capsys.readouterr().out == README_WAVE_STDOUT
        assert _sha256(tmp_path / "wave_profile.csv") == README_WAVE_PROFILE_SHA256

    def test_species_wave_stdout_and_profile(self, tmp_path, capsys):
        path = tmp_path / "species.cfg"
        path.write_text(SPECIES_CONFIG)
        assert main(["wave", "--config", str(path), "--out", str(tmp_path)]) == 0
        assert capsys.readouterr().out == SPECIES_WAVE_STDOUT
        assert _sha256(tmp_path / "wave_profile.csv") == SPECIES_WAVE_PROFILE_SHA256

    def test_readme_simulate_snapshots(self, config_path, capsys, tmp_path):
        assert main(["simulate", "--config", str(config_path), "--set", "sim.steps=150",
                     "--out", str(tmp_path)]) == 0
        capsys.readouterr()
        assert {int(path.stem[len("sim_step_"):]): _sha256(path)
                for path in tmp_path.glob("sim_step_*.csv")} == README_SIMULATE_SHA256

    def test_readme_original_frame_simulate_snapshots(self, config_path, capsys, tmp_path):
        assert main(["simulate", "--config", str(config_path), "--set", "sim.frame=original",
                     "--set", "sim.steps=150", "--out", str(tmp_path)]) == 0
        capsys.readouterr()
        assert {int(path.stem[len("sim_step_"):]): _sha256(path)
                for path in tmp_path.glob("sim_step_*.csv")} == README_ORIGINAL_SIMULATE_SHA256

    def test_readme_original_frame_wave_stdout_and_profile(self, config_path, capsys,
                                                           tmp_path):
        assert main(["wave", "--config", str(config_path), "--frame", "original",
                     "--out", str(tmp_path)]) == 0
        # the speed and the checks are the cooperative solve's
        assert capsys.readouterr().out == README_WAVE_STDOUT
        assert _sha256(tmp_path / "wave_profile.csv") == README_ORIGINAL_WAVE_PROFILE_SHA256

    def test_asymmetric_table_validate_stdout(self, tmp_path, capsys):
        path = tmp_path / "tbl.cfg"
        path.write_text(_asymmetric_table_config(tmp_path))
        assert main(["validate", "--config", str(path)]) == 0
        assert capsys.readouterr().out == ASYMMETRIC_TABLE_VALIDATE_STDOUT

    def test_shared_table_lattice_sweep_stdout(self, tmp_path, capsys):
        path = tmp_path / "tbl_sweep.cfg"
        path.write_text(_asymmetric_table_config(tmp_path)
                        + "sweep.r1 = 0.3, 0.6\nsweep.a1 = 1.5, 2.5\n")
        assert main(["sweep", "--config", str(path)]) == 0
        assert _text_sha256(capsys.readouterr().out) == SHARED_TABLE_SWEEP_STDOUT_SHA256

    def test_readme_speeds_stdout(self, config_path, capsys):
        assert main(["speeds", "--config", str(config_path)]) == 0
        assert _text_sha256(capsys.readouterr().out) == README_SPEEDS_STDOUT_SHA256

    def test_sigma_lattice_sweep_stdout(self, tmp_path, capsys):
        path = tmp_path / "sweep.cfg"
        path.write_text(BASE_CONFIG + SWEEP_LATTICE)
        assert main(["sweep", "--config", str(path)]) == 0
        assert _text_sha256(capsys.readouterr().out) == SWEEP_STDOUT_SHA256

    def test_readme_equilibria_stdout(self, config_path, capsys):
        assert main(["equilibria", "--config", str(config_path)]) == 0
        assert _text_sha256(capsys.readouterr().out) == README_EQUILIBRIA_STDOUT_SHA256

    def test_uniform_lattice_sweep_stdout(self, tmp_path, capsys):
        path = tmp_path / "uniform_sweep.cfg"
        path.write_text(UNIFORM_SWEEP_CONFIG)
        assert main(["sweep", "--config", str(path)]) == 0
        assert _text_sha256(capsys.readouterr().out) == UNIFORM_SWEEP_STDOUT_SHA256


_SWEEP_HEADER = (
    "r1", "r2", "a1", "a2", "sigma",
    "c_minus_F1F3", "c_plus_F0F1", "c_minus_F2F3", "c_plus_F0F2",
    "sum_edge", "sum_interior", "passed",
)


def _unmemoized_sweep(cfg):
    """The sweep table from one memo-free counter_propagation per cell."""
    names = [name for name in ("r1", "r2", "a1", "a2", "sigma") if name in cfg.sweep]
    rows = []
    for point in itertools.product(*(cfg.sweep[name] for name in names)):
        combo = dict(zip(names, point))
        sigma = combo.pop("sigma", None)
        params = cfg.params._replace(**combo)
        k1, k2 = cfg.kernel1, cfg.kernel2
        if sigma is not None:
            k1, k2 = GaussianKernel(sigma), GaussianKernel(sigma)
        cp = speeds.counter_propagation(params, k1, k2)
        rows.append((params.r1, params.r2, params.a1, params.a2,
                     "" if sigma is None else sigma,
                     cp.c_minus_F1F3.value, cp.c_plus_F0F1.value,
                     cp.c_minus_F2F3.value, cp.c_plus_F0F2.value,
                     cp.sum_edge, cp.sum_interior, cp.passed))
    out = io.StringIO()
    emit_csv(out, cfg.digest, _SWEEP_HEADER, rows)
    return out.getvalue()


class TestSweepEdgeMemo:
    """A sweep searches each distinct (r, kernel) edge speed once."""

    def _run_counted(self, path, monkeypatch, capsys):
        calls = []
        search = speeds.scalar_speed

        def counted(r, kernel):
            calls.append(r)
            return search(r, kernel)

        monkeypatch.setattr(speeds, "scalar_speed", counted)
        assert main(["sweep", "--config", str(path)]) == 0
        monkeypatch.undo()
        return calls, capsys.readouterr().out

    def test_sigma_lattice(self, tmp_path, monkeypatch, capsys):
        # r1 and r2 share 0.6, and kernel1 equals kernel2 at each sigma, so
        # the 32 edge searches of 16 cells are 3 rates x 2 sigmas
        path = tmp_path / "sweep.cfg"
        path.write_text(BASE_CONFIG + "sweep.r1 = 0.3, 0.6\nsweep.r2 = 0.6, 0.8\n"
                        "sweep.a1 = 1.5, 2.5\nsweep.sigma = 0.8, 1.6\n")
        calls, out = self._run_counted(path, monkeypatch, capsys)
        assert sorted(calls) == [0.3, 0.3, 0.6, 0.6, 0.8, 0.8]
        assert out == _unmemoized_sweep(load_config(path))

    def test_table_kernel_from_file(self, tmp_path, monkeypatch, capsys):
        # a table kernel keys the memo as itself: the config's one table object
        offsets = np.linspace(-1, 1, 21)
        np.savetxt(tmp_path / "kern.txt",
                   np.column_stack([offsets, np.maximum(1 - np.abs(offsets), 0)]))
        path = tmp_path / "tbl.cfg"
        path.write_text(
            BASE_CONFIG.replace("kernel.family = gaussian", "kernel.family = table")
            .replace("kernel.sigma = 1.0", "kernel.table_path = kern.txt")
            + "sweep.r1 = 0.3, 0.6\nsweep.r2 = 0.4, 0.7\nsweep.a2 = 2, 4\n"
        )
        calls, out = self._run_counted(path, monkeypatch, capsys)
        assert sorted(calls) == [0.3, 0.4, 0.6, 0.7]
        assert out == _unmemoized_sweep(load_config(path))


_NO_KERNEL_CONFIG = "".join(line + "\n" for line in BASE_CONFIG.splitlines()
                            if not line.startswith("kernel."))
_SIGMA_ZERO = "gaussian sigma must be positive with a finite square, got 0.0"


class TestSweepOnePass:
    """One pass per lattice: the same bytes on each kernel configuration, and
    the first bad cell's error, whether from its parameters or its sigma."""

    @pytest.mark.parametrize("config", [
        _NO_KERNEL_CONFIG + "kernel.family = uniform\nkernel.halfwidth = 2\n"
        "sweep.r1 = 0.3, 0.6\nsweep.r2 = 0.4, 0.7\nsweep.a1 = 1.5, 2.5\nsweep.a2 = 2, 4\n",
        _NO_KERNEL_CONFIG + "kernel1.family = gaussian\nkernel1.sigma = 1\n"
        "kernel2.family = uniform\nkernel2.halfwidth = 2\n"
        "sweep.r1 = 0.3, 0.6\nsweep.a1 = 1.5, 2.5\n",
        # sigma values that repeat one another and the config's sigma = 1.0
        BASE_CONFIG + "sweep.a2 = 2, 4\nsweep.sigma = 1.0, 0.5, 1, 0.5\n",
    ], ids=["uniform-four-axes", "species-pair", "repeated-sigma"])
    def test_table_is_the_memo_free_table(self, tmp_path, capsys, config):
        path = tmp_path / "sweep.cfg"
        path.write_text(config)
        assert main(["sweep", "--config", str(path)]) == 0
        assert capsys.readouterr().out == _unmemoized_sweep(load_config(path))

    @pytest.mark.parametrize("settings,message", [
        (["sweep.a1=0.5,2.5"], "a1=0.5 outside (1, inf)"),
        (["sweep.sigma=0"], _SIGMA_ZERO),
        # the cells run sigma fastest: (a1, sigma) = (0.5, 1) comes first here
        (["sweep.a1=0.5,2", "sweep.sigma=1,0"], "a1=0.5 outside (1, inf)"),
        # and (2, 0) here
        (["sweep.a1=2,0.5", "sweep.sigma=1,0"], _SIGMA_ZERO),
    ], ids=["a1", "sigma", "a1-first", "sigma-first"])
    def test_first_bad_cell_is_the_error(self, config_path, capsys, settings, message):
        argv = ["sweep", "--config", str(config_path)]
        for setting in settings:
            argv += ["--set", setting]
        assert main(argv) == 2
        assert capsys.readouterr() == ("", f"error: {message}\n")


# every name the package exported when its __init__ imported them all, by module
PACKAGE_EXPORTS = {
    "errors": ("CertificateError", "ConfigError", "ConvergenceError", "DegenerateDataError",
               "DegenerateKernelError", "DomainError", "MeasurementError", "ParameterError",
               "RangeError", "SearchError"),
    "evolution": ("Grid", "SpatialState", "apply_Q", "compare", "convolve_extended",
                  "interior_slice", "step_initial_data", "translate"),
    "kernels": ("DiscreteKernel", "GaussianKernel", "Kernel", "TableKernel", "UniformKernel",
                "discretize", "make_kernel", "validate_hypotheses"),
    "model": ("ORIGINAL_FRAME", "TRANSFORMED_FRAME", "EquilibriumSet", "ModelParams",
              "StabilityCertificate", "change_coordinates", "classify_stability",
              "eigenvalues_2x2", "equilibria", "growth", "jacobian", "pointwise_map",
              "strong_stability_vectors", "validate_params"),
    "speeds": ("CounterPropagationReport", "FrontSpeedReport", "SpeedReport",
               "counter_propagation", "front_position", "linearization_matrix",
               "measure_front_speed", "scalar_speed", "system_speed_bound"),
    "waves": ("ProfileValidation", "WaveOptions", "WaveProfile", "find_bistable_wave",
              "validate_profile", "wave_residual"),
}

# run in a fresh interpreter with numpy and numbers unimportable: the scalar
# subcommands, whose floats pass the number test on their type alone;
# then, with numpy allowed again and the wave solver unimportable, the
# simulations; then, with both allowed, the package's lazy exports
_WITHOUT_NUMPY = """\
import contextlib, importlib, io, json, sys
sys.modules["numpy"] = sys.modules["dataclasses"] = sys.modules["numbers"] = None
import rickerwaves
from rickerwaves.cli import main
runs = []

def run_all(argvs):
    for argv in argvs:
        out = io.StringIO()
        with contextlib.redirect_stdout(out):
            runs.append([main(argv), out.getvalue()])

run_all(json.loads(sys.argv[1]))
del sys.modules["numpy"], sys.modules["dataclasses"], sys.modules["numbers"]
sys.modules["rickerwaves.waves"] = None
run_all(json.loads(sys.argv[3]))
del sys.modules["rickerwaves.waves"]
wrong = [name for module, names in json.loads(sys.argv[2]).items() for name in names
         if getattr(rickerwaves, name) is not getattr(
             importlib.import_module("rickerwaves." + module), name)]
try:
    rickerwaves.no_such_name
except AttributeError as exc:
    unknown = str(exc)
print(json.dumps({"runs": runs, "wrong": wrong, "unknown": unknown,
                  "dir": dir(rickerwaves)}))
"""


class TestImport:
    @staticmethod
    def _fresh(code, *argv):
        src = str(Path(rickerwaves.__file__).parents[1])
        env = {**os.environ, "PYTHONPATH": os.pathsep.join(
            filter(None, [src, os.environ.get("PYTHONPATH")]))}
        result = subprocess.run([sys.executable, "-c", code, *argv], capture_output=True,
                                text=True, check=True, env=env)
        return result.stdout.strip()

    @classmethod
    def _loaded_after_import(cls, names, module="rickerwaves.cli"):
        return cls._fresh(f"import sys, {module}; "
                          f"print([m for m in sys.modules if m.split('.')[0] in {names!r}])")

    def test_cli_import_loads_no_scipy(self):
        assert self._loaded_after_import(["scipy"]) == "[]"

    def test_cli_import_loads_no_statistics(self):
        assert self._loaded_after_import(["statistics"]) == "[]"

    def test_cli_import_loads_no_dataclasses_or_inspect(self):
        assert self._loaded_after_import(["dataclasses", "inspect"]) == "[]"

    def test_waves_import_adds_none_of_them_to_numpy(self):
        # numpy itself loads inspect; a wave solve's modules add none of these
        added = self._fresh(
            "import sys, numpy.linalg; before = set(sys.modules); import rickerwaves.waves; "
            "print(sorted(m for m in set(sys.modules) - before "
            "if m.split('.')[0] in ('dataclasses', 'inspect', 'logging')))")
        assert added == "[]"

    def test_scalar_subcommands_and_exports_without_numpy(self, tmp_path, capsys):
        uniform = (BASE_CONFIG.replace("kernel.family = gaussian", "kernel.family = uniform")
                   .replace("kernel.sigma = 1.0", "kernel.halfwidth = 2"))
        argvs = []
        for name, text in (("gaussian", BASE_CONFIG + SWEEP_LATTICE),
                           ("uniform", uniform + "sweep.a1 = 1.5, 2.5\n")):
            path = tmp_path / f"{name}.cfg"
            path.write_text(text)
            argvs += [[sub, "--config", str(path)]
                      for sub in ("validate", "equilibria", "speeds", "sweep")]
        # simulate steps without loading the wave solver
        simulations = [["simulate", "--config", str(tmp_path / "gaussian.cfg"),
                        "--set", "sim.steps=2", "--out", str(tmp_path / "sim")]]
        expected = []
        for argv in argvs + simulations:
            expected.append([main(argv), capsys.readouterr().out])
        assert [code for code, _ in expected] == [0] * 9
        found = json.loads(self._fresh(_WITHOUT_NUMPY, json.dumps(argvs),
                                       json.dumps(PACKAGE_EXPORTS), json.dumps(simulations)))
        assert found["runs"] == expected
        assert found["wrong"] == []
        assert found["unknown"] == "module 'rickerwaves' has no attribute 'no_such_name'"
        exports = {name for names in PACKAGE_EXPORTS.values() for name in names}
        assert exports <= set(found["dir"])


# the flags each subcommand takes besides --config and --set
SUBCOMMAND_FLAGS = {
    "validate": set(),
    "equilibria": set(),
    "speeds": {"--out", "--curve"},
    "simulate": {"--out"},
    "wave": {"--out", "--frame"},
    "sweep": set(),
}
# a value for every flag a subcommand takes or once took; None marks a switch
FLAG_VALUES = {"--seed": "3", "--out": "art", "--curve": None, "--frame": "original",
               "--dx": "0.05", "--L": "60", "--steps": "2", "--thin": "1", "--init": "bump"}


class TestParserSurface:
    def test_each_subcommand_has_exactly_its_flags(self):
        parser = _build_parser()
        subparsers = next(action for action in parser._actions
                          if isinstance(action, argparse._SubParsersAction))
        surface = {name: {flag for action in sub._actions for flag in action.option_strings
                          if flag not in ("-h", "--help")}
                   for name, sub in subparsers.choices.items()}
        assert surface == {name: {"--config", "--set"} | flags
                           for name, flags in SUBCOMMAND_FLAGS.items()}
        assert len(set().union(*surface.values())) == 5
        assert sum(len(flags) for flags in surface.values()) == 17

    @pytest.mark.parametrize("flag", sorted(FLAG_VALUES))
    @pytest.mark.parametrize("sub", sorted(SUBCOMMAND_FLAGS))
    def test_a_flag_the_subcommand_does_not_read_exits_2(self, sub, flag, capsys):
        value = FLAG_VALUES[flag]
        argv = [sub, "--config", "exp.cfg", "--set", "grid.dx=0.1", flag]
        argv += [] if value is None else [value]
        if flag in SUBCOMMAND_FLAGS[sub]:
            args = _build_parser().parse_args(argv)
            assert str(getattr(args, flag[2:])) == (value or "True")
            return
        with pytest.raises(SystemExit) as exc:
            main(argv)
        assert exc.value.code == 2
        assert f"unrecognized arguments: {' '.join(argv[5:])}" in capsys.readouterr().err

    def test_set_gives_the_digest_of_the_removed_aliases(self, config_path, capsys, tmp_path):
        # 45d928a2b5ed is the digest that `--dx 0.5 --L 10 --steps 2 --thin 1
        # --init bump` gave
        assert main(["simulate", "--config", str(config_path), "--set", "grid.dx=0.5",
                     "--set", "grid.L=10", "--set", "sim.steps=2", "--set", "sim.thin=1",
                     "--set", "sim.init=bump", "--out", str(tmp_path)]) == 0
        assert capsys.readouterr().out.startswith("# config 45d928a2b5ed\n")


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
