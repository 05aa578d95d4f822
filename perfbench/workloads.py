"""The three workloads: how one operation is run, timed and checked.

An operation is one fresh CLI process (cli_session), one wave cell solved
and validated (wave_map) or one in-process sweep call over a lattice
(speed_map).  Its latency covers the program's work only; building inputs
and checking outputs happen outside the timed region.
"""

from __future__ import annotations

import argparse
import io
import json
import shutil
import subprocess
import sys
import tempfile
import time
from dataclasses import dataclass, field
from pathlib import Path

import checks
import inputs
from spans import rickerwaves_modules

HERE = Path(__file__).resolve().parent
CLI_TIMEOUT_S = 120


@dataclass
class OpResult:
    label: str
    latency: float
    items: int = 1
    failed_items: int = 0
    wrong: bool = False  # completed, but its output failed a check
    problems: list = field(default_factory=list)
    attrs: dict = field(default_factory=dict)


class CliSession:
    """Closed loop, one client: each call is ``python -m rickerwaves``."""

    name = "cli_session"

    def __init__(self, ctx):
        self.ctx = ctx
        self.reference = checks.load_reference()
        self.config = ctx.tmp / "readme.cfg"
        self.config.write_text(inputs.config_text(inputs.README_CONFIG))
        self.identical = 0
        self.compared = 0

    def prepare(self, seed, index):
        ops = []
        for k, (sub, lattice) in enumerate(inputs.cli_round(seed, index)):
            path = self.config
            if lattice is not None:
                path = self.ctx.tmp / f"sweep_{index}_{k}.cfg"
                path.write_text(inputs.cli_sweep_config(lattice))
            ops.append((sub, lattice, path))
        return ops

    def label(self, op):
        return op[0]

    def execute(self, op, tracer=None) -> OpResult:
        sub, lattice, path = op
        argv = [sub, "--config", str(path)]
        out_dir = None
        if sub == "simulate":
            out_dir = Path(tempfile.mkdtemp(prefix="snaps_", dir=self.ctx.tmp))
            argv += ["--out", str(out_dir)]
        spans_path = self.ctx.tmp / "child_spans.json"
        if tracer is None:
            command = [sys.executable, "-m", "rickerwaves", *argv]
        else:
            command = [sys.executable, str(HERE / "traced_cli.py"), str(spans_path), *argv]
        start = time.perf_counter()
        try:
            proc = subprocess.run(command, capture_output=True, text=True,
                                  env=self.ctx.child_env, cwd=self.ctx.tmp,
                                  timeout=CLI_TIMEOUT_S)
        except subprocess.TimeoutExpired:
            return OpResult(sub, time.perf_counter() - start, failed_items=1,
                            problems=[f"{sub}: timed out after {CLI_TIMEOUT_S} s"])
        latency = time.perf_counter() - start
        result = OpResult(sub, latency, attrs={"sub": sub, "kind": "cli"})
        if tracer is not None and spans_path.exists():
            tracer.adopt(json.loads(spans_path.read_text()), tracer.current)
            spans_path.unlink()
        if proc.returncode != 0:
            result.failed_items = 1
            result.wrong = proc.returncode == 1  # the CLI's own checks failed
            result.problems.append(f"{sub}: exit {proc.returncode}: {proc.stderr.strip()[-300:]}")
        elif sub == "sweep":
            result.problems += checks.check_sweep_table(proc.stdout, lattice, "gaussian")
        else:
            reference = self.reference["cli"][sub]
            result.problems += checks.check_cli_table(sub, proc.stdout, reference["body"])
            self.compared += 1
            self.identical += proc.stdout == reference["body"]
            if out_dir is not None:
                problems, identical = checks.check_snapshots(out_dir, self.reference)
                result.problems += problems
                self.compared += len(reference["snapshot_sha256"])
                self.identical += identical
        if out_dir is not None:
            shutil.rmtree(out_dir, ignore_errors=True)
        if result.problems and not result.failed_items:
            result.failed_items = 1
            result.wrong = True
        return result

    def summary(self) -> dict:
        return {"csv_bodies_byte_identical": self.identical,
                "csv_bodies_compared": self.compared}


def _kernel(kernels, family, width):
    if family == "gaussian":
        return kernels.GaussianKernel(sigma=width)
    return kernels.UniformKernel(halfwidth=width)


class WaveMap:
    """In-process: find_bistable_wave then validate_profile, per cell."""

    name = "wave_map"

    def __init__(self, ctx):
        from rickerwaves import evolution, kernels, model, waves

        self.evolution, self.kernels, self.model, self.waves = evolution, kernels, model, waves
        self.reference = checks.load_reference()
        self.speeds = {}

    def prepare(self, seed, index):
        ops = []
        for cell in inputs.wave_pass(seed, index):
            params = self.model.ModelParams(r1=cell.r1, r2=cell.r2, a1=cell.a1, a2=cell.a2)
            k1 = _kernel(self.kernels, cell.family, cell.width1)
            k2 = _kernel(self.kernels, cell.family, cell.width2)
            # cells at the default spacing use the solver's default grid
            grid = None
            if cell.dx != self.evolution.DEFAULT_DX:
                grid = self.evolution.Grid(half_length=inputs.WAVE_HALF_LENGTH, dx=cell.dx)
            ops.append((cell, params, k1, k2, grid))
        return ops

    def label(self, op):
        return op[0].label

    def execute(self, op, tracer=None) -> OpResult:
        cell, params, k1, k2, grid = op
        start = time.perf_counter()
        try:
            wp = self.waves.find_bistable_wave(params, k1, k2, grid)
            validation = self.waves.validate_profile(wp)
        except Exception as exc:  # noqa: BLE001 - a failed operation is counted
            return OpResult(cell.label, time.perf_counter() - start, failed_items=1,
                            problems=[f"{cell.label}: {type(exc).__name__}: {exc}"])
        latency = time.perf_counter() - start
        problems = checks.check_wave(cell, wp, validation, self.reference)
        self.speeds.setdefault(cell.label, wp.speed)
        return OpResult(cell.label, latency, failed_items=int(bool(problems)),
                        wrong=bool(problems), problems=problems,
                        attrs={"cell": cell.label, "speed": wp.speed, "steps": wp.steps})

    def summary(self) -> dict:
        return checks.speed_errors(self.speeds, self.reference)


def sweep_args(jobs=1):
    return argparse.Namespace(out=None, jobs=jobs, seed=0, curve=False, frame="transformed")


class SpeedMap:
    """In-process ``cli.run("sweep", ...)`` with one job over seeded lattices."""

    name = "speed_map"

    def __init__(self, ctx):
        from rickerwaves import cli

        self.cli = cli
        self.ctx = ctx

    def prepare(self, seed, index):
        ops = []
        for lattice in inputs.speed_pass(seed, index):
            path = self.ctx.tmp / f"{lattice.label}.cfg"
            path.write_text(lattice.config())
            ops.append((lattice, self.cli.load_config(path)))
        return ops

    def label(self, op):
        return op[0].label

    def execute(self, op, tracer=None) -> OpResult:
        lattice, cfg = op
        out = io.StringIO()
        start = time.perf_counter()
        try:
            report = self.cli.run("sweep", cfg, out, sweep_args())
        except Exception as exc:  # noqa: BLE001 - a failed operation is counted
            return OpResult(lattice.label, time.perf_counter() - start,
                            items=lattice.cells, failed_items=lattice.cells,
                            problems=[f"{lattice.label}: {type(exc).__name__}: {exc}"])
        latency = time.perf_counter() - start
        problems = checks.check_sweep_table(out.getvalue(), lattice.lattice, lattice.family)
        if not report.passed:
            problems.append(f"{lattice.label}: sweep report did not pass")
        return OpResult(lattice.label, latency, items=lattice.cells,
                        failed_items=min(len(problems), lattice.cells),
                        wrong=bool(problems), problems=problems)

    def summary(self) -> dict:
        return {}


def run_ops(workload, ops, tracer=None) -> list:
    """Execute operations; with a tracer, each inside a ``bench.op`` span and
    with the layer boundaries wrapped."""
    if tracer is None:
        return [workload.execute(op) for op in ops]
    results = []
    with tracer.installed(rickerwaves_modules()):
        for op in ops:
            tracer.new_op()
            with tracer.span("bench.op", label=workload.label(op)) as attrs:
                result = workload.execute(op, tracer)
                attrs.update(result.attrs)
            results.append(result)
    return results


WORKLOADS = {cls.name: cls for cls in (CliSession, WaveMap, SpeedMap)}
