"""Command-line front end: config files, subcommands, CSV reports.

Config files are flat ``section.key = value`` lines ('#' starts a
comment).  Flags override file values.  All numeric output uses 12
significant digits and CSV bodies are deterministic for a fixed config;
the resolved-config digest rides along in a leading comment line.
"""

from __future__ import annotations

import argparse
import hashlib
import itertools
import sys
import time
from dataclasses import dataclass, field, replace
from pathlib import Path

import numpy as np

from . import evolution, kernels, model, speeds, waves
from .errors import ConfigError, ParameterError

# ---------------------------------------------------------------------------
# configuration


_KERNEL_KEYS = ("family", "sigma", "halfwidth", "table_path")

_WAVE_DEFAULTS = waves.WaveOptions()

# key -> (parser, default); None default means "required" or "unset"; the
# library defaults are read from the modules that own them
_KEY_SPEC = {
    "model.r1": (float, None),
    "model.r2": (float, None),
    "model.a1": (float, None),
    "model.a2": (float, None),
    "kernel.family": (str, None),
    "kernel.sigma": (float, None),
    "kernel.halfwidth": (float, None),
    "kernel.table_path": (str, None),
    "kernel1.family": (str, None),
    "kernel1.sigma": (float, None),
    "kernel1.halfwidth": (float, None),
    "kernel1.table_path": (str, None),
    "kernel2.family": (str, None),
    "kernel2.sigma": (float, None),
    "kernel2.halfwidth": (float, None),
    "kernel2.table_path": (str, None),
    "kernel.eps_trunc": (float, kernels.DEFAULT_TRUNCATION),
    "grid.L": (float, evolution.DEFAULT_HALF_LENGTH),
    "grid.dx": (float, evolution.DEFAULT_DX),
    "solver.profile_tol": (float, _WAVE_DEFAULTS.profile_tol),
    "solver.speed_tol": (float, _WAVE_DEFAULTS.speed_tol),
    "solver.max_steps": (int, _WAVE_DEFAULTS.max_steps),
    "solver.init_width": (float, _WAVE_DEFAULTS.init_width),
    "sim.steps": (int, 150),
    "sim.thin": (int, 10),
    "sim.init": (str, "step"),
    "sim.init_width": (float, 1.0),
    "sim.frame": (str, "transformed"),
    "sweep.r1": ("floatlist", None),
    "sweep.r2": ("floatlist", None),
    "sweep.a1": ("floatlist", None),
    "sweep.a2": ("floatlist", None),
    "sweep.sigma": ("floatlist", None),
}

_REQUIRED = ("model.r1", "model.r2", "model.a1", "model.a2", "kernel.family")

_SWEEP_ORDER = ("r1", "r2", "a1", "a2", "sigma")


def _parse_value(key: str, raw: str, where: str):
    parser, _ = _KEY_SPEC[key]
    try:
        if parser == "floatlist":
            items = [piece for piece in raw.replace(",", " ").split() if piece]
            if not items:
                raise ValueError("empty list")
            return [float(piece) for piece in items]
        return parser(raw)
    except ValueError as exc:
        raise ConfigError(f"{where}: bad value for {key}: {raw!r} ({exc})") from exc


@dataclass
class ExperimentConfig:
    """Resolved experiment description (file values plus flag overrides)."""

    params: model.ModelParams
    kernel1: kernels.Kernel
    kernel2: kernels.Kernel
    half_length: float
    dx: float
    wave_opts: waves.WaveOptions
    sim_steps: int
    sim_thin: int
    sim_init: str
    sim_init_width: float
    sim_frame: str
    sweep: dict
    raw: dict = field(default_factory=dict)

    @property
    def digest(self) -> str:
        blob = "\n".join(f"{k} = {self.raw[k]}" for k in sorted(self.raw))
        return hashlib.sha256(blob.encode()).hexdigest()[:12]

    def grid(self) -> evolution.Grid:
        return evolution.Grid(half_length=self.half_length, dx=self.dx)


def _build_kernel(entries: dict, base_dir: Path, which: str) -> kernels.Kernel:
    """``kernels.make_kernel`` on one kernel's entries; a table is read from its file."""
    spec = {"sigma": entries["sigma"], "halfwidth": entries["halfwidth"]}
    if entries["family"].lower() == "table":
        path = entries["table_path"]
        if path is None:
            raise ConfigError(f"{which}: table kernel needs kernel.table_path")
        table = np.loadtxt(base_dir / path)
        if table.ndim != 2 or table.shape[1] != 2:
            raise ConfigError(f"{which}: table file must have two columns (offset, density)")
        spec.update(offsets=table[:, 0], densities=table[:, 1])
    try:
        return kernels.make_kernel(entries["family"], **spec)
    except ParameterError as exc:
        raise ConfigError(f"{which}: {exc}") from exc


def load_config(path, overrides: dict | None = None) -> ExperimentConfig:
    """Parse a key = value config file and apply flag overrides."""
    path = Path(path)
    try:
        text = path.read_text()
    except OSError as exc:
        raise ConfigError(f"cannot read config {path}: {exc}") from exc

    values = {}
    for lineno, line in enumerate(text.splitlines(), start=1):
        stripped = line.split("#", 1)[0].strip()
        if not stripped:
            continue
        if "=" not in stripped:
            raise ConfigError(f"{path}:{lineno}: expected 'key = value', got {line!r}")
        key, raw = (piece.strip() for piece in stripped.split("=", 1))
        if key not in _KEY_SPEC:
            raise ConfigError(f"{path}:{lineno}: unknown key {key!r}")
        values[key] = _parse_value(key, raw, f"{path}:{lineno}")

    for key, raw in (overrides or {}).items():
        if key not in _KEY_SPEC:
            raise ConfigError(f"override: unknown key {key!r}")
        values[key] = _parse_value(key, str(raw), "override") if isinstance(raw, str) else raw

    missing = [key for key in _REQUIRED if values.get(key) is None]
    if missing:
        raise ConfigError(f"{path}: missing required keys: {', '.join(missing)}")

    def get(key):
        value = values.get(key)
        if value is None:
            return _KEY_SPEC[key][1]
        return value

    # per-kernel entries fall back to the shared kernel.* ones
    shared = {name: get(f"kernel.{name}") for name in _KERNEL_KEYS}
    entry1 = {name: values.get(f"kernel1.{name}", shared[name]) for name in _KERNEL_KEYS}
    entry2 = {name: values.get(f"kernel2.{name}", shared[name]) for name in _KERNEL_KEYS}
    base_dir = path.parent

    for tol_key in ("kernel.eps_trunc", "solver.profile_tol", "solver.speed_tol"):
        if get(tol_key) <= 0:
            raise ConfigError(f"{tol_key} must be positive, got {get(tol_key)}")

    sweep = {}
    for name in _SWEEP_ORDER:
        lattice = values.get(f"sweep.{name}")
        if lattice is not None:
            sweep[name] = lattice

    cfg = ExperimentConfig(
        params=model.ModelParams(
            r1=get("model.r1"), r2=get("model.r2"), a1=get("model.a1"), a2=get("model.a2")
        ),
        kernel1=_build_kernel(entry1, base_dir, "kernel1"),
        kernel2=_build_kernel(entry2, base_dir, "kernel2"),
        half_length=get("grid.L"),
        dx=get("grid.dx"),
        wave_opts=waves.WaveOptions(
            profile_tol=get("solver.profile_tol"),
            speed_tol=get("solver.speed_tol"),
            max_steps=get("solver.max_steps"),
            init_width=get("solver.init_width"),
            eps_trunc=get("kernel.eps_trunc"),
        ),
        sim_steps=get("sim.steps"),
        sim_thin=get("sim.thin"),
        sim_init=get("sim.init"),
        sim_init_width=get("sim.init_width"),
        sim_frame=get("sim.frame"),
        sweep=sweep,
        raw={k: repr(v) for k, v in sorted(values.items())},
    )
    return cfg


# ---------------------------------------------------------------------------
# reports and CSV plumbing


@dataclass
class CheckResult:
    name: str
    ok: bool
    detail: str


@dataclass
class RunReport:
    checks: list = field(default_factory=list)
    artifacts: list = field(default_factory=list)
    timings: dict = field(default_factory=dict)

    def add(self, name: str, ok: bool, detail: str = "") -> None:
        self.checks.append(CheckResult(name=name, ok=bool(ok), detail=detail))

    @property
    def passed(self) -> bool:
        return all(check.ok for check in self.checks)


def _fmt(value) -> str:
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, (int, np.integer)):
        return str(int(value))
    if isinstance(value, (float, np.floating)):
        return format(float(value), ".12g")
    return str(value)


def _quote(cell: str) -> str:
    if any(ch in cell for ch in ",\"\n"):
        return '"' + cell.replace('"', '""') + '"'
    return cell


def emit_csv(stream, digest: str, header, rows) -> None:
    stream.write(f"# config {digest}\n")
    stream.write(",".join(header) + "\n")
    for row in rows:
        stream.write(",".join(_quote(_fmt(cell)) for cell in row) + "\n")


# rows rendered by one format call; bounds the strings built at once on the
# largest grid allowed
_CSV_BLOCK_ROWS = 4096


def write_csv(path: Path, digest: str, header, columns) -> str:
    """Write float columns as a CSV artifact, byte for byte what emit_csv writes.

    Each block of rows is rendered by one ``%.12g`` format, the text ``_fmt``
    gives a float, without a Python call per cell.
    """
    path.parent.mkdir(parents=True, exist_ok=True)
    line = ",".join(["%.12g"] * len(columns)) + "\n"
    with open(path, "w", newline="\n") as handle:
        emit_csv(handle, digest, header, ())
        for start in range(0, len(columns[0]), _CSV_BLOCK_ROWS):
            block = np.column_stack([c[start : start + _CSV_BLOCK_ROWS] for c in columns])
            handle.write(line * len(block) % tuple(block.ravel().tolist()))
    return str(path)


# ---------------------------------------------------------------------------
# subcommands


def _axiom_grid(cfg: ExperimentConfig) -> evolution.Grid:
    # small desk-scale grid for the operator axiom surrogates
    return evolution.Grid(half_length=10.0, dx=cfg.dx)


def cmd_validate(cfg: ExperimentConfig, out, args) -> RunReport:
    report = RunReport()
    rng = np.random.default_rng(args.seed)

    t0 = time.perf_counter()
    params_report = model.validate_params(cfg.params)
    report.add("H1-admissible", params_report.passed, "; ".join(params_report.violations))
    for name, k in (("kernel1", cfg.kernel1), ("kernel2", cfg.kernel2)):
        hyp = kernels.validate_hypotheses(k)
        report.add(f"H2-finite-mgf-{name}", hyp.finite_mgf, "; ".join(hyp.violations))
        report.add(f"H3-symmetric-{name}", hyp.symmetric_nonnegative, "; ".join(hyp.notes))
    report.timings["hypotheses"] = time.perf_counter() - t0

    if not params_report.passed:
        rows = [(c.name, c.ok, c.detail) for c in report.checks]
        emit_csv(out, cfg.digest, ("check", "passed", "detail"), rows)
        return report

    grid = _axiom_grid(cfg)
    dk1 = kernels.discretize(cfg.kernel1, grid.dx, cfg.wave_opts.eps_trunc)
    dk2 = kernels.discretize(cfg.kernel2, grid.dx, cfg.wave_opts.eps_trunc)

    t0 = time.perf_counter()
    a1_err, worst = evolution.axiom_errors(cfg.params, dk1, dk2, grid, rng)
    report.add("A1-translation", a1_err <= 1e-12, f"interior sup error {_fmt(a1_err)}")
    report.add("A3-order-preserving", worst <= 1e-12, f"worst violation {_fmt(worst)}")
    report.timings["A1+A3"] = time.perf_counter() - t0

    t0 = time.perf_counter()
    try:
        cert = model.strong_stability_vectors(cfg.params)
        report.add(
            "A5-bistability",
            cert.f1_f2_unordered,
            f"delta {_fmt(cert.delta)}; intermediates unordered {cert.f1_f2_unordered}",
        )
    except Exception as exc:  # noqa: BLE001 - reported, not raised
        report.add("A5-bistability", False, str(exc))
    report.timings["A5"] = time.perf_counter() - t0

    t0 = time.perf_counter()
    cp = speeds.counter_propagation(cfg.params, cfg.kernel1, cfg.kernel2)
    report.add(
        "A6-counter-propagation",
        cp.passed,
        f"edge sum {_fmt(cp.sum_edge)}; interior sum {_fmt(cp.sum_interior)}",
    )
    report.timings["A6"] = time.perf_counter() - t0

    rows = [(c.name, c.ok, c.detail) for c in report.checks]
    emit_csv(out, cfg.digest, ("check", "passed", "detail"), rows)
    return report


def cmd_equilibria(cfg: ExperimentConfig, out, args) -> RunReport:
    report = RunReport()
    eqset = model.equilibria(cfg.params)
    rows = []
    for frame, points in (
        (model.ORIGINAL_FRAME, eqset.original()),
        (model.TRANSFORMED_FRAME, eqset.transformed()),
    ):
        for name, point in points.items():
            stab = model.classify_stability(cfg.params, point, frame)
            rows.append((name, frame, point[0], point[1], stab.label, stab.spectral_radius))
    emit_csv(
        out, cfg.digest,
        ("point", "frame", "u", "v", "stability", "spectral_radius"),
        rows,
    )
    report.add("equilibria", True, f"k1 {_fmt(eqset.k1)}; k2 {_fmt(eqset.k2)}")
    return report


def cmd_speeds(cfg: ExperimentConfig, out, args) -> RunReport:
    if args.curve and not args.out:
        raise ConfigError("speeds --curve needs --out DIR")
    report = RunReport()
    cp = speeds.counter_propagation(cfg.params, cfg.kernel1, cfg.kernel2)
    named = (
        ("c_minus_F1F3", cp.c_minus_F1F3),
        ("c_plus_F0F1", cp.c_plus_F0F1),
        ("c_minus_F2F3", cp.c_minus_F2F3),
        ("c_plus_F0F2", cp.c_plus_F0F2),
    )
    rows = [
        (name, sr.value, sr.mu_star, sr.method) for name, sr in named
    ]
    rows.append(("lambda_B0", cp.c_minus_F2F3.lambda0, 0.0, "matrix-eigenvalue"))
    rows.append(("sum_edge", cp.sum_edge, 0.0, "sum"))
    rows.append(("sum_interior", cp.sum_interior, 0.0, "sum"))
    emit_csv(out, cfg.digest, ("quantity", "value", "mu_star", "method"), rows)

    if args.curve:
        for name, sr in named:
            path = write_csv(
                Path(args.out) / f"curve_{name}.csv",
                cfg.digest,
                ("mu", "objective"),
                np.array(sr.curve).T,
            )
            report.artifacts.append(path)

    report.add("counter-propagation", cp.passed,
               f"edge {_fmt(cp.sum_edge)}; interior {_fmt(cp.sum_interior)}")
    return report


def _initial_state(cfg: ExperimentConfig, grid) -> evolution.SpatialState:
    if cfg.sim_frame not in (model.TRANSFORMED_FRAME, model.ORIGINAL_FRAME):
        raise ConfigError(f"unknown sim.frame {cfg.sim_frame!r} "
                          f"(expected {model.TRANSFORMED_FRAME} or {model.ORIGINAL_FRAME})")
    if cfg.sim_init == "step":
        state = waves.step_initial_data(grid, cfg.sim_init_width)
        if cfg.sim_frame == model.ORIGINAL_FRAME:
            state = model.change_coordinates(state)
        return state
    if cfg.sim_init == "bump":
        bump = np.exp(-0.5 * (grid.x / cfg.sim_init_width) ** 2)
        return evolution.SpatialState(grid=grid, frame=cfg.sim_frame, U=bump, V=bump.copy())
    raise ConfigError(f"unknown sim.init {cfg.sim_init!r} (expected step or bump)")


def cmd_simulate(cfg: ExperimentConfig, out, args) -> RunReport:
    if not args.out:
        raise ConfigError("simulate needs --out DIR")
    report = RunReport()
    grid = cfg.grid()
    dk1 = kernels.discretize(cfg.kernel1, grid.dx, cfg.wave_opts.eps_trunc)
    dk2 = kernels.discretize(cfg.kernel2, grid.dx, cfg.wave_opts.eps_trunc)
    state = _initial_state(cfg, grid)

    t0 = time.perf_counter()
    trajectory = evolution.iterate(
        state, cfg.params, dk1, dk2, cfg.sim_steps, keep_every=cfg.sim_thin
    )
    report.timings["simulate"] = time.perf_counter() - t0

    for snap in trajectory:
        path = write_csv(
            Path(args.out) / f"sim_step_{snap.step:05d}.csv",
            cfg.digest,
            ("x", "U", "V"),
            (grid.x, snap.U, snap.V),
        )
        report.artifacts.append(path)

    final = trajectory[-1]
    emit_csv(
        out, cfg.digest,
        ("saved_states", "final_step", "U_min", "U_max", "V_min", "V_max"),
        [(len(trajectory), final.step, final.U.min(), final.U.max(),
          final.V.min(), final.V.max())],
    )
    report.add("simulate", True, f"{len(trajectory)} snapshots")
    return report


# largest relative error of a discretized kernel's MGF at the tail decay
# rate that the wave report accepts: well above the error of a uniform
# kernel at the default dx (3.3e-3 at halfwidth 0.5, 2.1e-4 at halfwidth 2),
# below the -0.29 of a sigma = 1 Gaussian at dx = 5, whose front then moves
# 2.6 times too fast
MGF_REL_TOL = 5e-2


def cmd_wave(cfg: ExperimentConfig, out, args) -> RunReport:
    report = RunReport()
    if "grid.L" in cfg.raw:
        grid = cfg.grid()
    else:
        grid = waves.wave_grid(cfg.params, cfg.kernel1, cfg.kernel2, cfg.dx, cfg.wave_opts)
    t0 = time.perf_counter()
    wp = waves.find_bistable_wave(cfg.params, cfg.kernel1, cfg.kernel2, grid, cfg.wave_opts)
    report.timings["wave"] = time.perf_counter() - t0
    validation = waves.validate_profile(wp)

    phi, psi = wp.phi, wp.psi
    frame = getattr(args, "frame", model.TRANSFORMED_FRAME)
    if frame == model.ORIGINAL_FRAME:
        phi = 1.0 - phi

    if args.out:
        path = write_csv(
            Path(args.out) / "wave_profile.csv",
            cfg.digest,
            ("x", "phi", "psi"),
            (wp.grid.x, phi, psi),
        )
        report.artifacts.append(path)

    emit_csv(
        out, cfg.digest,
        ("speed", "residual", "steps", "monotone", "range", "left_tail",
         "right_tail", "residual_ok"),
        [(wp.speed, wp.residual, wp.steps, validation.monotone_ok,
          validation.range_ok, validation.left_tail_ok,
          validation.right_tail_ok, validation.residual_ok)],
    )
    report.add(
        "wave-converged", True,
        f"speed {_fmt(wp.speed)} in {wp.steps} steps (speed_error {_fmt(wp.speed_error)}, "
        f"contraction_rate {_fmt(wp.contraction_rate)})",
    )
    report.add("wave-profile-valid", validation.passed, str(validation.details))

    # a grid too coarse for a kernel shows as a discrete MGF that departs
    # from the continuous one at the rate the profile tails decay
    errors = [
        kernels.discretize(k, wp.grid.dx, cfg.wave_opts.eps_trunc).mgf(wp.decay_rate)
        / k.mgf(wp.decay_rate) - 1.0
        for k in (cfg.kernel1, cfg.kernel2)
    ]
    report.add(
        "wave-kernel-resolved",
        max(abs(e) for e in errors) <= MGF_REL_TOL,
        f"relative MGF error at decay rate {_fmt(wp.decay_rate)}: kernel1 "
        f"{_fmt(errors[0])}, kernel2 {_fmt(errors[1])} (tolerance {_fmt(MGF_REL_TOL)})",
    )
    return report


def _sweep_cell(cfg: ExperimentConfig, combo: dict):
    params = replace(
        cfg.params,
        **{name: combo[name] for name in ("r1", "r2", "a1", "a2") if name in combo},
    )
    kernel1, kernel2 = cfg.kernel1, cfg.kernel2
    if "sigma" in combo:
        if not (
            isinstance(kernel1, kernels.GaussianKernel)
            and isinstance(kernel2, kernels.GaussianKernel)
        ):
            raise ConfigError("sweep.sigma requires gaussian kernels")
        kernel1 = kernels.GaussianKernel(sigma=combo["sigma"])
        kernel2 = kernels.GaussianKernel(sigma=combo["sigma"])
    cp = speeds.counter_propagation(params, kernel1, kernel2)
    return params, combo.get("sigma"), cp


def cmd_sweep(cfg: ExperimentConfig, out, args) -> RunReport:
    report = RunReport()
    if not cfg.sweep:
        raise ConfigError("sweep subcommand needs at least one sweep.* lattice")
    names = [name for name in _SWEEP_ORDER if name in cfg.sweep]
    lattices = [cfg.sweep[name] for name in names]
    combos = [dict(zip(names, point)) for point in itertools.product(*lattices)]

    t0 = time.perf_counter()
    results = [_sweep_cell(cfg, combo) for combo in combos]
    report.timings["sweep"] = time.perf_counter() - t0

    rows = []
    all_ok = True
    for params, sigma, cp in results:
        rows.append(
            (
                params.r1, params.r2, params.a1, params.a2,
                sigma if sigma is not None else "",
                cp.c_minus_F1F3.value, cp.c_plus_F0F1.value,
                cp.c_minus_F2F3.value, cp.c_plus_F0F2.value,
                cp.sum_edge, cp.sum_interior, cp.passed,
            )
        )
        all_ok = all_ok and cp.passed
    header = (
        "r1", "r2", "a1", "a2", "sigma",
        "c_minus_F1F3", "c_plus_F0F1", "c_minus_F2F3", "c_plus_F0F2",
        "sum_edge", "sum_interior", "passed",
    )
    emit_csv(out, cfg.digest, header, rows)
    report.add("sweep-counter-propagation", all_ok, f"{len(rows)} cells")
    return report


_COMMANDS = {
    "validate": cmd_validate,
    "equilibria": cmd_equilibria,
    "speeds": cmd_speeds,
    "simulate": cmd_simulate,
    "wave": cmd_wave,
    "sweep": cmd_sweep,
}


def run(subcommand: str, cfg: ExperimentConfig, out=None, args=None) -> RunReport:
    """Run one subcommand against a resolved config; returns the report."""
    if subcommand not in _COMMANDS:
        raise ConfigError(f"unknown subcommand {subcommand!r}")
    if args is None:
        args = argparse.Namespace(out=None, seed=0, curve=False,
                                  frame=model.TRANSFORMED_FRAME)
    return _COMMANDS[subcommand](cfg, out or sys.stdout, args)


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="rickerwaves",
        description="Two-species Ricker competition on a line: validation, "
        "equilibria, spreading speeds, simulation, bistable fronts.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name in _COMMANDS:
        p = sub.add_parser(name)
        p.add_argument("--config", required=True, help="key = value config file")
        p.add_argument("--out", default=None, help="directory for CSV artifacts")
        p.add_argument("--seed", type=int, default=0, help="seed for randomized checks")
        p.add_argument("--dx", type=float, default=None, help="override grid.dx")
        p.add_argument("--L", type=float, default=None, help="override grid.L")
        p.add_argument("--steps", type=int, default=None, help="override sim.steps")
        p.add_argument(
            "--set", action="append", default=[], metavar="KEY=VALUE",
            help="override any config key",
        )
        if name == "speeds":
            p.add_argument("--curve", action="store_true",
                           help="write (mu, objective) samples to --out")
        if name == "simulate":
            p.add_argument("--thin", type=int, default=None,
                           help="override sim.thin (snapshot stride)")
            p.add_argument("--init", choices=("step", "bump"), default=None,
                           help="override sim.init (initial-data shape)")
        if name == "wave":
            p.add_argument(
                "--frame", choices=(model.ORIGINAL_FRAME, model.TRANSFORMED_FRAME),
                default=model.TRANSFORMED_FRAME, help="output coordinates",
            )
    return parser


def _overrides_from_args(args) -> dict:
    overrides = {}
    if args.dx is not None:
        overrides["grid.dx"] = str(args.dx)
    if args.L is not None:
        overrides["grid.L"] = str(args.L)
    if args.steps is not None:
        overrides["sim.steps"] = str(args.steps)
    if getattr(args, "thin", None) is not None:
        overrides["sim.thin"] = str(args.thin)
    if getattr(args, "init", None) is not None:
        overrides["sim.init"] = args.init
    for item in args.set:
        if "=" not in item:
            raise ConfigError(f"--set expects KEY=VALUE, got {item!r}")
        key, value = item.split("=", 1)
        overrides[key.strip()] = value.strip()
    return overrides


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    if not hasattr(args, "curve"):
        args.curve = False
    try:
        cfg = load_config(args.config, _overrides_from_args(args))
        report = run(args.command, cfg, sys.stdout, args)
    except Exception as exc:  # noqa: BLE001 - CLI boundary
        print(f"error: {exc}", file=sys.stderr)
        return 2
    return 0 if report.passed else 1


if __name__ == "__main__":
    sys.exit(main())
