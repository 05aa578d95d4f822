"""Command-line front end: config files, subcommands, CSV reports.

Config files are flat ``section.key = value`` lines ('#' starts a
comment).  ``--set KEY=VALUE`` overrides a file value.  A setting is read
as ``cfg[key]``, with its ``_KEY_SPEC`` default when unset.  All numeric output
uses 12 significant digits and CSV bodies are deterministic for a fixed
config; the resolved-config digest rides along in a leading comment line.

Each subcommand ``cmd_*`` takes ``(cfg, args)``, writes its own ``--out``
artifacts and returns ``(header, rows, checks)``: its one table and its
``(name, ok, detail)`` check rows.  ``run`` alone writes the table, to stdout by
default, and builds the ``RunReport`` from the checks; ``main`` exits 1 when a
check fails and names it on stderr.

``validate``, ``equilibria``, ``speeds`` and ``sweep`` compute on Python floats
and import no numpy; a table kernel, ``speeds --curve``, ``simulate`` and
``wave`` load it on first use.
"""

from __future__ import annotations

import argparse
import hashlib
import itertools
import math
import sys
from collections import namedtuple
from pathlib import Path

from . import kernels, model, speeds
from .errors import ConfigError, DegenerateDataError, ParameterError, SearchError

TYPE_CHECKING = False  # True to a type checker; spares importing typing
if TYPE_CHECKING:
    from . import evolution, waves

# ---------------------------------------------------------------------------
# configuration


_MODEL_KEYS = ("r1", "r2", "a1", "a2")

# one kernel's keys and parsers, in each of the sections kernel, kernel1 and kernel2
_KERNEL_KEYS = {"family": str, "sigma": float, "halfwidth": float, "table_path": str}

# the solver.* keys: the fields of waves.WaveOptions, with their parsers
_SOLVER_KEYS = {"profile_tol": float, "speed_tol": float, "max_steps": int}

_SWEEP_ORDER = (*_MODEL_KEYS, "sigma")


def _floatlist(raw: str) -> list:
    # a sweep lattice: numbers separated by commas or spaces
    items = raw.replace(",", " ").split()
    if not items:
        raise ValueError("empty list")
    return [float(piece) for piece in items]


# key -> (parser, default); None default means "required" or "unset".  An
# unset grid.dx or solver.* key takes the default of the module that owns it,
# evolution.DEFAULT_DX or waves.WaveOptions, when a grid command reads it
_KEY_SPEC = {
    **{f"model.{name}": (float, None) for name in _MODEL_KEYS},
    **{f"{section}.{name}": (parser, None) for section in ("kernel", "kernel1", "kernel2")
       for name, parser in _KERNEL_KEYS.items()},
    "grid.L": (float, None),
    "grid.dx": (float, None),
    **{f"solver.{name}": (parser, None) for name, parser in _SOLVER_KEYS.items()},
    "sim.steps": (int, 150),
    "sim.thin": (int, 10),
    "sim.init": (str, "step"),
    "sim.init_width": (float, 1.0),
    "sim.frame": (str, "transformed"),
    **{f"sweep.{name}": (_floatlist, None) for name in _SWEEP_ORDER},
}

# each species also needs a kernel family, from kernel.family or its own
# kernelN.family; _build_kernel checks that
_REQUIRED = tuple(f"model.{name}" for name in _MODEL_KEYS)


def _parse_value(key: str, raw: str, where: str):
    try:
        return _KEY_SPEC[key][0](raw)
    except ValueError as exc:
        raise ConfigError(f"{where}: bad value for {key}: {raw!r} ({exc})") from exc


class ExperimentConfig:
    """Resolved experiment: the model, one kernel per species, and the values set.

    ``values`` holds the parsed value of each key that the file or an override
    sets; ``cfg[key]`` reads it, or the key's ``_KEY_SPEC`` default when unset.
    """

    def __init__(self, params: model.ModelParams, kernel1: kernels.Kernel,
                 kernel2: kernels.Kernel, values: dict):
        self.params = params
        self.kernel1 = kernel1
        self.kernel2 = kernel2
        self.values = values

    def __getitem__(self, key: str):
        return self.values.get(key, _KEY_SPEC[key][1])

    def _section(self, section: str, names) -> dict:
        # the keys of a section that the config sets, by name
        return {name: self.values[f"{section}.{name}"] for name in names
                if f"{section}.{name}" in self.values}

    @property
    def digest(self) -> str:
        blob = "\n".join(f"{k} = {self.values[k]!r}" for k in sorted(self.values))
        return hashlib.sha256(blob.encode()).hexdigest()[:12]

    @property
    def dx(self) -> float:
        from .evolution import DEFAULT_DX
        return DEFAULT_DX if self["grid.dx"] is None else self["grid.dx"]

    @property
    def wave_opts(self) -> waves.WaveOptions:
        from .waves import WaveOptions
        return WaveOptions(**self._section("solver", _SOLVER_KEYS))

    @property
    def sweep(self) -> dict:
        """The sweep.* lattices that the config sets, by axis name."""
        return self._section("sweep", _SWEEP_ORDER)

    def grid(self) -> evolution.Grid:
        # simulate's grid: grid.L, or the default half length when it is unset
        from . import evolution
        L = evolution.DEFAULT_HALF_LENGTH if self["grid.L"] is None else self["grid.L"]
        return evolution.Grid(half_length=L, dx=self.dx)


def _build_kernel(entries: dict, base_dir: Path, which: str) -> kernels.Kernel:
    """``kernels.make_kernel`` on one kernel's entries; a table is read from its file."""
    if entries["family"] is None:
        raise ConfigError(f"{which}: no kernel family: set kernel.family or {which}.family")
    spec = {"sigma": entries["sigma"], "halfwidth": entries["halfwidth"]}
    if entries["family"].lower() == "table":
        path = entries["table_path"]
        if path is None:
            raise ConfigError(f"{which}: table kernel needs {which}.table_path")
        import numpy as np
        try:
            table = np.loadtxt(base_dir / path)
        except (OSError, ValueError) as exc:
            raise ConfigError(f"{which}: cannot read table {base_dir / path}: {exc}") from exc
        if table.ndim != 2 or table.shape[1] != 2:
            raise ConfigError(f"{which}: table file must have two columns (offset, density)")
        spec.update(offsets=table[:, 0], densities=table[:, 1])
    try:
        return kernels.make_kernel(entries["family"], **spec)
    except ParameterError as exc:
        raise ConfigError(f"{which}: {exc}") from exc


def load_config(path, overrides: dict | None = None) -> ExperimentConfig:
    """Parse a key = value config file and apply overrides, each read like ``--set``."""
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
        key = key.strip()
        if key not in _KEY_SPEC:
            raise ConfigError(f"override: unknown key {key!r}")
        values[key] = _parse_value(key, str(raw).strip(), "override")

    missing = [key for key in _REQUIRED if key not in values]
    if missing:
        raise ConfigError(f"{path}: missing required keys: {', '.join(missing)}")

    # per-kernel entries fall back to the shared kernel.* ones
    entry1, entry2 = ({name: values.get(f"{section}.{name}", values.get(f"kernel.{name}"))
                       for name in _KERNEL_KEYS} for section in ("kernel1", "kernel2"))

    # species whose entries resolve equal share one kernel object; a table
    # equals only itself, so this is what makes kernel1 == kernel2 for tables
    kernel1 = _build_kernel(entry1, path.parent, "kernel1")
    kernel2 = kernel1 if entry2 == entry1 else _build_kernel(entry2, path.parent, "kernel2")

    params = model.ModelParams(**{name: values[f"model.{name}"] for name in _MODEL_KEYS})
    return ExperimentConfig(params, kernel1, kernel2, values)


# ---------------------------------------------------------------------------
# reports and CSV plumbing


CheckResult = namedtuple("CheckResult", "name ok detail")


class RunReport:
    """The checks of one run, as CheckResult rows whose ``ok`` is a bool."""

    def __init__(self, checks):
        self.checks = [CheckResult(name, bool(ok), detail) for name, ok, detail in checks]

    @property
    def passed(self) -> bool:
        return all(check.ok for check in self.checks)


def _fmt(value) -> str:
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, float):
        return format(value, ".12g")
    return str(value)


def _quote(cell: str) -> str:
    if "," in cell or '"' in cell or "\n" in cell:
        return '"' + cell.replace('"', '""') + '"'
    return cell


def emit_csv(stream, digest: str, header, rows) -> None:
    """Write the digest comment, the header and one line per row, in one write.

    Each cell is ``_quote(_fmt(cell))``; a bool is written as "true" or
    "false", the same text without the calls.  Each distinct Python float is
    formatted by one ``%.12g`` the first time the table holds it, and its text
    is looked up after that, so a table's repeated speeds and axis values are
    formatted once.  A zero is formatted every time: 0.0 and -0.0 are one key
    but two texts.  Only ``type(cell) is float`` is looked up, so 1.0 never
    shares an entry with 1 or True.
    """
    lines = [f"# config {digest}", ",".join(header)]
    text = {}  # float -> its %.12g text, for this table only
    for row in rows:
        cells = []
        for cell in row:
            if type(cell) is float:
                formatted = text.get(cell)
                if formatted is None:
                    formatted = "%.12g" % cell
                    if cell:
                        text[cell] = formatted
                cells.append(formatted)
            elif type(cell) is bool:
                cells.append("true" if cell else "false")
            else:
                cells.append(_quote(_fmt(cell)))
        lines.append(",".join(cells))
    stream.write("\n".join(lines) + "\n")


# rows rendered by one format call; bounds the strings built at once on the
# largest grid allowed
_CSV_BLOCK_ROWS = 4096


def write_csv(path: Path, digest: str, header, columns) -> str:
    """Write float columns as a CSV artifact, byte for byte what emit_csv writes.

    Each block of rows is rendered by one ``%.12g`` format, the text ``_fmt``
    gives a float, without a Python call per cell.
    """
    import numpy as np
    path.parent.mkdir(parents=True, exist_ok=True)
    line = ",".join(["%.12g"] * len(columns)) + "\n"
    with open(path, "w", newline="\n") as handle:
        emit_csv(handle, digest, header, ())
        for start in range(0, len(columns[0]), _CSV_BLOCK_ROWS):
            block = np.column_stack([c[start : start + _CSV_BLOCK_ROWS] for c in columns])
            handle.write(line * len(block) % tuple(block.ravel().tolist()))
    return str(path)


# ---------------------------------------------------------------------------
# subcommands: (cfg, args) -> (header, rows, checks), as the module docstring says


def cmd_validate(cfg: ExperimentConfig, args) -> tuple:
    checks = []

    def check(name, validate, arg) -> bool:
        # a row from whether the hypothesis check raised, with its message
        try:
            validate(arg)
        except ParameterError as exc:
            checks.append((name, False, str(exc)))
            return False
        checks.append((name, True, ""))
        return True

    admissible = check("H1-admissible", model.validate_params, cfg.params)
    for name, k in (("kernel1", cfg.kernel1), ("kernel2", cfg.kernel2)):
        check(f"H2-finite-mgf-{name}", kernels.validate_hypotheses, k)
        # symmetric and nonnegative by construction (H3)
        symmetrized = isinstance(k, kernels.TableKernel) and k.symmetrized
        checks.append((f"H3-symmetric-{name}", True,
                       "input table was asymmetric; symmetrized on construction"
                       if symmetrized else ""))

    # on admissible parameters only; A1, A3 and A5 hold by construction, as H3
    # does: in the cooperative frame 1 - gu and gv rise in U and V when r1,
    # r2 < 1 (H1), the weights are nonnegative cell masses on a uniform
    # lattice, and the corner Jacobians contract along positive directions
    if admissible:
        checks.append(("A1-translation", True,
                       "a lattice convolution commutes with whole-cell shifts"))
        checks.append(("A3-order-preserving", True, "holds by (H1) and nonnegative weights"))
        low, high = model.strong_stability_vectors(cfg.params).margins
        checks.append(("A5-bistability", True,
                       f"F0 contracts by {_fmt(low)}; F3 contracts by {_fmt(high)}; "
                       "F1 and F2 unordered by (H1)"))

        try:
            cp = speeds.counter_propagation(cfg.params, cfg.kernel1, cfg.kernel2)
        except (DegenerateDataError, SearchError) as exc:  # reported, not raised
            checks.append(("A6-counter-propagation", False, str(exc)))
        else:
            checks.append(("A6-counter-propagation", cp.passed,
                           f"edge sum {_fmt(cp.sum_edge)}; interior sum {_fmt(cp.sum_interior)}"))

    # the table is the check rows, each ok a bool
    return ("check", "passed", "detail"), checks, checks


def cmd_equilibria(cfg: ExperimentConfig, args) -> tuple:
    eqset = model.equilibria(cfg.params)
    stab = {name: model.classify_stability(cfg.params, point, model.ORIGINAL_FRAME)
            for name, point in eqset.original().items()}
    rows = []
    for frame, points in ((model.ORIGINAL_FRAME, eqset.original()),
                          (model.TRANSFORMED_FRAME, eqset.transformed())):
        for name, point in points.items():
            s = stab[model._CONJUGATE.get(name, name)]  # a cooperative row: its conjugate's
            rows.append((name, frame, point[0], point[1], s.label, s.spectral_radius))
    return (("point", "frame", "u", "v", "stability", "spectral_radius"), rows,
            [("equilibria", True, f"k1 {_fmt(eqset.k1)}; k2 {_fmt(eqset.k2)}")])


def cmd_speeds(cfg: ExperimentConfig, args) -> tuple:
    if args.curve and not args.out:
        raise ConfigError("speeds --curve needs --out DIR")
    cp = speeds.counter_propagation(cfg.params, cfg.kernel1, cfg.kernel2)
    named = (
        ("c_minus_F1F3", cp.c_minus_F1F3),
        ("c_plus_F0F1", cp.c_plus_F0F1),
        ("c_minus_F2F3", cp.c_minus_F2F3),
        ("c_plus_F0F2", cp.c_plus_F0F2),
    )
    if args.curve:
        digest = cfg.digest  # hashes every config value, so read once
        for name, sr in named:
            write_csv(Path(args.out) / f"curve_{name}.csv", digest, ("mu", "objective"),
                      tuple(zip(*sr.curve)))

    rows = [(name, sr.value, sr.mu_star, sr.method) for name, sr in named]
    rows.append(("lambda_B0", cp.c_minus_F2F3.lambda0, 0.0, "matrix-eigenvalue"))
    rows.append(("sum_edge", cp.sum_edge, 0.0, "sum"))
    rows.append(("sum_interior", cp.sum_interior, 0.0, "sum"))
    return (("quantity", "value", "mu_star", "method"), rows,
            [("counter-propagation", cp.passed,
              f"edge {_fmt(cp.sum_edge)}; interior {_fmt(cp.sum_interior)}")])


def _initial_state(cfg: ExperimentConfig, grid) -> evolution.SpatialState:
    # the frame, then sim.init, then the width are checked, for either start
    import numpy as np
    from . import evolution
    init, width, frame = cfg["sim.init"], cfg["sim.init_width"], cfg["sim.frame"]
    if frame not in (model.TRANSFORMED_FRAME, model.ORIGINAL_FRAME):
        raise ConfigError(f"unknown sim.frame {frame!r} "
                          f"(expected {model.TRANSFORMED_FRAME} or {model.ORIGINAL_FRAME})")
    if init not in ("step", "bump"):
        raise ConfigError(f"unknown sim.init {init!r} (expected step or bump)")
    if not 0.0 < width < math.inf:
        raise ConfigError(f"sim.init_width must be positive and finite, got {width}")
    if init == "bump":
        bump = np.exp(-0.5 * (grid.x / width) ** 2)
        return evolution.SpatialState(grid=grid, frame=frame, U=bump, V=bump)
    state = evolution.step_initial_data(grid, width)
    if frame == model.ORIGINAL_FRAME:
        return evolution.SpatialState(grid=grid, frame=frame, U=1.0 - state.U, V=state.V)
    return state


def cmd_simulate(cfg: ExperimentConfig, args) -> tuple:
    if not args.out:
        raise ConfigError("simulate needs --out DIR")
    from . import evolution
    grid = cfg.grid()
    # a shared kernel is discretized once, so both species share its spectra
    dk1 = kernels.discretize(cfg.kernel1, grid.dx)
    dk2 = dk1 if cfg.kernel1 == cfg.kernel2 else kernels.discretize(cfg.kernel2, grid.dx)
    state = _initial_state(cfg, grid)
    steps, thin = cfg["sim.steps"], cfg["sim.thin"]
    if steps < 0:
        raise ConfigError(f"sim.steps must be nonnegative, got {steps}")
    if thin < 1:
        raise ConfigError(f"sim.thin must be at least 1, got {thin}")

    # each snapshot is written once its step exists, so only the current
    # state and the one it came from are held
    out, digest = Path(args.out), cfg.digest  # hashes every config value, so read once
    saved = 0
    for n in range(steps + 1):
        if n:
            state = evolution.apply_Q(state, cfg.params, dk1, dk2)
        if n % thin == 0 or n == steps:
            write_csv(out / f"sim_step_{n:05d}.csv", digest, ("x", "U", "V"),
                      (grid.x, state.U, state.V))
            saved += 1

    return (("saved_states", "final_step", "U_min", "U_max", "V_min", "V_max"),
            [(saved, state.step, state.U.min(), state.U.max(),
              state.V.min(), state.V.max())],
            [("simulate", True, f"{saved} snapshots")])


# largest relative error of a discretized kernel's MGF at the tail decay
# rate that the wave report accepts: well above the error of a uniform
# kernel at the default dx (3.3e-3 at halfwidth 0.5, 2.1e-4 at halfwidth 2),
# below the -0.29 of a sigma = 1 Gaussian at dx = 5, whose front then moves
# 2.6 times too fast
MGF_REL_TOL = 5e-2


def cmd_wave(cfg: ExperimentConfig, args) -> tuple:
    from . import waves
    # without grid.L the solver sizes the grid at grid.dx
    wp = waves.find_bistable_wave(cfg.params, cfg.kernel1, cfg.kernel2,
                                  None if cfg["grid.L"] is None else cfg.grid(),
                                  cfg.wave_opts, dx=cfg.dx)
    validation = waves.validate_profile(wp)

    phi, psi = wp.phi, wp.psi
    if args.frame == model.ORIGINAL_FRAME:
        phi = 1.0 - phi

    if args.out:
        write_csv(
            Path(args.out) / "wave_profile.csv",
            cfg.digest,
            ("x", "phi", "psi"),
            (wp.grid.x, phi, psi),
        )

    # a grid too coarse for a kernel shows as a discrete MGF that departs
    # from the continuous one at the rate the profile tails decay
    errors = [dk.moments(wp.decay_rate)[0] / k.moments(wp.decay_rate)[0] - 1.0
              for dk, k in zip(wp.discrete_kernels, (cfg.kernel1, cfg.kernel2))]
    return (
        ("speed", "residual", "steps", "monotone", "range", "left_tail",
         "right_tail", "residual_ok"),
        [(wp.speed, wp.residual, wp.steps, validation.monotone_ok,
          validation.range_ok, validation.left_tail_ok,
          validation.right_tail_ok, validation.residual_ok)],
        [("wave-converged", True,
          f"speed {_fmt(wp.speed)} in {wp.steps} steps (speed_error {_fmt(wp.speed_error)}, "
          f"contraction_rate {_fmt(wp.contraction_rate)})"),
         ("wave-profile-valid", validation.passed, str(validation.details)),
         ("wave-kernel-resolved", max(abs(e) for e in errors) <= MGF_REL_TOL,
          f"relative MGF error at decay rate {_fmt(wp.decay_rate)}: kernel1 "
          f"{_fmt(errors[0])}, kernel2 {_fmt(errors[1])} (tolerance {_fmt(MGF_REL_TOL)})")],
    )


def cmd_sweep(cfg: ExperimentConfig, args) -> tuple:
    sweep = cfg.sweep
    if not sweep:
        raise ConfigError("sweep subcommand needs at least one sweep.* lattice")
    if "sigma" in sweep and not (isinstance(cfg.kernel1, kernels.GaussianKernel)
                                 and isinstance(cfg.kernel2, kernels.GaussianKernel)):
        raise ConfigError("sweep.sigma requires gaussian kernels")
    # the config's value stands in for each unset axis, so the product runs
    # the cells in _SWEEP_ORDER; a sigma's kernel is built at its first cell,
    # as is any error it raises, and each distinct (r, kernel) edge speed is
    # searched once
    axes = [sweep.get(name, [value]) for name, value in zip(_MODEL_KEYS, cfg.params)]
    axes.append(sweep.get("sigma", [None]))
    edge_memo, gaussians, rows = {}, {}, []
    for r1, r2, a1, a2, sigma in itertools.product(*axes):
        kernel1, kernel2 = cfg.kernel1, cfg.kernel2
        if sigma is not None:
            kernel1 = kernel2 = gaussians.get(sigma)
            if kernel1 is None:
                kernel1 = kernel2 = gaussians[sigma] = kernels.GaussianKernel(sigma=sigma)
        cp = speeds.counter_propagation(model.ModelParams(r1, r2, a1, a2),
                                        kernel1, kernel2, edge_memo)
        rows.append((r1, r2, a1, a2, "" if sigma is None else sigma,
                     cp.c_minus_F1F3.value, cp.c_plus_F0F1.value, cp.c_minus_F2F3.value,
                     cp.c_plus_F0F2.value, cp.sum_edge, cp.sum_interior, cp.passed))
    header = ("r1", "r2", "a1", "a2", "sigma", "c_minus_F1F3", "c_plus_F0F1",
              "c_minus_F2F3", "c_plus_F0F2", "sum_edge", "sum_interior", "passed")
    return (header, rows,
            [("sweep-counter-propagation", all(row[-1] for row in rows), f"{len(rows)} cells")])


_COMMANDS = {
    "validate": cmd_validate,
    "equilibria": cmd_equilibria,
    "speeds": cmd_speeds,
    "simulate": cmd_simulate,
    "wave": cmd_wave,
    "sweep": cmd_sweep,
}


def run(subcommand: str, cfg: ExperimentConfig, out=None, args=None) -> RunReport:
    """Run one subcommand against a resolved config: its table goes to out
    (stdout by default) under the config digest, and its checks come back as
    the report."""
    if subcommand not in _COMMANDS:
        raise ConfigError(f"unknown subcommand {subcommand!r}")
    if args is None:
        args = argparse.Namespace(out=None, curve=False,
                                  frame=model.TRANSFORMED_FRAME)
    header, rows, checks = _COMMANDS[subcommand](cfg, args)
    emit_csv(out or sys.stdout, cfg.digest, header, rows)
    return RunReport(checks)


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="rickerwaves",
        description="Two-species Ricker competition on a line: validation, "
        "equilibria, spreading speeds, simulation, bistable fronts.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name in _COMMANDS:
        # each subcommand takes only the flags it reads
        p = sub.add_parser(name)
        p.add_argument("--config", required=True, help="key = value config file")
        p.add_argument(
            "--set", action="append", default=[], metavar="KEY=VALUE",
            help="override any config key",
        )
        if name in ("speeds", "simulate", "wave"):
            p.add_argument("--out", default=None, help="directory for CSV artifacts")
        if name == "speeds":
            p.add_argument("--curve", action="store_true",
                           help="write (mu, objective) samples to --out")
        if name == "wave":
            p.add_argument(
                "--frame", choices=(model.ORIGINAL_FRAME, model.TRANSFORMED_FRAME),
                default=model.TRANSFORMED_FRAME, help="output coordinates",
            )
    return parser


def _overrides_from_args(args) -> dict:
    overrides = {}
    for item in args.set:
        if "=" not in item:
            raise ConfigError(f"--set expects KEY=VALUE, got {item!r}")
        key, value = item.split("=", 1)
        overrides[key] = value
    return overrides


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        cfg = load_config(args.config, _overrides_from_args(args))
        report = run(args.command, cfg, sys.stdout, args)
    except Exception as exc:  # noqa: BLE001 - CLI boundary
        print(f"error: {exc}", file=sys.stderr)
        return 2
    for check in report.checks:
        if not check.ok:  # stdout holds the table; stderr says why a check failed
            print(f"failed check {check.name}: {check.detail}", file=sys.stderr)
    return 0 if report.passed else 1


if __name__ == "__main__":
    sys.exit(main())
