"""Seeded inputs of the three workloads.

Everything the program receives is built here from the workload seed:
config files for the CLI, model/kernel/grid cells for the wave solver and
sweep lattices.  The same seed always gives the same inputs.  This module
uses only the standard library, so the CLI workload can build its inputs
without importing the package under test.

Seeds: the default seed is 1 and the held-out seed is 7.  Tune against the
default; confirm a claimed gain on the held-out seed as well.
"""

from __future__ import annotations

import random
from dataclasses import dataclass

DEFAULT_SEED = 1
HELDOUT_SEED = 7

# The README example: the configuration a new user runs first.
README_CONFIG = (
    ("model.r1", 0.5),
    ("model.r2", 0.5),
    ("model.a1", 2.0),
    ("model.a2", 3.0),
    ("kernel.family", "gaussian"),
    ("kernel.sigma", 1.0),
)

# Strong-competition box the seeded cells are drawn from.
R_RANGE = (0.2, 0.8)
A_RANGE = (1.5, 3.5)
SIGMA_RANGE = (0.5, 2.0)
HALFWIDTH_RANGE = (0.5, 3.0)


def config_text(pairs) -> str:
    return "".join(f"{key} = {value}\n" for key, value in pairs)


def _draw(rng, bounds, count):
    return sorted(round(rng.uniform(*bounds), 4) for _ in range(count))


def _lattice_lines(lattice: dict):
    return tuple((f"sweep.{name}", ", ".join(repr(v) for v in values))
                 for name, values in lattice.items())


# --------------------------------------------------------------------------
# cli_session: closed loop, one client, each call a fresh process.
# Why: this is how a scripted user meets the package.  Interpreter start-up
# plus `import rickerwaves` (mostly scipy.signal) is most of each call, so
# start-up and CSV-writing work show here and solver work barely registers.

CLI_SUBCOMMANDS = ("validate", "equilibria", "speeds", "simulate", "wave", "sweep")
CLI_LATTICE_SHAPE = {"r1": 2, "a1": 2, "a2": 2, "sigma": 2}  # 16 cells


def cli_round(seed: int, index: int):
    """One round: the six subcommands; returns (subcommand, sweep lattice)."""
    rng = random.Random(f"cli_session/{seed}/{index}")
    lattice = {
        "r1": _draw(rng, R_RANGE, CLI_LATTICE_SHAPE["r1"]),
        "a1": _draw(rng, A_RANGE, CLI_LATTICE_SHAPE["a1"]),
        "a2": _draw(rng, A_RANGE, CLI_LATTICE_SHAPE["a2"]),
        "sigma": _draw(rng, SIGMA_RANGE, CLI_LATTICE_SHAPE["sigma"]),
    }
    return [(sub, lattice if sub == "sweep" else None) for sub in CLI_SUBCOMMANDS]


def cli_sweep_config(lattice: dict) -> str:
    return config_text(README_CONFIG + _lattice_lines(lattice))


# --------------------------------------------------------------------------
# wave_map: in-process find_bistable_wave + validate_profile per cell.
# Why: this is the paper's computation, and convolution is about half of a
# solve.  The anchors span both sides of the FFT/direct crossover (N=4001,
# J=72 at dx=0.1; N=40001, J=714 at dx=0.01), and the stiff anchor is a cell
# whose step count, not its per-step cost, dominates.  It fails today
# (ConvergenceError after 2000 steps) and counts as a failure.


@dataclass(frozen=True)
class WaveCell:
    label: str
    r1: float
    r2: float
    a1: float
    a2: float
    family: str  # "gaussian" or "uniform"
    width1: float  # sigma, or halfwidth for uniform kernels
    width2: float
    dx: float
    known_speed: str | None = None  # key into reference.json
    speed_tol: float = 0.0


WAVE_ANCHORS = (
    WaveCell("readme_dx0.1", 0.5, 0.5, 2.0, 3.0, "gaussian", 1.0, 1.0, 0.1, "c_ref", 1e-4),
    WaveCell("sym_dx0.1", 0.5, 0.5, 2.0, 2.0, "gaussian", 1.0, 1.0, 0.1, "c_sym", 1e-3),
    WaveCell("readme_dx0.01", 0.5, 0.5, 2.0, 3.0, "gaussian", 1.0, 1.0, 0.01, "c_ref_dx0.01", 1e-4),
    WaveCell("sym_dx0.01", 0.5, 0.5, 2.0, 2.0, "gaussian", 1.0, 1.0, 0.01, "c_sym", 1e-3),
    WaveCell("uniform_dx0.1", 0.5, 0.5, 2.0, 3.0, "uniform", 2.0, 2.0, 0.1),
    WaveCell("stiff_dx0.1", 0.999, 0.001, 2.0, 3.0, "gaussian", 1.0, 1.0, 0.1),
)
WAVE_SEEDED_PER_PASS = 48
WAVE_HALF_LENGTH = 200.0  # the CLI default grid.L


def _latin_hypercube(rng, bounds, count):
    """One stratified column: a draw from each of ``count`` equal slices of
    the range, in random order.  Stratifying keeps the mix of easy and hard
    cells alike from seed to seed, so seeds differ less in total work."""
    lo, hi = bounds
    slots = list(range(count))
    rng.shuffle(slots)
    return [round(lo + (hi - lo) * (slot + rng.random()) / count, 6) for slot in slots]


def wave_pass(seed: int, index: int):
    """Anchors plus seeded cells, in a seeded order."""
    rng = random.Random(f"wave_map/{seed}/{index}")
    count = WAVE_SEEDED_PER_PASS
    r1, r2 = (_latin_hypercube(rng, R_RANGE, count) for _ in range(2))
    a1, a2 = (_latin_hypercube(rng, A_RANGE, count) for _ in range(2))
    s1, s2 = (_latin_hypercube(rng, SIGMA_RANGE, count) for _ in range(2))
    cells = list(WAVE_ANCHORS)
    for k in range(count):
        cells.append(WaveCell(f"seeded_{index}_{k}", r1[k], r2[k], a1[k], a2[k],
                              "gaussian", s1[k], s2[k], 0.1))
    rng.shuffle(cells)
    return cells


# --------------------------------------------------------------------------
# speed_map: in-process cli.run("sweep") with --jobs 1 over seeded lattices.
# Why: it never touches evolution or waves, so it is the control that must
# not move under convolution or solver work, and the golden-section search
# in speeds dominates it.  Two Gaussian lattices (with a sigma axis) run for
# every uniform-kernel lattice, so the median call is a Gaussian one.

GAUSSIAN_LATTICE_SHAPE = {"r1": 3, "r2": 2, "a1": 3, "a2": 3, "sigma": 2}  # 108 cells
UNIFORM_LATTICE_SHAPE = {"r1": 3, "r2": 3, "a1": 3, "a2": 4}  # 108 cells
SPEED_PASS_PATTERN = ("gaussian", "gaussian", "uniform") * 3


@dataclass(frozen=True)
class SweepLattice:
    label: str
    family: str
    width: float  # sigma (unused: sigma is an axis) or uniform halfwidth
    lattice: dict

    @property
    def cells(self) -> int:
        count = 1
        for values in self.lattice.values():
            count *= len(values)
        return count

    def config(self) -> str:
        base = [pair for pair in README_CONFIG if not pair[0].startswith("kernel.")]
        if self.family == "gaussian":
            base += [("kernel.family", "gaussian"), ("kernel.sigma", 1.0)]
        else:
            base += [("kernel.family", "uniform"), ("kernel.halfwidth", self.width)]
        return config_text(tuple(base) + _lattice_lines(self.lattice))


def _lattice(rng, family, label) -> SweepLattice:
    shape = GAUSSIAN_LATTICE_SHAPE if family == "gaussian" else UNIFORM_LATTICE_SHAPE
    ranges = {"r1": R_RANGE, "r2": R_RANGE, "a1": A_RANGE, "a2": A_RANGE,
              "sigma": SIGMA_RANGE}
    lattice = {name: _draw(rng, ranges[name], count) for name, count in shape.items()}
    width = round(rng.uniform(*HALFWIDTH_RANGE), 4) if family == "uniform" else 1.0
    return SweepLattice(label, family, width, lattice)


def speed_pass(seed: int, index: int):
    rng = random.Random(f"speed_map/{seed}/{index}")
    return [_lattice(rng, family, f"{family}_{index}_{k}")
            for k, family in enumerate(SPEED_PASS_PATTERN)]

