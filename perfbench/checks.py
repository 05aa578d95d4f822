"""Output checks for every benchmark operation.

Each check returns a list of problems; an empty list means the output is
correct.  Reference values live in ``reference/reference.json`` (see
``make_reference.py`` for how they were produced).
"""

from __future__ import annotations

import csv
import hashlib
import io
import json
import math
from pathlib import Path

REFERENCE_PATH = Path(__file__).resolve().parent / "reference" / "reference.json"

# Per-subcommand column rules for the CLI's stdout CSV against the stored
# README-config output: ("exact",) compares the text, ("abs", tol) compares
# numbers to within tol, ("true",) requires "true", ("le", bound) requires
# value <= bound, ("range", lo, hi) requires lo <= value <= hi, ("skip",)
# ignores the column (free text with roundoff-level numbers in it).
CLI_COLUMN_RULES = {
    "validate": {"check": ("exact",), "passed": ("true",), "detail": ("skip",)},
    "equilibria": {"point": ("exact",), "frame": ("exact",), "u": ("abs", 1e-9),
                   "v": ("abs", 1e-9), "stability": ("exact",),
                   "spectral_radius": ("abs", 1e-9)},
    "speeds": {"quantity": ("exact",), "value": ("abs", 1e-8),
               "mu_star": ("abs", 1e-4), "method": ("exact",)},
    "simulate": {"saved_states": ("exact",), "final_step": ("exact",),
                 "U_min": ("abs", 1e-9), "U_max": ("abs", 1e-9),
                 "V_min": ("abs", 1e-9), "V_max": ("abs", 1e-9)},
    # The wave speed may move toward the converged value (1.8e-5 away today)
    # and the step count may change with the solver; both stay bounded.
    "wave": {"speed": ("abs", 1e-4), "residual": ("le", 1e-4),
             "steps": ("range", 1, 2000), "monotone": ("true",), "range": ("true",),
             "left_tail": ("true",), "right_tail": ("true",), "residual_ok": ("true",)},
}

CLOSED_FORM_TOL = 1e-8


def load_reference(path: Path = REFERENCE_PATH) -> dict:
    return json.loads(path.read_text())


def parse_csv(text: str):
    lines = [ln for ln in text.splitlines() if ln and not ln.startswith("#")]
    rows = list(csv.reader(io.StringIO("\n".join(lines))))
    if not rows:
        return [], []
    return rows[0], rows[1:]


def _cell_problem(rule, got: str, want: str):
    kind = rule[0]
    if kind == "skip":
        return None
    if kind == "exact":
        return None if got == want else f"{got!r} != {want!r}"
    if kind == "true":
        return None if got == "true" else f"{got!r} is not true"
    try:
        value = float(got)
    except ValueError:
        return f"{got!r} is not a number"
    if not math.isfinite(value):
        return f"{got!r} is not finite"
    if kind == "abs":
        return None if abs(value - float(want)) <= rule[1] else (
            f"{got} differs from {want} by more than {rule[1]}")
    if kind == "le":
        return None if value <= rule[1] else f"{got} exceeds {rule[1]}"
    if kind == "range":
        return None if rule[1] <= value <= rule[2] else f"{got} outside [{rule[1]}, {rule[2]}]"
    raise ValueError(f"unknown rule {rule!r}")


def check_cli_table(sub: str, stdout: str, reference_body: str) -> list:
    """Compare a fixed-config CLI table with the stored one, column by column."""
    rules = CLI_COLUMN_RULES[sub]
    header, rows = parse_csv(stdout)
    want_header, want_rows = parse_csv(reference_body)
    if header != want_header:
        return [f"{sub}: header {header} != {want_header}"]
    if len(rows) != len(want_rows):
        return [f"{sub}: {len(rows)} rows, expected {len(want_rows)}"]
    problems = []
    for i, (row, want) in enumerate(zip(rows, want_rows)):
        for name, got, expected in zip(header, row, want):
            problem = _cell_problem(rules[name], got, expected)
            if problem:
                problems.append(f"{sub} row {i} {name}: {problem}")
    return problems


def check_sweep_table(stdout: str, lattice: dict, family: str) -> list:
    """Check a sweep table: one row per lattice point, positive sums, and the
    Gaussian edge speeds against the closed form sigma * sqrt(2 r)."""
    header, rows = parse_csv(stdout)
    expected_rows = 1
    for values in lattice.values():
        expected_rows *= len(values)
    if len(rows) != expected_rows:
        return [f"sweep: {len(rows)} rows, expected {expected_rows}"]
    problems = []
    for i, row in enumerate(rows):
        cell = dict(zip(header, row))
        try:
            sums = float(cell["sum_edge"]), float(cell["sum_interior"])
            if not (sums[0] > 0.0 and sums[1] > 0.0) or cell["passed"] != "true":
                problems.append(f"sweep row {i}: sums {sums} not both positive")
            if family == "gaussian":
                sigma = float(cell["sigma"]) if cell["sigma"] else 1.0
                for column, rate in (("c_minus_F1F3", "r2"), ("c_plus_F0F1", "r1")):
                    exact = sigma * math.sqrt(2.0 * float(cell[rate]))
                    if not abs(float(cell[column]) - exact) <= CLOSED_FORM_TOL:
                        problems.append(f"sweep row {i} {column}: {cell[column]} != {exact!r}")
        except (KeyError, ValueError) as exc:
            problems.append(f"sweep row {i}: unreadable ({exc})")
    return problems


def body_digest(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()


def check_snapshots(out_dir: Path, reference: dict):
    """Snapshot files written by simulate: the count must match; returns
    (problems, byte-identical file count)."""
    files = sorted(out_dir.glob("sim_step_*.csv"))
    want = reference["cli"]["simulate"]["snapshot_sha256"]
    if [f.name for f in files] != sorted(want):
        return [f"simulate: snapshot files {[f.name for f in files]} != {sorted(want)}"], 0
    identical = sum(body_digest(f.read_text()) == want[f.name] for f in files)
    return [], identical


def check_wave(cell, wp, validation, reference: dict) -> list:
    """Every validate_profile clause, and the known speed where there is one."""
    problems = []
    if not validation.passed:
        failed = [name for name in ("monotone_ok", "range_ok", "left_tail_ok",
                                    "right_tail_ok", "residual_ok")
                  if not getattr(validation, name)]
        problems.append(f"{cell.label}: validate_profile failed {failed}")
    if not (math.isfinite(wp.speed) and math.isfinite(wp.residual)):
        problems.append(f"{cell.label}: non-finite speed or residual")
    if cell.known_speed is not None:
        known = reference["waves"][cell.known_speed]
        if not abs(wp.speed - known) <= cell.speed_tol:
            problems.append(f"{cell.label}: speed {wp.speed!r} not within "
                            f"{cell.speed_tol} of {known!r}")
    return problems


# speed-error metric -> (wave anchor, key of its known speed in reference.json)
SPEED_ERRORS = {"speed_err_ref": ("readme_dx0.1", "c_ref"),
                "speed_err_sym": ("sym_dx0.1", "c_sym")}


def speed_errors(speeds: dict, reference: dict) -> dict:
    """|c - known| for each speed-error anchor present in ``speeds``."""
    return {name: abs(speeds[cell] - reference["waves"][known])
            for name, (cell, known) in SPEED_ERRORS.items() if cell in speeds}
