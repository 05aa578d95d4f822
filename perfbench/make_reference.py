"""Regenerate ``reference/reference.json``, the stored outputs the checks use.

Run from the repository root:  python3 perfbench/make_reference.py

- ``cli``: stdout of five subcommands on the README config, each from a
  fresh ``python -m rickerwaves`` process, and the SHA-256 of every snapshot
  file ``simulate`` writes.  The numeric checks compare against these with
  the tolerances in ``checks.CLI_COLUMN_RULES``; byte-identity is counted.
- ``waves``: wave speeds from tight-tolerance solves (profile and speed
  tolerance 1e-12), which the default-tolerance speeds are measured against.
  The exchange-symmetric case has the known answer 0.

Only regenerate when an output is meant to change, and say so in CHANGES.md.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys
import tempfile
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(ROOT / "src"))

import checks  # noqa: E402
import inputs  # noqa: E402

TIGHT = {"profile_tol": 1e-12, "speed_tol": 1e-12, "max_steps": 5000}


def cli_reference(tmp: Path) -> dict:
    config = tmp / "readme.cfg"
    config.write_text(inputs.config_text(inputs.README_CONFIG))
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    out = {}
    for sub in inputs.CLI_SUBCOMMANDS:
        if sub == "sweep":
            continue  # seeded lattices are checked against closed forms instead
        argv = [sys.executable, "-m", "rickerwaves", sub, "--config", str(config)]
        snaps = tmp / "snaps"
        if sub == "simulate":
            argv += ["--out", str(snaps)]
        proc = subprocess.run(argv, capture_output=True, text=True, env=env, cwd=tmp,
                              check=True, timeout=300)
        out[sub] = {"body": proc.stdout}
        if sub == "simulate":
            out[sub]["snapshot_sha256"] = {
                f.name: checks.body_digest(f.read_text())
                for f in sorted(snaps.glob("sim_step_*.csv"))
            }
    return out


def wave_reference() -> dict:
    from rickerwaves import GaussianKernel, Grid, ModelParams, WaveOptions, find_bistable_wave

    kernel = GaussianKernel(sigma=1.0)
    params = ModelParams(r1=0.5, r2=0.5, a1=2.0, a2=3.0)
    opts = WaveOptions(**TIGHT)
    speeds = {}
    for key, dx in (("c_ref", 0.1), ("c_ref_dx0.01", 0.01)):
        grid = Grid(half_length=inputs.WAVE_HALF_LENGTH, dx=dx)
        speeds[key] = find_bistable_wave(params, kernel, kernel, grid, opts).speed
    speeds["c_sym"] = 0.0
    return speeds


def main() -> int:
    with tempfile.TemporaryDirectory() as tmp:
        reference = {"cli": cli_reference(Path(tmp)), "waves": wave_reference(),
                     "tight_options": TIGHT}
    checks.REFERENCE_PATH.parent.mkdir(exist_ok=True)
    checks.REFERENCE_PATH.write_text(json.dumps(reference, indent=1, sort_keys=True) + "\n")
    print(f"wrote {checks.REFERENCE_PATH}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
