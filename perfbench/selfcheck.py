"""Self-check of the benchmark itself.  Run from the repository root:

    python3 perfbench/selfcheck.py

1. BENCHMARK.json names the metrics, units and directions the code emits.
2. Deliberately wrong reference values make the output checks count a
   failure (a wrong wave speed, a wrong CLI table value, a sweep speed off
   its closed form) instead of passing silently.
3. Every workload, untraced and traced, prints a last line with exactly the
   keys correct/attempted/failed/metrics and every named metric with its
   unit (short runs, --seconds 1).
4. In a directory holding only BENCHMARK.json and perfbench/, the benchmark
   exits non-zero without printing a result.

Exits 0 when every check passes; prints one line per check.
"""

from __future__ import annotations

import copy
import json
import math
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(ROOT / "src"))

import checks  # noqa: E402
import inputs  # noqa: E402
import layers  # noqa: E402
import run  # noqa: E402
import workloads  # noqa: E402

RESULT_KEYS = {"correct", "attempted", "failed", "metrics"}
failures = []


def report(name: str, ok: bool, detail: str = "") -> None:
    print(f"{'ok  ' if ok else 'FAIL'} {name}{': ' + detail if detail else ''}")
    if not ok:
        failures.append(name)


def check_manifest() -> dict:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    e2e = {m["name"]: (m["unit"], m["better"]) for m in spec["end_to_end"]}
    per_layer = {m["name"]: (m["unit"], m["better"]) for m in spec["per_layer"]}
    report("manifest end_to_end matches run.END_TO_END", e2e == run.END_TO_END)
    report("manifest per_layer matches layers.CATALOG", per_layer == layers.CATALOG)
    names = [w["name"] for w in spec["workloads"]]
    report("manifest workloads match", sorted(names) == sorted(workloads.WORKLOADS))
    return spec


def check_wrong_references(ctx) -> None:
    reference = checks.load_reference()

    wave_map = workloads.WaveMap(ctx)
    readme = [op for op in wave_map.prepare(inputs.DEFAULT_SEED, 0)
              if op[0].label == "readme_dx0.1"]
    right = wave_map.execute(readme[0])
    wave_map.reference = copy.deepcopy(reference)
    wave_map.reference["waves"]["c_ref"] += 1e-3
    wrong = wave_map.execute(readme[0])
    report("wave check passes on the stored c_ref", not right.wrong and not right.failed_items)
    report("wave check fails on a wrong c_ref", wrong.wrong and wrong.failed_items == 1,
           "; ".join(wrong.problems))

    session = workloads.CliSession(ctx)
    op = [op for op in session.prepare(inputs.DEFAULT_SEED, 0) if op[0] == "equilibria"][0]
    right = session.execute(op)
    session.reference = copy.deepcopy(reference)
    body = session.reference["cli"]["equilibria"]["body"]
    session.reference["cli"]["equilibria"]["body"] = body.replace(
        "E3,original,0.2,0.4", "E3,original,0.2000001,0.4")
    wrong = session.execute(op)
    report("CLI check passes on the stored table", not right.wrong and not right.failed_items)
    report("CLI check fails on a wrong table value", wrong.wrong and wrong.failed_items == 1,
           "; ".join(wrong.problems))

    speed_map = workloads.SpeedMap(ctx)
    lattice, cfg = speed_map.prepare(inputs.DEFAULT_SEED, 0)[0]
    right = speed_map.execute((lattice, cfg))
    table = run_sweep_table(speed_map, cfg)
    header, rows = checks.parse_csv(table)
    column = header.index("c_plus_F0F1")
    rows[0][column] = repr(float(rows[0][column]) + 1e-6)
    corrupted = "\n".join([",".join(header)] + [",".join(row) for row in rows])
    problems = checks.check_sweep_table(corrupted, lattice.lattice, lattice.family)
    report("sweep check passes on the program's table", not right.wrong)
    report("sweep check fails on a speed off its closed form", len(problems) == 1,
           "; ".join(problems))


def run_sweep_table(speed_map, cfg) -> str:
    import io

    out = io.StringIO()
    speed_map.cli.run("sweep", cfg, out, workloads.sweep_args())
    return out.getvalue()


def last_json(stdout: str):
    lines = [line for line in stdout.splitlines() if line.strip()]
    return json.loads(lines[-1]) if lines else None


def check_emission(spec) -> None:
    expected = {
        0: {m["name"]: m["unit"] for m in spec["end_to_end"]},
        1: {m["name"]: m["unit"] for m in spec["per_layer"]},
    }
    for workload in workloads.WORKLOADS:
        for trace in (0, 1):
            proc = subprocess.run(
                [sys.executable, str(HERE / "run.py"), "--workload", workload,
                 "--seed", str(inputs.DEFAULT_SEED), "--seconds", "1", "--trace", str(trace)],
                capture_output=True, text=True, cwd=ROOT, timeout=300)
            name = f"{workload} --trace {trace} emits every metric with its unit"
            if proc.returncode != 0:
                report(name, False, f"exit {proc.returncode}: {proc.stderr[-300:]}")
                continue
            result = last_json(proc.stdout)
            got = {k: v.get("unit") for k, v in result["metrics"].items()}
            finite = all(isinstance(v.get("value"), (int, float)) and math.isfinite(v["value"])
                         for v in result["metrics"].values())
            ok = (set(result) == RESULT_KEYS and got == expected[trace] and finite
                  and result["attempted"] >= 1 and result["correct"] is True)
            report(name, ok, "" if ok else json.dumps(result)[:300])


def check_bare_directory() -> None:
    run.TMP_PARENT.mkdir(exist_ok=True)
    bare = Path(tempfile.mkdtemp(prefix="bare_", dir=run.TMP_PARENT))
    try:
        shutil.copy(ROOT / "BENCHMARK.json", bare)
        shutil.copytree(HERE, bare / "perfbench",
                        ignore=shutil.ignore_patterns("__pycache__"))
        proc = subprocess.run(
            [sys.executable, "perfbench/run.py", "--workload", "speed_map", "--seed", "1",
             "--seconds", "1", "--trace", "0"],
            capture_output=True, text=True, cwd=bare, timeout=180)
        printed_result = any(line.startswith("{") for line in proc.stdout.splitlines())
        report("bare directory exits non-zero without a result",
               proc.returncode != 0 and not printed_result, proc.stderr.strip()[-200:])
    finally:
        shutil.rmtree(bare, ignore_errors=True)


def main() -> int:
    spec = check_manifest()
    run.TMP_PARENT.mkdir(exist_ok=True)
    tmp = Path(tempfile.mkdtemp(prefix="selfcheck_", dir=run.TMP_PARENT))
    try:
        check_wrong_references(run.Context(tmp))
    finally:
        shutil.rmtree(tmp, ignore_errors=True)
    check_bare_directory()
    check_emission(spec)
    print("self-check " + ("passed" if not failures else f"FAILED: {failures}"))
    return 0 if not failures else 1


if __name__ == "__main__":
    sys.exit(main())
