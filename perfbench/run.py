"""The rickerwaves benchmark: one workload, measured end to end or traced.

Usage (from the repository root):

    python3 perfbench/run.py --workload {cli_session,wave_map,speed_map} \
        --seed N --seconds S --trace {0,1}

``--trace 0`` runs the workload for about S seconds, as a number of whole
passes fixed by S, with nothing wrapped, and reports the end-to-end metrics.
``--trace 1`` runs about S/2 seconds of passes with every operation once
untraced and once with spans recorded at the layer boundaries, then a fixed
probe suite, and reports the per-layer metrics.  End-to-end timings are
stated at the reference machine's idle speed (see calibration.py); the raw
ones are kept in the full record.  The last line of stdout is one JSON
object with the keys ``correct``, ``attempted``, ``failed`` and
``metrics``; the lines before it repeat the metrics for reading, with the
environment.  Full results (and
spans, when traced) go to ``.perfbench_out/``.  See perfbench/README.md.
"""

import os

# Pin BLAS/OpenMP pools before numpy loads; child processes inherit these.
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS")
for _var in THREAD_VARS:
    os.environ[_var] = "1"

import argparse  # noqa: E402
import json  # noqa: E402
import math  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import tempfile  # noqa: E402
import time  # noqa: E402
from pathlib import Path  # noqa: E402

import calibration  # noqa: E402
import checks  # noqa: E402
import inputs  # noqa: E402
import layers  # noqa: E402
import workloads  # noqa: E402
from spans import Tracer  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT_DIR = ROOT / ".perfbench_out"
TMP_PARENT = ROOT / ".perfbench_tmp"

# name -> (unit, better).  An operation is a fresh CLI process (cli_session),
# a wave cell (wave_map) or a sweep call over one lattice (speed_map); an
# item is a CLI call, a wave solve or a sweep cell.
END_TO_END = {
    "setup_s": ("s", "lower"),
    "op_s_p50": ("s", "lower"),
    "op_s_tail": ("s", "lower"),
    "items_per_s": ("1/s", "higher"),
    "peak_rss_mb": ("MB", "lower"),
}
# the same metrics under the names each workload's users know them by
ALIASES = {
    "cli_session": {"op_s_p50": "cli_call_s_p50", "op_s_tail": "cli_call_s_tail",
                    "items_per_s": "cli_calls_per_s"},
    "wave_map": {"op_s_p50": "wave_solve_s_p50", "op_s_tail": "wave_solve_s_tail",
                 "items_per_s": "wave_solves_per_s"},
    "speed_map": {"op_s_p50": "sweep_call_s_p50", "op_s_tail": "sweep_call_s_tail",
                  "items_per_s": "sweep_cells_per_s"},
}
SETUP_REPEATS = 3
# Nominal length of one pass on the reference machine (see README.md).  A run
# makes ceil(seconds / nominal) passes, so a given --seconds always does the
# same work, on both sides of a comparison.
NOMINAL_PASS_S = {"cli_session": 8.6, "wave_map": 4.6, "speed_map": 0.85}


class Context:
    """Per-run scratch directory and the environment for child processes."""

    def __init__(self, tmp: Path):
        self.tmp = tmp
        self.child_env = dict(os.environ, PYTHONPATH=str(SRC))


def tail(values):
    """Highest percentile with at least ten samples beyond it.

    Returns (value, percentile).  Below 21 samples no percentile above the
    median has ten beyond it, and the median is returned.
    """
    ordered = sorted(values)
    n = len(ordered)
    k = n - 11
    if k < (n - 1) / 2:
        return statistics.median(ordered), 50.0
    return ordered[k], 100.0 * (k + 1) / n


def environment(args) -> dict:
    import numpy
    import scipy

    cpu = platform.processor() or platform.machine()
    try:
        with open("/proc/cpuinfo") as handle:
            for line in handle:
                if line.startswith("model name"):
                    cpu = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "nproc": len(os.sched_getaffinity(0)),
        "cpu": cpu,
        "commit": git_commit(),
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "threads": {var: os.environ[var] for var in THREAD_VARS},
    }


def git_commit() -> str:
    """Commit of the checkout, read from .git without running git."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def workload_params(name: str) -> dict:
    if name == "cli_session":
        return {"subcommands": list(inputs.CLI_SUBCOMMANDS),
                "config": dict(inputs.README_CONFIG),
                "sweep_lattice_shape": inputs.CLI_LATTICE_SHAPE}
    if name == "wave_map":
        return {"anchors": [cell.label for cell in inputs.WAVE_ANCHORS],
                "seeded_cells_per_pass": inputs.WAVE_SEEDED_PER_PASS,
                "r": inputs.R_RANGE, "a": inputs.A_RANGE, "sigma": inputs.SIGMA_RANGE}
    return {"pattern": list(inputs.SPEED_PASS_PATTERN),
            "gaussian_lattice_shape": inputs.GAUSSIAN_LATTICE_SHAPE,
            "uniform_lattice_shape": inputs.UNIFORM_LATTICE_SHAPE,
            "halfwidth": inputs.HALFWIDTH_RANGE, "jobs": 1}


def measure_setup(args):
    """Fresh-process set-up times, process start until inputs are built,
    stated at idle machine speed (see calibration.py); also returns raw."""
    command = [sys.executable, str(HERE / "run.py"), "--workload", args.workload,
               "--seed", str(args.seed), "--seconds", str(args.seconds),
               "--trace", "0", "--setup-only"]
    times, samples = [], []
    for _ in range(SETUP_REPEATS):
        samples.append(calibration.sample())
        start = time.perf_counter()
        proc = subprocess.Popen(command, stdout=subprocess.PIPE, text=True, cwd=ROOT)
        try:
            line = proc.stdout.readline()
            elapsed = time.perf_counter() - start
            proc.stdout.read()
            code = proc.wait(timeout=120)
        finally:
            if proc.poll() is None:
                proc.kill()
                proc.wait()
            proc.stdout.close()
        if line.strip() != "ready" or code != 0:
            raise RuntimeError(f"set-up child failed (exit {code})")
        times.append(elapsed)
    samples.append(calibration.sample())
    return [t * k for t, k in zip(times, calibration.scales(samples))], times


def pass_count(args, share=1.0) -> int:
    return max(1, math.ceil(share * args.seconds / NOMINAL_PASS_S[args.workload]))


def end_to_end(setup, latencies, pass_rates, peak_rss_mb):
    tail_value, tail_pct = tail(latencies)
    return {
        "setup_s": statistics.median(setup),
        "op_s_p50": statistics.median(latencies),
        "op_s_tail": tail_value,
        "items_per_s": statistics.median(pass_rates),
        "peak_rss_mb": peak_rss_mb,
    }, tail_pct


def untraced(args, ctx, workload, first_pass):
    setup, raw_setup = measure_setup(args)
    passes = pass_count(args)
    results, factors, rates, raw_rates = [], [], [], []
    for index in range(passes):
        ops = first_pass if index == 0 else workload.prepare(args.seed, index)
        batch, samples = [], []
        for op in ops:
            samples.append(calibration.sample())
            batch += workloads.run_ops(workload, [op])
        samples.append(calibration.sample())
        scale = calibration.scales(samples)
        for result, taken in zip(batch, samples):
            result.attrs["calibration_s"] = taken
        items = sum(r.items for r in batch)
        rates.append(items / sum(r.latency * k for r, k in zip(batch, scale)))
        raw_rates.append(items / sum(r.latency for r in batch))
        results += batch
        factors += scale
    for result, k in zip(results, factors):
        result.attrs["scale"] = k
    who = resource.RUSAGE_CHILDREN if args.workload == "cli_session" else resource.RUSAGE_SELF
    peak_rss_mb = resource.getrusage(who).ru_maxrss / 1024.0
    metrics, tail_pct = end_to_end(
        setup, [r.latency * k for r, k in zip(results, factors)], rates, peak_rss_mb)
    raw, _ = end_to_end(raw_setup, [r.latency for r in results], raw_rates, peak_rss_mb)
    detail = {"passes": passes, "operations": len(results), "tail_percentile": tail_pct,
              "raw": raw, "raw_setup_samples_s": raw_setup}
    return metrics, END_TO_END, results, detail


def traced(args, ctx, workload, first_pass, make):
    tracer = Tracer()
    passes = pass_count(args, 0.5)
    workload.execute(first_pass[0])  # warm-up, not counted
    results = []
    plain = with_spans = 0.0
    for index in range(passes):
        ops = first_pass if index == 0 else workload.prepare(args.seed, index)
        for k, op in enumerate(ops):
            # each operation runs once untraced and once traced, in
            # alternating order, so warm-up and drift favour neither side
            first, second = (None, tracer) if k % 2 == 0 else (tracer, None)
            for use in (first, second):
                result = workloads.run_ops(workload, [op], use)[0]
                if use is None:
                    plain += result.latency
                else:
                    with_spans += result.latency
                results.append(result)
    probe_spans, probe_results = layers.run_probes(ctx, args.seed, args.workload, make)
    reference = checks.load_reference()
    own = layers.span_metrics(tracer.spans, reference)
    fallback = layers.span_metrics(probe_spans, reference)
    direct = layers.probe_metrics(ctx, args.seed)
    metrics = {}
    sources = {}
    for name in layers.CATALOG:
        if name == "trace_overhead":
            metrics[name], sources[name] = with_spans / plain, "workload"
        elif name in direct:
            metrics[name], sources[name] = direct[name], "probe"
        elif own.get(name) is not None:
            metrics[name], sources[name] = own[name], "workload"
        elif fallback.get(name) is not None:
            metrics[name], sources[name] = fallback[name], "probe"
        else:
            raise RuntimeError(f"per-layer metric {name} was not measured")
    OUT_DIR.mkdir(exist_ok=True)
    spans_path = OUT_DIR / f"{args.workload}_seed{args.seed}.spans.json"
    spans_path.write_text(json.dumps({
        "fields": ["name", "start", "end", "parent", "op", "attrs"],
        "workload": tracer.spans, "probe": probe_spans}))
    detail = {"passes": passes, "sources": sources, "spans": str(spans_path),
              "probe_problems": [p for r in probe_results for p in r.problems]}
    return metrics, layers.CATALOG, results + probe_results, detail


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=("cli_session", "wave_map", "speed_map"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    parser.add_argument("--setup-only", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if args.seconds < 1:
        parser.error("--seconds must be at least 1")
    return args


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "rickerwaves" / "__init__.py").is_file():
        print(f"error: no rickerwaves sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    import rickerwaves

    if not Path(rickerwaves.__file__).resolve().is_relative_to(SRC):
        print(f"error: imported rickerwaves from {rickerwaves.__file__}, not {SRC}",
              file=sys.stderr)
        return 2
    TMP_PARENT.mkdir(exist_ok=True)
    tmp = Path(tempfile.mkdtemp(prefix=f"{args.workload}_", dir=TMP_PARENT))
    try:
        ctx = Context(tmp)

        def make(name):
            return workloads.WORKLOADS[name](ctx)

        workload = make(args.workload)
        first_pass = workload.prepare(args.seed, 0)
        if args.setup_only:
            print("ready", flush=True)
            return 0
        if args.trace:
            metrics, units, results, detail = traced(args, ctx, workload, first_pass, make)
        else:
            metrics, units, results, detail = untraced(args, ctx, workload, first_pass)
        summary = workload.summary()
    finally:
        shutil.rmtree(tmp, ignore_errors=True)

    attempted = sum(r.items for r in results)
    failed = sum(r.failed_items for r in results)
    problems = [p for r in results for p in r.problems]
    correct = not any(r.wrong for r in results)
    env = environment(args)
    record = {
        "workload": args.workload, "environment": env,
        "params": workload_params(args.workload), "detail": detail, "summary": summary,
        "correct": correct, "attempted": attempted, "failed": failed,
        "fail_ratio": failed / attempted, "problems": problems,
        "operations": [[r.label, r.latency, r.failed_items, r.attrs.get("scale"),
                        r.attrs.get("calibration_s")] for r in results],
        "metrics": {name: {"value": value, "unit": units[name][0]}
                    for name, value in metrics.items()},
    }
    OUT_DIR.mkdir(exist_ok=True)
    (OUT_DIR / f"{args.workload}_seed{args.seed}_trace{args.trace}.json").write_text(
        json.dumps(record, indent=1, default=str) + "\n")

    print(f"# workload {args.workload}  seed {args.seed}  seconds {args.seconds}  "
          f"trace {args.trace}")
    print("# environment " + json.dumps(env))
    print("# params " + json.dumps(record["params"]))
    print("# detail " + json.dumps(detail if not args.trace else
                                   {k: v for k, v in detail.items() if k != "sources"}))
    aliases = ALIASES[args.workload] if not args.trace else {}
    for name, value in metrics.items():
        alias = f"  ({aliases[name]})" if name in aliases else ""
        source = f"  [{detail['sources'][name]}]" if args.trace else ""
        print(f"{name:44s} {value:<16.6g} {units[name][0]}{alias}{source}")
    print(f"{'fail_ratio':44s} {failed / attempted:<16.6g} 1  ({failed} of {attempted})")
    for key, value in summary.items():
        print(f"{key:44s} {value:<16.6g}")
    for problem in problems[:20]:
        print(f"# problem: {problem}")
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed,
                      "metrics": record["metrics"]}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
