"""Per-layer metrics of the traced run.

Metrics come from two sources.  ``span_metrics`` reads spans recorded at the
boundaries listed in ``spans.BOUNDARIES``; it is applied first to the
workload's own traced operations and then, for every metric the workload
does not reach, to the fixed probe suite (``run_probes``).  ``probe_metrics``
times single calls on fixed inputs (both convolution paths at two sizes,
model routines, config parsing, the sweep thread pool).

Each metric is listed below with the end-to-end metric it should move.
"""

from __future__ import annotations

import io
import statistics
import time
from collections import defaultdict

import checks
import inputs
from spans import (ATTRS, END, NAME, START, Tracer, children_index, descendants,
                   rickerwaves_modules, self_times)
from workloads import OpResult, run_ops, sweep_args

SUBS = inputs.CLI_SUBCOMMANDS
N_COARSE, N_FINE = 4001, 40001  # default grid at dx=0.1 and dx=0.01

# name -> (unit, better)
CATALOG = {
    # cli: import moves op_s_p50 on cli_session and setup_s everywhere, and
    # not items_per_s of wave_map or speed_map.
    "cli.import_s": ("s", "lower"),
    **{f"cli.{sub}_s": ("s", "lower") for sub in SUBS},  # fresh process, wall
    **{f"cli.{sub}_run_s": ("s", "lower") for sub in SUBS},  # in-process cli.run
    "cli.load_config_us": ("us", "lower"),
    "cli.sweep_jobs2_ratio": ("ratio", "lower"),  # --jobs 2 time / --jobs 1 time
    # evolution: moves items_per_s and op_s_p50 on wave_map; under 5% of
    # op_s_p50 on cli_session; nothing on speed_map.
    f"evolution.apply_Q_us.n{N_COARSE}": ("us", "lower"),
    f"evolution.apply_Q_us.n{N_FINE}": ("us", "lower"),
    f"evolution.apply_Q_self_us.n{N_COARSE}": ("us", "lower"),
    "evolution.convolve_fft_us.n4001_j72": ("us", "lower"),
    "evolution.convolve_direct_us.n4001_j72": ("us", "lower"),
    "evolution.convolve_fft_us.n40001_j714": ("us", "lower"),
    "evolution.convolve_direct_us.n40001_j714": ("us", "lower"),
    "evolution.convolve_calls_per_solve": ("count", "lower"),
    "evolution.bytes_per_step_computed": ("B", "lower"),
    "evolution.grid_points": ("count", "lower"),
    "evolution.solve_share": ("ratio", "lower"),
    # waves: steps move items_per_s on wave_map (and its failures).
    "waves.steps_per_solve": ("count", "lower"),
    "waves.failed_solves": ("count", "lower"),
    "waves.us_per_step": ("us", "lower"),
    "waves.self_us_per_step": ("us", "lower"),
    "waves.precheck_us": ("us", "lower"),
    "waves.residual_us": ("us", "lower"),
    "waves.validate_profile_us": ("us", "lower"),
    "waves.speed_err_ref": ("1", "lower"),
    "waves.speed_err_sym": ("1", "lower"),
    # speeds: moves items_per_s on speed_map, op_s_p50 of wave_map by ~3%.
    "speeds.scalar_speed_us": ("us", "lower"),
    "speeds.system_speed_bound_us": ("us", "lower"),
    "speeds.counter_propagation_us": ("us", "lower"),
    "speeds.objective_evals": ("count", "lower"),
    "speeds.front_position_us": ("us", "lower"),
    # kernels: a fixed cost per solve, moves op_s_p50 on wave_map.
    "kernels.discretize_us.dx0.1": ("us", "lower"),
    "kernels.discretize_us.dx0.01": ("us", "lower"),
    "kernels.discretize_calls_per_solve": ("count", "lower"),
    "kernels.half_width": ("count", "lower"),
    # model: moves cli.equilibria_run_s and cli.validate_run_s.
    "model.equilibria_us": ("us", "lower"),
    "model.strong_stability_us": ("us", "lower"),
    # traced end-to-end time over untraced end-to-end time, same operations
    "trace_overhead": ("ratio", "lower"),
}

PRECHECKS = ("model.validate_params", "kernels.validate_hypotheses",
             "speeds.counter_propagation")
NOT_PER_STEP = PRECHECKS + ("kernels.discretize", "waves.wave_residual")


def _median(values, scale=1.0):
    values = list(values)
    return statistics.median(values) * scale if values else None


def bytes_per_step(n: int, j: int) -> int:
    """Computed bytes one apply_Q step reads and writes, float64 arrays.

    Per species: growth term (read U, V; write g) 3N, edge padding (read N;
    write N+2J), convolution (read N+2J and 2J+1 weights; write N), and the
    clamp (read and write N) 2N.  Caches and the transform's work arrays are
    not counted.
    """
    per_species = 3 * n + (2 * n + 2 * j) + (n + 2 * j + 2 * j + 1 + n) + 2 * n
    return 8 * 2 * per_species


def span_metrics(spans, reference: dict) -> dict:
    """Metrics computable from one list of spans; absent ones are None."""
    by_name = defaultdict(list)
    for i, record in enumerate(spans):
        by_name[record[NAME]].append(i)
    attrs = [record[ATTRS] or {} for record in spans]
    dur = [record[END] - record[START] for record in spans]
    own = self_times(spans)
    kids = children_index(spans)

    def durations(name, scale=1.0, **match):
        picked = [dur[i] for i in by_name[name]
                  if all(attrs[i].get(k) == v for k, v in match.items())]
        return _median(picked, scale)

    m = {"cli.import_s": durations("cli.import")}
    for sub in SUBS:
        m[f"cli.{sub}_s"] = durations("bench.op", kind="cli", sub=sub)
        m[f"cli.{sub}_run_s"] = durations("cli.run", sub=sub)
    for n in (N_COARSE, N_FINE):
        m[f"evolution.apply_Q_us.n{n}"] = durations("evolution.apply_Q", 1e6, n=n)
    m[f"evolution.apply_Q_self_us.n{N_COARSE}"] = _median(
        (own[i] for i in by_name["evolution.apply_Q"] if attrs[i].get("n") == N_COARSE), 1e6)

    solves = by_name["waves.find_bistable_wave"]
    done = [i for i in solves if "failed" not in attrs[i]]
    m["waves.failed_solves"] = len(solves) - len(done) if solves else None
    if done:
        counts = defaultdict(int)
        for i in done:
            for d in descendants(kids, i):
                counts[spans[d][NAME]] += 1
        m["evolution.convolve_calls_per_solve"] = counts["evolution.convolve_extended"] / len(done)
        m["kernels.discretize_calls_per_solve"] = counts["kernels.discretize"] / len(done)
        m["waves.steps_per_solve"] = sum(attrs[i]["steps"] for i in done) / len(done)
    steps = sum(attrs[i]["steps"] for i in solves)
    if steps:
        total = sum(dur[i] for i in solves)
        fixed = sum(dur[c] for i in solves for c in kids[i] if spans[c][NAME] in NOT_PER_STEP)
        precheck = sum(dur[c] for i in solves for c in kids[i] if spans[c][NAME] in PRECHECKS)
        evolution = sum(dur[d] for i in solves for d in descendants(kids, i)
                        if spans[d][NAME] == "evolution.apply_Q")
        m["waves.us_per_step"] = (total - fixed) / steps * 1e6
        m["waves.self_us_per_step"] = sum(own[i] for i in solves) / steps * 1e6
        m["waves.precheck_us"] = precheck / len(solves) * 1e6
        m["evolution.solve_share"] = evolution / total
    speeds = {}
    for i in by_name["bench.op"]:
        if "speed" in attrs[i]:
            speeds.setdefault(attrs[i]["cell"], attrs[i]["speed"])
    errors = checks.speed_errors(speeds, reference)
    for name in checks.SPEED_ERRORS:
        m[f"waves.{name}"] = errors.get(name)
    m["waves.residual_us"] = durations("waves.wave_residual", 1e6)
    m["waves.validate_profile_us"] = durations("waves.validate_profile", 1e6)

    m["speeds.scalar_speed_us"] = durations("speeds.scalar_speed", 1e6)
    m["speeds.system_speed_bound_us"] = durations("speeds.system_speed_bound", 1e6)
    m["speeds.counter_propagation_us"] = durations("speeds.counter_propagation", 1e6)
    m["speeds.front_position_us"] = durations("speeds.front_position", 1e6)
    evals = [attrs[i]["evals"] for name in ("speeds.scalar_speed", "speeds.system_speed_bound")
             for i in by_name[name] if attrs[i]]
    m["speeds.objective_evals"] = sum(evals) / len(evals) if evals else None
    for label, dx in (("0.1", 0.1), ("0.01", 0.01)):
        m[f"kernels.discretize_us.dx{label}"] = _median(
            (dur[i] for i in by_name["kernels.discretize"]
             if abs(attrs[i].get("dx", 0.0) - dx) < 1e-12), 1e6)
    return m


def _per_call(fn, reps: int, batches: int = 5) -> float:
    """Median over batches of the mean time of one call, in microseconds."""
    fn()
    times = []
    for _ in range(batches):
        start = time.perf_counter()
        for _ in range(reps):
            fn()
        times.append((time.perf_counter() - start) / reps)
    return statistics.median(times) * 1e6


def probe_metrics(ctx, seed: int) -> dict:
    """Single-call timings on fixed inputs (no spans)."""
    import numpy as np

    from rickerwaves import cli, evolution, kernels, model

    m = {}
    gauss = kernels.GaussianKernel(sigma=1.0)
    for dx, reps in ((0.1, (200, 200)), (0.01, (20, 10))):
        dk = kernels.discretize(gauss, dx)
        grid = evolution.Grid(half_length=inputs.WAVE_HALF_LENGTH, dx=dx)
        field = 1.0 / (1.0 + np.exp(-grid.x))
        tag = f"n{grid.n_points}_j{dk.half_width}"
        for method, rep in zip(("fft", "direct"), reps):
            m[f"evolution.convolve_{method}_us.{tag}"] = _per_call(
                lambda: evolution.convolve_extended(field, dk, method), rep)
        if dx == 0.1:
            m["kernels.half_width"] = dk.half_width
            m["evolution.grid_points"] = grid.n_points
            m["evolution.bytes_per_step_computed"] = bytes_per_step(grid.n_points, dk.half_width)

    params = model.ModelParams(r1=0.5, r2=0.5, a1=2.0, a2=3.0)
    m["model.equilibria_us"] = _per_call(lambda: model.equilibria(params), 200)
    m["model.strong_stability_us"] = _per_call(lambda: model.strong_stability_vectors(params), 200)

    config = ctx.tmp / "probe_readme.cfg"
    config.write_text(inputs.config_text(inputs.README_CONFIG))
    m["cli.load_config_us"] = _per_call(lambda: cli.load_config(config), 50)

    # the thread pool on a speed_map lattice: --jobs 2 over --jobs 1
    lattice = inputs.speed_pass(seed, 0)[0]
    path = ctx.tmp / "probe_jobs.cfg"
    path.write_text(lattice.config())
    cfg = cli.load_config(path)
    sink = open(ctx.tmp / "probe_jobs.csv", "w")
    try:
        ratios = []
        for _ in range(3):
            times = {}
            for jobs in (1, 2):
                start = time.perf_counter()
                cli.run("sweep", cfg, sink, sweep_args(jobs))
                times[jobs] = time.perf_counter() - start
            ratios.append(times[2] / times[1])
    finally:
        sink.close()
    m["cli.sweep_jobs2_ratio"] = statistics.median(ratios)
    return m


def run_probes(ctx, seed: int, workload_name: str, make_workload):
    """Traced fixed probe suite; returns (spans, operation results).

    It holds the wave anchors, one in-process ``cli.run`` per subcommand on
    the README config and, unless the workload is cli_session, one traced
    fresh-process round of the six subcommands.
    """
    from rickerwaves import cli

    tracer = Tracer()
    waves = make_workload("wave_map")
    session = make_workload("cli_session")
    results = run_ops(waves, [op for op in waves.prepare(seed, 0)
                              if not op[0].label.startswith("seeded")], tracer)
    with tracer.installed(rickerwaves_modules()):
        for sub, lattice, path in session.prepare(seed, 0):
            args = sweep_args()
            if sub == "simulate":
                args.out = str(ctx.tmp / "probe_snaps")
            tracer.new_op()
            out = io.StringIO()
            with tracer.span("bench.op", label=f"run_{sub}"):
                report = cli.run(sub, cli.load_config(path), out, args)
            if sub == "sweep":
                problems = checks.check_sweep_table(out.getvalue(), lattice, "gaussian")
            else:
                problems = checks.check_cli_table(sub, out.getvalue(),
                                                  session.reference["cli"][sub]["body"])
            if not report.passed:
                problems.append(f"run_{sub}: report did not pass")
            results.append(OpResult(f"run_{sub}", 0.0, failed_items=int(bool(problems)),
                                    wrong=bool(problems), problems=problems))
    if workload_name != "cli_session":
        results += run_ops(session, session.prepare(seed, 0), tracer)
    return tracer.spans, results
