import hashlib
import math
import re
import warnings
from decimal import Decimal
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st
from scipy.integrate import solve_bvp
from scipy.special import expit

from rickerwaves import (
    ConvergenceError,
    DegenerateDataError,
    DomainError,
    GaussianKernel,
    Grid,
    ModelParams,
    ParameterError,
    RangeError,
    TableKernel,
    UniformKernel,
    WaveOptions,
    discretize,
    find_bistable_wave,
    step_initial_data,
    translate,
    validate_profile,
    wave_residual,
)
from rickerwaves import evolution, waves
from rickerwaves.evolution import (
    _FFT_NOISE_FLOOR,
    DEFAULT_DX,
    DEFAULT_HALF_LENGTH,
    SpatialState,
    interior_slice,
)
from rickerwaves.model import ORIGINAL_FRAME, TRANSFORMED_FRAME
from rickerwaves.speeds import counter_propagation, system_speed_bound
from rickerwaves.waves import WaveHistory, WaveProfile

from conftest import constant_state

# README-config front speed on Grid(200, 0.1), solved to tolerances 1e-12
C_CONVERGED = 0.11896981135981706


@pytest.fixture(scope="module")
def wave_grid():
    return Grid(half_length=200.0, dx=0.1)


@pytest.fixture(scope="module")
def standard_wave(wave_grid):
    return find_bistable_wave(
        ModelParams(0.5, 0.5, 2.0, 3.0), GaussianKernel(1.0), GaussianKernel(1.0), wave_grid
    )


class TestStepInitialData:
    def test_midpoint_value(self, small_grid):
        state = step_initial_data(small_grid, 1.0)
        assert state.U[small_grid.half_cells] == 0.5

    def test_monotone_samples(self, small_grid):
        state = step_initial_data(small_grid, 2.0)
        assert np.all(np.diff(state.U) >= 0.0)
        assert np.all(np.diff(state.V) >= 0.0)

    def test_sharp_ramp_is_near_step(self, small_grid):
        state = step_initial_data(small_grid, small_grid.dx / 10.0)
        mid = small_grid.half_cells
        assert state.U[mid - 2] < 1e-8
        assert state.U[mid + 2] > 1.0 - 1e-8

    def test_sharp_ramp_matches_expit_without_warnings(self):
        grid = Grid(half_length=200.0, dx=0.1)
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            state = step_initial_data(grid, 0.05)
        ref = expit(grid.x / 0.05)
        assert np.all(state.U[ref == 0.0] == 0.0)
        nonzero = ref > 0.0
        assert np.count_nonzero(nonzero) > grid.half_cells
        assert np.max(np.abs(state.U[nonzero] - ref[nonzero]) / ref[nonzero]) <= 1e-15

    def test_limits(self, small_grid):
        state = step_initial_data(small_grid, 0.5)
        assert state.U[0] < 1e-12 and state.U[-1] > 1.0 - 1e-12

    @pytest.mark.parametrize("width", [0.0, -1.0, math.inf, math.nan])
    def test_width_not_positive_and_finite_is_refused(self, small_grid, width):
        with pytest.raises(DomainError, match="ramp width must be positive and finite"):
            step_initial_data(small_grid, width)


class TestFindBistableWave:
    def test_standard_case_converges(self, standard_wave):
        wp = standard_wave
        win = interior_slice(wp.grid, wp.kernel_half_width)
        assert np.min(np.diff(wp.phi[win])) >= -1e-10
        assert np.min(np.diff(wp.psi[win])) >= -1e-10
        band = max(1, int(0.1 * (win.stop - win.start)))
        assert np.max(wp.phi[win][:band]) < 1e-3
        assert np.max(1.0 - wp.phi[win][-band:]) < 1e-3
        assert np.max(wp.psi[win][:band]) < 1e-3
        assert np.max(1.0 - wp.psi[win][-band:]) < 1e-3
        assert wp.residual < 1e-4

    def test_speed_regression_baseline(self, standard_wave):
        # recorded from the first converged run of this construction; the
        # value is an output, asserted only as a regression guard
        assert standard_wave.speed == pytest.approx(0.118988, abs=1e-3)

    def test_extrapolated_speed_matches_converged_value(self, standard_wave):
        assert abs(standard_wave.speed - C_CONVERGED) < 1e-7
        assert standard_wave.speed_error < WaveOptions().speed_tol
        assert 0.0 < standard_wave.contraction_rate < 1.0

    def test_stops_at_the_first_step_meeting_the_tolerances(self, standard_wave):
        opts, h = WaveOptions(), standard_wave.history
        ratios = [d / d_prev for d_prev, d in zip(h.sup_diffs, h.sup_diffs[1:])]
        # the speed is the last displacement and the rate the last sup-diff ratio
        assert standard_wave.speed == h.displacements[-1]
        assert standard_wave.contraction_rate == ratios[-1]
        # the bound: twice the distance sup diff / (1 - q) over the slope at the crossing
        centre, dx = standard_wave.grid.half_cells, standard_wave.grid.dx
        slope = (standard_wave.phi[centre + 1] - standard_wave.phi[centre - 1]) / (2.0 * dx)
        assert standard_wave.speed_error == h.speed_errors[-1]
        assert standard_wave.speed_error == pytest.approx(
            2.0 * h.sup_diffs[-1] / ((1.0 - ratios[-1]) * slope), rel=1e-12)
        # it is defined from the second plain step on, once the mixing has stopped
        defined = [n for n, e in enumerate(h.speed_errors, 1) if not np.isnan(e)]
        assert defined == list(range(defined[0], standard_wave.steps + 1))
        switch = defined[0] - 1
        assert h.sup_diffs[switch - 1] < opts.profile_tol * opts.speed_tol
        assert all(d >= opts.profile_tol * opts.speed_tol for d in h.sup_diffs[:switch - 1])

        def met(n):
            return (h.sup_diffs[n - 1] < opts.profile_tol and ratios[n - 2] < 1.0
                    and h.speed_errors[n - 1] < opts.speed_tol)

        assert [n for n in defined if met(n)] == [standard_wave.steps]

    @pytest.mark.parametrize("ratio", [0.5, -0.5, 2.0, -2.0])
    def test_stops_only_on_contracting_sup_diffs(self, standard_wave, monkeypatch, ratio):
        # plain steps from the converged profile with displacements
        # c + 1e-7 * ratio**n move it by about phi' * 1e-7 * |ratio|**n per
        # step: sup diffs below profile_tol at the ratio |ratio|; only a
        # ratio below 1 may stop the solve
        _start_from(monkeypatch, standard_wave)
        monkeypatch.setattr(waves, "ANDERSON_DEPTH", 0)
        powers = iter(ratio ** n for n in range(1, 100))
        monkeypatch.setattr(waves, "front_position",
                            lambda x, U, level: standard_wave.speed + 1e-7 * next(powers))
        args = (ModelParams(0.5, 0.5, 2.0, 3.0), GaussianKernel(1.0), GaussianKernel(1.0),
                standard_wave.grid, WaveOptions(max_steps=4))
        if abs(ratio) < 1.0:
            # the first step with a ratio is the second
            wp = find_bistable_wave(*args)
            assert wp.steps == 2 and wp.contraction_rate == pytest.approx(abs(ratio), rel=0.05)
            assert wp.speed == standard_wave.speed + 1e-7 * ratio**2
        else:
            with pytest.raises(ConvergenceError) as info:
                find_bistable_wave(*args)
            sup_diffs = info.value.history.sup_diffs
            assert max(sup_diffs) < WaveOptions().profile_tol
            assert all(d > d_prev for d_prev, d in zip(sup_diffs, sup_diffs[1:]))
            # a ratio of 1 or more leaves no bound on the speed
            assert info.value.history.speed_errors[1:] == [math.inf] * 3

    def test_tight_speed_tol_bounds_the_speed_error(self, wave_grid, standard_wave):
        wp = find_bistable_wave(
            ModelParams(0.5, 0.5, 2.0, 3.0), GaussianKernel(1.0), GaussianKernel(1.0),
            wave_grid, WaveOptions(speed_tol=1e-9),
        )
        assert wp.speed_error < 1e-9
        assert wp.steps > standard_wave.steps
        assert abs(wp.speed - C_CONVERGED) < 1e-10

    def test_symmetric_parameters_give_zero_speed(self, wave_grid):
        wp = find_bistable_wave(
            ModelParams(0.5, 0.5, 2.0, 2.0), GaussianKernel(1.0), GaussianKernel(1.0),
            wave_grid,
        )
        assert abs(wp.speed) < 1e-8

    def test_translated_initial_data_is_equivalent(self, monkeypatch, wave_grid, standard_wave):
        p = ModelParams(0.5, 0.5, 2.0, 3.0)
        ramp = waves.step_initial_data
        monkeypatch.setattr(waves, "step_initial_data",
                            lambda grid, width: translate(ramp(grid, width), 5))
        wp = find_bistable_wave(p, GaussianKernel(1.0), GaussianKernel(1.0), wave_grid)
        assert wp.speed == pytest.approx(standard_wave.speed, abs=1e-6)
        assert np.max(np.abs(wp.phi - standard_wave.phi)) < 1e-6
        assert np.max(np.abs(wp.psi - standard_wave.psi)) < 1e-6

    def test_monotone_every_step(self, monkeypatch, wave_grid):
        # every recentered step G, before any mixing, is monotone, and so is
        # the resampled step of the residual
        defects = []
        resample = waves._resample_shifted

        def recording(*args):
            G, m = resample(*args)
            defects.append(float(np.diff(G, axis=1).min()))
            return G, m

        monkeypatch.setattr(waves, "_resample_shifted", recording)
        wp = find_bistable_wave(ModelParams(0.5, 0.5, 2.0, 3.0), GaussianKernel(1.0),
                                GaussianKernel(1.0), wave_grid)
        assert len(defects) == wp.steps + 1
        assert min(defects) >= -1e-12

    def test_iterates_stay_between_corner_states(self, params, wave_grid, gaussian_weights):
        # squeeze: the whole trajectory stays inside [0,1]^2 by comparison
        # with the constant sub/super solutions
        from rickerwaves import apply_Q, compare

        state = step_initial_data(wave_grid, 1.0)
        lo = constant_state(wave_grid, TRANSFORMED_FRAME, (0.0, 0.0))
        hi = constant_state(wave_grid, TRANSFORMED_FRAME, (1.0, 1.0))
        for _ in range(10):
            state = apply_Q(state, params, gaussian_weights, gaussian_weights)
            assert compare(lo, state) in ("le", "equal")
            assert compare(state, hi) in ("le", "equal")

    def test_full_state_scans_do_not_grow_with_the_steps(self, monkeypatch):
        # each step's clamp checks what apply_Q returns, so no state is
        # scanned per step: the ramp and the residual's state are
        calls = []
        check = SpatialState.__init__
        monkeypatch.setattr(SpatialState, "__init__",
                            lambda self, *args, **kw: calls.append(1) or check(self, *args, **kw))
        p, k = ModelParams(0.5, 0.5, 2.0, 3.0), GaussianKernel(1.0)
        scans, steps = set(), set()
        for opts in (WaveOptions(), WaveOptions(speed_tol=1e-9)):
            calls.clear()
            steps.add(find_bistable_wave(p, k, k, opts=opts).steps)
            scans.add(len(calls))
        assert len(steps) == 2
        assert len(scans) == 1 and scans.pop() <= 3

    def test_each_kernel_discretized_once_per_solve(self, wave_grid, monkeypatch):
        # the residual reuses the solver's discretized kernels
        calls = []

        def counting(*args, **kwargs):
            calls.append(args)
            return discretize(*args, **kwargs)

        monkeypatch.setattr(waves, "discretize", counting)
        find_bistable_wave(
            ModelParams(0.5, 0.5, 2.0, 3.0), GaussianKernel(1.0),
            UniformKernel(1.5), wave_grid,
        )
        assert len(calls) == 2

    def test_equal_kernels_discretized_once_per_solve(self, wave_grid, monkeypatch):
        calls = []

        def counting(*args, **kwargs):
            calls.append(args)
            return discretize(*args, **kwargs)

        monkeypatch.setattr(waves, "discretize", counting)
        p = ModelParams(0.5, 0.5, 2.0, 3.0)
        wp = find_bistable_wave(p, GaussianKernel(1.0), GaussianKernel(1.0), wave_grid)
        assert len(calls) == 1 and wp.discrete_kernels[0] is wp.discrete_kernels[1]
        # two equal tables are two kernels: each is discretized, and nothing
        # compares their arrays
        offsets = np.linspace(-1.0, 1.0, 21)
        t1, t2 = (TableKernel(offsets, 1.0 - np.abs(offsets)) for _ in range(2))
        calls.clear()
        wp = find_bistable_wave(p, t1, t2, wave_grid)
        assert len(calls) == 2 and np.array_equal(*(dk.weights for dk in wp.discrete_kernels))

    def test_budget_exhaustion_raises_with_history(self, wave_grid):
        opts = WaveOptions(max_steps=3)
        with pytest.raises(ConvergenceError) as info:
            find_bistable_wave(
                ModelParams(0.5, 0.5, 2.0, 3.0), GaussianKernel(1.0),
                GaussianKernel(1.0), wave_grid, opts,
            )
        history = info.value.history
        assert len(history.displacements) == 3
        message = str(info.value)
        for name in ("last sup diff", "speed error", "contraction rate"):
            assert name in message
        # at the last sup-diff ratio q, ln(sup diff / profile_tol) / -ln(q) more steps
        rate = history.sup_diffs[-1] / history.sup_diffs[-2]
        assert 0.0 < rate < 1.0
        more = np.log(history.sup_diffs[-1] / opts.profile_tol) / -np.log(rate)
        assert f"about {int(np.ceil(more))} more steps at that rate" in message

    @pytest.mark.parametrize("budget", [0, -1])
    def test_nonpositive_step_budget_rejected(self, wave_grid, budget):
        with pytest.raises(ParameterError, match="max_steps"):
            find_bistable_wave(
                ModelParams(0.5, 0.5, 2.0, 3.0), GaussianKernel(1.0),
                GaussianKernel(1.0), wave_grid, WaveOptions(max_steps=budget),
            )

    @pytest.mark.parametrize("budget", [30.0, 2.5, math.nan, True])
    def test_non_integer_step_budget_rejected_before_stepping(self, monkeypatch, budget):
        steps = []
        monkeypatch.setattr(waves, "apply_Q", lambda *args: steps.append(args))
        k = GaussianKernel(1.0)
        with pytest.raises(ParameterError,
                           match=rf"^solver max_steps must be an integer, got {budget!r}$"):
            find_bistable_wave(ModelParams(0.5, 0.5, 2.0, 3.0), k, k,
                               opts=WaveOptions(max_steps=budget))
        assert steps == []

    @pytest.mark.parametrize("opts,dx,message", [
        (WaveOptions(profile_tol="1e-6"), None,
         "solver profile_tol must be a real number in float range, got '1e-6'"),
        (WaveOptions(speed_tol=None), None,
         "solver speed_tol must be a real number in float range, got None"),
        (WaveOptions(profile_tol=True), None,
         "solver profile_tol must be a real number in float range, got True"),
        (None, "0.1", "dx must be a real number in float range, got '0.1'"),
        (None, True, "dx must be a real number in float range, got True"),
        (WaveOptions(speed_tol=1j), None,
         "solver speed_tol must be a real number in float range, got 1j"),
        (WaveOptions(profile_tol=Decimal("0.001")), None,
         "solver profile_tol must be a real number in float range, got Decimal('0.001')"),
        (None, Decimal("1"), "dx must be a real number in float range, got Decimal('1')"),
        (None, 1j, "dx must be a real number in float range, got 1j"),
        (WaveOptions(profile_tol=10**400), None,
         f"solver profile_tol must be a real number in float range, got {10**400!r}"),
        (WaveOptions(speed_tol=Fraction(10**400)), None,
         f"solver speed_tol must be a real number in float range, got {Fraction(10**400)!r}"),
        (None, 10**400, f"dx must be a real number in float range, got {10**400!r}"),
        (None, Fraction(10**400),
         f"dx must be a real number in float range, got {Fraction(10**400)!r}"),
    ], ids=["str_tol", "none_tol", "bool_tol", "str_dx", "bool_dx", "complex_tol",
            "decimal_tol", "decimal_dx", "complex_dx", "int_overflow_tol",
            "fraction_overflow_tol", "int_overflow_dx", "fraction_overflow_dx"])
    def test_wrongly_typed_value_rejected_before_stepping(self, monkeypatch, opts, dx, message):
        # a bool counts as 0 or 1, a string fails a comparison and float() of
        # 10**400 overflows: each is refused by name before the first step
        steps = []
        monkeypatch.setattr(waves, "apply_Q", lambda *args: steps.append(args))
        k = GaussianKernel(1.0)
        with pytest.raises(ParameterError, match=f"^{re.escape(message)}$"):
            find_bistable_wave(ModelParams(0.5, 0.5, 2.0, 3.0), k, k, opts=opts, dx=dx)
        assert steps == []

    @pytest.mark.parametrize("value", [math.nan, math.inf, 0.0, -1.0])
    @pytest.mark.parametrize("name", ["profile_tol", "speed_tol"])
    def test_tolerance_not_positive_and_finite_rejected_before_stepping(
            self, monkeypatch, name, value):
        steps = []
        monkeypatch.setattr(waves, "apply_Q", lambda *args: steps.append(args))
        k = GaussianKernel(1.0)
        with pytest.raises(ParameterError, match=f"solver {name} must be positive and finite"):
            find_bistable_wave(ModelParams(0.5, 0.5, 2.0, 3.0), k, k,
                               opts=WaveOptions(**{name: value}))
        assert steps == []

    def test_crossing_free_data_raises(self, monkeypatch, wave_grid):
        monkeypatch.setattr(waves, "step_initial_data", lambda grid, width: constant_state(
            grid, TRANSFORMED_FRAME, (0.8, 0.8)))
        with pytest.raises(DegenerateDataError):
            find_bistable_wave(
                ModelParams(0.5, 0.5, 2.0, 3.0), GaussianKernel(1.0),
                GaussianKernel(1.0), wave_grid,
            )

    def test_inadmissible_parameters_rejected(self, wave_grid):
        with pytest.raises(ParameterError):
            find_bistable_wave(
                ModelParams(1.5, 0.5, 2.0, 3.0), GaussianKernel(1.0),
                GaussianKernel(1.0), wave_grid,
            )

    def test_discretized_kernel2_rejected_before_stepping(self, monkeypatch):
        # it has moments, so the speed check would pass it, but no density
        steps = []
        monkeypatch.setattr(waves, "apply_Q", lambda *args: steps.append(args))
        with pytest.raises(ParameterError,
                           match=r"^kernel2: expected a Kernel, got DiscreteKernel$") as info:
            find_bistable_wave(ModelParams(0.5, 0.5, 2.0, 3.0), GaussianKernel(1.0),
                               discretize(GaussianKernel(1.0), 0.1))
        assert isinstance(info.value.__cause__, ParameterError)
        assert steps == []

    def test_counter_propagation_failure_rejected_before_stepping(self, monkeypatch):
        # sigma * sqrt(2 r) underflows to 0.0, so every monostable speed is
        # 0.0 and neither A6 sum is positive
        steps = []
        monkeypatch.setattr(waves, "apply_Q", lambda *args: steps.append(args))
        p, k = ModelParams(0.1, 0.1, 2.0, 3.0), GaussianKernel(5e-324)
        cp = counter_propagation(p, k, k)
        assert (cp.sum_edge, cp.sum_interior, cp.passed) == (0.0, 0.0, False)
        with pytest.raises(ParameterError,
                           match=r"^counter-propagation sums are not both positive$"):
            find_bistable_wave(p, k, k)
        assert steps == []

    def test_original_frame_profile_connects_exclusion_states(self, standard_wave):
        original = SpatialState(
            grid=standard_wave.grid, frame=ORIGINAL_FRAME,
            U=1.0 - standard_wave.phi, V=standard_wave.psi,
        )
        # left tail at (1, 0), right tail at (0, 1)
        assert original.U[0] == pytest.approx(1.0, abs=1e-10)
        assert original.V[0] == pytest.approx(0.0, abs=1e-10)
        assert original.U[-1] == pytest.approx(0.0, abs=1e-10)
        assert original.V[-1] == pytest.approx(1.0, abs=1e-10)


def _exchange_cells(count, seed):
    """Seeded cells with a Gaussian first and a uniform second kernel."""
    rng = np.random.default_rng(seed)
    cells = []
    for _ in range(count):
        r1, r2 = rng.uniform(0.2, 0.8, 2)
        a1, a2 = rng.uniform(1.5, 3.5, 2)
        cells.append((ModelParams(float(r1), float(r2), float(a1), float(a2)),
                      GaussianKernel(float(rng.uniform(0.5, 1.5))),
                      UniformKernel(float(rng.uniform(0.5, 2.0)))))
    return cells


class TestKnownAnswerIdentities:
    @pytest.mark.parametrize("cell", _exchange_cells(6, 20240817),
                             ids=[f"cell{k}" for k in range(6)])
    def test_exchange_antisymmetry(self, cell):
        # swapping the species and mapping (U, V)(x) -> (1 - V, 1 - U)(-x)
        # turns a front of speed c into one of speed -c
        p, k1, k2 = cell
        swapped = ModelParams(p.r2, p.r1, p.a2, p.a1)
        grid = Grid(half_length=30.0, dx=0.1)
        wp = find_bistable_wave(p, k1, k2, grid)
        wq = find_bistable_wave(swapped, k2, k1, grid)
        assert validate_profile(wp).passed and validate_profile(wq).passed
        assert abs(wp.speed + wq.speed) <= wp.speed_error + wq.speed_error

    def test_speed_monotone_in_competition(self):
        # comparison principle: the cooperative-frame growth is monotone in
        # a1 and a2, so c falls as a1 grows and rises with a2; a1 = a2 is the
        # exchange-symmetric case, c = 0
        k, grid, values = GaussianKernel(1.0), Grid(half_length=30.0, dx=0.1), (1.5, 2.0, 2.5, 3.0)
        fronts = {(a1, a2): find_bistable_wave(ModelParams(0.5, 0.5, a1, a2), k, k, grid)
                  for a1 in values for a2 in values}

        def drop(faster, slower):
            return faster.speed - slower.speed > faster.speed_error + slower.speed_error

        for u, v in zip(values, values[1:]):
            for w in values:
                assert drop(fronts[u, w], fronts[v, w]), (u, v, w)
                assert drop(fronts[w, v], fronts[w, u]), (w, u, v)
        for a in values:
            assert abs(fronts[a, a].speed) <= fronts[a, a].speed_error

    def test_speed_scales_with_the_kernel_and_the_spacing(self):
        # x -> lambda x maps the lattice problem at (sigma, dx) onto the one
        # at (lambda sigma, lambda dx): the same weights, the same sized grid
        # in cells, and a front lambda times as fast
        p = ModelParams(0.5, 0.5, 2.0, 3.0)
        opts = WaveOptions(profile_tol=1e-10, speed_tol=1e-12)
        scaled, points = [], set()
        for lam in (0.5, 1.0, 2.0, 3.0):
            k = GaussianKernel(lam)
            wp = find_bistable_wave(p, k, k, opts=opts, dx=0.1 * lam)
            scaled.append(wp.speed / lam)
            points.add(wp.grid.n_points)
        assert max(scaled) - min(scaled) <= 1e-13
        assert len(points) == 1

    @pytest.mark.parametrize("opts,tol,cells", [
        (WaveOptions(), 5e-10, ("readme", "second", "uniform", "readme-dx0.01")),
        (WaveOptions(profile_tol=1e-10, speed_tol=1e-12), 1e-13, ("readme", "second", "uniform")),
    ], ids=["default", "tight"])
    def test_mass_identity_gives_the_speed(self, opts, tol, cells):
        # summing phi - Q[phi] = phi - phi(. - c) over the grid telescopes to
        # c (phi(+inf) - phi(-inf)) per component: a check of the step, the
        # embed into a given grid and the end values together
        readme, gauss = ModelParams(0.5, 0.5, 2.0, 3.0), GaussianKernel(1.0)
        setups = {
            "readme": (readme, gauss, None),
            "second": (ModelParams(0.3, 0.7, 2.5, 1.8), gauss, None),
            "uniform": (readme, UniformKernel(2.0), None),
            "readme-dx0.01": (readme, gauss, Grid(200.0, 0.01)),
        }
        for name in cells:
            p, k, grid = setups[name]
            wp = find_bistable_wave(p, k, k, grid, opts=opts)
            state = SpatialState(grid=wp.grid, frame=TRANSFORMED_FRAME, U=wp.phi, V=wp.psi)
            stepped = evolution.apply_Q(state, p, *wp.discrete_kernels).fields
            for f, q in zip((wp.phi, wp.psi), stepped):
                c = wp.grid.dx * float(np.sum(f - q)) / float(f[-1] - f[0])
                assert abs(c - wp.speed) <= tol, (name, c, wp.speed)


def laplace_balance_point(r1, r2, a2):
    """The a1 at which the original-frame front stands still, c = 0, for the
    Laplace kernel k(y) = e^{-|y|} / 2 shared by both species.

    k is the Green's function of 1 - d^2/dx^2, so a standing front of
    phi = k * g(phi) solves phi'' = phi - g(phi), a four-dimensional
    first-order system, with a1 as the free parameter.  The two half-lines
    x = -s and x = s, s in [0, 25], are solved side by side (8 unknowns):
    they join at s = 0 with equal values and opposite s-slopes, u(0) = 1/2
    fixes the translate, and the ends sit at the corners (1, 0) and (0, 1).
    The ODE shares no code with the package.
    """
    def rhs(s, y, p):
        out = np.empty_like(y)
        for k in (0, 4):
            u, du, v, dv = y[k:k + 4]
            gu = u * np.exp(r1 * (1.0 - u - p[0] * v))
            gv = v * np.exp(r2 * (1.0 - v - a2 * u))
            out[k:k + 4] = du, u - gu, dv, v - gv
        return out

    def bc(y0, yL, p):
        return np.array([y0[0] - y0[4], y0[2] - y0[6], y0[1] + y0[5], y0[3] + y0[7],
                         y0[0] - 0.5, yL[0] - 1.0, yL[2], yL[4], yL[6] - 1.0])

    s = np.linspace(0.0, 25.0, 301)
    t, dt = np.tanh(s / 2), 0.25 / np.cosh(s / 2) ** 2
    start = np.array([0.5 + 0.5 * t, dt, 0.5 - 0.5 * t, -dt,
                      0.5 - 0.5 * t, -dt, 0.5 + 0.5 * t, dt])
    sol = solve_bvp(rhs, bc, s, start, p=[3.0], tol=1e-10, max_nodes=5000)
    assert sol.success, sol.message
    return float(sol.p[0])


def laplace_table(dx):
    """The Laplace density e^{-|y|} / 2 sampled at dx (-J..J), J = round(40 / dx)."""
    offsets = dx * np.arange(-round(40.0 / dx), round(40.0 / dx) + 1)
    return TableKernel(offsets, np.exp(-np.abs(offsets)) / 2.0)


# laplace_balance_point(0.3, 0.7, 3.0); half-lines of 25 and 35 agree to 1.8e-11
LAPLACE_A1_STAR = 3.4965477333057


class TestLaplaceBalancePoint:
    """The lattice front speed at the Laplace ODE's balance point."""

    def test_the_ode_recomputes_its_balance_point(self):
        assert abs(laplace_balance_point(0.3, 0.7, 3.0) - LAPLACE_A1_STAR) <= 1e-9

    @pytest.mark.parametrize("dx", [0.1, 0.05, 0.025])
    def test_speed_vanishes_at_second_order(self, dx):
        k = laplace_table(dx)
        wp = find_bistable_wave(ModelParams(0.3, 0.7, LAPLACE_A1_STAR, 3.0), k, k,
                                opts=WaveOptions(1e-10, 1e-12), dx=dx)
        # c / dx^2 reads 4.355e-5 to 4.351e-5 from dx 0.1 to 0.025
        assert abs(wp.speed) <= 4.4e-5 * dx**2

    def test_sign_changes_across_the_balance_point(self):
        k = laplace_table(0.1)
        c = [find_bistable_wave(ModelParams(0.3, 0.7, a1, 3.0), k, k,
                                opts=WaveOptions(1e-10, 1e-12), dx=0.1).speed
             for a1 in (LAPLACE_A1_STAR - 0.01, LAPLACE_A1_STAR + 0.01)]
        # +9.215e-4 below, -9.176e-4 above
        assert c[0] > 0.0 > c[1]


TIGHT = WaveOptions(profile_tol=1e-11, speed_tol=1e-12)
ERROR_CELLS = {
    "readme": (ModelParams(0.5, 0.5, 2.0, 3.0), GaussianKernel(1.0)),
    "second": (ModelParams(0.3, 0.7, 2.5, 1.8), GaussianKernel(1.0)),
    "symmetric": (ModelParams(0.5, 0.5, 2.0, 2.0), GaussianKernel(1.0)),
    "uniform": (ModelParams(0.5, 0.5, 2.0, 3.0), UniformKernel(2.0)),
    "second-uniform": (ModelParams(0.3, 0.7, 2.5, 1.8), UniformKernel(1.0)),
    # near a = 1, where the last sup-diff ratio of a default solve is 0.95
    "fast": (ModelParams(0.5, 0.5, 1.05, 2.5), GaussianKernel(1.0)),
}


def _bounds_its_error(p, k1, k2):
    """Default and tight solves on the default grid; the default's bound holds."""
    wp = find_bistable_wave(p, k1, k2)
    tight = find_bistable_wave(p, k1, k2, opts=TIGHT)
    assert tight.speed_error < TIGHT.speed_tol
    assert abs(wp.speed - tight.speed) <= wp.speed_error
    return wp


def _distance_bound(wp):
    """How far the last sup diff leaves the profile from the fixed point."""
    return wp.history.sup_diffs[-1] / (1.0 - abs(wp.contraction_rate))


class TestSpeedError:
    @pytest.mark.parametrize("name", ERROR_CELLS)
    def test_bounds_the_error_against_a_tight_solve(self, name):
        p, k = ERROR_CELLS[name]
        _bounds_its_error(p, k, k)

    @pytest.mark.parametrize("name", ERROR_CELLS)
    def test_mixing_keeps_the_plain_iteration_answer(self, monkeypatch, name):
        p, k = ERROR_CELLS[name]
        mixed = find_bistable_wave(p, k, k)
        monkeypatch.setattr(waves, "ANDERSON_DEPTH", 0)
        plain = find_bistable_wave(p, k, k)
        assert mixed.steps < plain.steps
        assert abs(mixed.speed - plain.speed) <= mixed.speed_error + plain.speed_error
        # a step that moves the profile by d leaves it within d/(1 - q) of
        # the fixed point: up to 3.6e-6 for the plain solves, so more than
        # profile_tol
        far = _distance_bound(mixed) + _distance_bound(plain)
        assert max(np.max(np.abs(mixed.phi - plain.phi)),
                   np.max(np.abs(mixed.psi - plain.psi))) <= far


# the benchmark's box of strong-competition Gaussian cells
_unit = st.floats(0.2, 0.8)
_competition = st.floats(1.5, 3.5)
_sigma = st.floats(0.5, 2.0)


@settings(max_examples=6, deadline=None, derandomize=True, database=None)
@given(r1=_unit, r2=_unit, a1=_competition, a2=_competition, s1=_sigma, s2=_sigma)
def test_random_cells_converge_to_valid_profiles_within_their_bound(r1, r2, a1, a2, s1, s2):
    p, k1, k2 = ModelParams(r1, r2, a1, a2), GaussianKernel(s1), GaussianKernel(s2)
    assume(counter_propagation(p, k1, k2).passed)
    wp = _bounds_its_error(p, k1, k2)
    assert validate_profile(wp).passed


def _same_profile(a, b):
    """Bit-identical solver outputs, history included."""
    assert (a.speed, a.steps, a.residual) == (b.speed, b.steps, b.residual)
    assert np.array_equal(a.phi, b.phi) and np.array_equal(a.psi, b.psi)
    for name in ("sup_diffs", "displacements"):
        assert getattr(a.history, name) == getattr(b.history, name), name


def _same_front(a, b, opts=WaveOptions()):
    """Two solves of one front: speeds within their errors, profiles within profile_tol."""
    assert a.grid == b.grid
    assert abs(a.speed - b.speed) <= a.speed_error + b.speed_error
    assert max(np.max(np.abs(a.phi - b.phi)), np.max(np.abs(a.psi - b.psi))) <= opts.profile_tol


def _start_from(monkeypatch, wp):
    """Start every solve from the middle of ``wp``'s profile instead of the ramp."""
    def start(grid, width):
        m = wp.grid.half_cells - grid.half_cells
        inner = slice(m, m + grid.n_points)
        return SpatialState(grid=grid, frame=TRANSFORMED_FRAME, U=wp.phi[inner],
                            V=wp.psi[inner])

    monkeypatch.setattr(waves, "step_initial_data", start)


def _outgrown(monkeypatch):
    """Give every cell a zero tail decay rate: its sized grid outgrows any given one."""
    monkeypatch.setattr(waves, "_tail_decay_rate", lambda *args: 0.0)


def _stepped_lengths(monkeypatch):
    """The grid sizes of every apply_Q call the solver makes from here on."""
    lengths = []
    apply_Q = waves.apply_Q
    monkeypatch.setattr(waves, "apply_Q",
                        lambda state, *args: lengths.append(state.grid.n_points)
                        or apply_Q(state, *args))
    return lengths


class TestFrontWindow:
    """On a long grid the solve's window is the sized grid around the front."""

    @pytest.mark.parametrize("a2,family,dx", [
        (3.0, "gaussian", 0.1), (3.0, "gaussian", 0.01), (2.0, "gaussian", 0.01),
        (3.0, "uniform", 0.1),
    ], ids=["readme_dx0.1", "readme_dx0.01", "symmetric_dx0.01", "uniform_dx0.1"])
    def test_embedded_solve_matches_a_whole_grid_solve(self, monkeypatch, a2, family, dx):
        p = ModelParams(0.5, 0.5, 2.0, a2)
        k = GaussianKernel(1.0) if family == "gaussian" else UniformKernel(2.0)
        grid = Grid(half_length=200.0, dx=dx)
        lengths = _stepped_lengths(monkeypatch)
        embedded = find_bistable_wave(p, k, k, grid)
        # a solve's own grid runs its tails down to BAND_EPS; the one that
        # stands in for a given grid runs them down to profile_tol
        with monkeypatch.context() as m:
            m.setattr(waves, "BAND_EPS", WaveOptions().profile_tol)
            sized = find_bistable_wave(p, k, k, dx=dx)
        assert sized.grid.n_points > find_bistable_wave(p, k, k, dx=dx).grid.n_points
        # the long grid's solve is the profile_tol-sized one, its residual
        # taken on the long grid
        assert lengths[: embedded.steps] == [sized.grid.n_points] * embedded.steps
        assert lengths[embedded.steps] == grid.n_points
        assert (embedded.speed, embedded.steps) == (sized.speed, sized.steps)
        margin = grid.half_cells - sized.grid.half_cells
        for long, short in ((embedded.phi, sized.phi), (embedded.psi, sized.psi)):
            assert np.array_equal(long, np.pad(short, margin, mode="edge"))
        # a cell whose sized grid outgrows the long one is solved on every
        # cell of the long grid
        _outgrown(monkeypatch)
        lengths.clear()
        whole = find_bistable_wave(p, k, k, grid)
        assert set(lengths) == {grid.n_points}
        _same_front(embedded, whole)
        assert validate_profile(embedded).passed and validate_profile(whole).passed

    def test_first_step_is_windowed(self, monkeypatch):
        # every step runs on the sized grid, and the residual's step on the
        # long grid is windowed by apply_Q, so no convolution takes half of
        # the long grid's cells
        lengths = []
        convolve = evolution.convolve_extended

        def recording(field_values, *args, **kwargs):
            lengths.append(len(field_values))
            return convolve(field_values, *args, **kwargs)

        monkeypatch.setattr(evolution, "convolve_extended", recording)
        grid = Grid(half_length=200.0, dx=0.01)
        wp = find_bistable_wave(ModelParams(0.5, 0.5, 2.0, 3.0), GaussianKernel(1.0),
                                GaussianKernel(1.0), grid)
        # two convolutions per step and two for the residual
        assert len(lengths) == 2 * wp.steps + 2
        assert all(n < grid.n_points / 2 for n in lengths)

    def test_sub_floor_start_values_do_not_change_the_profile(self, monkeypatch):
        # the sized grid for sigma 1.5 reaches |x| = 37, where the ramp is
        # within the roundoff floor of its corners
        args = (ModelParams(0.5, 0.5, 2.0, 3.0), GaussianKernel(1.5), GaussianKernel(1.5))
        from_ramp = find_bistable_wave(*args)
        ramp = step_initial_data(from_ramp.grid, waves.RAMP_WIDTH)
        U = np.where(ramp.U < _FFT_NOISE_FLOOR, 0.0,
                     np.where(ramp.U > 1.0 - _FFT_NOISE_FLOOR, 1.0, ramp.U))
        assert not np.array_equal(U, ramp.U)
        monkeypatch.setattr(waves, "step_initial_data", lambda grid, width: SpatialState(
            grid=grid, frame=TRANSFORMED_FRAME, U=U, V=U))
        _same_profile(from_ramp, find_bistable_wave(*args))


class TestAnderson:
    def test_zero_and_singular_differences_start_the_history_again(self, rng):
        # no warning either: the suite turns warnings into errors
        mixer = waves._Anderson(3, 6)
        # dyadic values, so that every difference below is exact
        base = rng.integers(16, 48, (2, 2, 6)) / 64.0
        d = rng.choice([-2.0, -1.0, 1.0, 2.0], (2, 2, 6)) / 128.0

        def step(Gf):
            G = np.sort(Gf[0].copy(), axis=1)
            before = G.copy()
            mixer.step(G, Gf[1])
            return not np.array_equal(G, before)

        assert not step(base)  # the first step has no history
        assert not step(base.copy())  # a zero difference
        assert mixer.count == 0
        assert step(base + d)
        assert mixer.count == 1
        # the same difference again: a singular 2 x 2 Gram matrix
        assert not step(base + 2 * d)
        assert mixer.count == 0
        assert step(base + 2 * d + d[::-1])

    def test_private_solve_gives_numpys_bits_and_a_quiet_nan_when_singular(self, rng):
        # waves._solve is numpy's private _umath_linalg.solve1, so a numpy
        # release that changes it fails here rather than inside a solve
        for k in range(1, 6):
            for _ in range(20):
                rows = rng.standard_normal((k, 40))
                gram, rhs = rows @ rows.T, rows @ rng.standard_normal(40)
                assert (waves._solve(gram, rhs).tobytes()
                        == np.linalg.solve(gram, rhs).tobytes()), k
        # the mixer's reset reads the nan; np.linalg.solve raises instead
        singular = np.ones((2, 2))
        with pytest.raises(np.linalg.LinAlgError):
            np.linalg.solve(singular, np.ones(2))
        with np.errstate(all="ignore"):
            gamma = waves._solve(singular, np.ones(2))
        assert np.isnan(gamma).all()

    def test_mixed_iterate_is_monotone_in_the_unit_square(self, rng):
        mixer = waves._Anderson(2, 50)
        for scale in (0.0, 0.3, 0.6):
            Gf = rng.uniform(-0.5, 1.5, (2, 2, 50)) + scale
            G = Gf[0].copy()
            mixer.step(G, Gf[1])
        assert G.min() >= 0.0 and G.max() <= 1.0
        assert (np.diff(G, axis=1) >= 0.0).all()


def _whole_cell_shift(v, m):
    """v sampled m cells to the right, the vacated cells holding the edge value."""
    if m >= 0:
        return np.concatenate([v[:, m:], np.repeat(v[:, -1:], m, axis=1)], axis=1)
    return np.concatenate([np.repeat(v[:, :1], -m, axis=1), v[:, :m]], axis=1)


class TestResampleShifted:
    DX = 0.1

    @pytest.fixture
    def fields(self):
        # two monotone rows in [0, 1] with exact corners at both ends
        x = np.linspace(-3.0, 3.0, 41)
        return np.array([np.clip(0.5 + x / 4.0, 0.0, 1.0),
                         np.where(np.abs(x) < 3.0, expit(2.0 * x), x > 0.0)])

    @pytest.mark.parametrize("cells", [0.0, 0.3, -0.3, 0.5, -0.5, 1.7, -1.7, 3.0, -3.0])
    def test_linear_remainder_on_whole_cell_shifted_fields(self, fields, cells):
        dx = self.DX
        offset = cells * dx
        out, m = waves._resample_shifted(fields.copy(), offset, dx)
        assert m == round(cells)
        shifted = _whole_cell_shift(fields, m)
        r = offset - m * dx
        t = abs(r / dx)
        expected = shifted.copy()
        if r > 0.0:
            expected[:, :-1] = (1.0 - t) * shifted[:, :-1] + t * shifted[:, 1:]
        elif r < 0.0:
            expected[:, 1:] = (1.0 - t) * shifted[:, 1:] + t * shifted[:, :-1]
        assert (r == 0.0) == (cells in (0.0, 3.0, -3.0))
        assert out.tobytes() == expected.tobytes()
        # vacated cells take the edge value
        if m > 0:
            assert np.all(out[:, -m:] == fields[:, -1:])
        elif m < 0:
            assert np.all(out[:, :-m] == fields[:, :1])
        assert np.all(np.diff(out, axis=1) >= 0.0)
        assert out.min() >= 0.0 and out.max() <= 1.0

    @pytest.mark.parametrize("cells", [41, -41, 60])
    def test_a_shift_off_the_grid_raises(self, fields, cells):
        offset = cells * self.DX
        with pytest.raises(RangeError) as err:
            waves._resample_shifted(fields.copy(), offset, self.DX)
        assert str(err.value) == f"shift {offset} exceeds the grid"
        # one cell less stays on the grid
        assert waves._resample_shifted(fields.copy(), 40 * self.DX, self.DX)[1] == 40


class TestWaveResidual:
    def test_constant_equilibrium_profile_has_zero_residual(self, params, wave_grid,
                                                            gaussian_weights):
        wp = WaveProfile(
            grid=wave_grid,
            phi=np.zeros(wave_grid.n_points),
            psi=np.zeros(wave_grid.n_points),
            speed=0.37,
            residual=np.nan,
            steps=0,
            history=WaveHistory(),
            discrete_kernels=(gaussian_weights, gaussian_weights),
        )
        assert wp.kernel_half_width == 72
        resid = wave_residual(wp, params)
        assert resid == 0.0

    @pytest.mark.parametrize("half_length,speed,error", [
        (7.8, 0.5, "margin of 79 cells leaves no interior on 157 points"),
        (7.9, 0.5, None),
        # round(40.1 / 0.1) = 401 cells: the shift leaves all 401 points
        (20.0, 40.1, "shift 40.1 exceeds the grid"),
        (20.0, -40.1, "shift -40.1 exceeds the grid"),
        # 400 cells shift, and the window starts 72 + 400 + 2 = 474 cells in
        (20.0, 40.0, "margin of 474 cells leaves no interior on 401 points"),
    ], ids=["7.8-True", "7.9-False", "shift-right", "shift-left", "shift-margin"])
    def test_a_grid_without_an_interior_window_raises(self, params, gaussian_weights,
                                                      half_length, speed, error):
        # J = 72 and round(0.5 / 0.1) = 5: the window starts 72 + 5 + 2 = 79
        # cells in from each edge, which leaves none of 157 points and one of 159
        grid = Grid(half_length=half_length, dx=0.1)
        ramp = step_initial_data(grid, 1.0)
        wp = WaveProfile(grid=grid, phi=ramp.U, psi=ramp.V, speed=speed, residual=np.nan,
                         steps=0, history=WaveHistory(),
                         discrete_kernels=(gaussian_weights, gaussian_weights))
        assert grid.n_points == {7.8: 157, 7.9: 159, 20.0: 401}[half_length]
        if error is not None:
            with pytest.raises(RangeError) as err:
                wave_residual(wp, params)
            assert str(err.value) == error
        else:
            assert 0.0 < wave_residual(wp, params) < 1.0

    def test_converged_profile_self_consistent(self, standard_wave, params, gaussian_weights):
        assert all(np.array_equal(dk.weights, gaussian_weights.weights)
                   for dk in standard_wave.discrete_kernels)
        resid = wave_residual(standard_wave, params)
        assert resid == standard_wave.residual
        assert resid < 1e-4

    def test_perturbed_profile_detected(self, standard_wave, params, gaussian_weights):
        bump = 0.05 * np.exp(-0.5 * (standard_wave.grid.x / 3.0) ** 2)
        perturbed = WaveProfile(
            grid=standard_wave.grid,
            phi=np.clip(standard_wave.phi + bump, 0.0, 1.0),
            psi=standard_wave.psi.copy(),
            speed=standard_wave.speed,
            residual=np.nan,
            steps=standard_wave.steps,
            history=WaveHistory(),
            discrete_kernels=standard_wave.discrete_kernels,
        )
        resid = wave_residual(perturbed, params)
        assert resid > 1e-3


class TestValidateProfile:
    def test_converged_profile_passes_all_clauses(self, standard_wave):
        report = validate_profile(standard_wave)
        assert report.monotone_ok and report.range_ok
        assert report.left_tail_ok and report.right_tail_ok
        assert report.residual_ok
        assert report.passed

    def test_constant_profile_fails_tails(self, standard_wave):
        wp = WaveProfile(
            grid=standard_wave.grid,
            phi=np.full(standard_wave.grid.n_points, 0.5),
            psi=np.full(standard_wave.grid.n_points, 0.5),
            speed=0.0,
            residual=0.0,
            steps=0,
            history=WaveHistory(),
            discrete_kernels=standard_wave.discrete_kernels,
        )
        report = validate_profile(wp)
        assert report.monotone_ok
        assert not report.left_tail_ok and not report.right_tail_ok
        assert not report.passed

    def test_reversed_profile_fails_monotonicity(self, standard_wave):
        wp = WaveProfile(
            grid=standard_wave.grid,
            phi=standard_wave.phi[::-1].copy(),
            psi=standard_wave.psi[::-1].copy(),
            speed=standard_wave.speed,
            residual=standard_wave.residual,
            steps=standard_wave.steps,
            history=WaveHistory(),
            discrete_kernels=standard_wave.discrete_kernels,
        )
        report = validate_profile(wp)
        assert not report.monotone_ok
        assert not report.passed

    def test_residual_over_the_bound_fails(self, standard_wave):
        report = validate_profile(standard_wave._replace(residual=2e-4))
        assert not report.residual_ok
        assert not report.passed


def _latin_hypercube_cells(count, seed):
    """Admissible cells from one stratified draw per parameter (r, a, sigma)."""
    rng = np.random.default_rng(seed)
    bounds = {"r1": (0.2, 0.8), "r2": (0.2, 0.8), "a1": (1.5, 3.5), "a2": (1.5, 3.5),
              "s1": (0.5, 2.0), "s2": (0.5, 2.0)}
    columns = {name: lo + (hi - lo) * (rng.permutation(count) + rng.random(count)) / count
               for name, (lo, hi) in bounds.items()}
    return [(ModelParams(*(float(columns[n][k]) for n in ("r1", "r2", "a1", "a2"))),
             GaussianKernel(float(columns["s1"][k])), GaussianKernel(float(columns["s2"][k])))
            for k in range(count)]


_TRIANGLE = TableKernel(offsets=np.linspace(-1.5, 1.5, 31),
                        densities=1.0 - np.abs(np.linspace(-1.5, 1.5, 31)) / 1.5)
SIZING_CELLS = _latin_hypercube_cells(8, 20240817) + [
    (ModelParams(0.5, 0.5, 2.0, 3.0), UniformKernel(2.0), UniformKernel(2.0)),
    (ModelParams(0.4, 0.6, 2.5, 2.0), _TRIANGLE, GaussianKernel(1.0)),
]


class TestWaveGrid:
    @pytest.mark.parametrize("cell", SIZING_CELLS,
                             ids=[f"lhs{k}" for k in range(8)] + ["uniform", "table"])
    def test_doubling_the_sized_grid_keeps_the_speed(self, cell):
        p, k1, k2 = cell
        wp = find_bistable_wave(p, k1, k2)
        grid = wp.grid
        assert grid.half_length < DEFAULT_HALF_LENGTH
        assert grid.dx == DEFAULT_DX
        assert validate_profile(wp).passed
        doubled = find_bistable_wave(p, k1, k2, Grid(2.0 * grid.half_length, grid.dx))
        assert abs(wp.speed - doubled.speed) <= 1e-9

    def test_stiff_cell_needs_a_longer_grid(self):
        # the slowest tail decays at 0.0143 per unit: it needs L ~ 707 to
        # fall to 4.5e-5, and a grid capped at 200 would cut it off at
        # 1 - psi ~ 1.7e-3
        p, k = ModelParams(0.999, 0.001, 2.0, 3.0), GaussianKernel(1.0)
        hint = r"half length of about 707\.3.*\(grid\.L, or --set grid\.L=\.\.\. on"
        for dx in (None, DEFAULT_DX):
            with pytest.raises(RangeError, match=hint):
                find_bistable_wave(p, k, k, dx=dx)
        # a grid given by the caller is solved on as it is
        with pytest.raises(ConvergenceError):
            find_bistable_wave(p, k, k, Grid(DEFAULT_HALF_LENGTH, DEFAULT_DX),
                               WaveOptions(max_steps=5))

    def test_grid_follows_the_spacing_and_profile_tolerance(self, monkeypatch):
        p, k = ModelParams(0.5, 0.5, 2.0, 3.0), GaussianKernel(1.0)
        coarse = find_bistable_wave(p, k, k, dx=0.2).grid
        fine = find_bistable_wave(p, k, k, dx=0.1).grid
        assert coarse.dx == 0.2
        assert coarse.half_length == pytest.approx(fine.half_length, abs=0.2)
        assert fine.n_points == 499
        # a solve's own grid follows speed_tol, not profile_tol: its tails
        # fall to min(4.5e-5, sqrt(speed_tol))
        strict = WaveOptions(profile_tol=1e-9)
        assert find_bistable_wave(p, k, k, opts=strict, dx=0.1).grid == fine
        tight = find_bistable_wave(p, k, k, opts=WaveOptions(speed_tol=1e-12), dx=0.1).grid
        assert tight.n_points == 633
        # the sized grid that stands in for a given one follows profile_tol:
        # ln(1e9)/ln(1e6) of the tail length beyond the kernel reach
        lengths = _stepped_lengths(monkeypatch)
        given = Grid(DEFAULT_HALF_LENGTH, 0.1)
        for profile_tol in (1e-6, 1e-9):
            with pytest.raises(ConvergenceError):
                find_bistable_wave(p, k, k, given, WaveOptions(profile_tol, max_steps=1))
        assert lengths[0] == tight.n_points
        reach = discretize(k, 0.1).half_width
        assert (lengths[1] // 2 - reach) == pytest.approx(1.5 * (lengths[0] // 2 - reach), abs=2)

    def test_decay_rate_solves_the_characteristic_equation(self):
        sigma, speed = 1.3, 0.4
        dk = discretize(GaussianKernel(sigma), 0.1)
        for log_alpha in (np.log(0.5), -1.0, -0.01):
            lam = waves._decay_rate(log_alpha, dk, speed)
            assert log_alpha + np.log(dk.moments(lam)[0]) + lam * speed == pytest.approx(
                0.0, abs=1e-12)
            # the Gaussian closed form, ln M = (sigma lam)^2 / 2
            exact = (-speed + np.sqrt(speed**2 - 2.0 * sigma**2 * log_alpha)) / sigma**2
            assert lam == pytest.approx(exact, rel=1e-9)

    def test_decay_rate_may_start_at_the_overflow_cap(self):
        # at speed 1e-6 the start -log_alpha/speed passes the largest safe
        # exponent 709/(J dx), and 709/0.59 times 0.59 rounds to
        # 709.0000000000001: the start sits on the MGF's own overflow bound
        dk = discretize(UniformKernel(0.59), 0.01)
        assert dk.half_width == 59
        lam = waves._decay_rate(-0.5, dk, 1e-6)
        assert 0.0 < lam < 709.0 / 0.59
        assert -0.5 + np.log(dk.moments(lam)[0]) + lam * 1e-6 == pytest.approx(0.0, abs=1e-12)

    def test_decay_rate_returns_the_overflow_cap_below_the_root(self):
        # log_alpha = r1 (1 - a1) at r1 = 0.5, a1 = 2001: even at the largest
        # safe exponent 709/(J dx) the characteristic function is negative,
        # so the root lies beyond it and the cap itself is returned
        dk = discretize(GaussianKernel(1.0), 0.1)
        cap = 709.0 / float(dk.offsets[-1])
        assert -1000.0 + np.log(dk.moments(cap)[0]) + cap * 0.1 < 0.0
        assert waves._decay_rate(-1000.0, dk, 0.1) == cap

    def test_a_front_may_outrun_the_sizing_speed(self):
        # near a = 1 the front is faster than the interior monostable speed
        # the grid is sized with, though slower than the edge speed; the
        # sized solve still gives a valid profile and its exchange partner
        # the opposite speed
        p, k = ModelParams(0.5, 0.5, 1.05, 2.5), GaussianKernel(1.0)
        cp = counter_propagation(p, k, k)
        wp = find_bistable_wave(p, k, k)
        assert wp.speed == pytest.approx(0.3200465, abs=1e-7)
        assert cp.c_plus_F0F2.value == pytest.approx(0.2136103, abs=1e-7)
        assert cp.c_plus_F0F2.value < wp.speed < cp.c_plus_F0F1.value == 1.0
        assert validate_profile(wp).passed
        partner = find_bistable_wave(ModelParams(0.5, 0.5, 2.5, 1.05), k, k)
        assert abs(wp.speed + partner.speed) <= 1e-8

    def test_slow_tail_cell_sizes_to_the_validation_band(self):
        # its slowest tail needs L ~ 240.9 to fall to profile_tol, past the
        # cap, but only ~176.5 to fall to the tail level validation reads
        k = GaussianKernel(1.0)
        wp = find_bistable_wave(ModelParams(0.8, 0.2, 2.5, 1.05), k, k)
        assert wp.grid.half_length == pytest.approx(176.5, abs=0.1)
        assert validate_profile(wp).passed
        assert wp.speed == pytest.approx(-0.249074, abs=1e-6)
        partner = find_bistable_wave(ModelParams(0.2, 0.8, 1.05, 2.5), k, k)
        assert validate_profile(partner).passed
        assert abs(wp.speed + partner.speed) <= wp.speed_error + partner.speed_error

    @pytest.mark.parametrize("cell", SIZING_CELLS,
                             ids=[f"lhs{k}" for k in range(8)] + ["uniform", "table"])
    def test_sized_tails_keep_a_margin_under_the_tail_tolerance(self, cell):
        # the sized grid's tails reach the corners within a third of what
        # validation allows in its outer bands
        details = validate_profile(find_bistable_wave(*cell)).details
        assert details["left_tail_deviation"] <= waves.TAIL_TOL / 3
        assert details["right_tail_deviation"] <= waves.TAIL_TOL / 3

    def test_slowest_corner_sets_the_rate(self):
        p = ModelParams(0.3, 0.7, 1.6, 3.2)
        k1, k2 = GaussianKernel(0.8), GaussianKernel(1.7)
        dk1, dk2 = discretize(k1, 0.1), discretize(k2, 0.1)
        speed = system_speed_bound(p, k1, k2).value
        rates = [waves._decay_rate(np.log1p(-p.r1), dk1, speed),
                 waves._decay_rate(p.r2 * (1 - p.a2), dk2, speed),
                 waves._decay_rate(p.r1 * (1 - p.a1), dk1, speed),
                 waves._decay_rate(np.log1p(-p.r2), dk2, speed)]
        assert waves._tail_decay_rate(p, dk1, dk2, speed) == min(rates)
        assert find_bistable_wave(p, k1, k2).decay_rate == min(rates)

    def test_fast_tails_keep_interior_windows(self):
        dk = discretize(GaussianKernel(1.0), 0.1)
        grid = waves._sized_grid(dk, dk, 0.6, 1e9, WaveOptions())
        # wave_residual trims J + |round(c/dx)| + 2 cells, c up to the speed bound
        interior_slice(grid, dk.half_width + round(0.6 / 0.1) + 2)

    def test_given_grid_is_solved_on_unless_a_shorter_sized_grid_exists(self, monkeypatch):
        p, k = ModelParams(0.5, 0.5, 2.0, 3.0), GaussianKernel(1.0)
        lengths = _stepped_lengths(monkeypatch)
        # the sized grid at dx 0.2 is longer than 30, so the given grid is solved on
        grid = Grid(half_length=30.0, dx=0.2)
        wp = find_bistable_wave(p, k, k, grid)
        assert wp.grid == grid and set(lengths) == {grid.n_points}
        # on L = 200 the sized grid is solved on and embedded; with a sized
        # grid that outgrows it, every cell of the given grid is: the same front
        grid = Grid(half_length=DEFAULT_HALF_LENGTH, dx=DEFAULT_DX)
        embedded = find_bistable_wave(p, k, k, grid)
        _outgrown(monkeypatch)
        lengths.clear()
        wp = find_bistable_wave(p, k, k, grid)
        assert wp.grid == grid and set(lengths) == {grid.n_points}
        _same_front(wp, embedded)

    def test_stand_in_past_the_cap_is_solved_on(self, monkeypatch):
        # the profile_tol stand-in (L ~ 240.8) is longer than a sized grid may
        # be, but shorter than the given L = 300: every step runs on it, and
        # the profile and speed are those of a solve on all 6001 points
        p, k = ModelParams(0.8, 0.2, 2.5, 1.05), GaussianKernel(1.0)
        grid = Grid(300.0, 0.1)
        lengths = _stepped_lengths(monkeypatch)
        wp = find_bistable_wave(p, k, k, grid)
        assert lengths == [4817] * wp.steps + [grid.n_points]
        assert wp.grid == grid and wp.speed == -0.24907367758711202
        # the profile's bytes from when every step ran on the given grid
        assert hashlib.sha256(np.array((wp.phi, wp.psi)).tobytes()).hexdigest() == (
            "d79d4c8ad33512a39da9e0b33d85610943f5316331564c543fc4271d78bfb364")

    def test_dx_must_match_a_given_grid(self):
        p, k = ModelParams(0.5, 0.5, 2.0, 3.0), GaussianKernel(1.0)
        grid = Grid(half_length=30.0, dx=0.1)
        with pytest.raises(ParameterError, match=r"dx 0\.2 differs from the spacing 0\.1"):
            find_bistable_wave(p, k, k, grid, dx=0.2)
        assert (find_bistable_wave(p, k, k, grid, dx=0.1).speed
                == find_bistable_wave(p, k, k, grid).speed)

    def test_grid_too_short_for_the_kernel_is_rejected_before_stepping(self, monkeypatch):
        # J = 72 at dx = 0.1 and the sizing speed 0.604 (6 cells), so the least
        # half length is 80 cells, 8.0; 7.4 used to run the whole solve
        p, k = ModelParams(0.5, 0.5, 2.0, 3.0), GaussianKernel(1.0)
        steps = _stepped_lengths(monkeypatch)
        for half_length in (3.0, 7.3, 7.4, 7.9):
            with pytest.raises(RangeError, match=r"at least 8 \(72 \+ 6 \+ 2 cells of 0\.1\)"):
                find_bistable_wave(p, k, k, Grid(half_length, 0.1))
        assert steps == []
        # a grid the check lets through is solved on
        assert find_bistable_wave(p, k, k, Grid(8.0, 0.1)).grid.half_cells == 80
        assert steps

    def test_stiff_cell_solves_on_a_given_long_grid(self, monkeypatch):
        # its tails are too slow to size a grid, so the given one is solved on
        p, k = ModelParams(0.999, 0.001, 2.0, 3.0), GaussianKernel(1.0)
        grid = Grid(400.0, 0.1)
        lengths = _stepped_lengths(monkeypatch)
        wp = find_bistable_wave(p, k, k, grid)
        assert set(lengths) == {grid.n_points}
        assert wp.grid == grid
        assert wp.speed_error < WaveOptions().speed_tol
        assert validate_profile(wp).passed
