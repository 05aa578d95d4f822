import warnings

import numpy as np
import pytest
from scipy.special import expit

from rickerwaves import (
    ConvergenceError,
    DomainError,
    DegenerateDataError,
    GaussianKernel,
    Grid,
    ModelParams,
    ParameterError,
    ProfileTolerances,
    TableKernel,
    UniformKernel,
    WaveOptions,
    change_coordinates,
    constant_state,
    discretize,
    find_bistable_wave,
    step_initial_data,
    translate,
    validate_profile,
    wave_residual,
)
from rickerwaves import waves
from rickerwaves.evolution import DEFAULT_DX, DEFAULT_HALF_LENGTH, SpatialState, interior_slice
from rickerwaves.model import TRANSFORMED_FRAME
from rickerwaves.speeds import system_speed_bound
from rickerwaves.waves import WaveHistory, WaveProfile

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

        def met(n):
            _, correction, rate = waves._aitken(h.displacements[:n])
            return (h.sup_diffs[n - 1] < opts.profile_tol and abs(rate) < 1.0
                    and abs(correction) < opts.speed_tol)

        assert [n for n in range(3, len(h.displacements) + 1) if met(n)] == [standard_wave.steps]
        speed, correction, rate = waves._aitken(h.displacements)
        assert standard_wave.speed == speed
        assert standard_wave.speed_error == abs(correction)
        assert standard_wave.contraction_rate == rate

    @pytest.mark.parametrize("ratio", [0.5, -0.5, 2.0, -2.0])
    def test_stops_only_on_contracting_displacements(self, standard_wave, monkeypatch, ratio):
        # from the converged profile, displacements c + 1e-12 * ratio**n keep every
        # Aitken correction far below speed_tol; only |ratio| < 1 may stop the solve
        powers = iter(ratio ** n for n in range(1, 100))
        monkeypatch.setattr(waves, "front_position",
                            lambda x, U, level: standard_wave.speed + 1e-12 * next(powers))
        start = SpatialState(grid=standard_wave.grid, frame=TRANSFORMED_FRAME,
                             U=standard_wave.phi, V=standard_wave.psi)
        args = (ModelParams(0.5, 0.5, 2.0, 3.0), GaussianKernel(1.0), GaussianKernel(1.0),
                standard_wave.grid, WaveOptions(max_steps=10))
        if abs(ratio) < 1.0:
            wp = find_bistable_wave(*args, initial=start)
            assert wp.steps == 3 and wp.contraction_rate == pytest.approx(ratio, rel=1e-3)
            assert wp.speed == pytest.approx(standard_wave.speed, abs=1e-15)
        else:
            with pytest.raises(ConvergenceError) as info:
                find_bistable_wave(*args, initial=start)
            assert max(info.value.history.sup_diffs) < WaveOptions().profile_tol

    def test_speed_tol_bounds_the_aitken_correction(self, wave_grid, standard_wave):
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

    def test_translated_initial_data_is_equivalent(self, wave_grid, standard_wave):
        p = ModelParams(0.5, 0.5, 2.0, 3.0)
        shifted = translate(step_initial_data(wave_grid, 1.0), 5)
        wp = find_bistable_wave(
            p, GaussianKernel(1.0), GaussianKernel(1.0), wave_grid, initial=shifted
        )
        assert wp.speed == pytest.approx(standard_wave.speed, abs=1e-6)
        assert np.max(np.abs(wp.phi - standard_wave.phi)) < 1e-6
        assert np.max(np.abs(wp.psi - standard_wave.psi)) < 1e-6

    def test_monotone_every_step(self, standard_wave):
        assert min(standard_wave.history.monotone_defects) >= -1e-12

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

    def test_budget_exhaustion_raises_with_history(self, wave_grid):
        opts = WaveOptions(max_steps=3)
        with pytest.raises(ConvergenceError) as info:
            find_bistable_wave(
                ModelParams(0.5, 0.5, 2.0, 3.0), GaussianKernel(1.0),
                GaussianKernel(1.0), wave_grid, opts,
            )
        assert len(info.value.history.displacements) == 3
        message = str(info.value)
        for name in ("last sup diff", "Aitken correction", "contraction rate"):
            assert name in message

    @pytest.mark.parametrize("budget", [0, -1])
    def test_nonpositive_step_budget_rejected(self, wave_grid, budget):
        with pytest.raises(ParameterError, match="max_steps"):
            find_bistable_wave(
                ModelParams(0.5, 0.5, 2.0, 3.0), GaussianKernel(1.0),
                GaussianKernel(1.0), wave_grid, WaveOptions(max_steps=budget),
            )

    def test_crossing_free_data_raises(self, wave_grid):
        flat = constant_state(wave_grid, TRANSFORMED_FRAME, (0.8, 0.8))
        with pytest.raises(DegenerateDataError):
            find_bistable_wave(
                ModelParams(0.5, 0.5, 2.0, 3.0), GaussianKernel(1.0),
                GaussianKernel(1.0), wave_grid, initial=flat,
            )

    def test_inadmissible_parameters_rejected(self, wave_grid):
        with pytest.raises(ParameterError):
            find_bistable_wave(
                ModelParams(1.5, 0.5, 2.0, 3.0), GaussianKernel(1.0),
                GaussianKernel(1.0), wave_grid,
            )

    def test_original_frame_profile_connects_exclusion_states(self, standard_wave):
        state = SpatialState(
            grid=standard_wave.grid, frame=TRANSFORMED_FRAME,
            U=standard_wave.phi, V=standard_wave.psi,
        )
        original = change_coordinates(state)
        # left tail at (1, 0), right tail at (0, 1)
        assert original.U[0] == pytest.approx(1.0, abs=1e-10)
        assert original.V[0] == pytest.approx(0.0, abs=1e-10)
        assert original.U[-1] == pytest.approx(0.0, abs=1e-10)
        assert original.V[-1] == pytest.approx(1.0, abs=1e-10)


class TestAitken:
    def test_geometric_sequence_extrapolates_exactly(self):
        limit, q = 0.25, 0.7
        xs = [limit + 0.5 * q**n for n in range(6)]
        speed, correction, rate = waves._aitken(xs)
        assert speed == pytest.approx(limit, abs=1e-15)
        assert correction == pytest.approx(xs[-1] - limit, rel=1e-12)
        assert rate == pytest.approx(q, rel=1e-12)

    def test_constant_displacements_need_no_correction(self):
        assert waves._aitken([0.3, 0.3, 0.3]) == (0.3, 0.0, 0.0)

    def test_steady_drift_does_not_contract(self):
        # equal nonzero increments: zero denominator, but |q| = 1 fails the stop test
        speed, correction, rate = waves._aitken([0.0, 0.5, 1.0])
        assert (speed, correction, rate) == (1.0, 0.0, 1.0)
        assert waves._aitken([0.5, 0.5, 1.0])[2] == float("inf")


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
            kernel_half_width=72,
        )
        resid = wave_residual(wp, params, gaussian_weights, gaussian_weights)
        assert resid == 0.0

    def test_converged_profile_self_consistent(self, standard_wave, params, gaussian_weights):
        resid = wave_residual(standard_wave, params, gaussian_weights, gaussian_weights)
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
            kernel_half_width=standard_wave.kernel_half_width,
        )
        resid = wave_residual(perturbed, params, gaussian_weights, gaussian_weights)
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
            kernel_half_width=72,
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
            kernel_half_width=standard_wave.kernel_half_width,
        )
        report = validate_profile(wp)
        assert not report.monotone_ok
        assert not report.passed

    def test_tolerances_are_configurable(self, standard_wave):
        strict = ProfileTolerances(residual_tol=1e-12)
        report = validate_profile(standard_wave, strict)
        assert not report.residual_ok


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
        grid = waves.wave_grid(p, k1, k2)
        assert grid.half_length < DEFAULT_HALF_LENGTH
        wp = find_bistable_wave(p, k1, k2)
        assert wp.grid == grid
        assert validate_profile(wp).passed
        doubled = find_bistable_wave(p, k1, k2, Grid(2.0 * grid.half_length, grid.dx))
        assert abs(wp.speed - doubled.speed) <= 1e-9

    def test_stiff_cell_keeps_the_default_grid(self):
        # r2 = 0.001 leaves the V tail at F3 decaying at ~1e-3 per unit
        grid = waves.wave_grid(ModelParams(0.999, 0.001, 2.0, 3.0), GaussianKernel(1.0),
                         GaussianKernel(1.0))
        assert grid == Grid(half_length=DEFAULT_HALF_LENGTH, dx=DEFAULT_DX)

    def test_grid_follows_the_spacing_and_profile_tolerance(self):
        p, k = ModelParams(0.5, 0.5, 2.0, 3.0), GaussianKernel(1.0)
        coarse, fine = waves.wave_grid(p, k, k, 0.2), waves.wave_grid(p, k, k, 0.1)
        assert coarse.dx == 0.2
        assert coarse.half_length == pytest.approx(fine.half_length, abs=0.2)
        strict = waves.wave_grid(p, k, k, 0.1, WaveOptions(profile_tol=1e-9))
        # ln(1e9)/ln(1e6) of the tail length beyond the kernel reach
        reach = discretize(k, 0.1).half_width * 0.1
        assert (strict.half_length - reach) == pytest.approx(
            1.5 * (fine.half_length - reach), abs=0.2)

    def test_decay_rate_solves_the_characteristic_equation(self):
        sigma, speed = 1.3, 0.4
        dk = discretize(GaussianKernel(sigma), 0.1)
        for log_alpha in (np.log(0.5), -1.0, -0.01):
            lam = waves._decay_rate(log_alpha, dk, speed)
            assert log_alpha + np.log(dk.mgf(lam)) + lam * speed == pytest.approx(0.0, abs=1e-12)
            # the Gaussian closed form, ln M = (sigma lam)^2 / 2
            exact = (-speed + np.sqrt(speed**2 - 2.0 * sigma**2 * log_alpha)) / sigma**2
            assert lam == pytest.approx(exact, rel=1e-9)

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
        grid = waves._sized_grid(dk, dk, 0.6, 1e9, 1e-6)
        # wave_residual trims J + |round(c/dx)| + 2 cells, c up to the speed bound
        interior_slice(grid, dk.half_width + round(0.6 / 0.1) + 2)

    def test_initial_state_sets_the_grid(self):
        p, k = ModelParams(0.5, 0.5, 2.0, 3.0), GaussianKernel(1.0)
        for grid in (Grid(half_length=DEFAULT_HALF_LENGTH, dx=DEFAULT_DX),
                     Grid(half_length=30.0, dx=0.2)):
            start = step_initial_data(grid, 1.0)
            wp = find_bistable_wave(p, k, k, initial=start)
            assert wp.grid == grid
            assert wp.speed == find_bistable_wave(p, k, k, grid).speed

    def test_initial_state_on_another_grid_rejected(self):
        p, k = ModelParams(0.5, 0.5, 2.0, 3.0), GaussianKernel(1.0)
        start = step_initial_data(Grid(half_length=30.0, dx=0.1), 1.0)
        with pytest.raises(DomainError):
            find_bistable_wave(p, k, k, Grid(half_length=40.0, dx=0.1), initial=start)
