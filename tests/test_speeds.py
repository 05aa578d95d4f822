import math

import numpy as np
import pytest

from rickerwaves import (
    DomainError,
    GaussianKernel,
    Grid,
    MeasurementError,
    ModelParams,
    SpatialState,
    UniformKernel,
    counter_propagation,
    discretize,
    eigenvalues_2x2,
    front_position,
    iterate,
    linearization_matrix,
    measure_front_speed,
    scalar_speed,
    system_speed_bound,
)
from rickerwaves.errors import SearchError
from rickerwaves.model import ORIGINAL_FRAME

from conftest import random_admissible
from test_kernels import triangular_table


class TestScalarSpeed:
    @pytest.mark.parametrize("sigma", [1.0, 2.0])
    def test_gaussian_closed_form(self, sigma):
        # calculus oracle: min of r/mu + sigma^2 mu / 2 is sigma sqrt(2 r)
        # at mu = sqrt(2 r) / sigma
        report = scalar_speed(0.5, GaussianKernel(sigma))
        assert report.value == pytest.approx(sigma * math.sqrt(1.0), abs=1e-6)
        assert report.mu_star == pytest.approx(math.sqrt(1.0) / sigma, abs=1e-4)
        assert report.method == "scalar-formula"

    def test_uniform_kernel_frozen_oracle(self):
        # frozen from a 4e6-point dense grid plus high-precision root
        # refinement of the objective derivative
        report = scalar_speed(0.5, UniformKernel(1.0))
        assert report.value == pytest.approx(0.54746062375647, abs=1e-6)
        assert report.mu_star == pytest.approx(2.05924057068149, abs=1e-3)

    def test_growth_rate_domain(self):
        with pytest.raises(DomainError):
            scalar_speed(1.5, GaussianKernel(1.0))

    def test_search_never_touches_nonpositive_mu(self):
        seen = []
        kernel = GaussianKernel(1.0)

        class Probe:
            def mgf(self, mu):
                seen.append(mu)
                return kernel.mgf(mu)

        scalar_speed(0.5, Probe())
        assert min(seen) > 0.0

    def test_objective_blows_up_near_zero(self):
        kernel = GaussianKernel(1.0)
        tiny = (0.5 + math.log(kernel.mgf(1e-9))) / 1e-9
        assert tiny > 1e8

    @pytest.mark.parametrize(
        "make,shapes",
        [(GaussianKernel, (0.5, 1.0, 2.0)), (UniformKernel, (0.5, 1.0, 2.0)),
         (triangular_table, (0.5, 1.0, 2.0))],
        ids=["gaussian", "uniform", "table"],
    )
    def test_matches_dense_grid_minimum(self, make, shapes):
        for shape in shapes:
            kernel = make(shape)
            for r in (0.2, 0.5, 0.8):
                report = scalar_speed(r, kernel)
                mus = np.linspace(1e-4, 4.0 * report.mu_star, 10_000)
                dense = min((r + math.log(kernel.mgf(m))) / m for m in mus)
                assert abs(report.value - dense) <= 1e-6 * abs(report.value)
                assert report.value <= dense + 1e-12

    def test_curve_is_recorded(self):
        report = scalar_speed(0.5, GaussianKernel(1.0))
        assert len(report.curve) > 10
        mus = [mu for mu, _ in report.curve]
        assert mus == sorted(mus)


class TestWTransform:
    def test_fixed_constants_under_each_recursion(self, params, gaussian, small_grid):
        from rickerwaves.evolution import convolve_extended

        dk = discretize(gaussian, small_grid.dx)
        ones = np.ones(small_grid.n_points)
        q_next = 1.0 - convolve_extended((1.0 - ones) * np.exp(params.r1 * ones), dk, "direct")
        assert np.max(np.abs(q_next - 1.0)) < 1e-14
        w = np.ones(small_grid.n_points)
        w_next = convolve_extended(w * np.exp(params.r1 * (1.0 - w)), dk, "direct")
        assert np.max(np.abs(w_next - 1.0)) < 1e-14


class TestLinearizationMatrix:
    def test_entries_at_zero_exponent(self, params, gaussian):
        got = linearization_matrix(params, gaussian, gaussian, 0.0)
        assert np.allclose(got, [[0.9, 0.2], [0.6, 0.8]], atol=1e-14)

    def test_zero_exponent_is_kernel_independent(self, params, gaussian, uniform):
        a = linearization_matrix(params, gaussian, gaussian, 0.0)
        b = linearization_matrix(params, uniform, triangular_table(), 0.0)
        assert np.allclose(a, b, atol=1e-14)

    def test_columnwise_mgf_scaling(self, params, gaussian):
        base = linearization_matrix(params, gaussian, gaussian, 0.0)
        scaled = linearization_matrix(params, gaussian, gaussian, 1.0)
        assert np.allclose(scaled, base * math.exp(0.5), atol=1e-12)

    def test_entrywise_positive_for_random_draws(self, rng):
        for _ in range(20):
            p = random_admissible(rng, r_lo=0.05, r_hi=0.95, a_lo=1.05, a_hi=5.0)
            b = linearization_matrix(p, GaussianKernel(1.0), GaussianKernel(1.0), 2.0)
            assert np.all(b > 0.0)

    def test_negative_exponent_rejected(self, params, gaussian):
        with pytest.raises(DomainError):
            linearization_matrix(params, gaussian, gaussian, -1.0)


class TestPrincipalEigenvalue:
    def test_reference_matrix(self):
        # closed form: tr = 1.7, det = 0.6, disc = 0.49, root = (1.7+0.7)/2
        assert eigenvalues_2x2(np.array([[0.9, 0.2], [0.6, 0.8]]))[0] == pytest.approx(
            1.2, abs=1e-12
        )

    def test_symmetric_matrix(self):
        assert eigenvalues_2x2(np.array([[0.7, 0.3], [0.3, 0.7]]))[0] == pytest.approx(
            1.0, abs=1e-12
        )

    def test_is_dominant_root_with_positive_eigenvector(self, rng):
        for _ in range(50):
            m = rng.uniform(0.1, 2.0, (2, 2))
            lam = eigenvalues_2x2(m)[0]
            eigvals, eigvecs = np.linalg.eig(m)
            idx = np.argmax(eigvals.real)
            assert lam == pytest.approx(eigvals[idx].real, rel=1e-12)
            vec = eigvecs[:, idx].real
            vec = vec / vec[0]
            assert np.all(vec > 0.0)


class TestSystemSpeedBound:
    def test_reference_lambda_at_zero(self, params, gaussian):
        report = system_speed_bound(params, gaussian, gaussian)
        assert report.lambda0 == pytest.approx(1.2, abs=1e-12)
        assert report.lambda0 > 1.0
        assert report.method == "matrix-eigenvalue"

    def test_dominates_smaller_mgf_on_exponent_grid(self, rng):
        for _ in range(20):
            p = random_admissible(rng, r_lo=0.05, r_hi=0.95, a_lo=1.05, a_hi=5.0)
            k1 = GaussianKernel(float(rng.uniform(0.3, 2.0)))
            k2 = GaussianKernel(float(rng.uniform(0.3, 2.0)))
            for mu in np.arange(0.0, 3.01, 0.5):
                lam = eigenvalues_2x2(linearization_matrix(p, k1, k2, mu))[0]
                assert lam > min(k1.mgf(mu), k2.mgf(mu))
                assert lam > 1.0

    def test_positive_for_random_draws(self, rng):
        for _ in range(20):
            p = random_admissible(rng, r_lo=0.05, r_hi=0.95, a_lo=1.05, a_hi=5.0)
            report = system_speed_bound(p, GaussianKernel(1.0), GaussianKernel(1.0))
            assert report.value > 0.0


class TestCounterPropagation:
    def test_standard_gaussian_sums(self, params, gaussian):
        report = counter_propagation(params, gaussian, gaussian)
        assert report.sum_edge == pytest.approx(2.0, abs=1e-6)
        assert report.sum_interior > 0.0
        assert report.passed

    def test_positive_for_random_draws(self, rng):
        for _ in range(10):
            p = random_admissible(rng, r_lo=0.05, r_hi=0.95, a_lo=1.05, a_hi=5.0)
            report = counter_propagation(p, GaussianKernel(1.0), GaussianKernel(0.7))
            assert report.sum_edge > 0.0 and report.sum_interior > 0.0

    def test_small_growth_rate_stays_positive(self):
        p = ModelParams(r1=0.5, r2=1e-4, a1=2.0, a2=3.0)
        report = counter_propagation(p, GaussianKernel(1.0), GaussianKernel(1.0))
        # retreat speed is sigma sqrt(2 r2): tiny but strictly positive
        assert report.c_minus_F1F3.value == pytest.approx(math.sqrt(2e-4), abs=1e-6)
        assert report.c_minus_F1F3.value > 0.0

    def test_both_directions_share_one_interior_search(self, params, gaussian, uniform):
        # kernel symmetry makes the leftward and rightward matrices identical
        report = counter_propagation(params, gaussian, uniform)
        assert report.c_minus_F2F3 is report.c_plus_F0F2
        assert report.c_minus_F2F3.value == system_speed_bound(params, gaussian, uniform).value


def scalar_invasion(params, dk, grid, n_steps, keep_every=1):
    """Original-frame steps from a leftward-saturated U step with V = 0.

    With V identically zero the U update of the step operator is the scalar
    Ricker invasion u -> conv(u exp(r1 (1 - u))) with r = params.r1.
    """
    start = SpatialState(grid=grid, frame=ORIGINAL_FRAME,
                         U=np.where(grid.x <= 0.0, 1.0, 0.0), V=np.zeros(grid.n_points))
    return iterate(start, params, dk, dk, n_steps, keep_every)


def as_states(grid, fields):
    """Original-frame states with the given U fields and V = 0 at steps 0, 1, ..."""
    return [SpatialState(grid=grid, frame=ORIGINAL_FRAME, U=f, V=np.zeros(grid.n_points),
                         step=k) for k, f in enumerate(fields)]


class TestFrontMeasurement:
    def test_rigid_translation_gives_exact_cell_speed(self):
        grid = Grid(half_length=50.0, dx=0.1)
        fields = [np.where(grid.x <= k * 0.1, 1.0, 0.0) for k in range(12)]
        report = measure_front_speed(as_states(grid, fields), level=0.5, fit_window=(0, 11))
        assert report.speed == pytest.approx(0.1, abs=1e-13)
        assert report.residual_rms < 1e-12

    def test_stationary_front_measures_zero(self):
        grid = Grid(half_length=50.0, dx=0.1)
        base = np.where(grid.x <= 0.0, 1.0, 0.0)
        report = measure_front_speed(as_states(grid, [base] * 9), fit_window=(0, 8))
        assert abs(report.speed) < 1e-12

    def test_level_never_crossed(self):
        grid = Grid(half_length=10.0, dx=0.1)
        with pytest.raises(MeasurementError):
            front_position(grid.x, np.full(grid.n_points, 0.8), 0.5)

    def test_scalar_invasion_tracks_variational_speed(self, params, gaussian):
        grid = Grid(half_length=200.0, dx=0.1)
        dk = discretize(gaussian, grid.dx)
        trajectory = scalar_invasion(params, dk, grid, 150)
        report = measure_front_speed(
            trajectory, level=0.5, fit_window=(50, 150), margin_cells=dk.half_width,
        )
        assert abs(report.speed - 1.0) < 0.05

    def test_thinned_trajectory_fits_on_state_steps(self, params, gaussian):
        # positions are regressed on state.step, not on list position: every
        # tenth state fits the line of the full run over steps 20..60 (five
        # samples against 41, so they agree to the front's slow
        # acceleration; a fit on list position would read ten times faster)
        grid = Grid(half_length=100.0, dx=0.1)
        dk = discretize(gaussian, grid.dx)
        full = scalar_invasion(params, dk, grid, 60)
        thinned = scalar_invasion(params, dk, grid, 60, keep_every=10)
        every_step = measure_front_speed(full, margin_cells=dk.half_width, fit_window=(20, 60))
        report = measure_front_speed(thinned, margin_cells=dk.half_width, fit_window=(2, 6))
        assert np.array_equal(report.steps, np.arange(0.0, 61.0, 10.0))
        assert np.array_equal(report.positions, every_step.positions[::10])
        assert abs(report.speed - every_step.speed) < 2e-3

    def test_empirical_speed_grows_toward_limit_with_domain(self, params, gaussian):
        dk = discretize(gaussian, 0.1)
        measured = []
        for L in (100.0, 200.0, 400.0):
            grid = Grid(half_length=L, dx=0.1)
            steps = int(0.8 * L)
            trajectory = scalar_invasion(params, dk, grid, steps)
            report = measure_front_speed(
                trajectory, fit_window=(steps // 3, steps), margin_cells=dk.half_width,
            )
            measured.append(report.speed)
        assert measured[0] < measured[1] < measured[2] <= 1.0 + 1e-9
        assert abs(measured[-1] - 1.0) < 0.05


class TestSearchRobustness:
    def test_overflow_without_bracket_raises(self):
        # a fake kernel whose log-MGF decays keeps the objective falling, so
        # the doubling never brackets and runs into the overflow guard
        class DivergentObjective:
            def mgf(self, mu):
                if mu > 1000.0:
                    from rickerwaves.errors import RangeError

                    raise RangeError(f"overflow at mu={mu}")
                return math.exp(-0.5 * mu)  # log-mgf decreasing: objective falls

        with pytest.raises(SearchError):
            scalar_speed(0.5, DivergentObjective())
