import math

import numpy as np
import pytest
from scipy.special import erfc, erfcinv

from rickerwaves import (
    DegenerateKernelError,
    GaussianKernel,
    ParameterError,
    RangeError,
    TableKernel,
    UniformKernel,
    discretize,
    make_kernel,
    validate_hypotheses,
)


def triangular_table(halfwidth=1.0, n=101):
    offsets = np.linspace(-halfwidth, halfwidth, n)
    dens = np.maximum(1.0 - np.abs(offsets) / halfwidth, 0.0)
    return TableKernel(offsets=offsets, densities=dens)


class TestMakeKernel:
    def test_gaussian_total_mass(self):
        k = make_kernel("gaussian", sigma=1.0)
        assert k.mgf(0.0) == 1.0

    def test_uniform_density_values(self):
        k = make_kernel("uniform", halfwidth=1.0)
        assert k.density(0.5) == 0.5
        assert k.density(2.0) == 0.0

    def test_asymmetric_table_is_symmetrized_and_flagged(self):
        offsets = np.linspace(-1.0, 1.0, 5)
        dens = np.array([0.1, 0.2, 0.5, 0.4, 0.3])
        k = make_kernel("table", offsets=offsets, densities=dens)
        assert k.symmetrized
        assert np.array_equal(k.densities, k.densities[::-1])
        report = validate_hypotheses(k)
        assert report.passed
        assert any("symmetrized" in note for note in report.notes)

    def test_table_arrays_are_exact_mirrors_and_read_only(self, rng):
        offsets = np.linspace(-2.0, 2.0, 41)
        for _ in range(200):
            k = TableKernel(offsets=offsets, densities=rng.random(41))
            assert np.array_equal(k.densities, k.densities[::-1])
            assert np.array_equal(k.offsets, -k.offsets[::-1])
        for array in (k.offsets, k.densities):
            with pytest.raises(ValueError, match="read-only"):
                array[0] = 1.0

    def test_bad_shape_parameters_rejected(self):
        with pytest.raises(ParameterError):
            make_kernel("gaussian", sigma=0.0)
        with pytest.raises(ParameterError):
            make_kernel("gaussian", sigma=-1.0)
        with pytest.raises(ParameterError):
            make_kernel("uniform", halfwidth=-0.5)
        with pytest.raises(ParameterError):
            make_kernel("cauchy", gamma=1.0)

    def test_missing_shape_parameter_named(self):
        with pytest.raises(ParameterError, match="gaussian kernel needs shape parameter 'sigma'"):
            make_kernel("gaussian")
        with pytest.raises(ParameterError, match="'halfwidth'"):
            make_kernel("uniform", sigma=1.0, halfwidth=None)
        with pytest.raises(ParameterError, match="'densities'"):
            make_kernel("table", offsets=np.linspace(-1.0, 1.0, 5))

    def test_other_families_parameters_ignored(self):
        # a config's shared kernel.* entries reach every family
        k = make_kernel("uniform", sigma=1.0, halfwidth=0.5)
        assert k == UniformKernel(0.5)
        assert make_kernel("Gaussian", sigma=2.0, halfwidth=0.5) == GaussianKernel(2.0)

    def test_unknown_shape_parameter_rejected(self):
        with pytest.raises(ParameterError, match="sigmaa"):
            make_kernel("gaussian", sigma=1.0, sigmaa=2.0)

    def test_bad_tables_rejected(self):
        good = np.linspace(-1, 1, 5)
        with pytest.raises(ParameterError):  # even length
            TableKernel(offsets=np.linspace(-1, 1, 4), densities=np.ones(4))
        with pytest.raises(ParameterError):  # asymmetric grid
            TableKernel(offsets=good + 0.2, densities=np.ones(5))
        with pytest.raises(ParameterError):  # nonuniform spacing
            TableKernel(offsets=np.array([-1.0, -0.3, 0.0, 0.3, 1.0]), densities=np.ones(5))
        with pytest.raises(ParameterError):  # negative density
            TableKernel(offsets=good, densities=np.array([0.1, -0.2, 0.5, 0.2, 0.1]))


class TestMgf:
    def test_gaussian_at_zero(self):
        assert GaussianKernel(1.0).mgf(0.0) == 1.0

    def test_gaussian_closed_form(self):
        assert GaussianKernel(1.0).mgf(1.0) == pytest.approx(math.exp(0.5), abs=1e-12)

    def test_uniform_closed_form(self):
        assert UniformKernel(1.0).mgf(2.0) == pytest.approx(math.sinh(2.0) / 2.0, abs=1e-12)

    def test_overflow_names_mu(self):
        with pytest.raises(RangeError, match="mu=60"):
            GaussianKernel(1.0).mgf(60.0)
        with pytest.raises(RangeError):
            UniformKernel(1.0).mgf(800.0)

    @pytest.mark.parametrize(
        "kernel",
        [GaussianKernel(1.0), GaussianKernel(0.5), UniformKernel(1.0), triangular_table()],
        ids=["gauss1", "gauss05", "unif1", "tri"],
    )
    def test_symmetric_in_mu(self, kernel):
        for mu in range(-3, 4):
            assert kernel.mgf(mu) == pytest.approx(kernel.mgf(-mu), abs=1e-10)

    @pytest.mark.parametrize(
        "kernel",
        [GaussianKernel(1.0), UniformKernel(0.5), triangular_table()],
        ids=["gauss", "unif", "tri"],
    )
    def test_at_least_one_with_equality_only_at_zero(self, kernel):
        assert kernel.mgf(0.0) == pytest.approx(1.0, abs=1e-12)
        for mu in np.linspace(-3, 3, 25):
            if abs(mu) > 1e-9:
                assert kernel.mgf(mu) > 1.0


class TestMass:
    @pytest.mark.parametrize("sigma", [0.5, 1.0, 2.0])
    def test_gaussian_unit_mass(self, sigma):
        k = GaussianKernel(sigma)
        r = k.truncation_radius(1e-13)
        ys = np.linspace(-r, r, 200_001)
        assert np.trapezoid(k.density(ys), ys) == pytest.approx(1.0, abs=1e-10)

    @pytest.mark.parametrize("a", [0.5, 1.0, 2.0])
    def test_uniform_unit_mass(self, a):
        k = UniformKernel(a)
        ys = np.linspace(-a, a, 200_001)
        assert np.trapezoid(k.density(ys), ys) == pytest.approx(1.0, abs=1e-10)

    def test_table_unit_mass_under_reference_quadrature(self):
        k = triangular_table()
        assert k.spacing * k.densities.sum() == pytest.approx(1.0, abs=1e-14)

    @pytest.mark.parametrize(
        "kernel", [GaussianKernel(1.3), UniformKernel(0.7)], ids=["gauss", "unif"]
    )
    def test_builtin_density_is_even_exactly(self, kernel):
        ys = np.linspace(0.0, 3.0, 301)
        assert np.array_equal(kernel.density(ys), kernel.density(-ys))

    def test_table_density_even_at_its_samples(self):
        k = triangular_table()
        assert np.array_equal(k.density(k.offsets), k.density(-k.offsets))


class TestDiscretize:
    def test_gaussian_half_width_matches_tail_oracle(self):
        # oracle: two-sided tail mass outside [-R, R] is erfc(R / (sigma sqrt 2))
        eps = 1e-12
        dk = discretize(GaussianKernel(1.0), 0.1, eps)
        radius_oracle = math.sqrt(2.0) * float(erfcinv(eps))
        assert dk.half_width == math.ceil(radius_oracle / 0.1)  # = 72
        assert dk.half_width == 72
        assert erfc(dk.half_width * 0.1 / math.sqrt(2.0)) < eps

    @pytest.mark.parametrize("eps", [1e-18, 1e-12, 1e-8, 1e-4, 0.5])
    @pytest.mark.parametrize("sigma", [0.37, 1.0, 3.3])
    def test_gaussian_radius_matches_erfcinv(self, sigma, eps):
        oracle = sigma * math.sqrt(2.0) * float(erfcinv(eps))
        radius = GaussianKernel(sigma).truncation_radius(eps)
        assert radius == pytest.approx(oracle, rel=1e-14)

    @pytest.mark.parametrize("eps", [1e-12, 1e-8, 1e-4])
    @pytest.mark.parametrize("dx", [0.2, 0.1, 0.05, 0.01])
    def test_gaussian_half_width_matches_erfcinv(self, dx, eps):
        for sigma in (0.37, 0.5, 1.0, 1.5, 2.0, 3.3):
            oracle = sigma * math.sqrt(2.0) * float(erfcinv(eps))
            dk = discretize(GaussianKernel(sigma), dx, eps)
            assert dk.half_width == math.ceil(oracle / dx - 1e-12), (sigma, dx, eps)

    def test_weights_are_read_only(self, gaussian_weights):
        with pytest.raises(ValueError):
            gaussian_weights.weights[0] = 1.0

    def test_uniform_compact_support(self):
        dk = discretize(UniformKernel(1.0), 0.5)
        assert dk.half_width == 2
        assert dk.weights.sum() == 1.0

    @pytest.mark.parametrize(
        "kernel",
        [GaussianKernel(1.0), GaussianKernel(2.0), UniformKernel(1.0), triangular_table()],
        ids=["gauss1", "gauss2", "unif", "tri"],
    )
    def test_weights_sum_exactly_one_and_symmetric(self, kernel):
        dk = discretize(kernel, 0.1)
        assert dk.weights.sum() == 1.0
        assert np.array_equal(dk.weights, dk.weights[::-1])
        assert np.all(dk.weights >= 0.0)

    def test_uniform_weights_are_exact_cell_masses(self):
        # a = 2, dx = 0.1: the end cells [1.95, 2.05] hold half a cell of
        # [-2, 2], so the discrete MGF at mu = 1 is off by 8.3e-4, where full
        # end weights gave 2.7e-2; the error is second order in dx
        k = UniformKernel(2.0)
        dk = discretize(k, 0.1)
        assert dk.half_width == 20
        assert dk.weights[0] == dk.weights[-1] == pytest.approx(0.0125, rel=1e-13)
        assert np.allclose(dk.weights[1:-1], 0.025, rtol=1e-13, atol=0.0)
        err = dk.mgf(1.0) / k.mgf(1.0) - 1.0
        assert 0.0 < err <= 1e-3
        assert 0.0 < discretize(k, 0.01).mgf(1.0) / k.mgf(1.0) - 1.0 <= 1e-5
        # off the grid: a = 0.56 reaches 0.01 into the cell [0.55, 0.65]
        dk = discretize(UniformKernel(0.56), 0.1)
        assert dk.half_width == 6
        assert dk.weights[0] == pytest.approx(0.01 / 1.12, rel=1e-12)
        assert dk.weights[1] == pytest.approx(0.1 / 1.12, rel=1e-12)

    def test_degenerate_spacing_rejected(self):
        with pytest.raises(DegenerateKernelError):
            discretize(GaussianKernel(0.001), 1.0)

    def test_bad_arguments_rejected(self):
        with pytest.raises(ParameterError):
            discretize(GaussianKernel(1.0), -0.1)
        with pytest.raises(ParameterError):
            discretize(GaussianKernel(1.0), 0.1, eps_trunc=2.0)

    @pytest.mark.parametrize("dx", [1e-300, 5e-324])
    def test_dx_too_fine_for_any_grid_is_named(self, dx):
        with pytest.raises(ParameterError, match=r"dx=.* too fine .* half width J"):
            discretize(GaussianKernel(1.0), dx)

    def test_first_half_width_over_the_grid_point_cap_is_refused(self):
        # J = 5000000 needs 10000001 weights, one more than MAX_GRID_POINTS
        with pytest.raises(ParameterError, match="5e\\+06 cells"):
            discretize(UniformKernel(5000000.0), 1.0)

    def test_discrete_mgf_tracks_closed_form(self):
        # at eps_trunc=1e-12 the truncated mu-tilted tail caps the absolute
        # agreement near 1e-3 for |mu| <= 3; tighter truncation restores it
        g = GaussianKernel(1.0)
        dk12 = discretize(g, 0.1, 1e-12)
        mus = np.arange(-3.0, 3.001, 0.25)
        rel = max(abs(dk12.mgf(m) - g.mgf(m)) / g.mgf(m) for m in mus)
        assert rel < 2e-5
        inner = [m for m in mus if abs(m) <= 1.5]
        assert max(abs(dk12.mgf(m) - g.mgf(m)) for m in inner) < 1e-6
        dk18 = discretize(g, 0.1, 1e-18)
        assert max(abs(dk18.mgf(m) - g.mgf(m)) for m in mus) < 1e-6


class TestHypotheses:
    def test_gaussian_passes_both(self):
        report = validate_hypotheses(GaussianKernel(2.0))
        assert report.finite_mgf
        assert report.passed

    def test_heavy_tailed_table_fails_finite_mgf(self):
        offsets = np.linspace(-5, 5, 201)
        laplace = 0.5 * np.exp(-np.abs(offsets))
        k = TableKernel(offsets=offsets, densities=laplace, compactly_supported=False)
        report = validate_hypotheses(k)
        assert not report.finite_mgf
        assert not report.passed
        assert any("(H2)" in v for v in report.violations)

    def test_uniform_passes_both(self):
        report = validate_hypotheses(UniformKernel(0.5))
        assert report.passed
