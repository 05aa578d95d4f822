import math
import re
from decimal import Decimal, localcontext
from fractions import Fraction
from statistics import NormalDist

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.special import erfc, erfcinv

from rickerwaves import (
    DegenerateKernelError,
    DiscreteKernel,
    GaussianKernel,
    ParameterError,
    RangeError,
    TableKernel,
    UniformKernel,
    discretize,
    make_kernel,
    validate_hypotheses,
)
from rickerwaves.kernels import DEFAULT_TRUNCATION, _lattice_moments


def triangular_table(halfwidth=1.0, n=101):
    offsets = np.linspace(-halfwidth, halfwidth, n)
    dens = np.maximum(1.0 - np.abs(offsets) / halfwidth, 0.0)
    return TableKernel(offsets=offsets, densities=dens)


class TestMakeKernel:
    def test_gaussian_total_mass(self):
        k = make_kernel("gaussian", sigma=1.0)
        assert k.moments(0.0)[0] == 1.0

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
        # a table is a finite lattice, so its MGF is finite (H2)
        assert validate_hypotheses(k) is None

    def test_symmetrized_is_set_on_construction_only(self):
        offsets = np.linspace(-1.0, 1.0, 5)
        with pytest.raises(TypeError):
            TableKernel(offsets, 1.0 - np.abs(offsets), True, True)
        with pytest.raises(TypeError):
            TableKernel(offsets, 1.0 - np.abs(offsets), symmetrized=False)
        assert not TableKernel(offsets, 1.0 - np.abs(offsets)).symmetrized
        assert TableKernel(offsets, np.array([0.1, 0.2, 0.5, 0.4, 0.3])).symmetrized

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

    @pytest.mark.parametrize("make", [GaussianKernel, UniformKernel], ids=["gauss", "unif"])
    def test_a_width_whose_square_overflows_is_rejected(self, make):
        # the variance needs width * width, which is inf past ~1.34e154
        with pytest.raises(ParameterError, match="finite square, got 1e.160"):
            make(1e160)

    @pytest.mark.parametrize("width", [True, np.True_, "1", None, 1j, Decimal("1"), 10**400,
                                       Fraction(10**400)],
                             ids=["bool", "numpy-bool", "str", "none", "complex", "decimal",
                                  "int-overflow", "fraction-overflow"])
    @pytest.mark.parametrize("make", [GaussianKernel, UniformKernel], ids=["gauss", "unif"])
    def test_a_width_that_is_not_a_number_is_named(self, make, width):
        # a bool would equal and hash as the width 1.0, a Decimal fails only
        # once its moments mix it with floats, and float() of 10**400 overflows
        with pytest.raises(ParameterError, match=f"got {re.escape(repr(width))}$"):
            make(width)

    def test_a_width_whose_square_is_a_float_has_finite_moments(self):
        assert GaussianKernel(1e150).moments(0.0) == (1.0, 0.0, 1e150 * 1e150)

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

    def test_a_table_takes_no_support_flag(self):
        # a table is a finite lattice, so its MGF is finite whatever its tails
        offsets = np.linspace(-1.0, 1.0, 5)
        with pytest.raises(ParameterError,
                           match=r"^unknown kernel shape parameters \['compactly_supported'\]$"):
            make_kernel("table", offsets=offsets, densities=1.0 - np.abs(offsets),
                        compactly_supported=False)

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
        with pytest.raises(ParameterError, match="^table offsets and densities differ in length$"):
            TableKernel(offsets=good, densities=np.ones(3))
        with pytest.raises(ParameterError, match="^table densities sum to zero$"):
            TableKernel(offsets=good, densities=np.zeros(5))


class TestMgf:
    """M(mu), the first of the three numbers ``moments`` returns."""

    def test_gaussian_at_zero(self):
        assert GaussianKernel(1.0).moments(0.0)[0] == 1.0

    def test_gaussian_closed_form(self):
        assert GaussianKernel(1.0).moments(1.0)[0] == pytest.approx(math.exp(0.5), abs=1e-12)

    def test_uniform_closed_form(self):
        assert UniformKernel(1.0).moments(2.0)[0] == pytest.approx(
            math.sinh(2.0) / 2.0, abs=1e-12)

    def test_overflow_names_mu(self):
        with pytest.raises(RangeError, match="mu=60"):
            GaussianKernel(1.0).moments(60.0)
        with pytest.raises(RangeError):
            UniformKernel(1.0).moments(800.0)

    @pytest.mark.parametrize(
        "kernel",
        [GaussianKernel(1.0), UniformKernel(1.0), triangular_table(),
         DiscreteKernel(weights=np.array([0.25, 0.5, 0.25]), dx=0.1)],
        ids=["gauss", "unif", "tri", "discrete"],
    )
    def test_nan_exponent_names_mu(self, kernel):
        with pytest.raises(RangeError, match="mu=nan"):
            kernel.moments(math.nan)

    @pytest.mark.parametrize(
        "kernel",
        [GaussianKernel(1.0), GaussianKernel(0.5), UniformKernel(1.0), triangular_table()],
        ids=["gauss1", "gauss05", "unif1", "tri"],
    )
    def test_symmetric_in_mu(self, kernel):
        for mu in range(-3, 4):
            assert kernel.moments(mu)[0] == pytest.approx(kernel.moments(-mu)[0], abs=1e-10)

    @pytest.mark.parametrize(
        "kernel",
        [GaussianKernel(1.0), UniformKernel(0.5), triangular_table()],
        ids=["gauss", "unif", "tri"],
    )
    def test_at_least_one_with_equality_only_at_zero(self, kernel):
        assert kernel.moments(0.0)[0] == pytest.approx(1.0, abs=1e-12)
        for mu in np.linspace(-3, 3, 25):
            if abs(mu) > 1e-9:
                assert kernel.moments(mu)[0] > 1.0


# exponents x = (halfwidth) mu from 1e-8, where both moments cancel in
# closed form, to 50, where sinh and coth are far from their series
_TILT_X = [float(x) for x in np.geomspace(1e-8, 50.0, 12)]


def _decimal_tilted_moments(offsets, densities, mu):
    """(mass, mean, variance) of sum_i d_i exp(mu y_i) delta(y - y_i) in Decimal.

    The caller's context sets the digits; each mirror pair shares one exp."""
    mu = Decimal(mu)
    weights = []
    for y, d in zip(offsets, densities):
        e = (mu * Decimal(abs(y))).exp()
        weights.append((Decimal(y), Decimal(d) * (e if y >= 0 else 1 / e)))
    mass = sum(w for _, w in weights)
    mean = sum(y * w for y, w in weights) / mass
    return mass, mean, sum((y - mean) ** 2 * w for y, w in weights) / mass


def _decimal_uniform_moments(halfwidth, mu):
    """a (coth x - 1/x) and a^2 (1/x^2 - 1/sinh^2 x), x = a mu, in Decimal."""
    a = Decimal(halfwidth)
    x = a * Decimal(mu)
    e = x.exp()
    sinh, cosh = (e - 1 / e) / 2, (e + 1 / e) / 2
    return a * (cosh / sinh - 1 / x), a * a * (1 / (x * x) - 1 / (sinh * sinh))


def _relative_error(got, exact):
    return abs(Decimal(got) / exact - 1)


class TestTiltedMoments:
    """The mean and variance of the tilted kernel, the last two numbers of
    ``moments``."""

    @pytest.mark.parametrize("halfwidth", [0.5, 1.0, 3.0])
    def test_uniform_against_decimal(self, halfwidth):
        # 80 working digits: the closed forms lose up to 25 of them to
        # cancellation at x = 1e-8 and still carry more than 40
        kernel = UniformKernel(halfwidth)
        with localcontext() as ctx:
            ctx.prec = 80
            for x in _TILT_X:
                mu = x / halfwidth
                _, mean, variance = kernel.moments(mu)
                exact_mean, exact_variance = _decimal_uniform_moments(halfwidth, mu)
                assert _relative_error(mean, exact_mean) <= Decimal("1e-13"), x
                assert _relative_error(variance, exact_variance) <= Decimal("1e-13"), x
                # odd and even in mu
                assert kernel.moments(-mu)[1:] == (-mean, variance)

    @pytest.mark.parametrize("discretized", [False, True], ids=["table", "discrete"])
    @pytest.mark.parametrize("halfwidth", [0.5, 3.0])
    def test_table_against_decimal(self, halfwidth, discretized):
        # a table's moments, and those of its weights at its own spacing,
        # which the discrete kernel sums at offsets j dx without the spacing
        kernel = triangular_table(halfwidth, n=21)
        offsets, weights, scale = kernel.offsets, kernel.densities, kernel.spacing
        if discretized:
            kernel = discretize(kernel, kernel.spacing)
            offsets = kernel.dx * np.arange(-kernel.half_width, kernel.half_width + 1)
            weights, scale = kernel.weights, 1.0
        with localcontext() as ctx:
            ctx.prec = 80
            for x in _TILT_X:
                mu = x / halfwidth
                mgf, mean, variance = kernel.moments(mu)
                exact_mass, exact_mean, exact_variance = _decimal_tilted_moments(
                    offsets.tolist(), weights.tolist(), mu)
                assert _relative_error(mgf, Decimal(scale) * exact_mass) <= Decimal("1e-13"), x
                assert _relative_error(mean, exact_mean) <= Decimal("1e-13"), x
                assert _relative_error(variance, exact_variance) <= Decimal("1e-13"), x

    @pytest.mark.parametrize("mu,exact", [
        (600.0, 1.7513021525392984e-28),
        (690.0, 2.161278555414549e-32),
    ], ids=["mu600", "mu690"])
    def test_table_variance_keeps_its_precision_on_one_heavy_offset(self, mu, exact):
        # all but ~e^(-mu/10) of the tilted mass sits on y = 0.1; the exact
        # values are the 60-digit variances of the stored offsets and densities
        table = TableKernel([-0.1, 0.0, 0.1], [1.0, 2.0, 1.0])
        for kernel in (table, discretize(table, 0.1)):
            for tilt in (mu, -mu):
                assert kernel.moments(tilt)[2] == pytest.approx(exact, rel=1e-12, abs=0.0)

    def test_gaussian_closed_form(self):
        assert GaussianKernel(2.0).moments(0.75) == (math.exp(1.125), 3.0, 4.0)

    @pytest.mark.parametrize("kernel", [GaussianKernel(1.0), UniformKernel(1.0)],
                             ids=["gauss", "unif"])
    def test_centred_at_zero_with_the_kernel_variance(self, kernel):
        mgf, mean, variance = kernel.moments(0.0)
        assert (mgf, mean) == (1.0, 0.0)
        ys = np.linspace(-kernel.truncation_radius(), kernel.truncation_radius(), 400_001)
        assert variance == pytest.approx(
            np.trapezoid(ys * ys * kernel.density(ys), ys), rel=1e-6)

    @pytest.mark.parametrize(
        "kernel,mu", [(GaussianKernel(1.0), 60.0), (UniformKernel(1.0), 800.0),
                      (triangular_table(), 800.0), (GaussianKernel(1.0), math.nan),
                      (UniformKernel(1.0), math.nan), (triangular_table(), math.nan),
                      (GaussianKernel(1e150), 1e10)],
        ids=["gauss", "unif", "tri", "gauss-nan", "unif-nan", "tri-nan",
             "gauss-sigma-mu-past-float-square"])
    def test_overflow_where_the_mgf_overflows(self, kernel, mu):
        # sigma mu = 1e160 would overflow the float square itself
        with pytest.raises(RangeError, match=f"mu={mu}"):
            kernel.moments(mu)


class TestOrigin:
    """The moments at mu = 0, which a Gaussian or uniform kernel gives
    without its general formula: pinned to the bits that formula gave."""

    @pytest.mark.parametrize("kernel,at_plus,at_minus", [
        (GaussianKernel(0.7), ("0x1.0000000000000p+0", "0x0.0p+0", "0x1.f5c28f5c28f5bp-2"),
         ("0x1.0000000000000p+0", "-0x0.0p+0", "0x1.f5c28f5c28f5bp-2")),
        (UniformKernel(1.3), ("0x1.0000000000000p+0", "0x0.0p+0", "0x1.206d3a06d3a07p-1"),
         ("0x1.0000000000000p+0", "-0x0.0p+0", "0x1.206d3a06d3a07p-1")),
        (triangular_table(1.5), ("0x1.0000000000000p+0", "0x0.0p+0", "0x1.7fd8adab9f566p-2"),
         ("0x1.0000000000000p+0", "0x0.0p+0", "0x1.7fd8adab9f566p-2")),
    ], ids=["gauss", "unif", "tri"])
    def test_pinned_bits_at_both_zeros(self, kernel, at_plus, at_minus):
        assert tuple(v.hex() for v in kernel.moments(0.0)) == at_plus
        assert tuple(v.hex() for v in kernel.moments(-0.0)) == at_minus

    def test_an_underflowed_uniform_exponent_is_the_origin(self):
        # a mu = 1e-30 underflows to x = 0, and a^2 to 0
        assert tuple(v.hex() for v in UniformKernel(1e-300).moments(1e-30)) == (
            "0x1.0000000000000p+0", "0x0.0p+0", "0x0.0p+0")


@settings(max_examples=60, deadline=None, derandomize=True, database=None)
@given(halfwidth=st.floats(0.1, 10.0),
       half=st.lists(st.floats(0.01, 1.0), min_size=6, max_size=40))
def test_a_table_and_its_discretization_share_their_moments(halfwidth, half):
    # half holds the centre density and those to its right; at the table's
    # own spacing the weights are the densities times the spacing, up to
    # roundoff, which the discrete kernel sums without the spacing: positive
    # densities within a factor 100 of each other, on at least five offsets
    # a side, at mu * spacing <= 10
    table = TableKernel(np.linspace(-halfwidth, halfwidth, 2 * len(half) - 1),
                        np.array(half[:0:-1] + half))
    dk = discretize(table, table.spacing)
    mus = np.geomspace(1e-8, 50.0 / halfwidth, 12)
    for mu in [*mus, *-mus]:
        assert dk.moments(mu) == pytest.approx(table.moments(mu), rel=1e-13, abs=0.0), mu


class TestMass:
    @pytest.mark.parametrize("sigma", [0.5, 1.0, 2.0])
    def test_gaussian_unit_mass(self, sigma):
        k = GaussianKernel(sigma)
        r = k.truncation_radius()
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
    @pytest.mark.parametrize("dx", [True, np.True_, "0.1", None, 1j, Decimal("0.1"), 0.0,
                                    math.inf, 10**400, Fraction(10**400)],
                             ids=["bool", "numpy-bool", "str", "none", "complex", "decimal",
                                  "zero", "inf", "int-overflow", "fraction-overflow"])
    def test_a_spacing_that_is_not_a_positive_number_is_named(self, dx):
        # a bool would be taken as spacing 1.0
        with pytest.raises(ParameterError, match=("^dx must be positive and finite, got "
                                                  f"{re.escape(repr(dx))}$")):
            discretize(GaussianKernel(1.0), dx)

    def test_gaussian_half_width_matches_tail_oracle(self):
        # oracle: two-sided tail mass outside [-R, R] is erfc(R / (sigma sqrt 2))
        eps = DEFAULT_TRUNCATION
        dk = discretize(GaussianKernel(1.0), 0.1)
        radius_oracle = math.sqrt(2.0) * float(erfcinv(eps))
        assert dk.half_width == math.ceil(radius_oracle / 0.1)  # = 72
        assert dk.half_width == 72
        assert erfc(dk.half_width * 0.1 / math.sqrt(2.0)) < eps

    def test_gaussian_radius_literal_is_the_normal_quantile(self):
        assert GaussianKernel(1.0).truncation_radius() == -NormalDist().inv_cdf(
            DEFAULT_TRUNCATION / 2.0)

    @pytest.mark.parametrize("sigma", [0.37, 1.0, 3.3])
    def test_gaussian_radius_matches_erfcinv(self, sigma):
        oracle = sigma * math.sqrt(2.0) * float(erfcinv(DEFAULT_TRUNCATION))
        radius = GaussianKernel(sigma).truncation_radius()
        assert radius == pytest.approx(oracle, rel=1e-14)

    @pytest.mark.parametrize("dx", [0.2, 0.1, 0.05, 0.01])
    def test_gaussian_half_width_matches_erfcinv(self, dx):
        for sigma in (0.37, 0.5, 1.0, 1.5, 2.0, 3.3):
            oracle = sigma * math.sqrt(2.0) * float(erfcinv(DEFAULT_TRUNCATION))
            dk = discretize(GaussianKernel(sigma), dx)
            assert dk.half_width == math.ceil(oracle / dx - 1e-12), (sigma, dx)

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
        err = dk.moments(1.0)[0] / k.moments(1.0)[0] - 1.0
        assert 0.0 < err <= 1e-3
        assert 0.0 < discretize(k, 0.01).moments(1.0)[0] / k.moments(1.0)[0] - 1.0 <= 1e-5
        # off the grid: a = 0.56 reaches 0.01 into the cell [0.55, 0.65]
        dk = discretize(UniformKernel(0.56), 0.1)
        assert dk.half_width == 6
        assert dk.weights[0] == pytest.approx(0.01 / 1.12, rel=1e-12)
        assert dk.weights[1] == pytest.approx(0.1 / 1.12, rel=1e-12)

    def test_a_table_at_its_own_spacing_keeps_its_end_cells(self):
        # the offsets are built from linspace's step 0.22499999999999998; the
        # difference of the first two offsets is 0.2250000000000001, and five
        # of those passed the last offset, where the density reads 0
        table = TableKernel(np.linspace(-1.125, 1.125, 11), np.ones(11))
        assert np.array_equal(table.offsets, table.spacing * np.arange(-5, 6))
        dk = discretize(table, table.spacing)
        assert np.allclose(dk.weights, 1.0 / 11.0, rtol=1e-15, atol=0.0)

    def test_degenerate_spacing_rejected(self):
        with pytest.raises(DegenerateKernelError):
            discretize(GaussianKernel(0.001), 1.0)

    def test_bad_arguments_rejected(self):
        with pytest.raises(ParameterError):
            discretize(GaussianKernel(1.0), -0.1)

    @pytest.mark.parametrize("dx", [1e-300, 5e-324])
    def test_dx_too_fine_for_any_grid_is_named(self, dx):
        with pytest.raises(ParameterError, match=r"dx=.* too fine .* half width J"):
            discretize(GaussianKernel(1.0), dx)

    def test_first_half_width_over_the_grid_point_cap_is_refused(self):
        # J = 5000000 needs 10000001 weights, one more than MAX_GRID_POINTS
        with pytest.raises(ParameterError, match="5e\\+06 cells"):
            discretize(UniformKernel(5000000.0), 1.0)

    @pytest.mark.parametrize("kernel,dx", [(GaussianKernel(1.0), 0.1),
                                           (UniformKernel(0.59), 0.01),
                                           (GaussianKernel(2.5), 0.3)])
    def test_offsets_are_the_lattice_built_once(self, kernel, dx):
        dk = discretize(kernel, dx)
        J = dk.half_width
        fresh = dx * np.arange(-J, J + 1)
        assert dk.offsets.tobytes() == fresh.tobytes()
        assert dk.offsets is dk.offsets and not dk.offsets.flags.writeable
        # the largest offset is J dx to the bit, the quotient the tail-decay
        # root may start at
        assert dk.offsets[-1] == dk.dx * J
        # the moments are the sums over a lattice built on each call, bit for bit
        for mu in (-3.0, -1e-9, 0.0, 1e-9, 0.7, 5.0):
            assert dk.moments(mu) == _lattice_moments(fresh, dk.weights, mu, "discrete")

    def test_a_discretized_kernel_equals_and_hashes_as_itself(self):
        # as a table does: comparing the weight arrays raised ValueError,
        # and hashing them TypeError
        dk, again = discretize(GaussianKernel(1.0), 0.1), discretize(GaussianKernel(1.0), 0.1)
        assert dk == dk and dk != again
        assert hash(dk) == hash(dk) and len({dk, again}) == 2

    def test_discrete_mgf_tracks_closed_form(self):
        # the truncated mu-tilted tail caps the absolute agreement near 1e-3
        # for |mu| <= 3
        g = GaussianKernel(1.0)
        dk12 = discretize(g, 0.1)
        mus = np.arange(-3.0, 3.001, 0.25)
        pairs = [(dk12.moments(m)[0], g.moments(m)[0]) for m in mus]
        assert max(abs(d - c) / c for d, c in pairs) < 2e-5
        inner = [pair for m, pair in zip(mus, pairs) if abs(m) <= 1.5]
        assert max(abs(d - c) for d, c in inner) < 1e-6


class TestSameKernel:
    """Two species share a kernel exactly when ``kernel1 == kernel2``."""

    def test_equal_gaussian_or_uniform_kernels_are_one(self):
        assert GaussianKernel(1.0) == GaussianKernel(1.0)
        assert hash(GaussianKernel(1.0)) == hash(GaussianKernel(1.0))
        assert UniformKernel(2.0) == UniformKernel(2.0)
        assert hash(UniformKernel(2.0)) == hash(UniformKernel(2.0))

    def test_different_shapes_or_families_are_two(self):
        assert GaussianKernel(1.0) != GaussianKernel(1.5)
        assert GaussianKernel(1.0) != UniformKernel(1.0)
        assert UniformKernel(1.0) != GaussianKernel(1.0)
        assert GaussianKernel(1.0) != triangular_table(1.0)

    def test_a_table_is_one_kernel_only_with_itself(self):
        # a table equals and hashes as itself only, so two equal tables are two
        t1, t2 = triangular_table(1.0), triangular_table(1.0)
        assert t1 == t1
        assert hash(t1) == hash(t1)
        assert t1 != t2
        assert len({t1, t2, t1}) == 2
        assert triangular_table(1.0) != GaussianKernel(1.0)


class _MomentsOnly:
    """A duck-typed stand-in: a Gaussian's moments, but not a ``Kernel``."""

    def moments(self, mu):
        return GaussianKernel(1.0).moments(mu)


class TestHypotheses:
    def test_gaussian_passes_both(self):
        assert validate_hypotheses(GaussianKernel(2.0)) is None

    def test_uniform_passes_both(self):
        assert validate_hypotheses(UniformKernel(0.5)) is None

    @pytest.mark.parametrize("value,kind", [
        (1.0, "float"), ("gaussian", "str"),
        (discretize(GaussianKernel(1.0), 0.1), "DiscreteKernel"),
        (_MomentsOnly(), "_MomentsOnly"),
    ], ids=["float", "str", "discrete", "duck-typed"])
    def test_what_is_not_a_kernel_is_refused_by_type(self, value, kind):
        # a discretized kernel has moments but no density or truncation radius
        with pytest.raises(ParameterError, match=f"^expected a Kernel, got {kind}$"):
            validate_hypotheses(value)
