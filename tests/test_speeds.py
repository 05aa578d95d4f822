import hashlib
import math
import sys
from decimal import Decimal, localcontext

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st
from scipy.optimize import minimize_scalar

from rickerwaves import (
    DegenerateDataError,
    DomainError,
    GaussianKernel,
    Grid,
    MeasurementError,
    ModelParams,
    ParameterError,
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
from rickerwaves.errors import RangeError, SearchError
from rickerwaves.model import ORIGINAL_FRAME
from rickerwaves.speeds import _minimize_positive

from conftest import random_admissible
from test_kernels import triangular_table


def _decimal_uniform_root(r):
    """x* solving x coth x - 1 - ln(sinh x / x) = r, the stationarity
    condition of the uniform kernel in x = halfwidth mu, by bisection in
    40-digit decimal arithmetic (the left side increases with x)."""
    with localcontext() as ctx:
        ctx.prec = 40
        rate, lo, hi = Decimal(r), Decimal("1e-3"), Decimal(20)
        for _ in range(120):
            x = (lo + hi) / 2
            e = x.exp()
            sinh, cosh = (e - 1 / e) / 2, (e + 1 / e) / 2
            if x * cosh / sinh - 1 - (sinh / x).ln() < rate:
                lo = x
            else:
                hi = x
        return (lo + hi) / 2


class TestScalarSpeed:
    @pytest.mark.parametrize("sigma", [1.0, 2.0])
    def test_gaussian_closed_form(self, sigma):
        # calculus oracle: min of r/mu + sigma^2 mu / 2 is sigma sqrt(2 r)
        # at mu = sqrt(2 r) / sigma
        report = scalar_speed(0.5, GaussianKernel(sigma))
        assert report.value == pytest.approx(sigma * math.sqrt(1.0), abs=1e-12)
        assert report.mu_star == pytest.approx(math.sqrt(1.0) / sigma, rel=1e-15)
        assert report.method == "scalar-formula"

    @pytest.mark.parametrize("sigma", [0.01, 1.0, 100.0])
    @pytest.mark.parametrize("k", range(1, 17))
    def test_gaussian_speed_is_the_closed_form_to_two_ulp(self, k, sigma):
        # sigma sqrt(2 r) in 40-digit decimal arithmetic; a search stopped by
        # MU_FLOOR reads 36 times the speed at r = 1e-16
        r = 10.0 ** -k
        with localcontext() as ctx:
            ctx.prec = 40
            exact = Decimal(sigma) * (2 * Decimal(r)).sqrt()
        report = scalar_speed(r, GaussianKernel(sigma))
        assert abs(Decimal(report.value) - exact) <= 2 * Decimal(math.ulp(float(exact)))
        assert report.mu_star * sigma * sigma == pytest.approx(report.value, rel=1e-15)

    def test_uniform_kernel_frozen_oracle(self):
        # frozen from a 4e6-point dense grid plus high-precision root
        # refinement of the objective derivative
        report = scalar_speed(0.5, UniformKernel(1.0))
        assert report.value == pytest.approx(0.54746062375647, abs=1e-12)
        assert report.mu_star == pytest.approx(2.05924057068149, abs=1e-12)

    @pytest.mark.parametrize("halfwidth", [0.5, 1.0, 3.0])
    @pytest.mark.parametrize("r", [1e-3, 0.01, 0.2, 0.5, 0.9])
    def test_uniform_minimizer_is_the_decimal_root(self, r, halfwidth):
        # mu* solves the stationarity condition mu K'(mu) = r + K(mu), with
        # K = ln(sinh x / x) and x = halfwidth mu
        report = scalar_speed(r, UniformKernel(halfwidth))
        exact = _decimal_uniform_root(r) / Decimal(halfwidth)
        assert abs(Decimal(report.mu_star) / exact - 1) <= Decimal("1e-11")

    @pytest.mark.parametrize("r", [1e-16, 1e-13])
    def test_minimum_below_the_mu_floor_raises(self, r):
        # the minimizer sqrt(6 r) lies below MU_FLOOR; the objective at the
        # floor used to be returned as the speed, 21 times sqrt(2 r / 3) at
        # r = 1e-16
        with pytest.raises(SearchError, match="still decreasing at the mu floor"):
            scalar_speed(r, UniformKernel(1.0))

    def test_minimum_above_the_mu_floor_is_found(self):
        # mu* = sqrt(6 r) = 2.45e-5 at r = 1e-10; small-r speed sqrt(2 r / 3)
        report = scalar_speed(1e-10, UniformKernel(1.0))
        assert report.mu_star == pytest.approx(math.sqrt(6e-10), rel=1e-3)
        assert report.value == pytest.approx(math.sqrt(2e-10 / 3.0), rel=1e-6)

    def test_growth_rate_domain(self):
        with pytest.raises(DomainError):
            scalar_speed(1.5, GaussianKernel(1.0))

    @pytest.mark.parametrize("r", ["0.5", None, 0.5j], ids=["str", "none", "complex"])
    def test_a_growth_rate_that_is_not_a_number_is_named(self, r):
        with pytest.raises(DomainError, match=rf"^growth rate must lie in \(0,1\), got {r!r}$"):
            scalar_speed(r, GaussianKernel(1.0))

    def test_search_never_touches_nonpositive_mu(self):
        # the first call, at mu = 0, gives the start's curvature g''(0)
        seen = []
        kernel = GaussianKernel(1.0)

        class Probe:
            def moments(self, mu):
                seen.append(mu)
                return kernel.moments(mu)

        scalar_speed(0.5, Probe())
        assert seen[0] == 0.0
        assert min(seen[1:]) > 0.0

    def test_objective_blows_up_near_zero(self):
        kernel = GaussianKernel(1.0)
        tiny = (0.5 + math.log(kernel.moments(1e-9)[0])) / 1e-9
        assert tiny > 1e8

    @pytest.mark.parametrize(
        "make,log_mgf",
        [(GaussianKernel, lambda k, mus: 0.5 * (k.sigma * mus) ** 2),
         (UniformKernel,
          lambda k, mus: np.log(np.sinh(k.halfwidth * mus) / (k.halfwidth * mus))),
         (triangular_table,
          lambda k, mus: np.log(k.spacing * (np.exp(np.outer(mus, k.offsets)) @ k.densities)))],
        ids=["gaussian", "uniform", "table"],
    )
    def test_matches_dense_grid_minimum(self, make, log_mgf):
        # ln M on the whole dense grid at once, the kernel's MGF as an array expression
        for shape in (0.5, 1.0, 2.0):
            kernel = make(shape)
            for r in (0.2, 0.5, 0.8):
                report = scalar_speed(r, kernel)
                mu = report.mu_star
                assert log_mgf(kernel, np.array([mu]))[0] == pytest.approx(
                    math.log(kernel.moments(mu)[0]), rel=1e-13)
                mus = np.linspace(1e-4, 4.0 * mu, 10_000)
                dense = float(np.min((r + log_mgf(kernel, mus)) / mus))
                assert abs(report.value - dense) <= 1e-6 * abs(report.value)
                assert report.value <= dense + 1e-12

    def test_curve_is_recorded(self):
        # one (mu, objective) pair per moments call after the one at mu = 0,
        # sorted by mu, holding the minimum
        kernel = _CountingKernel(UniformKernel(1.0))
        report = scalar_speed(0.5, kernel)
        assert len(report.curve) == kernel.calls - 1
        assert report.curve == sorted(report.curve)
        assert (report.mu_star, report.value) in report.curve
        # a closed form evaluates nothing: its curve is the one minimum
        report = scalar_speed(0.5, GaussianKernel(2.0))
        assert report.curve == [(report.mu_star, report.value)] == [(0.5, 2.0)]


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

    def test_complex_pair(self):
        # tr = 2, disc = 0 + 4 * (-2) = -8: the pair 1 +- i sqrt(2)
        assert eigenvalues_2x2(((1.0, -2.0), (1.0, 1.0))) == (
            complex(1.0, math.sqrt(2.0)), complex(1.0, -math.sqrt(2.0)))
        # a quarter turn: +-i
        assert eigenvalues_2x2(np.array([[0.0, -1.0], [1.0, 0.0]])) == (1j, -1j)

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
                assert lam > min(k1.moments(mu)[0], k2.moments(mu)[0])
                assert lam > 1.0

    def test_positive_for_random_draws(self, rng):
        for _ in range(20):
            p = random_admissible(rng, r_lo=0.05, r_hi=0.95, a_lo=1.05, a_hi=5.0)
            report = system_speed_bound(p, GaussianKernel(1.0), GaussianKernel(1.0))
            assert report.value > 0.0

    @pytest.mark.parametrize("kernel2", [GaussianKernel(1.0), GaussianKernel(2.0)],
                             ids=["shared", "distinct"])
    def test_lambda0_not_above_one_is_a_named_error(self, kernel2):
        # README cell with r2 = 1e-17 or 1e-300: lambda(B_0) rounds to 1, and
        # a search would stop at its mu floor and return 5.09e-7 as a speed
        for p in (ModelParams(0.5, 1e-17, 2.0, 3.0), ModelParams(0.5, 1e-300, 2.0, 3.0)):
            with pytest.raises(DegenerateDataError, match=r"lambda\(B_0\) = .* not above 1"):
                system_speed_bound(p, GaussianKernel(1.0), kernel2)

    @pytest.mark.parametrize("kernel", [UniformKernel(2.0), triangular_table(1.5)],
                             ids=["uniform", "table"])
    def test_lambda0_not_above_one_is_a_named_error_for_a_shared_search(self, kernel):
        # a shared uniform or table kernel reaches the scalar search, after the check
        with pytest.raises(DegenerateDataError, match=r"lambda\(B_0\) = .* not above 1"):
            system_speed_bound(ModelParams(0.5, 1e-17, 2.0, 3.0), kernel, kernel)

    # (value, mu_star) as hex, the curve's length and a digest of its hex
    # pairs, on the README parameters, where lambda(B_0) is 0x1.3333333333334p+0;
    # each shared kernel returns before the distinct kernels' search is set up
    @pytest.mark.parametrize("pair,pinned", [
        (lambda: (GaussianKernel(0.7),) * 2,
         ("0x1.b0d837c4632d5p-2", "0x1.b9ad9c2ba91eap-1", 1, "657469f28ce8be7f")),
        (lambda: (UniformKernel(1.3),) * 2,
         ("0x1.c789385bbc957p-2", "0x1.b44d0ec15932dp-1", 5, "831c3fea98aab5d4")),
        (lambda: (triangular_table(1.5),) * 2,
         ("0x1.771bc62e70d02p-2", "0x1.03ac6061418bcp+0", 4, "42095356aad5e915")),
        (lambda: (GaussianKernel(1.0), UniformKernel(2.0)),
         ("0x1.47b4b87c9611cp-1", "0x1.28e41c5525e46p-1", 4, "75cb484fc3401190")),
    ], ids=["shared-gaussian", "shared-uniform", "shared-table", "distinct"])
    def test_report_is_pinned_bit_for_bit(self, params, pair, pinned):
        report = system_speed_bound(params, *pair())
        digest = hashlib.sha256(
            repr([(mu.hex(), value.hex()) for mu, value in report.curve]).encode()).hexdigest()
        assert (report.value.hex(), report.mu_star.hex(), len(report.curve),
                digest[:16]) == pinned
        assert report.lambda0.hex() == "0x1.3333333333334p+0"
        assert report.method == "matrix-eigenvalue"

    def test_distinct_kernel_minimum_below_the_mu_floor_raises(self):
        # README cell with a2 = 1 + 1e-15: lambda(B_0) - 1 is about 4e-16, so
        # the minimizer lies below MU_FLOOR; the floor's 2.04e-6 was returned
        p = ModelParams(0.5, 0.5, 2.0, 1.0 + 1e-15)
        with pytest.raises(SearchError, match="still decreasing at the mu floor"):
            system_speed_bound(p, GaussianKernel(1.0), GaussianKernel(2.0))

    def test_equal_kernels_are_one_kernel_bit_for_bit(self, params):
        for k, twin in ((GaussianKernel(0.7), GaussianKernel(0.7)),
                        (UniformKernel(1.3), UniformKernel(1.3))):
            same, equal = system_speed_bound(params, k, k), system_speed_bound(params, k, twin)
            assert [float(x).hex() for x in (same.value, same.mu_star, same.lambda0)] == [
                float(x).hex() for x in (equal.value, equal.mu_star, equal.lambda0)]
            assert same.curve == equal.curve

    def test_equal_table_kernels_are_two_kernels(self, params):
        t1, t2 = triangular_table(1.5), triangular_table(1.5)
        assert t1 != t2
        report = system_speed_bound(params, t1, t2)
        assert report.value == pytest.approx(system_speed_bound(params, t1, t1).value,
                                             rel=1e-12)


def _decimal_lambda0(p):
    """lambda(B_0) of the float parameters p in 40-digit decimal arithmetic."""
    with localcontext() as ctx:
        ctx.prec = 40
        r1, r2, a1, a2 = (Decimal(x) for x in (p.r1, p.r2, p.a1, p.a2))
        k1, k2 = (a1 - 1) / (a1 * a2 - 1), (a2 - 1) / (a1 * a2 - 1)
        c11, c12, c21, c22 = 1 - r1 * k1, a1 * r1 * k1, a2 * r2 * k2, 1 - r2 * k2
        return (c11 + c22 + ((c11 - c22) ** 2 + 4 * c12 * c21).sqrt()) / 2


@pytest.mark.parametrize("sigma", [0.3, 1.0, 3.0])
def test_shared_gaussian_interior_speed_is_the_closed_form(rng, sigma):
    # B_mu = exp(sigma^2 mu^2 / 2) B_0, so the minimum of ln lambda(B_mu)/mu
    # is sigma sqrt(2 ln lambda0) at mu = sqrt(2 ln lambda0)/sigma.  The
    # first cell has lambda0 = 1.007, where the discriminant formed as
    # tr^2 - 4 det cancels, puts lambda0 6 ulp high and the speed 6.5 eps/mu*
    cells = [ModelParams(0.05078125, 0.05078125, 1.5, 1.25)] + [
        random_admissible(rng, r_lo=0.05, r_hi=0.95, a_lo=1.05, a_hi=5.0) for _ in range(20)]
    for p in cells:
        report = system_speed_bound(p, GaussianKernel(sigma), GaussianKernel(sigma))
        root = math.sqrt(2.0 * math.log(report.lambda0))
        assert (report.value, report.mu_star) == (sigma * root, root / sigma)
        assert report.curve == [(report.mu_star, report.value)]
        with localcontext() as ctx:
            ctx.prec = 40
            exact = Decimal(sigma) * (2 * _decimal_lambda0(p).ln()).sqrt()
        # ln lambda0 carries a few ulps of 1, which the speed divides by mu*
        assert abs(Decimal(report.value) - exact) <= Decimal(
            4.0 * sys.float_info.epsilon / report.mu_star)


def _array_objective(p, kernel1, kernel2, mu):
    """ln lambda(B_mu)/mu from the 2x2 array of linearization_matrix: the
    reference the float objective of system_speed_bound must match bit for bit."""
    return math.log(eigenvalues_2x2(linearization_matrix(p, kernel1, kernel2, mu))[0]) / mu


_KERNEL_FAMILIES = {"gaussian": GaussianKernel, "uniform": UniformKernel,
                    "table": triangular_table}
_rate = st.floats(0.05, 0.95)
_competition = st.floats(1.05, 5.0)
_width = st.floats(0.3, 3.0)


@settings(max_examples=60, deadline=None, derandomize=True, database=None)
@given(r1=_rate, r2=_rate, a1=_competition, a2=_competition,
       family=st.sampled_from(sorted(_KERNEL_FAMILIES)), w1=_width, w2=_width)
def test_float_objective_is_the_array_objective_bit_for_bit(r1, r2, a1, a2, family, w1, w2):
    p = ModelParams(r1, r2, a1, a2)
    make = _KERNEL_FAMILIES[family]
    # equal Gaussian or uniform kernels take the shared-kernel reduction
    assume(w2 != w1)
    k1 = make(w1)
    # distinct widths, and for tables an equal but distinct object as well
    for k2 in (make(w2), make(w1)) if family == "table" else (make(w2),):
        assert k1 != k2
        report = system_speed_bound(p, k1, k2)
        lambda0 = eigenvalues_2x2(linearization_matrix(p, k1, k2, 0.0))[0]
        # float.hex tells apart any two doubles
        assert [report.value.hex(), report.lambda0.hex()] == [
            _array_objective(p, k1, k2, report.mu_star).hex(), float(lambda0).hex()]
        assert [f.hex() for _, f in report.curve] == [
            _array_objective(p, k1, k2, mu).hex() for mu, _ in report.curve]


class _CountingKernel:
    """A kernel that counts its ``moments`` calls, and hides its family."""

    def __init__(self, kernel):
        self.kernel = kernel
        self.calls = 0

    def moments(self, mu):
        self.calls += 1
        return self.kernel.moments(mu)

    def truncation_radius(self):
        return self.kernel.truncation_radius()


def test_shared_kernel_searches_the_scalar_objective_at_ln_lambda0(params):
    # B_mu = M(mu) B_0, so ln lambda(B_mu) = ln lambda0 + ln M(mu); the
    # counting wrapper hides the kernel's family, so the search runs
    kernel = UniformKernel(1.0)
    shared = _CountingKernel(kernel)
    report = system_speed_bound(params, shared, shared)
    # one call per search evaluation, plus two at mu = 0: one for both
    # columns of B_0 in lambda0, and the curvature that starts the scalar
    # search
    assert shared.calls == len(report.curve) + 2
    rho = math.log(report.lambda0)

    def objective(mu):
        mgf, mean, variance = kernel.moments(mu)
        return (rho + math.log(mgf)) / mu, mean, variance

    assert (report.mu_star, report.value, report.curve) == _minimize_positive(
        objective, rho, kernel.moments(0.0)[2], (kernel,))
    # two distinct wrappers search the 2x2 objective to the same minimum,
    # each called once per evaluation and once at mu = 0
    k1, k2 = _CountingKernel(kernel), _CountingKernel(kernel)
    separate = system_speed_bound(params, k1, k2)
    assert k1.calls == k2.calls == len(separate.curve) + 1
    assert separate.lambda0 == report.lambda0
    assert report.value == pytest.approx(separate.value, rel=1e-14)


@pytest.mark.parametrize("family", ["uniform", "table", "gaussian-pair"])
def test_searches_take_at_most_ten_evaluations(rng, family):
    # the speed_map box (rates 0.2-0.8, competition 1.5-3.5, halfwidths
    # 0.5-3), triangular tables as wide, and two distinct Gaussians of sigma
    # 0.5-2, each search counted by its moments calls; lambda0 takes one
    # call of each distinct kernel, and a scalar search one more for its
    # start
    for _ in range(25):
        p = random_admissible(rng, r_lo=0.2, r_hi=0.8, a_lo=1.5, a_hi=3.5)
        if family == "gaussian-pair":
            k1, k2 = (_CountingKernel(GaussianKernel(float(rng.uniform(0.5, 2.0))))
                      for _ in range(2))
            report = system_speed_bound(p, k1, k2)
            assert len(report.curve) == k1.calls - 1 <= 10
            continue
        width = float(rng.uniform(0.5, 3.0))
        kernel = _CountingKernel(UniformKernel(width) if family == "uniform"
                                 else triangular_table(width))
        assert len(scalar_speed(p.r1, kernel).curve) == kernel.calls - 1 <= 10
        kernel.calls = 0
        assert len(system_speed_bound(p, kernel, kernel).curve) == kernel.calls - 2 <= 10


class TestCounterPropagation:
    def test_standard_gaussian_sums(self, params, gaussian):
        report = counter_propagation(params, gaussian, gaussian)
        assert report.sum_edge == pytest.approx(2.0, rel=1e-15)
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
        assert report.c_minus_F1F3.value == pytest.approx(math.sqrt(2e-4), rel=1e-15)
        assert report.c_minus_F1F3.value > 0.0

    def test_edge_memo_keeps_freed_tables_apart(self, params):
        # tables of widths 1..6 share one memo and are each freed in turn; the
        # memo keeps each table it keys, so no later table takes its identity
        # (an id() key lets each new table read the freed width-1 entry)
        memo, got = {}, []
        for width in range(1, 7):
            table = triangular_table(float(width))
            got.append(counter_propagation(params, table, table, memo).c_plus_F0F1.value)
            del table
        assert len(memo) == 6
        assert got == pytest.approx([got[0] * width for width in range(1, 7)], rel=1e-12)

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
        report = measure_front_speed(as_states(grid, fields), fit_window=(0, 11))
        assert report.speed == pytest.approx(0.1, abs=1e-13)
        assert report.residual_rms < 1e-12

    def test_default_window_is_the_trailing_half(self):
        # the front rests for six steps, then moves one cell a step: the
        # default window, states 6 ... 11, sees only the motion
        grid = Grid(half_length=50.0, dx=0.1)
        fields = [np.where(grid.x <= max(k - 5, 0) * 0.1, 1.0, 0.0) for k in range(12)]
        report = measure_front_speed(as_states(grid, fields))
        assert report.speed == pytest.approx(0.1, abs=1e-13)
        assert report.intercept == pytest.approx(-0.45, abs=1e-12)  # crossings sit mid-cell
        assert report.residual_rms < 1e-12

    def test_stationary_front_measures_zero(self):
        grid = Grid(half_length=50.0, dx=0.1)
        base = np.where(grid.x <= 0.0, 1.0, 0.0)
        report = measure_front_speed(as_states(grid, [base] * 9), fit_window=(0, 8))
        assert abs(report.speed) < 1e-12

    def test_level_never_crossed(self):
        grid = Grid(half_length=10.0, dx=0.1)
        with pytest.raises(MeasurementError,
                           match=r"^field never crosses level 0\.5 on the given points$"):
            front_position(grid.x, np.full(grid.n_points, 0.8), 0.5)

    def test_a_segment_flat_at_the_level_crosses_at_its_left_end(self):
        # a field at the level on its first two points: no interpolation
        # across the flat segment, whose left point is the crossing
        x = np.array([1.0, 2.0, 3.0, 4.0])
        assert front_position(x, np.array([0.5, 0.5, 0.75, 1.0]), 0.5) == 1.0
        assert front_position(x[1:4], np.array([0.0, 0.25, 0.25, 1.0])[1:4], 0.25) == 2.0

    def test_fewer_than_two_states_refused(self):
        grid = Grid(half_length=10.0, dx=0.1)
        one = as_states(grid, [np.where(grid.x <= 0.0, 1.0, 0.0)])
        for trajectory in (one, []):
            with pytest.raises(MeasurementError,
                               match="^need at least two states to fit a speed$"):
                measure_front_speed(trajectory)

    @pytest.mark.parametrize("fit_window", [(0, 3), (2, 2), (-1, 1), (2, 1)])
    def test_fit_window_out_of_range_refused(self, fit_window):
        grid = Grid(half_length=10.0, dx=0.1)
        states = as_states(grid, [np.where(grid.x <= k * 0.1, 1.0, 0.0) for k in range(3)])
        with pytest.raises(DomainError) as err:
            measure_front_speed(states, fit_window=fit_window)
        assert str(err.value) == f"fit window {fit_window} out of range"

    def test_scalar_invasion_tracks_variational_speed(self, params, gaussian):
        grid = Grid(half_length=200.0, dx=0.1)
        dk = discretize(gaussian, grid.dx)
        trajectory = scalar_invasion(params, dk, grid, 150)
        report = measure_front_speed(
            trajectory, fit_window=(50, 150), margin_cells=dk.half_width,
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
            def moments(self, mu):
                if mu > 1000.0:
                    raise RangeError(f"overflow at mu={mu}")
                # log-mgf decreasing: objective falls; -1/2 and 0 are the
                # derivatives of ln M = -mu/2
                return math.exp(-0.5 * mu), -0.5, 0.0

            def truncation_radius(self):  # g'' is 0, so the search starts at mu = 1
                return 1.0

        with pytest.raises(SearchError):
            scalar_speed(0.5, DivergentObjective())

    def test_objective_falling_for_ever_raises(self):
        # a point mass never overflows: r/mu falls until mu itself overflows
        class PointMass:
            def moments(self, mu):
                return 1.0, 0.0, 0.0

            def truncation_radius(self):
                return 1.0

        with pytest.raises(SearchError):
            scalar_speed(0.5, PointMass())

    def test_an_exact_root_where_the_objective_is_flat_ends_the_search(self):
        # ln M = max(0, mu/4 - 1/2): at rate 1/2 the objective is 1/2 over mu
        # up to mu = 2 and 1/4 from there on, where F = mu g' - g is exactly
        # 0 and g'' is 0.  No Newton step exists there, and a bisection
        # returns to mu = 2, so only the exact root itself can end the search
        class Kinked:
            calls = 0

            def moments(self, mu):
                self.calls += 1
                assert self.calls < 100, "the search does not stop"
                return math.exp(max(0.0, 0.25 * mu - 0.5)), 0.25 if mu >= 2.0 else 0.0, 0.0

            def truncation_radius(self):
                return 1.0

        kernel = Kinked()
        report = scalar_speed(0.5, kernel)
        assert (report.mu_star, report.value) == (2.0, 0.25)
        # g''(0) for the start, then mu = 1 (g''(0) is 0, so 1 over the
        # radius) and its doubling
        assert kernel.calls == 3

    @pytest.mark.parametrize("r", [0.1, 0.3, 0.5, 0.9])
    def test_a_uniform_kernel_whose_square_underflows_has_a_speed(self, r):
        # at halfwidth 1e-300 the tilted variance a^2 (...) underflows to 0
        # for every mu: the search starts at mu = 1/a and, at every rate here
        # but 0.5, comes to an exact root of F near mu = 1e300.  The speed is
        # a times the unit one
        class Bounded(_CountingKernel):
            def moments(self, mu):
                assert self.calls < 100, "the search does not stop"
                return super().moments(mu)

        report = scalar_speed(r, Bounded(UniformKernel(1e-300)))
        unit = scalar_speed(r, UniformKernel(1.0)).value
        assert report.value == pytest.approx(1e-300 * unit, rel=1e-12)

    def test_a_uniform_kernel_of_any_tiny_halfwidth_has_a_speed(self):
        # at halfwidths 1e-154 .. 1e-161 the variance a^2/3 is subnormal and
        # 2 r / g''(0) overflows; below that g''(0) is 0 and the search
        # starts at mu = 1/a.  Each halfwidth keeps a times the unit speed,
        # in a few dozen calls
        unit = scalar_speed(0.5, UniformKernel(1.0)).value
        for exponent in range(1, 308):
            halfwidth = 10.0 ** -exponent
            kernel = _CountingKernel(UniformKernel(halfwidth))
            report = scalar_speed(0.5, kernel)
            assert report.value / halfwidth == pytest.approx(unit, rel=1e-15), halfwidth
            assert kernel.calls <= 60, halfwidth
        # below 1e-308 the minimizer, of order 1/a, overflows
        with pytest.raises(SearchError):
            scalar_speed(0.5, UniformKernel(1e-310))

    def test_a_start_that_overflows_is_refused_before_any_evaluation(self):
        # at halfwidth 5e-324 the variance is 0 and the start 1/a is inf:
        # the search names the overflow of mu, not of the MGF
        message = "^objective still decreasing when mu overflowed$"
        kernel = _CountingKernel(UniformKernel(5e-324))
        with pytest.raises(SearchError, match=message):
            scalar_speed(0.1, kernel)
        assert kernel.calls == 1  # g''(0) only
        # the shared kernel's scalar search and the search of two kernels
        for kernel2 in (UniformKernel(5e-324), UniformKernel(1e-323)):
            with pytest.raises(SearchError, match=message):
                system_speed_bound(ModelParams(0.1, 0.1, 2.0, 3.0), UniformKernel(5e-324),
                                   kernel2)

    @pytest.mark.parametrize("sigma", [0.01, 40.0, 100.0])
    def test_wide_and_narrow_gaussians_keep_the_closed_form(self, sigma):
        # the MGF overflows at mu = 1 for sigma > 37.6; the search starts at
        # the quadratic model's minimizer, for a Gaussian the closed form
        # itself.  The probe hides the family, so the search runs instead of
        # the formula
        kernel = _CountingKernel(GaussianKernel(sigma))
        report = scalar_speed(0.5, kernel)
        assert len(report.curve) == kernel.calls - 1 > 1
        assert report.curve == sorted(report.curve)
        assert (report.mu_star, report.value) in report.curve
        assert report.value == pytest.approx(sigma * math.sqrt(2.0 * 0.5), rel=1e-12)

    def test_a_gaussian_too_wide_for_the_float_square_ends_in_a_named_error(self):
        # a sigma whose square overflows is refused when the kernel is built;
        # at sigma = 1e150 the MGF overflows (RangeError) at every mu from the
        # floor up, the search takes that as too far right, and the
        # minimizer, near 1/sigma, lies below the mu floor
        with pytest.raises(ParameterError, match="finite square"):
            GaussianKernel(1e160)
        with pytest.raises(SearchError, match="mu floor"):
            system_speed_bound(ModelParams(0.5, 0.5, 2.0, 3.0), GaussianKernel(1e150),
                               GaussianKernel(1.0))

    def test_wide_uniform_kernel_scales_the_unit_speed(self):
        # sinh(a mu)/(a mu) overflows for a mu > 709; the speed of halfwidth
        # a is a times that of halfwidth 1
        report = scalar_speed(0.5, UniformKernel(1000.0))
        assert math.isfinite(report.value)
        assert report.value == pytest.approx(1000.0 * 0.54746062375647, rel=1e-12)

    @pytest.mark.parametrize("edge", [1e-7, 0.01, 0.3, 1.5, 3.0, 50.0])
    @pytest.mark.parametrize("sigma", [0.1, 1.0, 40.0])
    def test_nan_mgf_ends_the_search(self, sigma, edge):
        # a probe whose MGF is nan past some exponent: the search either
        # reports a finite speed or raises SearchError, in a bounded number
        # of evaluations
        kernel = GaussianKernel(sigma)

        class NanPast:
            calls = 0

            def moments(self, mu):
                self.calls += 1
                assert self.calls < 2000, "the search does not stop"
                mgf, mean, variance = kernel.moments(mu)
                return math.nan if mu > edge else mgf, mean, variance

        for search in (lambda k: scalar_speed(0.5, k),
                       lambda k: system_speed_bound(ModelParams(0.5, 0.5, 2.0, 3.0), k, k)):
            try:
                report = search(NanPast())
            except SearchError:
                continue
            assert math.isfinite(report.value) and 0.0 < report.mu_star <= edge


def _oracle_minimum(objective, mu_star):
    """scipy's bounded Brent minimum of the objective on [mu*/4, 4 mu*]."""
    result = minimize_scalar(objective, bounds=(0.25 * mu_star, 4.0 * mu_star),
                             method="bounded", options={"xatol": 1e-12 * mu_star})
    assert result.success
    return result.fun


@settings(max_examples=40, deadline=None, derandomize=True, database=None)
@given(r1=_rate, r2=_rate, a1=_competition, a2=_competition,
       family=st.sampled_from(sorted(_KERNEL_FAMILIES)), w1=_width, w2=_width)
def test_speeds_match_an_independent_minimizer(r1, r2, a1, a2, family, w1, w2):
    p = ModelParams(r1, r2, a1, a2)
    make = _KERNEL_FAMILIES[family]
    k1, k2 = make(w1), make(w2)

    def interior(kernel2):
        return (system_speed_bound(p, k1, kernel2), lambda mu: math.log(
            eigenvalues_2x2(linearization_matrix(p, k1, kernel2, mu))[0]) / mu)

    objectives = [
        (scalar_speed(r1, k1), lambda mu: (r1 + math.log(k1.moments(mu)[0])) / mu),
        interior(k2),
    ]
    if family != "gaussian":
        # one kernel for both species: the search at ln lambda0 (a Gaussian's
        # closed form has its own test)
        objectives.append(interior(k1))
    for report, objective in objectives:
        oracle = _oracle_minimum(objective, report.mu_star)
        assert report.value == pytest.approx(oracle, rel=1e-12)
        # near the minimum the objective is flat down to its rounding: its
        # numerator mu * value (ln lambda, or r + ln M) carries a few ulps
        # of 1, and either search may land on a low sample of that noise
        noise = 16.0 * sys.float_info.epsilon / report.mu_star
        assert report.value <= oracle + 1e-14 * abs(oracle) + noise
