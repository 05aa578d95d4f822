import math
import re
from decimal import Decimal
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from rickerwaves import (
    CertificateError,
    DomainError,
    GaussianKernel,
    Grid,
    ModelParams,
    ParameterError,
    UniformKernel,
    WaveOptions,
    change_coordinates,
    classify_stability,
    equilibria,
    growth,
    jacobian,
    pointwise_map,
    strong_stability_vectors,
    validate_params,
)
from rickerwaves import model
from rickerwaves.model import ORIGINAL_FRAME, TRANSFORMED_FRAME

from conftest import random_admissible


class TestValueRecords:
    # dict keys (a sweep's edge memo) or shared between solves: a field
    # assignment raises
    @pytest.mark.parametrize("record, name", [
        (ModelParams(0.5, 0.5, 2.0, 3.0), "r1"),
        (GaussianKernel(1.0), "sigma"),
        (UniformKernel(2.0), "halfwidth"),
        (Grid(half_length=20.0, dx=0.1), "dx"),
        (WaveOptions(), "max_steps"),
    ], ids=["ModelParams", "GaussianKernel", "UniformKernel", "Grid", "WaveOptions"])
    def test_a_field_cannot_be_assigned(self, record, name):
        value = getattr(record, name)
        with pytest.raises(AttributeError):
            setattr(record, name, 2 * value)
        assert getattr(record, name) == value


class TestValidateParams:
    def test_inside_box_passes(self):
        assert validate_params(ModelParams(0.5, 0.5, 2.0, 3.0)) is None

    def test_growth_rate_above_one_fails(self):
        with pytest.raises(ParameterError, match=r"^r1=1\.5 outside \(0, 1\)$"):
            validate_params(ModelParams(1.5, 0.5, 2.0, 3.0))

    def test_competition_below_one_fails(self):
        with pytest.raises(ParameterError, match=r"^a1=0\.5 outside \(1, inf\)$"):
            validate_params(ModelParams(0.5, 0.5, 0.5, 3.0))

    def test_boundary_growth_rate_is_inadmissible(self):
        # the strict box excludes r = 1 even though the space-free map is
        # still well behaved there
        with pytest.raises(ParameterError, match=r"^r1=1\.0 outside \(0, 1\)$"):
            validate_params(ModelParams(1.0, 0.5, 2.0, 3.0))

    @staticmethod
    def _message(**fields):
        # the ParameterError text for the README parameters with fields replaced
        with pytest.raises(ParameterError) as info:
            validate_params(ModelParams(0.5, 0.5, 2.0, 3.0)._replace(**fields))
        return str(info.value)

    @pytest.mark.parametrize("name", ModelParams._fields)
    @pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf])
    def test_non_finite_value_is_named(self, name, value):
        assert self._message(**{name: value}) == f"{name}={value} is not finite"

    @pytest.mark.parametrize("name,value,box", [
        ("r1", 0.0, "(0, 1)"), ("r1", 1.0, "(0, 1)"), ("r2", 0.0, "(0, 1)"),
        ("r2", 1.0, "(0, 1)"), ("a1", 1.0, "(1, inf)"), ("a2", 1.0, "(1, inf)"),
    ])
    def test_each_boundary_is_outside(self, name, value, box):
        assert self._message(**{name: value}) == f"{name}={value} outside {box}"

    def test_one_ulp_inside_every_boundary_passes(self):
        low, high = math.nextafter(0.0, 1.0), math.nextafter(1.0, 0.0)
        above_one, largest = math.nextafter(1.0, 2.0), math.nextafter(math.inf, 0.0)
        for p in (ModelParams(low, low, above_one, above_one),
                  ModelParams(high, high, largest, largest)):
            assert validate_params(p) is None

    @pytest.mark.parametrize("fields,message", [
        ((math.nan, 1.5, 0.5, math.inf),
         "r1=nan is not finite; a2=inf is not finite; r2=1.5 outside (0, 1); "
         "a1=0.5 outside (1, inf)"),
        ((1.0, 0.0, -math.inf, 1.0),
         "a1=-inf is not finite; r1=1.0 outside (0, 1); r2=0.0 outside (0, 1); "
         "a2=1.0 outside (1, inf)"),
        ((-0.5, 2.0, -3.0, 0.9),
         "r1=-0.5 outside (0, 1); r2=2.0 outside (0, 1); a1=-3.0 outside (1, inf); "
         "a2=0.9 outside (1, inf)"),
    ])
    def test_violations_join_non_finite_first_then_in_field_order(self, fields, message):
        with pytest.raises(ParameterError) as info:
            validate_params(ModelParams(*fields))
        assert str(info.value) == message

    @pytest.mark.parametrize("fields,message", [
        (("0.5", 0.5, 2.0, 3.0), "r1='0.5' is not a real number in float range"),
        ((0.5, None, 2.0, 3.0), "r2=None is not a real number in float range"),
        ((0.5, 0.5, 2.0, 3j), "a2=3j is not a real number in float range"),
        ((0.5, 0.5, Decimal("2"), 3.0), "a1=Decimal('2') is not a real number in float range"),
        # float() of these overflows
        ((0.5, 0.5, 10**400, 3.0), f"a1={10**400!r} is not a real number in float range"),
        ((0.5, 0.5, 2.0, Fraction(10**400)),
         f"a2={Fraction(10**400)!r} is not a real number in float range"),
        ((1.5, 0.5, "2", math.nan),
         "a1='2' is not a real number in float range; a2=nan is not finite; "
         "r1=1.5 outside (0, 1)"),
    ], ids=["str", "none", "complex", "decimal", "int-overflow", "fraction-overflow",
            "with-other-violations"])
    def test_a_value_that_is_not_a_number_is_named_first(self, fields, message):
        with pytest.raises(ParameterError) as info:
            validate_params(ModelParams(*fields))
        assert str(info.value) == message


class TestPointwiseMaps:
    def test_coexistence_point_is_fixed(self, params):
        image = pointwise_map(params, (0.2, 0.4), ORIGINAL_FRAME)
        assert image == pytest.approx((0.2, 0.4), abs=1e-15)

    def test_extinction_is_fixed(self, params):
        assert pointwise_map(params, (0.0, 0.0), ORIGINAL_FRAME) == (0.0, 0.0)

    def test_exclusion_is_fixed(self, params):
        assert pointwise_map(params, (1.0, 0.0), ORIGINAL_FRAME) == (1.0, 0.0)

    def test_transformed_value_against_direct_evaluation(self, params):
        # independent scalar calculation of the map at (0.5, 0.5)
        expected_u = 1.0 - 0.5 * math.exp(0.5 * (0.5 - 2.0 * 0.5))
        expected_v = 0.5 * math.exp(0.5 * (1.0 - 3.0 - 0.5 + 3.0 * 0.5))
        got = pointwise_map(params, (0.5, 0.5), TRANSFORMED_FRAME)
        assert got == pytest.approx((expected_u, expected_v), abs=1e-15)
        assert got == pytest.approx((0.610600, 0.303265), abs=1e-6)

    def test_transformed_corners_fixed(self, params):
        assert pointwise_map(params, (0.0, 0.0), TRANSFORMED_FRAME) == (0.0, 0.0)
        assert pointwise_map(params, (1.0, 1.0), TRANSFORMED_FRAME) == (1.0, 1.0)

    def test_interior_transformed_point_fixed(self, params):
        image = pointwise_map(params, (0.8, 0.4), TRANSFORMED_FRAME)
        assert image == pytest.approx((0.8, 0.4), abs=1e-15)

    def test_outside_unit_square_rejected(self, params):
        with pytest.raises(DomainError):
            pointwise_map(params, (1.2, 0.5), TRANSFORMED_FRAME)
        with pytest.raises(DomainError):
            pointwise_map(params, (0.5, -0.1), TRANSFORMED_FRAME)

    def test_transformed_map_monotone_on_ordered_pairs(self, params, rng):
        for _ in range(1000):
            lo = rng.uniform(0.0, 1.0, 2)
            hi = lo + rng.uniform(0.0, 1.0, 2) * (1.0 - lo)
            out_lo = pointwise_map(params, tuple(lo), TRANSFORMED_FRAME)
            out_hi = pointwise_map(params, tuple(hi), TRANSFORMED_FRAME)
            assert out_lo[0] <= out_hi[0] + 1e-15
            assert out_lo[1] <= out_hi[1] + 1e-15


class TestGrowth:
    @pytest.mark.parametrize("frame", [ORIGINAL_FRAME, TRANSFORMED_FRAME])
    def test_broadcasts_bit_for_bit(self, params, rng, frame):
        U = rng.uniform(0.0, 1.0, (3, 50))
        V = rng.uniform(0.0, 1.0, (3, 50))
        gu, gv = growth(params, U, V, frame)
        assert gu.shape == gv.shape == (3, 50)
        for row in range(3):
            row_u, row_v = growth(params, U[row], V[row], frame)
            assert np.array_equal(gu[row], row_u) and np.array_equal(gv[row], row_v)
        point = growth(params, float(U[1, 7]), float(V[1, 7]), frame)
        assert point == (gu[1, 7], gv[1, 7])

    def test_cooperative_u_is_the_complement_of_the_image(self):
        # the largest double below one leaves an original-frame density of
        # 2**-53, which the growth shrinks below what 1 - gu can hold
        p = ModelParams(0.9, 0.5, 4.0, 3.0)
        gu, _ = growth(p, 1.0 - 2.0**-53, 1.0, TRANSFORMED_FRAME)
        assert gu == pytest.approx(2.0**-53 * math.exp(-2.7), rel=1e-12)
        assert 1.0 - gu == 1.0

    def test_unknown_frame_rejected(self, params):
        with pytest.raises(DomainError):
            growth(params, 0.5, 0.5, "Original")


# admissible (H1) rates up to 1 - 1e-9 and competition coefficients, and the
# unit square as a 65 x 65 lattice, corners included
_rate = st.floats(1e-6, 1.0 - 1e-9)
_coefficient = st.floats(1.0 + 1e-9, 20.0)
_LATTICE = np.linspace(0.0, 1.0, 65)


@settings(max_examples=60, deadline=None, derandomize=True, database=None)
@example(r1=1.0 - 1e-9, r2=1.0 - 1e-9, a1=20.0, a2=20.0)
@given(r1=_rate, r2=_rate, a1=_coefficient, a2=_coefficient)
def test_cooperative_growth_is_monotone_under_h1(r1, r2, a1, a2):
    # what makes apply_Q order-preserving (A3): the new U is one minus the
    # dispersed gu and the new V the dispersed gv, and nonnegative weights
    # keep the order of what they average.  The U-derivative of gu is
    # e^(...) (r1 (1 - U) - 1) and the V-derivative of gv is e^(...) (1 - r2 V),
    # so the margin vanishes as r -> 1 at U = 0 and at V = 1
    U, V = np.meshgrid(_LATTICE, _LATTICE, indexing="ij")
    gu, gv = growth(ModelParams(r1, r2, a1, a2), U, V, TRANSFORMED_FRAME)
    for image in (1.0 - gu, gv):
        assert np.all(np.diff(image, axis=0) >= 0.0)  # in U
        assert np.all(np.diff(image, axis=1) >= 0.0)  # in V


def test_cooperative_growth_loses_order_past_r_one():
    # r1 = 1.5 leaves (H1): gu rises in U below U = 1 - 1/r1
    gu, _ = growth(ModelParams(1.5, 0.5, 2.0, 3.0), _LATTICE, 0.0, TRANSFORMED_FRAME)
    assert np.any(np.diff(1.0 - gu) < 0.0)


class TestChangeCoordinates:
    @pytest.mark.parametrize(
        "point,expected",
        [((1.0, 0.0), (0.0, 0.0)), ((0.0, 1.0), (1.0, 1.0)), ((0.2, 0.4), (0.8, 0.4))],
    )
    def test_point_mapping(self, point, expected):
        assert change_coordinates(point) == expected

    def test_involution_exact(self, rng):
        for _ in range(100):
            pt = tuple(rng.uniform(0, 1, 2))
            assert change_coordinates(change_coordinates(pt)) == pt

    def test_maps_equilibria_between_frames(self, params):
        eq = equilibria(params)
        assert change_coordinates(eq.E1) == eq.F0
        assert change_coordinates(eq.E2) == eq.F3
        assert change_coordinates(eq.E0) == eq.F1
        assert change_coordinates(eq.E3) == pytest.approx(eq.F2, abs=1e-15)


class TestEquilibria:
    def test_standard_coexistence_coordinates(self, params):
        eq = equilibria(params)
        assert eq.k1 == pytest.approx(0.2, abs=1e-15)
        assert eq.k2 == pytest.approx(0.4, abs=1e-15)
        assert eq.F2 == pytest.approx((0.8, 0.4), abs=1e-15)

    def test_symmetric_case(self):
        eq = equilibria(ModelParams(0.5, 0.5, 2.0, 2.0))
        assert eq.k1 == pytest.approx(1.0 / 3.0, abs=1e-15)
        assert eq.k2 == pytest.approx(1.0 / 3.0, abs=1e-15)

    def test_near_singular_is_well_conditioned(self):
        # oracle: 60-digit evaluation of (1-a)/(1-a^2) at the double
        # closest to 1 + 1e-9 gives 0.4999999997499999794...
        a = 1.0 + 1e-9
        eq = equilibria(ModelParams(0.5, 0.5, a, a))
        assert eq.k1 == pytest.approx(0.49999999975, abs=1e-12)
        assert eq.k2 == pytest.approx(0.49999999975, abs=1e-12)

    def test_fixed_point_residuals_for_random_draws(self, rng):
        for _ in range(20):
            p = random_admissible(rng)
            eq = equilibria(p)  # raises if any residual exceeds 1e-12
            for name, pt in eq.original().items():
                image = pointwise_map(p, pt, ORIGINAL_FRAME)
                assert max(abs(image[0] - pt[0]), abs(image[1] - pt[1])) < 1e-12
            for name, pt in eq.transformed().items():
                image = pointwise_map(p, pt, TRANSFORMED_FRAME)
                assert max(abs(image[0] - pt[0]), abs(image[1] - pt[1])) < 1e-12

    def test_singular_competition_product_rejected(self):
        with pytest.raises(ParameterError):
            equilibria(ModelParams(0.5, 0.5, 1.0, 1.0))

    def test_a_residual_above_the_tolerance_is_refused(self, params, monkeypatch):
        # on the standard parameters every point maps to itself exactly but
        # F2 = (0.8, 0.4), whose residual is 2^-53: the first point past a
        # tolerance below that
        monkeypatch.setattr(model, "EQUILIBRIUM_TOL", 1e-17)
        with pytest.raises(ParameterError) as err:
            equilibria(params)
        assert str(err.value) == "F2 is not fixed to 1e-17: residual 1.1102230246251565e-16"


def finite_difference_jacobian(p, point, frame, h=1e-6):
    out = np.zeros((2, 2))
    for col in range(2):
        lo = list(point)
        hi = list(point)
        lo[col] -= h
        hi[col] += h
        f_lo = pointwise_map(p, lo, frame)
        f_hi = pointwise_map(p, hi, frame)
        out[0, col] = (f_hi[0] - f_lo[0]) / (2 * h)
        out[1, col] = (f_hi[1] - f_lo[1]) / (2 * h)
    return out


class TestJacobian:
    def test_transformed_origin_corner(self, params):
        expected = np.array([[0.5, 1.0], [0.0, math.exp(-1.0)]])
        got = jacobian(params, (0.0, 0.0), TRANSFORMED_FRAME)
        assert np.allclose(got, expected, atol=1e-14)
        fd = finite_difference_jacobian(params, (0.01, 0.01), TRANSFORMED_FRAME)
        assert np.allclose(jacobian(params, (0.01, 0.01), TRANSFORMED_FRAME), fd, atol=1e-6)

    def test_transformed_saturated_corner(self, params):
        expected = np.array([[math.exp(-0.5), 0.0], [1.5, 0.5]])
        got = jacobian(params, (1.0, 1.0), TRANSFORMED_FRAME)
        assert np.allclose(got, expected, atol=1e-14)

    def test_original_extinction_is_diagonal(self, params):
        got = jacobian(params, (0.0, 0.0), ORIGINAL_FRAME)
        assert np.allclose(got, np.diag([math.exp(0.5), math.exp(0.5)]), atol=1e-14)

    def test_matches_finite_differences_at_random_points(self, rng):
        for _ in range(20):
            p = random_admissible(rng)
            pt = tuple(rng.uniform(0.05, 0.95, 2))
            for frame in (ORIGINAL_FRAME, TRANSFORMED_FRAME):
                fd = finite_difference_jacobian(p, pt, frame)
                assert np.allclose(jacobian(p, pt, frame), fd, atol=1e-6)


class TestStability:
    def test_standard_parameter_table(self, params):
        eq = equilibria(params)
        expected = {
            ("F0", TRANSFORMED_FRAME): "stable",
            ("F1", TRANSFORMED_FRAME): "unstable",
            ("F2", TRANSFORMED_FRAME): "unstable",
            ("F3", TRANSFORMED_FRAME): "stable",
            ("E0", ORIGINAL_FRAME): "unstable",
            ("E1", ORIGINAL_FRAME): "stable",
            ("E2", ORIGINAL_FRAME): "stable",
            ("E3", ORIGINAL_FRAME): "unstable",
        }
        points = {**eq.original(), **eq.transformed()}
        frames = {name: frame for (name, frame) in expected}
        for (name, frame), label in expected.items():
            assert classify_stability(params, points[name], frame).label == label

    def test_extinction_radius(self, params):
        res = classify_stability(params, (0.0, 0.0), ORIGINAL_FRAME)
        assert res.spectral_radius == pytest.approx(math.exp(0.5), abs=1e-12)

    def test_coexistence_is_a_saddle(self, params):
        res = classify_stability(params, (0.2, 0.4), ORIGINAL_FRAME)
        # oracle: eigenvalues of [[0.9,-0.2],[-0.6,0.8]] are 1.2 and 0.5
        assert res.spectral_radius == pytest.approx(1.2, abs=1e-12)
        assert res.label == "unstable"
        assert min(abs(lam) for lam in res.eigenvalues) == pytest.approx(0.5, abs=1e-12)

    @pytest.mark.parametrize("a2,label", [(1.0, "marginal"), (1.0 + 1e-12, "marginal"),
                                          (1.0 + 1e-6, "stable")])
    def test_marginal_within_the_margin(self, a2, label):
        # at E1 = (1, 0) the Jacobian is [[1 - r1, -r1 a1], [0, exp(r2 (1 - a2))]];
        # its radius exp(r2 (1 - a2)) is 1 at a2 = 1, 1 - 5e-13 at a2 = 1 + 1e-12
        # (inside the 1e-9 margin) and 1 - 5e-7 at a2 = 1 + 1e-6
        res = classify_stability(ModelParams(0.5, 0.5, 2.0, a2), (1.0, 0.0), ORIGINAL_FRAME)
        assert res.spectral_radius == pytest.approx(math.exp(0.5 * (1.0 - a2)), abs=1e-15)
        assert res.label == label

    def test_non_fixed_point_rejected(self, params):
        with pytest.raises(DomainError):
            classify_stability(params, (0.3, 0.3), ORIGINAL_FRAME)

    @pytest.mark.parametrize("point", [(math.nan, 0.0), (0.0, math.nan), (math.nan, math.nan)])
    def test_a_nan_point_is_not_fixed(self, params, point):
        # the original frame has no square to leave, and a nan residual
        # compares False against the tolerance either way
        with pytest.raises(DomainError, match=r"is not fixed in frame 'original': residual nan$"):
            classify_stability(params, point, ORIGINAL_FRAME)

    @pytest.mark.parametrize("point", [None, (0.0, 0.0, 0.0), (0.0,), ("0", 0.0),
                                       (0.0, None), (True, 0.0), 0.0])
    def test_a_point_that_is_not_a_real_pair_is_named(self, params, point):
        with pytest.raises(DomainError, match=re.escape(
                f"point {point!r} is not a pair of real numbers")):
            classify_stability(params, point, ORIGINAL_FRAME)

    def test_agrees_with_forward_iteration(self, rng):
        perturbations = {
            "E0": (1e-3, 1e-3), "E1": (-1e-3, 1e-3), "E2": (1e-3, -1e-3),
            "E3": (1e-3, 1e-3), "F0": (1e-3, 1e-3), "F1": (-1e-3, 1e-3),
            "F2": (1e-3, 1e-3), "F3": (-1e-3, -1e-3),
        }
        for _ in range(20):
            p = random_admissible(rng)
            eq = equilibria(p)
            named = [(n, pt, ORIGINAL_FRAME) for n, pt in eq.original().items()]
            named += [(n, pt, TRANSFORMED_FRAME) for n, pt in eq.transformed().items()]
            for name, pt, frame in named:
                label = classify_stability(p, pt, frame).label
                d = perturbations[name]
                point = (pt[0] + d[0], pt[1] + d[1])
                for _ in range(200):
                    point = pointwise_map(p, point, frame)
                dist0 = math.hypot(*d)
                dist = math.hypot(point[0] - pt[0], point[1] - pt[1])
                if label == "stable":
                    assert dist < 0.1 * dist0, (name, p)
                else:
                    assert dist > 2.0 * dist0, (name, p)


class TestStrongStability:
    def test_standard_directions_and_threshold(self, params):
        cert = strong_stability_vectors(params)
        e4, e5 = np.asarray(cert.e4), np.asarray(cert.e5)
        assert np.allclose(e4 / e4[0], [1.0, 0.25], atol=1e-12)
        assert np.allclose(e5 / e5[1], [1.0 / 6.0, 1.0], atol=1e-12)
        assert cert.delta > 0.0
        assert np.linalg.norm(e4) == pytest.approx(1.0, abs=1e-12)
        assert np.linalg.norm(e5) == pytest.approx(1.0, abs=1e-12)
        assert all(low and high for (_, low, high) in cert.table)

    def test_intermediate_states_unordered(self, params):
        cert = strong_stability_vectors(params)
        assert cert.f1_f2_unordered
        eq = equilibria(params)
        assert eq.F1[0] > eq.F2[0] and eq.F1[1] < eq.F2[1]

    def test_linearized_contraction_condition(self, rng):
        # J(0,0) (1, eps) < (1, eps) componentwise iff eps < 1/a1
        for _ in range(20):
            p = random_admissible(rng)
            J = jacobian(p, (0.0, 0.0), TRANSFORMED_FRAME)
            eps = 1.0 / (2.0 * p.a1)
            image = J @ np.array([1.0, eps])
            assert image[0] < 1.0 and image[1] < eps

    def test_certificate_holds_nonlinearly(self, params):
        cert = strong_stability_vectors(params)
        for eta in (cert.delta, cert.delta / 8.0, cert.delta / 64.0):
            low = (eta * cert.e4[0], eta * cert.e4[1])
            out = pointwise_map(params, low, TRANSFORMED_FRAME)
            assert out[0] < low[0] and out[1] < low[1]
            high = (1.0 - eta * cert.e5[0], 1.0 - eta * cert.e5[1])
            out = pointwise_map(params, high, TRANSFORMED_FRAME)
            assert out[0] > high[0] and out[1] > high[1]

    def test_failure_raises_certificate_error(self, monkeypatch):
        # inadmissible parameters never reach the sweep, so force the sweep
        # to fail by exhausting the dyadic levels on a valid parameter set
        monkeypatch.setattr(model, "STABILITY_MAX_LEVEL", 0)
        with pytest.raises(CertificateError):
            strong_stability_vectors(ModelParams(0.5, 0.5, 2.0, 3.0))
