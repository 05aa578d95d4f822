import tracemalloc
from dataclasses import replace

import numpy as np
import pytest

from rickerwaves import (
    ConfigError,
    DomainError,
    GaussianKernel,
    Grid,
    ModelParams,
    RangeError,
    SpatialState,
    UniformKernel,
    apply_Q,
    axiom_errors,
    change_coordinates,
    compare,
    constant_state,
    convolve_extended,
    discretize,
    find_bistable_wave,
    interior_slice,
    iterate,
    pointwise_map,
    translate,
    wave_grid,
)
from rickerwaves import evolution
from rickerwaves.evolution import MAX_GRID_POINTS, _fft_length
from rickerwaves.model import ORIGINAL_FRAME, TRANSFORMED_FRAME


def random_transformed(grid, rng):
    return SpatialState(
        grid=grid,
        frame=TRANSFORMED_FRAME,
        U=rng.uniform(0.0, 1.0, grid.n_points),
        V=rng.uniform(0.0, 1.0, grid.n_points),
    )


def ordered_pair(grid, rng):
    a = random_transformed(grid, rng)
    b = random_transformed(grid, rng)
    lo = SpatialState(grid=grid, frame=TRANSFORMED_FRAME,
                      U=np.minimum(a.U, b.U), V=np.minimum(a.V, b.V))
    hi = SpatialState(grid=grid, frame=TRANSFORMED_FRAME,
                      U=np.maximum(a.U, b.U), V=np.maximum(a.V, b.V))
    return lo, hi


class TestGrid:
    def test_point_count_and_coverage(self):
        grid = Grid(half_length=200.0, dx=0.1)
        assert grid.n_points == 4001
        assert grid.x[0] == pytest.approx(-200.0)
        assert grid.x[-1] == pytest.approx(200.0)
        assert grid.x[grid.half_cells] == 0.0

    def test_minimum_size(self):
        assert Grid(half_length=0.2, dx=0.1).n_points >= 3
        with pytest.raises(ConfigError):
            Grid(half_length=0.05, dx=0.1)
        with pytest.raises(ConfigError):
            Grid(half_length=10.0, dx=-0.1)

    def test_oversized_grid_rejected_before_allocating(self):
        tracemalloc.start()
        try:
            with pytest.raises(ConfigError, match=r"L=200.0 at dx=1e-07") as err:
                Grid(half_length=200.0, dx=1e-7)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert str(MAX_GRID_POINTS) in str(err.value)
        assert peak < 100_000
        for half_length, dx in ((float("inf"), 0.1), (1e300, 1e-10), (5e5, 0.1)):
            with pytest.raises(ConfigError):
                Grid(half_length=half_length, dx=dx)
        assert Grid(half_length=499999.9, dx=0.1).n_points == MAX_GRID_POINTS - 1
        assert Grid(half_length=200.0, dx=0.01).n_points == 40001


class TestSpatialState:
    def test_transformed_range_enforced(self, small_grid):
        with pytest.raises(DomainError):
            SpatialState(grid=small_grid, frame=TRANSFORMED_FRAME,
                         U=np.full(small_grid.n_points, 1.2),
                         V=np.zeros(small_grid.n_points))

    def test_original_nonnegative_enforced(self, small_grid):
        with pytest.raises(DomainError):
            SpatialState(grid=small_grid, frame=ORIGINAL_FRAME,
                         U=np.full(small_grid.n_points, -0.1),
                         V=np.zeros(small_grid.n_points))
        # values above one are fine in the original frame
        SpatialState(grid=small_grid, frame=ORIGINAL_FRAME,
                     U=np.full(small_grid.n_points, 1.3),
                     V=np.zeros(small_grid.n_points))

    def test_shape_mismatch_rejected(self, small_grid):
        with pytest.raises(ConfigError):
            SpatialState(grid=small_grid, frame=TRANSFORMED_FRAME,
                         U=np.zeros(5), V=np.zeros(5))

    @pytest.mark.parametrize("frame", [TRANSFORMED_FRAME, ORIGINAL_FRAME])
    @pytest.mark.parametrize("field", ["U", "V"])
    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_non_finite_sample_in_either_field_rejected(self, small_grid, frame, field, bad):
        fields = {"U": np.full(small_grid.n_points, 0.5), "V": np.full(small_grid.n_points, 0.5)}
        fields[field][3] = bad
        with pytest.raises(DomainError, match="non-finite"):
            SpatialState(grid=small_grid, frame=frame, **fields)


KERNELS = pytest.mark.parametrize("kernel", [GaussianKernel(1.0), UniformKernel(1.0)],
                                  ids=["gaussian", "uniform"])


class TestApplyQ:
    # the stable constants are exact fixed points in both frames; F0 and F3
    # are E1 and E2 seen through u -> 1 - u
    @KERNELS
    @pytest.mark.parametrize("frame,point", [(TRANSFORMED_FRAME, (0.0, 0.0)),
                                             (ORIGINAL_FRAME, (1.0, 0.0))], ids=["F0", "E1"])
    def test_zero_state_fixed(self, params, small_grid, kernel, frame, point):
        dk = discretize(kernel, small_grid.dx)
        out = apply_Q(constant_state(small_grid, frame, point), params, dk, dk)
        assert np.all(out.U == point[0]) and np.all(out.V == point[1])

    @KERNELS
    @pytest.mark.parametrize("frame,point", [(TRANSFORMED_FRAME, (1.0, 1.0)),
                                             (ORIGINAL_FRAME, (0.0, 1.0))], ids=["F3", "E2"])
    def test_saturated_state_fixed(self, params, small_grid, kernel, frame, point):
        dk = discretize(kernel, small_grid.dx)
        out = apply_Q(constant_state(small_grid, frame, point), params, dk, dk)
        assert np.all(out.U == point[0])
        assert np.all(out.V == 1.0)

    def test_original_step_of_E1_changes_frame(self, params, small_grid, gaussian_weights):
        # without the snap at one, U lands within 1 +- 7e-16 and the
        # cooperative frame rejects 1 - U below zero
        out = apply_Q(constant_state(small_grid, ORIGINAL_FRAME, (1.0, 0.0)),
                      params, gaussian_weights, gaussian_weights)
        moved = change_coordinates(out)
        assert moved.frame == TRANSFORMED_FRAME
        assert np.all(moved.U == 0.0) and np.all(moved.V == 0.0)

    @pytest.mark.parametrize("point", [(1.0, 0.0), (0.8, 0.4)])
    def test_unstable_equilibria_fixed(self, params, small_grid, gaussian_weights, point):
        out = apply_Q(constant_state(small_grid, TRANSFORMED_FRAME, point),
                      params, gaussian_weights, gaussian_weights)
        assert np.max(np.abs(out.U - point[0])) < 1e-12
        assert np.max(np.abs(out.V - point[1])) < 1e-12

    def test_constants_evolve_by_pointwise_map(self, params, small_grid, gaussian_weights, rng):
        for _ in range(10):
            point = tuple(rng.uniform(0.0, 1.0, 2))
            out = apply_Q(constant_state(small_grid, TRANSFORMED_FRAME, point),
                          params, gaussian_weights, gaussian_weights)
            expected = pointwise_map(params, point, TRANSFORMED_FRAME)
            assert np.max(np.abs(out.U - expected[0])) < 1e-12
            assert np.max(np.abs(out.V - expected[1])) < 1e-12

    def test_original_frame_constants(self, params, small_grid, gaussian_weights, rng):
        for _ in range(5):
            point = tuple(rng.uniform(0.0, 1.2, 2))
            out = apply_Q(constant_state(small_grid, ORIGINAL_FRAME, point),
                          params, gaussian_weights, gaussian_weights)
            expected = pointwise_map(params, point, ORIGINAL_FRAME)
            assert np.max(np.abs(out.U - expected[0])) < 1e-12
            assert np.max(np.abs(out.V - expected[1])) < 1e-12

    @KERNELS
    def test_cooperative_step_conjugates_original_step(self, params, small_grid, rng, kernel):
        # u -> 1 - u carries one recursion to the other: the cooperative step
        # of (U, V) is (1 - U', V') for (U', V') the original step of (1 - U, V).
        # Arrays are compared, not states: the original frame bounds U' only
        # below (densities above one are in its range), so 1 - U' need not be
        # a cooperative-frame state.
        dk = discretize(kernel, small_grid.dx)
        n = small_grid.n_points
        zero = np.zeros(n)
        cases = [(np.full(n, u), np.full(n, v))
                 for u, v in ((0.0, 0.0), (1.0, 0.0), (0.3, 0.0), (0.0, 1.0), (1.0, 1.0),
                              (0.8, 0.4), (0.6, 0.7))]
        for _ in range(3):
            U = rng.uniform(0.0, 1.0, n)
            cases += [(U, zero), (U, rng.uniform(0.0, 1.0, n))]
        for U, V in cases:
            coop = apply_Q(SpatialState(grid=small_grid, frame=TRANSFORMED_FRAME, U=U, V=V),
                           params, dk, dk)
            orig = apply_Q(SpatialState(grid=small_grid, frame=ORIGINAL_FRAME, U=1.0 - U, V=V),
                           params, dk, dk)
            assert np.max(np.abs(coop.U - (1.0 - orig.U))) < 1e-12
            assert np.max(np.abs(coop.V - orig.V)) < 1e-12

    def test_spacing_mismatch_rejected(self, params, small_grid, gaussian):
        wrong = discretize(gaussian, 0.2)
        state = constant_state(small_grid, TRANSFORMED_FRAME, (0.5, 0.5))
        with pytest.raises(ConfigError):
            apply_Q(state, params, wrong, wrong)

    def test_step_counter_increments(self, params, small_grid, gaussian_weights):
        state = constant_state(small_grid, TRANSFORMED_FRAME, (0.5, 0.5))
        out = apply_Q(state, params, gaussian_weights, gaussian_weights)
        assert out.step == 1

    def test_range_preserved_on_random_states(self, params, small_grid, gaussian_weights, rng):
        for _ in range(20):
            out = apply_Q(random_transformed(small_grid, rng), params,
                          gaussian_weights, gaussian_weights)
            assert out.U.min() >= 0.0 and out.U.max() <= 1.0
            assert out.V.min() >= 0.0 and out.V.max() <= 1.0

    def test_order_preserved_on_random_pairs(self, params, small_grid, gaussian_weights, rng):
        worst = 0.0
        for _ in range(100):
            lo, hi = ordered_pair(small_grid, rng)
            q_lo = apply_Q(lo, params, gaussian_weights, gaussian_weights)
            q_hi = apply_Q(hi, params, gaussian_weights, gaussian_weights)
            worst = max(worst, float(np.max(q_lo.U - q_hi.U)), float(np.max(q_lo.V - q_hi.V)))
        assert worst <= 1e-12


class TestIterate:
    def test_zero_steps_identity(self, params, small_grid, gaussian_weights, rng):
        state = random_transformed(small_grid, rng)
        trajectory = iterate(state, params, gaussian_weights, gaussian_weights, 0)
        assert len(trajectory) == 1 and trajectory[0] is state

    def test_ordered_data_stays_ordered(self, params, small_grid, gaussian_weights, rng):
        lo, hi = ordered_pair(small_grid, rng)
        traj_lo = iterate(lo, params, gaussian_weights, gaussian_weights, 10)
        traj_hi = iterate(hi, params, gaussian_weights, gaussian_weights, 10)
        for s_lo, s_hi in zip(traj_lo, traj_hi):
            assert np.all(s_lo.U <= s_hi.U + 1e-12)
            assert np.all(s_lo.V <= s_hi.V + 1e-12)

    def test_monotone_in_x_preserved(self, params, small_grid, gaussian_weights):
        from rickerwaves import step_initial_data

        state = step_initial_data(small_grid, 1.0)
        for snap in iterate(state, params, gaussian_weights, gaussian_weights, 15):
            assert np.min(np.diff(snap.U)) >= -1e-12
            assert np.min(np.diff(snap.V)) >= -1e-12

    def test_thinning_keeps_first_and_last(self, params, small_grid, gaussian_weights, rng):
        state = random_transformed(small_grid, rng)
        trajectory = iterate(state, params, gaussian_weights, gaussian_weights, 7, keep_every=3)
        assert [s.step for s in trajectory] == [0, 3, 6, 7]


class TestTranslate:
    def test_zero_shift_is_identity(self, small_grid, rng):
        state = random_transformed(small_grid, rng)
        out = translate(state, 0)
        assert np.array_equal(out.U, state.U) and np.array_equal(out.V, state.V)

    def test_shift_semantics_and_edge_fill(self, small_grid):
        n = small_grid.n_points
        U = np.linspace(0.0, 1.0, n)
        state = SpatialState(grid=small_grid, frame=TRANSFORMED_FRAME, U=U, V=U.copy())
        out = translate(state, 3)
        assert np.array_equal(out.U[3:], U[:-3])
        assert np.all(out.U[:3] == U[0])
        back = translate(state, -3)
        assert np.array_equal(back.U[:-3], U[3:])
        assert np.all(back.U[-3:] == U[-1])

    def test_composition(self, small_grid, rng):
        state = random_transformed(small_grid, rng)
        once = translate(translate(state, 4), 3)
        direct = translate(state, 7)
        inner = slice(7, small_grid.n_points - 7)
        assert np.array_equal(once.U[inner], direct.U[inner])

    def test_out_of_range_rejected(self, small_grid, rng):
        state = random_transformed(small_grid, rng)
        with pytest.raises(RangeError):
            translate(state, small_grid.n_points)

    def test_commutes_with_step_on_interior(self, params, small_grid, gaussian_weights, rng):
        state = random_transformed(small_grid, rng)
        for j in (5, -9):
            a = translate(apply_Q(state, params, gaussian_weights, gaussian_weights), j)
            b = apply_Q(translate(state, j), params, gaussian_weights, gaussian_weights)
            win = interior_slice(small_grid, abs(j) + gaussian_weights.half_width)
            assert np.max(np.abs(a.U[win] - b.U[win])) <= 1e-12
            assert np.max(np.abs(a.V[win] - b.V[win])) <= 1e-12


class TestAxiomErrors:
    def test_order_violation_detected_for_non_monotone_growth(self, params, small_grid, rng):
        # r1 = 3 leaves the strong-competition box: (1-u) e^{r1 u} rises for
        # u < 1 - 1/r1, so raising U lowers the next U.  A narrow kernel
        # keeps the dispersal from averaging the violation away.
        narrow = discretize(GaussianKernel(0.1), small_grid.dx)
        wild = replace(params, r1=3.0)
        _, tame_worst = axiom_errors(params, narrow, narrow, small_grid, rng, pairs=20)
        _, wild_worst = axiom_errors(wild, narrow, narrow, small_grid, rng, pairs=20)
        assert tame_worst <= 1e-12
        assert wild_worst > 1e-2

    def test_draws_one_state_per_shift_then_two_per_pair(self, params, small_grid,
                                                         gaussian_weights):
        used = np.random.default_rng(3)
        axiom_errors(params, gaussian_weights, gaussian_weights, small_grid, used,
                     shifts=(7, 2), pairs=3)
        fresh = np.random.default_rng(3)
        for _ in range(2 + 2 * 3):
            random_transformed(small_grid, fresh)
        assert used.uniform() == fresh.uniform()


class TestCompare:
    def test_state_equals_itself(self, small_grid, rng):
        state = random_transformed(small_grid, rng)
        assert compare(state, state) == "equal"

    def test_corner_states_ordered(self, small_grid):
        lo = constant_state(small_grid, TRANSFORMED_FRAME, (0.0, 0.0))
        hi = constant_state(small_grid, TRANSFORMED_FRAME, (1.0, 1.0))
        assert compare(lo, hi) == "le"
        assert compare(hi, lo) == "ge"

    def test_crossing_states_unordered(self, small_grid):
        n = small_grid.n_points
        up = np.linspace(0.0, 1.0, n)
        state_a = SpatialState(grid=small_grid, frame=TRANSFORMED_FRAME, U=up, V=up.copy())
        state_b = SpatialState(grid=small_grid, frame=TRANSFORMED_FRAME,
                               U=up[::-1].copy(), V=up[::-1].copy())
        assert compare(state_a, state_b) == "unordered"

    def test_grid_mismatch_rejected(self, small_grid, rng):
        other = Grid(half_length=10.0, dx=0.1)
        a = random_transformed(small_grid, rng)
        b = random_transformed(other, rng)
        with pytest.raises(ConfigError):
            compare(a, b)


class TestConvolution:
    def test_fast_and_direct_agree(self, gaussian_weights, rng):
        for _ in range(25):
            f = rng.uniform(0.0, 1.0, 301)
            fast = convolve_extended(f, gaussian_weights, "fft")
            ref = convolve_extended(f, gaussian_weights, "direct")
            assert np.max(np.abs(fast - ref)) <= 1e-10

    def test_exact_zeros_propagate_through_fft_path(self, gaussian_weights):
        f = np.zeros(301)
        f[:80] = 1.0
        out = convolve_extended(f, gaussian_weights, "fft")
        assert np.all(out[250:] == 0.0)

    def test_cached_spectrum_per_transform_length(self, gaussian_weights, rng, monkeypatch):
        # one kernel alternating between field lengths sizes each field
        # length's transform once, and field lengths that share a transform
        # length (200 and 201 points both need 500 at J = 72) share one
        # spectrum, transformed once
        sized = []

        def counting(n):
            sized.append(n)
            return _fft_length(n)

        monkeypatch.setattr(evolution, "_fft_length", counting)
        J = gaussian_weights.half_width
        assert _fft_length(200 + 4 * J) == _fft_length(201 + 4 * J) == 500
        spectra = []
        for n in (201, 4001, 201, 4001, 200):
            f = rng.uniform(0.0, 1.0, n)
            fast = convolve_extended(f, gaussian_weights, "fft")
            ref = convolve_extended(f, gaussian_weights, "direct")
            assert np.max(np.abs(fast - ref)) <= 1e-13
            spectra.append(gaussian_weights.spectra[gaussian_weights.lengths[n]])
        assert sized == [201 + 4 * J, 4001 + 4 * J, 200 + 4 * J]
        assert gaussian_weights.lengths == {n: _fft_length(n + 4 * J) for n in (200, 201, 4001)}
        assert sorted(gaussian_weights.spectra) == [500, _fft_length(4001 + 4 * J)]
        assert spectra[0] is spectra[2] is spectra[4] and spectra[1] is spectra[3]
        for length, spectrum in gaussian_weights.spectra.items():
            assert np.array_equal(spectrum, np.fft.rfft(gaussian_weights.weights, length))

    def test_fft_length_is_5_smooth_and_large_enough(self):
        for n in range(1, 5001):
            m = _fft_length(n)
            assert m >= n
            for prime in (2, 3, 5):
                while m % prime == 0:
                    m //= prime
            assert m == 1, n

    # J = 72 at dx = 0.1: 201 points are 29145 multiply-adds, 4001 are 580145
    @pytest.mark.parametrize("n,method", [(201, "direct"), (4001, "fft")])
    def test_default_method_by_size_agrees_with_direct(self, gaussian_weights, rng, n, method):
        assert evolution._choose_method(n, gaussian_weights.half_width) == method
        for _ in range(5):
            f = rng.uniform(0.0, 1.0, n)
            chosen = convolve_extended(f, gaussian_weights)
            assert np.max(np.abs(chosen - convolve_extended(f, gaussian_weights, "direct"))) <= 1e-13
            assert np.array_equal(chosen, convolve_extended(f, gaussian_weights, method))
        assert gaussian_weights.methods == {n: method}

    def test_choice_straddles_the_threshold(self):
        limit = evolution.DIRECT_MAX_TERMS
        J = 72
        below = int(limit // (2 * J + 1))
        assert evolution._choose_method(below, J) == "direct"
        assert evolution._choose_method(below + 1, J) == "fft"

    def test_method_chosen_once_per_kernel_and_length(self, gaussian_weights, rng, monkeypatch):
        chosen = []
        choose = evolution._choose_method

        def counting(n, half_width):
            chosen.append((n, half_width))
            return choose(n, half_width)

        monkeypatch.setattr(evolution, "_choose_method", counting)
        for n in (201, 4001, 201, 4001, 201):
            convolve_extended(rng.uniform(0.0, 1.0, n), gaussian_weights)
        J = gaussian_weights.half_width
        assert chosen == [(201, J), (4001, J)]
        assert gaussian_weights.methods == {201: "direct", 4001: "fft"}
        # a second kernel makes its own choice
        convolve_extended(rng.uniform(0.0, 1.0, 201), discretize(GaussianKernel(1.0), 0.1))
        assert chosen[-1] == (201, J)

    def test_explicit_method_is_honoured(self, gaussian_weights, rng):
        J = gaussian_weights.half_width
        small, large = rng.uniform(0.0, 1.0, 201), rng.uniform(0.0, 1.0, 4001)
        via_fft = convolve_extended(small, gaussian_weights, "fft")
        via_direct = convolve_extended(large, gaussian_weights, "direct")
        # only the fft call sized a transform and cached a spectrum, and
        # neither made a choice
        length = _fft_length(201 + 4 * J)
        assert gaussian_weights.lengths == {201: length}
        assert sorted(gaussian_weights.spectra) == [length]
        assert gaussian_weights.methods == {}
        summed = np.convolve(np.pad(large, J, mode="edge"), gaussian_weights.weights, "valid")
        assert np.array_equal(via_direct, summed)
        # the default for 201 points is summation; the explicit fft differs by roundoff
        default = convolve_extended(small, gaussian_weights)
        assert np.array_equal(
            default, np.convolve(np.pad(small, J, mode="edge"), gaussian_weights.weights, "valid"))
        assert not np.array_equal(via_fft, default)
        assert np.max(np.abs(via_fft - default)) <= 1e-13

    def test_unknown_method_rejected(self, gaussian_weights):
        with pytest.raises(ConfigError):
            convolve_extended(np.ones(64), gaussian_weights, "warp")


class _NoScan(np.ndarray):
    """An array whose elementwise comparison fails: proof that no scan ran."""

    def __ne__(self, other):
        raise AssertionError("the active-window scan ran")


@pytest.fixture(scope="module")
def wide_profile():
    # converged README front on L = 200: exactly 0 and 1 beyond |x| ~ 31
    p = ModelParams(0.5, 0.5, 2.0, 3.0)
    k = GaussianKernel(1.0)
    wp = find_bistable_wave(p, k, k, Grid(half_length=200.0, dx=0.1))
    return SpatialState(grid=wp.grid, frame=TRANSFORMED_FRAME, U=wp.phi, V=wp.psi)


# kernels of different half widths: J = 72 and 36, and J = 36 and 20
KERNEL_PAIRS = pytest.mark.parametrize(
    "kernel1,kernel2",
    [(GaussianKernel(1.0), GaussianKernel(0.5)), (GaussianKernel(0.5), UniformKernel(2.0))],
    ids=["gauss-gauss", "gauss-uniform"])
FRAMES = pytest.mark.parametrize("frame", [TRANSFORMED_FRAME, ORIGINAL_FRAME])


class TestActiveWindow:
    @staticmethod
    def steps(state, params, kernel1, kernel2, monkeypatch, method, window=True, n=5):
        """n steps on fresh weights, every convolution on ``method``."""
        with monkeypatch.context() as m:
            m.setattr(evolution, "_choose_method", lambda n_field, half_width: method)
            if not window:
                m.setattr(evolution, "_active_window", lambda U, V, reach: (0, len(U)))
            k1, k2 = discretize(kernel1, state.grid.dx), discretize(kernel2, state.grid.dx)
            return iterate(state, params, k1, k2, n)[1:]

    @staticmethod
    def in_frame(state, frame):
        return state if state.frame == frame else change_coordinates(state)

    @staticmethod
    def reach(kernel1, kernel2, dx):
        return max(discretize(kernel1, dx).half_width, discretize(kernel2, dx).half_width) + 1

    def assert_bit_identical(self, state, params, kernel1, kernel2, monkeypatch, n=5):
        windowed = self.steps(state, params, kernel1, kernel2, monkeypatch, "direct", n=n)
        full = self.steps(state, params, kernel1, kernel2, monkeypatch, "direct", False, n=n)
        for a, b in zip(windowed, full):
            assert np.array_equal(a.U, b.U) and np.array_equal(a.V, b.V)

    @FRAMES
    @KERNEL_PAIRS
    def test_summed_steps_are_bit_identical(self, wide_profile, params, kernel1, kernel2,
                                            frame, monkeypatch):
        state = self.in_frame(wide_profile, frame)
        a, b = evolution._active_window(state.U, state.V,
                                        self.reach(kernel1, kernel2, state.grid.dx))
        n = state.grid.n_points
        assert 0 < a and b < n and b - a <= evolution.ACTIVE_MAX_SHARE * n
        self.assert_bit_identical(state, params, kernel1, kernel2, monkeypatch)

    @FRAMES
    @KERNEL_PAIRS
    def test_fft_steps_agree_to_roundoff(self, wide_profile, params, kernel1, kernel2,
                                         frame, monkeypatch):
        state = self.in_frame(wide_profile, frame)
        windowed = self.steps(state, params, kernel1, kernel2, monkeypatch, "fft", n=1)[0]
        full = self.steps(state, params, kernel1, kernel2, monkeypatch, "fft", False, n=1)[0]
        assert np.max(np.abs(windowed.U - full.U)) <= 1e-13
        assert np.max(np.abs(windowed.V - full.V)) <= 1e-13

    @pytest.mark.parametrize("frame,point", [
        (ORIGINAL_FRAME, (1.0, 0.0)), (ORIGINAL_FRAME, (0.0, 1.0)),
        (TRANSFORMED_FRAME, (0.0, 0.0)), (TRANSFORMED_FRAME, (1.0, 1.0)),
        (TRANSFORMED_FRAME, (0.3, 0.7))], ids=["E1", "E2", "F0", "F3", "constant"])
    def test_constant_states_step_one_cell(self, params, small_grid, frame, point, monkeypatch):
        state = constant_state(small_grid, frame, point)
        assert evolution._active_window(state.U, state.V, 73) == (0, 1)
        out = apply_Q(state, params, discretize(GaussianKernel(1.0), 0.1),
                      discretize(UniformKernel(2.0), 0.1))
        if point != (0.3, 0.7):
            assert np.all(out.U == point[0]) and np.all(out.V == point[1])
        self.assert_bit_identical(state, params, GaussianKernel(1.0), UniformKernel(2.0),
                                  monkeypatch, n=2)

    @pytest.mark.parametrize("side", ["left", "right"])
    def test_state_constant_on_one_side(self, params, rng, side, monkeypatch):
        grid = Grid(half_length=50.0, dx=0.1)
        n = grid.n_points
        U = np.sort(rng.uniform(0.0, 1.0, n))
        V = np.sort(rng.uniform(0.0, 1.0, n))
        if side == "left":
            U[:600], V[:600] = 0.0, 0.0
            expected = (600 - 73, n)
        else:
            U[400:], V[400:] = 1.0, 1.0
            expected = (0, 400 + 73)
        state = SpatialState(grid=grid, frame=TRANSFORMED_FRAME, U=U, V=V)
        assert evolution._active_window(U, V, 73) == expected
        self.assert_bit_identical(state, params, GaussianKernel(1.0), GaussianKernel(1.0),
                                  monkeypatch)

    @pytest.mark.parametrize("run", [71, 72, 73, 74, 75])
    def test_short_constant_run_is_not_trimmed(self, params, rng, run, monkeypatch):
        # J = 72: a left run of J + 1 cells or fewer keeps every cell, and
        # each cell more trims one
        grid = Grid(half_length=50.0, dx=0.1)
        U = np.ones(grid.n_points)
        U[:300] = np.sort(rng.uniform(0.0, 1.0, 300))
        U[:run] = 0.0
        state = SpatialState(grid=grid, frame=TRANSFORMED_FRAME, U=U, V=U.copy())
        assert evolution._active_window(U, U, 73) == (max(run - 73, 0), 300 + 73)
        self.assert_bit_identical(state, params, GaussianKernel(1.0), GaussianKernel(1.0),
                                  monkeypatch)

    def test_sized_profile_and_random_state_take_no_window(self, params, rng):
        k = GaussianKernel(1.0)
        wp = find_bistable_wave(params, k, k)
        reach = wp.kernel_half_width + 1
        noise = rng.uniform(0.0, 1.0, (2, 4001))
        for U, V in ((wp.phi, wp.psi), (noise[0], noise[1])):
            # the O(1) edge probe rules the window out before any scan
            window = evolution._active_window(U.view(_NoScan), V.view(_NoScan), reach)
            assert window == (0, len(U))

    def test_window_that_keeps_most_of_the_grid_is_skipped(self, rng):
        # a 400-cell run passes the edge probe, but its window would keep
        # 674 of 1001 cells; a 700-cell run leaves a window of 374
        U = np.sort(rng.uniform(0.0, 1.0, 1001))
        U[:400] = 0.0
        assert 674 > evolution.ACTIVE_MAX_SHARE * 1001
        assert evolution._active_window(U, U, 73) == (0, 1001)
        U[:700] = 0.0
        assert evolution._active_window(U, U, 73) == (627, 1001)

    @pytest.mark.parametrize("dx", [0.1, 0.01])
    def test_wide_grid_speed_matches_sized_grid(self, params, dx):
        k = GaussianKernel(1.0)
        sized = find_bistable_wave(params, k, k, wave_grid(params, k, k, dx))
        wide = find_bistable_wave(params, k, k, Grid(half_length=200.0, dx=dx))
        assert wide.steps == sized.steps
        assert abs(wide.speed - sized.speed) <= 1e-12
