"""One-step evolution operator on a uniform 1-D grid.

Each step evaluates the pointwise Ricker growth (``model.growth``) first
and then disperses the result by discrete convolution with the species' kernel
weights (react at y, then disperse; the reverse order is a different
operator and is not offered).  Fields are extended by constant
continuation beyond the grid edges before convolving, so front states
that connect two different constants are not corrupted by wraparound.

A step computes only the active window: the span where U or V differs
from its edge value, widened by the larger kernel half width plus one.
Beyond it the stepped fields equal the window's end outputs, because
constant continuation at the grid edge sees a constant there too; the
corner equilibria are exact fixed points, so a front on a wide grid leaves
most of it exactly constant.  A window that would keep more than
``ACTIVE_MAX_SHARE`` of the grid is not taken, and an O(1) probe of two
cells rules that out before any scan.

The dispersal convolution is plain O(N*J) summation on small problems and
a real FFT (``numpy.fft.rfft``/``irfft``) on large ones, chosen once per
kernel and field length by the count N*(2J+1) of multiply-adds.  The FFT
runs at a 5-smooth transform length of at least N + 4J, so the linear
convolution never wraps.  Each ``DiscreteKernel`` keeps the chosen method
and the transform length for every field length it has met, and the
spectrum of its weights for every transform length, so a convolution costs
two transforms of the field and none of the kernel, and windows of many
lengths share a few spectra.  Summation is also the reference path for
cross-checks.
"""

from __future__ import annotations

import logging
import math
from dataclasses import dataclass, replace
from functools import cached_property

import numpy as np

from .errors import ConfigError, DomainError, RangeError
from .kernels import DiscreteKernel
from .model import ORIGINAL_FRAME, TRANSFORMED_FRAME, ModelParams, growth

log = logging.getLogger(__name__)

# rounding exceedances beyond this are logged before clamping
CLAMP_TOL = 1e-14

DEFAULT_HALF_LENGTH = 200.0
DEFAULT_DX = 0.1

# each field on a grid this size is 80 MB; the default grid has 4001 points
# and dx=0.01 gives 40001, so a larger grid points to a typo in dx or L
MAX_GRID_POINTS = 10**7


@dataclass(frozen=True)
class Grid:
    """Uniform symmetric grid x_i = i*dx, i = -m..m.

    The half length is snapped down to a whole number of cells, so the
    grid always contains x = 0 and is symmetric.
    """

    half_length: float
    dx: float

    def __post_init__(self):
        if not (self.dx > 0 and math.isfinite(self.dx)):
            raise ConfigError(f"grid dx must be positive, got {self.dx}")
        if self.half_length < self.dx:
            raise ConfigError(
                f"grid half_length {self.half_length} must be at least dx={self.dx}"
            )
        # the ratio test comes first: it rejects inf and nan before floor() sees them
        if not (self.half_length / self.dx <= MAX_GRID_POINTS
                and self.n_points <= MAX_GRID_POINTS):
            raise ConfigError(
                f"grid L={self.half_length} at dx={self.dx} needs "
                f"{2 * self.half_length / self.dx + 1:.4g} points; at most "
                f"{MAX_GRID_POINTS} are allowed (raise dx or lower L)"
            )

    @cached_property
    def half_cells(self) -> int:
        return int(math.floor(self.half_length / self.dx + 1e-9))

    @cached_property
    def n_points(self) -> int:
        return 2 * self.half_cells + 1

    @cached_property
    def x(self) -> np.ndarray:
        return np.arange(-self.half_cells, self.half_cells + 1) * self.dx


@dataclass(frozen=True)
class SpatialState:
    """Paired fields (U, V) sampled on a grid, tagged with their frame."""

    grid: Grid
    frame: str
    U: np.ndarray
    V: np.ndarray
    step: int = 0

    def __post_init__(self):
        if self.frame not in (ORIGINAL_FRAME, TRANSFORMED_FRAME):
            raise DomainError(f"unknown frame {self.frame!r}")
        U = np.asarray(self.U, dtype=float)
        V = np.asarray(self.V, dtype=float)
        n = self.grid.n_points
        if U.shape != (n,) or V.shape != (n,):
            raise ConfigError(
                f"field shapes {U.shape}, {V.shape} do not match grid size {n}"
            )
        object.__setattr__(self, "U", U)
        object.__setattr__(self, "V", V)
        # numpy reductions propagate nan, so each field's extremes are checked
        u_lo, u_hi, v_lo, v_hi = float(U.min()), float(U.max()), float(V.min()), float(V.max())
        if not all(math.isfinite(b) for b in (u_lo, u_hi, v_lo, v_hi)):
            raise DomainError("fields contain non-finite samples")
        lo, hi = min(u_lo, v_lo), max(u_hi, v_hi)
        if self.frame == TRANSFORMED_FRAME and (lo < 0.0 or hi > 1.0):
            raise DomainError(
                f"transformed-frame samples must lie in [0,1]; range [{lo}, {hi}]"
            )
        if self.frame == ORIGINAL_FRAME and lo < 0.0:
            raise DomainError(f"original-frame samples must be nonnegative; min {lo}")


def constant_state(grid: Grid, frame: str, point, step: int = 0) -> SpatialState:
    """Spatially homogeneous state at the given point."""
    u, v = point
    n = grid.n_points
    return SpatialState(
        grid=grid, frame=frame, U=np.full(n, float(u)), V=np.full(n, float(v)), step=step
    )


# transform roundoff seeds the far field at ~1e-15; values below this
# relative floor are flushed to zero so exact zeros propagate as they do
# under direct summation (the zero state is unstable, so leftover noise
# would otherwise grow exponentially and fake an invasion)
_FFT_NOISE_FLOOR = 64.0 * np.finfo(float).eps

# direct summation costs N*(2J+1) multiply-adds, the FFT path a fixed cost
# of two transforms plus a few ns per point.  Timed with numpy 2.4 on a
# 2-core Xeon over J = 36..714 and N = 101..8001, this threshold on N*(2J+1)
# gave the least summed excess over the faster method; above it the FFT
# wins except for narrow kernels (J <= 72), where summation stays up to ~20%
# ahead.  The default grid (N = 4001, J = 72) stays on the FFT.
DIRECT_MAX_TERMS = 3e5


def _fft_length(n: int) -> int:
    """Smallest 2**a * 3**b * 5**c that is at least n (fast for pocketfft)."""
    best = 1 << (n - 1).bit_length()
    p5 = 1
    while p5 < best:
        p35 = p5
        while p35 < best:
            p = p35
            while p < n:
                p *= 2
            best = min(best, p)
            p35 *= 3
        p5 *= 5
    return best


def _choose_method(n: int, half_width: int) -> str:
    """The faster convolution for a field of n points and 2J+1 weights."""
    return "direct" if n * (2 * half_width + 1) < DIRECT_MAX_TERMS else "fft"


def convolve_extended(field_values: np.ndarray, dk: DiscreteKernel,
                      method: str | None = None) -> np.ndarray:
    """Convolve with the kernel weights under constant edge continuation.

    "fft" multiplies real-FFT spectra at a 5-smooth length of at least
    N + 4J, using the length cached on ``dk`` for the field length N and
    the kernel spectrum cached for that length, and flushes values under a
    roundoff floor to zero;
    "direct" is plain O(N*J) summation, also the reference path for
    cross-checks.  Without a method, the one ``_choose_method`` picks for N
    is used; the choice is cached on ``dk`` next to the spectra.
    """
    J = dk.half_width
    n_field = len(field_values)
    if method is None:
        method = dk.methods.get(n_field)
        if method is None:
            method = dk.methods[n_field] = _choose_method(n_field, J)
    padded = np.empty(n_field + 2 * J)
    padded[:J] = field_values[0]
    padded[J : J + n_field] = field_values
    padded[J + n_field :] = field_values[-1]
    if method == "fft":
        n = dk.lengths.get(n_field)
        if n is None:
            n = dk.lengths[n_field] = _fft_length(n_field + 4 * J)
        spectrum = dk.spectra.get(n)
        if spectrum is None:
            spectrum = dk.spectra[n] = np.fft.rfft(dk.weights, n)
        out = np.fft.irfft(np.fft.rfft(padded, n) * spectrum, n)[2 * J : len(padded)]
        # the padding repeats edge values, so the field holds the largest one
        floor = _FFT_NOISE_FLOOR * float(np.abs(field_values).max())
        if floor > 0.0:
            out[np.abs(out) < floor] = 0.0
        return out
    if method == "direct":
        return np.convolve(padded, dk.weights, mode="valid")
    raise ConfigError(f"unknown convolution method {method!r}")


def _clamp(values: np.ndarray, what: str, frame: str) -> np.ndarray:
    """Pin a stepped field to its frame's range and snap corner residue.

    Both frames clip below 0, and the cooperative frame also clips above 1
    and snaps values under the noise floor to 0.  Both frames snap values
    within the floor of 1 to 1.  The snaps are monotone, so order is
    preserved, and they make E1, E2 (original) and F0, F3 (cooperative)
    exact fixed points.
    """
    upper = 1.0 if frame == TRANSFORMED_FRAME else np.inf
    exceed = max(-values.min(), values.max() - upper, 0.0)
    if exceed > CLAMP_TOL:
        log.warning("%s left [0, %g] by %.3e; clamping", what, upper, exceed)
    if exceed > 0.0:
        values = np.clip(values, 0.0, upper)
    if frame == TRANSFORMED_FRAME:
        # values are at most 1 here, so the band around 1 is one comparison
        values[values < _FFT_NOISE_FLOOR] = 0.0
        values[values > 1.0 - _FFT_NOISE_FLOOR] = 1.0
    else:
        values[(values > 1.0 - _FFT_NOISE_FLOOR) & (values < 1.0 + _FFT_NOISE_FLOOR)] = 1.0
    return values


# a step computes a window only if it keeps at most this share of the grid.
# Timed on a 2-core Xeon (numpy 2.4) for J = 36..714 and N = 633..40001, a
# window keeping half the grid cost 0.49-0.96 of the full step.  Keeping
# 0.6-0.9 of it, grids of N <= 4001 broke even or lost up to 16%: the scan
# and the copy-out cost more than the trimmed cells save.  Sized wave grids
# keep most of their cells, so they never scan past the probe.
ACTIVE_MAX_SHARE = 0.5


def _active_window(U: np.ndarray, V: np.ndarray, reach: int) -> tuple:
    """Cells a..b-1 a step has to compute; it copies the rest from the ends.

    Beyond the span where U or V differs from its edge value the fields are
    constant, so the stepped fields are constant farther than ``reach``
    (the kernel half width plus one) cells from that span, and equal to the
    output at the window's end.  Returns (0, n) unless the window keeps at
    most ``ACTIVE_MAX_SHARE`` of the grid.
    """
    n = len(U)
    # a window keeping at most ACTIVE_MAX_SHARE of the grid trims at least
    # `probe` cells at one end, so the cell `probe` from that end still
    # holds the edge value there
    probe = int((1.0 - ACTIVE_MAX_SHARE) * n / 2)
    u0, v0, u1, v1 = U.item(0), V.item(0), U.item(-1), V.item(-1)
    if not ((U.item(probe) == u0 and V.item(probe) == v0)
            or (U.item(-1 - probe) == u1 and V.item(-1 - probe) == v1)):
        return 0, n
    moved = (U != u0) | (V != v0)
    lo = int(moved.argmax())
    if not moved[lo]:
        return 0, 1  # a constant state: one cell stands for all
    hi = n - int(((U != u1) | (V != v1))[::-1].argmax())
    a, b = max(lo - reach, 0), min(hi + reach, n)
    if b - a > ACTIVE_MAX_SHARE * n:
        return 0, n
    return a, b


def _extend(values: np.ndarray, a: int, n: int) -> np.ndarray:
    """A window's outputs from cell a on n cells, its end values repeated outward."""
    if len(values) == n:
        return values
    out = np.empty(n)
    out[:a] = values[0]
    out[a : a + len(values)] = values
    out[a + len(values) :] = values[-1]
    return out


def apply_Q(
    state: SpatialState,
    p: ModelParams,
    k1: DiscreteKernel,
    k2: DiscreteKernel,
) -> SpatialState:
    """One recursion step: pointwise growth, then dispersal per species.

    Growth, dispersal and the clamp run on ``_active_window`` only; cells
    outside it take the window's end outputs, which is what constant
    continuation at the grid edge gives there as well.
    """
    for name, dk in (("k1", k1), ("k2", k2)):
        if dk.dx != state.grid.dx:
            raise ConfigError(
                f"{name} was discretized at dx={dk.dx}, state grid has dx={state.grid.dx}"
            )
    U, V = state.U, state.V
    n = len(U)
    a, b = _active_window(U, V, max(k1.half_width, k2.half_width) + 1)
    if b - a < n:
        U, V = U[a:b], V[a:b]
    gu, gv = growth(p, U, V, state.frame)
    Un = convolve_extended(gu, k1)
    if state.frame == TRANSFORMED_FRAME:
        Un = 1.0 - Un
    Un = _extend(_clamp(Un, "U after step", state.frame), a, n)
    Vn = _extend(_clamp(convolve_extended(gv, k2), "V after step", state.frame), a, n)
    return SpatialState(grid=state.grid, frame=state.frame, U=Un, V=Vn, step=state.step + 1)


def iterate(
    state: SpatialState,
    p: ModelParams,
    k1: DiscreteKernel,
    k2: DiscreteKernel,
    n_steps: int,
    keep_every: int = 1,
) -> list:
    """Apply the step operator n_steps times; returns the saved trajectory.

    The initial state is always first and the final state always last;
    intermediate states are kept every ``keep_every`` steps.
    """
    if n_steps < 0:
        raise DomainError(f"n_steps must be nonnegative, got {n_steps}")
    if keep_every < 1:
        raise DomainError(f"keep_every must be at least 1, got {keep_every}")
    trajectory = [state]
    current = state
    for n in range(1, n_steps + 1):
        current = apply_Q(current, p, k1, k2)
        if n % keep_every == 0 or n == n_steps:
            trajectory.append(current)
    return trajectory


def _shift_cells(values: np.ndarray, j: int) -> np.ndarray:
    n = len(values)
    out = np.empty_like(values)
    if j >= 0:
        out[:j] = values[0]
        out[j:] = values[: n - j]
    else:
        out[: n + j] = values[-j:]
        out[n + j :] = values[-1]
    return out


def translate(state: SpatialState, j: int) -> SpatialState:
    """Shift the fields by j cells; vacated cells take the edge value."""
    j = int(j)
    if abs(j) >= state.grid.n_points:
        raise RangeError(
            f"|shift| {abs(j)} must be below the grid size {state.grid.n_points}"
        )
    return replace(state, U=_shift_cells(state.U, j), V=_shift_cells(state.V, j))


def compare(s1: SpatialState, s2: SpatialState) -> str:
    """Componentwise-pointwise order: 'equal', 'le', 'ge' or 'unordered'."""
    if s1.grid != s2.grid or s1.frame != s2.frame:
        raise ConfigError("states live on different grids or frames")
    le = bool(np.all(s1.U <= s2.U) and np.all(s1.V <= s2.V))
    ge = bool(np.all(s1.U >= s2.U) and np.all(s1.V >= s2.V))
    if le and ge:
        return "equal"
    if le:
        return "le"
    if ge:
        return "ge"
    return "unordered"


def interior_slice(grid: Grid, margin_cells: int) -> slice:
    """Indices at least margin_cells away from either grid edge."""
    if margin_cells < 0:
        raise DomainError(f"margin_cells must be nonnegative, got {margin_cells}")
    if 2 * margin_cells >= grid.n_points:
        raise RangeError(
            f"margin of {margin_cells} cells leaves no interior on {grid.n_points} points"
        )
    return slice(margin_cells, grid.n_points - margin_cells)


def _random_state(grid: Grid, rng) -> SpatialState:
    return SpatialState(
        grid=grid,
        frame=TRANSFORMED_FRAME,
        U=rng.uniform(0.0, 1.0, grid.n_points),
        V=rng.uniform(0.0, 1.0, grid.n_points),
    )


def axiom_errors(p: ModelParams, dk1: DiscreteKernel, dk2: DiscreteKernel, grid: Grid,
                 rng, shifts=(7,), pairs: int = 200) -> tuple:
    """Randomized checks of (A1) translation commutation and (A3) order preservation.

    Returns (a1_err, a3_worst): the worst interior sup error of translate(Q(s), j)
    against Q(translate(s, j)) over the shifts, and the largest entry of
    Q(lo) - Q(hi) over random ordered pairs lo <= hi (positive only when order
    is violated).  ``rng`` draws one state per shift, then two per pair.
    """
    margin = max(dk1.half_width, dk2.half_width)
    a1_err = 0.0
    for j in shifts:
        state = _random_state(grid, rng)
        path_a = translate(apply_Q(state, p, dk1, dk2), j)
        path_b = apply_Q(translate(state, j), p, dk1, dk2)
        win = interior_slice(grid, margin + abs(j))
        a1_err = max(a1_err, float(np.max(np.abs(path_a.U[win] - path_b.U[win]))),
                     float(np.max(np.abs(path_a.V[win] - path_b.V[win]))))

    a3_worst = 0.0
    for _ in range(pairs):
        s1 = _random_state(grid, rng)
        s2 = _random_state(grid, rng)
        lo = replace(s1, U=np.minimum(s1.U, s2.U), V=np.minimum(s1.V, s2.V))
        hi = replace(s1, U=np.maximum(s1.U, s2.U), V=np.maximum(s1.V, s2.V))
        q_lo = apply_Q(lo, p, dk1, dk2)
        q_hi = apply_Q(hi, p, dk1, dk2)
        a3_worst = max(a3_worst, float(np.max(q_lo.U - q_hi.U)),
                       float(np.max(q_lo.V - q_hi.V)))
    return a1_err, a3_worst
