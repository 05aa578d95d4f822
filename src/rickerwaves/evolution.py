"""One-step evolution operator on a uniform 1-D grid.

Each step evaluates the pointwise Ricker growth (``model.growth``) first
and then disperses the result by discrete convolution with the species' kernel
weights (react at y, then disperse; the reverse order is a different
operator and is not offered).  Fields are extended by constant
continuation beyond the grid edges before convolving, so front states
that connect two different constants are not corrupted by wraparound.

The dispersal convolution is a real FFT (``numpy.fft.rfft``/``irfft``) at a
5-smooth transform length of at least N + 4J, so the linear convolution
never wraps.  Each ``DiscreteKernel`` keeps the transform length and the
spectrum of its weights for every field length it has met, so a
convolution costs two transforms of the field and none of the kernel.
Plain O(N*J) summation is kept as the reference path.
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
        lo = min(U.min(), V.min())
        hi = max(U.max(), V.max())
        if not (np.isfinite(lo) and np.isfinite(hi)):
            raise DomainError("fields contain non-finite samples")
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


def convolve_extended(field_values: np.ndarray, dk: DiscreteKernel, method: str = "fft") -> np.ndarray:
    """Convolve with the kernel weights under constant edge continuation.

    "fft" multiplies real-FFT spectra at a 5-smooth length of at least
    N + 4J, using the length and kernel spectrum cached on ``dk`` for the
    field length N, and flushes values under a roundoff floor to zero;
    "direct" is plain O(N*J) summation, kept as the reference path for
    cross-checks.
    """
    J = dk.half_width
    padded = np.concatenate(
        [
            np.full(J, field_values[0]),
            field_values,
            np.full(J, field_values[-1]),
        ]
    )
    if method == "fft":
        cached = dk.spectra.get(len(field_values))
        if cached is None:
            n = _fft_length(len(padded) + 2 * J)
            cached = dk.spectra[len(field_values)] = (n, np.fft.rfft(dk.weights, n))
        n, spectrum = cached
        out = np.fft.irfft(np.fft.rfft(padded, n) * spectrum, n)[2 * J : len(padded)]
        floor = _FFT_NOISE_FLOOR * float(np.max(np.abs(padded)))
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
        values[values < _FFT_NOISE_FLOOR] = 0.0
    values[(values > 1.0 - _FFT_NOISE_FLOOR) & (values < 1.0 + _FFT_NOISE_FLOOR)] = 1.0
    return values


def apply_Q(
    state: SpatialState,
    p: ModelParams,
    k1: DiscreteKernel,
    k2: DiscreteKernel,
) -> SpatialState:
    """One recursion step: pointwise growth, then dispersal per species."""
    for name, dk in (("k1", k1), ("k2", k2)):
        if dk.dx != state.grid.dx:
            raise ConfigError(
                f"{name} was discretized at dx={dk.dx}, state grid has dx={state.grid.dx}"
            )
    gu, gv = growth(p, state.U, state.V, state.frame)
    Un = convolve_extended(gu, k1)
    if state.frame == TRANSFORMED_FRAME:
        Un = 1.0 - Un
    Un = _clamp(Un, "U after step", state.frame)
    Vn = _clamp(convolve_extended(gv, k2), "V after step", state.frame)
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
