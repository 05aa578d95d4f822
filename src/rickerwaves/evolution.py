"""One-step evolution operator on a uniform 1-D grid.

Each step evaluates the pointwise Ricker growth (``model.growth``) first
and then disperses the result by discrete convolution with the species' kernel
weights (react at y, then disperse; the reverse order is a different
operator and is not offered).  Fields are extended by constant
continuation beyond the grid edges before convolving, so front states
that connect two different constants are not corrupted by wraparound.

A state holds U and V as the rows of one (2, N) array.  A step writes
its outputs into a fresh stack through a view of the active window,
clamps that view once, and the clamp's min and max check its output.
A step computes only the active window: the span where U or V differs
from its edge value, widened by the larger kernel half width plus one.
Beyond it the stepped fields equal the window's end outputs, because
constant continuation at the grid edge sees a constant there too; the
corner equilibria are exact fixed points, so a front on a wide grid leaves
most of it exactly constant.  A window that would keep more than
``ACTIVE_MAX_SHARE`` of the grid is not taken, and an O(1) probe of two
cells rules that out before any scan.

The dispersal convolution is plain O(N*J) summation on small problems and
a real FFT (``numpy.fft.rfft``/``irfft``) on large ones, chosen per call
by the count N*(2J+1) of multiply-adds.  The FFT runs at a 5-smooth
transform length of at least N + 4J, so the linear convolution never
wraps.  Each ``DiscreteKernel`` keeps the spectrum of its weights for
every transform length it has met, so a convolution costs two transforms
of the field and none of the kernel, and windows of many lengths share a
few spectra.  Summation is also the reference path for
cross-checks.
"""

from __future__ import annotations

import math
from collections import namedtuple
from functools import cache, cached_property

import numpy as np

from .errors import ConfigError, DomainError, RangeError, _is_number
from .kernels import MAX_GRID_POINTS, DiscreteKernel
from .model import ORIGINAL_FRAME, TRANSFORMED_FRAME, ModelParams, growth

# rounding exceedances beyond this are logged before clamping
CLAMP_TOL = 1e-14

DEFAULT_HALF_LENGTH = 200.0
DEFAULT_DX = 0.1


class Grid(namedtuple("Grid", "half_length dx")):
    """Uniform symmetric grid x_i = i*dx, i = -m..m.

    The half length is snapped down to a whole number of cells, so the
    grid always contains x = 0 and is symmetric.  No ``__slots__``: the
    derived sizes and coordinates are cached in the instance dict.
    """

    def __new__(cls, half_length, dx):
        if not (_is_number(dx) and dx > 0 and math.isfinite(dx)):
            raise ConfigError(f"grid dx must be positive and finite, got {dx!r}")
        if not _is_number(half_length):
            raise ConfigError(f"grid half_length must be a real number in float range, "
                              f"got {half_length!r}")
        if half_length < dx:
            raise ConfigError(f"grid half_length {half_length!r} must be at least dx={dx}")
        # a Fraction or an int computes as the float it names
        self = super().__new__(cls, float(half_length), float(dx))
        # the ratio test comes first: it rejects inf and nan before floor() sees them
        if not (half_length / dx <= MAX_GRID_POINTS and self.n_points <= MAX_GRID_POINTS):
            raise ConfigError(
                f"grid L={half_length} at dx={dx} needs "
                f"{2 * half_length / dx + 1:.4g} points; at most "
                f"{MAX_GRID_POINTS} are allowed (raise dx or lower L)"
            )
        return self

    @cached_property
    def half_cells(self) -> int:
        return int(math.floor(self.half_length / self.dx + 1e-9))

    @cached_property
    def n_points(self) -> int:
        return 2 * self.half_cells + 1

    @cached_property
    def x(self) -> np.ndarray:
        return np.arange(-self.half_cells, self.half_cells + 1) * self.dx


class SpatialState:
    """Paired fields (U, V) sampled on a grid, tagged with their frame.

    U and V are the rows of one C-contiguous (2, N) array, ``fields``.  The
    constructor stacks the U and V it is given (a copy) and checks them with
    one min and one max; ``apply_Q``'s states are checked by its clamp.
    """

    def __init__(self, grid: Grid, frame: str, U: np.ndarray, V: np.ndarray, step: int = 0):
        if frame not in (ORIGINAL_FRAME, TRANSFORMED_FRAME):
            raise DomainError(f"unknown frame {frame!r}")
        U = np.asarray(U, dtype=float)
        V = np.asarray(V, dtype=float)
        n = grid.n_points
        if U.shape != (n,) or V.shape != (n,):
            raise ConfigError(
                f"field shapes {U.shape}, {V.shape} do not match grid size {n}"
            )
        fields = np.array((U, V))
        # numpy reductions propagate nan, so the extremes show any non-finite sample
        lo, hi = float(fields.min()), float(fields.max())
        if not (math.isfinite(lo) and math.isfinite(hi)):
            raise DomainError("fields contain non-finite samples")
        if frame == TRANSFORMED_FRAME and (lo < 0.0 or hi > 1.0):
            raise DomainError(
                f"transformed-frame samples must lie in [0,1]; range [{lo}, {hi}]"
            )
        if frame == ORIGINAL_FRAME and lo < 0.0:
            raise DomainError(f"original-frame samples must be nonnegative; min {lo}")
        self.grid, self.frame, self.step = grid, frame, step
        self.fields, self.U, self.V = fields, fields[0], fields[1]

    @classmethod
    def _unchecked(cls, grid: Grid, frame: str, fields: np.ndarray,
                   step: int) -> SpatialState:
        """A state on the (2, N) ``fields`` it keeps, known to pass the checks.

        Made from a checked state by operations that keep the fields finite
        and inside the frame's range, or checked by ``_clamp``.
        """
        state = object.__new__(cls)
        state.grid, state.frame, state.step = grid, frame, step
        state.fields, state.U, state.V = fields, fields[0], fields[1]
        return state


def step_initial_data(grid: Grid, width: float) -> SpatialState:
    """Monotone ramp data: both components follow a logistic sigmoid."""
    if not (_is_number(width) and 0 < width < math.inf):
        raise DomainError(f"ramp width must be positive and finite, got {width!r}")
    # exp overflows to inf far left, where the ramp is then exactly 0
    with np.errstate(over="ignore"):
        ramp = 1.0 / (1.0 + np.exp(-grid.x / float(width)))
    return SpatialState(grid=grid, frame=TRANSFORMED_FRAME, U=ramp, V=ramp)


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


@cache
def _fft_length(n: int) -> int:
    """Smallest 2**a * 3**b * 5**c that is at least n (fast for pocketfft).

    Each odd part 3**b * 5**c below the next power of two is doubled up to
    n, and the least result is kept; the power of two is the odd part 1.
    """
    bound = 1 << (n - 1).bit_length()
    best = bound
    p5 = 1
    while p5 < bound:
        p35 = p5
        while p35 < bound:
            best = min(best, p35 << ((n - 1) // p35).bit_length())
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
    N + 4J for the field length N, using the kernel spectrum cached on
    ``dk`` for that length, and flushes values under a roundoff floor to
    zero;
    "direct" is plain O(N*J) summation, also the reference path for
    cross-checks.  Without a method, the one ``_choose_method`` picks for N
    is used.
    """
    J = dk.half_width
    n_field = len(field_values)
    if not n_field or field_values.shape != (n_field,):
        raise DomainError(f"field must be a nonempty 1-d array, got shape {field_values.shape}")
    if method is None:
        method = _choose_method(n_field, J)
    padded = np.empty(n_field + 2 * J)
    padded[:J] = field_values[0]
    padded[J : J + n_field] = field_values
    padded[J + n_field :] = field_values[-1]
    if method == "fft":
        n = _fft_length(n_field + 4 * J)
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


def _snap_corners(values: np.ndarray) -> np.ndarray:
    """In place: values under the noise floor become 0, values within it of 1 become 1.

    Values below 0 and above 1 fall in these bands too, so the snaps also
    clip to [0, 1].
    """
    np.copyto(values, 0.0, where=values < _FFT_NOISE_FLOOR)
    np.copyto(values, 1.0, where=values > 1.0 - _FFT_NOISE_FLOOR)
    return values


def _clamp(values: np.ndarray, what: str, frame: str) -> np.ndarray:
    """Pin stepped fields to their frame's range and snap corner residue, in place.

    Both frames clip below 0, and the cooperative frame also clips above 1
    and snaps values under the noise floor to 0.  Both frames snap values
    within the floor of 1 to 1.  The snaps are monotone, so order is
    preserved, and they make E1, E2 (original) and F0, F3 (cooperative)
    exact fixed points.  The clamp is also the check of a step's output:
    a non-finite sample raises DomainError, and one outside the range by
    more than ``CLAMP_TOL`` is logged before it is clipped.
    """
    lo, hi = float(values.min()), float(values.max())
    if not (math.isfinite(lo) and math.isfinite(hi)):
        raise DomainError(f"{what} contain non-finite samples")
    upper = 1.0 if frame == TRANSFORMED_FRAME else math.inf
    exceed = max(-lo, hi - upper, 0.0)
    if exceed > CLAMP_TOL:
        # imported here, its one use: a solve that never leaves the range loads no logging
        import logging
        logging.getLogger(__name__).warning("%s left [0, %g] by %.3e; clamping",
                                            what, upper, exceed)
    if frame == TRANSFORMED_FRAME:
        # the snaps clip to [0, 1] as well
        return _snap_corners(values)
    if lo < 0.0:
        np.clip(values, 0.0, upper, out=values)
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


def apply_Q(
    state: SpatialState,
    p: ModelParams,
    k1: DiscreteKernel,
    k2: DiscreteKernel,
) -> SpatialState:
    """One recursion step: pointwise growth, then dispersal per species.

    Growth, dispersal and the clamp run on ``_active_window`` only (the
    whole grid when no window is taken), through a view of it into a fresh
    (2, N) array; cells outside it take the window's end outputs, which is
    what constant continuation at the grid edge gives there as well.  The
    clamp of the window checks the output; it is not scanned again.
    """
    for name, dk in (("k1", k1), ("k2", k2)):
        if dk.dx != state.grid.dx:
            raise ConfigError(
                f"{name} was discretized at dx={dk.dx}, state grid has dx={state.grid.dx}"
            )
    fields = state.fields
    a, b = _active_window(state.U, state.V, max(k1.half_width, k2.half_width) + 1)
    gu, gv = growth(p, fields[0, a:b], fields[1, a:b], state.frame)
    out = np.empty(fields.shape)
    window = out[:, a:b]
    if state.frame == TRANSFORMED_FRAME:
        np.subtract(1.0, convolve_extended(gu, k1), out=window[0])
    else:
        window[0] = convolve_extended(gu, k1)
    window[1] = convolve_extended(gv, k2)
    _clamp(window, "fields after step", state.frame)
    if a:
        out[:, :a] = window[:, :1]
    if b < out.shape[1]:
        out[:, b:] = window[:, -1:]
    return SpatialState._unchecked(state.grid, state.frame, out, state.step + 1)


def _shift_cells(values: np.ndarray, j: int) -> np.ndarray:
    """Shift along the last axis by j cells; vacated cells take the edge value."""
    n = values.shape[-1]
    out = np.empty_like(values)
    if j >= 0:
        out[..., :j] = values[..., :1]
        out[..., j:] = values[..., : n - j]
    else:
        out[..., : n + j] = values[..., -j:]
        out[..., n + j :] = values[..., -1:]
    return out


def translate(state: SpatialState, j: int) -> SpatialState:
    """Shift the fields by j cells; vacated cells take the edge value."""
    if not _is_number(j, integral=True):
        raise DomainError(f"shift must be an integer number of cells, got {j!r}")
    if abs(j) >= state.grid.n_points:
        raise RangeError(
            f"|shift| {abs(j)} must be below the grid size {state.grid.n_points}"
        )
    return SpatialState._unchecked(state.grid, state.frame, _shift_cells(state.fields, j),
                                   state.step)


def compare(s1: SpatialState, s2: SpatialState) -> str:
    """Componentwise-pointwise order: 'equal', 'le', 'ge' or 'unordered'."""
    if s1.grid != s2.grid or s1.frame != s2.frame:
        raise ConfigError("states live on different grids or frames")
    le = bool(np.all(s1.fields <= s2.fields))
    ge = bool(np.all(s1.fields >= s2.fields))
    if le and ge:
        return "equal"
    if le:
        return "le"
    if ge:
        return "ge"
    return "unordered"


def interior_slice(grid: Grid, margin_cells: int) -> slice:
    """Indices at least margin_cells away from either grid edge."""
    if not _is_number(margin_cells, integral=True) or margin_cells < 0:
        raise DomainError(f"margin_cells must be a nonnegative integer, got {margin_cells!r}")
    if 2 * margin_cells >= grid.n_points:
        raise RangeError(
            f"margin of {margin_cells} cells leaves no interior on {grid.n_points} points"
        )
    return slice(margin_cells, grid.n_points - margin_cells)

