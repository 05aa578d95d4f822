"""Locating the monotone bistable front by iterate-and-recenter.

The step operator is monotone and the cooperative-frame corners (0,0) and
(1,1) are strongly stable, so iterating from monotone ramp data and
re-centering the half-level crossing of the first component after every
step converges to a translating profile.  The re-centering shifts give the
front speed; no formula for it is available, so the speed is purely an
output of the construction (zero in the exchange-symmetric case).
Anderson mixing of the recentered steps, projected back onto monotone
states in [0, 1], reaches the profile in fewer steps; the last of the
plain steps at the end gives the speed.  Newton-type profile solving is
deliberately avoided: the operator is cheap and globally monotone, while
its derivative is not something we ever need to build, and the mixing
only evaluates it.
"""

from __future__ import annotations

import math
from collections import namedtuple

import numpy as np
from numpy.linalg import _umath_linalg

from .errors import (
    ConvergenceError,
    DegenerateDataError,
    MeasurementError,
    ParameterError,
    RangeError,
    _is_number,
)
from .evolution import (
    _FFT_NOISE_FLOOR,
    DEFAULT_DX,
    DEFAULT_HALF_LENGTH,
    Grid,
    SpatialState,
    _clamp,
    _shift_cells,
    _snap_corners,
    apply_Q,
    interior_slice,
    step_initial_data,
)
from .kernels import (
    _EXP_ARG_MAX, DiscreteKernel, Kernel, discretize, validate_hypotheses,
)
from .model import TRANSFORMED_FRAME, ModelParams, validate_params
from .speeds import FRONT_LEVEL, counter_propagation, front_position


# number of past steps the Anderson mixing combines; 0 is plain iteration
ANDERSON_DEPTH = 5

# width of the solver's logistic start ramp; the fixed point does not depend on it
RAMP_WIDTH = 1.0

# ``validate_profile`` bounds: the most a profile may fall between cells, the
# tail deviation from the corners over the outer ``TAIL_FRACTION`` of the
# interior window, and the translation defect
MONOTONE_SLACK = 1e-10
TAIL_TOL = 1e-3
TAIL_FRACTION = 0.1
RESIDUAL_TOL = 1e-4

# the tail level of a solve's own sized grid, at most: validation's outer
# bands begin 1 - 2 TAIL_FRACTION of the way out, where a tail that falls to
# eps at the grid's end is about eps ** (1 - 2 TAIL_FRACTION), held here to
# TAIL_TOL / 3 (eps 4.5e-5)
BAND_EPS = (TAIL_TOL / 3.0) ** (1.0 / (1.0 - 2.0 * TAIL_FRACTION))


class WaveOptions(namedtuple("WaveOptions", "profile_tol speed_tol max_steps",
                             defaults=(1e-6, 1e-4, 2000))):
    """Tolerances and budgets for the front solver.

    ``profile_tol`` bounds the profile's change over the last step, and
    ``speed_tol`` the speed's iteration error (``speed_error``).  They also
    size grids: a solve's own grid runs its tails down to
    min(``BAND_EPS``, sqrt(speed_tol)), and the sized grid that stands in
    for a longer given one down to ``profile_tol``.
    """

    __slots__ = ()


class WaveHistory:
    """Per-step convergence diagnostics of the front solver."""

    def __init__(self):
        self.sup_diffs = []
        self.displacements = []
        # the speed error bound after each step; nan until it is defined
        self.speed_errors = []


class WaveProfile(namedtuple(
        "WaveProfile", "grid phi psi speed residual steps history discrete_kernels "
        "decay_rate speed_error contraction_rate", defaults=(math.nan,) * 3)):
    """A translating profile pair with its speed and defect diagnostics.

    ``discrete_kernels`` are the two discretized kernels the solve stepped
    with.  ``decay_rate`` is the slowest tail decay rate at the corners for
    speeds |c| up to the sizing speed, the interior monostable speed; the
    sized grid is built from it.  A front may be faster (near a = 1 it
    nears the edge speed).  ``speed_error`` bounds the iteration error left
    in ``speed`` (see ``find_bistable_wave``); the grid's error is not in it.
    ``contraction_rate`` is the ratio of the last two sup-norm changes of
    the profile.
    """

    __slots__ = ()

    @property
    def kernel_half_width(self) -> int:
        """The larger half width J of the two discretized kernels."""
        return max(dk.half_width for dk in self.discrete_kernels)


def _resample_shifted(fields: np.ndarray, offset: float, dx: float) -> tuple:
    """(2, N) fields sampled at x + offset: whole cells, then a linear remainder.

    Linear interpolation keeps monotone data monotone and stays inside the
    sample range, which higher-order schemes would not.  May overwrite
    ``fields``.  Vacated cells take the edge value.  Returns
    (fields, whole_cells).
    """
    n = fields.shape[1]
    m = int(round(offset / dx))
    if abs(m) >= n:
        raise RangeError(f"shift {offset} exceeds the grid")
    if m != 0:
        fields = _shift_cells(fields, -m)
    r = offset - m * dx
    if r:
        # (1 - t)*v[i] + t*v[i +- 1] on r's side, the neighbour products
        # taken before the cells they come from are overwritten
        t = abs(r / dx)
        lower, upper = np.s_[:, :-1], np.s_[:, 1:]
        cells, neighbours = (lower, upper) if r > 0.0 else (upper, lower)
        mixed = t * fields[neighbours]
        fields[cells] *= 1.0 - t
        fields[cells] += mixed
    return fields, m


# the LAPACK solve under np.linalg.solve, without its argument checks.  Both
# return the same bits, but the checks cost: timing 48 seeded Gaussian wave
# solves with each, in 12 alternating pairs in one process on a 2-vCPU Intel
# Xeon, np.linalg.solve took 4-5% longer in total and won at most 1 pair
_solve = _umath_linalg.solve1


class _Anderson:
    """Anderson type II mixing of the recentered step G (Walker & Ni, 2011).

    On z = [U; V] with residual f = G(z) - z, the next iterate is
    G(z) - dG @ gamma, where gamma minimizes |f - dF @ gamma| over the last
    ``depth`` differences dF of residuals and dG of G values.  It is then
    projected back onto the monotone states in [0, 1]: the two snaps of
    ``evolution._clamp``, which also clip, and a running maximum per field.
    Each step hands over G and f; the mixer keeps a copy of both as
    [G; f] and stores the differences from the previous pair in a ring
    buffer of whole (2, N) rows with their Gram matrix, which each new
    difference updates by one row and column.  A singular Gram matrix (a
    zero difference, say) starts the history again.
    """

    def __init__(self, depth: int, n: int):
        self.depth = depth
        self.count = 0
        self.gram = np.zeros((depth, depth))
        # per slot the differences of G and of f, (depth, 2, 2, N)
        self.rows = np.zeros((depth, 2, 2, n))
        # [G; f] of the last step
        self.last = None

    def step(self, G: np.ndarray, f: np.ndarray) -> None:
        """Turn the (2, N) fields G = G(z) into the next iterate, in place.

        ``f`` is the (2, N) residual G - z, which is only read.  G is left
        as it is on the first step and when the history starts again.
        """
        # a copy of G, which the update overwrites
        Gf = np.array((G, f))
        last, self.last = self.last, Gf
        if last is None:
            return
        slot = self.count % self.depth
        np.subtract(Gf, last, out=self.rows[slot])
        self.count += 1
        k = min(self.count, self.depth)
        dF = self.rows[:k, 1].reshape(k, -1)
        column, rhs = (dF @ np.array((dF[slot], f.reshape(-1))).T).T
        self.gram[slot, :k] = column
        self.gram[:k, slot] = column
        # a singular matrix fills gamma with nan, quietly as np.linalg.solve's checks do
        with np.errstate(all="ignore"):
            gamma = _solve(self.gram[:k, :k], rhs)
        if math.isnan(gamma[0]):
            self.count = 0
            return
        G -= (gamma @ self.rows[:k, 0].reshape(k, -1)).reshape(2, -1)
        _snap_corners(G)
        # the running maximum; fmax is the faster of the two on values without nan
        np.fmax.accumulate(G, axis=1, out=G)


def _decay_rate(log_alpha: float, dk: DiscreteKernel, speed: float) -> float:
    """Positive root of log_alpha + ln M(lam) + lam*speed, M the discrete MGF.

    At a stable corner log_alpha < 0, and speed > 0, so the function is
    negative at 0, increasing and convex, and nonnegative at
    -log_alpha/speed; Newton's method from there decreases monotonically
    onto the root.  Where that start would overflow the MGF, the largest
    safe exponent is returned if the root lies beyond it (a slower rate,
    so a longer grid).
    """
    def value_and_slope(lam):
        m, mean, _ = dk.moments(lam)
        return log_alpha + math.log(m) + lam * speed, mean + speed

    lam = min(-log_alpha / speed, _EXP_ARG_MAX / float(dk.offsets[-1]))
    g, slope = value_and_slope(lam)
    if g <= 0.0:
        return lam
    for _ in range(100):
        step = g / slope
        lam -= step
        if step <= 1e-12 * lam:
            break
        g, slope = value_and_slope(lam)
    return lam


def _tail_decay_rate(p: ModelParams, dk1: DiscreteKernel, dk2: DiscreteKernel,
                     speed: float) -> float:
    """Slowest decay rate of the profile tails for front speeds in [-speed, speed].

    Linearized at F0 (left tail) the cooperative-frame step multiplies U by
    1 - r1 and V by exp(r2 (1 - a2)) before dispersal; at F3 (right tail) it
    multiplies 1 - U by exp(r1 (1 - a1)) and 1 - V by 1 - r2.  A tail
    exp(-lam |x|) of a front moving at c solves ln(alpha) + ln M(lam) +- lam c
    = 0 (+ on the left, - on the right); c = +speed on the left and
    c = -speed on the right give the slowest rates.  A front faster than
    ``speed`` has one tail that decays more slowly than this rate.
    """
    # the root falls as log(alpha) rises, so per kernel the corner with the
    # larger log(alpha) is the slower one
    log_alpha1 = max(math.log1p(-p.r1), p.r1 * (1.0 - p.a1))
    log_alpha2 = max(p.r2 * (1.0 - p.a2), math.log1p(-p.r2))
    return min(_decay_rate(log_alpha1, dk1, speed), _decay_rate(log_alpha2, dk2, speed))


def _sized_grid(dk1: DiscreteKernel, dk2: DiscreteKernel, speed: float,
                decay_rate: float, opts: WaveOptions, given: Grid | None = None) -> Grid:
    """The grid a solve runs on, sized as J*dx plus the slowest tail's fall to eps.

    The front is recentered to x = 0, so only the tails need room.  At
    least speed + 3 cells beyond J*dx, so ``wave_residual`` and
    ``validate_profile`` keep an interior window.  With no ``given`` grid,
    eps = min(``BAND_EPS``, sqrt(speed_tol)): the mass identity's speed
    deviation falls about as eps**2, so a tight speed_tol keeps a longer
    grid.  Beyond ``DEFAULT_HALF_LENGTH`` it raises RangeError: a shorter
    grid cuts the tails off above eps, and the solve converges to a profile
    whose tails miss the corners.  A given grid bounds the solve instead,
    with no cap: the sized grid stands in for it when that has fewer
    cells, with eps = ``profile_tol`` since the profile is embedded by
    repeating its end values; otherwise (a zero decay rate too) the given
    grid is returned.  A given grid with fewer than J + round(speed/dx) + 2
    cells each side raises RangeError: a front moving at ``speed`` leaves
    ``wave_residual`` no interior window.
    """
    dx = dk1.dx
    reach, lead = max(dk1.half_width, dk2.half_width), round(speed / dx)
    if given is not None and given.half_cells < reach + lead + 2:
        raise RangeError(
            f"grid half length {given.half_length:g} is too short for the kernels and "
            f"the sizing speed {speed:.4g}: a wave needs at least "
            f"{(reach + lead + 2) * dx:.4g} ({reach} + {lead} + 2 cells of {dx:g})")
    eps = opts.profile_tol if given is not None else min(BAND_EPS, math.sqrt(opts.speed_tol))
    tail = math.log(1.0 / eps) / decay_rate if decay_rate > 0.0 else math.inf
    half_length = reach * dx + max(tail, speed + 3 * dx)
    if given is not None:
        # Grid's own cell count, compared before a Grid is built: an infinite
        # length builds none
        return Grid(half_length, dx) if half_length / dx + 1e-9 < given.half_cells else given
    if half_length > DEFAULT_HALF_LENGTH:
        raise RangeError(
            f"the profile tails need a half length of about {half_length:.4g} "
            f"(slowest tail decay rate {decay_rate:.4g}), more than the "
            f"{DEFAULT_HALF_LENGTH:g} a sized grid may take; give the grid "
            "(grid.L, or --set grid.L=... on the command line) to solve on it"
        )
    return Grid(half_length=half_length, dx=dx)


def find_bistable_wave(
    p: ModelParams,
    kernel1: Kernel,
    kernel2: Kernel,
    grid: Grid | None = None,
    opts: WaveOptions | None = None,
    dx: float | None = None,
) -> WaveProfile:
    """Iterate from ramp data, recentering the front, until it translates.

    The translating profile is the fixed point of G = recenter o Q, and the
    plain iteration z -> G(z) contracts geometrically onto it.  Each step
    instead takes the Anderson mixing of the last ``ANDERSON_DEPTH`` steps
    (``_Anderson``), projected onto the monotone states in [0, 1], until
    the sup-norm change of the recentered profile falls below
    profile_tol * speed_tol (at least the roundoff floor).  Plain steps
    follow, and the speed is the last one's displacement.  From the second
    step on, ``contraction_rate`` q is the ratio of the last two sup-norm
    changes d.  From the second plain step on, ``speed_error`` is
    2 d / ((1 - q) phi'(0)), phi'(0) the slope of the first component at
    the crossing: the profile lies within d / (1 - q) of the fixed point,
    and one step moves the front at most as far again over the slope.  It
    is infinite when q >= 1 or phi'(0) <= 0.  The solve stops at the first
    step where the profile moved less than ``profile_tol`` and
    ``speed_error`` is below ``speed_tol``.  ``speed_error`` says nothing
    of the grid's own error (speed at dx 0.1 against dx 0.01: ~9e-5 in the
    README case).
    The start is the logistic ramp of width ``RAMP_WIDTH``
    (``step_initial_data``) on the grid the solve runs on.  The ramp is
    snapped as every step's clamp snaps its output: values within the
    roundoff floor of 0 or 1 become 0 or 1.  A ``dx`` that differs from a
    given grid's spacing raises ParameterError.
    Raises ConvergenceError (with the history attached) on step-budget
    exhaustion, DegenerateDataError if lambda(B_0) rounds to 1 or the
    tracked level crossing disappears, and RangeError before the first
    step from ``_sized_grid``.  The sizing speed is the interior monostable
    speed, from which the tail decay rate and the sized grid are taken; it
    is not a bound on the wave speed, which exceeds it near a = 1.
    One grid per solve, which ``_sized_grid`` picks: with no grid, a sized
    grid at spacing ``dx`` (default ``DEFAULT_DX``); with a given grid, the
    shorter of it and its sized stand-in, whose profile is embedded into
    the given grid by repeating its end values (the residual is taken
    there).  A step works on both fields as one (2, N) array over every
    cell of its grid: one clamp that also checks the output, one resample,
    one residual f = G - z for the stopping test, and one in-place mixing
    update, to which G and f are handed (``_Anderson`` keeps its own
    copies).
    """
    opts = opts or WaveOptions()
    if not _is_number(opts.max_steps, integral=True):
        raise ParameterError(f"solver max_steps must be an integer, got {opts.max_steps!r}")
    if opts.max_steps < 1:
        raise ParameterError(f"solver max_steps must be at least 1, got {opts.max_steps}")
    for name in ("profile_tol", "speed_tol"):
        tol = getattr(opts, name)
        if not _is_number(tol):
            raise ParameterError(
                f"solver {name} must be a real number in float range, got {tol!r}")
        if not 0.0 < tol < math.inf:
            raise ParameterError(f"solver {name} must be positive and finite, got {tol}")
    if dx is not None and not _is_number(dx):
        raise ParameterError(f"dx must be a real number in float range, got {dx!r}")

    validate_params(p)
    for name, k in (("kernel1", kernel1), ("kernel2", kernel2)):
        try:
            validate_hypotheses(k)
        except ParameterError as exc:
            raise ParameterError(f"{name}: {exc}") from exc
    cp = counter_propagation(p, kernel1, kernel2)
    if not cp.passed:
        raise ParameterError("counter-propagation sums are not both positive")

    if grid is not None and dx not in (None, grid.dx):
        raise ParameterError(f"dx {dx} differs from the spacing {grid.dx} of the given grid")
    dx = grid.dx if grid is not None else DEFAULT_DX if dx is None else dx
    dk1 = discretize(kernel1, dx)
    # a kernel shared by both species: one set of weights and one spectrum cache
    dk2 = dk1 if kernel1 == kernel2 else discretize(kernel2, dx)
    sizing_speed = cp.c_plus_F0F2.value
    decay_rate = _tail_decay_rate(p, dk1, dk2, sizing_speed)
    solve_grid = _sized_grid(dk1, dk2, sizing_speed, decay_rate, opts, grid)
    grid = grid or solve_grid

    state = step_initial_data(solve_grid, RAMP_WIDTH)
    # snap the ramp's corner residue as every step's clamp does
    _clamp(state.fields, "initial fields", TRANSFORMED_FRAME)
    history = WaveHistory()
    mixer = _Anderson(ANDERSON_DEPTH, solve_grid.n_points) if ANDERSON_DEPTH > 0 else None
    # the plain steps that give the speed start once the profile moves less
    # than a speed_tol fraction of profile_tol per step (stopping the mixing
    # at profile_tol left speed errors up to 3e-5 on seeded cells); the
    # roundoff floor keeps tight tolerances reachable
    mix_tol = max(opts.profile_tol * opts.speed_tol, _FFT_NOISE_FLOOR)
    plain = 0  # plain steps since the last mixed iterate
    centre = solve_grid.half_cells
    rate = math.nan

    for n in range(1, opts.max_steps + 1):
        # G = recenter o Q: one step, then the front's crossing moved back to x = 0
        stepped = apply_Q(state, p, dk1, dk2)
        try:
            t = front_position(solve_grid.x, stepped.U, FRONT_LEVEL)
        except MeasurementError as exc:
            raise DegenerateDataError(f"front level {FRONT_LEVEL} lost at step {n}") from exc
        G = _resample_shifted(stepped.fields, t, solve_grid.dx)[0]
        history.displacements.append(t)
        f = G - state.fields  # the residual of z
        sup_diff = float(np.abs(f).max())
        history.sup_diffs.append(sup_diff)

        if mixer is not None and sup_diff < mix_tol:
            mixer = None
        plain = 0 if mixer is not None else plain + 1
        if n >= 2:
            last = history.sup_diffs[-2]
            rate = sup_diff / last if last > 0.0 else (math.inf if sup_diff > 0.0 else 0.0)
        speed_error = math.nan
        if plain >= 2:
            # the profile lies within sup_diff/(1 - q) of the fixed point and
            # one step moves it at most as far again: twice that over the
            # slope at the crossing bounds the front's move
            slope = float(G[0, centre + 1] - G[0, centre - 1]) / (2.0 * grid.dx)
            speed_error = (2.0 * sup_diff / ((1.0 - rate) * slope)
                           if rate < 1.0 and slope > 0.0 else math.inf)
        history.speed_errors.append(speed_error)
        if sup_diff < opts.profile_tol and speed_error < opts.speed_tol:
            break
        if mixer is not None:
            mixer.step(G, f)
        # recentering and mixing keep the checked fields of apply_Q inside [0, 1]
        state = SpatialState._unchecked(solve_grid, TRANSFORMED_FRAME, G, state.step + 1)
    else:
        # at their last ratio the sup diffs reach profile_tol in this many more steps
        remaining = ""
        if 0.0 < rate < 1.0 and sup_diff > opts.profile_tol:
            more = math.ceil(math.log(sup_diff / opts.profile_tol) / -math.log(rate))
            remaining = f"; about {more} more steps at that rate"
        raise ConvergenceError(
            f"no traveling profile within {opts.max_steps} steps "
            f"(last sup diff {sup_diff:.3e}, speed error {speed_error:.3e}, "
            f"contraction rate {rate:.4g}{remaining})",
            history=history,
        )

    if solve_grid is not grid:
        # beyond the sized grid the tails are below profile_tol: repeat the end values
        m = grid.half_cells - solve_grid.half_cells
        G = np.pad(G, ((0, 0), (m, m)), mode="edge")
    profile = WaveProfile(
        grid=grid,
        phi=G[0],
        psi=G[1],
        speed=t,
        residual=math.nan,
        steps=n,
        history=history,
        discrete_kernels=(dk1, dk2),
        decay_rate=decay_rate,
        speed_error=speed_error,
        contraction_rate=rate,
    )
    return profile._replace(residual=wave_residual(profile, p))


def wave_residual(wp: WaveProfile, p: ModelParams) -> float:
    """Sup-norm defect of the translating-profile equation.

    Applies one step with the profile's discretized kernels to (phi, psi),
    shifts the result back by the wave speed (linear interpolation), and
    takes the largest deviation from the profile over the boundary-safe
    interior window, J + |round(c/dx)| + 2 cells in from each edge for a
    speed c; ``interior_slice`` raises RangeError when that leaves no cell.
    """
    state = SpatialState(grid=wp.grid, frame=TRANSFORMED_FRAME,
                         U=np.clip(wp.phi, 0.0, 1.0), V=np.clip(wp.psi, 0.0, 1.0))
    fields = apply_Q(state, p, *wp.discrete_kernels).fields
    del state  # before the resample makes its fields
    fields, m = _resample_shifted(fields, wp.speed, wp.grid.dx)

    win = interior_slice(wp.grid, wp.kernel_half_width + abs(m) + 2)
    d = fields[:, win]
    d[0] -= wp.phi[win]
    d[1] -= wp.psi[win]
    return float(np.abs(d, out=d).max())


class ProfileValidation(namedtuple("ProfileValidation", "monotone_ok range_ok left_tail_ok "
                                   "right_tail_ok residual_ok details")):
    """Per-clause pass/fail record for a candidate wave profile."""

    __slots__ = ()

    @property
    def passed(self) -> bool:
        return all((self.monotone_ok, self.range_ok, self.left_tail_ok, self.right_tail_ok,
                    self.residual_ok))


def validate_profile(wp: WaveProfile) -> ProfileValidation:
    """Check monotonicity, range, tail limits and the translation defect."""
    win = interior_slice(wp.grid, wp.kernel_half_width)
    fields = (wp.phi, wp.psi)
    worst_step = min(float((f[win][1:] - f[win][:-1]).min()) for f in fields)
    lo, hi = min(float(f.min()) for f in fields), max(float(f.max()) for f in fields)
    band = max(1, int(TAIL_FRACTION * (win.stop - win.start)))
    left_dev = max(float(f[win][:band].max()) for f in fields)
    right_dev = max(float((1.0 - f[win][-band:]).max()) for f in fields)
    return ProfileValidation(
        monotone_ok=worst_step >= -MONOTONE_SLACK,
        range_ok=lo >= 0.0 and hi <= 1.0,
        left_tail_ok=left_dev <= TAIL_TOL,
        right_tail_ok=right_dev <= TAIL_TOL,
        residual_ok=wp.residual <= RESIDUAL_TOL,
        details={
            "worst_monotone_step": worst_step,
            "range": (lo, hi),
            "left_tail_deviation": left_dev,
            "right_tail_deviation": right_dev,
            "residual": wp.residual,
            "speed": wp.speed,
        },
    )
