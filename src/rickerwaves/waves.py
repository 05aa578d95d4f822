"""Locating the monotone bistable front by iterate-and-recenter.

The step operator is monotone and the cooperative-frame corners (0,0) and
(1,1) are strongly stable, so iterating from monotone ramp data and
re-centering the half-level crossing of the first component after every
step converges to a translating profile.  The accumulated re-centering
shifts give the front speed; no formula for it is available, so the speed
is purely an output of the construction (zero in the exchange-symmetric
case).  Newton-type profile solving is deliberately avoided: the operator
is cheap and globally monotone, while its derivative is not something we
ever need to build.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .errors import (
    ConvergenceError,
    DegenerateDataError,
    DomainError,
    MeasurementError,
    ParameterError,
    RangeError,
)
from .evolution import (
    DEFAULT_DX,
    DEFAULT_HALF_LENGTH,
    Grid,
    SpatialState,
    _shift_cells,
    apply_Q,
    interior_slice,
)
from .kernels import (
    _EXP_ARG_MAX,
    DEFAULT_TRUNCATION,
    DiscreteKernel,
    Kernel,
    discretize,
    validate_hypotheses,
)
from .model import TRANSFORMED_FRAME, ModelParams, validate_params
from .speeds import counter_propagation, front_position, system_speed_bound


# level of the first component whose crossing is recentered to x = 0
FRONT_LEVEL = 0.5


@dataclass(frozen=True)
class WaveOptions:
    """Tolerances and budgets for the front solver."""

    profile_tol: float = 1e-6
    speed_tol: float = 1e-4
    max_steps: int = 2000
    init_width: float = 1.0
    eps_trunc: float = DEFAULT_TRUNCATION


@dataclass
class WaveHistory:
    """Per-step convergence diagnostics of the front solver."""

    sup_diffs: list = field(default_factory=list)
    displacements: list = field(default_factory=list)
    monotone_defects: list = field(default_factory=list)


@dataclass
class WaveProfile:
    """A translating profile pair with its speed and defect diagnostics."""

    grid: Grid
    phi: np.ndarray
    psi: np.ndarray
    speed: float
    residual: float
    steps: int
    history: WaveHistory
    kernel_half_width: int
    # slowest tail decay rate at the corners for speeds |c| up to the
    # interior monostable speed; the sized grid is built from it
    decay_rate: float = math.nan
    # magnitude of the last Aitken correction, which overstates the
    # iteration error left in ``speed``; the grid's error is not in it
    speed_error: float = math.nan
    # ratio of the last two displacement increments
    contraction_rate: float = math.nan


def step_initial_data(grid: Grid, width: float) -> SpatialState:
    """Monotone ramp data: both components follow a logistic sigmoid."""
    if not (width > 0):
        raise DomainError(f"ramp width must be positive, got {width}")
    # exp overflows to inf far left, where the ramp is then exactly 0
    with np.errstate(over="ignore"):
        ramp = 1.0 / (1.0 + np.exp(-grid.x / width))
    return SpatialState(
        grid=grid, frame=TRANSFORMED_FRAME, U=ramp, V=ramp.copy(), step=0
    )


def _shift_fractional(values: np.ndarray, offset: float, dx: float) -> np.ndarray:
    """Resample at x + offset for |offset| <= dx by linear interpolation.

    Linear interpolation keeps monotone data monotone and stays inside the
    sample range, which higher-order schemes would not.
    """
    if offset == 0.0:
        return values
    t = offset / dx
    if not (-1.0 <= t <= 1.0):
        raise RangeError(f"fractional shift {offset} exceeds one cell ({dx})")
    out = np.empty_like(values)
    if t > 0.0:
        out[:-1] = (1.0 - t) * values[:-1] + t * values[1:]
        out[-1] = values[-1]
    else:
        s = -t
        out[1:] = (1.0 - s) * values[1:] + s * values[:-1]
        out[0] = values[0]
    return out


def _resample_shifted(state: SpatialState, offset: float) -> tuple:
    """State fields sampled at x + offset (whole cells + linear remainder).

    Returns (U, V, whole_cells); vacated cells take the edge value.
    """
    dx = state.grid.dx
    m = int(round(offset / dx))
    if abs(m) >= state.grid.n_points:
        raise RangeError(f"shift {offset} exceeds the grid")
    f = offset - m * dx
    U = _shift_fractional(_shift_cells(state.U, -m), f, dx)
    V = _shift_fractional(_shift_cells(state.V, -m), f, dx)
    return U, V, m


def _min_adjacent_diff(values: np.ndarray) -> float:
    return float((values[1:] - values[:-1]).min())


def _aitken(displacements: list) -> tuple:
    """Aitken delta-squared limit of the last three displacements.

    With increments dn = xn - xn-1 and ratio q = dn/dn-1, a sequence
    converging geometrically at rate q has limit xn - c, where the
    correction c = dn**2/(dn - dn-1) is also the error of xn.  Equal
    increments (a zero denominator) leave nothing to extrapolate: c = 0,
    and q is 0 for constant displacements and 1 for a steady drift.
    Returns (limit, c, q).
    """
    x0, x1, x2 = displacements[-3:]
    d, d_prev = x2 - x1, x1 - x0
    correction = d * d / (d - d_prev) if d != d_prev else 0.0
    if d_prev != 0.0:
        q = d / d_prev
    else:
        q = 0.0 if d == 0.0 else math.inf
    return x2 - correction, correction, q


def _decay_rate(log_alpha: float, dk: DiscreteKernel, speed: float) -> float:
    """Positive root of log_alpha + ln M(lam) + lam*speed, M the discrete MGF.

    At a stable corner log_alpha < 0, and speed > 0, so the function is
    negative at 0, increasing and convex, and nonnegative at
    -log_alpha/speed; Newton's method from there decreases monotonically
    onto the root.  Where that start would overflow the MGF, the largest
    safe exponent is returned if the root lies beyond it (a slower rate,
    so a longer grid).
    """
    x = dk.dx * np.arange(-dk.half_width, dk.half_width + 1)

    def value_and_slope(lam):
        terms = dk.weights * np.exp(lam * x)
        m = float(np.sum(terms))
        return log_alpha + math.log(m) + lam * speed, float(np.dot(terms, x)) / m + speed

    lam = min(-log_alpha / speed, _EXP_ARG_MAX / x[-1])
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
    """Slowest decay rate of the profile tails for any front speed in [-speed, speed].

    Linearized at F0 (left tail) the cooperative-frame step multiplies U by
    1 - r1 and V by exp(r2 (1 - a2)) before dispersal; at F3 (right tail) it
    multiplies 1 - U by exp(r1 (1 - a1)) and 1 - V by 1 - r2.  A tail
    exp(-lam |x|) of a front moving at c solves ln(alpha) + ln M(lam) +- lam c
    = 0 (+ on the left, - on the right); c = +speed on the left and
    c = -speed on the right give the slowest rates.
    """
    # the root falls as log(alpha) rises, so per kernel the corner with the
    # larger log(alpha) is the slower one
    log_alpha1 = max(math.log1p(-p.r1), p.r1 * (1.0 - p.a1))
    log_alpha2 = max(p.r2 * (1.0 - p.a2), math.log1p(-p.r2))
    return min(_decay_rate(log_alpha1, dk1, speed), _decay_rate(log_alpha2, dk2, speed))


def _sized_grid(dk1: DiscreteKernel, dk2: DiscreteKernel, speed: float,
                decay_rate: float, eps: float) -> Grid:
    """Half length J*dx plus the distance over which the slowest tail falls to eps.

    At least speed + 3 cells beyond J*dx, so ``wave_residual`` and
    ``validate_profile`` keep an interior window, and at most
    ``DEFAULT_HALF_LENGTH``.
    """
    dx = dk1.dx
    tail = math.log(1.0 / eps) / decay_rate if decay_rate > 0.0 else math.inf
    reach = max(dk1.half_width, dk2.half_width) * dx
    return Grid(half_length=min(reach + max(tail, speed + 3 * dx), DEFAULT_HALF_LENGTH), dx=dx)


def wave_grid(p: ModelParams, kernel1: Kernel, kernel2: Kernel, dx: float = DEFAULT_DX,
              opts: WaveOptions | None = None) -> Grid:
    """The grid ``find_bistable_wave`` solves on at spacing dx when given none.

    The front is recentered to x = 0 after every step, so the grid only has
    to hold the two exponential tails beyond the kernel half width J: the
    half length is J*dx + ln(1/profile_tol)/lam, with lam the slowest tail
    decay rate of the discretized kernels for any speed |c| up to the
    interior monostable speed, capped at ``DEFAULT_HALF_LENGTH``.  Past
    that point the tails are below the solver's sup-norm stopping
    tolerance, so a longer grid adds work the stopping test cannot see.
    """
    opts = opts or WaveOptions()
    speed = system_speed_bound(p, kernel1, kernel2).value
    dk1 = discretize(kernel1, dx, opts.eps_trunc)
    dk2 = discretize(kernel2, dx, opts.eps_trunc)
    return _sized_grid(dk1, dk2, speed, _tail_decay_rate(p, dk1, dk2, speed),
                       opts.profile_tol)


def find_bistable_wave(
    p: ModelParams,
    kernel1: Kernel,
    kernel2: Kernel,
    grid: Grid | None = None,
    opts: WaveOptions | None = None,
    initial: SpatialState | None = None,
) -> WaveProfile:
    """Iterate from ramp data, recentering the front, until it translates.

    The recentered iteration contracts geometrically onto the front, so the
    per-step displacements converge geometrically to its speed.  The speed
    is the Aitken delta-squared limit of the last three displacements, and
    ``speed_error`` is the magnitude of that last correction.  The solve
    stops once the sup-norm change between consecutive recentered profiles
    is below ``profile_tol``, the displacement increments contract
    (|``contraction_rate``| < 1) and the correction is below ``speed_tol``.
    ``speed_error`` is the error the extrapolation removed, so it overstates
    the iteration error that is left; it says nothing of the grid's own
    error (speed at dx 0.1 against dx 0.01: ~9e-5 in the README case).
    Raises ConvergenceError (with the history attached) on step-budget
    exhaustion and DegenerateDataError if the tracked level crossing
    disappears.
    ``initial`` replaces the default ramp data (it must be a monotone
    transformed-frame state, on ``grid`` when one is given).  Without
    either, the solve runs on ``wave_grid`` at ``DEFAULT_DX``.
    """
    opts = opts or WaveOptions()
    if opts.max_steps < 1:
        raise ParameterError(f"solver max_steps must be at least 1, got {opts.max_steps}")

    report = validate_params(p)
    if not report.passed:
        raise ParameterError("; ".join(report.violations))
    for name, k in (("kernel1", kernel1), ("kernel2", kernel2)):
        hyp = validate_hypotheses(k)
        if not hyp.passed:
            raise ParameterError(f"{name}: " + "; ".join(hyp.violations))
    cp = counter_propagation(p, kernel1, kernel2)
    if not cp.passed:
        raise ParameterError("counter-propagation sums are not both positive")

    if grid is None and initial is not None:
        grid = initial.grid
    dx = DEFAULT_DX if grid is None else grid.dx
    dk1 = discretize(kernel1, dx, opts.eps_trunc)
    dk2 = discretize(kernel2, dx, opts.eps_trunc)
    speed_bound = cp.c_plus_F0F2.value
    decay_rate = _tail_decay_rate(p, dk1, dk2, speed_bound)
    if grid is None:
        grid = _sized_grid(dk1, dk2, speed_bound, decay_rate, opts.profile_tol)

    if initial is None:
        state = step_initial_data(grid, opts.init_width)
    else:
        if initial.grid != grid or initial.frame != TRANSFORMED_FRAME:
            raise DomainError("initial state must be transformed-frame on the solver grid")
        state = initial
    history = WaveHistory()
    correction = rate = math.nan

    for n in range(1, opts.max_steps + 1):
        prev_U, prev_V = state.U, state.V
        state = apply_Q(state, p, dk1, dk2)
        try:
            t = front_position(grid.x, state.U, FRONT_LEVEL)
        except MeasurementError as exc:
            raise DegenerateDataError(
                f"front level {FRONT_LEVEL} lost at step {n}"
            ) from exc
        U, V, _ = _resample_shifted(state, t)
        state = SpatialState(
            grid=grid, frame=TRANSFORMED_FRAME, U=U, V=V, step=state.step
        )

        history.displacements.append(t)
        sup_diff = max(
            float(np.max(np.abs(state.U - prev_U))),
            float(np.max(np.abs(state.V - prev_V))),
        )
        history.sup_diffs.append(sup_diff)
        history.monotone_defects.append(
            min(_min_adjacent_diff(state.U), _min_adjacent_diff(state.V))
        )

        if n >= 3:
            speed, correction, rate = _aitken(history.displacements)
            if (sup_diff < opts.profile_tol and abs(rate) < 1.0
                    and abs(correction) < opts.speed_tol):
                break
    else:
        raise ConvergenceError(
            f"no traveling profile within {opts.max_steps} steps "
            f"(last sup diff {sup_diff:.3e}, Aitken correction {abs(correction):.3e}, "
            f"contraction rate {rate:.4g})",
            history=history,
        )

    profile = WaveProfile(
        grid=grid,
        phi=state.U,
        psi=state.V,
        speed=speed,
        residual=math.nan,
        steps=n,
        history=history,
        kernel_half_width=max(dk1.half_width, dk2.half_width),
        decay_rate=decay_rate,
        speed_error=abs(correction),
        contraction_rate=rate,
    )
    profile.residual = wave_residual(profile, p, dk1, dk2)
    return profile


def wave_residual(wp: WaveProfile, p: ModelParams, dk1: DiscreteKernel,
                  dk2: DiscreteKernel) -> float:
    """Sup-norm defect of the translating-profile equation.

    Applies one step with the discretized kernels to (phi, psi), shifts the
    result back by the wave speed (linear interpolation), and takes the
    largest deviation from the profile over the boundary-safe interior
    window.
    """
    state = SpatialState(
        grid=wp.grid,
        frame=TRANSFORMED_FRAME,
        U=np.clip(wp.phi, 0.0, 1.0),
        V=np.clip(wp.psi, 0.0, 1.0),
    )
    stepped = apply_Q(state, p, dk1, dk2)
    U, V, m = _resample_shifted(stepped, wp.speed)

    margin = max(dk1.half_width, dk2.half_width) + abs(m) + 2
    if 2 * margin >= wp.grid.n_points:
        raise RangeError(
            f"speed {wp.speed} and kernel width leave no interior window"
        )
    win = interior_slice(wp.grid, margin)
    return max(
        float(np.max(np.abs(U[win] - wp.phi[win]))),
        float(np.max(np.abs(V[win] - wp.psi[win]))),
    )


@dataclass
class ProfileTolerances:
    monotone_slack: float = 1e-10
    tail_tol: float = 1e-3
    residual_tol: float = 1e-4
    tail_fraction: float = 0.1


@dataclass
class ProfileValidation:
    """Per-clause pass/fail record for a candidate wave profile."""

    monotone_ok: bool
    range_ok: bool
    left_tail_ok: bool
    right_tail_ok: bool
    residual_ok: bool
    details: dict

    @property
    def passed(self) -> bool:
        return (
            self.monotone_ok
            and self.range_ok
            and self.left_tail_ok
            and self.right_tail_ok
            and self.residual_ok
        )


def validate_profile(
    wp: WaveProfile, tols: ProfileTolerances | None = None
) -> ProfileValidation:
    """Check monotonicity, range, tail limits and the translation defect."""
    tols = tols or ProfileTolerances()
    win = interior_slice(wp.grid, wp.kernel_half_width)
    phi = wp.phi[win]
    psi = wp.psi[win]

    worst_step = min(_min_adjacent_diff(phi), _min_adjacent_diff(psi))
    monotone_ok = worst_step >= -tols.monotone_slack

    lo = min(float(wp.phi.min()), float(wp.psi.min()))
    hi = max(float(wp.phi.max()), float(wp.psi.max()))
    range_ok = lo >= 0.0 and hi <= 1.0

    band = max(1, int(tols.tail_fraction * len(phi)))
    left_dev = max(float(np.max(phi[:band])), float(np.max(psi[:band])))
    right_dev = max(
        float(np.max(1.0 - phi[-band:])), float(np.max(1.0 - psi[-band:]))
    )
    left_tail_ok = left_dev <= tols.tail_tol
    right_tail_ok = right_dev <= tols.tail_tol

    residual_ok = wp.residual <= tols.residual_tol

    return ProfileValidation(
        monotone_ok=monotone_ok,
        range_ok=range_ok,
        left_tail_ok=left_tail_ok,
        right_tail_ok=right_tail_ok,
        residual_ok=residual_ok,
        details={
            "worst_monotone_step": worst_step,
            "range": (lo, hi),
            "left_tail_deviation": left_dev,
            "right_tail_deviation": right_dev,
            "residual": wp.residual,
            "speed": wp.speed,
        },
    )
