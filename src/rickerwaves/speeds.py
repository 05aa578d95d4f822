"""Spreading speeds of the monostable subsystems.

The cooperative-frame dynamics restricted between consecutive equilibria
are monostable and linearly determined, so their spreading speeds come
from variational formulas: a scalar formula inf_{mu>0} (r + ln M(mu))/mu
for the two edge subsystems, and inf_{mu>0} ln(lambda(B_mu))/mu for the
two subsystems that straddle the interior state, where B_mu is an
entrywise-positive 2x2 matrix built from the kernel MGFs and lambda is
its dominant (Perron) eigenvalue.  Kernel symmetry makes the leftward and
rightward MGFs coincide, so a single exponent sign serves both directions.

Also provided: an empirical front-speed estimator (level-crossing position
regressed against step count), which checks the variational values against
trajectories of the step operator.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .errors import DomainError, MeasurementError, RangeError, SearchError
from .evolution import interior_slice
from .kernels import Kernel
from .model import ModelParams, coexistence_coordinates, eigenvalues_2x2, require_admissible

# golden-section tolerances: bracket width in mu, spread in objective value
MU_TOL = 1e-8
VALUE_TOL = 1e-10
_INVPHI = (math.sqrt(5.0) - 1.0) / 2.0

BRACKET_START = 1e-3
MU_FLOOR = 1e-6


@dataclass
class SpeedReport:
    """A computed speed with its minimizer and evaluation trace."""

    value: float
    mu_star: float
    curve: list  # (mu, objective) pairs visited by the search
    method: str  # "scalar-formula" | "matrix-eigenvalue" | "empirical"
    lambda0: float | None = None  # lambda(B_0) sanity value, matrix method only


def _minimize_positive(objective) -> tuple:
    """Minimize a smooth unimodal objective over mu > 0.

    Brackets by doubling from a small start (the objective blows up as
    mu -> 0+, so it is initially decreasing), treating MGF overflow as the
    upper end of the searchable range, then refines by golden section.
    Returns (mu_star, value, curve).
    """
    curve = []

    def f(mu):
        value = objective(mu)
        curve.append((mu, value))
        return value

    lo = BRACKET_START
    f_lo = f(lo)
    mid = 2.0 * lo
    f_mid = f(mid)
    if f_mid >= f_lo:
        # minimum sits at tiny mu; fall back to the guarded floor
        a, b = MU_FLOOR, mid
    else:
        a = lo
        while True:
            hi = 2.0 * mid
            try:
                f_hi = f(hi)
            except RangeError as exc:
                raise SearchError(
                    f"objective still decreasing when the MGF overflowed near mu={hi}"
                ) from exc
            if f_hi > f_mid:
                b = hi
                break
            a, mid, f_mid = mid, hi, f_hi

    # golden section on [a, b]
    c = b - _INVPHI * (b - a)
    d = a + _INVPHI * (b - a)
    f_c, f_d = f(c), f(d)
    while (b - a) > MU_TOL * max(1.0, 0.5 * (a + b)):
        if abs(f_c - f_d) < VALUE_TOL * max(1.0, abs(f_c)):
            break
        if f_c < f_d:
            b, d, f_d = d, c, f_c
            c = b - _INVPHI * (b - a)
            f_c = f(c)
        else:
            a, c, f_c = c, d, f_d
            d = a + _INVPHI * (b - a)
            f_d = f(d)
    mu_star = 0.5 * (a + b)
    value = objective(mu_star)
    curve.append((mu_star, value))
    curve.sort(key=lambda pair: pair[0])
    return mu_star, value, curve


def scalar_speed(r: float, kernel: Kernel) -> SpeedReport:
    """Spreading speed of the scalar Ricker invasion with growth rate r.

    Minimizes (r + ln M(mu)) / mu over mu > 0.
    """
    if not (0.0 < r < 1.0):
        raise DomainError(f"growth rate must lie in (0,1), got {r}")

    def objective(mu):
        return (r + math.log(kernel.mgf(mu))) / mu

    mu_star, value, curve = _minimize_positive(objective)
    return SpeedReport(value=value, mu_star=mu_star, curve=curve, method="scalar-formula")


def linearization_matrix(
    p: ModelParams, kernel1: Kernel, kernel2: Kernel, mu: float
) -> np.ndarray:
    """Entrywise-positive matrix governing growth around the interior state.

    Columns carry the two kernel MGFs at exponent mu; the coefficients come
    from linearizing the shifted dynamics at the coexistence coordinates.
    """
    require_admissible(p)
    if mu < 0.0:
        raise DomainError(f"exponent mu must be nonnegative, got {mu}")
    k1, k2 = coexistence_coordinates(p)
    m1 = kernel1.mgf(mu)
    m2 = kernel2.mgf(mu)
    return np.array(
        [
            [(1.0 - p.r1 * k1) * m1, p.a1 * p.r1 * k1 * m2],
            [p.a2 * p.r2 * k2 * m1, (1.0 - p.r2 * k2) * m2],
        ]
    )


def system_speed_bound(p: ModelParams, kernel1: Kernel, kernel2: Kernel) -> SpeedReport:
    """Speed bound for the subsystems straddling the interior state.

    Minimizes ln(lambda(B_mu))/mu over mu > 0, with lambda the Perron root
    of the entrywise-positive B_mu.  By kernel symmetry the same matrix
    serves the leftward and rightward subsystems.
    """
    require_admissible(p)
    lambda0 = eigenvalues_2x2(linearization_matrix(p, kernel1, kernel2, 0.0))[0]

    def objective(mu):
        b = linearization_matrix(p, kernel1, kernel2, mu)
        return math.log(eigenvalues_2x2(b)[0]) / mu

    mu_star, value, curve = _minimize_positive(objective)
    return SpeedReport(
        value=value, mu_star=mu_star, curve=curve, method="matrix-eigenvalue",
        lambda0=lambda0,
    )


@dataclass
class CounterPropagationReport:
    """The four speeds and the two counter-propagation sums.

    The two interior speeds share one report: kernel symmetry makes their
    matrices, and so their searches, identical.
    """

    c_minus_F1F3: SpeedReport
    c_plus_F0F1: SpeedReport
    c_minus_F2F3: SpeedReport
    c_plus_F0F2: SpeedReport
    sum_edge: float = field(init=False)
    sum_interior: float = field(init=False)

    def __post_init__(self):
        self.sum_edge = self.c_minus_F1F3.value + self.c_plus_F0F1.value
        self.sum_interior = self.c_minus_F2F3.value + self.c_plus_F0F2.value

    @property
    def passed(self) -> bool:
        return self.sum_edge > 0.0 and self.sum_interior > 0.0


def counter_propagation(
    p: ModelParams, kernel1: Kernel, kernel2: Kernel
) -> CounterPropagationReport:
    """Compute all four monostable speeds and check both sums are positive."""
    require_admissible(p)
    interior = system_speed_bound(p, kernel1, kernel2)
    return CounterPropagationReport(
        c_minus_F1F3=scalar_speed(p.r2, kernel2),
        c_plus_F0F1=scalar_speed(p.r1, kernel1),
        c_minus_F2F3=interior,
        c_plus_F0F2=interior,
    )


def front_position(
    x: np.ndarray, field_values: np.ndarray, level: float, window: slice | None = None
) -> float:
    """Position where a monotone-in-x field crosses the level.

    Linear interpolation between the two adjacent grid points.  Raises if
    the level is never crossed inside the window.
    """
    if window is None:
        window = slice(0, len(x))
    xs = x[window]
    fs = field_values[window]
    sign = fs - level
    hits = np.nonzero(sign[:-1] * sign[1:] <= 0.0)[0]
    if len(hits) == 0:
        raise MeasurementError(f"field never crosses level {level} inside the window")
    i = int(hits[0])
    f0, f1 = fs[i], fs[i + 1]
    if f1 == f0:
        return float(xs[i])
    t = (level - f0) / (f1 - f0)
    return float(xs[i] + t * (xs[i + 1] - xs[i]))


@dataclass
class FrontSpeedReport:
    """Least-squares front speed with its fit diagnostics."""

    speed: float
    intercept: float
    residual_rms: float
    positions: np.ndarray
    steps: np.ndarray


def measure_front_speed(
    trajectory,
    *,
    component: str = "U",
    level: float = 0.5,
    fit_window: tuple | None = None,
    margin_cells: int = 0,
) -> FrontSpeedReport:
    """Empirical front speed from a trajectory of monotone-in-x spatial states.

    The level crossing of the ``component`` field (U or V) is located per
    state by linear interpolation, then a least-squares line of crossing
    position against ``state.step`` gives the speed, so a thinned trajectory
    fits the same line.  fit_window is a (first, last) pair of trajectory
    indices, inclusive; the default is the trailing half.  margin_cells
    restricts the crossing search to the boundary-safe interior.
    """
    if len(trajectory) < 2:
        raise MeasurementError("need at least two states to fit a speed")
    grid = trajectory[0].grid
    steps = np.array([s.step for s in trajectory], dtype=float)

    window = interior_slice(grid, margin_cells)
    positions = np.array(
        [front_position(grid.x, getattr(s, component), level, window) for s in trajectory]
    )

    if fit_window is None:
        start = len(positions) // 2
        stop = len(positions) - 1
    else:
        start, stop = fit_window
    if not (0 <= start < stop < len(positions)):
        raise DomainError(f"fit window {fit_window} out of range")
    ns = steps[start : stop + 1]
    xs = positions[start : stop + 1]
    slope, intercept = np.polyfit(ns, xs, 1)
    rms = float(np.sqrt(np.mean((xs - (slope * ns + intercept)) ** 2)))
    return FrontSpeedReport(
        speed=float(slope),
        intercept=float(intercept),
        residual_rms=rms,
        positions=positions,
        steps=steps,
    )
