"""Spreading speeds of the monostable subsystems.

The cooperative-frame dynamics restricted between consecutive equilibria
are monostable and linearly determined, so their spreading speeds come
from variational formulas: a scalar formula inf_{mu>0} (r + ln M(mu))/mu
for the two edge subsystems, and inf_{mu>0} ln(lambda(B_mu))/mu for the
two subsystems that straddle the interior state, where B_mu is an
entrywise-positive 2x2 matrix built from the kernel MGFs and lambda is
its dominant (Perron) eigenvalue.  Kernel symmetry makes the leftward and
rightward MGFs coincide, so a single exponent sign serves both directions.

Each speed is the minimum of its objective, found by ``_minimize_positive``:
a bracket grown from mu = 1 and Brent's parabolic refinement to ``MU_TOL``,
about 16 evaluations per search.  Each evaluation is one closure call on
Python floats.  The matrix objective makes the same IEEE operations, in the
same order, as on the array of ``linearization_matrix``, through the
characteristic-polynomial arithmetic that ``model.eigenvalues_2x2`` uses as
well, and evaluates a kernel shared by both species once.  An edge speed
depends only on (r, kernel), so a sweep hands ``counter_propagation`` one
memo and each distinct edge search runs once.

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
from .model import (
    ModelParams, coexistence_coordinates, eigenvalues_2x2, require_admissible,
    trace_and_discriminant,
)

# the search stops once mu is known to MU_TOL (relative above mu = 1)
MU_TOL = 1e-8
# golden-section step of Brent's method: the smaller golden fraction
_CGOLD = (3.0 - math.sqrt(5.0)) / 2.0

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

    Brackets from mu = 1, where the minimizers of the speed objectives
    cluster: mu doubles while the objective falls and halves otherwise,
    down to ``MU_FLOOR``.  An MGF overflow (RangeError) or a nan value
    counts as too far right, so an overflow at the start or on the first
    step up halves mu; one on a later doubling, with the objective still
    falling, raises SearchError, as does mu itself overflowing.  Brent's
    method (R. P. Brent, Algorithms for Minimization without Derivatives,
    1973, ch. 5) then refines the bracket by parabolic interpolation
    through the best three points, with a golden-section step whenever the
    parabola's vertex leaves the bracket or the step does not halve the
    one before last, and stops once the minimizer is known to ``MU_TOL``.
    Returns (mu_star, value, curve): value is the objective at mu_star, the
    lowest point evaluated, and the curve holds each evaluated (mu, value)
    pair, sorted by mu.
    """
    curve = []
    record = curve.append
    inf = math.inf

    def evaluate(mu):
        try:
            value = objective(mu)
        except RangeError:
            return inf
        record((mu, value))
        return value

    # bracket: lo < mid < hi with f(mid) below f(lo) and not above f(hi)
    mid, hi = 1.0, 2.0
    f_mid, f_hi = evaluate(mid), evaluate(hi)
    if f_hi < f_mid:
        lo, mid, f_mid = mid, hi, f_hi
        while True:
            hi = 2.0 * mid
            try:
                f_hi = objective(hi)
            except RangeError as exc:
                raise SearchError(
                    f"objective still decreasing when the MGF overflowed near mu={hi}"
                ) from exc
            record((hi, f_hi))
            if not f_hi <= f_mid:
                break
            if hi == inf:
                raise SearchError("objective still decreasing when mu overflowed")
            lo, mid, f_mid = mid, hi, f_hi
    else:
        while True:
            lo = 0.5 * mid
            if lo < MU_FLOOR:
                # the minimum sits at tiny mu; search down to the guarded floor
                lo = MU_FLOOR
                break
            f_lo = evaluate(lo)
            if f_lo > f_mid:
                break
            hi, mid, f_mid = mid, lo, f_lo
    if not f_mid < inf:
        raise SearchError(f"objective not finite at any mu from 1 down to {MU_FLOOR}")

    # Brent's refinement on [a, b]: x is the lowest point so far, w the
    # second lowest and v the previous w; e is the step before last
    a, b = lo, hi
    x = w = v = mid
    fx = fw = fv = f_mid
    d = e = 0.0
    while True:
        xm = 0.5 * (a + b)
        tol1 = MU_TOL * max(1.0, x)
        tol2 = 2.0 * tol1
        if abs(x - xm) <= tol2 - 0.5 * (b - a):
            break
        parabolic = False
        if abs(e) > tol1:
            # the vertex of the parabola through (v, fv), (w, fw), (x, fx) is x + p/q
            r = (x - w) * (fx - fv)
            q = (x - v) * (fx - fw)
            p = (x - v) * q - (x - w) * r
            q = 2.0 * (q - r)
            if q > 0.0:
                p = -p
            q = abs(q)
            e_prev, e = e, d
            # written so that a nan from an infinite value fails the test
            if abs(p) < abs(0.5 * q * e_prev) and q * (a - x) < p < q * (b - x):
                parabolic = True
                d = p / q
                if (x + d) - a < tol2 or b - (x + d) < tol2:
                    d = math.copysign(tol1, xm - x)
        if not parabolic:
            e = (a - x) if x >= xm else (b - x)
            d = _CGOLD * e
        u = x + (d if abs(d) >= tol1 else math.copysign(tol1, d))
        # evaluate(u), inlined: this loop makes most of the evaluations
        try:
            fu = objective(u)
        except RangeError:
            fu = inf
        else:
            record((u, fu))
        if fu <= fx:
            if u >= x:
                a = x
            else:
                b = x
            v, fv, w, fw, x, fx = w, fw, x, fx, u, fu
        else:
            if u < x:
                a = u
            else:
                b = u
            if fu <= fw or w == x:
                v, fv, w, fw = w, fw, u, fu
            elif fu <= fv or v == x or v == w:
                v, fv = u, fu
    curve.sort(key=lambda pair: pair[0])
    return x, fx, curve


def scalar_speed(r: float, kernel: Kernel) -> SpeedReport:
    """Spreading speed of the scalar Ricker invasion with growth rate r.

    Minimizes (r + ln M(mu)) / mu over mu > 0.
    """
    if not (0.0 < r < 1.0):
        raise DomainError(f"growth rate must lie in (0,1), got {r}")

    log, mgf = math.log, kernel.mgf

    def objective(mu):
        return (r + log(mgf(mu))) / mu

    mu_star, value, curve = _minimize_positive(objective)
    return SpeedReport(value=value, mu_star=mu_star, curve=curve, method="scalar-formula")


def _coefficients(p: ModelParams) -> np.ndarray:
    """B_mu with its columns not yet scaled by the kernel MGFs (M1, M2)."""
    k1, k2 = coexistence_coordinates(p)
    return np.array([[1.0 - p.r1 * k1, p.a1 * p.r1 * k1],
                     [p.a2 * p.r2 * k2, 1.0 - p.r2 * k2]])


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
    return _coefficients(p) * np.array([kernel1.mgf(mu), kernel2.mgf(mu)])


def system_speed_bound(p: ModelParams, kernel1: Kernel, kernel2: Kernel) -> SpeedReport:
    """Speed bound for the subsystems straddling the interior state.

    Minimizes ln(lambda(B_mu))/mu over mu > 0, with lambda the Perron root
    of the entrywise-positive B_mu.  By kernel symmetry the same matrix
    serves the leftward and rightward subsystems.  The parameters are
    checked and the coefficients built once, not per evaluation.  Each
    evaluation is one call: it scales the coefficients by the MGFs as
    floats and takes the Perron root through
    ``model.trace_and_discriminant``, bit for bit the root that
    ``eigenvalues_2x2`` gives for ``linearization_matrix``.  When
    ``kernel2 is kernel1`` the MGF is evaluated once per exponent.
    """
    require_admissible(p)
    (c11, c12), (c21, c22) = _coefficients(p).tolist()
    mgf1, mgf2 = kernel1.mgf, kernel2.mgf
    shared = kernel2 is kernel1
    log, sqrt = math.log, math.sqrt

    def objective(mu):
        m1 = mgf1(mu)
        m2 = m1 if shared else mgf2(mu)
        tr, disc = trace_and_discriminant(c11 * m1, c12 * m2, c21 * m1, c22 * m2)
        return log(0.5 * (tr + sqrt(disc))) / mu

    m1, m2 = mgf1(0.0), mgf2(0.0)
    lambda0 = eigenvalues_2x2(((c11 * m1, c12 * m2), (c21 * m1, c22 * m2)))[0]
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
    p: ModelParams, kernel1: Kernel, kernel2: Kernel, edge_memo: dict | None = None
) -> CounterPropagationReport:
    """Compute all four monostable speeds and check both sums are positive.

    A caller that computes many cells passes them one dict as
    ``edge_memo``: each distinct (r, kernel) edge search then runs once, and
    the cells share its report.  A kernel without a hash is keyed by
    identity, so the caller keeps it alive while the memo is in use.
    """
    interior = system_speed_bound(p, kernel1, kernel2)

    def edge(r, kernel):
        if edge_memo is None:
            return scalar_speed(r, kernel)
        key = (r, kernel)
        try:
            report = edge_memo.get(key)
        except TypeError:  # a table kernel holds arrays and has no hash
            key = (r, id(kernel))
            report = edge_memo.get(key)
        if report is None:
            report = edge_memo[key] = scalar_speed(r, kernel)
        return report

    return CounterPropagationReport(
        c_minus_F1F3=edge(p.r2, kernel2),
        c_plus_F0F1=edge(p.r1, kernel1),
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
    level: float = 0.5,
    fit_window: tuple | None = None,
    margin_cells: int = 0,
) -> FrontSpeedReport:
    """Empirical front speed from a trajectory of monotone-in-x spatial states.

    The level crossing of the U field is located per state by linear
    interpolation, then a least-squares line of crossing position against
    ``state.step`` gives the speed, so a thinned trajectory fits the same
    line.  fit_window is a (first, last) pair of trajectory indices,
    inclusive; the default is the trailing half.  margin_cells restricts the
    crossing search to the boundary-safe interior.
    """
    if len(trajectory) < 2:
        raise MeasurementError("need at least two states to fit a speed")
    grid = trajectory[0].grid
    steps = np.array([s.step for s in trajectory], dtype=float)

    window = interior_slice(grid, margin_cells)
    positions = np.array([front_position(grid.x, s.U, level, window) for s in trajectory])

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
