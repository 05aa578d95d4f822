"""Spreading speeds of the monostable subsystems.

The cooperative-frame dynamics restricted between consecutive equilibria
are monostable and linearly determined, so their spreading speeds come
from variational formulas: a scalar formula inf_{mu>0} (r + ln M(mu))/mu
for the two edge subsystems, and inf_{mu>0} ln(lambda(B_mu))/mu for the
two subsystems that straddle the interior state, where B_mu is an
entrywise-positive 2x2 matrix built from the kernel MGFs and lambda is
its dominant (Perron) eigenvalue.  Kernel symmetry makes the leftward and
rightward MGFs coincide, so a single exponent sign serves both directions.

Each speed is the minimum of its objective.  A Gaussian kernel's scalar
minimum is sigma sqrt(2 r), at mu = sqrt(2 r)/sigma (Kot, Lewis & van den
Driessche, Ecology 77, 1996), and needs no search.  When both species share
one kernel, B_mu = M(mu) B_0, so the interior minimum is the scalar one at
rate ln lambda(B_0), taken before any matrix objective is built.  Any other
minimum is found by ``_minimize_positive``.  Each objective is g(mu)/mu
with g convex: r + ln M(mu) is a cumulant generating function, and
ln lambda(B_mu) is convex in mu by Kingman ("A convexity property of
positive matrices", Quart. J. Math. 12, 1961), since every entry of
B_mu is a positive constant times a log-convex MGF.  So the
minimizer is the one root of the nondecreasing F(mu) = mu g'(mu) - g(mu),
and a safeguarded Newton iteration on F, from the minimizer of the quadratic
model of g at 0 (the Gaussian closed form), finds it in a few evaluations:
at most 6 for rates 0.2-0.8 and kernel widths 0.5-3.  Each evaluation is
one closure call on Python floats, which makes one ``moments`` call per
kernel: M and the first two derivatives of ln M, so g' and g'' as well.
The start makes one ``moments(0.0)`` call per distinct kernel for
lambda(B_0), and a scalar search one more for g''(0); a Gaussian or uniform
kernel answers mu = 0 without its general formula.
The matrix objective makes the same IEEE operations, in the same order, as
on the array of ``linearization_matrix``, through the
characteristic-polynomial arithmetic that ``model.eigenvalues_2x2`` uses as
well.  An edge speed depends only on (r, kernel), so ``counter_propagation``
looks both edges up in one memo, which a sweep shares across its cells.

Also provided: an empirical front-speed estimator (level-crossing position
regressed against step count), which checks the variational values against
trajectories of the step operator.
"""

from __future__ import annotations

import math
from collections import namedtuple

from .errors import DegenerateDataError, DomainError, MeasurementError, RangeError, SearchError
from .kernels import GaussianKernel, Kernel
from .model import (
    ModelParams, coexistence_coordinates, eigenvalues_2x2, trace_and_discriminant,
    validate_params,
)

TYPE_CHECKING = False  # True to a type checker; spares importing typing
if TYPE_CHECKING:
    import numpy as np

# a Newton step this short (relative to mu) leaves the next iterate within
# roundoff of the root: the error after a step s is of order s^2
_NEWTON_TOL = 1e-7

MU_FLOOR = 1e-6


class SpeedReport(namedtuple("SpeedReport", "value mu_star curve method lambda0",
                             defaults=(None,))):
    """A computed speed with its minimizer and evaluation trace.

    ``curve`` holds the (mu, objective) pairs the search visited, one for a
    closed form; ``method`` is "scalar-formula" or "matrix-eigenvalue", and
    ``lambda0`` the sanity value lambda(B_0) of the matrix method only.
    """

    __slots__ = ()


def _minimize_positive(objective, g0: float, curvature0: float, kernels: tuple) -> tuple:
    """Minimize f(mu) = g(mu)/mu over mu > 0 for a convex g with g(0) > 0.

    ``objective(mu)`` returns (f, g', g'') at mu; ``g0`` and ``curvature0``
    are g(0) and g''(0), and ``kernels`` the kernels g is built from.  The
    minimizer is the one root of the nondecreasing F(mu) = mu g' - g =
    mu (g' - f), with F(0) = -g(0) < 0 and F' = mu g''.  Newton's method on
    F starts at sqrt(2 g0/curvature0), the minimizer of the quadratic model
    g0 + curvature0 mu^2 / 2 (exact for a Gaussian kernel), taken as
    sqrt(2 g0)/sqrt(curvature0) where the quotient overflows; when the
    curvature is 0 (it underflowed) it starts at 1/R, with R the largest
    truncation radius of the kernels.  It keeps its iterates inside the
    sign bracket [lo, hi] of F, bisecting (doubling while no point with
    F > 0 is known) whenever a step would leave it or not halve the step
    before last, or F' is not positive (Press et al., Numerical Recipes,
    rtsafe).  It stops on the point reached by a Newton step shorter than
    ``_NEWTON_TOL`` mu, which lies within roundoff of the root, on an exact
    root where F' is not positive (g'' underflowed to 0, say), or where the
    bracket closes to adjacent doubles.

    An MGF overflow (RangeError) or a nan value counts as too far right.  A
    bracket that closes on such a point, with F still negative to its left,
    raises SearchError, as does mu itself overflowing (the minimizer of a
    uniform kernel narrower than about 1e-308), at a start 1/R before any
    evaluation; a step below ``MU_FLOOR`` evaluates the floor, and raises
    SearchError unless F is negative there.
    Returns (mu_star, value, curve): mu_star is the last iterate, value the
    objective there, and the curve holds each evaluated (mu, value) pair,
    sorted by mu.
    """
    curve = []
    record = curve.append
    inf, nan = math.inf, math.nan
    lo, hi, hi_overflowed = 0.0, inf, False
    if curvature0 > 0.0:
        mu = math.sqrt(2.0 * g0 / curvature0)
        if mu == inf:
            mu = math.sqrt(2.0 * g0) / math.sqrt(curvature0)
    else:
        mu = 1.0 / max(kernel.truncation_radius() for kernel in kernels)
    if mu == inf:
        raise SearchError("objective still decreasing when mu overflowed")
    newton = False  # whether mu was reached by a Newton step
    step = previous = inf  # the lengths of the last two steps
    while True:
        at_floor = mu < MU_FLOOR
        if at_floor:
            # only while lo is 0: every later iterate lies above lo
            mu, newton = MU_FLOOR, False
        try:
            f, slope, curvature = objective(mu)
        except RangeError:
            f = slope = curvature = nan
        else:
            record((mu, f))
        # F/mu: it has the sign of F, and the Newton step -F/F' is -gap/g''
        gap = slope - f
        if at_floor and not gap < 0.0:
            raise SearchError(
                f"objective still decreasing at the mu floor {MU_FLOOR}: "
                f"its minimum lies below it")
        if newton and step <= _NEWTON_TOL * mu and gap == gap:
            break
        if gap == 0.0 and not curvature > 0.0:  # a flat root, which bisection returns to
            break
        if gap < 0.0:
            lo = mu
        elif not gap <= 0.0:  # positive, or nan: too far right
            hi, hi_overflowed = mu, gap != gap
        new = mu - gap / curvature if curvature > 0.0 else nan
        # the halving keeps noise in F from prolonging the iteration
        newton = lo < new < hi and abs(new - mu) <= 0.5 * previous
        if not newton:
            new = 2.0 * lo if hi == inf else 0.5 * (lo + hi)
            if not lo < new < hi:
                if new == inf:
                    raise SearchError("objective still decreasing when mu overflowed")
                # the bracket has closed to adjacent doubles
                if hi_overflowed:
                    raise SearchError(
                        f"objective still decreasing when the MGF overflowed near mu={hi}")
                break
        previous, step, mu = step, abs(new - mu), new
    curve.sort()  # a repeated mu repeats its value: the pairs sort by mu
    return mu, f, curve


def _scalar_minimum(rho: float, kernel: Kernel) -> tuple:
    """inf over mu > 0 of (rho + ln M(mu))/mu as (mu_star, value, curve): for a
    Gaussian sigma sqrt(2 rho) at mu = sqrt(2 rho)/sigma, else searched."""
    if isinstance(kernel, GaussianKernel):
        root = math.sqrt(2.0 * rho)
        mu_star, value = root / kernel.sigma, kernel.sigma * root
        return mu_star, value, [(mu_star, value)]
    log, moments = math.log, kernel.moments

    def objective(mu):
        mgf, mean, variance = moments(mu)
        return (rho + log(mgf)) / mu, mean, variance

    return _minimize_positive(objective, rho, moments(0.0)[2], (kernel,))


def scalar_speed(r: float, kernel: Kernel) -> SpeedReport:
    """Spreading speed of the scalar Ricker invasion with growth rate r.

    Minimizes (r + ln M(mu)) / mu over mu > 0.
    """
    try:
        admissible = 0.0 < r < 1.0
    except TypeError:  # not a number
        admissible = False
    if not admissible:
        raise DomainError(f"growth rate must lie in (0,1), got {r!r}")
    mu_star, value, curve = _scalar_minimum(r, kernel)
    return SpeedReport(value=value, mu_star=mu_star, curve=curve, method="scalar-formula")


def _coefficients(p: ModelParams) -> tuple:
    """Rows of B_mu with its columns not yet scaled by the kernel MGFs (M1, M2)."""
    k1, k2 = coexistence_coordinates(p)
    return ((1.0 - p.r1 * k1, p.a1 * p.r1 * k1),
            (p.a2 * p.r2 * k2, 1.0 - p.r2 * k2))


def linearization_matrix(
    p: ModelParams, kernel1: Kernel, kernel2: Kernel, mu: float
) -> np.ndarray:
    """Entrywise-positive matrix governing growth around the interior state.

    Columns carry the two kernel MGFs at exponent mu; the coefficients come
    from linearizing the shifted dynamics at the coexistence coordinates.
    """
    import numpy as np
    validate_params(p)
    if mu < 0.0:
        raise DomainError(f"exponent mu must be nonnegative, got {mu}")
    return np.array(_coefficients(p)) * np.array(
        [kernel1.moments(mu)[0], kernel2.moments(mu)[0]])


def system_speed_bound(p: ModelParams, kernel1: Kernel, kernel2: Kernel) -> SpeedReport:
    """Speed bound for the subsystems straddling the interior state.

    Minimizes ln(lambda(B_mu))/mu over mu > 0, with lambda the Perron root
    of the entrywise-positive B_mu.  By kernel symmetry the same matrix
    serves the leftward and rightward subsystems.  A lambda(B_0) that
    rounds to 1 or below leaves no positive minimum and raises
    DegenerateDataError, and inadmissible parameters raise ParameterError.
    When both species share one kernel (``kernel1 == kernel2``: equal
    Gaussian or uniform kernels, or one table object), B_mu = M(mu) B_0 and
    the minimum is the scalar one at rate ln lambda(B_0), returned before
    the search closures are built.  Otherwise each evaluation is one call:
    it scales the coefficients by the MGFs as floats and takes the Perron
    root through ``model.trace_and_discriminant``, bit for bit the root that
    ``eigenvalues_2x2`` gives for ``linearization_matrix``, and the first
    two derivatives of ln lambda from the kernels' tilted moments; each
    kernel's three numbers come from one ``moments`` call, and a shared
    kernel's at mu = 0 from one call for both columns of B_0.
    """
    validate_params(p)
    (c11, c12), (c21, c22) = _coefficients(p)
    shared = kernel1 is kernel2 or kernel1 == kernel2
    zero1 = kernel1.moments(0.0)
    at_zero = (*zero1, *(zero1 if shared else kernel2.moments(0.0)))
    m1, m2 = at_zero[0], at_zero[3]
    lambda0 = eigenvalues_2x2(((c11 * m1, c12 * m2), (c21 * m1, c22 * m2)))[0]
    if not lambda0 > 1.0:
        raise DegenerateDataError(
            f"lambda(B_0) = {lambda0!r} is not above 1: no positive interior speed")
    if shared:
        mu_star, value, curve = _scalar_minimum(math.log(lambda0), kernel1)
        return SpeedReport(value, mu_star, curve, "matrix-eigenvalue", lambda0)
    moments1, moments2 = kernel1.moments, kernel2.moments
    log, sqrt = math.log, math.sqrt

    def perron(m1, e1, v1, m2, e2, v2):
        # lambda(B_mu) through model.trace_and_discriminant, with g' and g'' of
        # g = ln lambda from the first two derivatives of tr and disc, where
        # M' = M mean and M'' = M (variance + mean^2)
        tr, disc = trace_and_discriminant(c11 * m1, c12 * m2, c21 * m1, c22 * m2)
        root = sqrt(disc)
        lam = 0.5 * (tr + root)
        d1, d2 = m1 * e1, m2 * e2
        s1, s2 = m1 * (v1 + e1 * e1), m2 * (v2 + e2 * e2)
        diff, d_diff, s_diff = c11 * m1 - c22 * m2, c11 * d1 - c22 * d2, c11 * s1 - c22 * s2
        coupling = 4.0 * c12 * c21
        d_disc = 2.0 * diff * d_diff + coupling * (d1 * m2 + m1 * d2)
        s_disc = 2.0 * (d_diff * d_diff + diff * s_diff) + coupling * (
            s1 * m2 + 2.0 * d1 * d2 + m1 * s2)
        d_root = d_disc / (2.0 * root)
        s_root = (s_disc - 2.0 * d_root * d_root) / (2.0 * root)
        slope = 0.5 * (c11 * d1 + c22 * d2 + d_root) / lam
        return lam, slope, 0.5 * (c11 * s1 + c22 * s2 + s_root) / lam - slope * slope

    def objective(mu):
        lam, slope, curvature = perron(*moments1(mu), *moments2(mu))
        return log(lam) / mu, slope, curvature

    mu_star, value, curve = _minimize_positive(
        objective, log(lambda0), perron(*at_zero)[2], (kernel1, kernel2))
    return SpeedReport(value, mu_star, curve, "matrix-eigenvalue", lambda0)


class CounterPropagationReport(namedtuple(
        "CounterPropagationReport",
        "c_minus_F1F3 c_plus_F0F1 c_minus_F2F3 c_plus_F0F2 sum_edge sum_interior")):
    """The four speeds and the two counter-propagation sums.

    The two interior speeds share one report: kernel symmetry makes their
    matrices, and so their searches, identical.  ``sum_edge`` is
    c_minus_F1F3 + c_plus_F0F1 and ``sum_interior`` c_minus_F2F3 +
    c_plus_F0F2, each added once by ``counter_propagation``.
    """

    __slots__ = ()

    @property
    def passed(self) -> bool:
        """Condition (A6): both sums positive."""
        return self.sum_edge > 0.0 and self.sum_interior > 0.0


def counter_propagation(
    p: ModelParams, kernel1: Kernel, kernel2: Kernel, edge_memo: dict | None = None
) -> CounterPropagationReport:
    """Compute all four monostable speeds and both counter-propagation sums.

    Each edge speed is looked up by its (r, kernel) key in ``edge_memo``, a
    fresh dict when none is given, and a miss calls ``scalar_speed`` by its
    module name and stores the report.  So a cell whose two edges share one
    key searches that edge once, and a caller that computes many cells and
    passes them one dict computes each distinct edge speed once.  The key
    holds the kernel itself, so equal Gaussian or uniform kernels share an
    entry and a table only shares its own.
    """
    interior = system_speed_bound(p, kernel1, kernel2)
    memo = {} if edge_memo is None else edge_memo  # a caller's empty dict is kept
    key2, key1 = (p.r2, kernel2), (p.r1, kernel1)
    edge2 = memo.get(key2)
    if edge2 is None:
        edge2 = memo[key2] = scalar_speed(*key2)
    edge1 = memo.get(key1)
    if edge1 is None:
        edge1 = memo[key1] = scalar_speed(*key1)
    # c_minus_F1F3, c_plus_F0F1, c_minus_F2F3, c_plus_F0F2, sum_edge, sum_interior
    return CounterPropagationReport(edge2, edge1, interior, interior,
                                    edge2.value + edge1.value, interior.value + interior.value)


# level of the first component whose crossing marks the front: the wave
# solver recenters it to x = 0, and measure_front_speed tracks it
FRONT_LEVEL = 0.5


def front_position(x: np.ndarray, field_values: np.ndarray, level: float) -> float:
    """Position where a monotone-in-x field crosses the level.

    Linear interpolation between the two adjacent grid points.  Raises if
    the level is never crossed.
    """
    sign = field_values - level
    # ndarray methods only, so a wave solve's steps import nothing here
    hits = (sign[:-1] * sign[1:] <= 0.0).nonzero()[0]
    if len(hits) == 0:
        raise MeasurementError(f"field never crosses level {level} on the given points")
    i = int(hits[0])
    f0, f1 = field_values[i], field_values[i + 1]
    if f1 == f0:
        return float(x[i])
    t = (level - f0) / (f1 - f0)
    return float(x[i] + t * (x[i + 1] - x[i]))


class FrontSpeedReport(namedtuple("FrontSpeedReport",
                                  "speed intercept residual_rms positions steps")):
    """Least-squares front speed with its fit diagnostics."""

    __slots__ = ()


def measure_front_speed(
    trajectory,
    *,
    fit_window: tuple | None = None,
    margin_cells: int = 0,
) -> FrontSpeedReport:
    """Empirical front speed from a trajectory of monotone-in-x spatial states.

    The ``FRONT_LEVEL`` crossing of the U field is located per state by linear
    interpolation, then a least-squares line of crossing position against
    ``state.step`` gives the speed, so a thinned trajectory fits the same
    line.  fit_window is a (first, last) pair of trajectory indices,
    inclusive; the default is the trailing half.  margin_cells restricts the
    crossing search to the boundary-safe interior.
    """
    import numpy as np
    from .evolution import interior_slice
    if len(trajectory) < 2:
        raise MeasurementError("need at least two states to fit a speed")
    grid = trajectory[0].grid
    steps = np.array([s.step for s in trajectory], dtype=float)

    window = interior_slice(grid, margin_cells)
    x = grid.x[window]
    positions = np.array([front_position(x, s.U[window], FRONT_LEVEL) for s in trajectory])

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
