"""Space-free two-species Ricker competition maps and their equilibria.

Two coordinate frames are used throughout.  The original frame carries the
competition map

    u' = u exp(r1 (1 - u - a1 v)),   v' = v exp(r2 (1 - v - a2 u)),

whose exclusion states E1=(1,0) and E2=(0,1) are stable under strong
competition.  Substituting u -> 1 - u turns it into the cooperative map

    u' = 1 - (1 - u) exp(r1 (u - a1 v)),   v' = v exp(r2 (1 - a2 - v + a2 u))

on the unit square, with stable corners F0=(0,0) and F3=(1,1) and unstable
interior/edge states F1, F2.  This module owns both pointwise maps, the
frame change, equilibria with their stability classification, and the
certificate that the corners are strongly stable in the cooperative frame.
"""

from __future__ import annotations

import dataclasses
import math
from dataclasses import dataclass

import numpy as np

from .errors import CertificateError, DomainError, ParameterError

ORIGINAL_FRAME = "original"
TRANSFORMED_FRAME = "transformed"

# classification band around spectral radius 1
STABILITY_MARGIN = 1e-9
FIXED_POINT_TOL = 1e-10


@dataclass(frozen=True)
class ModelParams:
    """Growth rates r1, r2 and competition coefficients a1, a2."""

    r1: float
    r2: float
    a1: float
    a2: float


@dataclass
class ParamReport:
    violations: list

    @property
    def passed(self) -> bool:
        return not self.violations


def validate_params(p: ModelParams) -> ParamReport:
    """Check the admissibility box r1,r2 in (0,1), a1,a2 in (1,inf)."""
    violations = []
    for name in ("r1", "r2", "a1", "a2"):
        value = getattr(p, name)
        if not math.isfinite(value):
            violations.append(f"{name}={value} is not finite")
    for name in ("r1", "r2"):
        value = getattr(p, name)
        if math.isfinite(value) and not (0.0 < value < 1.0):
            violations.append(f"{name}={value} outside (0, 1)")
    for name in ("a1", "a2"):
        value = getattr(p, name)
        if math.isfinite(value) and not (value > 1.0):
            violations.append(f"{name}={value} outside (1, inf)")
    return ParamReport(violations=violations)


def require_admissible(p: ModelParams) -> None:
    report = validate_params(p)
    if not report.passed:
        raise ParameterError("; ".join(report.violations))


def ricker_map(p: ModelParams, point):
    """One step of the original-frame competition map."""
    u, v = point
    un = u * math.exp(p.r1 * (1.0 - u - p.a1 * v))
    vn = v * math.exp(p.r2 * (1.0 - v - p.a2 * u))
    return (un, vn)


def transformed_map(p: ModelParams, point):
    """One step of the cooperative-frame map; domain is the unit square.

    The closed unit square is invariant for admissible parameters, so the
    output is pinned back to it when rounding spills an ulp past an edge.
    """
    u, v = point
    if not (0.0 <= u <= 1.0 and 0.0 <= v <= 1.0):
        raise DomainError(f"point {point} outside the unit square")
    un = 1.0 - (1.0 - u) * math.exp(p.r1 * (u - p.a1 * v))
    vn = v * math.exp(p.r2 * (1.0 - p.a2 - v + p.a2 * u))
    return (min(max(un, 0.0), 1.0), min(max(vn, 0.0), 1.0))


def pointwise_map(p: ModelParams, point, frame: str):
    if frame == ORIGINAL_FRAME:
        return ricker_map(p, point)
    if frame == TRANSFORMED_FRAME:
        return transformed_map(p, point)
    raise DomainError(f"unknown frame {frame!r}")


def change_coordinates(obj):
    """Swap frames via u -> 1 - u, v -> v.  An involution.

    Accepts a point pair or any state-like object with U, V and frame
    attributes (the spatial states of the evolution module); returns the
    same kind.
    """
    if hasattr(obj, "U") and hasattr(obj, "V"):
        new_frame = (
            TRANSFORMED_FRAME if obj.frame == ORIGINAL_FRAME else ORIGINAL_FRAME
        )
        return dataclasses.replace(obj, U=1.0 - obj.U, V=obj.V.copy(), frame=new_frame)
    u, v = obj
    return (1.0 - u, v)


def coexistence_coordinates(p: ModelParams):
    """k1 = (1-a1)/(1-a1 a2) and k2 = (1-a2)/(1-a1 a2).

    Evaluated as (a1-1)/d, (a2-1)/d with d = a2 (a1-1) + (a2-1), which
    equals a1 a2 - 1 without the cancellation the naive form suffers when
    a1 a2 is close to 1.
    """
    am1 = p.a1 - 1.0
    bm1 = p.a2 - 1.0
    denom = p.a2 * am1 + bm1
    if denom == 0.0:
        raise ParameterError("a1*a2 == 1: coexistence state is singular")
    return (am1 / denom, bm1 / denom)


@dataclass(frozen=True)
class EquilibriumSet:
    """The four fixed points in each frame, plus k1, k2."""

    E0: tuple
    E1: tuple
    E2: tuple
    E3: tuple
    F0: tuple
    F1: tuple
    F2: tuple
    F3: tuple
    k1: float
    k2: float

    def original(self):
        return {"E0": self.E0, "E1": self.E1, "E2": self.E2, "E3": self.E3}

    def transformed(self):
        return {"F0": self.F0, "F1": self.F1, "F2": self.F2, "F3": self.F3}


def equilibria(p: ModelParams, check_tol: float = 1e-12) -> EquilibriumSet:
    """All eight equilibria, each verified fixed under its frame's map."""
    require_admissible(p)
    k1, k2 = coexistence_coordinates(p)
    eqset = EquilibriumSet(
        E0=(0.0, 0.0),
        E1=(1.0, 0.0),
        E2=(0.0, 1.0),
        E3=(k1, k2),
        F0=(0.0, 0.0),
        F1=(1.0, 0.0),
        F2=(1.0 - k1, k2),
        F3=(1.0, 1.0),
        k1=k1,
        k2=k2,
    )
    for name, point in eqset.original().items():
        image = ricker_map(p, point)
        resid = max(abs(image[0] - point[0]), abs(image[1] - point[1]))
        if resid > check_tol:
            raise ParameterError(f"{name} is not fixed to {check_tol}: residual {resid}")
    for name, point in eqset.transformed().items():
        image = transformed_map(p, point)
        resid = max(abs(image[0] - point[0]), abs(image[1] - point[1]))
        if resid > check_tol:
            raise ParameterError(f"{name} is not fixed to {check_tol}: residual {resid}")
    return eqset


def jacobian(p: ModelParams, point, frame: str) -> np.ndarray:
    """Analytic Jacobian of the chosen frame's map at a point."""
    u, v = point
    if frame == ORIGINAL_FRAME:
        eu = math.exp(p.r1 * (1.0 - u - p.a1 * v))
        ev = math.exp(p.r2 * (1.0 - v - p.a2 * u))
        return np.array(
            [
                [eu * (1.0 - p.r1 * u), -p.r1 * p.a1 * u * eu],
                [-p.r2 * p.a2 * v * ev, ev * (1.0 - p.r2 * v)],
            ]
        )
    if frame == TRANSFORMED_FRAME:
        eu = math.exp(p.r1 * (u - p.a1 * v))
        ev = math.exp(p.r2 * (1.0 - p.a2 - v + p.a2 * u))
        return np.array(
            [
                [eu * (1.0 - p.r1 * (1.0 - u)), p.r1 * p.a1 * (1.0 - u) * eu],
                [p.r2 * p.a2 * v * ev, ev * (1.0 - p.r2 * v)],
            ]
        )
    raise DomainError(f"unknown frame {frame!r}")


def eigenvalues_2x2(m: np.ndarray):
    """Both eigenvalues from the characteristic polynomial (no iteration)."""
    tr = m[0, 0] + m[1, 1]
    det = m[0, 0] * m[1, 1] - m[0, 1] * m[1, 0]
    disc = tr * tr - 4.0 * det
    if disc >= 0.0:
        root = math.sqrt(disc)
        return (0.5 * (tr + root), 0.5 * (tr - root))
    root = math.sqrt(-disc)
    return (complex(0.5 * tr, 0.5 * root), complex(0.5 * tr, -0.5 * root))


@dataclass
class StabilityResult:
    label: str  # "stable" | "unstable" | "marginal"
    spectral_radius: float
    eigenvalues: tuple


def classify_stability(p: ModelParams, point, frame: str) -> StabilityResult:
    """Classify a fixed point by the spectral radius of its Jacobian."""
    image = pointwise_map(p, point, frame)
    resid = max(abs(image[0] - point[0]), abs(image[1] - point[1]))
    if resid > FIXED_POINT_TOL:
        raise DomainError(
            f"point {point} is not fixed in frame {frame!r}: residual {resid}"
        )
    lams = eigenvalues_2x2(jacobian(p, point, frame))
    radius = max(abs(lams[0]), abs(lams[1]))
    if radius < 1.0 - STABILITY_MARGIN:
        label = "stable"
    elif radius > 1.0 + STABILITY_MARGIN:
        label = "unstable"
    else:
        label = "marginal"
    return StabilityResult(label=label, spectral_radius=radius, eigenvalues=lams)


@dataclass
class StabilityCertificate:
    """Strong stability of the cooperative-frame corners.

    e4 and e5 are strictly positive unit vectors such that for every tested
    eta in (0, delta] the map pulls eta*e4 strictly toward (0,0) and
    (1,1) - eta*e5 strictly toward (1,1), componentwise.  ``table`` records
    each tested eta with the two strict-inequality outcomes.
    """

    e4: np.ndarray
    e5: np.ndarray
    delta: float
    table: list
    f1_f2_unordered: bool


def _strictly_below(a, b) -> bool:
    return a[0] < b[0] and a[1] < b[1]


def strong_stability_vectors(p: ModelParams, max_level: int = 20) -> StabilityCertificate:
    """Certify strong stability of (0,0) and (1,1) for the cooperative map.

    Uses the directions (1, 1/(2 a1)) and (1/(2 a2), 1): the triangular
    Jacobians at the corners contract along them whenever the second
    (resp. first) component stays below 1/a1 (resp. 1/a2).  Scans the
    dyadic thresholds delta = 2^-k and returns the largest one for which
    the strict inequalities hold at eta in {delta, delta/2, delta/4}.
    """
    require_admissible(p)
    e4 = np.array([1.0, 1.0 / (2.0 * p.a1)])
    e4 = e4 / np.linalg.norm(e4)
    e5 = np.array([1.0 / (2.0 * p.a2), 1.0])
    e5 = e5 / np.linalg.norm(e5)

    k1, k2 = coexistence_coordinates(p)
    f1 = (1.0, 0.0)
    f2 = (1.0 - k1, k2)
    unordered = not (
        (f1[0] <= f2[0] and f1[1] <= f2[1]) or (f1[0] >= f2[0] and f1[1] >= f2[1])
    )

    chosen = None
    table = []
    for k in range(1, max_level + 1):
        delta = 2.0 ** (-k)
        rows = []
        all_ok = True
        for eta in (delta, delta / 2.0, delta / 4.0):
            low = (eta * e4[0], eta * e4[1])
            high = (1.0 - eta * e5[0], 1.0 - eta * e5[1])
            low_ok = _strictly_below(transformed_map(p, low), low)
            high_ok = _strictly_below(high, transformed_map(p, high))
            rows.append((eta, low_ok, high_ok))
            all_ok = all_ok and low_ok and high_ok
        if all_ok:
            chosen = delta
            table = rows
            break
    if chosen is None:
        raise CertificateError(
            f"no dyadic delta down to 2^-{max_level} certifies strong stability "
            f"for params {p}"
        )
    return StabilityCertificate(
        e4=e4, e5=e5, delta=chosen, table=table, f1_f2_unordered=unordered
    )
