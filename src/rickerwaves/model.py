"""Space-free two-species Ricker competition maps and their equilibria.

Two coordinate frames are used throughout.  The original frame carries the
competition map

    u' = u exp(r1 (1 - u - a1 v)),   v' = v exp(r2 (1 - v - a2 u)),

whose exclusion states E1=(1,0) and E2=(0,1) are stable under strong
competition.  Substituting u -> 1 - u turns it into the cooperative map

    u' = 1 - (1 - u) exp(r1 (u - a1 v)),   v' = v exp(r2 (1 - v - a2 (1 - u)))

on the unit square, with stable corners F0=(0,0) and F3=(1,1) and unstable
interior/edge states F1, F2: one Ricker law, at the original-frame density
u or 1 - u of the first species.  This module owns that law (``growth``,
which the grid step operator calls as well), the pointwise map, the frame
change of a point, equilibria with their stability classification, and
the cooperative-frame corners' strong stability, derived under (H1).
"""

from __future__ import annotations

import math
from collections import namedtuple

from .errors import DomainError, ParameterError, _is_number

ORIGINAL_FRAME = "original"
TRANSFORMED_FRAME = "transformed"

# classification band around spectral radius 1
STABILITY_MARGIN = 1e-9
FIXED_POINT_TOL = 1e-10
_CONJUGATE = {"F0": "E1", "F1": "E0", "F2": "E3", "F3": "E2"}  # F -> E under u -> 1 - u


class ModelParams(namedtuple("ModelParams", "r1 r2 a1 a2")):
    """Growth rates r1, r2 and competition coefficients a1, a2."""

    __slots__ = ()


def validate_params(p: ModelParams) -> None:
    """Check the admissibility box r1,r2 in (0,1), a1,a2 in (1,inf) (H1).

    Raises ParameterError naming every violation, joined by "; ".
    """
    r1, r2, a1, a2 = p  # nan fails every comparison, and inf the upper bound
    if (type(r1) is type(r2) is type(a1) is type(a2) is float and 0.0 < r1 < 1.0
            and 0.0 < r2 < 1.0 and 1.0 < a1 < math.inf and 1.0 < a2 < math.inf):
        return
    # a value outside the box, or any but a plain float, is checked here
    fields = (("r1", r1), ("r2", r2), ("a1", a1), ("a2", a2))
    violations = [f"{name}={value!r} is not a real number in float range"
                  for name, value in fields if not _is_number(value)]
    named = [(name, value, math.isfinite(value)) for name, value in fields if _is_number(value)]
    violations += [f"{name}={value} is not finite" for name, value, finite in named
                   if not finite]
    violations += [f"{name}={value} outside (0, 1)" for name, value, finite in named
                   if finite and name[0] == "r" and not 0.0 < value < 1.0]
    violations += [f"{name}={value} outside (1, inf)" for name, value, finite in named
                   if finite and name[0] == "a" and not value > 1.0]
    if violations:
        raise ParameterError("; ".join(violations))


def _exponentials(p: ModelParams, U, V, frame: str, exp):
    """The one statement of the Ricker law, (w, e^{r1(1 - w - a1 V)}, e^{r2(1 - V - a2 w)}),
    w the first species' original-frame density: U, or 1 - U in the cooperative
    frame, whose 1 - w is U itself, so nothing is complemented twice.  ``growth``
    takes it with np.exp on arrays, the scalar maps with math.exp."""
    if frame == ORIGINAL_FRAME:
        w, rest = U, 1.0 - U
    elif frame == TRANSFORMED_FRAME:
        w, rest = 1.0 - U, U
    else:
        raise DomainError(f"unknown frame {frame!r}")
    return w, exp(p.r1 * (rest - p.a1 * V)), exp(p.r2 * (1.0 - V - p.a2 * w))


def growth(p: ModelParams, U, V, frame: str):
    """The Ricker growth of one step, before dispersal: (gu, gv).

    Broadcasts over scalars and arrays of any shape.  In the original frame
    gu, gv are the Ricker images.  In the cooperative frame gv is the image
    of V, and gu = (1 - U) e^{r1 (U - a1 V)} is the complement of the image
    of U, so the new U is one minus the dispersed average of gu.  Forming
    1 - gu first would round away small original-frame densities (any gu
    below 2**-54) before dispersal.  The complement is the original-frame
    density; it is dispersed at full precision and rounded once.
    """
    import numpy as np
    w, eu, ev = _exponentials(p, U, V, frame, np.exp)
    return w * eu, V * ev


def pointwise_map(p: ModelParams, point, frame: str):
    """One step of a frame's space-free map at a point (u, v).

    The cooperative frame's domain is the unit square.  The closed square
    is invariant for admissible parameters, so the output is pinned back to
    it when rounding spills an ulp past an edge.
    """
    u, v = point
    if frame == TRANSFORMED_FRAME and not (0.0 <= u <= 1.0 and 0.0 <= v <= 1.0):
        raise DomainError(f"point {point} outside the unit square")
    w, eu, ev = _exponentials(p, u, v, frame, math.exp)
    gu, gv = w * eu, v * ev
    if frame == ORIGINAL_FRAME:
        return (float(gu), float(gv))
    return (min(max(float(1.0 - gu), 0.0), 1.0), min(max(float(gv), 0.0), 1.0))


def change_coordinates(point):
    """Swap frames at a point via u -> 1 - u, v -> v.  An involution."""
    u, v = point
    return (1.0 - u, v)


def coexistence_coordinates(p: ModelParams):
    """k1 = (1-a1)/(1-a1 a2) and k2 = (1-a2)/(1-a1 a2).

    Evaluated as (a1-1)/d, (a2-1)/d with d = a2 (a1-1) + (a2-1), which
    equals a1 a2 - 1 without the cancellation the naive form suffers when
    a1 a2 is close to 1.  For admissible parameters (H1) d is positive.
    Where d overflows, a2 and a2-1 are first scaled by 2^-e, e the binary
    exponent of a2.  The scaling is exact, so k gets the bits the same
    operations give in an unbounded exponent range, and k1, about 1/a2,
    rounds once more only where it is subnormal.
    """
    am1 = p.a1 - 1.0
    bm1 = p.a2 - 1.0
    denom = p.a2 * am1 + bm1
    if denom < math.inf:
        return (am1 / denom, bm1 / denom)
    e = math.frexp(p.a2)[1]
    bm1 = math.ldexp(bm1, -e)
    denom = math.ldexp(p.a2, -e) * am1 + bm1
    return (math.ldexp(am1 / denom, -e), bm1 / denom)


class EquilibriumSet(namedtuple("EquilibriumSet", "E0 E1 E2 E3 F0 F1 F2 F3 k1 k2")):
    """The four fixed points in each frame, plus k1, k2."""

    __slots__ = ()

    def original(self):
        return {"E0": self.E0, "E1": self.E1, "E2": self.E2, "E3": self.E3}

    def transformed(self):
        return {"F0": self.F0, "F1": self.F1, "F2": self.F2, "F3": self.F3}


def equilibria(p: ModelParams) -> EquilibriumSet:
    """All eight equilibria, in closed form; no map is evaluated.

    The original frame's are E0 = (0,0), E1 = (1,0), E2 = (0,1) and
    E3 = (k1, k2) from ``coexistence_coordinates``.  The cooperative
    F0, F1, F2, F3 are the frame change of E1, E0, E3, E2, whose stability
    they share (J_F = D J_E D, D = diag(-1, 1)) and which are exact, while
    F2 = (1 - k1, k2) holds k1 only to a multiple of 2**-53.
    """
    validate_params(p)
    k1, k2 = coexistence_coordinates(p)
    e = {"E0": (0.0, 0.0), "E1": (1.0, 0.0), "E2": (0.0, 1.0), "E3": (k1, k2)}
    return EquilibriumSet(**e, **{f: change_coordinates(e[n]) for f, n in _CONJUGATE.items()},
                          k1=k1, k2=k2)


def jacobian(p: ModelParams, point, frame: str) -> tuple:
    """Analytic Jacobian of the chosen frame's map at a point, as two rows.

    With w the original-frame density of the first species (u, or 1 - u in
    the cooperative frame), the frames differ only in the sign of the
    off-diagonal entries: negative for competition, positive once u is
    flipped.
    """
    u, v = point
    w, eu, ev = _exponentials(p, u, v, frame, math.exp)
    sign = -1.0 if frame == ORIGINAL_FRAME else 1.0
    return ((eu * (1.0 - p.r1 * w), sign * p.r1 * p.a1 * w * eu),
            (sign * p.r2 * p.a2 * v * ev, ev * (1.0 - p.r2 * v)))


def trace_and_discriminant(m00, m01, m10, m11):
    """Trace and discriminant of the 2x2 characteristic polynomial: the one
    copy of its arithmetic, shared by ``eigenvalues_2x2`` and the Perron root
    of the speed search.  The discriminant is formed as (m00 - m11)^2 +
    4 m01 m10, a sum of two nonnegative terms for an entrywise-positive
    matrix, rather than tr^2 - 4 det, which cancels when the roots are close."""
    return m00 + m11, (m00 - m11) * (m00 - m11) + 4.0 * (m01 * m10)


def eigenvalues_2x2(m):
    """Both eigenvalues of a 2x2 array or a pair of row pairs, from the
    characteristic polynomial (no iteration); either form gives the same bits."""
    (m00, m01), (m10, m11) = m
    tr, disc = trace_and_discriminant(m00, m01, m10, m11)
    if disc >= 0.0:
        root = math.sqrt(disc)
        return (0.5 * (tr + root), 0.5 * (tr - root))
    root = math.sqrt(-disc)
    return (complex(0.5 * tr, 0.5 * root), complex(0.5 * tr, -0.5 * root))


# label is "stable", "unstable" or "marginal"
StabilityResult = namedtuple("StabilityResult", "label spectral_radius eigenvalues")


def classify_stability(p: ModelParams, point, frame: str) -> StabilityResult:
    """Classify a fixed point by the spectral radius of its Jacobian.  A
    cooperative point such as F2 = (1 - k1, k2) may round its coordinates;
    its original conjugate, of one spectrum, is the exact route."""
    try:
        u, v = point
    except (TypeError, ValueError):
        u = v = None
    if not (_is_number(u) and _is_number(v)):
        raise DomainError(f"point {point!r} is not a pair of real numbers")
    image = pointwise_map(p, point, frame)
    resid = max(abs(image[0] - u), abs(image[1] - v))
    if not resid <= FIXED_POINT_TOL:  # a nan residual is not fixed either
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


class StabilityCertificate(namedtuple("StabilityCertificate", "e4 e5 margins")):
    """Strong stability of the cooperative-frame corners, by derivation.

    e4 and e5 are strictly positive unit vectors that the corner Jacobians
    shrink entry by entry; ``margins`` holds the least shrinkage, 1 minus
    the larger factor, at F0 and at F3.
    """

    __slots__ = ()


def _unit(x: float, y: float) -> tuple:
    norm = math.sqrt(x * x + y * y)
    return (x / norm, y / norm)


def strong_stability_vectors(p: ModelParams) -> StabilityCertificate:
    """Strong stability of (0,0) and (1,1) for the cooperative map (A5).

    The corner Jacobians are triangular.  Along e4 = (1, 1/(2 a1)) and
    e5 = (1/(2 a2), 1), normalized,

        J(F0) e4 = (1 - r1/2, e^{r2 (1 - a2)}) * e4,
        J(F3) e5 = (e^{r1 (1 - a1)}, 1 - r2/2) * e5,

    entry by entry, and under (H1) every factor lies in (0, 1).  A strict
    linear contraction gives the map's own strict one for eta small enough.
    The margins are formed with expm1, so a tiny rate or an a - 1 near
    roundoff keeps a positive margin instead of rounding its factor to 1.
    F1 = (1, 0) and F2 = (1 - k1, k2) with k1, k2 in (0, 1) are unordered.
    """
    validate_params(p)
    r1, r2, a1, a2 = p
    return StabilityCertificate(
        e4=_unit(1.0, 1.0 / (2.0 * a1)),
        e5=_unit(1.0 / (2.0 * a2), 1.0),
        margins=(min(0.5 * r1, -math.expm1(r2 * (1.0 - a2))),
                 min(-math.expm1(r1 * (1.0 - a1)), 0.5 * r2)))
