"""Dispersal kernels: densities, moment generating functions, discretization.

Built-in families are the Gaussian (closed-form MGF, finite for every
exponent) and the symmetric uniform density on [-a, a].  Arbitrary tabulated
densities on a symmetric uniform grid are supported as well; tables are
symmetrized and normalized on construction.  A table can be flagged as the
truncation of an unbounded-support density, in which case the hypothesis
checker reports its MGF as not finite for all exponents.
"""

from __future__ import annotations

import math
import statistics
from dataclasses import dataclass, field

import numpy as np

from .errors import DegenerateKernelError, ParameterError, RangeError

# exp() overflows float64 just above 709.78
_EXP_ARG_MAX = 709.0

DEFAULT_TRUNCATION = 1e-12


class Kernel:
    """Symmetric dispersal density with unit mass and an MGF.

    Subclasses give the density, the MGF, whether that MGF is finite for
    every exponent, and the radius holding all but eps of the mass (the
    support radius itself for compactly supported densities).
    """

    family = "abstract"

    def density(self, y):
        raise NotImplementedError

    def mgf(self, mu: float) -> float:
        raise NotImplementedError

    @property
    def mgf_finite_everywhere(self) -> bool:
        """Structural check: is the MGF finite for every real exponent?"""
        raise NotImplementedError

    def truncation_radius(self, eps: float) -> float:
        """Radius R such that the mass outside [-R, R] is below eps."""
        raise NotImplementedError

    def cell_masses(self, offsets: np.ndarray, dx: float) -> np.ndarray:
        """Mass of each cell [y - dx/2, y + dx/2]; the midpoint rule density(y)*dx."""
        return self.density(offsets) * dx


@dataclass(frozen=True)
class GaussianKernel(Kernel):
    sigma: float
    family = "gaussian"

    def __post_init__(self):
        if not (self.sigma > 0 and math.isfinite(self.sigma)):
            raise ParameterError(f"gaussian sigma must be positive, got {self.sigma}")

    def density(self, y):
        y = np.asarray(y, dtype=float)
        s = self.sigma
        return np.exp(-0.5 * (y / s) ** 2) / (s * math.sqrt(2.0 * math.pi))

    def mgf(self, mu: float) -> float:
        arg = 0.5 * (self.sigma * mu) ** 2
        if arg > _EXP_ARG_MAX:
            raise RangeError(f"gaussian MGF overflows at mu={mu}")
        return math.exp(arg)

    @property
    def mgf_finite_everywhere(self) -> bool:
        return True

    def truncation_radius(self, eps: float) -> float:
        # two-sided tail mass outside [-R, R] is 2*Phi(-R/sigma)
        return -self.sigma * statistics.NormalDist().inv_cdf(eps / 2.0)


@dataclass(frozen=True)
class UniformKernel(Kernel):
    halfwidth: float
    family = "uniform"

    def __post_init__(self):
        if not (self.halfwidth > 0 and math.isfinite(self.halfwidth)):
            raise ParameterError(
                f"uniform halfwidth must be positive, got {self.halfwidth}"
            )

    def density(self, y):
        y = np.asarray(y, dtype=float)
        return np.where(np.abs(y) <= self.halfwidth, 0.5 / self.halfwidth, 0.0)

    def mgf(self, mu: float) -> float:
        a = self.halfwidth
        if mu == 0.0:
            return 1.0
        if abs(a * mu) > _EXP_ARG_MAX:
            raise RangeError(f"uniform MGF overflows at mu={mu}")
        return math.sinh(a * mu) / (a * mu)

    @property
    def mgf_finite_everywhere(self) -> bool:
        return True

    def truncation_radius(self, eps: float) -> float:
        return self.halfwidth

    def cell_masses(self, offsets: np.ndarray, dx: float) -> np.ndarray:
        # exact: each cell's overlap with [-a, a], so the end cells carry
        # their fraction of a cell rather than a full one
        a = self.halfwidth
        overlap = np.minimum(offsets + 0.5 * dx, a) - np.maximum(offsets - 0.5 * dx, -a)
        return np.maximum(overlap, 0.0) / (2.0 * a)


@dataclass(frozen=True)
class TableKernel(Kernel):
    """Density tabulated on a symmetric uniform grid of offsets.

    Samples are symmetrized (average with their mirror) and normalized so
    that the rectangle-rule mass spacing * sum(densities) is exactly one.
    ``compactly_supported=False`` marks the table as a truncation of an
    unbounded-support density (a Laplace tail, say); such kernels keep
    working numerically but fail the finite-MGF hypothesis.
    """

    offsets: np.ndarray
    densities: np.ndarray
    compactly_supported: bool = True
    symmetrized: bool = field(default=False, compare=False)
    family = "table"

    def __post_init__(self):
        offsets = np.asarray(self.offsets, dtype=float)
        dens = np.asarray(self.densities, dtype=float)
        if offsets.ndim != 1 or offsets.size < 3 or offsets.size % 2 == 0:
            raise ParameterError(
                "table offsets must be a 1-d odd-length grid centered on zero"
            )
        if dens.shape != offsets.shape:
            raise ParameterError("table offsets and densities differ in length")
        steps = np.diff(offsets)
        h = steps[0]
        if h <= 0 or not np.allclose(steps, h, rtol=1e-9, atol=0.0):
            raise ParameterError("table offsets must be uniformly increasing")
        if not np.allclose(offsets, -offsets[::-1], rtol=0.0, atol=1e-12 * abs(h)):
            raise ParameterError("table offsets must be symmetric about zero")
        if np.any(dens < 0) or not np.all(np.isfinite(dens)):
            raise ParameterError("table densities must be finite and nonnegative")
        if dens.sum() <= 0:
            raise ParameterError("table densities sum to zero")

        sym = 0.5 * (dens + dens[::-1])
        was_asymmetric = bool(np.max(np.abs(dens - dens[::-1])) > 0)
        sym = sym / (h * sym.sum())
        # snap to exact mirrors so density(y) == density(-y) bit for bit
        J = offsets.size // 2
        object.__setattr__(self, "offsets", h * np.arange(-J, J + 1))
        object.__setattr__(self, "densities", sym)
        object.__setattr__(self, "symmetrized", was_asymmetric)

    @property
    def spacing(self) -> float:
        return float(self.offsets[1] - self.offsets[0])

    def density(self, y):
        y = np.asarray(y, dtype=float)
        return np.interp(y, self.offsets, self.densities, left=0.0, right=0.0)

    def mgf(self, mu: float) -> float:
        arg = mu * self.offsets
        if np.max(arg) > _EXP_ARG_MAX:
            raise RangeError(f"table MGF overflows at mu={mu}")
        return float(self.spacing * np.sum(self.densities * np.exp(arg)))

    @property
    def mgf_finite_everywhere(self) -> bool:
        return self.compactly_supported

    def truncation_radius(self, eps: float) -> float:
        return float(self.offsets[-1])


_SHAPE_PARAMETERS = ("sigma", "halfwidth", "offsets", "densities", "compactly_supported")


def make_kernel(family: str, **spec) -> Kernel:
    """Build a kernel from a family name and its shape parameters.

    gaussian: sigma; uniform: halfwidth; table: offsets, densities and an
    optional compactly_supported flag.  The other families' parameters are
    ignored, so one shared spec can serve any family; a missing (or None)
    parameter of the family and a name no family uses raise ParameterError.
    """
    name = family.strip().lower()
    if name not in ("gaussian", "uniform", "table"):
        raise ParameterError(f"unknown kernel family {family!r}")
    unknown = sorted(set(spec) - set(_SHAPE_PARAMETERS))
    if unknown:
        raise ParameterError(f"unknown kernel shape parameters {unknown}")

    def need(key):
        if spec.get(key) is None:
            raise ParameterError(f"{name} kernel needs shape parameter {key!r}")
        return spec[key]

    if name == "gaussian":
        return GaussianKernel(sigma=float(need("sigma")))
    if name == "uniform":
        return UniformKernel(halfwidth=float(need("halfwidth")))
    return TableKernel(offsets=need("offsets"), densities=need("densities"),
                       compactly_supported=spec.get("compactly_supported", True))


def mgf(kernel: Kernel, mu: float) -> float:
    """Moment generating function of the kernel at exponent mu."""
    if not math.isfinite(mu):
        raise RangeError(f"MGF exponent must be finite, got {mu}")
    return kernel.mgf(mu)


@dataclass(frozen=True)
class DiscreteKernel:
    """Quadrature weights of a kernel on a uniform grid.

    Weights sit at integer cell offsets -J..J with spacing dx, are exactly
    symmetric, nonnegative, and sum to one, so constants are exact fixed
    points of the induced discrete convolution.  ``methods`` maps a field
    length N to the convolution method chosen for it, ``lengths`` maps N
    to its FFT transform length, and ``spectra`` maps a transform length to
    the real-FFT spectrum of the weights, so field lengths that share a
    transform length share one spectrum; all three are filled by
    ``evolution.convolve_extended``.
    """

    weights: np.ndarray
    dx: float
    methods: dict = field(default_factory=dict, init=False, compare=False, repr=False)
    lengths: dict = field(default_factory=dict, init=False, compare=False, repr=False)
    spectra: dict = field(default_factory=dict, init=False, compare=False, repr=False)

    @property
    def half_width(self) -> int:
        """J: weights span cells -J..J."""
        return (len(self.weights) - 1) // 2

    def mgf(self, mu: float) -> float:
        j = np.arange(-self.half_width, self.half_width + 1)
        arg = mu * j * self.dx
        if np.max(arg) > _EXP_ARG_MAX:
            raise RangeError(f"discrete MGF overflows at mu={mu}")
        return float(np.sum(self.weights * np.exp(arg)))


def discretize(kernel: Kernel, dx: float, eps_trunc: float = DEFAULT_TRUNCATION) -> DiscreteKernel:
    """Cell masses at offsets j dx, symmetrized and normalized.

    The masses are ``kernel.cell_masses``: the midpoint rule l(j dx) dx,
    exact overlaps for the uniform kernel.

    The half width J is chosen so the kernel's mass outside [-J dx, J dx]
    is below eps_trunc before normalization.
    """
    if not (dx > 0 and math.isfinite(dx)):
        raise ParameterError(f"dx must be positive, got {dx}")
    if not (0.0 < eps_trunc < 1.0):
        raise ParameterError(f"eps_trunc must lie in (0, 1), got {eps_trunc}")

    radius = kernel.truncation_radius(eps_trunc)
    J = int(math.ceil(radius / dx - 1e-12))
    if J < 1:
        raise DegenerateKernelError(
            f"dx={dx} exceeds the kernel support radius {radius}; "
            "all mass would land on one cell"
        )
    offsets = np.arange(-J, J + 1) * dx
    w = kernel.cell_masses(offsets, dx)
    if w.sum() <= 0 or np.all(w[np.arange(-J, J + 1) != 0] == 0.0):
        raise DegenerateKernelError(
            f"dx={dx} is too coarse for the kernel; only the center cell "
            "carries mass"
        )
    w = 0.5 * (w + w[::-1])
    w = w / w.sum()
    # force the sum to exactly 1.0 by absorbing the rounding into the center
    for _ in range(3):
        defect = 1.0 - w.sum()
        if defect == 0.0:
            break
        w[J] += defect
    # read-only, so the spectra cached on the DiscreteKernel cannot go stale
    w.flags.writeable = False
    return DiscreteKernel(weights=w, dx=float(dx))


@dataclass
class HypothesisReport:
    """Pass/fail record for the dispersal-kernel hypotheses."""

    finite_mgf: bool
    symmetric_nonnegative: bool
    violations: list
    notes: list

    @property
    def passed(self) -> bool:
        return self.finite_mgf and self.symmetric_nonnegative


def validate_hypotheses(kernel: Kernel) -> HypothesisReport:
    """Check finite-MGF (all exponents) and symmetry/nonnegativity."""
    violations = []
    notes = []

    finite = kernel.mgf_finite_everywhere
    if not finite:
        violations.append(
            "(H2) MGF not finite for all exponents: kernel has unbounded support"
        )

    symmetric = True
    if isinstance(kernel, TableKernel):
        dens = kernel.densities
        if np.any(dens < 0):
            symmetric = False
            violations.append("(H3) negative density values")
        if np.max(np.abs(dens - dens[::-1])) > 0:
            symmetric = False
            violations.append("(H3) density table is asymmetric")
        if kernel.symmetrized:
            notes.append("input table was asymmetric; symmetrized on construction")
    # built-in families are symmetric and nonnegative by construction

    return HypothesisReport(
        finite_mgf=finite,
        symmetric_nonnegative=symmetric,
        violations=violations,
        notes=notes,
    )
