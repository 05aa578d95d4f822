"""Dispersal kernels: densities, moments, discretization.

Built-in families are the Gaussian (closed-form MGF, finite for every
exponent) and the symmetric uniform density on [-a, a].  Arbitrary tabulated
densities on a symmetric uniform grid are supported as well; tables are
symmetrized and normalized on construction, so every kernel is symmetric and
nonnegative, and every MGF is finite (a table is a finite lattice):
``validate_hypotheses`` refuses only what is not a kernel.  Two Gaussian or
two uniform kernels are equal when their shapes are; a table or a
discretized kernel equals only itself.
"""

from __future__ import annotations

import math
from collections import namedtuple
from functools import cached_property

from .errors import DegenerateKernelError, ParameterError, RangeError, _is_number

TYPE_CHECKING = False  # True to a type checker; spares importing typing
if TYPE_CHECKING:
    import numpy as np

# exp() overflows float64 just above 709.78
_EXP_ARG_MAX = 709.0

# coth x - 1/x = sum a_n x^(2n-1) with a_n = 2^(2n) B_2n / (2n)!, and its
# derivative 1/x^2 - 1/sinh^2 x = sum (2n - 1) a_n x^(2n-2): the pairs
# (a_n, (2n - 1) a_n), highest order first, for Horner's rule below _SERIES_X
_SERIES_X = 0.4
_LANGEVIN_SERIES = (
    (87734 / 38979295480125, 87734 / 2292899734125),
    (-3617 / 162820783125, -3617 / 10854718875),
    (4 / 18243225, 4 / 1403325),
    (-1382 / 638512875, -1382 / 58046625),
    (2 / 93555, 2 / 10395),
    (-1 / 4725, -1 / 675),
    (2 / 945, 2 / 189),
    (-1 / 45, -1 / 15),
    (1 / 3, 1 / 3),
)

DEFAULT_TRUNCATION = 1e-12

# each field on a grid this size is 80 MB; the default grid has 4001 points
# and dx=0.01 gives 40001, so a larger grid points to a typo in dx or L.
# A discretized kernel's 2J + 1 weights are held to the same cap.
MAX_GRID_POINTS = 10**7


class Kernel:
    """Symmetric dispersal density with unit mass and an MGF.

    Subclasses give the density, the moments and the radius holding all but
    DEFAULT_TRUNCATION of the mass (the support radius itself for compactly
    supported densities).
    """

    __slots__ = ()

    def density(self, y):
        raise NotImplementedError

    def moments(self, mu: float) -> tuple:
        """(M, mean, variance) at mu: the MGF M(mu), and the mean and variance
        of the density tilted by exp(mu y), which are the first two
        derivatives of ln M.  Raises RangeError where M overflows.  At
        mu = 0 a Gaussian or uniform kernel returns its constant terms,
        the bits its general formula gives there."""
        raise NotImplementedError

    def truncation_radius(self) -> float:
        """Radius R with less than DEFAULT_TRUNCATION of the mass outside [-R, R]."""
        raise NotImplementedError

    def cell_masses(self, offsets: np.ndarray, dx: float) -> np.ndarray:
        """Mass of each cell [y - dx/2, y + dx/2]; the midpoint rule density(y)*dx."""
        return self.density(offsets) * dx


class _ShapeKernel(Kernel):
    """A kernel that is the tuple of its one width parameter (a namedtuple base).

    It equals and hashes as a kernel of the same family and shape:
    ``GaussianKernel(1.0) != UniformKernel(1.0)``, though both are (1.0,).
    """

    __slots__ = ()

    def __new__(cls, *args, **kwargs):
        self = super().__new__(cls, *args, **kwargs)
        (width,) = self
        # the variance, a multiple of width^2, must be a float too
        if not (_is_number(width) and width > 0 and math.isfinite(width * width)):
            raise ParameterError(
                f"{cls.__name__.removesuffix('Kernel').lower()} {cls._fields[0]} "
                f"must be positive with a finite square, got {width!r}")
        return self

    def __eq__(self, other):
        return type(self) is type(other) and tuple.__eq__(self, other)

    def __ne__(self, other):
        return not self == other

    __hash__ = tuple.__hash__


class GaussianKernel(_ShapeKernel, namedtuple("GaussianKernel", "sigma")):
    __slots__ = ()

    def density(self, y):
        import numpy as np
        y = np.asarray(y, dtype=float)
        s = self.sigma
        return np.exp(-0.5 * (y / s) ** 2) / (s * math.sqrt(2.0 * math.pi))

    def moments(self, mu: float) -> tuple:
        variance = self.sigma * self.sigma
        if not mu:
            return 1.0, variance * mu, variance
        # |sigma mu| is bounded before the power, which raises OverflowError
        # rather than giving inf once it passes ~1.3e154
        s = self.sigma * mu
        arg = 0.5 * s ** 2 if abs(s) <= _EXP_ARG_MAX else math.inf
        if not arg <= _EXP_ARG_MAX:
            raise RangeError(f"gaussian MGF overflows at mu={mu}")
        return math.exp(arg), variance * mu, variance

    def truncation_radius(self) -> float:
        # two-sided tail mass outside [-R, R] is 2*Phi(-R/sigma), and
        # 7.1305... is -Phi^-1(DEFAULT_TRUNCATION / 2)
        return self.sigma * 7.130506848171323


class UniformKernel(_ShapeKernel, namedtuple("UniformKernel", "halfwidth")):
    __slots__ = ()

    def density(self, y):
        import numpy as np
        y = np.asarray(y, dtype=float)
        return np.where(np.abs(y) <= self.halfwidth, 0.5 / self.halfwidth, 0.0)

    def moments(self, mu: float) -> tuple:
        # with x = a mu: M = sinh x / x, and the mean and variance
        # a (coth x - 1/x) and a^2 (1/x^2 - 1/sinh^2 x), which cancel as
        # x -> 0; below _SERIES_X their Taylor series, to within 5e-15
        # relative of both.  At x = 0 (mu = 0, or a mu underflowed) the
        # series are their constant terms, 1/3 each
        a = self.halfwidth
        x = a * mu
        if not x:
            return 1.0, a * x * (1 / 3), a * a * (1 / 3)
        if not abs(x) <= _EXP_ARG_MAX:
            raise RangeError(f"uniform MGF overflows at mu={mu}")
        sinh = math.sinh(x)
        mgf = sinh / x
        if abs(x) < _SERIES_X:
            z = x * x
            mean = variance = 0.0
            for c_mean, c_variance in _LANGEVIN_SERIES:
                mean = mean * z + c_mean
                variance = variance * z + c_variance
            return mgf, a * x * mean, a * a * variance
        return (mgf, a * (1.0 / math.tanh(x) - 1.0 / x),
                a * a * (1.0 / (x * x) - 1.0 / (sinh * sinh)))

    def truncation_radius(self) -> float:
        return self.halfwidth

    def cell_masses(self, offsets: np.ndarray, dx: float) -> np.ndarray:
        # exact: each cell's overlap with [-a, a], so the end cells carry
        # their fraction of a cell rather than a full one
        import numpy as np
        a = self.halfwidth
        overlap = np.minimum(offsets + 0.5 * dx, a) - np.maximum(offsets - 0.5 * dx, -a)
        return np.maximum(overlap, 0.0) / (2.0 * a)


class TableKernel(Kernel):
    """Density tabulated on a symmetric uniform grid of offsets.

    Samples are symmetrized (average with their mirror) and normalized so
    that the rectangle-rule mass spacing * sum(densities) is exactly one;
    the stored offsets and densities are exact mirrors and read-only.  A
    table equals and hashes as itself only, so two species share a table
    kernel exactly when they hold one object.
    """

    def __init__(self, offsets: np.ndarray, densities: np.ndarray):
        import numpy as np
        offsets = np.asarray(offsets, dtype=float)
        dens = np.asarray(densities, dtype=float)
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
        offsets = h * np.arange(-J, J + 1)
        for array in (offsets, sym):
            array.flags.writeable = False
        self.offsets = offsets
        self.densities = sym
        # whether the input table was asymmetric, and the step h of the
        # offsets h * (-J..J), so offsets[j] == (j - J) * spacing
        self.symmetrized = was_asymmetric
        self.spacing = float(h)

    def density(self, y):
        import numpy as np
        y = np.asarray(y, dtype=float)
        return np.interp(y, self.offsets, self.densities, left=0.0, right=0.0)

    def moments(self, mu: float) -> tuple:
        mass, mean, variance = _lattice_moments(self.offsets, self.densities, mu, "table")
        return self.spacing * mass, mean, variance

    def truncation_radius(self) -> float:
        return float(self.offsets[-1])


def _lattice_moments(offsets: np.ndarray, weights: np.ndarray, mu: float, name: str) -> tuple:
    """(sum of w e^(mu y), mean, variance) of weights w at offsets y that are
    exact mirrors about their centre entry.

    Four weighted sums over the uniform offsets y = (j - J) h: the tilted
    mass; the mean, each mirror pair folded into one sinh (the pairs cancel
    as mu -> 0); and the second moment about the offset y_k nearest the
    mean, less d^2 for d = mean - y_k summed directly.  Each y - y_k is
    zero at y_k and correct to rounding elsewhere, so the variance keeps its
    relative precision when the tilt puts nearly all the mass on y_k.  A
    |mu| above _EXP_ARG_MAX / max(y) raises RangeError, so that quotient
    itself, where ``waves._decay_rate`` may start, is always a safe exponent.
    """
    import numpy as np
    if not abs(mu) <= _EXP_ARG_MAX / offsets[-1]:
        raise RangeError(f"{name} MGF overflows at mu={mu}")
    # ndarray.sum skips np.sum's dispatch, which outweighs a short sum
    tilted = weights * np.exp(mu * offsets)
    mass = float(tilted.sum())
    centre = offsets.size // 2
    y = offsets[centre + 1:]
    mean = float(2.0 * (weights[centre + 1:] * y * np.sinh(mu * y)).sum() / mass)
    # |mean| <= max(y), so y_k is one of the offsets; a float quotient
    # rounds faster than a numpy scalar's
    dy = offsets - offsets[centre + round(mean / float(y[0]))]
    d = float((tilted * dy).sum()) / mass
    return mass, mean, float((tilted * dy ** 2).sum()) / mass - d * d


_SHAPE_PARAMETERS = ("sigma", "halfwidth", "offsets", "densities")


def make_kernel(family: str, **spec) -> Kernel:
    """Build a kernel from a family name and its shape parameters.

    gaussian: sigma; uniform: halfwidth; table: offsets and densities.  The
    other families' parameters are ignored, so one shared spec can serve
    any family; a missing (or None) parameter of the family and a name no
    family uses raise ParameterError.
    """
    name = family.strip().lower() if isinstance(family, str) else None
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
        return GaussianKernel(sigma=need("sigma"))
    if name == "uniform":
        return UniformKernel(halfwidth=need("halfwidth"))
    return TableKernel(offsets=need("offsets"), densities=need("densities"))


class DiscreteKernel:
    """Quadrature weights of a kernel on a uniform grid.

    Weights sit at integer cell offsets -J..J with spacing dx, are exactly
    symmetric, nonnegative, and sum to one, so constants are exact fixed
    points of the induced discrete convolution.  ``spectra`` maps a
    transform length to the real-FFT spectrum of the weights, so field
    lengths that share a transform length share one spectrum; it is filled
    by ``evolution.convolve_extended``.  It equals and hashes as itself only.
    """

    def __init__(self, weights: np.ndarray, dx: float):
        self.weights = weights
        self.dx = dx
        self.spectra = {}

    @property
    def half_width(self) -> int:
        """J: weights span cells -J..J."""
        return (len(self.weights) - 1) // 2

    @cached_property
    def offsets(self) -> np.ndarray:
        """The offsets j dx of the weights, j = -J..J: built once, read-only."""
        import numpy as np
        offsets = self.dx * np.arange(-self.half_width, self.half_width + 1)
        offsets.flags.writeable = False
        return offsets

    def moments(self, mu: float) -> tuple:
        """(M, mean, variance) of the weights at ``offsets``, as ``Kernel.moments``."""
        return _lattice_moments(self.offsets, self.weights, mu, "discrete")


def discretize(kernel: Kernel, dx: float) -> DiscreteKernel:
    """Cell masses at offsets j dx, symmetrized and normalized.

    The masses are ``kernel.cell_masses``: the midpoint rule l(j dx) dx,
    exact overlaps for the uniform kernel.

    The half width J is chosen so the kernel's mass outside [-J dx, J dx]
    is below DEFAULT_TRUNCATION before normalization; a dx so fine that the
    2J + 1 weights exceed ``MAX_GRID_POINTS`` raises ParameterError.
    """
    if not (_is_number(dx) and dx > 0 and math.isfinite(dx)):
        raise ParameterError(f"dx must be positive and finite, got {dx!r}")

    radius = kernel.truncation_radius()
    # J <= (MAX_GRID_POINTS - 1) // 2 exactly when 2J + 1 <= MAX_GRID_POINTS;
    # the test also rejects an infinite ratio before ceil() sees it
    if not radius / dx - 1e-12 <= (MAX_GRID_POINTS - 1) // 2:
        raise ParameterError(
            f"dx={dx} is too fine for the kernel: its half width J would be "
            f"{radius / dx:.4g} cells, and 2J + 1 weights exceed the "
            f"{MAX_GRID_POINTS} grid points allowed (raise dx)")
    J = int(math.ceil(radius / dx - 1e-12))
    if J < 1:
        raise DegenerateKernelError(
            f"dx={dx} exceeds the kernel support radius {radius}; "
            "all mass would land on one cell"
        )
    import numpy as np
    # a Fraction or an int computes as the float it names
    offsets = np.arange(-J, J + 1) * float(dx)
    w = kernel.cell_masses(offsets, float(dx))
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


def validate_hypotheses(kernel: Kernel) -> None:
    """Check that kernel is a ``Kernel``, which has a finite MGF (H2) and is
    symmetric and nonnegative (H3) by construction; anything else, a
    ``DiscreteKernel`` included, raises ParameterError naming its type."""
    if not isinstance(kernel, Kernel):
        raise ParameterError(f"expected a Kernel, got {type(kernel).__name__}")
