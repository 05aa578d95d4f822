"""Two-species Ricker competition on a 1-D line.

Simulation of the dispersal-growth recursion, variational spreading
speeds of its monostable subsystems, checks of the hypotheses the
monotone-operator theory rests on, and location of the monotone front
connecting the two stable states.
"""

from .errors import (
    CertificateError,
    ConfigError,
    ConvergenceError,
    DegenerateDataError,
    DegenerateKernelError,
    DomainError,
    MeasurementError,
    ParameterError,
    RangeError,
    SearchError,
)
from .evolution import (
    Grid,
    SpatialState,
    apply_Q,
    compare,
    convolve_extended,
    interior_slice,
    iterate,
    translate,
)
from .kernels import (
    DiscreteKernel,
    GaussianKernel,
    Kernel,
    TableKernel,
    UniformKernel,
    discretize,
    make_kernel,
    validate_hypotheses,
)
from .model import (
    ORIGINAL_FRAME,
    TRANSFORMED_FRAME,
    EquilibriumSet,
    ModelParams,
    StabilityCertificate,
    change_coordinates,
    classify_stability,
    eigenvalues_2x2,
    equilibria,
    growth,
    jacobian,
    pointwise_map,
    strong_stability_vectors,
    validate_params,
)
from .speeds import (
    CounterPropagationReport,
    FrontSpeedReport,
    SpeedReport,
    counter_propagation,
    front_position,
    linearization_matrix,
    measure_front_speed,
    scalar_speed,
    system_speed_bound,
)
from .waves import (
    ProfileValidation,
    WaveOptions,
    WaveProfile,
    find_bistable_wave,
    step_initial_data,
    validate_profile,
    wave_residual,
)

__version__ = "0.1.0"
