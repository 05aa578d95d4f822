"""Two-species Ricker competition on a 1-D line.

Simulation of the dispersal-growth recursion, variational spreading
speeds of its monostable subsystems, desk-scale verification of the
monotone-operator properties, and location of the monotone front
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
    axiom_errors,
    compare,
    constant_state,
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
    mgf,
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
    ProfileTolerances,
    ProfileValidation,
    WaveOptions,
    WaveProfile,
    find_bistable_wave,
    step_initial_data,
    validate_profile,
    wave_grid,
    wave_residual,
)

__version__ = "0.1.0"
