"""Two-species Ricker competition on a 1-D line.

Simulation of the dispersal-growth recursion, variational spreading
speeds of its monostable subsystems, checks of the hypotheses the
monotone-operator theory rests on, and location of the monotone front
connecting the two stable states.

The errors load with the package; any other exported name loads its module
on first use (PEP 562), so numpy loads with the first grid, array or table.
"""

import importlib

from .errors import (CertificateError, ConfigError, ConvergenceError, DegenerateDataError,
                     DegenerateKernelError, DomainError, MeasurementError, ParameterError,
                     RangeError, SearchError)

__version__ = "0.1.0"

# exported name -> the module that defines it
_MODULE_OF = {name: module for module, names in {
    "evolution": ("Grid", "SpatialState", "apply_Q", "compare", "convolve_extended",
                  "interior_slice", "step_initial_data", "translate"),
    "kernels": ("DiscreteKernel", "GaussianKernel", "Kernel", "TableKernel", "UniformKernel",
                "discretize", "make_kernel", "validate_hypotheses"),
    "model": ("ORIGINAL_FRAME", "TRANSFORMED_FRAME", "EquilibriumSet", "ModelParams",
              "StabilityCertificate", "change_coordinates", "classify_stability",
              "eigenvalues_2x2", "equilibria", "growth", "jacobian", "pointwise_map",
              "strong_stability_vectors", "validate_params"),
    "speeds": ("CounterPropagationReport", "FrontSpeedReport", "SpeedReport",
               "counter_propagation", "front_position", "linearization_matrix",
               "measure_front_speed", "scalar_speed", "system_speed_bound"),
    "waves": ("ProfileValidation", "WaveOptions", "WaveProfile", "find_bistable_wave",
              "validate_profile", "wave_residual"),
}.items() for name in names}


def __getattr__(name):
    module = _MODULE_OF.get(name)
    if module is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(importlib.import_module(f".{module}", __name__), name)
    globals()[name] = value
    return value


def __dir__():
    return sorted({*globals(), *_MODULE_OF})
