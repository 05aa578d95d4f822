import numpy as np
import pytest

from rickerwaves import GaussianKernel, Grid, ModelParams, UniformKernel, discretize

# the `pytester` fixture runs inner pytest sessions (tests/test_warning_gate.py)
pytest_plugins = ["pytester"]


@pytest.fixture
def params():
    return ModelParams(r1=0.5, r2=0.5, a1=2.0, a2=3.0)


@pytest.fixture
def gaussian():
    return GaussianKernel(sigma=1.0)


@pytest.fixture
def uniform():
    return UniformKernel(halfwidth=1.0)


@pytest.fixture
def small_grid():
    return Grid(half_length=20.0, dx=0.1)


@pytest.fixture
def gaussian_weights(gaussian):
    return discretize(gaussian, 0.1)


@pytest.fixture
def rng():
    return np.random.default_rng(20240817)


def random_admissible(rng, r_lo=0.2, r_hi=0.9, a_lo=1.3, a_hi=4.0):
    return ModelParams(
        r1=float(rng.uniform(r_lo, r_hi)),
        r2=float(rng.uniform(r_lo, r_hi)),
        a1=float(rng.uniform(a_lo, a_hi)),
        a2=float(rng.uniform(a_lo, a_hi)),
    )
