import numpy as np
import pytest

from rickerwaves import (
    GaussianKernel,
    Grid,
    ModelParams,
    SpatialState,
    UniformKernel,
    apply_Q,
    discretize,
    interior_slice,
    translate,
)
from rickerwaves.model import TRANSFORMED_FRAME

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


def constant_state(grid, frame, point, step=0):
    """Spatially homogeneous state at the given point."""
    u, v = point
    return SpatialState(grid=grid, frame=frame, U=np.full(grid.n_points, float(u)),
                        V=np.full(grid.n_points, float(v)), step=step)


def trajectory(state, p, k1, k2, n_steps):
    """The state and its images under n_steps steps of apply_Q, in step order."""
    states = [state]
    for _ in range(n_steps):
        states.append(apply_Q(states[-1], p, k1, k2))
    return states


def random_transformed(grid, rng):
    return SpatialState(
        grid=grid,
        frame=TRANSFORMED_FRAME,
        U=rng.uniform(0.0, 1.0, grid.n_points),
        V=rng.uniform(0.0, 1.0, grid.n_points),
    )


def axiom_errors(p, dk1, dk2, grid, rng, shifts=(7,), pairs=200):
    """Randomized checks of (A1) translation commutation and (A3) order preservation.

    Returns (a1_err, a3_worst): the worst interior sup error of translate(Q(s), j)
    against Q(translate(s, j)) over the shifts, and the largest entry of
    Q(lo) - Q(hi) over random ordered pairs lo <= hi (positive only when order
    is violated).  ``rng`` draws one state per shift, then two per pair.
    """
    margin = max(dk1.half_width, dk2.half_width)
    a1_err = 0.0
    for j in shifts:
        state = random_transformed(grid, rng)
        path_a = translate(apply_Q(state, p, dk1, dk2), j)
        path_b = apply_Q(translate(state, j), p, dk1, dk2)
        win = interior_slice(grid, margin + abs(j))
        a1_err = max(a1_err, float(np.max(np.abs(path_a.fields[:, win] - path_b.fields[:, win]))))

    a3_worst = 0.0
    for _ in range(pairs):
        s1 = random_transformed(grid, rng)
        s2 = random_transformed(grid, rng)
        lo = np.minimum(s1.fields, s2.fields)
        hi = np.maximum(s1.fields, s2.fields)
        q_lo = apply_Q(SpatialState(s1.grid, s1.frame, lo[0], lo[1], s1.step), p, dk1, dk2)
        q_hi = apply_Q(SpatialState(s1.grid, s1.frame, hi[0], hi[1], s1.step), p, dk1, dk2)
        a3_worst = max(a3_worst, float(np.max(q_lo.fields - q_hi.fields)))
    return a1_err, a3_worst
