"""Acceptance gate: every criterion at its stated tolerance.

Each test prints one PASS/FAIL line (visible with pytest -s or on
failure) and asserts the collected violations are empty.
"""

import itertools
import math

import numpy as np

from rickerwaves import (
    GaussianKernel,
    Grid,
    ModelParams,
    SpatialState,
    convolve_extended,
    counter_propagation,
    discretize,
    eigenvalues_2x2,
    equilibria,
    classify_stability,
    find_bistable_wave,
    interior_slice,
    jacobian,
    linearization_matrix,
    measure_front_speed,
    pointwise_map,
    scalar_speed,
    strong_stability_vectors,
    validate_profile,
    WaveOptions,
)
from rickerwaves.model import ORIGINAL_FRAME, TRANSFORMED_FRAME

from conftest import axiom_errors, trajectory

P_STD = ModelParams(r1=0.5, r2=0.5, a1=2.0, a2=3.0)
GAUSS = GaussianKernel(sigma=1.0)
# README-config front speed on Grid(200, 0.1), solved to tolerances 1e-12
C_CONVERGED = 0.11896981135981706


def report(number, description, failures):
    status = "PASS" if not failures else "FAIL"
    print(f"ACCEPTANCE {number}: {status} - {description}")
    assert not failures, failures


def test_criterion_1_equilibria():
    failures = []
    eq = equilibria(P_STD)
    if abs(eq.k1 - 0.2) > 1e-15 or abs(eq.k2 - 0.4) > 1e-15:
        failures.append(f"coexistence coordinates {eq.k1}, {eq.k2}")
    if abs(eq.F2[0] - 0.8) > 1e-15 or abs(eq.F2[1] - 0.4) > 1e-15:
        failures.append(f"F2 {eq.F2}")
    for name, pt in eq.original().items():
        image = pointwise_map(P_STD, pt, ORIGINAL_FRAME)
        resid = max(abs(image[0] - pt[0]), abs(image[1] - pt[1]))
        if resid >= 1e-12:
            failures.append(f"{name} residual {resid}")
    for name, pt in eq.transformed().items():
        image = pointwise_map(P_STD, pt, TRANSFORMED_FRAME)
        resid = max(abs(image[0] - pt[0]), abs(image[1] - pt[1]))
        if resid >= 1e-12:
            failures.append(f"{name} residual {resid}")
    report(1, "equilibria and fixed-point residuals < 1e-12", failures)


def test_criterion_2_stability_table():
    failures = []
    eq = equilibria(P_STD)
    expected = {
        ("F0", TRANSFORMED_FRAME): "stable", ("F1", TRANSFORMED_FRAME): "unstable",
        ("F2", TRANSFORMED_FRAME): "unstable", ("F3", TRANSFORMED_FRAME): "stable",
        ("E0", ORIGINAL_FRAME): "unstable", ("E1", ORIGINAL_FRAME): "stable",
        ("E2", ORIGINAL_FRAME): "stable", ("E3", ORIGINAL_FRAME): "unstable",
    }
    points = {**eq.original(), **eq.transformed()}
    for (name, frame), label in expected.items():
        got = classify_stability(P_STD, points[name], frame).label
        if got != label:
            failures.append(f"{name}: {got} != {label}")

    # independent oracle: central differences on the raw map formulas,
    # which extend smoothly beyond the unit square
    def raw_map(u, v, frame):
        p = P_STD
        if frame == ORIGINAL_FRAME:
            return (u * math.exp(p.r1 * (1 - u - p.a1 * v)),
                    v * math.exp(p.r2 * (1 - v - p.a2 * u)))
        return (1 - (1 - u) * math.exp(p.r1 * (u - p.a1 * v)),
                v * math.exp(p.r2 * (1 - p.a2 - v + p.a2 * u)))

    h = 1e-6
    for (name, frame) in expected:
        u, v = points[name]
        analytic = jacobian(P_STD, (u, v), frame)
        fd = np.empty((2, 2))
        for col, (du, dv) in enumerate(((h, 0.0), (0.0, h))):
            f_hi = raw_map(u + du, v + dv, frame)
            f_lo = raw_map(u - du, v - dv, frame)
            fd[0, col] = (f_hi[0] - f_lo[0]) / (2 * h)
            fd[1, col] = (f_hi[1] - f_lo[1]) / (2 * h)
        err = float(np.max(np.abs(analytic - fd)))
        if err >= 1e-6:
            failures.append(f"{name} jacobian FD error {err}")
    report(2, "stability labels and jacobian-vs-FD < 1e-6", failures)


def test_criterion_3_scalar_speed_closed_form():
    failures = []
    for sigma in (1.0, 2.0):
        got = scalar_speed(0.5, GaussianKernel(sigma)).value
        want = sigma * math.sqrt(2.0 * 0.5)
        if abs(got - want) >= 1e-6:
            failures.append(f"sigma={sigma}: {got} vs {want}")
    report(3, "gaussian scalar speeds within 1e-6 of closed form", failures)


def test_criterion_4_empirical_vs_variational_speed():
    failures = []
    grid = Grid(half_length=200.0, dx=0.1)
    dk = discretize(GAUSS, grid.dx)
    # with V = 0 the original-frame U update is the scalar Ricker invasion, r = r1
    start = SpatialState(grid=grid, frame=ORIGINAL_FRAME,
                         U=np.where(grid.x <= 0.0, 1.0, 0.0), V=np.zeros(grid.n_points))
    speed = measure_front_speed(
        trajectory(start, P_STD, dk, dk, 150),
        fit_window=(50, 150), margin_cells=dk.half_width,
    ).speed
    if abs(speed - 1.0) >= 0.05:
        failures.append(f"empirical speed {speed} off the variational 1.0 by >= 5%")
    report(4, f"empirical front speed {speed:.4f} within 5% of 1.0", failures)


def test_criterion_5_matrix_eigenvalue():
    failures = []
    b0 = linearization_matrix(P_STD, GAUSS, GAUSS, 0.0)
    # independent closed-form oracle for the dominant root
    tr = b0[0, 0] + b0[1, 1]
    det = b0[0, 0] * b0[1, 1] - b0[0, 1] * b0[1, 0]
    disc = tr * tr - 4.0 * det
    if abs(disc - 0.49) > 1e-12:
        failures.append(f"discriminant {disc} != 0.49")
    oracle = 0.5 * (tr + math.sqrt(disc))
    lam = eigenvalues_2x2(b0)[0]
    if abs(lam - 1.2) > 1e-12 or abs(lam - oracle) > 1e-12:
        failures.append(f"lambda(B_0) {lam} vs oracle {oracle}")

    rng = np.random.default_rng(5)
    for _ in range(20):
        p = ModelParams(
            r1=float(rng.uniform(0.05, 0.95)), r2=float(rng.uniform(0.05, 0.95)),
            a1=float(rng.uniform(1.05, 5.0)), a2=float(rng.uniform(1.05, 5.0)),
        )
        k1 = GaussianKernel(float(rng.uniform(0.3, 2.0)))
        k2 = GaussianKernel(float(rng.uniform(0.3, 2.0)))
        for mu in np.arange(0.0, 3.01, 0.5):
            lam = eigenvalues_2x2(linearization_matrix(p, k1, k2, mu))[0]
            floor = min(k1.moments(mu)[0], k2.moments(mu)[0])
            if not (lam > floor and lam > 1.0):
                failures.append(f"{p} mu={mu}: lambda {lam} <= min-MGF {floor} or <= 1")
    report(5, "lambda(B_0)=1.2 and dominance bounds on 20 random draws", failures)


def test_criterion_6_counter_propagation_lattice():
    failures = []
    got = counter_propagation(P_STD, GAUSS, GAUSS)
    if abs(got.sum_edge - 2.0) >= 1e-6:
        failures.append(f"reference edge sum {got.sum_edge} != 2.0")
    for r1, r2, a1, a2, sigma in itertools.product(
        (0.2, 0.5, 0.8), (0.2, 0.5, 0.8), (1.5, 2.0, 3.0), (1.5, 2.0, 3.0),
        (0.5, 1.0, 2.0),
    ):
        p = ModelParams(r1=r1, r2=r2, a1=a1, a2=a2)
        kernel = GaussianKernel(sigma)
        cp = counter_propagation(p, kernel, kernel)
        if not (cp.sum_edge > 0.0 and cp.sum_interior > 0.0):
            failures.append(f"{p} sigma={sigma}: sums {cp.sum_edge}, {cp.sum_interior}")
    report(6, "both counter-propagation sums positive over the 243-cell lattice", failures)


def test_criterion_7_axiom_property_suite():
    failures = []
    grid = Grid(half_length=12.0, dx=0.1)
    dk = discretize(GAUSS, grid.dx)
    rng = np.random.default_rng(7)

    # (A1) translation commutation on the interior window, shifts 3 and -11;
    # (A3) order preservation on 1000 random ordered pairs
    err, worst = axiom_errors(P_STD, dk, dk, grid, rng, shifts=(3, -11), pairs=1000)
    if err > 1e-12:
        failures.append(f"(A1) commutation error {err}")
    if worst > 1e-12:
        failures.append(f"(A3) order violation {worst}")

    # (A5) across the parameter lattice, by derivation: the corner Jacobians
    # contract the stated directions, and so does the map at small eta
    for r1, r2, a1, a2 in itertools.product(
        (0.2, 0.5, 0.8), (0.2, 0.5, 0.8), (1.5, 2.0, 3.0), (1.5, 2.0, 3.0)
    ):
        p = ModelParams(r1=r1, r2=r2, a1=a1, a2=a2)
        cert = strong_stability_vectors(p)
        e4_direction = np.array([1.0, 1.0 / (2.0 * a1)])
        e5_direction = np.array([1.0 / (2.0 * a2), 1.0])
        if not np.allclose(cert.e4, e4_direction / np.linalg.norm(e4_direction), atol=1e-12):
            failures.append(f"(A5) wrong lower direction at {p}")
        if not np.allclose(cert.e5, e5_direction / np.linalg.norm(e5_direction), atol=1e-12):
            failures.append(f"(A5) wrong upper direction at {p}")
        e4, e5 = np.asarray(cert.e4), np.asarray(cert.e5)
        if not np.all(np.asarray(jacobian(p, (0.0, 0.0), TRANSFORMED_FRAME)) @ e4 < e4):
            failures.append(f"(A5) J(F0) e4 < e4 fails at {p}")
        if not np.all(np.asarray(jacobian(p, (1.0, 1.0), TRANSFORMED_FRAME)) @ e5 < e5):
            failures.append(f"(A5) J(F3) e5 < e5 fails at {p}")
        if not min(cert.margins) > 0.0:
            failures.append(f"(A5) margins {cert.margins} at {p}")
        for eta in (0.25, 0.125, 0.0625):
            low = tuple(eta * e4)
            high = tuple(1.0 - eta * e5)
            image_low = pointwise_map(p, low, TRANSFORMED_FRAME)
            image_high = pointwise_map(p, high, TRANSFORMED_FRAME)
            if not (image_low[0] < low[0] and image_low[1] < low[1]):
                failures.append(f"(A5) eta {eta} e4 not pulled toward F0 at {p}")
            if not (image_high[0] > high[0] and image_high[1] > high[1]):
                failures.append(f"(A5) 1 - eta {eta} e5 not pulled toward F3 at {p}")
    report(7, "(A1)/(A3) within 1e-12 and (A5) contracting over the lattice", failures)


def test_criterion_8_bistable_wave_desk_scale():
    failures = []
    grid = Grid(half_length=200.0, dx=0.1)
    wp = find_bistable_wave(P_STD, GAUSS, GAUSS, grid)
    win = interior_slice(grid, wp.kernel_half_width)
    if float(np.min(np.diff(wp.phi[win]))) < -1e-10 or float(np.min(np.diff(wp.psi[win]))) < -1e-10:
        failures.append("profile not monotone within 1e-10")
    band = max(1, int(0.1 * (win.stop - win.start)))
    tails = [
        float(np.max(wp.phi[win][:band])), float(np.max(wp.psi[win][:band])),
        float(np.max(1.0 - wp.phi[win][-band:])), float(np.max(1.0 - wp.psi[win][-band:])),
    ]
    if max(tails) >= 1e-3:
        failures.append(f"tail deviation {max(tails)} >= 1e-3")
    if wp.residual >= 1e-4:
        failures.append(f"residual {wp.residual} >= 1e-4")
    if abs(wp.speed - C_CONVERGED) >= 1e-7:
        failures.append(f"speed {wp.speed} not within 1e-7 of {C_CONVERGED}")
    if not wp.speed_error < WaveOptions().speed_tol:
        failures.append(f"speed error {wp.speed_error} >= speed_tol")
    if not validate_profile(wp).passed:
        failures.append("validation report failed")

    symmetric = find_bistable_wave(
        ModelParams(0.5, 0.5, 2.0, 2.0), GAUSS, GAUSS, grid
    )
    if abs(symmetric.speed) >= 1e-8:
        failures.append(f"symmetric speed {symmetric.speed} not within 1e-8 of zero")
    report(8, f"bistable wave located (speed {wp.speed:.9f}, within 1e-7 of the converged "
           f"speed); symmetric case |c| < 1e-8", failures)


def test_criterion_9_convolution_cross_check():
    failures = []
    rng = np.random.default_rng(9)
    dk = discretize(GAUSS, 0.1)
    worst = 0.0
    for _ in range(100):
        values = rng.uniform(0.0, 1.0, 501)
        fast = convolve_extended(values, dk, "fft")
        direct = convolve_extended(values, dk, "direct")
        worst = max(worst, float(np.max(np.abs(fast - direct))))
    if worst > 1e-10:
        failures.append(f"fast/direct disagreement {worst}")
    report(9, f"fast vs direct convolution agree to 1e-10 (worst {worst:.2e})", failures)
