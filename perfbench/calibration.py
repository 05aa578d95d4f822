"""Machine-speed calibration of the end-to-end timings.

The benchmark shares its machine with other work.  On the 2-core reference
machine the same code ran up to 1.6 times slower from one minute to the
next, and raw timings of identical runs spread by a quarter.  So before
every operation the benchmark times a fixed kernel that resembles the
program's own work: element-wise numpy arithmetic and a direct convolution
on a 4001-point field, an FFT round trip, and an interpreter loop.  Each
operation's timing is multiplied by ``NOMINAL_S`` over the median kernel
time around it, which states it at the reference machine's idle speed.
The kernel uses numpy only, never rickerwaves, so no change to the program
moves it.  Raw timings are kept in the full record beside the scaled ones.
Scaling each operation by the samples around it, rather than by one factor
per pass, also steadies the tail: on ten wave_map runs the spread of the
tail fell from 0.14 to 0.05 of its median.
"""

from __future__ import annotations

import statistics
import time

import numpy as np

# median kernel time on the reference machine when otherwise idle
NOMINAL_S = 1.0e-3
SAMPLES_PER_OPERATION = 3
WINDOW = 5

_X = np.linspace(-1.0, 1.0, 4001)
_W = np.full(145, 1.0 / 145)


def _kernel() -> float:
    start = time.perf_counter()
    for _ in range(4):
        y = np.exp(0.5 * _X) * (1.0 - _X)
        np.convolve(y, _W, "valid")
        np.fft.irfft(np.fft.rfft(y, 8192))
    total = 0
    for i in range(3000):
        total += i * i
    return time.perf_counter() - start


def sample() -> list:
    """Kernel timings taken just before one operation."""
    return [_kernel() for _ in range(SAMPLES_PER_OPERATION)]


def scales(samples_by_op) -> list:
    """One factor per operation that states its timing at idle speed.

    ``samples_by_op[i]`` holds the samples taken just before operation i,
    and the last entry those taken after the last operation.  An operation
    is scaled by the median of the samples around it, up to ``WINDOW``
    operations on each side, so a slow spell is matched where it happened.
    """
    factors = []
    for i in range(len(samples_by_op) - 1):
        near = samples_by_op[max(0, i - WINDOW): i + WINDOW + 2]
        factors.append(NOMINAL_S / statistics.median(t for taken in near for t in taken))
    return factors
