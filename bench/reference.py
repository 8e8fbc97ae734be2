"""A fixed numpy/scipy kernel that measures how fast the host runs right now.

usage: python3 reference.py

Runs the kinds of work hartreekit spends its time on (complex FFT round trips
and full-grid complex exponentials at 32^3 and 64^3, one worker) for a fixed
number of iterations, REPEATS times, and prints {"ref_s": median seconds}.
It uses no hartreekit code, so a change to the package cannot move it; only
the host's speed can.
"""

import json
import statistics
import time

import numpy as np
import scipy.fft as sfft

# (points per axis, iterations); about 0.3 s per repeat on a 2-vCPU Xeon VM when the host is quiet
PLAN = ((32, 60), (64, 6))
REPEATS = 3


def kernel(n: int, iterations: int) -> None:
    axis = np.linspace(-1.0, 1.0, n)
    r2 = axis[:, None, None] ** 2 + axis[None, :, None] ** 2 + axis[None, None, :] ** 2
    u = np.exp(-4.0 * r2) + 0j
    for _ in range(iterations):
        w = sfft.ifftn(np.exp(-0.01j * r2) * sfft.fftn(u, workers=1), workers=1)
        u = w * np.exp(0.01j * (w.real * w.real + w.imag * w.imag))


def timed() -> float:
    t0 = time.perf_counter()
    for n, iterations in PLAN:
        kernel(n, iterations)
    return time.perf_counter() - t0


if __name__ == "__main__":
    print(json.dumps({"ref_s": statistics.median(timed() for _ in range(REPEATS))}))
