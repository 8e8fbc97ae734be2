"""Kernel micro-timings at 32^3 and 64^3, for the traced run.

The numbers are medians of repeated calls on warm caches, in milliseconds.
A 64^3 complex array is 4 MiB; on a host whose last-level cache holds it,
the FFT figures say nothing about memory bandwidth, so only the computed
flops and bytes are reported next to them, never a roofline ratio.
"""

from __future__ import annotations

import math
import statistics
import time

SIZES = (32, 64)
GAMMA = 2.5
BUDGET_S = 0.25  # per kernel and size, after at least MIN_REPS calls
MIN_REPS = 5


def fft_cost(n: int) -> dict:
    """Computed flops (5 N log2 N) and bytes (one read, one write) of one transform of n^3 points."""
    size = n**3
    flops = 5.0 * size * math.log2(size)
    return {
        "fftn": {"flops": flops, "bytes": 2 * size * 16},
        "rfftn": {"flops": flops / 2.0, "bytes": size * 8 + n * n * (n // 2 + 1) * 16},
    }


def _median_ms(fn) -> float:
    fn()  # fills grid caches (Riesz multiplier, tail mask) outside the timing
    times = []
    stop = time.perf_counter() + BUDGET_S
    while len(times) < MIN_REPS or time.perf_counter() < stop:
        t0 = time.perf_counter()
        fn()
        times.append(time.perf_counter() - t0)
    return statistics.median(times) * 1e3


def time_kernels() -> dict:
    import numpy as np
    import scipy.fft as sfft

    from hartreekit.evolve import EvolveConfig, detect_blowup, strang_step
    from hartreekit.functionals import take_snapshot
    from hartreekit.potentials import PotentialSpec
    from hartreekit.spectral import Field, Grid

    zero = PotentialSpec(kind="zero")
    dt = 1e-3
    out = {}
    for n in SIZES:
        grid = Grid(3, n, 10.0)
        u = Field(grid, 0.3 * np.exp(-grid.r_sq / 8.0) * np.exp(-0.1j * grid.r_sq))
        density = (u.values * u.values.conj()).real
        ecfg = EvolveConfig(grid=grid, gamma=GAMMA)
        gsq0 = take_snapshot(u, 0.0, None, None, GAMMA).grad_sq
        kernels = {
            "spectral.fftn_ms": lambda: sfft.fftn(u.values, workers=1),
            "spectral.rfftn_ms": lambda: sfft.rfftn(density, workers=1),
            "evolve.strang_step_ms": lambda: strang_step(u, dt, zero, GAMMA),
            "functionals.take_snapshot_ms": lambda: take_snapshot(u, 0.0, None, None, GAMMA),
            "evolve.detect_blowup_ms": lambda: detect_blowup(u, gsq0, ecfg),
            "evolve.kinetic_exp_ms": lambda: np.exp(-1j * (0.5 * dt) * grid.k_sq),
            "evolve.phase_exp_ms": lambda: np.exp(1j * dt * density),
        }
        for name, fn in kernels.items():
            out[f"{name}.{n}"] = _median_ms(fn)
    return out
