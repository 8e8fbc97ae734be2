"""Self-tests of the benchmark's span wrappers.  Run: python3 -m pytest bench"""

import os
import sys

import numpy as np

BENCH = os.path.dirname(os.path.abspath(__file__))
sys.path[:0] = [BENCH, os.path.join(os.path.dirname(BENCH), "src")]

from spans import Tracer, summarize  # noqa: E402

from hartreekit.potentials import PotentialSpec  # noqa: E402
from hartreekit.spectral import Field, Grid  # noqa: E402


def _traced(fn):
    tracer = Tracer()
    tracer.install()
    try:
        fn()
    finally:
        tracer.uninstall()
    return tracer


def _fft_by_layer(m):
    return sum(v for k, v in m.items() if k.startswith("spectral.fft_calls."))


def test_strang_step_is_six_complex_ffts():
    grid = Grid(3, 32, 10.0)
    u = Field(grid, 0.3 * np.exp(-grid.r_sq / 8.0) + 0j)
    zero = PotentialSpec(kind="zero")
    tracer = _traced(lambda: sys.modules["hartreekit.evolve"].strang_step(u, 1e-3, zero, 2.5))
    m = summarize(tracer, 1.0, grid.points)
    assert m["spectral.fft_calls"] == 6
    assert m["spectral.rfft_calls"] == 0
    assert m["spectral.fft_calls.evolve"] == 6


def test_layer_fft_counts_sum_to_total(tmp_path):
    cfg_path = tmp_path / "run.cfg"
    cfg_path.write_text(
        "[run]\nmode = full_pipeline\n[grid]\npoints = 16\n"
        "[initial_data]\nkind = gaussian\namplitude = 0.2\nwidth = 1.5\n"
        "[evolve]\nt_max = 0.02\nrecord_stride = 1\n"
    )

    def pipeline():
        config, runner = sys.modules["hartreekit.config"], sys.modules["hartreekit.runner"]
        cfg = config.parse_config(str(cfg_path), overrides={("run", "out"): str(tmp_path / "out")})
        assert runner.run(cfg) == 0

    spectral = sys.modules["hartreekit.spectral"]
    fftn = spectral.fftn
    tracer = _traced(pipeline)
    assert spectral.fftn is fftn  # uninstall restores every binding
    m = summarize(tracer, 1.0, 16)
    assert m["spectral.fft_calls"] > 0
    assert _fft_by_layer(m) == m["spectral.fft_calls"] + m["spectral.rfft_calls"]
    for layer in ("ground_state", "functionals", "evolve"):
        assert m[f"spectral.fft_calls.{layer}"] > 0
    assert m["evolve.steps_accepted"] >= 1
    assert m["runner.evolve_s"] > 0 and m["config.parse_s"] > 0
