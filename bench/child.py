"""One benchmark run of hartreekit in a fresh interpreter.

usage: python3 child.py SRC CONFIG OUT SPAWN_NS {run,setup,trace}

Imports hartreekit from SRC, parses CONFIG with its output directory set to
OUT, fills the grid caches the first stage would fill, then runs it through
`hartreekit.runner.run`.  SPAWN_NS is the parent's CLOCK_MONOTONIC reading just
before it started this process, so setup time includes interpreter start-up.
`setup` stops before the run.  `trace` records spans at every module
boundary, writes them to OUT.spans.json when the run ends, and adds the
per-layer summary and kernel micro-timings.

Prints one JSON line: setup_s, run_s, the run's exit status, the energies at
both ends of the last `evolve` call, library versions and, when traced, the
per-layer metrics.
"""

from __future__ import annotations

import json
import os
import sys
import time


def main(argv) -> int:
    src, config_path, out, spawn_ns, mode = argv[1], argv[2], argv[3], int(argv[4]), argv[5]
    sys.path.insert(0, src)
    import hartreekit

    if not os.path.abspath(hartreekit.__file__).startswith(os.path.abspath(src) + os.sep):
        print(f"error: hartreekit imported from {hartreekit.__file__}, not {src}", file=sys.stderr)
        return 2
    import numpy
    import scipy

    tracer = None
    if mode == "trace":
        from spans import Tracer

        tracer = Tracer()
        tracer.install()
    config, runner = sys.modules["hartreekit.config"], sys.modules["hartreekit.runner"]

    energies = []
    evolve = runner.evolve

    def capture(*args, **kwargs):
        # validate writes no trajectory; its energy drift is read off the record
        record = evolve(*args, **kwargs)
        energies[:] = [record.snapshots[0].energy, record.snapshots[-1].energy]
        return record

    runner.evolve = capture

    cfg = config.parse_config(config_path, overrides={("run", "out"): out})
    # the grid caches the first stage would fill count as setup
    cfg.grid.r_sq
    cfg.grid.k_sq
    cfg.grid.riesz_multiplier(cfg.gamma)
    t_ready = time.monotonic_ns()
    if mode == "setup":
        print(json.dumps({"setup_s": (t_ready - spawn_ns) * 1e-9}))
        return 0
    status = runner.run(cfg)
    t_end = time.monotonic_ns()
    runner.evolve = evolve

    result = {
        "setup_s": (t_ready - spawn_ns) * 1e-9,
        "run_s": (t_end - t_ready) * 1e-9,
        "status": status,
        "energies": energies,
        "versions": {"python": sys.version.split()[0], "numpy": numpy.__version__, "scipy": scipy.__version__},
    }
    if tracer is not None:
        from kernels import time_kernels
        from spans import summarize

        tracer.uninstall()
        tracer.write(out + ".spans.json")
        result["layers"] = summarize(tracer, result["run_s"], cfg.grid.points)
        result["kernels"] = time_kernels()
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
