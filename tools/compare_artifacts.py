"""Compare the run artifacts of two checkouts of hartreekit, file by file.

usage: python3 tools/compare_artifacts.py PARENT_ROOT CHANGE_ROOT [CONFIG ...] [--seed N]

Runs every CONFIG on each checkout and compares the two runs' manifest.json
file hashes.  A CONFIG is a config file or a preset name, which each
checkout resolves to its own preset.  By default the CONFIGs are the
shipped presets, the benchmark's workload configs (bench/workloads.py in
CHANGE_ROOT), which are read, written to a scratch directory and left as
they are, and three 32^3 pipelines with V != 0 (_V_PIPELINES).  Each run
is a fresh interpreter that imports hartreekit from its checkout's src,
with one FFT worker, one BLAS thread and seed N (0 by default).  Prints
each artifact whose hash differs and, for a JSON report, its differing
keys, then each run's stderr, when it is not empty, indented under
"parent stderr:" or "change stderr:"; exits 1 on any difference, 0 when
every artifact is identical.
"""

from __future__ import annotations

import argparse
import json
import os
import runpy
import subprocess
import sys
import tempfile
import textwrap

# a child run: argv is the checkout's src, the config, the output directory and the seed
_CHILD = """\
import os, sys
src, config_arg, out, seed = sys.argv[1:]
import hartreekit
if not os.path.abspath(hartreekit.__file__).startswith(os.path.abspath(src) + os.sep):
    sys.exit(f"hartreekit imported from {hartreekit.__file__}, not {src}")
from hartreekit.config import parse_config, resolve_config_arg
from hartreekit.runner import run
overrides = {("run", "out"): out, ("run", "threads"): "1", ("run", "seed"): seed}
sys.exit(run(parse_config(resolve_config_arg(config_arg), overrides=overrides)))
"""
_ONE_THREAD = {name: "1" for name in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")}

# the sampled V of the grid_sampled pipeline, -0.3 e^{-r^2/2} + 0.05 e^{-|x - e_1|^2},
# written once by CHANGE_ROOT so that both checkouts read the same bytes
_DUMP = """\
import sys
import numpy as np
from hartreekit.fieldio import dump_field
from hartreekit.spectral import Field, Grid
grid = Grid(3, 32, 10.0)
v = -0.3 * np.exp(-grid.r_sq / 2.0) + 0.05 * np.exp(-(grid.r_sq - 2.0 * grid.coords[0] + 1.0))
dump_field(sys.argv[2], Field(grid, v), {})
"""

# pipelines with V != 0, which no preset or workload runs: a pinned well (the
# Richardson solve on the octant), a ball on the free branch (the flagged
# e-term) and an off-centre sampled V (weight_band_error, and the periodic
# basis in the solve and in evolve)
_V_PIPELINE = """\
[run]
mode = full_pipeline

[grid]
dim = 3
points = 32
half_length = 10.0

[potential]
{potential}
[initial_data]
kind = gaussian
amplitude = 0.3
width = 1.5
lambda = -0.05

[evolve]
t_max = 0.1
"""
_V_PIPELINES = {
    "well": "kind = gaussian_bump\namplitude = -0.5\nsigma = 1.0\n",
    "ball": "kind = ball_indicator\namplitude = 0.4\nradius = 2.0\n",
    "sampled": "kind = grid_sampled\nfile = {file}\n",
}


def default_configs(change_root: str, workdir: str, seed: int) -> list:
    """The shipped presets' names, then each benchmark workload's config written to workdir at seed,
    then the V != 0 pipelines' configs, with the sampled V's file, written to workdir."""
    presets = os.path.join(change_root, "src", "hartreekit", "presets")
    configs = sorted(name[: -len(".cfg")] for name in os.listdir(presets) if name.endswith(".cfg"))
    workloads = runpy.run_path(os.path.join(change_root, "bench", "workloads.py"))["WORKLOADS"]
    for name, workload in workloads.items():
        path = os.path.join(workdir, f"bench-{name}.cfg")
        with open(path, "w") as fh:
            fh.write(workload.config_text(seed))
        configs.append(path)
    vfile = os.path.join(workdir, "sampled-v.fld")
    status, err = _python(change_root, _DUMP, vfile)
    if status:
        raise RuntimeError(f"{change_root} could not write the sampled potential {vfile}:\n{err}")
    for name, potential in _V_PIPELINES.items():
        path = os.path.join(workdir, f"v-{name}.cfg")
        with open(path, "w") as fh:
            fh.write(_V_PIPELINE.format(potential=potential.format(file=vfile)))
        configs.append(path)
    return configs


def _python(root: str, code: str, *args: str) -> tuple:
    """code in a fresh interpreter that imports hartreekit from root's src, with argv src, *args; its exit status and stderr."""
    src = os.path.join(os.path.abspath(root), "src")
    env = {**os.environ, **_ONE_THREAD, "PYTHONPATH": src}
    argv = [sys.executable, "-c", code, src, *args]
    proc = subprocess.run(argv, env=env, stdout=subprocess.DEVNULL, stderr=subprocess.PIPE, text=True)
    return proc.returncode, proc.stderr


def run_tree(root: str, config: str, out: str, seed: int) -> tuple:
    """One run of config by the checkout at root, into out; returns its exit status and stderr."""
    return _python(root, _CHILD, config, out, str(seed))


def json_diff(a, b, key: str = "") -> list:
    """The dotted keys at which two JSON values differ, each with both values."""
    if isinstance(a, dict) and isinstance(b, dict):
        return [d for k in sorted(a.keys() | b.keys()) for d in json_diff(a.get(k), b.get(k), f"{key}.{k}" if key else k)]
    if isinstance(a, list) and isinstance(b, list) and len(a) == len(b):
        return [d for i, (x, y) in enumerate(zip(a, b)) for d in json_diff(x, y, f"{key}[{i}]")]
    same = type(a) is type(b) and (a == b or a != a and b != b)  # a NaN reads as itself
    return [] if same else [f"{key or '<top>'}: {a!r} -> {b!r}"]


def _files(run_dir: str) -> dict:
    path = os.path.join(run_dir, "manifest.json")
    if not os.path.exists(path):
        return {}
    with open(path) as fh:
        return json.load(fh)["files"]


def compare_runs(parent_dir: str, change_dir: str) -> list:
    """The lines naming each artifact whose manifest hash differs between two run directories, [] when none does."""
    a, b = _files(parent_dir), _files(change_dir)
    lines = []
    for rel in sorted(a.keys() | b.keys()):
        if a.get(rel) == b.get(rel):
            continue
        if rel not in a or rel not in b:
            lines.append(f"{rel}: only in the {'change' if rel in b else 'parent'}")
            continue
        lines.append(f"{rel}: differs")
        if rel.endswith(".json"):
            with open(os.path.join(parent_dir, rel)) as fa, open(os.path.join(change_dir, rel)) as fb:
                lines += [f"  {d}" for d in json_diff(json.load(fa), json.load(fb))]
    return lines


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("parent_root")
    ap.add_argument("change_root")
    ap.add_argument("configs", nargs="*", metavar="CONFIG")
    ap.add_argument("--seed", type=int, default=0)
    args = ap.parse_args(argv)
    differs = False
    with tempfile.TemporaryDirectory(prefix="compare-artifacts-") as work:
        configs = [os.path.abspath(c) if os.path.exists(c) else c for c in args.configs]
        for i, config in enumerate(configs or default_configs(args.change_root, work, args.seed)):
            runs = [os.path.join(work, f"{i}-{side}") for side in ("parent", "change")]
            (status0, err0), (status1, err1) = (
                run_tree(root, config, out, args.seed) for root, out in zip((args.parent_root, args.change_root), runs)
            )
            lines = compare_runs(*runs)
            if status0 != status1:
                lines.insert(0, f"exit status: {status0} -> {status1}")
            if not _files(runs[0]):
                lines.insert(0, "the parent's run wrote no manifest")
            name = os.path.basename(config)
            print(f"{name}: " + ("\n  ".join(["differs"] + lines) if lines else f"{len(_files(runs[0]))} artifacts identical"))
            for side, err in (("parent", err0), ("change", err1)):
                if err:
                    print(f"  {side} stderr:\n" + textwrap.indent(err.rstrip("\n"), "    "))
            differs |= bool(lines)
    return 1 if differs else 0


if __name__ == "__main__":
    sys.exit(main())
