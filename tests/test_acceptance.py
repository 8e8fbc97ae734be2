"""End-to-end acceptance battery.

One test per advertised guarantee, at the stated tolerances, so `pytest -v`
prints a single pass/fail line for each.  Two clauses are recorded as strict
expected failures rather than weakened: the unexponentiated threshold product
identity (the bracket needs the power s_c; the corrected form is asserted at
full precision alongside) and the literal 20x gradient-growth figure for the
collapse demo (the 64^3 grid caps the demo's first collapse at 5.26x growth;
the shipped preset detects 6x on the rise to the second peak).
"""

import ast
import importlib
import json
import math
import os
import subprocess
import sys
import time
from dataclasses import replace

import numpy as np
import pytest

import hartreekit
from hartreekit.cli import main
from hartreekit.evolve import EvolveConfig, TrajectoryRecord, evolve, strang_step, virial_consistency
from hartreekit.fieldio import read_json
from hartreekit.functionals import take_snapshot
from hartreekit.ground_state import solve_ground_state
from hartreekit.potentials import PotentialSpec, eval_potential, eval_virial_weight
from hartreekit.runner import (
    kato_ball_defect,
    kato_sandwich_excess,
    mass_drift_rate,
    smooth_random_field,
    threshold_defects,
    variational_defects,
)
from hartreekit.spectral import Field, Grid, _dct1
from hartreekit.threshold import me_from_scalars, mp_product, x0_solve

from conftest import GAMMA, closed_form_c_q, random_threshold_tuple

BUMP = PotentialSpec(kind="gaussian_bump", amplitude=0.8, sigma=1.5)


@pytest.fixture(scope="module")
def blowup_run(tmp_path_factory):
    out = str(tmp_path_factory.mktemp("accept") / "blowup")
    t0 = time.monotonic()
    code = main(["pipeline", "--config", "blowup-demo", "--out", out])
    return out, code, time.monotonic() - t0


@pytest.fixture(scope="module")
def global_run(tmp_path_factory):
    out = str(tmp_path_factory.mktemp("accept") / "global")
    t0 = time.monotonic()
    code = main(["pipeline", "--config", "global-demo", "--out", out])
    return out, code, time.monotonic() - t0


def test_ground_state_dilation_identities(gs64):
    # criterion: free ground state at unit frequency reproduces the exact
    # kinetic/mass, pressure/mass, and pressure/energy ratios; < 60 s at 64^3
    t0 = time.monotonic()
    gs = solve_ground_state(gs64.field.grid, PotentialSpec(kind="zero"), GAMMA)
    elapsed = time.monotonic() - t0
    s = gs.snapshot
    assert abs(s.hv_sq / s.mass - 5.0 / 3.0) <= 1e-4 * (5.0 / 3.0)
    assert abs(s.p_value / s.mass - 8.0 / 3.0) <= 1e-4 * (8.0 / 3.0)
    assert abs(s.p_value - 16.0 * s.energy) <= 1e-4 * s.p_value
    assert elapsed < 60.0


def test_weinstein_maximality_and_sharp_constant(gs64):
    # criterion: the solved profile maximizes the interpolation ratio over
    # 100 random smooth trials (relative slack 1e-6), and the closed-form
    # sharp constant agrees to 1e-4
    wq = take_snapshot(gs64.field, 0.0, None, None, GAMMA).weinstein(GAMMA)
    assert abs(wq / gs64.c_gn - 1.0) < 1e-10
    rng = np.random.default_rng(1101)
    grid = gs64.field.grid
    for _ in range(100):
        _gap, interpolation, excess = variational_defects(smooth_random_field(grid, rng), gs64)
        assert excess <= 1e-6 and interpolation <= 1e-6
    ref = closed_form_c_q(GAMMA, gs64.snapshot.mass)
    assert abs(gs64.c_q - ref) <= 1e-4 * ref


def test_threshold_stationarity_identities():
    # criterion: 50 positive-energy tuples; the stationary point satisfies
    # its defining equations to 1e-10, and the mass-energy ratio pins the
    # stationary gap through the exponent-carrying product identity
    rng = np.random.default_rng(1102)
    for _ in range(50):
        e, m, c_q, gamma, _gap = random_threshold_tuple(rng)
        assert e > 0
        *defects, guard = threshold_defects(e, m, c_q, gamma)
        assert guard == 1.0
        assert max(defects) <= 1e-10


@pytest.mark.xfail(
    strict=True,
    reason="the unexponentiated product ME (1 - x0/(16E)) equals 1 only when "
    "s_c = 1; for s_c = (gamma-2)/2 < 1 the bracket must be raised to s_c "
    "(asserted at 1e-10 in the companion test). Kept as a strict expected "
    "failure, not weakened.",
)
def test_threshold_product_identity_unexponentiated():
    rng = np.random.default_rng(1102)
    for _ in range(50):
        e, m, c_q, gamma, _gap = random_threshold_tuple(rng)
        x0 = x0_solve(e, m, c_q, gamma)
        me = me_from_scalars(m, e, c_q, gamma)
        assert abs(me * (1.0 - x0 / (16.0 * e)) - 1.0) <= 1e-10


def test_kato_ball_closed_form_and_sandwich():
    # criterion: ball-indicator Kato norm equals a R^2 / 2 within 1%, and the
    # form-bound sandwich holds on 50 random (V, u) pairs within 1e-2
    grid = Grid(3, 64, 10.0)
    a, radius = 0.7, 1.5
    ball = eval_potential(PotentialSpec(kind="ball_indicator", amplitude=a, radius=radius), grid)
    assert kato_ball_defect(ball, a, radius) <= 1e-2

    small = Grid(3, 32, 8.0)
    rng = np.random.default_rng(1103)
    for _ in range(50):
        amp = rng.uniform(0.05, 0.6) * rng.choice([-1.0, 1.0])
        sig = rng.uniform(0.6, 1.5)
        vf = eval_potential(PotentialSpec(kind="gaussian_bump", amplitude=amp, sigma=sig), small)
        assert kato_sandwich_excess(vf, smooth_random_field(small, rng)) <= 1e-2


def test_mass_drift_and_energy_order(grid64):
    # criterion: mass drift at most 1e-10 per unit time; splitting error in
    # the energy shows order 1.8..2.2 over a 4-level dt ladder with a smooth
    # nonzero potential; < 5 min total at 64^3
    t0 = time.monotonic()
    r2 = grid64.r_sq
    u0 = Field(grid64, 0.5 * np.exp(-r2 / (2.0 * 1.3**2)))
    cfg = EvolveConfig(grid=grid64, gamma=GAMMA, dt0=1e-3, t_max=0.05, tol_step=1e-6,
                       record_stride=10, blowup_grad_factor=50.0, blowup_tail_frac=1.0)
    rec = evolve(u0, BUMP, cfg)
    assert rec.termination.kind == "Completed"
    assert mass_drift_rate(rec) <= 1e-10
    # a record whose last mass is off by 1e-8 reads as a drift
    last = replace(rec.snapshots[-1], mass=rec.snapshots[0].mass * (1.0 + 1e-8))
    assert mass_drift_rate(TrajectoryRecord([rec.snapshots[0], last], rec.termination, cfg)) > 1e-10

    # the ladder runs the Strang reference at fixed steps
    v, w = eval_potential(BUMP, grid64), eval_virial_weight(BUMP, grid64)
    e0 = take_snapshot(u0, 0.0, v, w, GAMMA).energy
    errs = []
    for dt in (1e-2, 5e-3, 2.5e-3, 1.25e-3):
        f = u0
        for _ in range(round(0.2 / dt)):
            f = strang_step(f, dt, BUMP, GAMMA)
        errs.append(abs(take_snapshot(f, 0.2, v, w, GAMMA).energy - e0))
    for i in range(3):
        order = math.log2(errs[i] / errs[i + 1])
        assert 1.8 <= order <= 2.2
    assert time.monotonic() - t0 < 300.0


def test_virial_derivative_columns_and_gap_sweep(gs64):
    # criterion: the recorded variance and its first derivative column match
    # the trapezoid integrals of the first and second derivative columns to
    # 1e-4 / 1e-3 of their running max; the quadratic
    # pairing gap stays above -1e-8 of its scale across a chirp sweep
    grid = Grid(3, 32, 8.0)
    r2 = grid.r_sq
    u0 = Field(grid, 0.6 * np.exp(-r2 / (2.0 * 1.4**2)) * np.exp(-0.1j * r2))
    # adaptive steps of dt0, each landing on a multiple of record_dt
    cfg = EvolveConfig(grid=grid, gamma=GAMMA, dt0=1e-3, t_max=0.05, tol_step=1.0, record_dt=1e-3,
                       record_stride=1, blowup_grad_factor=50.0, blowup_tail_frac=1.0)
    rec = evolve(u0, BUMP, cfg)
    dev = virial_consistency(rec)
    assert dev["i1_gap"] <= 1e-4
    assert dev["i2_gap"] <= 1e-3

    rng = np.random.default_rng(1104)
    g = smooth_random_field(grid, rng)
    for lam in np.linspace(-0.5, 0.5, 11):
        u = Field(grid, g.values * np.exp(1j * lam * r2))
        assert variational_defects(u, gs64)[0] <= 1e-8


def test_collapse_pipeline_verdict_and_monotonicity(blowup_run):
    # criterion: the collapse preset classifies BlowUp, the run terminates at
    # detection, z'' < 0 at >= 95% of interior samples, < 15 min at 64^3
    out, code, elapsed = blowup_run
    assert code == 0
    assert elapsed < 900.0
    classify_rep = read_json(os.path.join(out, "classify_report.json"))
    assert classify_rep["verdict"] == "BlowUp"
    pipe = read_json(os.path.join(out, "pipeline_report.json"))
    assert pipe["termination"]["kind"] == "BlowupDetected"
    assert pipe["consistent"] == "consistent"
    probe = pipe["monotonicity_probe"]
    assert probe["z2_negative_fraction"] >= 0.95
    assert probe["interior_points"] >= 20


@pytest.mark.xfail(
    strict=True,
    reason="20x gradient growth before detection is unreachable at 64^3: the "
    "first collapse of the preset's datum peaks at 5.26x growth at t 0.4658 "
    "(8.03x at 128^3), and the later peaks are breathing of the under-resolved "
    "core, so the preset detects 6x at t 0.525, on the rise to the second peak "
    "(6.86x at t 0.5285). Kept as a strict expected failure at the literal factor.",
)
def test_collapse_gradient_growth_twentyfold(blowup_run):
    out, code, _elapsed = blowup_run
    assert code == 0
    rep = read_json(os.path.join(out, "evolve_report.json"))
    assert rep["grad_growth_factor"] >= 20.0


def test_global_pipeline_product_bound(global_run):
    # criterion: the dispersive preset classifies Global, completes to
    # t_max = 20, and the scale-invariant product stays strictly below the
    # ground-state value at every recorded time; < 15 min at 64^3
    out, code, elapsed = global_run
    assert code == 0
    assert elapsed < 900.0
    classify_rep = read_json(os.path.join(out, "classify_report.json"))
    assert classify_rep["verdict"] == "Global"
    pipe = read_json(os.path.join(out, "pipeline_report.json"))
    assert pipe["termination"]["kind"] == "Completed"
    assert pipe["termination"]["time"] == pytest.approx(20.0, abs=1e-6)
    assert pipe["consistent"] == "consistent"
    assert pipe["product_below_gs_throughout"]
    prod_gs = pipe["product_ground_state"]
    rows = [
        line for line in open(os.path.join(out, "trajectory.csv")).read().strip().split("\n")[1:]
        if not line.startswith("#")
    ]
    assert rows
    header = open(os.path.join(out, "trajectory.csv")).readline().strip().split(",")
    im, ip = header.index("mass"), header.index("p_value")
    for line in rows:
        vals = [float(v) for v in line.split(",")]
        assert mp_product(vals[im], vals[ip], GAMMA) < prod_gs


def test_validate_rerun_bit_identical(tmp_path):
    # criterion: the validation preset, run twice with the same seed and
    # thread count, writes byte-identical artifacts end to end
    outs = []
    for tag in ("first", "second"):
        out = str(tmp_path / tag)
        code = main(["validate", "--config", "validate", "--out", out, "--seed", "7", "--threads", "1"])
        assert code == 0
        outs.append(out)
    checks = read_json(os.path.join(outs[0], "validate_report.json"))["checks"]
    assert [(c["check"], c["threshold"]) for c in checks] == [
        ("parseval_mass", 1e-12), ("gradient_routes_agree", 1e-11), ("riesz_origin_vs_quadrature", 1e-4),
        ("virial_dual_form", 1.0), ("ground_state_residual", 1.01e-9), ("pohozaev_residuals", 1e-4),
        ("cauchy_schwarz_gap_nonneg", 1e-8), ("interpolation_bound", 1e-6), ("weinstein_maximality", 1e-6),
        ("threshold_identities", 1e-10), ("kato_ball_closed_form", 1e-2), ("kato_sandwich", 1e-2),
        ("mass_drift_rate", 1e-10),
    ]
    names0 = sorted(os.listdir(outs[0]))
    assert names0 == sorted(os.listdir(outs[1]))
    assert "validate_table.csv" in names0 and "manifest.json" in names0
    for name in names0:
        b0 = open(os.path.join(outs[0], name), "rb").read()
        b1 = open(os.path.join(outs[1], name), "rb").read()
        assert b0 == b1, f"{name} differs between identical reruns"


# library functions whose only caller lives outside the package, with the reason
CALLED_FROM_OUTSIDE = {
    "strang_step": "the second-order reference that tests compare against; "
    "bench/kernels.py times it and bench/test_spans.py pins its 6 complex FFTs",
}


def _library_modules():
    """(file name, parsed tree) of each module under src/hartreekit."""
    src = os.path.dirname(hartreekit.__file__)
    for name in sorted(os.listdir(src)):
        if name.endswith(".py"):
            with open(os.path.join(src, name)) as fh:
                yield name, ast.parse(fh.read())


def _library_env(**extra):
    src = os.path.dirname(os.path.dirname(hartreekit.__file__))
    return {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, (src, os.environ.get("PYTHONPATH")))), **extra}


def test_every_library_function_has_a_library_caller():
    """No library function exists only for tests.

    Every function or method defined under src/hartreekit must be referenced,
    as a Name or an Attribute, by some library module.  Blind spot: names are
    matched, not bindings, so a function that shares its name with an
    attribute (energy, as in snap.energy) passes.  Dunder methods are skipped,
    because Python calls them.
    """
    defined, used = set(), set()
    for _name, tree in _library_modules():
        for node in ast.walk(tree):
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)) and not node.name.startswith("__"):
                defined.add(node.name)
            elif isinstance(node, ast.Name):
                used.add(node.id)
            elif isinstance(node, ast.Attribute):
                used.add(node.attr)
    assert sorted(defined - used - set(CALLED_FROM_OUTSIDE)) == []
    assert set(CALLED_FROM_OUTSIDE) <= defined


def test_benchmark_paths_outside_its_self_tests_still_run(tmp_path):
    """The two library paths that only bench/run.py takes still fit the library.

    bench/ is frozen, and `python -m pytest bench` runs neither path:
    child.py's setup mode, which parses a config and fills the grid caches
    (Grid.riesz_multiplier among them) in a fresh interpreter, and the
    hartreekit names that kernels.time_kernels imports for a traced run."""
    bench = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "bench")
    src = os.path.dirname(os.path.dirname(hartreekit.__file__))
    cfg = tmp_path / "run.cfg"
    cfg.write_text("[run]\nmode = evolve\n[grid]\npoints = 16\n[initial_data]\nkind = gaussian\namplitude = 0.3\nwidth = 1\n")
    child = os.path.join(bench, "child.py")
    argv = [sys.executable, child, src, str(cfg), str(tmp_path / "out"), str(time.monotonic_ns()), "setup"]
    proc = subprocess.run(argv, capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert json.loads(proc.stdout)["setup_s"] > 0

    with open(os.path.join(bench, "kernels.py")) as fh:
        tree = ast.parse(fh.read())
    time_kernels = next(n for n in ast.walk(tree) if isinstance(n, ast.FunctionDef) and n.name == "time_kernels")
    names = [
        (node.module, alias.name)
        for node in ast.walk(time_kernels)
        if isinstance(node, ast.ImportFrom) and node.module.startswith("hartreekit")
        for alias in node.names
    ]
    assert names
    missing = [f"{module}.{name}" for module, name in names if not hasattr(importlib.import_module(module), name)]
    assert missing == []


def test_every_name_in_all_is_exported():
    """A name left in hartreekit.__all__ after its function is gone would make
    `from hartreekit import *` raise."""
    assert [name for name in hartreekit.__all__ if not hasattr(hartreekit, name)] == []
    exec("from hartreekit import *", {})


def test_library_does_not_import_scipy_integrate():
    """scipy.integrate costs about 0.3 s to import, and no library path needs it.

    A fresh interpreter imports the package and runs the one gate that used
    to integrate by quadrature."""
    code = (
        "import sys, hartreekit\n"
        "from hartreekit.runner import riesz_origin_defect\n"
        "riesz_origin_defect(hartreekit.Grid(3, 16, 8.0), 2.5)\n"
        "sys.exit('scipy.integrate' in sys.modules)\n"
    )
    assert subprocess.run([sys.executable, "-c", code], env=_library_env(), timeout=120).returncode == 0


def test_transforms_are_taken_only_in_spectral():
    """Every transform of the library is a call into spectral.py, and there into _fft, which tallies it.

    Outside spectral._fft no library module reads an attribute of scipy.fft
    or numpy.fft, by name or through getattr, but set_workers, which sets a
    run's worker count, and fftfreq, which takes no transform; so
    spectral.tally sees every transform of the periodic grid."""
    allowed = {"set_workers", "fftfreq"}
    found = []
    for name, tree in _library_modules():
        tallied = set()
        if name == "spectral.py":
            tallied = {id(n) for fn in tree.body if getattr(fn, "name", None) == "_fft" for n in ast.walk(fn)}
        aliases = {"scipy.fft", "np.fft", "numpy.fft"}
        for node in ast.walk(tree):
            if isinstance(node, ast.Import):
                aliases |= {a.asname for a in node.names if a.name in ("scipy.fft", "numpy.fft") and a.asname}
            elif isinstance(node, ast.ImportFrom) and node.module in ("scipy", "numpy"):
                aliases |= {a.asname or a.name for a in node.names if a.name == "fft"}
            elif isinstance(node, ast.ImportFrom) and node.module in ("scipy.fft", "numpy.fft"):
                found += [f"{name}:{node.lineno} {a.name}" for a in node.names if a.name not in allowed]
        for node in ast.walk(tree):
            if id(node) in tallied:
                continue
            if isinstance(node, ast.Attribute) and node.attr not in allowed and ast.unparse(node.value) in aliases:
                found.append(f"{name}:{node.lineno} {node.attr}")
            elif isinstance(node, ast.Call) and ast.unparse(node.func) == "getattr" and ast.unparse(node.args[0]) in aliases:
                found.append(f"{name}:{node.lineno} getattr")
    assert found == []


def test_strictness_is_read_only_by_side():
    """Every threshold comparison goes through potentials._side.

    The noise band potentials.STRICTNESS is read nowhere else under
    src/hartreekit, so each hypothesis, admissible_potential included, meets
    the same band and widening it is one edit."""
    found = []
    for name, tree in _library_modules():
        inside = {
            id(node)
            for fn in ast.walk(tree) if isinstance(fn, ast.FunctionDef) and fn.name == "_side"
            for node in ast.walk(fn)
        }
        for node in ast.walk(tree):
            reads = (isinstance(node, ast.Name) and node.id == "STRICTNESS" and isinstance(node.ctx, ast.Load)) or (
                isinstance(node, ast.Attribute) and node.attr == "STRICTNESS"
            )
            if reads and id(node) not in inside:
                found.append(f"{name}:{node.lineno}")
    assert found == []


def test_grid_sums_do_not_depend_on_blas_threads():
    """The library's numbers are the same at one and at two BLAS threads.

    OpenBLAS splits a long dot product over its threads, so a sum taken by
    BLAS moves in its last bits with OPENBLAS_NUM_THREADS, and every artifact
    hash with it.  The probe reads I' of a snapshot and the c_q and residual
    of a ground state, whose Anderson mixing weights come from inner
    products of its residuals, summed by numpy.  It reads
    the bytes of the octant's matrix products (spectral._dct1) on a random
    real and complex octant at every size up to m = 65, a 128^3 grid's:
    forward and inverse along every axis, forward and the derivative along
    each axis alone, and apply with a Riesz multiplier.  It reads the last
    snapshot of a short even 32^3 evolve as well."""
    code = (
        "import hashlib\n"
        "import numpy as np\n"
        "from hartreekit import EvolveConfig, Field, Grid, PotentialSpec, solve_ground_state, take_snapshot\n"
        "from hartreekit.evolve import evolve\n"
        "from hartreekit.runner import smooth_random_field\n"
        "from hartreekit.spectral import transform_basis\n"
        "rng = np.random.default_rng(0)\n"
        "u = smooth_random_field(Grid(3, 32, 10.0), rng)\n"
        "gs = solve_ground_state(Grid(3, 48, 10.0), PotentialSpec(kind='zero'), 2.5)\n"
        "print(repr((take_snapshot(u, 0.0, None, None, 2.5).virial_I1, gs.c_q, gs.residual)))\n"
        "h = hashlib.sha256()\n"
        "for m in range(3, 66):\n"
        "    grid = Grid(3, 2 * (m - 1), 10.0)\n"
        "    octant = transform_basis(grid, np.zeros(grid.shape))\n"
        "    a = rng.standard_normal((m,) * 3)\n"
        "    for x in (a, a + 1j * rng.standard_normal(a.shape)):\n"
        "        h.update(octant.forward(x).tobytes() + octant.inverse(x).tobytes())\n"
        "        h.update(octant.apply(x, octant.multiplier(2.5)).tobytes())\n"
        "        for ax in range(3):\n"
        "            h.update(octant.forward(x, axes=(ax,)).tobytes() + octant.derivative(x, ax).tobytes())\n"
        "print(h.hexdigest())\n"
        "grid = Grid(3, 32, 10.0)\n"
        "cfg = EvolveConfig(grid=grid, gamma=2.5, dt0=1e-3, t_max=0.02, record_dt=0.02)\n"
        "rec = evolve(Field(grid, 0.8 * np.exp(-grid.r_sq / 2.0) + 0j), PotentialSpec(kind='zero'), cfg)\n"
        "print(rec.extras['transform_basis'], rec.extras['n_step_attempts'], repr(rec.snapshots[-1].csv_row()))\n"
    )
    reads = [
        subprocess.run(
            [sys.executable, "-c", code], env=_library_env(OPENBLAS_NUM_THREADS=str(n), OMP_NUM_THREADS=str(n)),
            capture_output=True, text=True, timeout=120, check=True,
        ).stdout
        for n in (1, 2)
    ]
    assert "even_octant" in reads[0]
    assert reads[0] == reads[1]


def test_library_takes_no_blas_products():
    """No grid sum goes through BLAS, whose threaded reductions are not reproducible, and nothing calls LAPACK.

    np.vdot, np.dot, np.inner, np.matmul, np.einsum, np.tensordot, the
    methods of those names and the @ operator may call OpenBLAS, which sums a
    long vector in a thread-count dependent order; the library sums with
    numpy's own reductions instead.  No library module reads or imports
    linalg (np.linalg, scipy.linalg): the Anderson weights are solved in
    closed form, and LAPACK's first call alone takes about 1 MiB of
    workspace.  One exception stays: matmul and @ are allowed inside the one
    kernel of the even octant's matrix products, spectral._dct1, whose GEMMs
    each sum m = n/2 + 1 terms along the short side, which OpenBLAS does not
    split; test_grid_sums_do_not_depend_on_blas_threads reads its bytes at
    one and two threads at every size up to m = 65."""
    banned = {"vdot", "dot", "inner", "matmul", "einsum", "tensordot", "linalg"}
    found = []
    for name, tree in _library_modules():
        kernel = {
            id(node)
            for fn in ast.walk(tree)
            if name == "spectral.py" and isinstance(fn, ast.FunctionDef) and fn.name == _dct1.__name__
            for node in ast.walk(fn)
        }
        for node in ast.walk(tree):
            allowed = id(node) in kernel
            if isinstance(node, ast.Attribute) and node.attr in banned and not (allowed and node.attr == "matmul"):
                found.append(f"{name}:{node.lineno} .{node.attr}")
            elif isinstance(node, (ast.BinOp, ast.AugAssign)) and isinstance(node.op, ast.MatMult) and not allowed:
                found.append(f"{name}:{node.lineno} @")
            elif isinstance(node, (ast.Import, ast.ImportFrom)):
                names = [getattr(node, "module", None) or ""] + [a.name for a in node.names]
                if any("linalg" in n.split(".") for n in names):
                    found.append(f"{name}:{node.lineno} import linalg")
    assert found == []
