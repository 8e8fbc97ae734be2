"""Run orchestration: build inputs, drive the solver stages, persist artifacts.

Every run directory ends with exactly one manifest.json listing a checksum
for every other file, a config echo, and git-style blob hashes of the input
files; nothing here writes timestamps, so a rerun with the same config and
seed is bit-identical.  Neither the FFT worker count ([run] threads, set for
the run's stages only) nor the BLAS thread count moves a number.
"""

from __future__ import annotations

import functools
import hashlib
import math
import os
import sys
import traceback
from dataclasses import asdict

import numpy as np
import scipy.fft
from scipy.special import gamma as gamma_fn

from .config import RunConfig
from .evolve import EvolveConfig, TrajectoryRecord, evolve, virial_consistency
from .fieldio import load_field, read_json, write_json
from .functionals import CSV_COLUMNS, _integral, hv_norm_sq, mass, take_snapshot
from .ground_state import ConvergenceError, GroundState, pohozaev_residuals, save_ground_state, solve_ground_state, summary
from .potentials import PotentialSpec, _side, check_admissible, eval_potential, eval_virial_weight, kato_norm, reference_potential
from .spectral import Field, Grid, PeriodicBasis, abs_sq, eighths, fftn, recenter, shell_fraction, tally, transform_basis
from .threshold import classify, me_from_scalars, mp_product, s_crit, x0_defects, x0_solve

SHELL_MASS_LIMIT = 1e-8  # box-truncation gate on |u0|^2 in the outer 10% shell


class RunError(RuntimeError):
    """Solver-stage failure, labeled with the phase that raised it."""

    def __init__(self, phase, message):
        self.phase = phase
        super().__init__(f"{phase}: {message}")


def _git_blob_sha1(path) -> str:
    with open(path, "rb") as fh:
        data = fh.read()
    h = hashlib.sha1()
    h.update(b"blob %d\0" % len(data))
    h.update(data)
    return h.hexdigest()


def _sha256(path) -> str:
    """The file's SHA-256, read 64 KiB at a time.

    Under _keep_heap every chunk comes from the heap, whose top is never
    given back, so a 1 MiB chunk raised each run's heap by its size at the
    end of the run; a 64 KiB one fits the holes the run's arrays left."""
    h = hashlib.sha256()
    with open(path, "rb") as fh:
        for chunk in iter(lambda: fh.read(1 << 16), b""):
            h.update(chunk)
    return h.hexdigest()


def build_initial(cfg: RunConfig, gs=None) -> Field:
    """Realize the configured initial data on the run grid."""
    spec = cfg.initial
    if spec is None:
        raise RunError("initial_data", "mode requires an [initial_data] section")
    grid = cfg.grid
    if spec.kind == "gaussian":
        a, w = spec.amplitude, spec.width
        vals = a * np.exp(-grid.r_sq / (2.0 * w * w))
    elif spec.kind == "ground_state_scaled":
        if gs is None:
            raise RunError("initial_data", "ground_state_scaled requires a solved ground state")
        vals = spec.scale * gs.field.values.real
    elif spec.kind == "file":
        try:
            f, _head = load_field(spec.path)
        except (OSError, ValueError) as exc:
            raise RunError("initial_data", str(exc)) from exc
        if f.grid != grid:
            raise RunError("initial_data", f"grid of {spec.path} does not match the run grid")
        f = recenter(f)  # variance and virial quantities assume a mass-centered field
        vals = f.values
    else:
        raise RunError("initial_data", f"unknown kind {spec.kind!r}")
    if spec.lam:
        vals = vals * np.exp(1j * spec.lam * grid.r_sq)
    return Field(grid, np.asarray(vals, dtype=complex))


def _check_box_decay(u0: Field) -> None:
    """The evolve stage's RunError when the outer 10% shell, max_i |x_i| >= 0.9 L, holds SHELL_MASS_LIMIT of |u0|^2 or more."""
    frac = shell_fraction(PeriodicBasis(u0.grid), abs_sq(u0.values), 0.9 * u0.grid.half_length)
    if frac >= SHELL_MASS_LIMIT:
        raise RunError(
            "evolve",
            f"initial data carries {frac:.2e} of its mass in the outer 10% shell "
            f"(limit {SHELL_MASS_LIMIT:.0e}); enlarge the box or narrow the data",
        )


def _solve_gs(cfg: RunConfig, v: Field | None):
    """Solve the threshold reference for the potential sampled as v (None for V = 0),
    with the potential reference_potential picks: V = 0 on the free branch."""
    try:
        gs = solve_ground_state(cfg.grid, reference_potential(cfg.potential, v), cfg.gamma, **asdict(cfg.groundstate))
    except ConvergenceError as exc:
        raise RunError("groundstate", str(exc)) from exc
    if not gs.converged:
        raise RunError(
            "groundstate",
            f"iteration did not converge (residual {gs.residual:.3e} after {gs.iterations} steps)",
        )
    return gs


def _gs_report(cfg: RunConfig, gs, adm) -> dict:
    # _solve_gs solves the reference with V = 0 exactly on the free branch
    return {
        **summary(gs),
        "branch": "free" if gs.potential.is_zero else "pinned",
        "reference_potential": gs.potential.kind,
        "omega": gs.omega,
        "omega_mode": cfg.groundstate.omega_mode,
        "richardson_iterations": gs.richardson_iterations,
        "transform_basis": gs.transform_basis,
        "admissibility": asdict(adm),
        "transforms": dict(tally),
    }


def stage_groundstate(cfg: RunConfig, outdir):
    """Solve and save the ground state; returns it with the potential's admissibility
    report, which the classify stage reuses rather than recomputing its Kato norms."""
    tally.clear()
    v = None if cfg.potential.is_zero else eval_potential(cfg.potential, cfg.grid)
    gs = _solve_gs(cfg, v)
    adm = check_admissible(cfg.potential, v, cfg.grid)
    save_ground_state(os.path.join(outdir, "ground_state.fld"), gs)
    write_json(os.path.join(outdir, "groundstate_report.json"), _gs_report(cfg, gs, adm))
    return gs, adm


def stage_classify(cfg: RunConfig, outdir, gs, adm):
    tally.clear()
    u0 = build_initial(cfg, gs=gs)
    try:
        report = classify(u0, cfg.potential, gs, admissibility=adm)
    except (ZeroDivisionError, OverflowError, FloatingPointError):
        raise
    except (ValueError, ArithmeticError) as exc:
        # classify's own checks (zero mass, x0's identities, ME against x0,
        # the condition forms) fail on the data, not in the code; its branch
        # check cannot fail, as _solve_gs took the same reference_potential
        raise RunError("classify", str(exc)) from exc
    write_json(os.path.join(outdir, "classify_report.json"), {**asdict(report), "transforms": dict(tally)})
    return u0, report


def stage_evolve(cfg: RunConfig, outdir, u0: Field) -> TrajectoryRecord:
    tally.clear()
    _check_box_decay(u0)
    record = evolve(u0, cfg.potential, cfg.evolve)
    record.write_csv(os.path.join(outdir, "trajectory.csv"))
    dts = record.extras["accepted_dts"]
    rep = {
        "termination": asdict(record.termination),
        "n_snapshots": len(record.snapshots),
        "n_accepted_steps": len(dts),
        "n_step_attempts": record.extras["n_step_attempts"],
        "n_rejected_steps": record.extras["n_rejected_steps"],
        "transform_basis": record.extras["transform_basis"],
        "final_snapshot": record.snapshots[-1].to_dict(),
        "transforms": dict(tally),
    }
    if dts:
        rep["dt_min"] = min(dts)
        rep["dt_max"] = max(dts)
    if "grad_growth_factor" in record.extras:
        rep["grad_growth_factor"] = record.extras["grad_growth_factor"]
    try:
        rep["virial_consistency"] = virial_consistency(record)
    except ValueError as exc:
        rep["virial_consistency"] = {"skipped": str(exc)}
    write_json(os.path.join(outdir, "evolve_report.json"), rep)
    return record


def _consistency(verdict: str, termination_kind: str) -> str:
    """A run agrees with its verdict when it ends as the verdict predicts; an
    Indeterminate verdict or a run that ran out of resolution settles nothing."""
    expected = "BlowupDetected" if verdict.startswith("BlowUp") else "Completed" if verdict == "Global" else None
    if expected is None or termination_kind == "ResolutionExhausted":
        return "inconclusive"
    return "consistent" if termination_kind == expected else "inconsistent"


def monotonicity_probe(record: TrajectoryRecord, verdict: str, f_x0: float) -> dict:
    """Empirical z(t) shape diagnostics keyed to the classified branch, over every snapshot.

    Derivatives of z = sqrt(I) come from the recorded virial columns,
    z' = I'/(2z) and z'' = (2 I I'' - I'^2) / (4 I^{3/2}), which are exact
    at each sample; no finite difference of the sampled z is taken, since it
    would alias the fast core oscillations near collapse.
    BlowUp branch: fraction of interior times with z'' < 0.  Global branch:
    minimum z' from t = 0 (Duyckaerts-Roudenko's bound holds from there) against
    the floor 2 sqrt(f(x0)) = sqrt(x0/2).  Values are recorded, never judged."""
    if not (verdict.startswith("BlowUp") or verdict == "Global"):
        return {}
    snaps = record.snapshots
    if len(snaps) < 3:
        return {}
    out: dict = {"branch": verdict}
    if verdict.startswith("BlowUp"):
        zpp = [
            (2.0 * s.variance_I * s.virial_I2 - s.virial_I1**2)
            / (4.0 * max(s.variance_I, 1e-300) ** 1.5)
            for s in snaps[1:-1]
        ]
        out["z2_negative_fraction"] = sum(1 for v in zpp if v < 0) / len(zpp)
        out["interior_points"] = len(zpp)
    else:
        out["min_z1"] = min(s.virial_I1 / (2.0 * max(s.z, 1e-300)) for s in snaps)
        out["z1_floor"] = 2.0 * math.sqrt(max(f_x0, 0.0))
    return out


def stage_compare(outdir, report, record: TrajectoryRecord):
    prod_gs = report.cond_mp["product_gs"]
    prods = [mp_product(sn.mass, sn.p_value, report.gamma) for sn in record.snapshots]
    verdict = report.verdict
    kind = record.termination.kind
    consistent = _consistency(verdict, kind)
    note = ""
    if verdict == "Indeterminate":
        # both sides' failed hypotheses, with no comma to split the CSV field
        note = " / ".join(
            f"{side} fails {';'.join(failed)}"
            for side, failed in (("blowup", report.failed_blowup), ("global", report.failed_global))
        )
    probe = monotonicity_probe(record, verdict, report.f_x0)
    below = _side(max(prods) - prod_gs, prod_gs) < 0
    with open(os.path.join(outdir, "comparison.csv"), "w") as fh:
        fh.write("verdict,termination,consistent,note\n")
        fh.write(f"{verdict},{kind},{consistent},{note}\n")
    rep = {
        "verdict": verdict,
        "termination": asdict(record.termination),
        "consistent": consistent,
        "monotonicity_probe": probe,
        "product_max": max(prods),
        "product_ground_state": prod_gs,
        "product_below_gs_throughout": below,
    }
    write_json(os.path.join(outdir, "pipeline_report.json"), rep)
    return rep


def smooth_random_field(grid: Grid, rng) -> Field:
    """Superposition of three random off-center complex Gaussians of modulus 0.2-0.5; decays well inside the box.

    exp(-|x - c|^2 / 2w^2) is the product of 1-D factors, so each bump is
    its partial product over the other axes times its last axis's factor.
    The three bumps are drawn first, in order, and their sum is formed an
    eighth of the planes across axis 0 at a time (spectral.eighths): the
    first bump straight into the sum, the others into one block's buffer,
    so no second grid array is held.  Adding 0.0 to the first turns a -0.0
    into 0.0, as adding it to a zero-filled sum does."""
    bumps = []
    for _ in range(3):
        c = rng.uniform(-0.2 * grid.half_length, 0.2 * grid.half_length, size=grid.dim)
        w = rng.uniform(0.8, 1.8)
        amp = 0.5 * rng.uniform(0.4, 1.0)
        ph = rng.uniform(0.0, 2.0 * np.pi)
        bumps.append((c, w, amp * np.exp(1j * ph)))
    vals = np.empty(grid.shape, dtype=complex)
    parts = eighths(grid.points)
    buf = np.empty_like(vals[parts[0]])
    for s in parts:
        *inner, last = (grid.coords[0][s],) + grid.coords[1:]
        out = vals[s]
        for i, (c, w, bump) in enumerate(bumps):
            for x, ci in zip(inner, c):
                bump = bump * np.exp(-((x - ci) ** 2) / (2.0 * w * w))
            factor = np.exp(-((last - c[-1]) ** 2) / (2.0 * w * w))
            if i == 0:
                np.multiply(bump, factor, out=out)
                out += 0.0
            else:
                out += np.multiply(bump, factor, out=buf[: len(out)])
    return Field(grid, vals)


# The validate gates.  Each returns a defect that is small when its identity
# holds; run_validate and the test suite call the same functions.


def parseval_defect(u: Field) -> float:
    """Relative gap between the mass in physical space and in Fourier space."""
    grid = u.grid
    m_phys = mass(u)
    m_four = float(abs_sq(fftn(u.values), overwrite_x=True).sum()) * grid.cell_volume / grid.points**grid.dim
    return abs(m_phys - m_four) / m_phys


def gradient_routes_defect(u: Field, grad_sq: float) -> float:
    """Relative gap between ||grad u||^2 from the spectral gradient and grad_sq, the Parseval sum (hv_norm_sq(u))."""
    basis = PeriodicBasis(u.grid)
    # each axis's derivative is a temporary, dropped before the next is taken
    gsq_spec = sum(
        float(abs_sq(basis.derivative(u.values, ax), overwrite_x=True).sum()) for ax in range(u.grid.dim)
    ) * u.grid.cell_volume
    return abs(gsq_spec - grad_sq) / max(grad_sq, 1e-300)


def riesz_origin_defect(grid: Grid, gamma: float) -> float:
    """Relative gap between (|x|^-gamma * e^{-|x|^2})(0) on the grid and as a radial integral.

    The integral, |S^{d-1}| int_0^inf r^{d-1-gamma} e^{-r^2} dr, is taken in
    closed form: the radial part is Gamma((d - gamma)/2) / 2 (substitute
    s = r^2).  e^{-|x|^2} is even, so it is convolved on the octant, whose
    first point is the origin; nothing is expanded to the grid."""
    g0 = np.exp(-grid.r_sq)
    basis = transform_basis(grid, g0)
    conv0 = basis.convolve(basis.take(g0), gamma)[(0,) * grid.dim]
    area = 2.0 * np.pi ** (grid.dim / 2.0) / gamma_fn(grid.dim / 2.0)
    ref = 0.5 * gamma_fn((grid.dim - gamma) / 2.0)
    return abs(float(conv0) - area * ref) / (area * ref)


def virial_dual_defect(rho: Field, v: Field, virial_weight: Field, grad_sq: float) -> float:
    """0 when the sampled weight's e-term agrees with the integration-by-parts route, inf when not.

    That route, int (x.grad V)|u|^2 = -int V (d|u|^2 + x.grad|u|^2), never
    differentiates V, so a disagreement beyond 1e-5 of the scale means the
    weight field does not belong to this potential.  A sharp-interface
    potential fails it too: its sampled weight omits the surface term.
    Both routes read u through its density rho = |u|^2 alone, and
    grad_sq is ||grad u||^2 (hv_norm_sq(u)), which only scales the gate, so
    that a caller can drop u before it samples V and the weight."""
    g, rho = rho.grid, rho.values
    basis = PeriodicBasis(g)
    vt = _integral(basis, rho, v.values)
    e = 4.0 * _integral(basis, rho, virial_weight.values)

    def xgrad_term(x, ax):
        """int V x_j d_j rho, formed in the derivative's own memory."""
        d = basis.derivative(rho, ax)
        d *= x
        d *= v.values
        return _integral(basis, d)

    # one axis at a time, so that no sum of the terms is held
    xgrad = sum(xgrad_term(x, ax) for ax, x in enumerate(g.coords))
    e_ibp = 8.0 * vt - 4.0 * (g.dim * vt + xgrad)
    scale = abs(e) + abs(e_ibp) + 8.0 * abs(vt) + 8.0 * grad_sq
    return math.inf if abs(e - e_ibp) > 1e-5 * max(scale, 1e-300) else 0.0


def variational_defects(u: Field, gs: GroundState) -> tuple:
    """Violations of the sharp inequalities by u, each positive only when violated:
    the scaled Cauchy-Schwarz gap, the interpolation bound P <= C_GN ||u||_HV^g M^{(4-g)/2},
    and the Weinstein quotient against its maximum C_GN, all at the reference's gamma g."""
    gamma = gs.gamma
    sn = take_snapshot(u, 0.0, None, None, gamma)
    scale = max(sn.variance_I * sn.hv_sq, 1e-300)
    bound = gs.c_gn * sn.hv_sq ** (gamma / 2.0) * sn.mass ** ((4.0 - gamma) / 2.0)
    return (
        -sn.cauchy_schwarz_gap(gamma, gs.c_q) / scale,
        sn.p_value / bound - 1.0,
        sn.weinstein(gamma) / gs.c_gn - 1.0,
    )


def threshold_defects(e: float, m: float, c_q: float, gamma: float) -> tuple:
    """Defects of the stationary point x0 of f: f'(x0) = 0, f(x0) = x0/8 and
    ME (1 - x0/16E)^{s_c} = 1, each scaled and divided by the guard, and the
    guard, which widens the gate exactly as x0_solve's own validation
    (threshold.x0_defects)."""
    x0 = x0_solve(e, m, c_q, gamma)
    fp, fv, guard = x0_defects(x0, e, m, c_q, gamma)
    me = me_from_scalars(m, e, c_q, gamma)
    return fp, fv, abs(me * (1.0 - x0 / (16.0 * e)) ** s_crit(gamma) - 1.0) / guard, guard


def kato_ball_defect(v: Field, amplitude: float, radius: float) -> float:
    """Relative gap between kato_norm(v) and a R^2 / 2, the Kato norm of a ball of amplitude a, radius R in d = 3."""
    return abs(kato_norm(v) / (amplitude * radius**2 / 2.0) - 1.0)


def kato_sandwich_excess(v: Field, u: Field) -> float:
    """How far ||u||_HV^2 leaves [(1 - ||V||_K), (1 + ||V||_K)] ||grad u||^2, relative to ||grad u||^2."""
    kv = kato_norm(v)
    gsq = hv_norm_sq(u)
    hv = gsq + _integral(PeriodicBasis(u.grid), abs_sq(u.values), v.values)
    lo, hi = (1.0 - kv) * gsq, (1.0 + kv) * gsq
    return max((lo - hv) / gsq, (hv - hi) / gsq)


def mass_drift_rate(record: TrajectoryRecord) -> float:
    """|M(end) - M(0)| per unit time over a trajectory."""
    return abs(record.snapshots[-1].mass - record.snapshots[0].mass) / record.termination.time


def _worst(defects) -> float:
    """The largest of 0 and the trial defects; NaN if any trial is NaN, which Python's max would drop."""
    return float(np.max([0.0, *defects]))


# the potential of validate's virial_dual and mass_drift_rate gates
_VALIDATE_BUMP = PotentialSpec(kind="gaussian_bump", amplitude=0.4, sigma=1.1)


def _drift_datum(grid: Grid) -> Field:
    """The initial data of validate's mass_drift_rate gate: a centred Gaussian.

    Its values are real, so evolve transforms its own complex copy in place
    and never holds two complex grid arrays at its start."""
    return Field(grid, 0.3 * np.exp(-grid.r_sq / 8.0))


def run_validate(cfg: RunConfig, outdir) -> int:
    """Seeded invariant suites; writes a pass/fail table and returns the failure count.

    A ground state that does not converge fails its gate and prints its error as run does."""
    tally.clear()
    rng = np.random.default_rng(cfg.run.seed)
    grid, gamma = cfg.grid, cfg.gamma
    rows = []

    def check(name, metric, threshold):
        metric = float(metric)
        status = "PASS" if metric <= threshold else "FAIL"
        rows.append({"check": name, "status": status, "metric": metric, "threshold": threshold})

    u = smooth_random_field(grid, rng)
    check("parseval_mass", parseval_defect(u), 1e-12)
    # ||grad u||^2 is read once, for the gradient gate and the dual gate's scale
    gsq = hv_norm_sq(u)
    check("gradient_routes_agree", gradient_routes_defect(u, gsq), 1e-11)
    check("riesz_origin_vs_quadrature", riesz_origin_defect(grid, gamma), 1e-4)
    # the dual gate reads u only as |u|^2, so u is dropped before V and its weight are sampled
    rho = Field(grid, abs_sq(u.values))
    del u
    vspec = _VALIDATE_BUMP
    v, w = eval_potential(vspec, grid), eval_virial_weight(vspec, grid)
    check("virial_dual_form", virial_dual_defect(rho, v, w, gsq), 1.0)
    # a gate's grid arrays die with the gate, so the suite's peak is one gate's, not the sum
    del rho, v, w

    try:
        gs = _solve_gs(cfg, None if cfg.potential.is_zero else eval_potential(cfg.potential, grid))
    except RunError as exc:
        print(f"error: {exc}", file=sys.stderr)
        gs = None
        check("ground_state_converged", math.nan, 0.0)
    if gs is not None:
        gs.field = None  # the gates below read the solve's scalars only
        check("ground_state_residual", gs.residual, cfg.groundstate.tol * 1.01)
        check("pohozaev_residuals", pohozaev_residuals(gs)["max_abs"], 1e-4)
        trials = [variational_defects(smooth_random_field(grid, rng), gs) for _ in range(10)]
        cs, gn, wm = (_worst(col) for col in zip(*trials))
        check("cauchy_schwarz_gap_nonneg", cs, 1e-8)
        check("interpolation_bound", gn, 1e-6)
        check("weinstein_maximality", wm, 1e-6)

        defects = []
        for _ in range(10):
            gg = rng.uniform(2.3, min(3.7, grid.dim - 0.2))
            mm = 10.0 ** rng.uniform(-1.5, 1.5)
            cq = 10.0 ** rng.uniform(-1.0, 1.0)
            gap = 10.0 ** rng.uniform(-1.0, 2.0)
            ee = gap * 10.0 ** rng.uniform(-1.5, 1.5) / 16.0
            # independent (m, c_q) draws can leave the stationary gap at the
            # ulp of 16E; threshold_defects' guard covers those tuples
            defects += threshold_defects(ee, mm, cq, gg)[:3]
        check("threshold_identities", _worst(defects), 1e-10)
    del gs

    ball = PotentialSpec(kind="ball_indicator", amplitude=0.7, radius=1.5)
    check("kato_ball_closed_form", kato_ball_defect(eval_potential(ball, grid), 0.7, 1.5), 1e-2)

    excess = []
    for _ in range(10):
        amp = rng.uniform(0.05, 0.6) * rng.choice([-1.0, 1.0])
        sig = rng.uniform(0.6, 1.5)
        bump = PotentialSpec(kind="gaussian_bump", amplitude=amp, sigma=sig)
        excess.append(kato_sandwich_excess(eval_potential(bump, grid), smooth_random_field(grid, rng)))
    check("kato_sandwich", _worst(excess), 1e-2)

    # the gate reads only the two end snapshots, so no step is clipped for a record
    ev = EvolveConfig(grid=grid, gamma=gamma, dt0=1e-3, t_max=0.05, tol_step=1e-6, record_stride=10, record_dt=0.05)
    check("mass_drift_rate", mass_drift_rate(evolve(_drift_datum(grid), vspec, ev)), 1e-10)

    with open(os.path.join(outdir, "validate_table.csv"), "w") as fh:
        fh.write("check,status,metric,threshold\n")
        for r in rows:
            fh.write(f"{r['check']},{r['status']},{r['metric']!r},{r['threshold']!r}\n")
    failures = sum(1 for r in rows if r["status"] == "FAIL")
    write_json(
        os.path.join(outdir, "validate_report.json"),
        {"seed": cfg.run.seed, "checks": rows, "failures": failures, "transforms": dict(tally)},
    )
    return failures


def _write_manifest(cfg: RunConfig, outdir) -> None:
    inputs = {}
    if cfg.source_path and os.path.exists(cfg.source_path):
        inputs["config"] = {"path": cfg.source_path, "git_blob_sha1": _git_blob_sha1(cfg.source_path)}
    if cfg.initial and cfg.initial.kind == "file" and cfg.initial.path and os.path.exists(cfg.initial.path):
        inputs["initial_data"] = {"path": cfg.initial.path, "git_blob_sha1": _git_blob_sha1(cfg.initial.path)}
    files = {}
    for root, _dirs, names in os.walk(outdir):
        for name in sorted(names):
            rel = os.path.relpath(os.path.join(root, name), outdir)
            if rel == "manifest.json":
                continue
            files[rel] = _sha256(os.path.join(root, name))
    write_json(
        os.path.join(outdir, "manifest.json"),
        {"schema": "hartreekit-run-v1", "config": cfg.echo(), "inputs": inputs, "files": files},
    )


@functools.cache
def _keep_heap() -> None:
    """Make glibc's malloc keep freed grid-sized blocks for the life of the process.

    Left at its defaults, glibc hands the top of the heap back to the kernel
    once more than about twice the last freed large block sits free there.
    A step attempt frees 1-2 MiB of grid temporaries, so each attempt would
    fault the same pages in again, zero-filled: 82k minor faults in a 32^3
    collapse pipeline, against 1.5k with this policy.  Unlike the FFT worker
    count, which holds for one run, the setting is process-wide and is made
    once per process.  Where libc has no mallopt (not glibc), or it refuses a
    value, nothing changes."""
    import ctypes  # here, so that importing the package does not pay for it

    try:
        mallopt = ctypes.CDLL(None).mallopt
    except (OSError, AttributeError):
        return
    mallopt.argtypes = (ctypes.c_int, ctypes.c_int)
    mallopt.restype = ctypes.c_int
    # malloc.h: M_TRIM_THRESHOLD (-1), trim the heap's top only past 1 GiB free;
    # M_MMAP_THRESHOLD (-3), take blocks under 32 MiB, glibc's 64-bit ceiling,
    # from the heap, not from mmap
    for param, value in ((-1, 1 << 30), (-3, 32 << 20)):
        mallopt(param, value)


def run(cfg: RunConfig) -> int:
    """Execute one configured run; returns the process exit status."""
    mode, outdir = cfg.run.mode, cfg.run.out
    if not outdir:
        print("error: no output directory (set [run] out or pass --out)", file=sys.stderr)
        return 2
    try:
        os.makedirs(outdir, exist_ok=True)
    except OSError as exc:
        print(f"error: cannot create output directory {outdir} ({exc.strerror or exc})", file=sys.stderr)
        return 2
    _keep_heap()
    status = 0
    # the FFT worker count holds for this run's stages only
    with scipy.fft.set_workers(cfg.run.threads):
        try:
            if mode == "groundstate":
                stage_groundstate(cfg, outdir)
            elif mode == "classify":
                gs, adm = stage_groundstate(cfg, outdir)
                stage_classify(cfg, outdir, gs, adm)
            elif mode == "evolve":
                needs_gs = cfg.initial is not None and cfg.initial.kind == "ground_state_scaled"
                gs = stage_groundstate(cfg, outdir)[0] if needs_gs else None
                u0 = build_initial(cfg, gs=gs)
                stage_evolve(cfg, outdir, u0)
            elif mode == "full_pipeline":
                gs, adm = stage_groundstate(cfg, outdir)
                u0, report = stage_classify(cfg, outdir, gs, adm)
                record = stage_evolve(cfg, outdir, u0)
                stage_compare(outdir, report, record)
            else:  # validate; RunSettings admits no other mode
                status = 1 if run_validate(cfg, outdir) else 0
        except RunError as exc:
            print(f"error: {exc}", file=sys.stderr)
            status = 1
        except (ValueError, ArithmeticError) as exc:
            print(f"error: {mode}: {exc}", file=sys.stderr)
            traceback.print_exc()
            status = 1
    _write_manifest(cfg, outdir)
    return status


def emit_plot_data(run_dir, out_dir=None) -> list:
    """Split a run's trajectory into tidy two-column series, one file per diagnostic.

    Adds the scale-invariant mass(P) product monitored by the dichotomy
    theory.  Blow-up trajectories are already truncated at detection, so the
    emitted series end there too."""
    if not os.path.isdir(run_dir):
        raise FileNotFoundError(f"run directory not found: {run_dir}")
    traj = os.path.join(run_dir, "trajectory.csv")
    man = os.path.join(run_dir, "manifest.json")
    if not os.path.exists(traj):
        raise FileNotFoundError(f"no trajectory.csv in {run_dir} (was this an evolve or pipeline run?)")
    headers = None
    rows = []
    with open(traj) as fh:
        for lineno, line in enumerate(fh, 1):
            line = line.strip()
            if not line or line.startswith("#"):
                continue
            if headers is None:
                headers = line.split(",")
                continue
            # a bad row is rejected here, before any series file is written
            try:
                row = [float(tok) for tok in line.split(",")]
            except ValueError as exc:
                raise ValueError(f"{traj}: line {lineno}: {exc}") from None
            if len(row) != len(headers):
                raise ValueError(f"{traj}: line {lineno}: {len(row)} fields, the header has {len(headers)}")
            rows.append(row)
    if headers != list(CSV_COLUMNS) or not rows:
        raise ValueError(f"{traj}: not a diagnostics CSV (header {headers!r})")
    if not os.path.exists(man):
        raise FileNotFoundError(f"no manifest.json in {run_dir}; the product series needs the run's gamma")
    try:
        gamma = read_json(man)["config"]["gamma"]
    except (KeyError, TypeError, ValueError) as exc:
        raise ValueError(f"{man}: the run's gamma cannot be read ({exc!r})") from exc
    out_dir = out_dir or os.path.join(run_dir, "plots")
    os.makedirs(out_dir, exist_ok=True)
    written = []
    cols = {name: idx for idx, name in enumerate(headers)}
    for name in headers[1:]:
        path = os.path.join(out_dir, f"plot_{name}.csv")
        with open(path, "w") as fh:
            fh.write(f"t,{name}\n")
            for row in rows:
                fh.write(f"{row[0]!r},{row[cols[name]]!r}\n")
        written.append(path)
    path = os.path.join(out_dir, "plot_product.csv")
    with open(path, "w") as fh:
        fh.write("t,product\n")
        for row in rows:
            fh.write(f"{row[0]!r},{mp_product(row[cols['mass']], row[cols['p_value']], gamma)!r}\n")
    written.append(path)
    return written
