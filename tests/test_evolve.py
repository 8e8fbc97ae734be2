"""Split-step propagator: oracles, conservation, detection, and diagnostics."""

import math

import numpy as np
import pytest

import scipy.fft

import hartreekit.evolve as evolve_module
from hartreekit.evolve import (
    _convolve_pair,
    _kinetic,
    _rotate,
    EvolveConfig,
    TrajectoryRecord,
    detect_blowup,
    evolve,
    monotonicity_probe,
    strang_step,
    virial_consistency,
)
from hartreekit.functionals import CSV_COLUMNS, take_snapshot
from hartreekit.potentials import PotentialSpec, eval_potential, eval_virial_weight
from hartreekit.spectral import Field, Grid, abs_sq, apply_multiplier

from conftest import GAMMA

ZERO = PotentialSpec(kind="zero")
BUMP = PotentialSpec(kind="gaussian_bump", amplitude=0.8, sigma=1.5)


def free_gaussian_reference(grid: Grid, a: float, k, t: float) -> Field:
    """Closed-form free-flow Gaussian: width a, carrier wave vector k, time t.

    u(0) = exp(i k.x) exp(-a |x|^2); the envelope spreads by 1 + 4 i a t and
    the packet translates at group velocity 2k."""
    k = np.asarray(k, dtype=float)
    s = 1.0 + 4.0j * a * t
    phase = sum(k[ax] * x for ax, x in enumerate(grid.coords))
    shift_sq = sum((x - 2.0 * k[ax] * t) ** 2 for ax, x in enumerate(grid.coords))
    vals = s ** (-grid.dim / 2.0) * np.exp(1j * (phase - float(k @ k) * t)) * np.exp(-a * shift_sq / s)
    return Field(grid, vals)


@pytest.fixture(scope="module")
def g32():
    return Grid(3, 32, 8.0)


@pytest.fixture(scope="module")
def blowup_record(g32):
    # focusing chirped gaussian, collapses well before t_max
    r2 = g32.r_sq
    u0 = Field(g32, 0.8 * np.exp(-r2 / (2.0 * 1.5**2)) * np.exp(-0.5j * r2))
    cfg = EvolveConfig(
        grid=g32, gamma=GAMMA, dt0=1e-3, t_max=2.0, tol_step=1e-5,
        blowup_grad_factor=3.0, blowup_tail_frac=0.35, record_stride=2,
    )
    return evolve(u0, ZERO, cfg)


def test_module_is_not_shadowed_by_the_integrator():
    assert type(evolve_module).__name__ == "module"
    assert evolve_module.evolve is evolve


def test_config_validation(g32):
    nan, inf = float("nan"), float("inf")
    for bad in ({"dt0": 0.0}, {"dt0": nan}, {"dt0": inf}, {"t_max": -1.0}, {"t_max": nan}, {"t_max": inf},
                {"tol_step": 0.0}, {"tol_step": -1e-6}, {"tol_step": nan}, {"tol_step": inf},
                {"blowup_grad_factor": 1.0}, {"blowup_grad_factor": nan}):
        with pytest.raises(ValueError, match=next(iter(bad))):
            EvolveConfig(grid=g32, gamma=GAMMA, **bad)
    with pytest.raises(ValueError, match="dt0 .*; t_max .*; tol_step"):
        EvolveConfig(grid=g32, gamma=GAMMA, dt0=nan, t_max=0.0, tol_step=-1.0)
    with pytest.raises(ValueError):
        EvolveConfig(grid=g32, gamma=GAMMA, record_stride=0)
    with pytest.raises(ValueError):
        EvolveConfig(grid=g32, gamma=GAMMA, blowup_tail_frac=0.0)
    with pytest.raises(ValueError):
        EvolveConfig(grid=g32, gamma=GAMMA, blowup_tail_frac=1.5)
    # the blow-up detector reads the config's grid, so the data must live on it
    other = Grid(3, 32, 10.0)
    with pytest.raises(ValueError, match="grid"):
        evolve(Field(other, np.zeros(other.shape, dtype=complex)), ZERO, EvolveConfig(grid=g32, gamma=GAMMA))


def test_linear_free_gaussian_oracle(g32):
    # with V = 0 and the nonlinear phase off, each step is the exact kinetic
    # flow; the only deviation from the closed form is grid truncation
    a, k, t_end = 0.45, (0.5, 0.25, 0.0), 0.5
    f = free_gaussian_reference(g32, a, k, 0.0)
    for _ in range(20):
        f = strang_step(f, t_end / 20, ZERO, GAMMA, linear=True)
    ref = free_gaussian_reference(g32, a, k, t_end)
    dev = np.linalg.norm(f.values - ref.values) / np.linalg.norm(ref.values)
    assert dev < 1e-6


def test_tiny_amplitude_matches_free_flow(g32):
    # at amplitude 1e-4 the nonlinear phase is O(1e-8) per unit time, so the
    # full propagator must still track the free closed form
    a, k, t_end = 0.45, (0.5, 0.25, 0.0), 0.5
    amp = 1e-4
    f = Field(g32, amp * free_gaussian_reference(g32, a, k, 0.0).values)
    for _ in range(50):
        f = strang_step(f, t_end / 50, ZERO, GAMMA)
    ref = amp * free_gaussian_reference(g32, a, k, t_end).values
    dev = np.linalg.norm(f.values - ref) / np.linalg.norm(ref)
    assert dev < 1e-6


def test_mass_conservation(g32):
    r2 = g32.r_sq
    u0 = Field(g32, 0.6 * np.exp(-r2 / (2.0 * 1.4**2)) * np.exp(0.2j * r2))
    cfg = EvolveConfig(grid=g32, gamma=GAMMA, dt0=2e-3, t_max=0.3, tol_step=1e-6,
                       record_stride=1, blowup_grad_factor=50.0, blowup_tail_frac=1.0)
    rec = evolve(u0, BUMP, cfg)
    assert rec.termination.kind == "Completed"
    m0 = rec.snapshots[0].mass
    drift = max(abs(s.mass - m0) for s in rec.snapshots) / m0
    # both sub-flows are unitary, so only roundoff can move the mass
    assert drift < 1e-11


def test_energy_convergence_order(g32):
    # fixed-step ladder; Strang splitting must show second order in the
    # conserved energy at the final time
    r2 = g32.r_sq
    u0 = Field(g32, 0.5 * np.exp(-r2 / (2.0 * 1.3**2)))
    errs = []
    for dt in (1e-2, 5e-3, 2.5e-3, 1.25e-3):
        cfg = EvolveConfig(grid=g32, gamma=GAMMA, dt0=dt, t_max=0.2, tol_step=1.0,
                           adaptive=False, record_stride=10**9,
                           blowup_grad_factor=50.0, blowup_tail_frac=1.0)
        rec = evolve(u0, BUMP, cfg)
        errs.append(abs(rec.snapshots[-1].energy - rec.snapshots[0].energy))
    orders = [math.log2(errs[i] / errs[i + 1]) for i in range(3)]
    for o in orders:
        assert 1.8 <= o <= 2.2


def test_single_step_time_reversal(g32):
    rng = np.random.default_rng(61)
    r2 = g32.r_sq
    u0 = Field(g32, (0.5 + 0.1 * rng.standard_normal(g32.shape)) * np.exp(-r2 / 4.0))
    f = strang_step(u0, 5e-3, BUMP, GAMMA)
    back = strang_step(f, -5e-3, BUMP, GAMMA)
    dev = np.linalg.norm(back.values - u0.values) / np.linalg.norm(u0.values)
    assert dev < 1e-13


def test_detect_blowup_gradient_path(g32):
    r2 = g32.r_sq
    u = Field(g32, np.exp(-r2 / 4.0))
    gsq = take_snapshot(u, 0.0, None, None, GAMMA).grad_sq
    cfg = EvolveConfig(grid=g32, gamma=GAMMA, blowup_grad_factor=3.0, blowup_tail_frac=0.9)
    assert detect_blowup(u, gsq / 16.0, cfg)      # ratio 16 >= 3^2
    assert not detect_blowup(u, gsq, cfg)         # ratio 1 < 9, tail empty
    assert not detect_blowup(Field(g32, np.zeros(g32.shape, complex)), 1.0, cfg)


def test_detect_blowup_tail_path(g32):
    # a gradient factor of 1e6 leaves only the band trigger to fire
    def fires(u, tail_frac):
        cfg = EvolveConfig(grid=g32, gamma=GAMMA, blowup_grad_factor=1e6, blowup_tail_frac=tail_frac)
        return detect_blowup(u, take_snapshot(u, 0.0, None, None, GAMMA).grad_sq, cfg)

    rng = np.random.default_rng(62)
    noise = Field(g32, rng.standard_normal(g32.shape) + 1j * rng.standard_normal(g32.shape))
    # white noise spreads its power uniformly; the union of the three
    # per-axis top-20% bands holds 1 - 0.8^3 ~ 49% of it, inside (0.4, 0.6)
    assert fires(noise, 0.4)
    assert not fires(noise, 0.6)
    smooth = Field(g32, np.exp(-g32.r_sq / 4.0))
    assert not fires(smooth, 1e-10)


def test_blowup_detection_run(blowup_record):
    rec = blowup_record
    assert rec.termination.kind == "BlowupDetected"
    assert rec.termination.time < rec.config.t_max
    growth = rec.extras["grad_growth_factor"]
    # one step of overshoot past the factor-3 gate is expected, runaway is not
    assert 2.5 <= growth <= 4.5
    assert rec.snapshots[-1].time == rec.termination.time
    zzero = rec.extras["z_zero_extrapolated"]
    assert zzero > rec.termination.time


def test_trajectory_csv_roundtrip(tmp_path, blowup_record):
    path = tmp_path / "traj.csv"
    blowup_record.write_csv(path)
    lines = path.read_text().strip().split("\n")
    assert lines[0] == ",".join(CSV_COLUMNS)
    data = [l for l in lines if not l.startswith("#")][1:]
    assert len(data) == len(blowup_record.snapshots)
    footers = [l for l in lines if l.startswith("#")]
    assert footers[0].startswith("# termination=BlowupDetected t=")
    assert float(footers[0].split("t=")[1]) == blowup_record.termination.time
    assert footers[1].startswith("# z_zero_extrapolated=")
    assert float(footers[1].split("=")[1]) == blowup_record.extras["z_zero_extrapolated"]
    # repr round-trip: every written value parses back bit-exact
    mid = len(data) // 2
    parsed = [float(v) for v in data[mid].split(",")]
    snap = blowup_record.snapshots[mid]
    assert parsed == snap.csv_row()


def test_monotonicity_probe_blowup_branch(blowup_record):
    out = monotonicity_probe(blowup_record, "BlowUp")
    assert out["branch"] == "BlowUp"
    assert out["interior_points"] == len(blowup_record.snapshots) - 2
    # focusing collapse: z is concave at essentially every recorded time
    assert out["z2_negative_fraction"] >= 0.9
    assert 0.0 <= out["z2_negative_fraction_fd"] <= 1.0


def test_monotonicity_probe_global_branch(g32):
    r2 = g32.r_sq
    u0 = Field(g32, 0.2 * np.exp(-r2 / (2.0 * 1.5**2)) * np.exp(0.3j * r2))
    cfg = EvolveConfig(grid=g32, gamma=GAMMA, dt0=2e-3, t_max=1.0, tol_step=1e-5,
                       record_stride=2, blowup_grad_factor=50.0, blowup_tail_frac=1.0)
    rec = evolve(u0, ZERO, cfg)
    assert rec.termination.kind == "Completed"
    out = monotonicity_probe(rec, "Global", f_x0=0.04)
    assert out["branch"] == "Global"
    assert out["transient_skipped"] >= 1
    # outgoing chirp: the variance radius grows monotonically
    assert out["min_z1"] > 0.0
    assert out["z1_floor"] == pytest.approx(0.4, rel=1e-12)


def test_monotonicity_probe_off_branches(blowup_record):
    assert monotonicity_probe(blowup_record, None) == {}
    assert monotonicity_probe(blowup_record, "Indeterminate") == {}
    short = TrajectoryRecord(
        snapshots=blowup_record.snapshots[:2],
        termination=blowup_record.termination,
        config=blowup_record.config,
    )
    assert monotonicity_probe(short, "BlowUp") == {}


def test_virial_consistency_nonlinear(g32):
    r2 = g32.r_sq
    u0 = Field(g32, 0.6 * np.exp(-r2 / (2.0 * 1.4**2)) * np.exp(-0.1j * r2))
    cfg = EvolveConfig(grid=g32, gamma=GAMMA, dt0=1e-3, t_max=0.05, tol_step=1.0,
                       adaptive=False, record_stride=1,
                       blowup_grad_factor=50.0, blowup_tail_frac=1.0)
    rec = evolve(u0, BUMP, cfg)
    dev = virial_consistency(rec)
    assert dev["i1_max_rel_dev"] < 1e-4
    assert dev["i2_max_rel_dev"] < 1e-3
    assert dev["max_snapshot_dt"] == pytest.approx(1e-3, rel=1e-9)  # fixed dt, every step recorded


def test_virial_consistency_linear_mode(g32):
    # linear runs store the full I'' column; the check must add back the
    # pressure term the dynamics never saw
    r2 = g32.r_sq
    u0 = Field(g32, 0.6 * np.exp(-r2 / (2.0 * 1.4**2)))
    cfg = EvolveConfig(grid=g32, gamma=GAMMA, dt0=1e-3, t_max=0.05, tol_step=1.0,
                       adaptive=False, record_stride=1, linear=True,
                       blowup_grad_factor=50.0, blowup_tail_frac=1.0)
    rec = evolve(u0, BUMP, cfg)
    dev = virial_consistency(rec, linear=True)
    assert dev["i1_max_rel_dev"] < 1e-4
    assert dev["i2_max_rel_dev"] < 1e-3


def test_virial_consistency_needs_five_snapshots(blowup_record):
    short = TrajectoryRecord(
        snapshots=blowup_record.snapshots[:4],
        termination=blowup_record.termination,
        config=blowup_record.config,
    )
    with pytest.raises(ValueError, match="5 snapshots"):
        virial_consistency(short)


def test_adaptive_step_accounting(g32):
    r2 = g32.r_sq
    u0 = Field(g32, 0.6 * np.exp(-r2 / (2.0 * 1.4**2)))
    cfg = EvolveConfig(grid=g32, gamma=GAMMA, dt0=0.5, t_max=0.3, tol_step=1e-7,
                       record_stride=5, blowup_grad_factor=50.0, blowup_tail_frac=1.0)
    rec = evolve(u0, BUMP, cfg)
    dts = rec.extras["accepted_dts"]
    assert all(dt > 0 for dt in dts)
    assert sum(dts) == pytest.approx(rec.termination.time, abs=1e-9)
    # the oversized initial step cannot survive the tolerance
    assert dts[0] < cfg.dt0
    # the record counts every attempt, the rejected ones too
    assert rec.extras["n_rejected_steps"] >= 1
    assert rec.extras["n_step_attempts"] == len(dts) + rec.extras["n_rejected_steps"]


def test_completed_termination(g32):
    r2 = g32.r_sq
    u0 = Field(g32, 0.3 * np.exp(-r2 / 4.0))
    cfg = EvolveConfig(grid=g32, gamma=GAMMA, dt0=5e-3, t_max=0.1, tol_step=1e-5,
                       record_stride=3, blowup_grad_factor=50.0, blowup_tail_frac=1.0)
    rec = evolve(u0, ZERO, cfg)
    assert rec.termination.kind == "Completed"
    assert rec.termination.time == pytest.approx(0.1, abs=1e-9)
    assert rec.snapshots[-1].time == pytest.approx(0.1, abs=1e-9)
    assert rec.times == sorted(rec.times)


def test_resolution_exhausted(g32):
    rng = np.random.default_rng(63)
    noise = Field(g32, 0.5 * (rng.standard_normal(g32.shape) + 1j * rng.standard_normal(g32.shape)))
    # tolerance below roundoff: every trial step is rejected until dt underflows
    cfg = EvolveConfig(grid=g32, gamma=GAMMA, dt0=1e-3, t_max=1.0, tol_step=1e-18,
                       blowup_grad_factor=50.0, blowup_tail_frac=1.0)
    rec = evolve(noise, ZERO, cfg)
    assert rec.termination.kind == "ResolutionExhausted"
    assert rec.termination.time == 0.0


@pytest.mark.parametrize("potential", [ZERO, BUMP], ids=["free", "bump"])
@pytest.mark.parametrize("linear", [False, True], ids=["nonlinear", "linear"])
def test_fused_attempt_matches_half_step_replay(g32, potential, linear):
    # the attempt builds the dt step and the two dt/2 steps from one Fourier
    # state and merges the middle kinetic flows; its accepted states must be
    # those of two plain strang_step(dt/2) calls per accepted step
    r2 = g32.r_sq
    u0 = Field(g32, 0.6 * np.exp(-r2 / (2.0 * 1.4**2)) * np.exp(-0.2j * r2))
    cfg = EvolveConfig(grid=g32, gamma=GAMMA, dt0=4e-3, t_max=0.06, tol_step=1e-6, record_stride=1,
                       linear=linear, blowup_grad_factor=50.0, blowup_tail_frac=1.0)
    rec = evolve(u0, potential, cfg)
    assert rec.termination.kind == "Completed"
    v = None if potential.is_zero else eval_potential(potential, g32)
    w = None if potential.is_zero else eval_virial_weight(potential, g32)
    u, t = u0, 0.0
    replay = [take_snapshot(u, t, v, w, GAMMA)]
    for dt in rec.extras["accepted_dts"]:
        for _ in range(2):
            u = strang_step(u, 0.5 * dt, potential, GAMMA, linear=linear)
        t += dt
        replay.append(take_snapshot(u, t, v, w, GAMMA))
    assert len(rec.snapshots) == len(replay) > 5
    got = np.array([s.csv_row() for s in rec.snapshots])
    want = np.array([s.csv_row() for s in replay])
    scale = np.abs(want).max(axis=0)
    assert np.all(np.abs(got - want) <= 1e-12 * np.where(scale > 0, scale, 1.0))


def test_separable_kinetic_factor(g32):
    for tau in (1e-3, -2.5e-3, 0.05):
        assert np.abs(_kinetic(g32, tau) - np.exp(-1j * tau * g32.k_sq)).max() < 1e-14


@pytest.mark.parametrize("points", [16, 32])
def test_packed_convolutions_match_separate_ones(points):
    # one complex pair carries both real densities: the real part of the
    # result is the convolution of |a|^2, the imaginary part that of |b|^2
    grid = Grid(3, points, 8.0)
    rng = np.random.default_rng(points)
    a, b = (rng.standard_normal(grid.shape) + 1j * rng.standard_normal(grid.shape) for _ in range(2))
    m = grid.riesz_multiplier(GAMMA)
    for got, v in zip(_convolve_pair(grid, a, b, GAMMA), (a, b)):
        want = apply_multiplier(abs_sq(v), m)
        assert np.abs(got - want).max() <= 1e-14 * np.abs(want).max()


def test_rotate_half_angle_form_is_exact_to_rounding():
    """u exp(i dt phase) from tan(dt phase / 2) against np.exp, for angles from 1e-6 to 1e5.

    Odd multiples of pi, where tan of the half angle is largest, are
    included.  The bound is two units in the last place of 1; a truncated
    series, or a half angle that is not halved, misses it by orders of
    magnitude."""
    rng = np.random.default_rng(57)
    theta = np.concatenate([
        np.logspace(-6, 5, 20001),
        (2 * np.arange(-2000, 2000) + 1) * np.pi,
        rng.uniform(-1e5, 1e5, 20000),
    ])
    theta = np.concatenate([theta, -theta])
    eps = np.finfo(float).eps
    assert np.abs(_rotate(np.ones(theta.shape, dtype=complex), theta, 1.0) - np.exp(1j * theta)).max() <= 2 * eps
    u = rng.standard_normal(theta.shape) + 1j * rng.standard_normal(theta.shape)
    got = _rotate(u, theta, 0.25)
    assert np.abs(got - u * np.exp(0.25j * theta)).max() <= 4 * eps * np.abs(u).max()


def test_fft_counts_per_adaptive_step(monkeypatch):
    """Counter gate on the transforms of adaptive steps at 16^3.

    An attempt runs the dt step K P K and the two dt/2 steps K P K P K on one
    Fourier state: three phase sub-flows, each an ifftn into physical space
    and an fftn back (6 complex FFTs).  The first sub-flows of the dt step
    and of the dt/2 steps are independent, so their two Hartree convolutions
    share one fftn/ifftn pair, and the third sub-flow has its own: 10 complex
    FFTs per attempt.  A snapshot given the state's transform costs 3 ifftn
    for I' and one rfftn for P (3 complex, 1 real): P is read off the half
    spectrum of |u|^2 by Parseval, with no transform back.  Add the ifftn of
    the state when the snapshot is taken after a step; detect_blowup reads
    the transform in hand (0).

    One step, record_stride 1: fftn(u0) (1); the t = 0 snapshot (3, 1); one
    attempt (10); the closing snapshot (1 + 3, 1).  Total 18 complex and 2
    real.  Two steps, record_stride 2: the same, with two attempts (20) and
    no snapshot, so no ifftn, after the first step: 28 complex and 2 real,
    where the run with the state turned back after every step cost 29."""
    counts = dict.fromkeys(("fftn", "ifftn", "rfftn", "irfftn"), 0)
    for name in counts:
        def counted(*args, _fn=getattr(scipy.fft, name), _name=name, **kwargs):
            counts[_name] += 1
            return _fn(*args, **kwargs)
        monkeypatch.setattr(scipy.fft, name, counted)

    def complex_real():
        out = (counts["fftn"] + counts["ifftn"], counts["rfftn"] + counts["irfftn"])
        counts.update(dict.fromkeys(counts, 0))
        return out

    grid = Grid(3, 16, 8.0)
    u0 = Field(grid, 0.5 * np.exp(-grid.r_sq / 4.0) + 0j)
    cfg = EvolveConfig(grid=grid, gamma=GAMMA, dt0=1e-3, t_max=1e-3, tol_step=1e-2, record_stride=1,
                       blowup_grad_factor=50.0, blowup_tail_frac=1.0)
    rec = evolve(u0, ZERO, cfg)
    assert len(rec.extras["accepted_dts"]) == 1 and len(rec.snapshots) == 2
    assert complex_real() == (18, 2)

    cfg2 = EvolveConfig(grid=grid, gamma=GAMMA, dt0=1e-3, t_max=2e-3, tol_step=1e-2, record_stride=2,
                        blowup_grad_factor=50.0, blowup_tail_frac=1.0)
    rec = evolve(u0, ZERO, cfg2)
    assert rec.extras["n_step_attempts"] == len(rec.extras["accepted_dts"]) == 2
    assert len(rec.snapshots) == 2
    assert complex_real() == (28, 2)

    uhat = scipy.fft.fftn(u0.values)
    complex_real()
    assert not detect_blowup(u0, 1.0, cfg, uhat=uhat)
    assert not detect_blowup(None, 1.0, cfg, uhat=uhat)
    assert complex_real() == (0, 0)
    assert not detect_blowup(u0, 1.0, cfg)
    assert complex_real() == (1, 0)
