"""Split-step propagator: oracles, conservation, detection, and diagnostics."""

import math

import numpy as np
import pytest

import hartreekit.evolve as evolve_module
from hartreekit.evolve import (
    EvolveConfig,
    TrajectoryRecord,
    detect_blowup,
    evolve,
    monotonicity_probe,
    strang_step,
    virial_consistency,
)
from hartreekit.functionals import CSV_COLUMNS, take_snapshot
from hartreekit.potentials import PotentialSpec
from hartreekit.spectral import Field, Grid

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
