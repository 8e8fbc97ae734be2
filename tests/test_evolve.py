"""Split-step propagator: oracles, conservation, detection, and diagnostics."""

import math
from dataclasses import replace

import numpy as np
import pytest

import scipy.fft

import hartreekit.evolve as evolve_module
from hartreekit.evolve import (
    _embedded_step,
    _kinetic,
    _propose,
    _rotate,
    _step_toward,
    EvolveConfig,
    TrajectoryRecord,
    detect_blowup,
    evolve,
    monotonicity_probe,
    strang_step,
    virial_consistency,
)
from hartreekit.functionals import CSV_COLUMNS, _grad_sq, take_snapshot
from hartreekit.potentials import PotentialSpec, eval_potential, eval_virial_weight
from hartreekit.spectral import (
    EvenOctant, Field, Grid, PeriodicBasis, abs_sq, fftn, is_even, shell_fraction,
    transform_basis,
)

from conftest import GAMMA, traced_peak

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


@pytest.fixture(scope="module")
def collapse_datum():
    # the benchmark's collapse workload at its centre amplitude: an incoming
    # chirp on a broad Gaussian, evolved to detection
    grid = Grid(3, 32, 10.0)
    u0 = Field(grid, 0.3551 * np.exp(-grid.r_sq / (2.0 * 1.99**2)) * np.exp(-0.1422j * grid.r_sq))
    cfg = EvolveConfig(grid=grid, gamma=GAMMA, dt0=1e-3, t_max=3.0, tol_step=1e-5,
                       blowup_grad_factor=6.0, blowup_tail_frac=0.35, record_stride=2)
    return u0, evolve(u0, ZERO, cfg)


def test_module_is_not_shadowed_by_the_integrator():
    assert type(evolve_module).__name__ == "module"
    assert evolve_module.evolve is evolve


def test_config_validation(g32):
    nan, inf = float("nan"), float("inf")
    for bad in ({"dt0": 0.0}, {"dt0": nan}, {"dt0": inf}, {"t_max": -1.0}, {"t_max": nan}, {"t_max": inf},
                {"tol_step": 0.0}, {"tol_step": -1e-6}, {"tol_step": nan}, {"tol_step": inf},
                {"blowup_grad_factor": 1.0}, {"blowup_grad_factor": nan},
                {"record_dt": 0.0}, {"record_dt": -0.1}, {"record_dt": nan}, {"record_dt": inf}):
        with pytest.raises(ValueError, match=next(iter(bad))):
            EvolveConfig(grid=g32, gamma=GAMMA, **bad)
    with pytest.raises(ValueError, match="dt0 .*; t_max .*; tol_step .*; record_dt"):
        EvolveConfig(grid=g32, gamma=GAMMA, dt0=nan, t_max=0.0, tol_step=-1.0, record_dt=inf)
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
    # fixed-step ladder of the Strang reference; it must show second order in
    # the conserved energy at the final time
    r2 = g32.r_sq
    u0 = Field(g32, 0.5 * np.exp(-r2 / (2.0 * 1.3**2)))
    v, w = eval_potential(BUMP, g32), eval_virial_weight(BUMP, g32)
    e0 = take_snapshot(u0, 0.0, v, w, GAMMA).energy
    errs = []
    for dt in (1e-2, 5e-3, 2.5e-3, 1.25e-3):
        f = u0
        for _ in range(round(0.2 / dt)):
            f = strang_step(f, dt, BUMP, GAMMA)
        errs.append(abs(take_snapshot(f, 0.2, v, w, GAMMA).energy - e0))
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
    assert "z_zero_extrapolated" not in rec.extras


def test_trajectory_csv_roundtrip(tmp_path, blowup_record):
    path = tmp_path / "traj.csv"
    blowup_record.write_csv(path)
    lines = path.read_text().strip().split("\n")
    assert lines[0] == ",".join(CSV_COLUMNS)
    data = [l for l in lines if not l.startswith("#")][1:]
    assert len(data) == len(blowup_record.snapshots)
    footers = [l for l in lines if l.startswith("#")]
    assert len(footers) == 1 and footers[0].startswith("# termination=BlowupDetected t=")
    assert float(footers[0].split("t=")[1]) == blowup_record.termination.time
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
    # the verdict is required; Indeterminate, on neither branch, gets no
    # probe on any record, and neither branch gets one on under 3 snapshots
    short = TrajectoryRecord(
        snapshots=blowup_record.snapshots[:2],
        termination=blowup_record.termination,
        config=blowup_record.config,
    )
    with pytest.raises(TypeError):
        monotonicity_probe(blowup_record)
    for rec in (blowup_record, short):
        assert monotonicity_probe(rec, "Indeterminate") == {}
    assert monotonicity_probe(short, "BlowUp") == {}
    assert monotonicity_probe(short, "Global") == {}


def test_virial_consistency_nonlinear(g32):
    r2 = g32.r_sq
    u0 = Field(g32, 0.6 * np.exp(-r2 / (2.0 * 1.4**2)) * np.exp(-0.1j * r2))
    # every step lands on a multiple of record_dt = dt0, and tol_step = 1 accepts it
    cfg = EvolveConfig(grid=g32, gamma=GAMMA, dt0=1e-3, t_max=0.05, tol_step=1.0, record_dt=1e-3,
                       record_stride=1, blowup_grad_factor=50.0, blowup_tail_frac=1.0)
    rec = evolve(u0, BUMP, cfg)
    dev = virial_consistency(rec)
    assert dev["i1_gap"] < 1e-4
    assert dev["i2_gap"] < 1e-3
    assert dev["max_snapshot_dt"] == pytest.approx(1e-3, rel=1e-9)  # fixed dt, every step recorded


def test_virial_consistency_linear_mode(g32):
    # linear runs store the full I'' column; the check must add back the
    # pressure term the dynamics never saw
    r2 = g32.r_sq
    u0 = Field(g32, 0.6 * np.exp(-r2 / (2.0 * 1.4**2)))
    cfg = EvolveConfig(grid=g32, gamma=GAMMA, dt0=1e-3, t_max=0.05, tol_step=1.0, record_dt=1e-3,
                       record_stride=1, linear=True, blowup_grad_factor=50.0, blowup_tail_frac=1.0)
    rec = evolve(u0, BUMP, cfg)
    dev = virial_consistency(rec)
    assert dev["i1_gap"] < 1e-4
    assert dev["i2_gap"] < 1e-3


def test_virial_consistency_is_exact_on_a_free_linear_gaussian(g32):
    """At V = 0 the linear flow is exact on the grid and I(t) is a quadratic in t.

    So I' is linear and I'' constant, and the trapezoid integrates both
    exactly: the gaps stay at rounding level while the mass stays off the
    box edge, and grow once the wave reaches it."""
    a = 0.5
    u0 = Field(g32, np.exp(-a * g32.r_sq))

    def gaps(t_max):
        cfg = EvolveConfig(grid=g32, gamma=GAMMA, dt0=1e-2, t_max=t_max, tol_step=1e-6, record_dt=t_max / 8,
                           record_stride=1, linear=True, blowup_grad_factor=50.0, blowup_tail_frac=1.0)
        rec = evolve(u0, ZERO, cfg)
        assert rec.termination.kind == "Completed" and len(rec.snapshots) >= 9
        ref = free_gaussian_reference(g32, a, (0.0, 0.0, 0.0), t_max)
        edge = shell_fraction(PeriodicBasis(g32), abs_sq(ref.values), 0.9 * g32.half_length)
        return virial_consistency(rec), edge

    inside, edge = gaps(0.5)
    assert edge < 1e-8  # the free Gaussian spreads monotonically, so t_max has the most
    assert inside["i1_gap"] <= 1e-12
    assert inside["i2_gap"] <= 1e-11
    wrapped, edge = gaps(2.0)
    assert edge > 1e-2
    assert wrapped["i1_gap"] > 1e-3


def test_virial_consistency_from_two_snapshots(blowup_record):
    """Two snapshots are one trapezoid; one snapshot has nothing to integrate."""

    def first(k):
        return TrajectoryRecord(
            snapshots=blowup_record.snapshots[:k],
            termination=blowup_record.termination,
            config=blowup_record.config,
        )

    s0, s1 = blowup_record.snapshots[:2]
    dt = s1.time - s0.time
    dev = virial_consistency(first(2))
    want = abs(s1.variance_I - s0.variance_I - 0.5 * dt * (s0.virial_I1 + s1.virial_I1))
    assert dev["i1_gap"] == pytest.approx(want / max(s0.variance_I, s1.variance_I), rel=1e-12)
    assert np.isfinite(dev["i2_gap"])
    assert dev["max_snapshot_dt"] == dt
    with pytest.raises(ValueError, match="2 snapshots"):
        virial_consistency(first(1))


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


@pytest.mark.parametrize("bad", [math.nan, math.inf], ids=["nan", "inf"])
def test_non_finite_state_is_never_accepted(bad):
    # a non-finite state makes the error estimate NaN, which fails the
    # acceptance test, so every attempt is rejected until the step underflows
    grid = Grid(3, 16, 8.0)
    u0 = 0.3 * np.exp(-grid.r_sq / 4.0).astype(complex)
    u0[3, 4, 5] = bad
    cfg = EvolveConfig(grid=grid, gamma=GAMMA, dt0=1e-3, t_max=0.1, tol_step=1e-6,
                       blowup_grad_factor=50.0, blowup_tail_frac=1.0)
    with np.errstate(invalid="ignore", over="ignore"):
        rec = evolve(Field(grid, u0), ZERO, cfg)
    assert rec.termination.kind == "ResolutionExhausted"
    assert rec.termination.time == 0.0
    assert rec.extras["accepted_dts"] == []
    assert rec.extras["n_rejected_steps"] == rec.extras["n_step_attempts"] > 0


def test_collapse_step_counts(collapse_datum):
    # the controller predicts the growth of the error constant err/h^4 over
    # accepted steps; the memoryless rule took 38 attempts and rejected 11 here
    _, rec = collapse_datum
    assert rec.termination.kind == "BlowupDetected"
    assert len(rec.extras["accepted_dts"]) == 27
    assert rec.extras["n_step_attempts"] <= 30
    assert rec.extras["n_rejected_steps"] <= 3


def test_step_order_near_detection(collapse_datum):
    # the estimate stays fourth order where the step shrinks fastest: at the
    # accepted states of the last tenth before detection, replayed on the
    # run's basis, the estimate of a doubled step grows by about 2^4
    u0, rec = collapse_datum
    t_det = rec.termination.time
    basis = transform_basis(u0.grid, u0.values)
    uhat = basis.forward(basis.take(u0.values))

    def err(h):
        fourth, third = _embedded_step(basis, uhat, h, None, GAMMA, False)
        return math.sqrt(basis.norm_sq(third - fourth) / basis.norm_sq(fourth))

    t, orders = 0.0, []
    for dt in rec.extras["accepted_dts"]:
        uhat = _embedded_step(basis, uhat, dt, None, GAMMA, False)[0]
        t += dt
        if t >= 0.9 * t_det:
            orders.append(math.log2(err(0.005) / err(0.0025)))
    assert t == t_det and len(orders) >= 3
    assert all(3.5 <= o <= 5.0 for o in orders), orders


# Blanes & Moan, J. Comput. Appl. Math. 142 (2002) 313: the order-4 weights,
# written out here apart from the module's
_BM_KIN = [0.0792036964311957, 0.353172906049774, -0.0420650803577195]
_BM_KIN += [1.0 - 2.0 * sum(_BM_KIN)] + _BM_KIN[::-1]
_BM_PHASE = [0.209515106613362, -0.143851773179818]
_BM_PHASE += [0.5 - sum(_BM_PHASE)]
_BM_PHASE += _BM_PHASE[::-1]


def _stage_loop_step(grid, u, dt, vvals, linear):
    """One Blanes-Moan step of u, stage by stage: full-grid np.exp factors and a complex convolution."""
    riesz = grid.riesz_multiplier(GAMMA)
    uhat = np.fft.fftn(u)
    for a, b in zip(_BM_KIN, _BM_PHASE):
        w = np.fft.ifftn(np.exp(-1j * a * dt * grid.k_sq) * uhat)
        phase = np.zeros(grid.shape) if linear else np.fft.ifftn(riesz * np.fft.fftn(np.abs(w) ** 2)).real
        if vvals is not None:
            phase = phase - vvals
        uhat = np.fft.fftn(np.exp(1j * b * dt * phase) * w)
    return np.fft.ifftn(np.exp(-1j * _BM_KIN[-1] * dt * grid.k_sq) * uhat)


@pytest.mark.parametrize("linear, potential, tilt", [
    pytest.param(linear, potential, tilt, id="-".join(filter(None, (lid, pid, tid))))
    for tilt, tid in ((0.0, ""), (0.1, "tilted"))
    for linear, lid in ((False, "nonlinear"), (True, "linear"))
    for potential, pid in ((ZERO, "free"), (BUMP, "bump"))
])
def test_fused_attempt_matches_half_step_replay(g32, potential, linear, tilt):
    # the attempt runs the step and its embedded partner on one coefficient
    # state, with real convolution pairs, separable kinetic factors and the
    # tan rotation; its accepted states must be those of the plain stage
    # loop, replayed over every accepted dt.  The radial datum runs on the
    # even octant's DCT-Is, the tilted one on the periodic grid's FFTs
    r2 = g32.r_sq
    u0 = Field(g32, 0.6 * np.exp(-r2 / (2.0 * 1.4**2)) * np.exp(-0.2j * r2) * (1.0 + tilt * g32.coords[0]))
    cfg = EvolveConfig(grid=g32, gamma=GAMMA, dt0=4e-3, t_max=0.12, tol_step=1e-8, record_stride=1,
                       linear=linear, blowup_grad_factor=50.0, blowup_tail_frac=1.0)
    rec = evolve(u0, potential, cfg)
    assert rec.termination.kind == "Completed"
    assert rec.extras["transform_basis"] == ("periodic" if tilt else "even_octant")
    v = None if potential.is_zero else eval_potential(potential, g32)
    w = None if potential.is_zero else eval_virial_weight(potential, g32)
    u, t = u0.values, 0.0
    replay = [take_snapshot(u0, t, v, w, GAMMA)]
    for dt in rec.extras["accepted_dts"]:
        u = _stage_loop_step(g32, u, dt, None if v is None else v.values, linear)
        t += dt
        replay.append(take_snapshot(Field(g32, u), t, v, w, GAMMA))
    assert len(rec.snapshots) == len(replay) > 5
    got = np.array([s.csv_row() for s in rec.snapshots])
    want = np.array([s.csv_row() for s in replay])
    scale = np.abs(want).max(axis=0)
    assert np.all(np.abs(got - want) <= 1e-12 * np.where(scale > 0, scale, 1.0))


@pytest.mark.parametrize("potential", [ZERO, BUMP], ids=["free", "bump"])
def test_embedded_step_orders(g32, potential):
    # fixed-step ladder: the step must read order 4 and its partner at least 3
    # minus a margin, each against its own next halving
    v = None if potential.is_zero else eval_potential(potential, g32).values
    u0 = 0.5 * np.exp(-g32.r_sq / (2.0 * 1.3**2)) * np.exp(-0.2j * g32.r_sq)
    t_end = 0.2
    ends = {}
    for n in (4, 8, 16, 32):
        states = [fftn(u0), fftn(u0)]
        for _ in range(n):
            states = [_embedded_step(PeriodicBasis(g32), s, t_end / n, v, GAMMA, False)[i] for i, s in enumerate(states)]
        ends[n] = states
    for which, (lo, hi) in ((0, (3.8, 4.2)), (1, (2.8, math.inf))):
        errs = [np.linalg.norm(ends[n][which] - ends[2 * n][which]) for n in (4, 8, 16)]
        orders = [math.log2(errs[i] / errs[i + 1]) for i in range(2)]
        assert all(lo <= o <= hi for o in orders), (which, orders)


def test_embedded_step_time_reversal(g32):
    # the step is palindromic, so the step of -dt undoes the step of dt
    rng = np.random.default_rng(64)
    u0 = (0.5 + 0.1 * rng.standard_normal(g32.shape)) * np.exp(-g32.r_sq / 4.0)
    v = eval_potential(BUMP, g32).values
    uhat = fftn(u0)
    basis = PeriodicBasis(g32)
    forward, _ = _embedded_step(basis, uhat, 2e-2, v, GAMMA, False)
    back, _ = _embedded_step(basis, forward, -2e-2, v, GAMMA, False)
    assert np.linalg.norm(back - uhat) <= 1e-12 * np.linalg.norm(uhat)


def test_adaptive_linear_free_run_is_the_exact_flow(g32):
    # with V = 0 and the nonlinear phase off, every kinetic flow is exact and
    # every phase sub-flow is the identity, so the step and its partner are
    # both the exact free flow; a partner fed a state that the step's
    # transform overwrote would be rejected on every attempt
    r2 = g32.r_sq
    u0 = Field(g32, 0.6 * np.exp(-r2 / (2.0 * 1.4**2)) * np.exp(-0.2j * r2))
    cfg = EvolveConfig(grid=g32, gamma=GAMMA, dt0=1e-3, t_max=0.4, tol_step=1e-10, record_stride=1,
                       linear=True, blowup_grad_factor=50.0, blowup_tail_frac=1.0)
    rec = evolve(u0, ZERO, cfg)
    assert rec.termination.kind == "Completed"
    assert rec.extras["n_rejected_steps"] == 0 and len(rec.snapshots) > 5
    uhat0 = np.fft.fftn(u0.values)
    want = np.array([
        take_snapshot(Field(g32, np.fft.ifftn(np.exp(-1j * s.time * g32.k_sq) * uhat0)), s.time, None, None, GAMMA).csv_row()
        for s in rec.snapshots
    ])
    got = np.array([s.csv_row() for s in rec.snapshots])
    scale = np.abs(want).max(axis=0)
    assert np.all(np.abs(got - want) <= 1e-12 * np.where(scale > 0, scale, 1.0))


def test_steps_land_on_record_dt(g32):
    # steps are clipped to land on every multiple of record_dt, with a
    # snapshot at each and none between them (record_stride is out of reach);
    # no step leaves a sliver before a mark, so in this dispersing run, which
    # rejects nothing, no step is shorter than half the one before it
    r2 = g32.r_sq
    u0 = Field(g32, 0.3 * np.exp(-r2 / (2.0 * 1.4**2)) * np.exp(0.1j * r2))
    cfg = EvolveConfig(grid=g32, gamma=GAMMA, dt0=1e-3, t_max=0.28, tol_step=1e-7, record_stride=10**9,
                       record_dt=0.07, blowup_grad_factor=50.0, blowup_tail_frac=1.0)
    rec = evolve(u0, BUMP, cfg)
    assert rec.termination.kind == "Completed" and rec.extras["n_rejected_steps"] == 0
    assert rec.times == [k * 0.07 for k in range(4)] + [0.28]
    dts = rec.extras["accepted_dts"]
    assert len(dts) > 2 * (len(rec.times) - 1)
    assert all(b >= 0.5 * a for a, b in zip(dts, dts[1:]))
    ends = np.cumsum(dts)
    for mark in rec.times[1:]:
        assert np.abs(ends - mark).min() <= 1e-15


def test_step_policy():
    # a mark that one proposal covers is reached in one step; one that would
    # leave less than another step is split in halves
    assert _step_toward(0.03, 0.05) == 0.03
    assert _step_toward(0.08, 0.05) == 0.04
    assert _step_toward(0.12, 0.05) == 0.05
    tol = 1e-6
    # an unclipped accepted step scales the proposal by the controller
    assert _propose(0.1, 0.1, tol, tol) == pytest.approx(0.09, rel=1e-14)
    assert _propose(0.1, 0.1, tol / 16.0, tol) == pytest.approx(0.18, rel=1e-14)
    assert _propose(0.1, 0.1, 0.0, tol) == pytest.approx(0.5, rel=1e-14)
    assert _propose(0.1, 0.1, 1e6 * tol, tol) == pytest.approx(0.02, rel=1e-14)
    # a clipped accepted step keeps the proposal, unless the controller offers more
    assert _propose(0.1, 0.01, tol, tol) == 0.1
    assert _propose(0.1, 0.04, 0.0, tol) == pytest.approx(0.2, rel=1e-14)
    # a rejection scales the attempted step, clipped or not
    assert _propose(0.1, 0.01, 16.0 * tol, tol) == pytest.approx(0.0045, rel=1e-14)
    # an error constant that grew 16-fold over the last accepted step is
    # predicted to grow again, which halves the proposal; a rejection ignores it
    assert _propose(0.1, 0.1, tol, tol, trend=16.0) == pytest.approx(0.045, rel=1e-14)
    assert _propose(0.1, 0.01, 16.0 * tol, tol, trend=16.0) == _propose(0.1, 0.01, 16.0 * tol, tol)


def test_separable_kinetic_factor(g32):
    for tau in (1e-3, -2.5e-3, 0.05):
        assert np.abs(_kinetic(g32, tau) - np.exp(-1j * tau * g32.k_sq)).max() < 1e-14


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


def test_octant_step_gemm_count(gemm_counts):
    """Counter gate: one attempt on a 32^3 grid's 17^3 octant takes 99 BLAS GEMMs.

    An attempt is 17 complex and 16 real DCT-Is along every axis
    (_embedded_step), each one GEMM per axis: 33 x 3 = 99.  The stacked
    route took m = 17 per axis, 33 x 51 = 1,683."""
    grid = Grid(3, 32, 10.0)
    u0 = 0.8 * np.exp(-grid.r_sq / 2.0) + 0j
    basis = transform_basis(grid, u0)
    uhat = basis.forward(basis.take(u0))
    gemm_counts.clear()
    _embedded_step(basis, uhat, 1e-3, None, GAMMA, False)
    assert len(gemm_counts) == sum(gemm_counts) == 99


def test_fft_counts_per_adaptive_step(fft_counts):
    """Counter gate on the transforms of adaptive steps at 16^3, on both bases.

    An attempt is one Blanes-Moan step, A B A B A B A B A B A B A, with its
    embedded partner.  Each phase sub-flow B is an inverse transform into
    physical space, one real pair for its Hartree convolution, and a forward
    transform back (2 complex, 2 real).  The step runs six: 12 complex and 12
    real.  The partner shares the first three and the fourth one's physical
    input and convolution, so its own fourth sub-flow costs only the forward
    transform (1 complex), and its last two cost (4, 4): an attempt is 17
    complex and 16 real transforms.  A snapshot takes I' from the state's
    points, one transform pair along each axis, and reads ||grad u||^2 off
    the state's transform: 3 fft and 3 ifft for I' and one rfftn for P
    (6 one-axis, 1 real), where P is read off the half spectrum of |u|^2 by
    Parseval, with no transform back.  detect_blowup reads the transform in
    hand (0).  record_dt = t_max, so no step is clipped short of the end.

    Periodic basis, on a datum that is not even, u0 (1 + 0.1 x_1): an
    attempt's transforms are fftn/ifftn and rfftn/irfftn, and the state is
    fftn(u), turned back by one ifftn for a snapshot after a step.  One
    step, record_stride 1: fftn(u0) (1); the t = 0 snapshot (6 one-axis,
    1 real); one attempt (17, 16); the closing snapshot (1 complex,
    6 one-axis, 1 real).  Total 19 complex, 18 real and 12 one-axis.  Two
    steps, record_stride 2: the same, with two attempts (34, 32) and no
    snapshot, so no ifftn, after the first step: 36 complex, 34 real and
    12 one-axis.

    Even octant, on the radial u0: the state is read off fftn(u0) (1
    complex; EvenOctant.from_spectrum takes no transform), and the t = 0
    snapshot reads the octant's take of u0 and that state: I' takes per
    axis one matrix pass, which is no transform (EvenOctant.derivative),
    and P one forward DCT-I of |u|^2 (1).  Every transform of an attempt is
    a DCT-I: 17 forward and 16 inverse, counted at EvenOctant.forward and
    .inverse.  detect_blowup reads the octant's coefficients (0).  The
    closing snapshot is the t = 0 one's, with one inverse DCT-I to turn
    the state back.  One step: 1 complex, no real, no one-axis, 19
    forward, 17 inverse and no idst.  Two steps: 1, 0, 0, 36, 33 and 0;
    the full-grid t = 0 snapshot took 1 real and 6 one-axis more, and the
    octant's forward DCT-I of u0 took the place of its P's."""
    def complex_real_dct():
        c = fft_counts
        out = (c["fftn"] + c["ifftn"], c["rfftn"] + c["irfftn"], c["fft"] + c["ifft"], c["octant_forward"],
               c["octant_inverse"], c["idst"])
        c.clear()
        return out

    grid = Grid(3, 16, 8.0)
    radial = Field(grid, 0.5 * np.exp(-grid.r_sq / 4.0) + 0j)
    tilted = Field(grid, radial.values * (1.0 + 0.1 * grid.coords[0]))
    cfg = EvolveConfig(grid=grid, gamma=GAMMA, dt0=1e-3, t_max=1e-3, tol_step=1e-2, record_stride=1,
                       record_dt=1e-3, blowup_grad_factor=50.0, blowup_tail_frac=1.0)
    cfg2 = EvolveConfig(grid=grid, gamma=GAMMA, dt0=1e-3, t_max=2e-3, tol_step=1e-2, record_stride=2,
                        record_dt=2e-3, blowup_grad_factor=50.0, blowup_tail_frac=1.0)
    for u0, one, two in ((tilted, (19, 18, 12, 0, 0, 0), (36, 34, 12, 0, 0, 0)),
                         (radial, (1, 0, 0, 19, 17, 0), (1, 0, 0, 36, 33, 0))):
        rec = evolve(u0, ZERO, cfg)
        assert len(rec.extras["accepted_dts"]) == 1 and len(rec.snapshots) == 2
        assert complex_real_dct() == one
        rec = evolve(u0, ZERO, cfg2)
        assert rec.extras["n_step_attempts"] == len(rec.extras["accepted_dts"]) == 2
        assert len(rec.snapshots) == 2
        assert complex_real_dct() == two

    octant = EvenOctant(grid)
    uhat, c = scipy.fft.fftn(radial.values), octant.forward(octant.take(radial.values))
    complex_real_dct()
    assert not detect_blowup(uhat, 1.0, cfg, PeriodicBasis(grid))
    assert not detect_blowup(c, 1.0, cfg, octant)
    assert complex_real_dct() == (0, 0, 0, 0, 0, 0)
    assert not detect_blowup(radial, 1.0, cfg)
    assert complex_real_dct() == (1, 0, 0, 0, 0, 0)


def test_transform_basis_engagement(g32, monkeypatch):
    # a run takes the even octant only when u0 and V are both exactly even
    # about the grid centre on every axis; data asymmetric along one axis and
    # strang_step keep the periodic grid
    radial = Field(g32, 0.3 * np.exp(-g32.r_sq / 4.0) + 0j)
    bump = eval_potential(BUMP, g32).values
    cfg = EvolveConfig(grid=g32, gamma=GAMMA, dt0=1e-3, t_max=2e-3, record_dt=2e-3,
                       blowup_grad_factor=50.0, blowup_tail_frac=1.0)

    def basis(u0, values=bump, **kw):
        spec = PotentialSpec(kind="grid_sampled", values=values)
        return evolve(u0, spec, replace(cfg, **kw)).extras["transform_basis"]

    assert basis(radial) == basis(radial, values=np.zeros(g32.shape)) == "even_octant"
    for ax in range(3):
        shifted = np.roll(radial.values, 1, axis=ax)
        assert basis(Field(g32, shifted)) == "periodic"
        assert basis(radial, values=np.roll(bump, 1, axis=ax)) == "periodic"

    def no_dct(*args, **kwargs):
        raise AssertionError("strang_step took a DCT")
    monkeypatch.setattr(EvenOctant, "forward", no_dct)
    monkeypatch.setattr(EvenOctant, "inverse", no_dct)
    strang_step(radial, 1e-3, BUMP, GAMMA)


def test_octant_start_is_the_full_grid_snapshot(g32):
    # on the octant the t = 0 snapshot reads the takes of u0, V and the
    # weight and the coefficients read off fftn(u0), and it is the full
    # grid's snapshot to rounding
    r2 = g32.r_sq
    u0 = Field(g32, 0.6 * np.exp(-r2 / (2.0 * 1.4**2)) * np.exp(-0.2j * r2))
    cfg = EvolveConfig(grid=g32, gamma=GAMMA, dt0=1e-3, t_max=1e-3, record_dt=1e-3,
                       blowup_grad_factor=50.0, blowup_tail_frac=1.0)
    rec = evolve(u0, BUMP, cfg)
    assert rec.extras["transform_basis"] == "even_octant"
    want = take_snapshot(u0, 0.0, eval_potential(BUMP, g32), eval_virial_weight(BUMP, g32), GAMMA,
                         uhat=fftn(u0.values))
    got, want = np.array(rec.snapshots[0].csv_row()), np.array(want.csv_row())
    assert want[CSV_COLUMNS.index("virial_I1")] != 0.0
    assert np.all(np.abs(got - want) <= 1e-14 * np.abs(want))


def test_even_start_holds_no_full_grid_snapshot(g32):
    """Memory gate: a one-step run of an even datum and V at 32^3 peaks at 2 complex grid arrays.

    V and its weight are sampled on the grid, and only their takes are kept;
    the coefficients are read off one fftn(u0), and the t = 0 snapshot reads
    the octant.  The full-grid t = 0 snapshot, with fftn(u0), V and the
    weight held beside it, read 3.8."""
    u0 = Field(g32, 0.3 * np.exp(-g32.r_sq / 8.0) * np.exp(0.1j * g32.r_sq))
    cfg = EvolveConfig(grid=g32, gamma=GAMMA, dt0=1e-3, t_max=1e-3, record_dt=1e-3,
                       blowup_grad_factor=50.0, blowup_tail_frac=1.0)
    # the grid's and the octant's caches, which a run's earlier stages fill
    assert evolve(u0, BUMP, cfg).extras["transform_basis"] == "even_octant"
    assert traced_peak(lambda: evolve(u0, BUMP, cfg), g32) <= 2.0


def test_even_octant_on_grids_whose_spacing_is_not_dyadic():
    # the axis must be exactly antisymmetric at every spacing, so that a
    # centred Gaussian is exactly even, and evolves on the octant, also where
    # h = 2L/n is not exact in binary
    for n in (96, 100):
        axis = Grid(3, n, 10.0).axis
        assert np.array_equal(axis[1:], -axis[:0:-1]) and axis[n // 2] == 0.0
    grid = Grid(3, 96, 10.0)
    u0 = Field(grid, 0.3 * np.exp(-grid.r_sq / 4.0) + 0j)
    assert is_even(u0.values)
    cfg = EvolveConfig(grid=grid, gamma=GAMMA, dt0=1e-3, t_max=1e-3, record_dt=1e-3,
                       blowup_grad_factor=50.0, blowup_tail_frac=1.0)
    assert evolve(u0, ZERO, cfg).extras["transform_basis"] == "even_octant"


def test_detector_reads_the_octant_as_the_full_grid(g32, monkeypatch):
    """Over a collapse run's states, the detector's gradient ratio and tail
    share on the octant's coefficients are those of the full grid's fftn to
    1e-13."""
    seen = []

    def keep(c, grad_sq_initial, cfg, basis):
        seen.append((c.copy(), grad_sq_initial, basis))
        return detect_blowup(c, grad_sq_initial, cfg, basis)

    monkeypatch.setattr(evolve_module, "detect_blowup", keep)
    r2 = g32.r_sq
    u0 = Field(g32, 0.8 * np.exp(-r2 / (2.0 * 1.5**2)) * np.exp(-0.5j * r2))
    cfg = EvolveConfig(grid=g32, gamma=GAMMA, dt0=1e-3, t_max=2.0, tol_step=1e-5,
                       blowup_grad_factor=3.0, blowup_tail_frac=0.35, record_stride=2)
    assert evolve(u0, ZERO, cfg).termination.kind == "BlowupDetected"
    assert len(seen) > 10 and all(basis.name == "even_octant" for *_, basis in seen)
    periodic = PeriodicBasis(g32)
    cut = 0.8 * (g32.points // 2)
    for c, gsq0, basis in seen:
        power = abs_sq(c)
        full = abs_sq(fftn(basis.expand(basis.inverse(c))))
        ratio, want_ratio = _grad_sq(basis, power) / gsq0, _grad_sq(periodic, full) / gsq0
        share, want_share = shell_fraction(basis, power, cut, spectral=True), shell_fraction(periodic, full, cut, spectral=True)
        assert abs(ratio - want_ratio) <= 1e-13 * want_ratio
        assert abs(share - want_share) <= 1e-13 * want_share
