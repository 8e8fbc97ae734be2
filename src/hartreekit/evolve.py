"""Adaptive split-step Fourier evolution with trajectory diagnostics.

The propagator is a kinetic - (potential + nonlinear phase) - kinetic Strang
composition.  The middle sub-flow multiplies by a pure phase, which leaves
|u| pointwise invariant, so that sub-flow is exact and only the splitting
error remains.  The integrator carries the Fourier state fftn(u) between
steps: the kinetic factors act on it directly, built per step as outer
products of 1-D exponentials with no cache, and only the phase sub-flows go
to physical space, and the state itself goes back only when a snapshot is
taken.  Step size is controlled by an L2 step-doubling estimate, taken in
Fourier space on the shared transform; the two phase sub-flows of an attempt
that do not depend on each other share one complex transform pair for their
Hartree convolutions.  Collapse is detected, never resolved: once the
gradient blows past its threshold or the upper frequency band fills,
integration stops and the record says so.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field as dc_field

import numpy as np

from .functionals import CSV_COLUMNS, _grad_sq, take_snapshot
from .potentials import PotentialSpec, eval_potential, eval_virial_weight
from .spectral import Field, Grid, abs_sq, fftn, ifftn, shell_fraction


@dataclass
class EvolveConfig:
    grid: Grid
    gamma: float
    dt0: float = 1e-3
    t_max: float = 1.0
    tol_step: float = 1e-6
    blowup_grad_factor: float = 20.0
    blowup_tail_frac: float = 0.1
    record_stride: int = 5
    adaptive: bool = True
    linear: bool = False  # drop the nonlinear phase (diagnostic runs)

    def __post_init__(self):
        # written as `not 0 < x < inf` so that NaN and inf fail too; every problem is reported
        problems = [
            f"{name} must be positive and finite, got {getattr(self, name)}"
            for name in ("dt0", "t_max", "tol_step")
            if not 0 < getattr(self, name) < math.inf
        ]
        if not self.blowup_grad_factor > 1:
            problems.append(f"blowup_grad_factor must exceed 1, got {self.blowup_grad_factor}")
        if self.record_stride < 1:
            problems.append(f"record_stride must be >= 1, got {self.record_stride}")
        if not 0 < self.blowup_tail_frac <= 1:
            problems.append(f"blowup_tail_frac must lie in (0, 1], got {self.blowup_tail_frac}")
        if problems:
            raise ValueError("; ".join(problems))


@dataclass
class Termination:
    kind: str  # Completed | BlowupDetected | ResolutionExhausted
    time: float


@dataclass
class TrajectoryRecord:
    snapshots: list
    termination: Termination
    config: EvolveConfig
    extras: dict = dc_field(default_factory=dict)

    @property
    def times(self) -> list:
        return [s.time for s in self.snapshots]

    @property
    def z_series(self) -> list:
        return [s.z for s in self.snapshots]

    def write_csv(self, path) -> None:
        lines = [",".join(CSV_COLUMNS)]
        for s in self.snapshots:
            lines.append(",".join(repr(v) for v in s.csv_row()))
        lines.append(f"# termination={self.termination.kind} t={self.termination.time!r}")
        if "z_zero_extrapolated" in self.extras:
            lines.append(f"# z_zero_extrapolated={self.extras['z_zero_extrapolated']!r}")
        with open(path, "w") as fh:
            fh.write("\n".join(lines) + "\n")


def _rotate(u, phase, dt: float):
    """u * exp(i dt phase) by the half-angle form: with t = tan(dt phase / 2),
    cos = 2/(1 + t^2) - 1 and sin = t 2/(1 + t^2).

    It is exact to rounding at every angle, since tan is finite at every
    double, and one tan costs far less than a cos and a sin.  The 1/2 dt
    rides in the angle's one pass."""
    t = np.multiply(phase, 0.5 * dt)
    np.tan(t, out=t)
    q = t * t
    q += 1.0
    np.divide(2.0, q, out=q)
    rot = np.empty(t.shape, dtype=complex)
    np.multiply(t, q, out=rot.imag)
    np.subtract(q, 1.0, out=rot.real)
    rot *= u
    return rot


def _phase_step(grid: Grid, u, dt: float, vvals, gamma: float, linear: bool, conv=None):
    """The exact phase sub-flow over dt: |u| is invariant under multiplication by this phase.

    conv is the Hartree convolution |x|^{-gamma} * |u|^2 when the caller
    already holds it (_convolve_pair); otherwise it costs a complex
    fftn/ifftn pair, not apply_multiplier's real one, because
    bench/test_spans.py pins strang_step at six complex transforms."""
    if linear:
        if vvals is None:
            return u
        return _rotate(u, vvals, -dt)
    if conv is None:
        density = u.real * u.real + u.imag * u.imag
        conv = ifftn(grid.riesz_multiplier(gamma) * fftn(density), overwrite_x=True).real
    phase = conv if vvals is None else conv - vvals
    return _rotate(u, phase, dt)


def _convolve_pair(grid: Grid, a, b, gamma: float):
    """The Hartree convolutions of |a|^2 and |b|^2 from one complex fftn/ifftn pair.

    |a|^2 + i |b|^2 is written into one buffer, transformed, multiplied and
    transformed back in place.  The Riesz multiplier is real and even, so it
    maps real densities to real convolutions: the real part of the result is
    the convolution of |a|^2 and the imaginary part that of |b|^2 (Cooley,
    Lewis & Welch, J. Sound Vib. 12 (1970) 315).  Both are views of the one
    buffer."""
    buf = np.empty(a.shape, dtype=complex)
    for part, v in ((buf.real, a), (buf.imag, b)):
        np.multiply(v.real, v.real, out=part)
        part += v.imag * v.imag
    buf = fftn(buf, overwrite_x=True)
    buf *= grid.riesz_multiplier(gamma)
    buf = ifftn(buf, overwrite_x=True)
    return buf.real, buf.imag


def _kinetic(grid: Grid, tau: float):
    """exp(-i tau |k|^2), built as the outer product of the 1-D factors exp(-i tau xi_j^2)."""
    f = np.exp(-1j * tau * grid.freq_axis**2)
    kin = f
    for _ in range(1, grid.dim):
        kin = np.multiply.outer(kin, f)
    return kin


def _strang(grid: Grid, uhat, dt: float, kins, vvals, gamma: float, linear: bool):
    """Strang steps of size dt on a Fourier state uhat = fftn(u): kins[0] P kins[1] P ... kins[-1].

    P is the phase sub-flow over dt and each kins entry a kinetic factor
    exp(-i tau |k|^2).  One step takes (K(dt/2), K(dt/2)); two steps take
    (K(dt/2), K(dt), K(dt/2)), the two kinetic half flows between them merged
    into one.  Each P costs an ifftn and an fftn around it, and a complex
    pair for its own convolution: 4 complex FFTs per P, 2 in linear mode."""
    for kin in kins[:-1]:
        w = _phase_step(grid, ifftn(kin * uhat, overwrite_x=True), dt, vvals, gamma, linear)
        uhat = fftn(w, overwrite_x=True)
    return kins[-1] * uhat


def _attempt(grid: Grid, uhat, dt: float, vvals, gamma: float, linear: bool):
    """One step-doubling attempt from uhat: (the dt step K P K, the two dt/2 steps K P K P K).

    The dt step's phase sub-flow acts on ifftn(K(dt/2) uhat) and the first
    dt/2 sub-flow on ifftn(K(dt/4) uhat); neither depends on the other, so
    their convolutions share one complex pair (_convolve_pair), and the
    attempt costs 10 complex FFTs, not 12, in the same three _phase_step
    calls.  Linear mode has no convolution and costs 6."""
    k_half, k_quarter = _kinetic(grid, 0.5 * dt), _kinetic(grid, 0.25 * dt)
    w_big = ifftn(k_half * uhat, overwrite_x=True)
    w_half = ifftn(k_quarter * uhat, overwrite_x=True)
    conv_big, conv_half = (None, None) if linear else _convolve_pair(grid, w_big, w_half, gamma)
    big = fftn(_phase_step(grid, w_big, dt, vvals, gamma, linear, conv=conv_big), overwrite_x=True)
    big *= k_half
    # drop each sub-flow's arrays once used; the pair's buffer goes with its last view
    del w_big, conv_big
    half = fftn(_phase_step(grid, w_half, 0.5 * dt, vvals, gamma, linear, conv=conv_half), overwrite_x=True)
    del w_half, conv_half
    return big, _strang(grid, half, 0.5 * dt, (k_half, k_quarter), vvals, gamma, linear)


def strang_step(u: Field, dt: float, potential: PotentialSpec, gamma: float, linear: bool = False) -> Field:
    """One kinetic-phase-kinetic step of size dt (dt < 0 runs time backward)."""
    grid = u.grid
    vvals = None if potential.is_zero else eval_potential(potential, grid).values
    kin = _kinetic(grid, 0.5 * dt)
    uhat = _strang(grid, fftn(u.values), dt, (kin, kin), vvals, gamma, linear)
    return Field(grid, ifftn(uhat, overwrite_x=True))


def detect_blowup(u: Field | None, grad_sq_initial: float, cfg: EvolveConfig, uhat=None) -> bool:
    """Gradient growth beyond the factor, or the top 20% frequency band (max-norm) filling up.

    uhat is fftn(u.values) when the caller already holds it; u may then be
    None, and the grid is cfg.grid."""
    grid = cfg.grid if u is None else u.grid
    power = abs_sq(fftn(u.values) if uhat is None else uhat)
    if grad_sq_initial > 0 and _grad_sq(grid, power) / grad_sq_initial >= cfg.blowup_grad_factor**2:
        return True
    return shell_fraction(grid, power, 0.8 * (grid.points // 2), spectral=True) >= cfg.blowup_tail_frac


def evolve(u0: Field, potential: PotentialSpec, cfg: EvolveConfig) -> TrajectoryRecord:
    """Integrate to t_max, blow-up detection, or step-size underflow.

    The state is carried in Fourier space, uhat = fftn(u), from step to step.
    Step-doubling control: each attempt builds the dt step K P K and the two
    dt/2 steps K P K P K from the same uhat (_attempt: 10 complex FFTs, the
    two first phase sub-flows sharing one convolution pair; the kinetic
    factors are rebuilt per attempt, never cached, since adaptive dt rarely
    repeats a value) and compares them in relative L2, in Fourier space,
    where by Parseval it is the same number.  On acceptance the two-half-step
    state is kept; the blow-up detector reads it as it is, and it is turned
    back with one ifftn only for a snapshot.  dt grows by 1.2 when the error
    sits under tol/4, and on rejection dt halves.  dt under 1e-12 means the
    requested tolerance is unreachable at this resolution and the run ends as
    ResolutionExhausted.  The non-adaptive path takes plain dt steps
    (_strang, 4 complex FFTs per phase sub-flow).

    extras holds accepted_dts, and n_step_attempts and n_rejected_steps:
    attempts = accepted + rejected; without adaptivity every attempt is
    accepted."""
    grid = u0.grid
    if cfg.grid != grid:
        raise ValueError(f"the config's grid {cfg.grid} is not the initial data's {grid}")
    vvals = None if potential.is_zero else eval_potential(potential, grid).values
    vfield = None if potential.is_zero else Field(grid, vvals)
    wfield = None if potential.is_zero else eval_virial_weight(potential, grid)
    approx = potential.xgrad_is_distributional

    def snapshot(u):
        return take_snapshot(Field(grid, u), t, vfield, wfield, cfg.gamma, e_term_approximate=approx, uhat=uhat)

    u = np.array(u0.values, dtype=complex, copy=True)
    uhat = fftn(u)
    t = 0.0
    snapshots = [snapshot(u)]
    del u
    grad_sq_0 = snapshots[0].grad_sq
    extras: dict = {"accepted_dts": [], "n_step_attempts": 0, "n_rejected_steps": 0}
    dt = cfg.dt0
    accepted = 0
    termination = None
    tiny = 1e-12 * cfg.t_max

    def record_state(force=False):
        if (force or accepted % cfg.record_stride == 0) and snapshots[-1].time < t:
            snapshots.append(snapshot(ifftn(uhat)))

    while t < cfg.t_max - tiny:
        dt_try = min(dt, cfg.t_max - t)
        extras["n_step_attempts"] += 1
        if cfg.adaptive:
            big, half = _attempt(grid, uhat, dt_try, vvals, cfg.gamma, cfg.linear)
            big -= half
            ref_sq = np.vdot(half, half).real
            err = math.sqrt(np.vdot(big, big).real / ref_sq) if ref_sq > 0 else 0.0
            del big
            if err > cfg.tol_step:
                extras["n_rejected_steps"] += 1
                dt = 0.5 * dt_try
                if dt < 1e-12:
                    termination = Termination("ResolutionExhausted", t)
                    break
                continue
            uhat = half
            dt = dt_try * 1.2 if err < cfg.tol_step / 4.0 else dt_try
        else:
            k_half = _kinetic(grid, 0.5 * dt_try)
            uhat = _strang(grid, uhat, dt_try, (k_half, k_half), vvals, cfg.gamma, cfg.linear)
        t += dt_try
        accepted += 1
        extras["accepted_dts"].append(dt_try)
        if detect_blowup(None, grad_sq_0, cfg, uhat=uhat):
            record_state(force=True)
            termination = Termination("BlowupDetected", t)
            break
        record_state()

    if termination is None:
        record_state(force=True)
        termination = Termination("Completed", t)

    record = TrajectoryRecord(snapshots=snapshots, termination=termination, config=cfg, extras=extras)
    if termination.kind == "BlowupDetected":
        extras["grad_growth_factor"] = math.sqrt(snapshots[-1].grad_sq / grad_sq_0)
        zzero = _extrapolate_z_zero(record)
        if zzero is not None:
            extras["z_zero_extrapolated"] = zzero
    return record


def _extrapolate_z_zero(record: TrajectoryRecord):
    """Linear fit of the last few z(t) samples, pushed to z = 0.

    The collapse itself is beyond the method; this estimates where the
    variance trend says it lands.  Returns None when the trend is not
    decreasing."""
    ts = record.times
    zs = record.z_series
    if len(ts) < 3:
        return None
    k = min(8, len(ts))
    tt = np.asarray(ts[-k:])
    zz = np.asarray(zs[-k:])
    slope, intercept = np.polyfit(tt, zz, 1)
    if slope >= 0:
        return None
    return float(-intercept / slope)


def _fd_first(ts, ys):
    """Non-uniform 3-point first derivative at interior nodes."""
    out = []
    for i in range(1, len(ts) - 1):
        hm = ts[i] - ts[i - 1]
        hp = ts[i + 1] - ts[i]
        out.append(
            (hm * hm * ys[i + 1] - hp * hp * ys[i - 1] - (hm * hm - hp * hp) * ys[i])
            / (hm * hp * (hm + hp))
        )
    return out


def _fd_second(ts, ys):
    """Non-uniform 3-point second derivative at interior nodes."""
    out = []
    for i in range(1, len(ts) - 1):
        hm = ts[i] - ts[i - 1]
        hp = ts[i + 1] - ts[i]
        out.append(2.0 * (hm * ys[i + 1] + hp * ys[i - 1] - (hm + hp) * ys[i]) / (hm * hp * (hm + hp)))
    return out


def virial_consistency(record: TrajectoryRecord, linear: bool = False) -> dict:
    """Finite differences of the recorded I(t) against the virial columns.

    Relative deviations use max(|column value|, sup over the record) as the
    scale, so zero crossings do not blow the ratio up.  max_snapshot_dt, the
    largest gap between recorded times, sets the finite differences' own
    error, so it is reported next to them.  In linear mode the
    recorded second-derivative column is corrected by +2 gamma P, since the
    nonlinear pressure term is absent from the dynamics but present in the
    stored functional."""
    snaps = record.snapshots
    if len(snaps) < 5:
        raise ValueError(f"virial consistency needs at least 5 snapshots, got {len(snaps)}")
    ts = [s.time for s in snaps]
    ii = [s.variance_I for s in snaps]
    i1_rec = [s.virial_I1 for s in snaps]
    if linear:
        i2_rec = [s.virial_I2 + 2.0 * record.config.gamma * s.p_value for s in snaps]
    else:
        i2_rec = [s.virial_I2 for s in snaps]

    fd1 = _fd_first(ts, ii)
    fd2 = _fd_second(ts, ii)
    sup1 = max(abs(v) for v in i1_rec) or 1e-300
    sup2 = max(abs(v) for v in i2_rec) or 1e-300
    dev1 = max(abs(f - r) / max(abs(r), sup1) for f, r in zip(fd1, i1_rec[1:-1]))
    dev2 = max(abs(f - r) / max(abs(r), sup2) for f, r in zip(fd2, i2_rec[1:-1]))
    max_gap = max(b - a for a, b in zip(ts, ts[1:]))
    return {"i1_max_rel_dev": dev1, "i2_max_rel_dev": dev2, "max_snapshot_dt": max_gap}


def monotonicity_probe(record: TrajectoryRecord, verdict: str | None = None, f_x0: float | None = None) -> dict:
    """Empirical z(t) shape diagnostics keyed to the classified branch.

    Derivatives of z = sqrt(I) come from the recorded virial columns,
    z' = I'/(2z) and z'' = (2 I I'' - I'^2) / (4 I^{3/2}), which are exact
    at each sample; finite differences of the sampled z alias the fast core
    oscillations near collapse (sub-stride breathing shows up as spurious
    convex stretches) and are reported separately as *_fd diagnostics.
    BlowUp branch: fraction of interior times with z'' < 0.  Global branch:
    minimum z' against the floor 2 sqrt(f(x0)) (transient-trimmed).  Values
    are recorded, never judged."""
    if verdict is None or not (verdict.startswith("BlowUp") or verdict == "Global"):
        return {}
    snaps = record.snapshots
    ts = record.times
    zs = record.z_series
    if len(ts) < 3:
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
        z2_fd = _fd_second(ts, zs)
        out["z2_negative_fraction_fd"] = sum(1 for v in z2_fd if v < 0) / len(z2_fd)
    else:
        z1 = [s.virial_I1 / (2.0 * max(s.z, 1e-300)) for s in snaps]
        skip = max(1, len(z1) // 10)  # drop the initial transient
        tail = z1[skip:] if len(z1) > skip else z1
        out["min_z1"] = min(tail)
        out["transient_skipped"] = skip
        if f_x0 is not None:
            out["z1_floor"] = 2.0 * math.sqrt(max(f_x0, 0.0))
    return out
