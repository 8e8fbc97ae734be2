"""Adaptive split-step Fourier evolution with trajectory diagnostics.

The flow splits into the kinetic flow A and the (potential + nonlinear)
phase sub-flow B.  B multiplies by a pure phase, which leaves |u| pointwise
invariant, so that sub-flow is exact and only the splitting error remains.
evolve composes them in the fourth-order Blanes-Moan scheme, and controls
the step with an embedded third-order partner that shares its first three
phase sub-flows and the fourth one's input.  The controller predicts the
growth of the estimate's constant err/h^4 from one accepted step to the
next (Gustafsson, ACM Trans. Math. Softw. 20 (1994) 496-517), which grows
by orders of magnitude on the way into collapse.  B is one _phase_step, a
rotation by the Hartree convolution that the caller computes.  The
integrator carries the Fourier state between steps: the kinetic factors act
on it directly, built per attempt as outer products of 1-D exponentials
with no cache across attempts, only the phase sub-flows go to physical
space, and the state itself goes back only when a snapshot is taken.  The
state is fftn(u) on the periodic grid, except when u0 and V are exactly
even about the grid centre on every axis: the flow keeps them even, and the
state is then the DCT-I of one octant, (n/2 + 1)^d points
(spectral.EvenOctant).  The step, the snapshots and the blow-up detector
are each written once against the basis, and read the octant's points and
coefficients with its Parseval weights.  strang_step, Strang's
second-order A(dt/2) B(dt) A(dt/2) on the periodic grid, stands apart as
the reference the tests compare against.
Collapse is detected, never resolved: once the gradient blows past its
threshold or the upper frequency band fills, integration stops and the
record says so.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field as dc_field
from functools import reduce

import numpy as np

from .functionals import CSV_COLUMNS, _grad_sq, take_snapshot
from .potentials import PotentialSpec, eval_potential, eval_virial_weight
from .spectral import Field, Grid, PeriodicBasis, _check_section, abs_sq, fftn, ifftn, shell_fraction, transform_basis

# The 6-stage palindromic ABA composition of order 4 of Blanes & Moan,
# J. Comput. Appl. Math. 142 (2002) 313-330: kinetic weights a_1..a_7 and
# phase weights b_1..b_6, each summing to 1.
_A1, _A2, _A3 = 0.0792036964311957, 0.353172906049774, -0.0420650803577195
_B1, _B2 = 0.209515106613362, -0.143851773179818
_KIN = (_A1, _A2, _A3, 1.0 - 2.0 * (_A1 + _A2 + _A3), _A3, _A2, _A1)
_PHASE = (_B1, _B2, 0.5 - _B1 - _B2, 0.5 - _B1 - _B2, _B2, _B1)
# Its embedded order-3 partner: after A(a_4) it runs B(bh_4) A(ah_5) B(bh_5)
# A(ah_6) B(bh_6) A(ah_7).  Of the one-parameter family that the free bh_4
# opens, this member has the least degree-4 defect.
_PHASE_HAT = (0.273477008305411, 0.2318354860524767, -0.005312494357887678)
_KIN_HAT = (0.2989587178059256, -0.6610647050835264, 0.7524175094008511)
# step-size control after every attempt: dt * min(GROW, max(SHRINK, SAFETY (tol/(err trend))^(1/4)))
# (Hairer, Norsett & Wanner, Solving ODEs I, II.4); 1/4 is one over the partner's order plus one
_SAFETY, _SHRINK, _GROW = 0.9, 0.2, 5.0


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
    linear: bool = False  # drop the nonlinear phase (diagnostic runs)
    record_dt: float | None = None  # steps land on its multiples; None: t_max / 4
    # not a field, so not a key: every run is adaptive.  bench/spans.py still
    # reads it; it goes when the benchmark reads the step counts off the
    # record (ROADMAP item 6)
    adaptive = True

    def __post_init__(self):
        _check_section([
            *((name, getattr(self, name), "positive") for name in ("dt0", "t_max", "tol_step", "record_dt")),
            (self.blowup_grad_factor > 1, f"blowup_grad_factor must exceed 1, got {self.blowup_grad_factor}"),
            (self.record_stride >= 1, f"record_stride must be >= 1, got {self.record_stride}"),
            (0 < self.blowup_tail_frac <= 1, f"blowup_tail_frac must lie in (0, 1], got {self.blowup_tail_frac}"),
        ])


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

    def write_csv(self, path) -> None:
        lines = [",".join(CSV_COLUMNS)]
        for s in self.snapshots:
            lines.append(",".join(repr(v) for v in s.csv_row()))
        lines.append(f"# termination={self.termination.kind} t={self.termination.time!r}")
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


def _phase_step(u, dt: float, vvals, conv):
    """The exact phase sub-flow over dt, u exp(i dt (conv - V)): |u| is invariant under this phase.

    It is the rotation alone.  conv is the Hartree convolution
    |x|^{-gamma} * |u|^2 on u's points, which the caller computes, and None
    in linear mode, which drops it; vvals is V there, None for V = 0."""
    if conv is None:
        return u if vvals is None else _rotate(u, vvals, -dt)
    return _rotate(u, conv if vvals is None else conv - vvals, dt)


def _kinetic(space, tau: float):
    """exp(-i tau |k|^2) on a Grid's or a basis's modes, the outer product of the 1-D factors exp(-i tau xi_j^2)."""
    return reduce(np.multiply.outer, [np.exp(-1j * tau * space.freq_axis**2)] * space.dim)


def _embedded_step(basis: PeriodicBasis, uhat, dt: float, vvals, gamma: float, linear: bool):
    """One Blanes-Moan step of size dt from the coefficients uhat of u, and its embedded partner's: (order 4, order 3).

    The step is A(a_1) B(b_1) A(a_2) ... B(b_6) A(a_7), with A(a) the kinetic
    flow over a dt on the coefficients and B(b) the phase sub-flow over b dt
    on the basis's points, where vvals is sampled.  The partner shares
    A(a_1) ... A(a_4) and the fourth phase sub-flow's input and convolution,
    rotates that input by its own weight, and ends on two sub-flows of its
    own.  A(a) multiplies by the factor exp(-i a dt |k|^2), and the step's
    weights are palindromic, so an attempt builds 7 factors, not 10: a_1 ...
    a_4 once each, and the partner's own three.  It holds a_1, a_2 and a_3
    for their second use, and multiplies every state but uhat in its own
    memory, so it holds 1.5 arrays of the basis more than one that builds
    each factor at its use.  A phase sub-flow costs an inverse transform in,
    a real pair for its convolution and a forward transform out, so the step
    and its partner cost 17 complex and 16 real transforms (the shared
    fourth input takes no second inverse or convolution); 17 complex in
    linear mode, which has no convolution.  On the periodic basis these are fftn/ifftn and
    rfftn/irfftn, on the even octant all of them are DCT-Is
    (EvenOctant.forward and inverse: one matrix product per axis)."""

    def enter(c, factor):
        # the product goes into c's own memory unless c is the caller's state
        w = basis.inverse(np.multiply(factor, c, out=None if c is uhat else c), overwrite_x=True)
        return w, None if linear else basis.convolve(abs_sq(w), gamma)

    def flows(c, factors, phase):
        for factor, b in zip(factors, phase):
            w, conv = enter(c, factor)
            c = basis.forward(_phase_step(w, b * dt, vvals, conv), overwrite_x=True)
        return c

    # the step's weights are palindromic, a_5, a_6, a_7 = a_3, a_2, a_1, so it
    # keeps those three factors for their second use, and never writes into them
    kin = [_kinetic(basis, a * dt) for a in _KIN[:3]]
    w, conv = enter(flows(uhat, kin, _PHASE[:3]), _kinetic(basis, _KIN[3] * dt))
    # in linear mode at V = 0 the phase sub-flow returns w itself, so the
    # partner's transform must leave w intact for the step's
    third = basis.forward(_phase_step(w, _PHASE_HAT[0] * dt, vvals, conv))
    fourth = basis.forward(_phase_step(w, _PHASE[3] * dt, vvals, conv), overwrite_x=True)
    del w, conv
    fourth = flows(fourth, kin[:0:-1], _PHASE[4:])
    fourth *= kin[0]
    del kin
    third = flows(third, (_kinetic(basis, a * dt) for a in _KIN_HAT[:2]), _PHASE_HAT[1:])
    third *= _kinetic(basis, _KIN_HAT[2] * dt)
    return fourth, third


def strang_step(u: Field, dt: float, potential: PotentialSpec, gamma: float) -> Field:
    """One Strang step K(dt/2) P K(dt/2) of size dt on the periodic grid (dt < 0 runs time backward).

    P is the phase sub-flow over dt and K the kinetic flow.  It is the
    self-contained second-order reference that tests compare evolve's step
    against, and it costs 6 complex FFTs: fftn(u) in, an ifftn and an fftn
    around P, a complex pair for its convolution (not a real one as in
    _embedded_step; bench/test_spans.py pins the six), and an ifftn out."""
    grid = u.grid
    vvals = None if potential.is_zero else eval_potential(potential, grid).values
    kin = _kinetic(grid, 0.5 * dt)
    w = ifftn(kin * fftn(u.values), overwrite_x=True)
    conv = ifftn(grid.riesz_multiplier(gamma) * fftn(abs_sq(w)), overwrite_x=True).real
    uhat = kin * fftn(_phase_step(w, dt, vvals, conv), overwrite_x=True)
    return Field(grid, ifftn(uhat, overwrite_x=True))


def detect_blowup(u, grad_sq_initial: float, cfg: EvolveConfig, basis: PeriodicBasis | None = None) -> bool:
    """Gradient growth beyond the factor, or the top 20% frequency band (max-norm) filling up.

    u is a Field on cfg's grid, which costs one fftn, or with basis given,
    u's coefficients on the basis, which are read as they are, with the
    basis's Parseval weights."""
    if basis is None:
        basis = PeriodicBasis(u.grid)
        u = basis.forward(u.values)
    power = abs_sq(u)
    if grad_sq_initial > 0 and _grad_sq(basis, power) / grad_sq_initial >= cfg.blowup_grad_factor**2:
        return True
    return shell_fraction(basis, power, 0.8 * (cfg.grid.points // 2), spectral=True) >= cfg.blowup_tail_frac


def _step_toward(gap: float, dt: float) -> float:
    """The step toward a mark gap away under the proposal dt.

    It is the whole gap when dt covers it, half the gap when one dt step
    would leave less than another dt before the mark, and dt otherwise.  So a
    step never exceeds the proposal, and none leaves a sliver before a
    mark."""
    if gap <= dt:
        return gap
    return 0.5 * gap if gap < 2.0 * dt else dt


def _propose(dt: float, h: float, err: float, tol: float, trend: float = 1.0) -> float:
    """The proposal after an attempt of size h <= dt whose estimate read err.

    The attempt's step is scaled by min(_GROW, max(_SHRINK, _SAFETY
    (tol/(err trend))^(1/4))).  trend >= 1 is the growth of the error
    constant err/h^4 over the last accepted attempt's, which the next step
    is predicted to meet again; a rejection ignores it.  A step that a mark
    clipped below the proposal and that is accepted leaves the proposal at
    least where it was."""
    accepted = err <= tol
    if accepted:
        err *= trend
    # a NaN err is rejected, and max keeps _SHRINK against its NaN factor
    fac = _GROW if err == 0 else min(_GROW, max(_SHRINK, _SAFETY * (tol / err) ** 0.25))
    return max(dt, h * fac) if h < dt and accepted else h * fac


def evolve(u0: Field, potential: PotentialSpec, cfg: EvolveConfig) -> TrajectoryRecord:
    """Integrate to t_max, blow-up detection, or step-size underflow.

    The state is carried in Fourier space from step to step, as the
    coefficients of a basis: fftn(u) on the periodic grid, or, when u0 and
    V are both exactly even (spectral.transform_basis), the octant's DCT-I,
    which EvenOctant takes as one matrix product per axis.  Either way the
    coefficients at t = 0 are read off the one fftn(u0)
    (PeriodicBasis.from_spectrum), V and its weight are sampled on the grid
    and only the basis's takes of them are kept, and every snapshot, the
    t = 0 one too, reads the basis.  An attempt is one Blanes-Moan step of
    order 4 with its embedded order-3 partner (_embedded_step: 17 complex
    and 16 real transforms; the kinetic factors are rebuilt per attempt,
    never cached across attempts, since adaptive dt rarely repeats a
    value).  err is the relative L2 difference of the two, taken on the
    coefficients with the basis's Parseval weights, where it is the same
    number; the attempt is accepted when err <= tol_step, which a NaN err
    from a non-finite state fails, and the order-4 state is kept.  The blow-up detector reads its coefficients
    as they are, and it is turned back with one inverse transform only for
    a snapshot.  After every attempt the proposal follows _propose.  Its
    trend is max(1, C/C_prev) after an accepted attempt with err > 0, where
    C = err/h^4 and C_prev is that of the last such attempt before it; it
    is 1 on the first and after a rejection, which leaves C_prev as it
    was.  Steps are clipped to land on every multiple of record_dt (t_max /
    4 when unset) and on t_max, with a snapshot at each (_step_toward),
    besides the snapshot every record_stride accepted steps.  A proposal
    under 1e-12 after a rejection means the requested tolerance is
    unreachable at this resolution, and the run ends as
    ResolutionExhausted; so does a run whose state is not finite, at t = 0
    when u0 is not.  u0's values are read in place, never written; only
    values that are not complex are copied, to complex, and where the basis
    has taken its points off that copy, the copy is transformed in its own
    memory.

    extras holds accepted_dts, n_step_attempts and n_rejected_steps
    (attempts = accepted + rejected), transform_basis, the basis's name,
    and after a detection grad_growth_factor."""
    grid = u0.grid
    if cfg.grid != grid:
        raise ValueError(f"the config's grid {cfg.grid} is not the initial data's {grid}")
    approx = potential.xgrad_is_distributional
    vvals = None if potential.is_zero else eval_potential(potential, grid).values
    basis = transform_basis(grid, u0.values, vvals)
    # each full-grid sample is dropped as soon as the basis has its take, before u0 is copied to complex
    vvals = None if vvals is None else basis.take(vvals)
    wvals = None if potential.is_zero else basis.take(eval_virial_weight(potential, grid).values)
    full = np.asarray(u0.values, dtype=complex)
    u = basis.take(full)
    uhat = basis.from_spectrum(fftn(full, overwrite_x=full is not u0.values and u is not full))
    del full
    t = 0.0
    snapshots = [take_snapshot(u, t, vvals, wvals, cfg.gamma, e_term_approximate=approx, uhat=uhat, basis=basis)]
    del u
    grad_sq_0 = snapshots[0].grad_sq
    extras: dict = {"accepted_dts": [], "n_step_attempts": 0, "n_rejected_steps": 0, "transform_basis": basis.name}
    dt = cfg.dt0
    const_prev = math.inf  # err/h^4 of the last accepted attempt with err > 0; inf: trend 1 on the first
    accepted = 0
    termination = None
    tiny = 1e-12 * cfg.t_max
    record_dt = cfg.t_max / 4.0 if cfg.record_dt is None else cfg.record_dt
    marks = 1  # the index of the next multiple of record_dt

    def record_state(force=False):
        if (force or accepted % cfg.record_stride == 0) and snapshots[-1].time < t:
            snapshots.append(take_snapshot(
                basis.inverse(uhat), t, vvals, wvals, cfg.gamma, e_term_approximate=approx, uhat=uhat, basis=basis
            ))

    while t < cfg.t_max - tiny:
        extras["n_step_attempts"] += 1
        mark = min(marks * record_dt, cfg.t_max)
        h = _step_toward(mark - t, dt)
        fourth, third = _embedded_step(basis, uhat, h, vvals, cfg.gamma, cfg.linear)
        third -= fourth
        ref_sq = basis.norm_sq(fourth)
        # NaN when either state is not finite, which fails the acceptance test
        err = math.sqrt(basis.norm_sq(third) / ref_sq) if ref_sq != 0 else 0.0
        del third
        accept = err <= cfg.tol_step
        trend = 1.0
        if accept and err > 0:
            const = err / h**4
            trend, const_prev = max(1.0, const / const_prev), const
        dt = _propose(dt, h, err, cfg.tol_step, trend)
        if not accept:
            extras["n_rejected_steps"] += 1
            if dt < 1e-12:
                termination = Termination("ResolutionExhausted", t)
                break
            continue
        uhat = fourth
        # a step that ends within rounding of the mark lands on it exactly
        landed = t + h >= mark - tiny
        t = mark if landed else t + h
        marks += landed
        accepted += 1
        extras["accepted_dts"].append(h)
        if detect_blowup(uhat, grad_sq_0, cfg, basis):
            record_state(force=True)
            termination = Termination("BlowupDetected", t)
            break
        record_state(force=landed)

    if termination is None:
        record_state(force=True)
        termination = Termination("Completed", t)

    if termination.kind == "BlowupDetected":
        extras["grad_growth_factor"] = math.sqrt(snapshots[-1].grad_sq / grad_sq_0)
    return TrajectoryRecord(snapshots=snapshots, termination=termination, config=cfg, extras=extras)


def _quadrature_gap(ts, y, dy) -> float:
    """max over the record of |y(t) - y(0) - int_0^t y'| / max_{s <= t} |y(s)|, the integral a cumulative trapezoid."""
    integral = np.cumsum(0.5 * np.diff(ts) * (dy[1:] + dy[:-1]))
    scale = np.maximum(np.maximum.accumulate(np.abs(y))[1:], 1e-300)
    return float(np.max(np.abs(y[1:] - y[0] - integral) / scale))


def virial_consistency(record: TrajectoryRecord) -> dict:
    """The recorded I(t) and I'(t) against the integrals of the virial columns over the snapshots.

    i1_gap checks I against I' and i2_gap checks I' against I'' by
    _quadrature_gap (Glassey, J. Math. Phys. 18 (1977) 1794-1797), so each
    is the largest drift of an integrated identity relative to the running
    max of the integrated column.  max_snapshot_dt, the largest gap between
    recorded times, sets the trapezoid's own error, O(max_snapshot_dt^2),
    so it is reported next to them.  When the record's config is linear,
    the recorded second-derivative column is corrected by +2 gamma P, since
    the nonlinear pressure term is absent from the dynamics but present in
    the stored functional."""
    snaps = record.snapshots
    if len(snaps) < 2:
        raise ValueError(f"virial consistency needs at least 2 snapshots, got {len(snaps)}")
    ts = np.array(record.times)
    ii, i1, i2 = (np.array([getattr(s, c) for s in snaps]) for c in ("variance_I", "virial_I1", "virial_I2"))
    if record.config.linear:
        i2 += 2.0 * record.config.gamma * np.array([s.p_value for s in snaps])
    return {
        "i1_gap": _quadrature_gap(ts, ii, i1),
        "i2_gap": _quadrature_gap(ts, i1, i2),
        "max_snapshot_dt": float(np.max(np.diff(ts))),
    }
