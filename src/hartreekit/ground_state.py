"""Ground-state profiles of the Hartree elliptic equation by Petviashvili iteration.

Solves (-Lap + V + omega^2) Q = (|x|^{-gamma} * Q^2) Q for real positive Q.
The fixed-point update is preconditioned by the exact (-Lap + omega^2)^{-1}
in Fourier space; with V present the inner linear solve is a Richardson
iteration with that free inverse as preconditioner.  The stabilizing factor
M_n^{3/2} (ratio of quadratic forms) tames the cubic homogeneity; M_n -> 1
at convergence.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .fieldio import dump_field
from .functionals import FunctionalSnapshot, hv_norm_sq, mass, take_snapshot
from .potentials import PotentialSpec, eval_potential, eval_virial_weight, suggest
from .spectral import Field, Grid, apply_multiplier

OMEGA_MODES = ("fixed", "self_consistent")


class ConvergenceError(RuntimeError):
    pass


def gamma_window_problem(gamma: float, dim: int) -> str | None:
    """None when gamma lies in the model's window 2 < gamma < min(4, dim), else the problem."""
    top = min(4.0, float(dim))
    if not 2.0 < gamma < top:  # NaN fails too
        return f"gamma must lie in (2, min(4, d)) = (2, {top}), got {gamma}"
    return None


@dataclass
class GroundStateSettings:
    """The solver settings, which are the [groundstate] config keys; every problem is reported."""

    omega: float = 1.0
    omega_mode: str = "fixed"
    tol: float = 1e-9
    max_iter: int = 2000

    def __post_init__(self):
        # written as `not 0 < x < inf` so that NaN and inf fail too
        problems = [
            f"{name} must be positive and finite, got {getattr(self, name)}"
            for name in ("omega", "tol")
            if not 0 < getattr(self, name) < math.inf
        ]
        if self.omega_mode not in OMEGA_MODES:
            problems.append(
                f"omega_mode '{self.omega_mode}' is not one of {'/'.join(OMEGA_MODES)}"
                f"{suggest(self.omega_mode, OMEGA_MODES)}"
            )
        if self.max_iter < 1:
            problems.append(f"max_iter must be >= 1, got {self.max_iter}")
        if problems:
            raise ValueError("; ".join(problems))


@dataclass
class GroundState:
    """Profile plus the scalars the threshold theory consumes.

    residual is the relative operator residual
    ||(-Lap + V + omega^2) Q - (|x|^{-gamma} * Q^2) Q||_2 / ||Q||_2;
    converged means it reached the solve tolerance.  A non-converged solve
    still returns a GroundState (converged False) so the caller can inspect
    residual_history instead of unwinding through an exception."""

    field: Field
    omega: float
    gamma: float
    potential: PotentialSpec
    snapshot: FunctionalSnapshot
    c_gn: float
    c_q: float
    iterations: int
    residual: float
    converged: bool
    omega_iterations: int = 0
    residual_history: list = None  # type: ignore[assignment]

    @property
    def mass(self) -> float:
        return self.snapshot.mass

    @property
    def energy(self) -> float:
        return self.snapshot.energy


def _solve_helmholtz(grid: Grid, vvals, omega_sq: float, rhs, w0=None, tol: float = 1e-12, max_iter: int = 600):
    """Solve (-Lap + V + omega^2) w = rhs for real fields.

    V = None: exact Fourier inverse.  Otherwise Richardson preconditioned by
    the V = 0 inverse; converges when the potential is form-small relative to
    -Lap + omega^2 (Kato-admissible wells are).
    """
    op = grid.k_sq + omega_sq
    inv = 1.0 / op
    if vvals is None:
        return apply_multiplier(rhs, inv)
    w = apply_multiplier(rhs, inv) if w0 is None else w0.copy()
    rhs_norm = float(np.linalg.norm(rhs))
    if rhs_norm == 0.0:
        return np.zeros(grid.shape)
    last = np.inf
    stall = 0
    for _ in range(max_iter):
        aw = apply_multiplier(w, op) + vvals * w
        res = rhs - aw
        rnorm = float(np.linalg.norm(res)) / rhs_norm
        if rnorm < tol:
            return w
        if rnorm >= last:
            stall += 1
            if stall >= 5:
                if rnorm < 1e-10:
                    return w  # rounding floor, close enough
                raise ConvergenceError(
                    f"helmholtz Richardson iteration stalled at residual {rnorm:.3e}; "
                    "potential too strong for the free-inverse preconditioner"
                )
        else:
            stall = 0
        last = rnorm
        w = w + apply_multiplier(res, inv)
    raise ConvergenceError(f"helmholtz solve did not reach {tol:.1e} in {max_iter} iterations")


def _residual(grid, vvals, gamma, omega_sq, u, au=None):
    """A u = (-Lap + V + omega^2) u, N(u) = (|x|^{-gamma} * u^2) u, and the
    relative operator residual ||A u - N(u)||_2 / ||u||_2 of a real profile.

    au is A u when the caller already holds it; otherwise it costs a real
    transform pair."""
    nl = apply_multiplier(u * u, grid.riesz_multiplier(gamma)) * u
    if au is None:
        au = apply_multiplier(u, grid.k_sq + omega_sq)
        if vvals is not None:
            au += vvals * u
    unorm = float(np.linalg.norm(u))
    if unorm == 0.0:
        raise ConvergenceError("Petviashvili iterate collapsed to zero")
    return au, nl, float(np.linalg.norm(au - nl)) / unorm


def _petviashvili(grid, vvals, gamma, omega_sq, u0, tol, max_iter, history):
    """Inner fixed-omega iteration u <- M_n^{3/2} A^{-1} N(u), A = -Lap + V + omega^2.

    Convergence is judged on the relative L2 operator residual, appended to
    history each step.  Returns (profile, iterations, residual, converged);
    stops early when the residual stalls above tol for 40 steps.

    With V = 0 the solve A^{-1} is the exact Fourier inverse, so the next
    iterate's A u is M_n^{3/2} N(u) up to rounding, and it is carried into
    the next residual instead of transformed again: an iteration costs 4
    real FFTs (N(u), the solve) after the first, which costs 6.  With V the
    solve is Richardson's, A u is computed afresh, and an iteration costs 4
    plus the solve's."""
    h_d = grid.cell_volume
    u = u0.copy()
    w = au = None
    res = np.inf
    best = np.inf
    since_best = 0
    for it in range(1, max_iter + 1):
        au, nl, res = _residual(grid, vvals, gamma, omega_sq, u, au)
        history.append(res)
        if res < tol:
            return u, it, res, True
        if res < 0.99 * best:
            best = res
            since_best = 0
        else:
            since_best += 1
            if since_best >= 40:
                return u, it, res, False  # stalled above tolerance
        num = float((u * au).sum() * h_d)
        den = float((u * nl).sum() * h_d)
        if den <= 0:
            raise ConvergenceError("Petviashvili weight lost positivity; bad initial profile")
        mn = num / den
        w = _solve_helmholtz(grid, vvals, omega_sq, nl, w0=w)
        scale = mn**1.5
        u = scale * w
        if float(u.sum()) < 0.0:
            u, scale = -u, -scale
        au = scale * nl if vvals is None else None
    return u, max_iter, res, False


def solve_ground_state(
    grid: Grid,
    potential: PotentialSpec,
    gamma: float,
    initial: Field | None = None,
    **settings,
) -> GroundState:
    """Compute the ground-state profile.

    settings are GroundStateSettings fields (omega, omega_mode, tol,
    max_iter), checked there; the ones not given take its defaults.
    omega_mode 'fixed' solves at the given omega; 'self_consistent' adjusts
    omega^2 <- (4-gamma) ||Q||_{HV}^2 / (gamma M(Q)) with 0.5 relaxation until
    the dilation identity int (2V + x.grad V) Q^2 = 0 holds, which pins the
    omega used by the potential-branch threshold quantities.
    """
    problem = gamma_window_problem(gamma, grid.dim)
    if problem:
        raise ValueError(problem)
    opts = GroundStateSettings(**settings)
    tol, max_iter = opts.tol, opts.max_iter

    vvals = None if potential.is_zero else eval_potential(potential, grid).values
    vfield = None if vvals is None else Field(grid, vvals)
    u = (
        np.exp(-grid.r_sq / 2.0)
        if initial is None
        else np.array(initial.values.real, dtype=float, copy=True)
    )

    omega_sq = opts.omega * opts.omega
    omega_iters = 0
    history: list = []
    if opts.omega_mode == "fixed":
        u, iters, resid, ok = _petviashvili(grid, vvals, gamma, omega_sq, u, tol, max_iter, history)
    else:
        # Root-find G(w) = (4-gamma) hv / (gamma m) - w on w = omega^2; G = 0 is
        # exactly the update rule's fixed point (equivalently T = 0 by the
        # dilation identity).  The plain re-substitution map has contraction
        # rate ~1 here, so a secant step on G replaces it; stopping rule is
        # still |delta omega^2| / omega^2 <= 1e-8.
        iters = 0
        ok = False
        resid = np.inf
        w_cur = omega_sq
        w_prev = g_prev = None
        for omega_iters in range(1, 41):
            round_tol = tol if omega_iters <= 25 else tol * 1e-2
            u, it, resid, ok = _petviashvili(grid, vvals, gamma, w_cur, u, round_tol, max_iter, history)
            omega_sq = w_cur
            iters += it
            if not ok:
                break
            qf = Field(grid, u)
            hv = hv_norm_sq(qf, vfield)
            m = mass(qf)
            target = (4.0 - gamma) * hv / (gamma * m)
            if target <= 0:
                raise ConvergenceError(
                    "self-consistent omega update became nonpositive; potential too attractive"
                )
            g_cur = target - w_cur
            if abs(g_cur) <= 1e-8 * max(w_cur, target):
                break  # settled; keep the omega the profile was solved at
            if g_prev is None or g_cur == g_prev:
                w_next = target
            else:
                w_next = w_cur - g_cur * (w_cur - w_prev) / (g_cur - g_prev)
                w_next = min(max(w_next, 0.2 * w_cur), 5.0 * w_cur)
            if w_next < (math.pi / grid.half_length) ** 2:
                raise ConvergenceError(
                    "pinned frequency fell below the box's resolvable band "
                    f"(omega^2 -> {w_next:.3e}); the maximizer profile is wider than "
                    "the box, enlarge half_length or adjust the potential"
                )
            w_prev, g_prev = w_cur, g_cur
            w_cur = w_next
        else:
            ok = False  # omega never settled; report the last profile as non-converged

    qf = Field(grid, u)
    wfield = None if potential.is_zero else eval_virial_weight(potential, grid)
    snap = take_snapshot(
        qf, 0.0, vfield, wfield, gamma,
        e_term_approximate=potential.xgrad_is_distributional,
    )
    snap.virial_I1 = 0.0  # exact for a real profile
    c_gn = snap.weinstein(gamma)
    return GroundState(
        field=qf,
        omega=math.sqrt(omega_sq),
        gamma=gamma,
        potential=potential,
        snapshot=snap,
        c_gn=c_gn,
        c_q=c_gn ** (2.0 / gamma),
        iterations=iters,
        residual=resid,
        converged=ok,
        omega_iterations=omega_iters,
        residual_history=history,
    )


def pohozaev_residuals(gs: GroundState) -> dict:
    """Relative residuals of the two scaling identities and the form identity.

    r_form: P = ||Q||_{HV}^2 + omega^2 M  (multiply the equation by Q; exact
            for the discrete solution, rounding-limited)
    r_dilation / r_interaction: the dilation-derived pair
            ||Q||_{HV}^2 = g/(4-g) w^2 M + 2/(4-g) T
            P            = 4/(4-g) w^2 M + 2/(4-g) T,  T = int (2V+x.grad V) Q^2
            (truncation-limited on the grid)
    """
    g = gs.gamma
    s = gs.snapshot
    w2 = gs.omega**2
    t = s.e_term / 4.0  # e = 4 T
    r_form = (s.p_value - s.hv_sq - w2 * s.mass) / s.p_value
    r_dil = (s.hv_sq - g / (4.0 - g) * w2 * s.mass - 2.0 / (4.0 - g) * t) / s.hv_sq
    r_int = (s.p_value - 4.0 / (4.0 - g) * w2 * s.mass - 2.0 / (4.0 - g) * t) / s.p_value
    return {
        "r_form": r_form,
        "r_dilation": r_dil,
        "r_interaction": r_int,
        "dilation_weight_integral": t,
        "max_abs": max(abs(r_form), abs(r_dil), abs(r_int)),
    }


def save_ground_state(path, gs: GroundState) -> None:
    header = {
        "kind": "ground_state",
        "gamma": gs.gamma,
        "omega": gs.omega,
        "potential": gs.potential.to_dict(),
    }
    sidecar = {
        "snapshot": gs.snapshot.to_dict(),
        "c_gn": gs.c_gn,
        "c_q": gs.c_q,
        "iterations": gs.iterations,
        "residual": gs.residual,
        "converged": gs.converged,
        "omega_iterations": gs.omega_iterations,
        "pohozaev": pohozaev_residuals(gs),
    }
    dump_field(path, gs.field, header, sidecar=sidecar)
