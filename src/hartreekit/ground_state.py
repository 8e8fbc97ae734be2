"""Ground-state profiles of the Hartree elliptic equation by Petviashvili iteration.

Solves (-Lap + V + omega^2) Q = (|x|^{-gamma} * Q^2) Q for real positive Q.
The fixed-point update is preconditioned by the exact (-Lap + omega^2)^{-1}
in Fourier space; with V present the inner linear solve is a Richardson
iteration with that free inverse as preconditioner.  The stabilizing factor
M_n^{3/2} (ratio of quadratic forms) tames the cubic homogeneity; M_n -> 1
at convergence.  The plain update contracts slowly (35-99 iterations on the
benchmark grids), so each new iterate is an Anderson mix of the last three
Petviashvili outputs, which converges in 13-15 there.  The mixing weights
solve a least-squares system of at most 2x2 in closed form, so no solve
calls LAPACK.

The iteration runs on spectral.transform_basis(grid, first profile, V):
when both are exactly even about the grid centre, as the radial first
profile and a centred well are, on one octant with DCT-I transforms and
Parseval-weighted sums, and on the periodic grid otherwise.  The profile is
returned expanded, so it is exactly even, and its residual is recomputed
once on the full grid, the solve's largest memory: the expanded profile,
N(Q) and one real transform pair, with the symbol of -Lap + omega^2 on the
half spectrum.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .fieldio import dump_field
from .functionals import FunctionalSnapshot, _integral, take_snapshot
from .potentials import PotentialSpec, eval_potential, eval_virial_weight
from .spectral import Field, Grid, PeriodicBasis, _check_section, transform_basis

OMEGA_MODES = ("fixed", "self_consistent")
ANDERSON_DEPTH = 2  # earlier Petviashvili outputs mixed into each new iterate; _anderson_weights solves depth <= 2
HELMHOLTZ_TOL, HELMHOLTZ_MAX_ITER = 1e-12, 600  # the inner Richardson solve's relative residual target and cap


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
        _check_section([
            ("omega", self.omega, "positive"),
            ("tol", self.tol, "positive"),
            ("omega_mode", self.omega_mode, OMEGA_MODES),
            (self.max_iter >= 1, f"max_iter must be >= 1, got {self.max_iter}"),
        ])


@dataclass
class GroundState:
    """Profile plus the scalars the threshold theory consumes.

    residual is the relative operator residual
    ||(-Lap + V + omega^2) Q - (|x|^{-gamma} * Q^2) Q||_2 / ||Q||_2 of the
    returned profile on the full grid; converged means the iteration and it
    reached the solve tolerance.  transform_basis names the basis the
    iteration ran on (spectral.transform_basis).  A non-converged solve
    still returns a GroundState (converged False) so the caller can inspect
    its residual and iterations instead of unwinding through an exception."""

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
    transform_basis: str
    omega_iterations: int = 0
    richardson_iterations: int = 0  # inner Richardson corrections, summed; 0 at V = 0

    @property
    def mass(self) -> float:
        return self.snapshot.mass

    @property
    def energy(self) -> float:
        return self.snapshot.energy


def _solve_helmholtz(basis: PeriodicBasis, vvals, omega_sq: float, rhs, w0=None):
    """Solve (-Lap + V + omega^2) w = rhs for real fields on the basis's points; returns (w, corrections applied).

    V = None: exact Fourier inverse, no corrections.  Otherwise Richardson
    preconditioned by the V = 0 inverse; converges when the potential is
    form-small relative to -Lap + omega^2 (Kato-admissible wells are).
    """
    op = basis.helmholtz(omega_sq)
    inv = 1.0 / op
    if vvals is None:
        return basis.apply(rhs, inv), 0
    w = basis.apply(rhs, inv) if w0 is None else w0.copy()
    rhs_norm = basis.norm(rhs)
    if rhs_norm == 0.0:
        return np.zeros(rhs.shape), 0
    last = np.inf
    stall = 0
    for it in range(HELMHOLTZ_MAX_ITER):
        aw = basis.apply(w, op) + vvals * w
        res = rhs - aw
        rnorm = basis.norm(res) / rhs_norm
        if rnorm < HELMHOLTZ_TOL:
            return w, it
        if rnorm >= last:
            stall += 1
            if stall >= 5:
                if rnorm < 1e-10:
                    return w, it  # rounding floor, close enough
                raise ConvergenceError(
                    f"helmholtz Richardson iteration stalled at residual {rnorm:.3e}; "
                    "potential too strong for the free-inverse preconditioner"
                )
        else:
            stall = 0
        last = rnorm
        w = w + basis.apply(res, inv)
    raise ConvergenceError(f"helmholtz solve did not reach {HELMHOLTZ_TOL:.1e} in {HELMHOLTZ_MAX_ITER} iterations")


def _residual(basis, vvals, gamma, omega_sq, u, au=None):
    """A u = (-Lap + V + omega^2) u, N(u) = (|x|^{-gamma} * u^2) u, and the
    relative operator residual ||A u - N(u)||_2 / ||u||_2 of a real profile
    on the basis's points, with norms over the whole grid.

    au is A u when the caller already holds it; otherwise it costs a real
    transform pair, whose symbol takes half a grid array on the periodic
    grid (PeriodicBasis.helmholtz).  A u - N(u) is squared in its own
    memory, basis.norm's sum with no second array."""
    nl = basis.convolve(u * u, gamma) * u
    if au is None:
        au = basis.apply(u, basis.helmholtz(omega_sq))
        if vvals is not None:
            au += vvals * u
    unorm = basis.norm(u)
    if unorm == 0.0:
        raise ConvergenceError("Petviashvili iterate collapsed to zero")
    r = au - nl
    r *= r
    return au, nl, math.sqrt(float(basis.weigh(r).sum())) / unorm


def _anderson_weights(gram):
    """Weights a (summing to 1) that minimize ||sum_i a_i f_i||_2, from the Gram
    matrix gram[i, j] = <f_i, f_j> of the fixed-point residuals, newest first.

    Solved as least squares in the differences f_0 - f_j, whose Gram matrix h
    and right-hand side d are sums of entries of gram.  h is symmetric and
    1x1 or 2x2, so the system is solved in closed form, as numpy's
    lstsq(h, d, rcond=None) solves it but with no LAPACK call
    (whose first call alone takes about 1.1 MiB of workspace): a singular
    value, here an eigenvalue's magnitude, at or below eps * n of the
    largest counts as zero, and the solution is the one of least norm.  At
    full rank that is Cramer's rule; at rank one, d's component along the
    leading eigenvector over its eigenvalue.  The cutoff keeps the weights
    finite when the residuals are collinear, where h is singular to
    rounding and Cramer's rule would divide by that rounding."""
    d = gram[0, 0] - gram[0, 1:]
    h = d[:, None] + d[None, :] - gram[0, 0] + gram[1:, 1:]
    if len(d) == 1:
        coef = d / h[0, 0] if h[0, 0] != 0.0 else np.zeros(1)  # a 1x1 h is cut only at 0
    else:
        (a, b), (_, c) = h
        big = 0.5 * (a + c)
        big += math.copysign(math.hypot(0.5 * (a - c), b), big)  # the eigenvalue of larger magnitude
        det = a * c - b * b
        if big == 0.0:
            coef = np.zeros(2)
        elif abs(det / big) > 2.0 * np.finfo(float).eps * abs(big):  # det / big is the other eigenvalue
            coef = np.array([c * d[0] - b * d[1], a * d[1] - b * d[0]]) / det
        else:
            # big's eigenvector read off either row of (h - big I) v = 0, the longer: at rank one it is not 0
            v = np.array([b, big - a] if abs(big - a) >= abs(big - c) else [big - c, b])
            coef = v * ((v[0] * d[0] + v[1] * d[1]) / ((v[0] * v[0] + v[1] * v[1]) * big))
    return np.concatenate(([1.0 - coef.sum()], coef))


def _petviashvili(basis, vvals, gamma, omega_sq, u0, tol, max_iter):
    """Anderson-accelerated fixed-omega iteration for u = M_n^{3/2} A^{-1} N(u),
    A = -Lap + V + omega^2, M_n = <u, A u> / <u, N(u)>.

    Each iteration takes the Petviashvili output g = M_n^{3/2} A^{-1} N(u) of
    the iterate u and mixes it with the outputs of the ANDERSON_DEPTH
    iterates before: u <- sum_i a_i g_i, with the weights a of least
    residual norm ||sum_i a_i (g_i - u_i)|| (Anderson mixing; Walker & Ni,
    SIAM J. Numer. Anal. 49 (2011) 1715).  The weights come from the Gram
    matrix of the residuals g_i - u_i, one new row of inner products per
    iteration, summed by numpy, and are solved in closed form with lstsq's
    rank cutoff (_anderson_weights).  A mixed iterate that raises the
    operator residual restarts the mixing: the history is dropped and its
    plain output g is the next iterate.  A mixed iterate with
    <u, N(u)> <= 0 has no output; it is dropped with the history, and the
    plain output of the iterate before it is taken instead.

    Convergence is judged on the relative L2 operator residual of each
    iterate.  Returns (profile, iterations, residual, converged, Richardson
    corrections); stops early when the residual stalls above tol for 40
    steps.

    With V = 0 the solve A^{-1} is the exact Fourier inverse, so A g is
    M_n^{3/2} N(u) up to rounding; the mix is linear, so the mixed iterate's
    A u is the same combination of those, and it is carried into the next
    residual instead of transformed again: an iteration costs 4 real FFTs
    (N(u), the solve) after the first, which costs 6, and a restart for a
    lost weight costs 2 (N(u)).  With V the solve is Richardson's, A u is
    computed afresh, and an iteration costs 4 plus the solve's."""
    u = u0.copy()
    w = au = None
    res = last = np.inf
    best = np.inf
    since_best = 0
    richardson = 0
    outputs = []  # (g - u, g, A g) of the latest iterates, newest first
    gram = np.zeros((0, 0))
    for it in range(1, max_iter + 1):
        au, nl, res = _residual(basis, vvals, gamma, omega_sq, u, au)
        if res < tol:
            return u, it, res, True, richardson
        if res < 0.99 * best:
            best = res
            since_best = 0
        else:
            since_best += 1
            if since_best >= 40:
                return u, it, res, False, richardson  # stalled above tolerance
        num = _integral(basis, u, au)
        den = _integral(basis, u, nl)
        mixed = len(outputs) > 1
        if mixed and den <= 0:
            _, u, au = outputs[0]  # restart from the plain output of the iterate before the mix
            outputs = []
            continue
        if den <= 0:
            raise ConvergenceError("Petviashvili weight lost positivity; bad initial profile")
        if mixed and res > last:
            outputs = []  # restart: this iterate's plain output is the next iterate
        last = res
        w, corrections = _solve_helmholtz(basis, vvals, omega_sq, nl, w0=w)
        richardson += corrections
        scale = (num / den) ** 1.5
        g = scale * w
        if float(basis.weigh(g).sum()) < 0.0:
            g, scale = -g, -scale
        ag = scale * nl if vvals is None else None
        f = g - u
        wf = basis.weigh(f)
        row = [float((wf * f).sum())] + [float((wf * prev[0]).sum()) for prev in outputs]
        outputs.insert(0, (f, g, ag))
        n = len(outputs)
        grown = np.empty((n, n))
        grown[1:, 1:] = gram[: n - 1, : n - 1]  # the kept outputs' block; empty after a restart
        grown[0, :] = grown[:, 0] = row
        gram = grown
        if n == 1:
            u, au = g, ag
            continue
        a = _anderson_weights(gram)
        u = sum(ai * out[1] for ai, out in zip(a, outputs))
        au = sum(ai * out[2] for ai, out in zip(a, outputs)) if vvals is None else None
        del outputs[ANDERSON_DEPTH:]  # the oldest output has had its last mix
    return u, max_iter, res, False, richardson


def _initial_profile(grid: Grid) -> np.ndarray:
    """The iteration's first profile, exp(-|x|^2 / 2)."""
    return np.exp(-grid.r_sq / 2.0)


def solve_ground_state(
    grid: Grid,
    potential: PotentialSpec,
    gamma: float,
    **settings,
) -> GroundState:
    """Compute the ground-state profile.

    settings are GroundStateSettings fields (omega, omega_mode, tol,
    max_iter), checked there; the ones not given take its defaults.
    omega_mode 'fixed' solves at the given omega; 'self_consistent' moves
    omega^2 to the target (4-gamma) ||Q||_{HV}^2 / (gamma M(Q)) of the profile
    solved at it, first by re-substitution, then by secant steps clipped to
    [0.2, 5] times omega^2, until the two agree to 1e-8 relative: the dilation
    identity int (2V + x.grad V) Q^2 = 0, which pins the omega used by the
    potential-branch threshold quantities.
    """
    problem = gamma_window_problem(gamma, grid.dim)
    if problem:
        raise ValueError(problem)
    opts = GroundStateSettings(**settings)
    tol, max_iter = opts.tol, opts.max_iter

    vfull = None if potential.is_zero else eval_potential(potential, grid).values
    u = _initial_profile(grid)
    basis = transform_basis(grid, u, vfull)
    u = basis.take(u)
    vvals = None if vfull is None else basis.take(vfull)

    omega_sq = opts.omega * opts.omega
    omega_iters = 0
    if opts.omega_mode == "fixed":
        u, iters, resid, ok, richardson = _petviashvili(basis, vvals, gamma, omega_sq, u, tol, max_iter)
    else:
        # Root-find G(w) = (4-gamma) hv / (gamma m) - w on w = omega^2; G = 0 is
        # exactly the update rule's fixed point (equivalently T = 0 by the
        # dilation identity).  The plain re-substitution map has contraction
        # rate ~1 here, so a secant step on G replaces it; stopping rule is
        # still |delta omega^2| / omega^2 <= 1e-8.
        iters = richardson = 0
        ok = False
        resid = np.inf
        w_cur = omega_sq
        w_prev = g_prev = None
        for omega_iters in range(1, 41):
            round_tol = tol if omega_iters <= 25 else tol * 1e-2
            u, it, resid, ok, corrections = _petviashvili(basis, vvals, gamma, w_cur, u, round_tol, max_iter)
            omega_sq = w_cur
            iters += it
            richardson += corrections
            if not ok:
                break
            sn = take_snapshot(u, 0.0, vvals, None, gamma, basis=basis)
            target = (4.0 - gamma) * sn.hv_sq / (gamma * sn.mass)
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

    # the reported residual is the expanded profile's, on the full grid
    q = basis.expand(u)
    resid = _residual(PeriodicBasis(grid), vfull, gamma, omega_sq, q)[2]
    ok = ok and resid <= tol
    wvals = None if potential.is_zero else basis.take(eval_virial_weight(potential, grid).values)
    snap = take_snapshot(
        u, 0.0, vvals, wvals, gamma,
        e_term_approximate=potential.xgrad_is_distributional, basis=basis,
    )
    if snap.hv_sq <= 0:
        raise ConvergenceError(
            f"ground-state form norm ||Q||_HV^2 = {snap.hv_sq:.3e} is not positive: "
            "the well is too strong, -Lap + V is not coercive"
        )
    c_gn = snap.weinstein(gamma)
    return GroundState(
        field=Field(grid, q),
        omega=math.sqrt(omega_sq),
        gamma=gamma,
        potential=potential,
        snapshot=snap,
        c_gn=c_gn,
        c_q=c_gn ** (2.0 / gamma),
        iterations=iters,
        residual=resid,
        converged=ok,
        transform_basis=basis.name,
        omega_iterations=omega_iters,
        richardson_iterations=richardson,
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


def summary(gs: GroundState) -> dict:
    """The solve's scalars, which both the .fld sidecar and groundstate_report.json carry."""
    return {
        "snapshot": gs.snapshot.to_dict(),
        "c_gn": gs.c_gn,
        "c_q": gs.c_q,
        "iterations": gs.iterations,
        "residual": gs.residual,
        "converged": gs.converged,
        "omega_iterations": gs.omega_iterations,
        "pohozaev": pohozaev_residuals(gs),
    }


def save_ground_state(path, gs: GroundState) -> None:
    header = {
        "kind": "ground_state",
        "gamma": gs.gamma,
        "omega": gs.omega,
        "potential": gs.potential.to_dict(),
    }
    dump_field(path, gs.field, header, sidecar=summary(gs))
