"""Ground-state solver: convergence, identities, maximality, persistence."""

import os

import numpy as np
import pytest

import hartreekit.ground_state as ground_state_module
from hartreekit.fieldio import load_field, read_json
from hartreekit.functionals import take_snapshot
from hartreekit.ground_state import (
    ConvergenceError,
    pohozaev_residuals,
    save_ground_state,
    solve_ground_state,
)
from hartreekit.potentials import PotentialSpec, eval_potential
from hartreekit.runner import smooth_random_field, variational_defects
from hartreekit.cli import main
from hartreekit.spectral import EvenOctant, Field, Grid, PeriodicBasis, is_even, tally

from conftest import GAMMA, closed_form_c_q, traced_peak


def test_converged_flags(gs48):
    assert gs48.converged
    assert gs48.residual <= 1e-9 * 1.01
    assert gs48.iterations < 2000


def test_profile_positive_radial(gs48):
    q = gs48.field.values.real
    assert q.min() > -1e-12 * q.max()
    # radial symmetry: reflection through the center plane
    assert np.allclose(q[1:, 1:, 1:], q[1:, 1:, 1:][::-1, ::-1, ::-1], atol=1e-8 * q.max())
    # peak at the origin
    n = gs48.field.grid.points
    assert q.argmax() == np.ravel_multi_index((n // 2,) * 3, q.shape)


def test_pohozaev_identities(gs64):
    """V=0, omega=1: hv/m = (4-gamma)/... fixed-gamma form: hv = (gamma/(4-gamma)) w^2 m scalings."""
    res = pohozaev_residuals(gs64)
    assert res["max_abs"] < 1e-4
    s = gs64.snapshot
    assert abs(s.hv_sq / s.mass - 5.0 / 3.0) < 1e-4 * (5.0 / 3.0)
    assert abs(s.p_value / s.mass - 8.0 / 3.0) < 1e-4 * (8.0 / 3.0)
    assert abs(s.p_value - 16.0 * s.energy) < 1e-4 * s.p_value


def test_closed_form_constant(gs64):
    ref = closed_form_c_q(GAMMA, gs64.snapshot.mass)
    assert abs(gs64.c_q - ref) < 1e-4 * ref


def test_weinstein_maximality_perturbations(gs48):
    # W decreases under any perturbation of the maximizer
    rng = np.random.default_rng(50)
    for _ in range(10):
        eta = 0.1 * smooth_random_field(gs48.field.grid, rng).values
        trial = Field(gs48.field.grid, gs48.field.values + eta)
        assert variational_defects(trial, gs48)[2] <= 1e-6


def test_scaling_family_collapses_to_invariant(gs48):
    # c Q has the same Weinstein value; W is scale free
    def weinstein(values):
        return take_snapshot(Field(gs48.field.grid, values), 0.0, None, None, GAMMA).weinstein(GAMMA)

    wq = weinstein(gs48.field.values)
    for c in (0.3, 2.0, 11.0):
        assert abs(weinstein(c * gs48.field.values) - wq) < 1e-9 * wq


def test_nonconvergence_returns_history(grid32):
    gs = solve_ground_state(grid32, PotentialSpec(kind="zero"), GAMMA, max_iter=3)
    assert not gs.converged
    assert gs.iterations == 3
    assert gs.residual > 1e-9
    for omega in (0.0, float("nan"), float("inf")):
        with pytest.raises(ValueError, match="omega must be positive and finite"):
            solve_ground_state(grid32, PotentialSpec(kind="zero"), GAMMA, omega=omega)


def test_petviashvili_real_ffts_per_iteration(monkeypatch):
    """A residual costs a real transform pair for N(u) and one for A u; the
    solve costs one more at V = 0.  At V = 0 the solve is the exact Fourier
    inverse, so A u of the next iterate is carried, not transformed: the
    first iteration costs 6 transforms and each later one 4.  With a well the
    solve is Richardson's and every residual transforms A u.

    On the even octant, the radial guess with V = 0 or with a centred well,
    every one of these is a DCT-I (octant_forward/inverse in spectral.tally), with the same
    counts; the closing residual is the expanded profile's on the full grid,
    4 real FFTs and no DCT.  The well rolled by one point is not even, so
    that solve takes rfftn/irfftn throughout.  Each residual's cost is (real
    FFTs, DCTs)."""
    def real_dct():
        return tally["rfftn"] + tally["irfftn"], tally["octant_forward"] + tally["octant_inverse"]

    starts, costs = [], []
    residual = ground_state_module._residual

    def traced(*args):
        starts.append(real_dct())
        out = residual(*args)
        costs.append(tuple(int(c) for c in np.subtract(real_dct(), starts[-1])))
        return out

    monkeypatch.setattr(ground_state_module, "_residual", traced)
    grid = Grid(3, 16, 8.0)
    well = PotentialSpec(kind="gaussian_bump", amplitude=-0.3, sigma=1.0)
    rolled = PotentialSpec(kind="grid_sampled", values=np.roll(eval_potential(well, grid).values, 1, axis=0))
    for potential, want in (
        (PotentialSpec(kind="zero"), [(0, 4), (0, 2), (0, 2), (0, 2), (0, 2), (4, 0)]),
        (well, [(0, 4)] * 5 + [(4, 0)]),
        (rolled, [(4, 0)] * 6),
    ):
        starts.clear()
        costs.clear()
        solve_ground_state(grid, potential, GAMMA, max_iter=5, tol=1e-14)
        assert costs == want
        if potential.is_zero:
            assert np.diff([s[1] for s in starts]).tolist() == [6, 4, 4, 4, 4]


def test_anderson_iteration_counts(grid32):
    """Anderson mixing of the Petviashvili outputs: the unmixed iteration took
    99 steps at V = 0 and 84 with the well; the profile is the one a far
    tighter solve finds."""
    well = PotentialSpec(kind="gaussian_bump", amplitude=-0.3, sigma=1.0)
    for potential in (PotentialSpec(kind="zero"), well):
        gs = solve_ground_state(grid32, potential, GAMMA)
        assert gs.converged and gs.iterations <= 20
        assert (gs.richardson_iterations > 0) == (potential is well)
        tight = solve_ground_state(grid32, potential, GAMMA, tol=1e-12)
        assert tight.converged
        q, q_tight = gs.field.values.real, tight.field.values.real
        assert np.abs(q - q_tight).max() <= 1e-8 * q_tight.max()


@pytest.mark.parametrize("fault, restart_from", [("residual", 2), ("weight", 1)])
def test_anderson_restart_takes_the_plain_step(monkeypatch, fault, restart_from):
    """The third iterate is the first mixed one.  Made to raise the residual,
    it restarts the mixing, and the fourth iterate is its plain Petviashvili
    output, not a mix.  Made to lose the weight <u, N(u)>, it is dropped, and
    the fourth iterate is the plain output of the second."""
    grid = Grid(3, 16, 8.0)
    basis = EvenOctant(grid)  # the radial guess at V = 0 is even
    residual = ground_state_module._residual
    iterates = []

    def faulty(basis_, vvals, gamma, omega_sq, u, au=None):
        iterates.append(u.copy())
        au, nl, res = residual(basis_, vvals, gamma, omega_sq, u, au)
        if len(iterates) == 3:
            return (au, nl, 1e3 * res) if fault == "residual" else (au, -nl, res)
        return au, nl, res

    def plain(u):
        au, nl, _ = residual(basis, None, GAMMA, 1.0, u)
        w = basis.apply(nl, 1.0 / (basis.k_sq + 1.0))
        return (float(basis.weigh(u * au).sum()) / float(basis.weigh(u * nl).sum())) ** 1.5 * w

    monkeypatch.setattr(ground_state_module, "_residual", faulty)
    gs = solve_ground_state(grid, PotentialSpec(kind="zero"), GAMMA)
    assert gs.converged
    assert iterates[0].shape == basis.shape
    ref = plain(iterates[restart_from])
    assert np.abs(iterates[3] - ref).max() <= 1e-12 * ref.max()


def _lstsq_weights(gram):
    """_anderson_weights' least-squares system solved by LAPACK, the reference; returns (weights, rank)."""
    d = gram[0, 0] - gram[0, 1:]
    h = d[:, None] + d[None, :] - gram[0, 0] + gram[1:, 1:]
    coef, _, rank, _ = np.linalg.lstsq(h, d, rcond=None)
    return np.concatenate(([1.0 - coef.sum()], coef)), rank


@pytest.mark.parametrize("size", [2, 3])
def test_anderson_weights_are_lstsqs(size):
    """The closed-form weights are np.linalg.lstsq's to 1e-12 relative on the
    Gram matrices of random residuals; both read about 2e-15 apart."""
    rng = np.random.default_rng(size)
    for _ in range(500):
        f = rng.standard_normal((size, 40))
        want, rank = _lstsq_weights(f @ f.T)
        assert rank == size - 1
        got = ground_state_module._anderson_weights(f @ f.T)
        assert np.abs(got - want).max() <= 1e-12 * np.abs(want).max()


def test_anderson_weights_of_collinear_residuals_are_lstsqs_min_norm():
    """Collinear residuals make h rank-deficient: lstsq's cutoff drops the
    null direction and takes the least-norm solution, and so must the
    closed form.  Integer residuals give an exactly singular h, floats one
    singular to rounding; equal residuals give h = 0 and the newest output.
    Cramer's rule alone divides by a determinant of 0 or of rounding."""
    rng = np.random.default_rng(33)
    for t in (2.0, -1.0, 0.5, 3.0):
        for f0, e in (
            (rng.integers(-5, 6, 40).astype(float), rng.integers(-5, 6, 40).astype(float)),
            (rng.standard_normal(40), rng.standard_normal(40)),
        ):
            f = np.array([f0, f0 + e, f0 + t * e])  # f_2 - f_0 = t (f_1 - f_0)
            want, rank = _lstsq_weights(f @ f.T)
            assert rank == 1
            got = ground_state_module._anderson_weights(f @ f.T)
            assert np.abs(got - want).max() <= 1e-12 * np.abs(want).max()
    for size in (2, 3):
        f = np.tile(rng.standard_normal(40), (size, 1))
        assert ground_state_module._anderson_weights(f @ f.T).tolist() == [1.0] + [0.0] * (size - 1)


def test_rounding_floor_stalls_with_finite_weights(monkeypatch):
    """A tolerance below the rounding floor ends the solve through the 40-step
    stall rule, not at max_iter, with every mixing weight finite.

    lstsq read 65 iterations and a residual of 8.4e-15; the closed form
    reads 99 and 1.3e-14.  No mix along this run reaches the rank cutoff
    (lstsq's smaller singular value never falls below 3.7e-5 of the
    larger), so the two stop apart by rounding alone; the collinear case
    above is the one the cutoff decides."""
    weights = []
    closed_form = ground_state_module._anderson_weights

    def recorded(gram):
        weights.append(closed_form(gram))
        return weights[-1]

    monkeypatch.setattr(ground_state_module, "_anderson_weights", recorded)
    gs = solve_ground_state(Grid(3, 32, 10.0), PotentialSpec(kind="zero"), GAMMA, tol=1e-16, max_iter=400)
    assert not gs.converged and gs.iterations < 400
    assert gs.residual <= 1e-13
    assert weights and all(np.isfinite(a).all() for a in weights)


def test_full_grid_residual_holds_under_two_and_a_half_arrays():
    """solve_ground_state's peak is its full-grid reported residual beside the
    expanded profile: at 32^3 it reads 2.38 complex grid arrays (2.61 with
    the whole symbol of -Lap + omega^2 and a second array for the square of
    A Q - N(Q)).  The octant iteration's arrays are an eighth of the grid's.
    pocketfft's irfftn work array is not traced."""
    grid = Grid(3, 32, 10.0)
    solve_ground_state(grid, PotentialSpec(kind="zero"), GAMMA)  # the caches a first solve fills
    assert traced_peak(lambda: solve_ground_state(grid, PotentialSpec(kind="zero"), GAMMA), grid) <= 2.4


def test_strong_wells_raise_convergence_errors():
    grid = Grid(3, 16, 8.0)
    # -Lap + V is not coercive: the iteration settles where ||Q||_HV^2 <= 0
    with pytest.raises(ConvergenceError, match="form norm .* is not positive: the well is too strong"):
        solve_ground_state(grid, PotentialSpec(kind="gaussian_bump", amplitude=-5.0, sigma=1.0), GAMMA)
    # the free inverse no longer preconditions V: the inner solve diverges
    with pytest.raises(ConvergenceError, match="helmholtz Richardson iteration stalled"):
        solve_ground_state(grid, PotentialSpec(kind="gaussian_bump", amplitude=-20.0, sigma=1.0), GAMMA)


def test_potential_well_shifts_profile(grid48):
    # attractive well deepens the state: higher mass concentration than free Q
    well = PotentialSpec(kind="gaussian_bump", amplitude=-0.5, sigma=0.5)
    gsv = solve_ground_state(grid48, well, GAMMA)
    assert gsv.converged
    res = pohozaev_residuals(gsv)
    # V-dependent identity residuals stay small for smooth compact-ish wells
    assert res["max_abs"] < 5e-3


def test_save_load_roundtrip(tmp_path, gs48):
    p = os.path.join(tmp_path, "q.fld")
    save_ground_state(p, gs48)
    back, head = load_field(p)
    assert back.grid == gs48.field.grid
    assert np.array_equal(back.values, gs48.field.values)
    assert head["kind"] == "ground_state"
    assert head["omega"] == gs48.omega
    assert head["potential"] == {"kind": "zero"}
    meta = read_json(p + ".meta.json")
    assert meta["c_q"] == gs48.c_q
    assert meta["converged"]
    assert meta["snapshot"] == gs48.snapshot.to_dict()
    # the stored profile reproduces the sharp constant
    c_gn = take_snapshot(back, 0.0, None, None, GAMMA).weinstein(GAMMA)
    assert abs(c_gn ** (2.0 / GAMMA) - gs48.c_q) < 1e-15


def test_self_consistent_omega_smoke(grid64):
    # sigma=0.5 well needs the fine grid; at n=32 the secant lands on a
    # spurious fixed point of the under-resolved well
    gs = solve_ground_state(
        grid64,
        PotentialSpec(kind="gaussian_bump", amplitude=-0.5, sigma=0.5),
        GAMMA,
        omega_mode="self_consistent",
        tol=1e-8,
    )
    assert gs.converged
    assert gs.omega_iterations >= 1
    assert 0.9 < gs.omega < 1.1
    s = gs.snapshot
    # the pin: omega^2 = (4-gamma) hv / (gamma m)
    target = (4.0 - GAMMA) * s.hv_sq / (GAMMA * s.mass)
    assert abs(gs.omega**2 - target) < 1e-6 * target


def test_ground_state_is_exactly_even_and_evolves_on_the_octant(tmp_path):
    """The profile is iterated on the even octant and returned expanded, so
    it is exactly even, at V = 0 and in a centred well, and its residual is
    the expanded profile's on the full grid.  ground_state_scaled data built
    from it evolve on the octant too."""
    grid = Grid(3, 48, 12.0)
    well = PotentialSpec(kind="gaussian_bump", amplitude=-0.3, sigma=1.0)
    for potential in (PotentialSpec(kind="zero"), well):
        gs = solve_ground_state(grid, potential, GAMMA)
        assert gs.converged and gs.transform_basis == "even_octant"
        assert is_even(gs.field.values)
        v = None if potential.is_zero else eval_potential(potential, grid).values
        assert gs.residual == ground_state_module._residual(PeriodicBasis(grid), v, GAMMA, 1.0, gs.field.values)[2]
    cfg = tmp_path / "run.cfg"
    cfg.write_text(
        "[run]\nmode = evolve\n[grid]\npoints = 48\nhalf_length = 12.0\n"
        "[initial_data]\nkind = ground_state_scaled\nscale = 1.1\nlambda = -0.05\n[evolve]\nt_max = 0.01\n"
    )
    out = tmp_path / "out"
    assert main(["evolve", "--config", str(cfg), "--out", str(out)]) == 0
    assert read_json(str(out / "evolve_report.json"))["transform_basis"] == "even_octant"


@pytest.mark.parametrize("potential", [
    PotentialSpec(kind="zero"), PotentialSpec(kind="gaussian_bump", amplitude=-0.3, sigma=1.0),
], ids=["free", "well"])
def test_petviashvili_on_the_octant_is_the_periodic_iteration(potential, monkeypatch):
    """The same iteration on the octant and on the full grid: the same
    number of steps, each step's residual to 1e-12, and the profile to 1e-12
    of its peak."""
    grid = Grid(3, 32, 10.0)
    octant, periodic = EvenOctant(grid), PeriodicBasis(grid)
    v = None if potential.is_zero else eval_potential(potential, grid).values
    u0 = np.exp(-grid.r_sq / 2.0)
    residual = ground_state_module._residual
    history = []

    def recorded(*args):
        out = residual(*args)
        history.append(out[2])
        return out

    monkeypatch.setattr(ground_state_module, "_residual", recorded)
    runs = {}
    for basis in (octant, periodic):
        history.clear()
        take = basis.take
        out = ground_state_module._petviashvili(
            basis, None if v is None else take(v), GAMMA, 1.0, take(u0), 1e-9, 200
        )
        runs[basis.name] = (basis.expand(out[0]), out[1], out[3], list(history))
    (q_oct, it_oct, ok_oct, h_oct), (q_per, it_per, ok_per, h_per) = runs["even_octant"], runs["periodic"]
    assert ok_oct and ok_per and it_oct == it_per > 5
    assert np.abs(np.subtract(h_oct, h_per)).max() <= 1e-12
    assert np.abs(q_oct - q_per).max() <= 1e-12 * q_per.max()
