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
from hartreekit.spectral import EvenOctant, Field, Grid, PeriodicBasis, is_even

from conftest import GAMMA, closed_form_c_q


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
        eta = smooth_random_field(gs48.field.grid, rng, amplitude=0.05)
        trial = Field(gs48.field.grid, gs48.field.values + eta.values)
        assert variational_defects(trial, gs48, GAMMA)[2] <= 1e-6


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
    assert len(gs.residual_history) >= 1
    assert gs.residual > 1e-9
    for omega in (0.0, float("nan"), float("inf")):
        with pytest.raises(ValueError, match="omega must be positive and finite"):
            solve_ground_state(grid32, PotentialSpec(kind="zero"), GAMMA, omega=omega)


def test_petviashvili_real_ffts_per_iteration(fft_counts, monkeypatch):
    """A residual costs a real transform pair for N(u) and one for A u; the
    solve costs one more at V = 0.  At V = 0 the solve is the exact Fourier
    inverse, so A u of the next iterate is carried, not transformed: the
    first iteration costs 6 transforms and each later one 4.  With a well the
    solve is Richardson's and every residual transforms A u.

    On the even octant, the radial guess with V = 0 or with a centred well,
    every one of these is a DCT-I (EvenOctant.forward/inverse), with the same
    counts; the closing residual is the expanded profile's on the full grid,
    4 real FFTs and no DCT.  The well rolled by one point is not even, so
    that solve takes rfftn/irfftn throughout.  Each residual's cost is (real
    FFTs, DCTs)."""
    def real_dct():
        return (fft_counts["rfftn"] + fft_counts["irfftn"],
                fft_counts["octant_forward"] + fft_counts["octant_inverse"])

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
def test_petviashvili_on_the_octant_is_the_periodic_iteration(potential):
    """The same iteration on the octant and on the full grid: the same
    number of steps, the residual history to 1e-12, and the profile to 1e-12
    of its peak."""
    grid = Grid(3, 32, 10.0)
    octant, periodic = EvenOctant(grid), PeriodicBasis(grid)
    v = None if potential.is_zero else eval_potential(potential, grid).values
    u0 = np.exp(-grid.r_sq / 2.0)
    runs = {}
    for basis in (octant, periodic):
        history = []
        take = basis.take
        out = ground_state_module._petviashvili(
            basis, None if v is None else take(v), GAMMA, 1.0, take(u0), 1e-9, 200, history
        )
        runs[basis.name] = (basis.expand(out[0]), out[1], out[3], history)
    (q_oct, it_oct, ok_oct, h_oct), (q_per, it_per, ok_per, h_per) = runs["even_octant"], runs["periodic"]
    assert ok_oct and ok_per and it_oct == it_per > 5
    assert np.abs(np.subtract(h_oct, h_per)).max() <= 1e-12
    assert np.abs(q_oct - q_per).max() <= 1e-12 * q_per.max()
