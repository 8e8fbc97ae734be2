"""Ground-state solver: convergence, identities, maximality, persistence."""

import os

import numpy as np
import pytest
import scipy.fft

import hartreekit.ground_state as ground_state_module
from hartreekit.fieldio import load_field, read_json
from hartreekit.functionals import take_snapshot
from hartreekit.ground_state import (
    ConvergenceError,
    pohozaev_residuals,
    save_ground_state,
    solve_ground_state,
)
from hartreekit.potentials import PotentialSpec
from hartreekit.runner import smooth_random_field, variational_defects
from hartreekit.spectral import Field, Grid

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


def test_petviashvili_real_ffts_per_iteration(monkeypatch):
    """A residual costs a real transform pair for N(u) and one for A u; the
    solve costs one more at V = 0.  At V = 0 the solve is the exact Fourier
    inverse, so A u of the next iterate is carried, not transformed: the
    first iteration costs 6 real FFTs and each later one 4.  With a well the
    solve is Richardson's and every residual transforms A u, as before."""
    count = [0]
    for name in ("rfftn", "irfftn"):
        def counted(*args, _fn=getattr(scipy.fft, name), **kwargs):
            count[0] += 1
            return _fn(*args, **kwargs)
        monkeypatch.setattr(scipy.fft, name, counted)
    starts, costs = [], []
    residual = ground_state_module._residual

    def traced(*args):
        starts.append(count[0])
        out = residual(*args)
        costs.append(count[0] - starts[-1])
        return out

    monkeypatch.setattr(ground_state_module, "_residual", traced)
    grid = Grid(3, 16, 8.0)
    solve_ground_state(grid, PotentialSpec(kind="zero"), GAMMA, max_iter=5, tol=1e-14)
    assert np.diff(starts).tolist() == [6, 4, 4, 4]
    assert costs == [4, 2, 2, 2, 2]
    starts.clear()
    costs.clear()
    well = PotentialSpec(kind="gaussian_bump", amplitude=-0.3, sigma=1.0)
    solve_ground_state(grid, well, GAMMA, max_iter=5, tol=1e-14)
    assert costs == [4] * 5


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
