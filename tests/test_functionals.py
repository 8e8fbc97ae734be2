"""Conserved quantities, virial algebra, and the variational gap."""

from dataclasses import replace

import numpy as np
import pytest

from hartreekit.functionals import (
    e_term,
    energy,
    grad_norm_sq,
    hv_norm_sq,
    mass,
    p_functional,
    take_snapshot,
    variance,
    virial_first,
    virial_second,
    weinstein,
)
from hartreekit.potentials import PotentialSpec, eval_potential, eval_virial_weight
from hartreekit.runner import smooth_random_field, variational_defects, virial_dual_defect
from hartreekit.spectral import Field

from conftest import GAMMA


def test_mass_is_l2_squared(grid32):
    rng = np.random.default_rng(21)
    u = smooth_random_field(grid32, rng)
    assert abs(mass(u) - u.norm_l2() ** 2) < 1e-12 * mass(u)


def test_hv_decomposition(grid32):
    rng = np.random.default_rng(22)
    u = smooth_random_field(grid32, rng)
    v = eval_potential(PotentialSpec(kind="gaussian_bump", amplitude=0.4, sigma=1.1), grid32)
    vterm = float(((u.values * u.values.conj()).real * v.values).sum() * grid32.cell_volume)
    assert abs(hv_norm_sq(u, v) - (grad_norm_sq(u) + vterm)) < 1e-11 * hv_norm_sq(u, v)
    assert abs(hv_norm_sq(u, None) - grad_norm_sq(u)) < 1e-14 * grad_norm_sq(u)


def test_energy_definition(grid32):
    rng = np.random.default_rng(23)
    u = smooth_random_field(grid32, rng)
    v = eval_potential(PotentialSpec(kind="gaussian_bump", amplitude=-0.2, sigma=1.3), grid32)
    e = energy(u, v, GAMMA)
    assert abs(e - (0.5 * hv_norm_sq(u, v) - 0.25 * p_functional(u, GAMMA))) < 1e-11 * (abs(e) + 1.0)


def test_p_functional_positive_and_quartic(grid32):
    rng = np.random.default_rng(24)
    u = smooth_random_field(grid32, rng)
    p1 = p_functional(u, GAMMA)
    assert p1 > 0.0
    u2 = Field(grid32, 2.0 * u.values)
    assert abs(p_functional(u2, GAMMA) - 16.0 * p1) < 1e-9 * p1


def test_phase_gauge_invariance(grid32):
    # global phase changes no functional
    rng = np.random.default_rng(25)
    u = smooth_random_field(grid32, rng)
    w = Field(grid32, np.exp(1.37j) * u.values)
    for f in (mass, lambda a: p_functional(a, GAMMA), grad_norm_sq, variance, virial_first):
        assert abs(f(w) - f(u)) <= 1e-10 * max(abs(f(u)), 1.0)


def test_virial_first_real_field_vanishes(grid32):
    u = grid32.field_from_function(lambda x, y, z: np.exp(-(x**2 + y**2 + z**2) / 3.0))
    assert abs(virial_first(u)) < 1e-10


def test_quadratic_phase_algebra(grid32):
    """u = exp(i lam r^2) g: I' = 8 lam I(g), ||grad u||^2 = ||grad g||^2 + 4 lam^2 I(g)."""
    lam = 0.23
    g = grid32.field_from_function(lambda x, y, z: 0.8 * np.exp(-(x**2 + y**2 + z**2) / 2.5))
    u = Field(grid32, g.values * np.exp(1j * lam * grid32.r_sq))
    ig = variance(g)
    assert abs(virial_first(u) - 8.0 * lam * ig) < 1e-8 * abs(8.0 * lam * ig)
    assert abs(grad_norm_sq(u) - (grad_norm_sq(g) + 4.0 * lam**2 * ig)) < 1e-8 * grad_norm_sq(u)
    assert abs(variance(u) - ig) < 1e-12 * ig


def test_virial_second_forms_agree(grid32):
    rng = np.random.default_rng(26)
    u = smooth_random_field(grid32, rng)
    spec = PotentialSpec(kind="gaussian_bump", amplitude=0.3, sigma=1.2)
    v = eval_potential(spec, grid32)
    w = eval_virial_weight(spec, grid32)
    i2 = virial_second(u, v, w, GAMMA)  # internal cross-check raises on mismatch
    expect = 8.0 * hv_norm_sq(u, v) - 2.0 * GAMMA * p_functional(u, GAMMA) - e_term(u, w)
    assert abs(i2 - expect) < 1e-9 * (abs(i2) + 1.0)


def test_virial_second_inconsistent_weight_raises(grid32):
    rng = np.random.default_rng(27)
    u = smooth_random_field(grid32, rng)
    spec = PotentialSpec(kind="gaussian_bump", amplitude=0.3, sigma=1.2)
    v = eval_potential(spec, grid32)
    wrong = eval_virial_weight(PotentialSpec(kind="gaussian_bump", amplitude=0.9, sigma=0.7), grid32)
    with pytest.raises(AssertionError):
        virial_second(u, v, wrong, GAMMA)
    assert virial_dual_defect(u, v, wrong, GAMMA) > 1.0


def test_virial_second_ball_surface_term(grid32):
    # sampled ball weight omits the surface part of x.grad V; the cross-check
    # sees the gap, and rtol_consistency=None opts out for such potentials
    rng = np.random.default_rng(33)
    u = smooth_random_field(grid32, rng)
    spec = PotentialSpec(kind="ball_indicator", amplitude=0.5, radius=1.8)
    v = eval_potential(spec, grid32)
    with pytest.warns(UserWarning):
        w = eval_virial_weight(spec, grid32)
    with pytest.raises(AssertionError):
        virial_second(u, v, w, GAMMA)
    i2 = virial_second(u, v, w, GAMMA, rtol_consistency=None)
    assert np.isfinite(i2)


def test_free_virial_second_is_8e_plus_spread(grid32):
    # V = 0: I'' = 8 grad^2 - 2 gamma P = 16 E - (2 gamma - 4) P
    rng = np.random.default_rng(28)
    u = smooth_random_field(grid32, rng)
    i2 = virial_second(u, None, None, GAMMA)
    ref = 16.0 * energy(u, None, GAMMA) - (2.0 * GAMMA - 4.0) * p_functional(u, GAMMA)
    assert abs(i2 - ref) < 1e-9 * (abs(i2) + 1.0)


def test_snapshot_consistency(grid32):
    rng = np.random.default_rng(29)
    u = smooth_random_field(grid32, rng)
    spec = PotentialSpec(kind="gaussian_bump", amplitude=0.25, sigma=1.0)
    v = eval_potential(spec, grid32)
    w = eval_virial_weight(spec, grid32)
    s = take_snapshot(u, 1.25, v, w, GAMMA)
    assert s.time == 1.25
    assert abs(s.mass - mass(u)) < 1e-12 * s.mass
    assert abs(s.energy - energy(u, v, GAMMA)) < 1e-10 * (abs(s.energy) + 1.0)
    assert abs(s.variance_I - variance(u)) < 1e-12 * s.variance_I
    assert abs(s.z - np.sqrt(s.variance_I)) < 1e-14
    assert abs(s.virial_I2 - virial_second(u, v, w, GAMMA)) < 1e-9 * (abs(s.virial_I2) + 1.0)


def test_weinstein_scale_invariance(grid48, gs48):
    # W is invariant under u -> c u and u -> dilations; check amplitude scaling on the grid
    rng = np.random.default_rng(30)
    u = smooth_random_field(grid48, rng)
    w1 = weinstein(u, None, GAMMA)
    w2 = weinstein(Field(grid48, 3.7 * u.values), None, GAMMA)
    assert abs(w1 - w2) < 1e-10 * abs(w1)


def test_weinstein_maximized_by_ground_state(grid48, gs48):
    rng = np.random.default_rng(31)
    wq = weinstein(gs48.field, None, GAMMA)
    assert abs(wq - gs48.c_gn) < 1e-8 * wq
    for _ in range(20):
        _gap, interpolation, excess = variational_defects(smooth_random_field(grid48, rng), gs48, GAMMA)
        assert excess <= 1e-6 and interpolation <= 1e-6
    # against half the sharp constant, Q itself violates all three inequalities
    half = replace(gs48, c_gn=0.5 * gs48.c_gn, c_q=(0.5 * gs48.c_gn) ** (2.0 / GAMMA))
    gap, interpolation, excess = variational_defects(gs48.field, half, GAMMA)
    assert gap > 1e-8 and interpolation > 1e-6 and excess > 1e-6


def test_cauchy_schwarz_gap_nonnegative(grid48, gs48):
    rng = np.random.default_rng(32)
    for _ in range(20):
        assert variational_defects(smooth_random_field(grid48, rng), gs48, GAMMA)[0] <= 1e-8
