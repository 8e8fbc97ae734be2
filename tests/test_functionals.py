"""Conserved quantities, virial algebra, and the variational gap."""

from dataclasses import replace

import numpy as np
import pytest
import scipy.fft

from hartreekit.functionals import _grad_sq, _integral, _p, _virial_first, hv_norm_sq, mass, take_snapshot
from hartreekit.potentials import PotentialSpec, eval_potential, eval_virial_weight
from hartreekit.runner import smooth_random_field, variational_defects, virial_dual_defect
from hartreekit.spectral import EvenOctant, Field, Grid, PeriodicBasis, abs_sq, is_even, slabs, tally

from conftest import GAMMA, traced_peak


def snap(u, v=None, w=None):
    return take_snapshot(u, 0.0, v, w, GAMMA)


def dual(u, v, w):
    """The dual-form gate on u, which reads it as |u|^2 and ||grad u||^2."""
    return virial_dual_defect(Field(u.grid, abs_sq(u.values)), v, w, hv_norm_sq(u))


def hv_sq(u, v):
    """||u||_{HV}^2 from the single-quantity routes: hv_norm_sq(u) + int V|u|^2."""
    return hv_norm_sq(u) + _integral(PeriodicBasis(u.grid), abs_sq(u.values), v.values)


def test_mass_is_l2_squared(grid32):
    rng = np.random.default_rng(21)
    u = smooth_random_field(grid32, rng)
    l2_sq = np.vdot(u.values, u.values).real * grid32.cell_volume
    assert abs(mass(u) - l2_sq) < 1e-12 * mass(u)


def test_hv_decomposition(grid32):
    rng = np.random.default_rng(22)
    u = smooth_random_field(grid32, rng)
    v = eval_potential(PotentialSpec(kind="gaussian_bump", amplitude=0.4, sigma=1.1), grid32)
    vterm = float(((u.values * u.values.conj()).real * v.values).sum() * grid32.cell_volume)
    grad_sq = snap(u).grad_sq
    assert abs(hv_sq(u, v) - (grad_sq + vterm)) < 1e-11 * hv_sq(u, v)
    assert abs(hv_norm_sq(u) - grad_sq) < 1e-14 * grad_sq


def test_energy_definition(grid32):
    rng = np.random.default_rng(23)
    u = smooth_random_field(grid32, rng)
    v = eval_potential(PotentialSpec(kind="gaussian_bump", amplitude=-0.2, sigma=1.3), grid32)
    s = snap(u, v)
    e = s.energy
    assert abs(e - (0.5 * hv_sq(u, v) - 0.25 * s.p_value)) < 1e-11 * (abs(e) + 1.0)


def test_p_functional_positive_and_quartic(grid32):
    rng = np.random.default_rng(24)
    u = smooth_random_field(grid32, rng)
    p1 = snap(u).p_value
    assert p1 > 0.0
    u2 = Field(grid32, 2.0 * u.values)
    assert abs(snap(u2).p_value - 16.0 * p1) < 1e-9 * p1


@pytest.mark.parametrize("dim, points, gamma", [(3, 16, GAMMA), (3, 32, GAMMA), (2, 32, 1.5)])
def test_p_from_half_spectrum_matches_physical_route(dim, points, gamma):
    """P from the weighted half spectrum equals int (|x|^-g * rho) rho taken in physical space.

    rho is white noise, so the last axis's planes 0 and n/2 carry their
    share of the power: counting either of them twice, or dropping the
    doubling of the rest, moves P far past rounding."""
    grid = Grid(dim, points, 6.0)
    rho = np.random.default_rng(30 + points + dim).standard_normal(grid.shape)
    basis = PeriodicBasis(grid)
    want = _integral(basis, rho, basis.convolve(rho.copy(), gamma))
    assert abs(_p(basis, rho, gamma) - want) <= 1e-13 * abs(want)


def test_phase_gauge_invariance(grid32):
    # global phase changes no functional
    rng = np.random.default_rng(25)
    u = smooth_random_field(grid32, rng)
    w = Field(grid32, np.exp(1.37j) * u.values)
    su, sw = snap(u), snap(w)
    for name in ("mass", "p_value", "grad_sq", "variance_I", "virial_I1"):
        a, b = getattr(sw, name), getattr(su, name)
        assert abs(a - b) <= 1e-10 * max(abs(b), 1.0)


def test_virial_first_real_field_vanishes(grid32):
    # complex, so that I' is summed from derivatives, not set to 0 for a real array
    u = Field(grid32, np.exp(-grid32.r_sq / 3.0).astype(complex))
    assert abs(snap(u).virial_I1) < 1e-10


def test_quadratic_phase_algebra(grid32):
    """u = exp(i lam r^2) g: I' = 8 lam I(g), ||grad u||^2 = ||grad g||^2 + 4 lam^2 I(g)."""
    lam = 0.23
    g = Field(grid32, (0.8 * np.exp(-grid32.r_sq / 2.5)).astype(complex))
    u = Field(grid32, g.values * np.exp(1j * lam * grid32.r_sq))
    sg, su = snap(g), snap(u)
    ig = sg.variance_I
    assert abs(su.virial_I1 - 8.0 * lam * ig) < 1e-8 * abs(8.0 * lam * ig)
    assert abs(su.grad_sq - (sg.grad_sq + 4.0 * lam**2 * ig)) < 1e-8 * su.grad_sq
    assert abs(su.variance_I - ig) < 1e-12 * ig


def test_virial_second_forms_agree(grid32):
    rng = np.random.default_rng(26)
    u = smooth_random_field(grid32, rng)
    spec = PotentialSpec(kind="gaussian_bump", amplitude=0.3, sigma=1.2)
    v = eval_potential(spec, grid32)
    w = eval_virial_weight(spec, grid32)
    # the weight's e-term matches the route that never differentiates V
    assert dual(u, v, w) == 0.0
    s = snap(u, v, w)
    expect = 8.0 * hv_sq(u, v) - 2.0 * GAMMA * s.p_value - s.e_term
    assert abs(s.virial_I2 - expect) < 1e-9 * (abs(s.virial_I2) + 1.0)


def test_virial_second_inconsistent_weight_raises(grid32):
    rng = np.random.default_rng(27)
    u = smooth_random_field(grid32, rng)
    spec = PotentialSpec(kind="gaussian_bump", amplitude=0.3, sigma=1.2)
    v = eval_potential(spec, grid32)
    wrong = eval_virial_weight(PotentialSpec(kind="gaussian_bump", amplitude=0.9, sigma=0.7), grid32)
    assert dual(u, v, wrong) > 1.0


def test_virial_second_ball_surface_term(grid32):
    # the sampled ball weight omits the surface part of x.grad V; the
    # integration-by-parts route sees the gap, while the snapshot's I'' stays finite
    rng = np.random.default_rng(33)
    u = smooth_random_field(grid32, rng)
    spec = PotentialSpec(kind="ball_indicator", amplitude=0.5, radius=1.8)
    v = eval_potential(spec, grid32)
    with pytest.warns(UserWarning):
        w = eval_virial_weight(spec, grid32)
    assert dual(u, v, w) > 1.0
    assert np.isfinite(snap(u, v, w).virial_I2)


def test_free_virial_second_is_8e_plus_spread(grid32):
    # V = 0: I'' = 8 grad^2 - 2 gamma P = 16 E - (2 gamma - 4) P
    rng = np.random.default_rng(28)
    s = snap(smooth_random_field(grid32, rng))
    ref = 16.0 * s.energy - (2.0 * GAMMA - 4.0) * s.p_value
    assert abs(s.virial_I2 - ref) < 1e-9 * (abs(s.virial_I2) + 1.0)


def test_snapshot_consistency(grid32):
    rng = np.random.default_rng(29)
    u = smooth_random_field(grid32, rng)
    spec = PotentialSpec(kind="gaussian_bump", amplitude=0.25, sigma=1.0)
    v = eval_potential(spec, grid32)
    w = eval_virial_weight(spec, grid32)
    s = take_snapshot(u, 1.25, v, w, GAMMA)
    assert s.time == 1.25
    assert abs(s.mass - mass(u)) < 1e-12 * s.mass
    assert abs(s.hv_sq - hv_sq(u, v)) < 1e-12 * s.hv_sq
    assert abs(s.z - np.sqrt(s.variance_I)) < 1e-14
    assert dual(u, v, w) == 0.0


def test_weinstein_scale_invariance(grid48, gs48):
    # W is invariant under u -> c u and u -> dilations; check amplitude scaling on the grid
    rng = np.random.default_rng(30)
    u = smooth_random_field(grid48, rng)
    w1 = snap(u).weinstein(GAMMA)
    w2 = snap(Field(grid48, 3.7 * u.values)).weinstein(GAMMA)
    assert abs(w1 - w2) < 1e-10 * abs(w1)


def test_weinstein_maximized_by_ground_state(grid48, gs48):
    rng = np.random.default_rng(31)
    wq = snap(gs48.field).weinstein(GAMMA)
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


def test_octant_snapshot_is_the_periodic_snapshot():
    """On even fields the octant's snapshot is the full grid's to 1e-12 of
    each functional.  The chirped Gaussian sits in a centred bump; the
    filled-spectrum field is a random octant, whose Nyquist planes carry as
    much power as any, so I' needs the periodic grid's Nyquist term on the
    planes x_j = -L, which have no mirror points."""
    grid = Grid(3, 32, 10.0)
    basis = EvenOctant(grid)
    bump = PotentialSpec(kind="gaussian_bump", amplitude=0.6, sigma=1.5)
    v, w = eval_potential(bump, grid), eval_virial_weight(bump, grid)
    rng = np.random.default_rng(77)
    noise = basis.expand(rng.standard_normal(basis.shape) + 1j * rng.standard_normal(basis.shape))
    chirped = 0.5 * np.exp(-grid.r_sq / 4.0) * np.exp(-0.3j * grid.r_sq)
    for values in (chirped, noise):
        assert is_even(values)
        full = take_snapshot(Field(grid, values), 0.5, v, w, GAMMA).to_dict()
        take = basis.take
        octant = take_snapshot(take(values), 0.5, take(v.values), take(w.values), GAMMA, basis=basis).to_dict()
        for name, want in full.items():
            assert abs(octant[name] - want) <= 1e-12 * abs(want), name


def test_periodic_snapshot_holds_one_transient_array_beyond_its_transform():
    """take_snapshot finishes every read of |u|^2 before it transforms u,
    and forms each I' term in its derivative's buffer, so above its input it
    holds one transform along an axis and its power (and a half spectrum's
    scraps): 2.06 complex grid arrays at 32^3, which is one slab (1.83 when
    the power was squared an eighth of the grid at a time), where the order
    rho, u-hat, three derivatives and a conjugate read 3.76."""
    grid = Grid(3, 32, 10.0)
    u = smooth_random_field(grid, np.random.default_rng(5))
    snap(u)  # fills the grid's caches
    assert traced_peak(lambda: snap(u), grid) <= 2.3


def test_virial_first_in_the_derivative_buffer_is_the_conjugate_product():
    """I' summed as -Im of the line of conj(d_j u) u over the other axes,
    weighted by x_j, in the derivative's buffer, is the integrand's sum
    Im conj(u) x_j d_j u to 1e-14 of I', on the full grid and on the octant;
    numpy's complex product may fuse a multiply-add, so the two orders can
    differ in the last bits."""
    grid = Grid(3, 32, 10.0)
    chirped = 0.5 * np.exp(-grid.r_sq / 4.0) * np.exp(-0.3j * grid.r_sq)
    for basis in (PeriodicBasis(grid), EvenOctant(grid)):
        u = basis.take(chirped)
        want = 0.0
        for ax, x in enumerate(basis.coords):
            want += (u.conj() * basis.weigh(x * basis.derivative(u, ax))).sum().imag
        want *= 4.0 * grid.cell_volume
        assert abs(_virial_first(basis, u)[0] - want) <= 1e-14 * abs(want), basis.name


def _whole_array_lines(basis, u, ax):
    """axis_lines(u, ax, True) with the transform pair along ax taken over the whole grid at once.

    The product line is line(conj(d_ax u) u); the power line sums
    |fft(u, axis=ax)|^2 as line does, but adds the planes across axis 0 an
    eighth at a time and then the eighths, except along axis 0 itself."""
    c = scipy.fft.fft(u, axis=ax)
    power = abs_sq(c)
    step = len(power) if ax == 0 else max(1, len(power) // 8)
    power_line = sum(basis.line(power[i : i + step], ax) for i in range(0, len(power), step))
    ik = (1j * basis.freq_axis).reshape([-1 if b == ax else 1 for b in range(basis.dim)])
    du = scipy.fft.ifft(c * ik, axis=ax)
    return power_line, basis.line(du.conj() * u, ax)


@pytest.mark.parametrize(
    "dim, n, blocks",
    [(3, 64, [8] * 8), (3, 48, [14, 14, 14, 6]), (3, 32, [32]), (2, 32, None), (1, 16, None)],
    ids=["64", "48", "32", "2d-32", "1d-16"],
)
def test_streamed_virial_first_is_the_whole_arrays(dim, n, blocks):
    """I' and ||grad u||^2 taken a slab at a time are the whole-array route's bit for bit, line by line.

    A complex 64^3 field is eight slabs of the byte budget, 48^3 four with a
    short last one, 32^3 one; a grid of one or two axes is not cut.  The
    tally still reads one fft and one ifft per axis."""
    grid = Grid(dim, n, 10.0)
    if blocks:
        assert [len(range(n)[s[0]]) for s in slabs(grid.shape, 0)] == blocks
    basis = PeriodicBasis(grid)
    rng = np.random.default_rng(n + dim)
    noise = rng.standard_normal(grid.shape) + 1j * rng.standard_normal(grid.shape)
    for u in (noise, 0.5 * np.exp(-grid.r_sq / 4.0) * np.exp(-0.3j * grid.r_sq)):
        i1 = gs = 0.0
        for ax, x in enumerate(basis.coords):
            power, line = _whole_array_lines(basis, u, ax)
            got = basis.axis_lines(u, ax, True)
            assert np.array_equal(got[0], power) and np.array_equal(got[1], line), ax
            assert basis.axis_lines(u, ax)[0] is None
            gs += _grad_sq(basis, power, ax)
            i1 -= (x.ravel() * line.imag).sum()
        tally.clear()
        assert _virial_first(basis, u, grad=True) == (float(i1) * (4.0 * grid.cell_volume), gs)
        assert dict(tally) == {"fft": dim, "ifft": dim}


def test_snapshot_transforms_by_class(grid32):
    """Counter gate on a 32^3 snapshot's transforms.  A complex u without
    u-hat takes 3 fft and 3 ifft, one pair along each axis, for I' and
    ||grad u||^2, and one rfftn for P: no transform of the whole grid.  A
    real u reads I' = 0 exactly and takes no derivative and no inverse
    transform: one forward transform of its basis for ||grad u||^2 (fftn on
    the full grid, the DCT-I on the octant) and one real one for P."""
    def taken():
        out = dict(tally)
        tally.clear()
        return out

    u = smooth_random_field(grid32, np.random.default_rng(5))
    snap(u)  # fills the grid's caches
    taken()
    snap(u)
    assert taken() == {"fft": 3, "ifft": 3, "rfftn": 1}
    real = snap(Field(grid32, np.abs(u.values)))
    assert real.virial_I1 == 0.0
    assert taken() == {"fftn": 1, "rfftn": 1}
    octant = EvenOctant(grid32)
    profile = octant.take(np.exp(-grid32.r_sq / 4.0))
    assert take_snapshot(profile, 0.0, None, None, GAMMA, basis=octant).virial_I1 == 0.0
    assert taken() == {"octant_forward": 2}
