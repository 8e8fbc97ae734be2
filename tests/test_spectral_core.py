"""Grid, transform, and Riesz-convolution invariants."""

import math

import numpy as np
import pytest
import scipy.fft
from scipy.integrate import quad
from scipy.special import gamma as gamma_fn

import hartreekit.runner as runner
from hartreekit.functionals import take_snapshot
from hartreekit.runner import gradient_routes_defect, parseval_defect, riesz_origin_defect, smooth_random_field
from hartreekit.spectral import (
    EvenOctant,
    Field,
    Grid,
    PeriodicBasis,
    abs_sq,
    center_of_mass,
    epstein_zeta,
    fftn,
    gradient,
    ifftn,
    is_even,
    outer_shell_mass_fraction,
    recenter,
    riesz_constant,
    riesz_convolve,
)

from conftest import GAMMA


def test_fft_roundtrip(grid32):
    rng = np.random.default_rng(11)
    a = rng.standard_normal(grid32.shape) + 1j * rng.standard_normal(grid32.shape)
    assert np.allclose(ifftn(fftn(a)), a, atol=1e-12)


def test_out_of_place_transforms_leave_the_input_and_the_bits(grid32):
    # without overwrite_x a complex input is copied and the copy transformed
    # in place; a strided view and a real input take the same call
    rng = np.random.default_rng(12)
    a = rng.standard_normal(grid32.shape) + 1j * rng.standard_normal(grid32.shape)
    for x in (a, a[:, ::2], a.real):
        keep = x.copy()
        for ours, theirs in ((fftn, scipy.fft.fftn), (ifftn, scipy.fft.ifftn)):
            got = ours(x)
            assert x.tobytes() == keep.tobytes()
            assert got.tobytes() == theirs(keep).tobytes()


def test_even_octant_is_the_dft_of_even_fields(grid32):
    # a field even about the grid centre is its octant; the octant's DCT-I is
    # the field's fftn on mode min(k, n - k) of each axis, with the sign
    # (-1)^(k_1 + k_2 + k_3), its weighted norm is fftn's by Parseval, and
    # the convolution is the full grid's
    rng = np.random.default_rng(14)
    basis = EvenOctant(grid32)
    octant = rng.standard_normal((17,) * 3) + 1j * rng.standard_normal((17,) * 3)
    a = basis.expand(octant)
    assert is_even(a) and not is_even(np.roll(a, 1, axis=2))
    assert np.array_equal(basis.take(a), octant)
    c = basis.forward(octant)
    full = fftn(a)
    k = np.arange(32)
    sign = (-1.0) ** (k[:, None, None] + k[None, :, None] + k[None, None, :])
    assert np.abs(sign * c[np.ix_(*[np.minimum(k, 32 - k)] * 3)] - full).max() <= 1e-13 * np.abs(full).max()
    assert np.abs(basis.inverse(c) - octant).max() <= 1e-14 * np.abs(octant).max()
    assert basis.norm_sq(c) == pytest.approx(np.vdot(full, full).real, rel=1e-13)
    rho = abs_sq(a)
    want = PeriodicBasis(grid32).apply(rho, grid32.riesz_multiplier(GAMMA))
    got = basis.expand(basis.convolve(basis.take(rho), GAMMA))
    assert np.abs(got - want).max() <= 1e-13 * np.abs(want).max()


def test_real_input_multiplier_matches_complex_route(grid32):
    # a real field takes the half-spectrum route through rfftn/irfftn
    rng = np.random.default_rng(13)
    a = rng.standard_normal(grid32.shape)
    for m in (grid32.riesz_multiplier(GAMMA), 1.0 / (grid32.k_sq + 0.7)):
        want = ifftn(m * fftn(a)).real
        got = PeriodicBasis(grid32).apply(a, m)
        assert got.dtype == np.float64
        assert np.abs(got - want).max() < 1e-14 * np.abs(want).max()


def test_abs_sq_is_the_sum_of_real_squares():
    # |a|^2 from two real products and one sum: bitwise the scalar loop's
    # value, and within one unit in the last place of the conjugate product
    # (a conj(a)).real, which numpy's complex loop may round differently
    # (a fused multiply-add)
    rng = np.random.default_rng(233)
    eps = np.finfo(float).eps
    for scale in (1e-150, 1e-3, 1.0, 1e150):
        a = scale * (rng.standard_normal((16, 16, 16)) + 1j * rng.standard_normal((16, 16, 16)))
        got = abs_sq(a)
        assert got.dtype == np.float64
        loop = np.array([z.real * z.real + z.imag * z.imag for z in a.ravel().tolist()]).reshape(a.shape)
        assert np.array_equal(got, loop)
        old = (a * a.conj()).real
        assert np.all(np.abs(got - old) <= eps * old)
    real = rng.standard_normal(1000)
    assert np.array_equal(abs_sq(real), real * real)


def test_parseval_mass(grid32):
    rng = np.random.default_rng(12)
    assert parseval_defect(smooth_random_field(grid32, rng)) < 1e-13


def test_laplacian_plane_wave(grid32):
    # exact eigenfunction of the spectral Laplacian: <u, -Lap u> = |k|^2 M
    k = 2.0 * np.pi / (2.0 * grid32.half_length) * np.array([3.0, -1.0, 2.0])
    x, y, z = grid32.coords
    u = Field(grid32, np.exp(1j * (k[0] * x + k[1] * y + k[2] * z)))
    s = take_snapshot(u, 0.0, None, None, GAMMA)
    assert abs(s.grad_sq - float(k @ k) * s.mass) < 1e-10 * s.grad_sq


def test_gradient_plane_wave(grid32):
    k = 2.0 * np.pi / (2.0 * grid32.half_length) * np.array([1.0, 4.0, -2.0])
    x, y, z = grid32.coords
    u = Field(grid32, np.exp(1j * (k[0] * x + k[1] * y + k[2] * z)))
    for gi, ki in zip(gradient(u), k):
        assert np.allclose(gi.values, 1j * ki * u.values, atol=1e-10)
    assert gradient_routes_defect(u) < 1e-11
    # a real field keeps only the real part of each derivative, which drops
    # the Nyquist mode; the Parseval route keeps it, so the routes part
    checkerboard = Field(grid32, np.cos(np.pi * (x + grid32.half_length) / grid32.spacing) * np.ones(grid32.shape))
    assert gradient_routes_defect(checkerboard) > 0.5


def test_riesz_convolve_gaussian_origin(grid48):
    """(|x|^-gamma * e^{-|x|^2}) at 0 against scalar radial quadrature."""
    assert riesz_origin_defect(grid48, GAMMA) < 1e-4
    # a box of half-width 2 truncates the Gaussian and lets the images in
    assert riesz_origin_defect(Grid(3, 32, 2.0), GAMMA) > 1e-4


@pytest.mark.parametrize("dim, gamma", [(3, 2.5), (3, 2.2), (2, 1.5)])
def test_riesz_origin_reference_is_the_radial_quadrature(monkeypatch, dim, gamma):
    """The gate's closed-form reference, Gamma((d - g)/2) / 2, is quad of r^{d-1-g} e^{-r^2} over (0, inf).

    The grid convolution is replaced by the quadrature value, so the defect
    reads only the gap between the gate's reference and quad."""
    area = 2.0 * np.pi ** (dim / 2.0) / gamma_fn(dim / 2.0)
    ref, _err = quad(lambda r: r ** (dim - 1.0 - gamma) * math.exp(-r * r), 0.0, np.inf)
    monkeypatch.setattr(runner, "riesz_convolve", lambda f, _g: Field(f.grid, np.full(f.grid.shape, area * ref)))
    assert riesz_origin_defect(Grid(dim, 8, 4.0), gamma) <= 1e-12


@pytest.mark.parametrize("grid", [Grid(3, 32, 10.0), Grid(2, 32, 6.0)], ids=["3d", "2d"])
def test_smooth_random_field_matches_dense_formula(grid):
    """The separable Gaussians equal the full-grid formula, drawn from the same rng stream."""
    got = smooth_random_field(grid, np.random.default_rng(41), amplitude=0.7).values
    rng = np.random.default_rng(41)
    want = np.zeros(grid.shape, dtype=complex)
    for _ in range(3):
        c = rng.uniform(-0.2 * grid.half_length, 0.2 * grid.half_length, size=grid.dim)
        w = rng.uniform(0.8, 1.8)
        amp = 0.7 * rng.uniform(0.4, 1.0)
        ph = rng.uniform(0.0, 2.0 * np.pi)
        r2 = sum((x - ci) ** 2 for x, ci in zip(grid.coords, c))
        want += amp * np.exp(1j * ph) * np.exp(-r2 / (2.0 * w * w))
    assert np.abs(got - want).max() <= 1e-15 * np.abs(want).max()


def test_riesz_convolve_is_symmetric_positive(grid32):
    # kernel is even and positive, so a positive density gives a positive result
    g0 = grid32.field_from_function(lambda x, y, z: np.exp(-((x - 1) ** 2 + y**2 + z**2)))
    conv = riesz_convolve(g0, GAMMA).values.real
    assert conv.min() > 0.0
    g_even = grid32.field_from_function(lambda x, y, z: np.exp(-(x**2 + y**2 + z**2)))
    c = riesz_convolve(g_even, GAMMA).values.real
    n = grid32.points
    assert np.allclose(c[1:, 1:, 1:], c[1:, 1:, 1:][::-1, ::-1, ::-1], atol=1e-12 * c.max())


def test_riesz_constant_d3_coulomb():
    # gamma=1 in d=3 is the Coulomb kernel with Fourier symbol 4*pi/|k|^2
    assert abs(riesz_constant(3, 1.0) - 4.0 * np.pi) < 1e-12


def test_epstein_zeta_jellium_anchor():
    # classic simple-cubic lattice constant: Z_3(1) = -2.8372974794806...
    assert abs(epstein_zeta(1.0, 3) - (-2.8372974794806)) < 1e-10


@pytest.mark.parametrize("s", [1.7, 2.5])
def test_epstein_zeta_theta_integral(s):
    """Riemann theta representation, a numerically distinct continuation route.

    Lambda(s) = -2/s - 2/(d-s) + int_1^inf (t^{s/2-1} + t^{(d-s)/2-1}) psi(t) dt
    with psi(t) = theta(t)^d - 1, theta(t) = sum_n exp(-pi n^2 t); then
    Z(s) = pi^{s/2} Lambda(s) / Gamma(s/2).
    """
    d = 3

    def psi(t):
        th = 1.0 + 2.0 * sum(math.exp(-math.pi * n * n * t) for n in range(1, 8))
        return th**d - 1.0

    integrand = lambda t: (t ** (s / 2.0 - 1.0) + t ** ((d - s) / 2.0 - 1.0)) * psi(t)
    tail, _ = quad(integrand, 1.0, 40.0, limit=200)
    lam = -2.0 / s - 2.0 / (d - s) + tail
    ref = math.pi ** (s / 2.0) * lam / gamma_fn(s / 2.0)
    assert abs(epstein_zeta(s, 3) - ref) < 1e-10 * abs(ref)


def test_outer_shell_mass_fraction_gaussian(grid48):
    sig = 1.2
    u = grid48.field_from_function(lambda x, y, z: np.exp(-(x * x + y * y + z * z) / (2 * sig * sig)))
    frac = outer_shell_mass_fraction(u)
    # mass beyond 0.9L for a tight Gaussian: erfc-level tiny
    assert frac < 1e-12
    broad = grid48.field_from_function(lambda x, y, z: np.exp(-(x * x + y * y + z * z) / 50.0))
    assert outer_shell_mass_fraction(broad) > frac


def test_recenter_moves_center_of_mass(grid32):
    u = grid32.field_from_function(lambda x, y, z: np.exp(-((x - 1.25) ** 2 + (y + 0.625) ** 2 + z**2)))
    c0 = center_of_mass(u)
    assert abs(c0[0] - 1.25) < 1e-6
    v = recenter(u)
    c1 = center_of_mass(v)
    assert np.all(np.abs(c1) < grid32.spacing / 2 + 1e-9)


def test_grid_equality_and_hash():
    a, b = Grid(3, 32, 10.0), Grid(3, 32, 10.0)
    assert a == b and hash(a) == hash(b)
    assert a != Grid(3, 48, 10.0)
    assert a != Grid(3, 32, 12.0)


def test_grid_rejects_bad_args():
    with pytest.raises(ValueError):
        Grid(3, 0, 10.0)
    with pytest.raises(ValueError):
        Grid(3, 32, -1.0)
    with pytest.raises(ValueError):
        Grid(0, 32, 10.0)


def test_field_shape_check(grid32):
    with pytest.raises(ValueError):
        Field(grid32, np.zeros((4, 4, 4)))
