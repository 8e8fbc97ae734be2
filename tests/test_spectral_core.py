"""Grid, transform, and Riesz-convolution invariants."""

import dataclasses
import math

import numpy as np
import pytest
import scipy.fft
from scipy.integrate import quad
from scipy.special import gamma as gamma_fn

import hartreekit.spectral as spectral
from hartreekit.functionals import hv_norm_sq, take_snapshot
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
    ifftn,
    is_even,
    recenter,
    riesz_constant,
    shell_fraction,
    transform_basis,
)

from conftest import GAMMA, traced_peak


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


def test_octant_dct_is_scipys_dct_i_at_every_size():
    # the octant's DCT-I is a matrix product within 1e-14 of scipy.fft's
    # dctn/idctn(type=1) at every size, forward, inverse and forward along
    # each axis alone, real and complex, and the round trip returns the
    # input; the input is left as it was unless overwrite_x, which gives the
    # same bits.  transform_basis hands out the one EvenOctant its grid
    # keeps, matrices and all.
    rng = np.random.default_rng(16)
    for m in (*range(3, 51), 57, 65):
        grid = Grid(3, 2 * (m - 1), 10.0)
        octant = spectral.transform_basis(grid, None)
        assert octant is spectral.transform_basis(grid, np.zeros(grid.shape)) is grid._cache["even_octant"]
        a = rng.standard_normal((m,) * 3)
        for x in (a, a + 1j * rng.standard_normal(a.shape)):
            keep = x.copy()
            pairs = ((octant.forward(x), scipy.fft.dctn(x, type=1)), (octant.inverse(x), scipy.fft.idctn(x, type=1)),
                     *((octant.forward(x, axes=(ax,)), scipy.fft.dctn(x, type=1, axes=(ax,))) for ax in range(3)))
            assert x.tobytes() == keep.tobytes()
            for got, want in pairs:
                assert got.dtype == want.dtype
                assert np.abs(got - want).max() <= 1e-14 * np.abs(want).max()
            back = octant.inverse(octant.forward(x))
            assert np.abs(back - x).max() <= 1e-14 * np.abs(x).max()
            assert octant.forward(x.copy(), overwrite_x=True).tobytes() == pairs[0][0].tobytes()


def test_full_octant_dct_is_one_gemm_per_axis(gemm_counts):
    """Counter gate: a DCT-I along every axis of an m^3 octant is 3 BLAS GEMMs, along one axis 1.

    Each axis is one (m^2 x m)(m x m) product, (2 m^2 x m)(m x m) for a
    complex octant's floats, forward and inverse alike; the stacked route
    took 3m, one per index of the axes the product did not touch.  A
    transform along one axis alone, and the derivative along it, take that
    axis's GEMM and transposing copies for the others, so axis_lines takes
    one GEMM for its derivative and one more for its power; the stacked
    route took m each."""
    rng = np.random.default_rng(27)
    for m in (9, 17, 33, 49, 65):
        octant = spectral.transform_basis(Grid(3, 2 * (m - 1), 10.0), None)
        a = rng.standard_normal((m,) * 3)
        for x in (a, a + 1j * rng.standard_normal(a.shape)):
            for transform in (octant.forward, octant.inverse):
                gemm_counts.clear()
                transform(x)
                assert gemm_counts == [1, 1, 1]
            for ax in range(3):
                for one_axis in (octant.derivative, octant.axis_lines):
                    gemm_counts.clear()
                    one_axis(x, ax)
                    assert gemm_counts == [1]
                gemm_counts.clear()
                octant.axis_lines(x, ax, True)  # the one-axis DCT-I for the power, then the derivative
                assert gemm_counts == [1, 1]


@pytest.mark.parametrize("n", [32, 64])
def test_octant_snapshot_gemm_count(n, gemm_counts):
    """Counter gate: a trajectory snapshot on a 17^3 or 33^3 octant takes 9 BLAS GEMMs.

    evolve's snapshot turns the state back (one inverse DCT-I, 3 GEMMs),
    reads ||grad u||^2 off the state it holds, takes P from one forward
    DCT-I of |u|^2 (3) and I' from one derivative along each axis (1 each).
    The derivative's stacked route took a one-axis DCT-I of m GEMMs and an
    idst per axis: 57 at 17^3 and 105 at 33^3."""
    grid = Grid(3, n, 10.0)
    u0 = 0.8 * np.exp(-grid.r_sq / 2.0) * np.exp(0.1j * grid.r_sq)
    basis = spectral.transform_basis(grid, u0)
    uhat = basis.forward(basis.take(u0))
    gemm_counts.clear()
    snapshot = take_snapshot(basis.inverse(uhat), 0.0, None, None, GAMMA, uhat=uhat, basis=basis)
    assert snapshot.virial_I1 != 0.0
    assert len(gemm_counts) == sum(gemm_counts) == 9


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


@pytest.mark.parametrize("n", [16, 18, 30, 64])
def test_from_spectrum_is_the_forward_transform_of_the_take(n):
    # the octant's coefficients are read off the full grid's fftn: modes
    # 0 ... n/2 of each axis, with the sign (-1)^(k_1 + k_2 + k_3), for real
    # and complex even data, at odd (n = 16, 64) and even (18, 30) m = n/2 + 1;
    # the periodic basis keeps the spectrum itself
    grid = Grid(3, n, 10.0)
    basis = EvenOctant(grid)
    rng = np.random.default_rng(n)
    m = n // 2 + 1
    real = rng.standard_normal((m,) * 3)
    for octant in (real, real + 1j * rng.standard_normal((m,) * 3)):
        a = basis.expand(octant)
        want = basis.forward(basis.take(a))
        got = basis.from_spectrum(fftn(a))
        assert got.shape == want.shape
        assert np.abs(got - want).max() <= 1e-14 * np.abs(want).max()
    spectrum = fftn(a)
    assert PeriodicBasis(grid).from_spectrum(spectrum) is spectrum


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
        # with overwrite_x the squares are formed in a's own float view: the
        # same bits, and the same sum over the strided result
        spent = a.copy()
        in_place = abs_sq(spent, overwrite_x=True)
        assert np.shares_memory(in_place, spent) and np.array_equal(in_place, loop)
        assert in_place.sum() == got.sum()
    # a real a takes a * a, with no zero imaginary part to square; the
    # complex formula's a * a + 0 * 0 gives the same bits, special values too
    specials = np.array([np.nan, -np.nan, np.inf, -np.inf, -0.0, 0.0, 5e-324, -1e-200, 1e200, -3.0])
    for real in (specials, rng.standard_normal(1000), rng.standard_normal((8, 8, 8))[:, ::2]):
        with np.errstate(over="ignore"):
            old = real.real * real.real + real.imag * real.imag
            got = abs_sq(real)
            assert np.array_equal(got, real * real, equal_nan=True)
        assert got.dtype == np.float64 and got.tobytes() == old.tobytes()


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
    basis = PeriodicBasis(grid32)
    for ax, ki in enumerate(k):
        assert np.allclose(basis.derivative(u.values, ax), 1j * ki * u.values, atol=1e-10)
    assert gradient_routes_defect(u, hv_norm_sq(u)) < 1e-11
    # a real field keeps only the real part of each derivative, which drops
    # the Nyquist mode; the Parseval route keeps it, so the routes part
    checkerboard = Field(grid32, np.cos(np.pi * (x + grid32.half_length) / grid32.spacing) * np.ones(grid32.shape))
    assert gradient_routes_defect(checkerboard, hv_norm_sq(checkerboard)) > 0.5


def _close(got, want):
    """got is want to 1e-14 of want's sup."""
    return np.abs(got - want).max() <= 1e-14 * np.abs(want).max()


def test_periodic_derivatives_match_the_full_transform_routes():
    # each axis's derivative, from one transform pair along that axis, is
    # within 1e-14 of its sup of the full-transform route: fftn and ifftn
    # for a complex field, rfftn and irfftn without the Nyquist plane for a
    # real one, which stays real
    grid = Grid(3, 16, 10.0)
    basis = PeriodicBasis(grid)
    rng = np.random.default_rng(16)
    f = rng.standard_normal(grid.shape)
    z = f + 1j * rng.standard_normal(grid.shape)
    fhat = scipy.fft.fftn(z)
    for ax in range(3):
        assert _close(basis.derivative(z, ax), scipy.fft.ifftn(1j * grid.freqs[ax] * fhat))
    xi = 1j * grid.freq_axis
    xi[8] = 0.0
    rhat = scipy.fft.rfftn(f)
    for ax in range(3):
        m = (xi[:9] if ax == 2 else xi).reshape([-1 if a == ax else 1 for a in range(3)])
        d = basis.derivative(f, ax)
        assert d.dtype == np.float64
        assert _close(d, scipy.fft.irfftn(m * rhat, f.shape))


def _octant_full_route(octant, u, ax):
    """The octant's derivative array (EvenOctant.derivative) from u's DCT-I on every axis:
    the idst and the Nyquist term along ax, then the inverse DCT-I along the others."""
    n, half, dim = octant.grid.points, octant.grid.points // 2, octant.dim
    plane = lambda s: tuple(s if a == ax else slice(None) for a in range(dim))
    c = scipy.fft.dctn(u, type=1)
    xi = octant.freq_axis[1:half].reshape([-1 if a == ax else 1 for a in range(dim)])
    d = np.zeros(c.shape, dtype=complex)
    d[plane(slice(1, half))] = scipy.fft.idst(-xi * c[plane(slice(1, half))], type=1, axis=ax)
    d[plane(half)] = (1j * (-1) ** half * octant.freq_axis[half] / n) * c[plane(half)]
    others = [a for a in range(dim) if a != ax]
    return scipy.fft.idctn(d, type=1, axes=others) if others else d


@pytest.mark.parametrize("dim, n", [(3, 16), (3, 32), (3, 100), (1, 4), (1, 16), (2, 16), (2, 32)],
                         ids=["16", "32", "100", "1d-4", "1d-16", "2d-16", "2d-32"])
def test_one_axis_derivatives_match_the_full_transform_routes(dim, n):
    # a derivative from one transform pair along its axis is the route
    # through the transform of the whole grid to 1e-14 of its sup, on both
    # bases, complex and real: on the full grid ifftn(i xi fftn(u)), on the
    # octant the derivative array from the DCT-I on every axis, which its
    # one matrix pass along ax also matches in 1-D and 2-D
    grid = Grid(dim, n, 10.0)
    rng = np.random.default_rng(n)
    periodic, octant = PeriodicBasis(grid), EvenOctant(grid)
    f = rng.standard_normal(grid.shape)
    g = rng.standard_normal(octant.shape)
    for u, v in ((f, g), (f + 1j * rng.standard_normal(f.shape), g + 1j * rng.standard_normal(g.shape))):
        fhat = scipy.fft.fftn(u)
        for ax in range(dim):
            # a real u's derivative is the complex route's real part
            want = scipy.fft.ifftn(1j * grid.freqs[ax] * fhat)
            assert _close(periodic.derivative(u, ax), want.real if np.isrealobj(u) else want)
            assert _close(octant.derivative(v, ax), _octant_full_route(octant, v, ax))
            # the octant's axis_lines are its one-axis DCT-I's power and its derivative's conjugate product
            power, line = octant.axis_lines(v, ax, True)
            assert np.array_equal(power, octant.line(abs_sq(octant.forward(v, axes=(ax,))), ax))
            assert np.array_equal(line, octant.line(octant.derivative(v, ax).conj() * v, ax))


@pytest.mark.parametrize("n", [16, 20, 32])
def test_real_gradient_is_the_real_part_of_the_complex_route(n):
    # a real field goes through rfft/irfft along the axis, which must drop
    # the axis's Nyquist plane as taking the real part of the complex route
    # does.  The pair is taken a slab of planes at a time (n = 20 leaves
    # slabs of 2), which are the whole field's pair bit for bit and count
    # once each
    grid = Grid(3, n, 10.0)
    f = np.random.default_rng(n).standard_normal(grid.shape)
    fhat = np.fft.fftn(f)
    basis = PeriodicBasis(grid)
    spectral.tally.clear()
    for ax in range(3):
        ref = np.fft.ifftn(1j * grid.freqs[ax] * fhat).real
        d = basis.derivative(f, ax)
        assert d.dtype == np.float64
        assert np.abs(d - ref).max() <= 1e-14 * np.abs(ref).max()
        ik = 1j * grid.freqs[ax][(slice(None),) * ax + (slice(0, n // 2 + 1),)]
        assert np.array_equal(d, scipy.fft.irfft(scipy.fft.rfft(f, axis=ax) * ik, n, axis=ax))
    assert spectral.tally == {"rfft": 3, "irfft": 3}


@pytest.mark.parametrize("shape", [(7, 8, 9), (6,), (5, 5), (4, 6, 8)])
def test_is_even_matches_its_definition(shape):
    # a[j] == a[(n - j) % n] along every axis, on odd, 1-D, 2-D and non-cubic shapes
    def mirrored(a, ax):
        return np.take(a, -np.arange(a.shape[ax]) % a.shape[ax], axis=ax)

    a = np.random.default_rng(len(shape)).standard_normal(shape)
    even = a
    for ax in range(a.ndim):
        even = even + mirrored(even, ax)
    # index 0 on every axis is its own mirror: only a NaN there breaks it
    corner_nan = even.copy()
    corner_nan.flat[0] = np.nan
    for arr, expected in ((even, True), (a, False), (corner_nan, False)):
        assert all(np.array_equal(arr, mirrored(arr, ax)) for ax in range(arr.ndim)) == expected
        assert is_even(arr) == expected


def test_riesz_convolve_gaussian_origin(grid48):
    """(|x|^-gamma * e^{-|x|^2}) at 0 against scalar radial quadrature."""
    assert riesz_origin_defect(grid48, GAMMA) < 1e-4
    # a box of half-width 2 truncates the Gaussian and lets the images in
    assert riesz_origin_defect(Grid(3, 32, 2.0), GAMMA) > 1e-4


def test_riesz_origin_gate_expands_nothing():
    """The gate reads the convolution at the origin on the octant it ran on, so
    above its entry it holds the real g0 and real octant arrays: 1.0 complex
    grid array at 32^3, where a complex g0 held 1.57 and expanding the
    convolution to the whole grid to read one point held 2.53."""
    grid = Grid(3, 32, 10.0)
    riesz_origin_defect(grid, GAMMA)  # fills the grid's caches
    assert traced_peak(lambda: riesz_origin_defect(grid, GAMMA), grid) <= 1.1


@pytest.mark.parametrize("dim, gamma", [(3, 2.5), (3, 2.2), (2, 1.5)])
def test_riesz_origin_reference_is_the_radial_quadrature(monkeypatch, dim, gamma):
    """The gate's closed-form reference, Gamma((d - g)/2) / 2, is quad of r^{d-1-g} e^{-r^2} over (0, inf).

    The grid convolution is replaced by the quadrature value, so the defect
    reads only the gap between the gate's reference and quad."""
    area = 2.0 * np.pi ** (dim / 2.0) / gamma_fn(dim / 2.0)
    ref, _err = quad(lambda r: r ** (dim - 1.0 - gamma) * math.exp(-r * r), 0.0, np.inf)
    monkeypatch.setattr(PeriodicBasis, "convolve", lambda self, rho, _g: np.full(rho.shape, area * ref))
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


def test_convolve_is_symmetric_positive(grid32):
    # kernel is even and positive, so a positive density gives a positive result
    x, y, z = grid32.coords
    conv = PeriodicBasis(grid32).convolve(np.exp(-((x - 1) ** 2 + y**2 + z**2)), GAMMA)
    assert conv.min() > 0.0
    # on the full grid, so that the mirror symmetry is not the octant's expansion
    c = PeriodicBasis(grid32).convolve(np.exp(-grid32.r_sq), GAMMA)
    assert np.allclose(c[1:, 1:, 1:], c[1:, 1:, 1:][::-1, ::-1, ::-1], atol=1e-12 * c.max())


def test_convolve_takes_the_octant_for_even_input(grid32):
    # an even input, real or complex, takes the octant, where it is convolved
    # as DCT-Is and, expanded, matches the periodic route to 1e-14; a shifted
    # bump is not even and stays on the full grid, bit for bit
    periodic = PeriodicBasis(grid32)
    bump = np.exp(-grid32.r_sq / 3.0)
    for gamma in (1.0, GAMMA):
        for values in (bump, (0.4 - 0.7j) * bump):
            want = periodic.apply(values, grid32.riesz_multiplier(gamma))
            basis = transform_basis(grid32, values)
            spectral.tally.clear()
            got = basis.expand(basis.convolve(basis.take(values), gamma))
            assert basis.name == "even_octant"
            assert set(spectral.tally) == {"octant_forward", "octant_inverse"}
            assert got.dtype == want.dtype
            assert np.abs(got - want).max() <= 1e-14 * np.abs(want).max()
    shifted = np.roll(bump, 3, axis=1)
    want = periodic.apply(shifted, grid32.riesz_multiplier(GAMMA))
    basis = transform_basis(grid32, shifted)
    spectral.tally.clear()
    got = basis.expand(basis.convolve(basis.take(shifted), GAMMA))
    assert basis.name == "periodic" and set(spectral.tally) == {"rfftn", "irfftn"}
    assert got.tobytes() == want.tobytes()


@pytest.mark.parametrize("gamma", [1.0, 2.5])
def test_octant_multiplier_is_the_full_multipliers_slice(gamma):
    # the octant's multiplier is built from its own |xi|^2, without the full
    # grid's, and equals the full multiplier's slice bit for bit
    grid = Grid(3, 16, 7.0)
    m = EvenOctant(grid).multiplier(gamma)
    assert ("riesz", "periodic", gamma) not in grid._cache and grid._cache[("riesz", "even_octant", gamma)] is m
    assert m.tobytes() == grid.riesz_multiplier(gamma)[(slice(0, 9),) * 3].tobytes()


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


def test_outer_shell_fraction_gaussian(grid48):
    def outer_shell(width_sq):
        return shell_fraction(PeriodicBasis(grid48), np.exp(-grid48.r_sq / width_sq), 0.9 * grid48.half_length)

    frac = outer_shell(1.2**2)
    # mass beyond 0.9L for a tight Gaussian: erfc-level tiny
    assert frac < 1e-12
    assert outer_shell(25.0) > frac


def test_recenter_moves_center_of_mass(grid32):
    x, y, z = grid32.coords
    u = Field(grid32, np.exp(-((x - 1.25) ** 2 + (y + 0.625) ** 2 + z**2)))
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
    # frozen: a grid's cached arrays can never go stale under a changed field
    assert a.r_sq is a.r_sq
    with pytest.raises(dataclasses.FrozenInstanceError):
        a.points = 48


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
