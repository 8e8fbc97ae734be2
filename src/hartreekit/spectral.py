"""Periodic spectral grid and Fourier-side operators.

All fields live on a cubic box [-L, L)^d with n points per axis and periodic
boundary conditions; derivatives and nonlocal convolutions are diagonal in the
discrete Fourier basis with frequencies xi_k = pi*k/L.  The box is a surrogate
for R^d: every routine here assumes the data decays well inside the boundary,
and `shell_fraction` measures when that assumption is violated.
Every transform of the package is taken here: the periodic grid's through
scipy.fft, and an even field's octant (EvenOctant) takes its DCT-Is and its
derivatives as cached matrix products (_dct1) at every size.  Each one is
counted in tally, by name: a scipy.fft transform under its own name (_fft),
the octant's passes as octant_forward, octant_inverse and octant_derivative.
"""

from __future__ import annotations

import difflib
import math
from collections import Counter
from dataclasses import dataclass
from functools import cached_property, lru_cache, reduce

import numpy as np
import scipy.fft as sfft
from scipy.special import gamma as gamma_fn, gammaincc


# calls per kernel name since the last clear(); each run stage clears it at its
# start and writes it into its report as "transforms"
tally = Counter()


def _fft(name: str, *args, count: bool = True, **kwargs) -> np.ndarray:
    """scipy.fft's transform name applied to args, counted in tally.

    The name is looked up at each call, so a wrapper set on scipy.fft since
    import (bench/spans.py's) still sees every transform.  A transform taken
    a slab at a time passes count=False for each slab and counts itself once."""
    if count:
        tally[name] += 1
    return getattr(sfft, name)(*args, **kwargs)


# A full-grid pass that feeds a reduction takes its one-axis transforms a slab
# at a time: a block of planes across a second axis whose complex values fit
# in SLAB_BYTES, so that a slab's transform, its power and its derivative
# stay in a 2 MiB L2.  A 32^3 complex field is one slab, a 64^3 one eight.
# On a 2-vCPU Xeon VM with one FFT worker, repeated on one field, at 64^3
# I' with ||grad u||^2 took 14.7 ms in 8 slabs (15.0 in 4, 14.3 in 16)
# against 17.6 whole, and smooth_random_field 2.54 ms (2.59 in 4, 2.82 in
# 16) against 3.28; at 32^3 8 slabs took 2.32 and 0.67 ms against 1.78 and
# 0.35 in one.  So a byte budget, not a slab count, sets the blocks.
SLAB_BYTES = 512 << 10


def slabs(shape: tuple, across: int) -> list:
    """Index tuples of the blocks of planes across axis across of a complex array of shape,
    each within SLAB_BYTES; the last block may be short."""
    step = max(1, SLAB_BYTES * shape[across] // (16 * math.prod(shape)))
    return [(slice(None),) * across + (slice(i, i + step),) for i in range(0, shape[across], step)]


# overwrite_x=True lets a transform work in place in its input's memory; pass
# it only for a temporary that nothing reads afterwards.  Without it a complex
# input is copied and the copy transformed in place, which at 64^3 takes a
# fifth to a third less time than pocketfft's out-of-place path.  The result
# is bit-identical either way.  Every transform takes scipy.fft's worker
# count, which a run sets for its own duration with scipy.fft.set_workers.
def _in_place(a: np.ndarray, overwrite_x: bool):
    return (a, overwrite_x) if overwrite_x or not np.iscomplexobj(a) else (a.copy(), True)


def fftn(a: np.ndarray, overwrite_x: bool = False) -> np.ndarray:
    a, overwrite_x = _in_place(a, overwrite_x)
    return _fft("fftn", a, overwrite_x=overwrite_x)


def ifftn(a: np.ndarray, overwrite_x: bool = False) -> np.ndarray:
    a, overwrite_x = _in_place(a, overwrite_x)
    return _fft("ifftn", a, overwrite_x=overwrite_x)


@lru_cache(maxsize=64)
def epstein_zeta(s: float, dim: int) -> float:
    """Analytic continuation of sum_{n in Z^dim, n != 0} |n|^{-s}, 0 < s < dim.

    Riemann-splitting (incomplete gamma) representation: with q = |n|^2,

        xi(s) = -2/s - 2/(dim-s)
                + sum' [ (pi q)^{-s/2} Gamma(s/2, pi q)
                       + (pi q)^{-(dim-s)/2} Gamma((dim-s)/2, pi q) ]
        Z(s)  = pi^{s/2} xi(s) / Gamma(s/2)

    Terms decay like exp(-pi q) so a small enumeration radius suffices for
    double precision.  Z(s) < 0 throughout 0 < s < dim; Z_3(1) is the classic
    simple-cubic jellium constant -2.8372974794...
    """
    if not 0.0 < s < dim:
        raise ValueError(f"epstein_zeta defined here for 0 < s < dim, got s={s}, dim={dim}")
    nmax = 6
    ax = np.arange(-nmax, nmax + 1)
    grids = np.meshgrid(*([ax] * dim), indexing="ij")
    q = sum(g.astype(float) ** 2 for g in grids).ravel()
    q = q[q > 0]
    a1, a2 = s / 2.0, (dim - s) / 2.0
    piq = np.pi * q
    terms = piq ** (-a1) * gammaincc(a1, piq) * gamma_fn(a1) + piq ** (-a2) * gammaincc(a2, piq) * gamma_fn(a2)
    xi = -2.0 / s - 2.0 / (dim - s) + float(terms.sum())
    return float(np.pi ** (s / 2.0) / gamma_fn(s / 2.0) * xi)


def riesz_constant(dim: int, gamma_exp: float) -> float:
    """Fourier constant c with (|x|^{-gamma})^ = c |xi|^{gamma-dim}."""
    return float(
        np.pi ** (dim / 2.0)
        * 2.0 ** (dim - gamma_exp)
        * gamma_fn((dim - gamma_exp) / 2.0)
        / gamma_fn(gamma_exp / 2.0)
    )


def suggest(name: str, options) -> str:
    """The hint " (did you mean 'x'?)" for the option closest to a misspelt name, or ""."""
    close = difflib.get_close_matches(name, options, n=1)
    return f" (did you mean '{close[0]}'?)" if close else ""


def _check_section(checks, prefix: str = "") -> None:
    """Raise one ValueError listing every failed check of a config section's fields, in order, joined by "; ".

    A check is (key, value, rule), which a None value passes: "positive" is
    `0 < value < inf`, so that NaN and inf fail too, "finite" is
    math.isfinite, and a tuple admits its values, naming the closest one on
    failure.  Any other check is (ok, problem).  prefix starts each problem."""
    problems = []
    for check in checks:
        if len(check) == 3:
            key, x, rule = check
            if x is None:
                continue
            if rule == "positive":
                check = (0 < x < math.inf, f"{key} must be positive and finite, got {x}")
            elif rule == "finite":
                check = (math.isfinite(x), f"{key} must be finite, got {x}")
            elif x not in rule:
                check = (False, f"{key} '{x}' is not one of {'/'.join(rule)}{suggest(x, rule)}")
            else:
                continue
        if not check[0]:
            problems.append(prefix + check[1])
    if problems:
        raise ValueError("; ".join(problems))


@dataclass(frozen=True)
class Grid:
    """Uniform periodic grid on [-half_length, half_length)^dim.

    Frozen, so the arrays derived from the fields are computed once, on first
    use, and stay valid: the coordinate and frequency arrays are cached
    properties, and the arrays that also take a parameter (Riesz multipliers,
    octant slices, shell masks) go in _cache.  The fields are the [grid]
    config keys.
    """

    dim: int = 3
    points: int = 64
    half_length: float = 10.0

    def __post_init__(self):
        _check_section([
            (self.dim >= 1, f"dim must be >= 1, got {self.dim}"),
            (self.points >= 4 and self.points % 2 == 0, f"points must be an even integer >= 4, got {self.points}"),
            ("half_length", self.half_length, "positive"),
        ])

    @cached_property
    def _cache(self) -> dict:
        return {}

    @property
    def spacing(self) -> float:
        return 2.0 * self.half_length / self.points

    @property
    def shape(self) -> tuple:
        return (self.points,) * self.dim

    @property
    def cell_volume(self) -> float:
        return self.spacing ** self.dim

    @cached_property
    def axis(self) -> np.ndarray:
        """1-D coordinate axis x_j = h (j - n/2), from -L; exactly antisymmetric, x_{n-j} == -x_j, at every h."""
        return self.spacing * (np.arange(self.points) - self.points // 2)

    @cached_property
    def freq_axis(self) -> np.ndarray:
        """1-D frequency axis in fftfreq layout, xi_k = pi*k/L."""
        return 2.0 * np.pi * sfft.fftfreq(self.points, d=self.spacing)

    @cached_property
    def coords(self) -> tuple:
        """Broadcastable (sparse) coordinate arrays, one per axis."""
        return tuple(np.meshgrid(*([self.axis] * self.dim), indexing="ij", sparse=True))

    @cached_property
    def freqs(self) -> tuple:
        """Broadcastable (sparse) frequency arrays, one per axis."""
        return tuple(np.meshgrid(*([self.freq_axis] * self.dim), indexing="ij", sparse=True))

    @cached_property
    def r_sq(self) -> np.ndarray:
        """|x|^2 on the full grid."""
        return sum(c ** 2 for c in self.coords)

    @cached_property
    def k_sq(self) -> np.ndarray:
        """|xi|^2 on the full grid (fftfreq layout)."""
        return sum(f ** 2 for f in self.freqs)

    def riesz_multiplier(self, gamma_exp: float) -> np.ndarray:
        """Fourier multiplier of |x|^{-gamma_exp} convolution on the full grid (PeriodicBasis.multiplier)."""
        return PeriodicBasis(self).multiplier(gamma_exp)

    def riesz_symbol(self, k_sq: np.ndarray, gamma_exp: float) -> np.ndarray:
        """The Riesz multiplier c(d,g) |xi|^{g-d} on the modes whose |xi|^2 is k_sq, mode 0 first; not cached.

        The singular xi = 0 entry is replaced by the renormalized lattice
        limit -c(d,g) (2pi/a)^{g-d} Z_d(d-g) (a = box edge), which cancels the
        leading periodization bias for smooth localized sources: the periodic
        result then matches the free-space potential to the order of the
        image-tail terms.  Each entry depends only on its own |xi|^2, so the
        multiplier on a subset of the modes (EvenOctant's) is built without
        the full grid's, and equals its slice bit for bit."""
        if not 0.0 < gamma_exp < self.dim:
            raise ValueError(f"riesz kernel needs 0 < gamma_exp < dim, got {gamma_exp}")
        c = riesz_constant(self.dim, gamma_exp)
        with np.errstate(divide="ignore"):
            m = c * k_sq ** ((gamma_exp - self.dim) / 2.0)
        edge = 2.0 * self.half_length
        m[(0,) * self.dim] = -c * (2.0 * np.pi / edge) ** (gamma_exp - self.dim) * epstein_zeta(
            self.dim - gamma_exp, self.dim
        )
        return m


@dataclass
class Field:
    """Array of samples on a Grid."""

    grid: Grid
    values: np.ndarray

    def __post_init__(self):
        self.values = np.asarray(self.values)
        if self.values.shape != self.grid.shape:
            raise ValueError(f"values shape {self.values.shape} != grid shape {self.grid.shape}")


def abs_sq(a: np.ndarray, overwrite_x: bool = False) -> np.ndarray:
    """|a|^2 as a real array: the density of samples, the power spectrum of a transform.

    A real a gives a * a, which is the complex formula's a * a + 0 * 0 bit
    for bit, without a zero imaginary part to square.  With overwrite_x, a
    complex a is a temporary whose memory takes the result: its float view
    is squared and each entry's two squares are added into its real part,
    which is returned as a strided view, the same sums bit for bit with no
    temporary the size of a."""
    if np.isrealobj(a):
        return a * a
    if overwrite_x:
        f = a.view(np.float64).reshape(a.shape + (2,))
        f *= f
        return np.add(f[..., 0], f[..., 1], out=f[..., 0])
    return a.real * a.real + a.imag * a.imag


class PeriodicBasis:
    """The full periodic grid, whose state is carried as fftn(u).

    Everything that reads a state reads it through a basis.  take and expand
    carry a grid field to the basis's points and back, forward and inverse
    transform there, from_spectrum reads a field's coefficients off its
    fftn over the whole grid, and apply multiplies by a multiplier given on
    the basis's modes (k_sq, or the Riesz multiplier(gamma)), or for a real
    field on the modes it reads (helmholtz's symbol); convolve is the
    Riesz convolution of a real density.  derivative differentiates a field
    on the points along one axis, here by one transform pair along it, and
    takes a real field through real transforms and gives it back real.
    weigh multiplies by the Parseval weights, so that weigh(a).sum() over
    the points or the modes is the sum over the whole grid, and line sums
    weigh(a) down to one axis; axis_lines gives a complex field's lines of
    conj(d_ax u) u and of its transform's power along one axis, here a slab
    at a time.  norm_sq is the weighted squared norm, by Parseval n^d times
    the grid's for coefficients.  Here take, expand and weigh are the
    identity."""

    name = "periodic"
    # one axis's points and modes, as indices of the grid's
    _points = _modes = slice(None)

    def __init__(self, grid: Grid):
        self.grid = grid
        self.dim = grid.dim
        self.freq_axis = grid.freq_axis[self._modes]
        self.shape = self.freq_axis.shape * grid.dim
        # the sparse coordinates, |x|^2 on the points and |xi|^2 on the modes
        self.coords, self.r_sq, self.k_sq = grid.coords, grid.r_sq, grid.k_sq

    def multiplier(self, gamma_exp: float) -> np.ndarray:
        """The Riesz multiplier of gamma_exp on this basis's modes (Grid.riesz_symbol), cached by basis and gamma."""
        key = ("riesz", self.name, gamma_exp)
        if key not in self.grid._cache:
            self.grid._cache[key] = self.grid.riesz_symbol(self.k_sq, gamma_exp)
        return self.grid._cache[key]

    def helmholtz(self, omega_sq: float) -> np.ndarray:
        """|xi|^2 + omega_sq, the symbol of -Lap + omega^2, on the modes apply reads for a real field.

        On the periodic grid that is the half spectrum, so the symbol takes
        half a grid array, not a whole one; the octant's modes are all read."""
        return self.k_sq[..., : self.grid.points // 2 + 1] + omega_sq

    def take(self, a: np.ndarray) -> np.ndarray:
        return a

    def expand(self, a: np.ndarray) -> np.ndarray:
        return a

    def weigh(self, a: np.ndarray) -> np.ndarray:
        return a

    def forward(self, a: np.ndarray, overwrite_x: bool = False) -> np.ndarray:
        return fftn(a, overwrite_x)

    def inverse(self, c: np.ndarray, overwrite_x: bool = False) -> np.ndarray:
        return ifftn(c, overwrite_x)

    def from_spectrum(self, spectrum: np.ndarray) -> np.ndarray:
        """The coefficients of the field whose fftn over the grid is spectrum: here spectrum itself."""
        return spectrum

    def apply(self, a: np.ndarray, m: np.ndarray, overwrite_x: bool = False) -> np.ndarray:
        """The multiplier m applied to a.

        A real a goes through rfftn/irfftn and comes back real, which takes m
        to be even in xi (so the result is real); the half spectrum is the
        first n/2 + 1 entries of m along the last axis, so m may be given on
        the half spectrum alone.  Neither route here
        reads overwrite_x: the first transform always takes new memory.
        EvenOctant.apply reads it, to let a temporary a's memory be reused."""
        if np.isrealobj(a):
            half = _fft("rfftn", a)
            half *= m[..., : a.shape[-1] // 2 + 1]
            return _fft("irfftn", half, a.shape, overwrite_x=True)
        c = fftn(a)
        c *= m
        return ifftn(c, overwrite_x=True)

    def convolve(self, rho: np.ndarray, gamma_exp: float) -> np.ndarray:
        """|x|^{-gamma_exp} * rho on the basis's points, for a temporary rho, whose memory it may reuse.

        This is the package's one Riesz convolution, periodically aliased.
        The zero mode follows the renormalized lattice rule (Grid.riesz_symbol),
        so for a source well inside the box the result tracks the free-space
        potential, up to the periodic images and the source's far tail."""
        return self.apply(rho, self.multiplier(gamma_exp), overwrite_x=True)

    def derivative(self, u: np.ndarray, ax: int) -> np.ndarray:
        """The spectral derivative along axis ax of the field whose points are u, by one transform pair along ax.

        A real u goes through rfft and irfft along ax and comes back real, the
        complex route's real part: irfft reads its input as a real line's half
        spectrum and drops i xi times the Nyquist mode, imaginary for a real
        u.  That pair is taken an eighth of the planes across another axis at
        a time and written into one output, so no half spectrum of the whole
        field is held beside it; each line's transform is the same, and the
        pair is counted once.  A complex u's pair is taken in one copy of u.
        A basis may return another array that pairs with x_ax and a field on
        its points to the same sum (EvenOctant.derivative); this one returns
        the derivative itself."""
        along = [-1 if a == ax else 1 for a in range(self.dim)]  # a line's shape along ax
        if np.isrealobj(u):
            n = u.shape[ax]
            ik = (1j * self.freq_axis[: n // 2 + 1]).reshape(along)
            out = np.empty(u.shape)
            across = int(ax == 0 and self.dim > 1)  # the slabs' axis, ax itself only for a line
            step = n if across == ax else max(1, u.shape[across] // 8)
            for i in range(0, u.shape[across], step):
                slab = (slice(None),) * across + (slice(i, i + step),)
                half = _fft("rfft", u[slab], axis=ax, count=False)
                half *= ik
                out[slab] = _fft("irfft", half, n, axis=ax, overwrite_x=True, count=False)
            tally.update(("rfft", "irfft"))
            return out
        a, overwrite_x = _in_place(u, False)
        c = _fft("fft", a, axis=ax, overwrite_x=overwrite_x)
        c *= (1j * self.freq_axis).reshape(along)
        return _fft("ifft", c, axis=ax, overwrite_x=True)

    def line(self, a: np.ndarray, ax: int) -> np.ndarray:
        """weigh(a) summed over every axis but ax, one axis at a time from the last: a line along ax.

        Summing one axis at a time keeps each sum to at most n terms in a
        row, where numpy would add the n^(d-1) planes of all the other axes
        at once one after another."""
        a = self.weigh(a)
        for b in reversed(range(self.dim)):
            if b != ax:
                a = a.sum(axis=b)
        return a

    def axis_lines(self, u: np.ndarray, ax: int, power: bool = False) -> tuple:
        """For a complex u, the lines along ax (line) of |u's transform along ax|^2, with power, and of conj(d_ax u) u.

        On three or more axes both are taken a slab of planes across a third
        axis at a time (slabs): the slab's transform along ax, its power,
        and in the transform's memory derivative's pair and the conjugate
        product.  Each slab's terms are summed, as line sums them, over every
        axis but axis 0, ax and the slab's, and laid into that plane of sums,
        which line then reduces as it does the whole array's.  So the lines
        are the whole array's bit for bit and no transform of the whole grid
        is held; a grid of one or two axes is one slab.  The power's plane
        is added over axis 0 an eighth of its planes at a time and then the
        eighths in order, a two-level sum whose rounding grows with n/8 + 8
        terms, not n.  The pair is counted once.  Returns (power line or
        None, product line)."""
        across = int(ax == 0) if self.dim > 2 else None
        rest = [b for b in range(self.dim) if b not in (0, ax, across)]
        parts = [(slice(None),) * self.dim] if across is None else slabs(u.shape, across)
        plane = tuple(1 if b in rest else size for b, size in enumerate(u.shape))
        pw, prod = np.empty(plane) if power else None, np.empty(plane, complex)
        ik = (1j * self.freq_axis).reshape([-1 if b == ax else 1 for b in range(self.dim)])

        def lay(out, s, term):
            for b in reversed(rest):
                term = term.sum(axis=b, keepdims=True)
            out[s] = term

        for s in parts:
            a, overwrite_x = _in_place(u[s], False)
            c = _fft("fft", a, axis=ax, overwrite_x=overwrite_x, count=False)
            if power:
                lay(pw, s, abs_sq(c))
            c *= ik
            du = _fft("ifft", c, axis=ax, overwrite_x=True, count=False)
            np.conjugate(du, out=du)
            du *= u[s]
            lay(prod, s, du)
        tally.update(("fft", "ifft"))
        if power:
            n = len(u)
            step = n if ax == 0 else max(1, n // 8)  # along axis 0 the eighths' lines would lie end to end
            pw = sum(self.line(pw[i : i + step], ax) for i in range(0, n, step))
        return pw, self.line(prod, ax)

    def riesz_pairing(self, rho: np.ndarray, gamma_exp: float):
        """sum_xi m(xi) |rho-hat(xi)|^2 over the full spectrum, m the Riesz multiplier, from one real transform.

        This is n^d / h^d times int (|x|^{-gamma} * rho) rho by Parseval.
        rho is real and m even, so rfftn's half spectrum stands for the whole:
        each entry counts twice, except on the last axis's planes 0 and n/2,
        which are their own mirror images (Grid makes n even)."""
        power = abs_sq(_fft("rfftn", rho))
        power *= self.multiplier(gamma_exp)[..., : power.shape[-1]]
        return 2.0 * power.sum() - power[..., 0].sum() - power[..., -1].sum()

    def norm_sq(self, c: np.ndarray) -> float:
        return float(self.weigh(abs_sq(c)).sum())

    def norm(self, a: np.ndarray) -> float:
        return math.sqrt(self.norm_sq(a))


def _dct1(a: np.ndarray, matrix: np.ndarray, axes, overwrite_x: bool) -> np.ndarray:
    """matrix, m x m, applied along each of axes of the octant array a, as one GEMM per axis.

    Each of the d passes reads the contiguous array as an (m, R) matrix X
    whose rows are its first axis and writes the (R, m) matrix X^T matrix^T
    on an axis in axes, X^T itself, a transposing copy, on any other.
    Either way the first axis goes last, so d passes cycle the axes back
    into order, and a transform along some axes takes the GEMMs that one
    along every axis takes for them.  A complex a is read as its float64
    view, whose re/im index then leads, and is interleaved once at the end.
    These are the package's only BLAS products.  Each output entry is one K-sum of
    m terms, which OpenBLAS keeps whole on every thread count, since it
    splits the long R side (test_grid_sums_do_not_depend_on_blas_threads);
    the same product taken as matrix X, with the short side m as rows, moved
    in its last bits already at m = 33.  overwrite_x lets a's memory be the
    second of the two buffers the passes alternate between."""
    x = np.ascontiguousarray(a)
    buffers = [np.empty_like(x), x if overwrite_x else None]
    m = matrix.shape[0]

    def buffer(i):
        if buffers[i % 2] is None:
            buffers[1] = np.empty_like(x)
        return buffers[i % 2]

    # between the passes a complex x's memory holds floats in the cycled layout
    for i in range(x.ndim):
        out = buffer(i)
        xt, y = x.view(np.float64).reshape(m, -1).T, out.view(np.float64).reshape(-1, m)
        if i in axes:
            np.matmul(xt, matrix.T, out=y)
        else:
            y[...] = xt
        x = out
    if np.isrealobj(x):
        return x
    out = buffer(x.ndim)
    out.real, out.imag = x.view(np.float64).reshape((2,) + x.shape)
    return out


class EvenOctant(PeriodicBasis):
    """Fields even about the grid centre on every axis, carried on one octant as its DCT-I.

    Even means a[j] == a[(n - j) % n] along each axis.  The octant is the
    indices n/2, ..., n - 1, 0 of each axis (x = 0, h, ..., L - h, -L),
    (n/2 + 1)^d points, and its DCT-I is the field's DFT on modes 0, ..., n/2:
    fftn(a)[k] = (-1)^(k_1 + ... + k_d) dctn(take(a), type=1)[min(k, n - k)]
    (Martucci, IEEE Trans. Signal Process. 42 (1994) 1038-1051).  A point or
    mode 0 < m < n/2 stands for the two m and n - m of its axis, so the
    Parseval weights are 1, 2, ..., 2, 1 per axis, in space and in
    frequency.  Pointwise products and even multipliers keep a field even,
    so the Hartree flow with an even potential never leaves the octant.

    The DCT-I has scipy.fft's scaling (type=1, norm=None): the matrix
    C[k, j] = cos(pi k j / (m - 1)), columns 1 ... m - 2 doubled, whose
    inverse is C / (2 (m - 1)), and derivative takes a third matrix D along
    its axis.  _dct1 applies each along the axes asked for, as one GEMM per
    axis.  The matrices are built on first use and kept on the instance,
    which transform_basis keeps on the grid."""

    name = "even_octant"

    def __init__(self, grid: Grid):
        n, half = grid.points, grid.points // 2
        self._points = np.r_[half:n, 0]
        self._modes = slice(0, half + 1)
        super().__init__(grid)
        self._take = np.ix_(*[self._points] * self.dim)
        self._space = np.ix_(*[np.abs(np.arange(n) - half)] * self.dim)
        weight = np.full(half + 1, 2.0)
        weight[0] = weight[-1] = 1.0
        self._weight = reduce(np.multiply.outer, [weight] * self.dim)
        self.coords = tuple(np.meshgrid(*([grid.axis[self._points]] * self.dim), indexing="ij", sparse=True))
        self.r_sq = sum(c**2 for c in self.coords)
        self.k_sq = sum(f**2 for f in np.meshgrid(*([self.freq_axis] * self.dim), indexing="ij", sparse=True))

    def take(self, a):
        return a[self._take]

    def expand(self, a):
        return a[self._space]

    def weigh(self, a):
        return self._weight * a

    @cached_property
    def _matrices(self):
        """(C, C / (2 (m - 1)), D): the forward DCT-I, its inverse and the derivative's matrix.

        D takes an even field's points along one axis to derivative's array
        there: D = S diag(-xi) C / (m - 1) on the points 0 < p < n/2, S[p, k] =
        sin(pi p k / (m - 1)) on the modes 0 < k < n/2, which is the DST-I
        inverse of the odd modes; 0 at x = 0; and the Nyquist row
        (-1)^(n/2) xi_{n/2} C[n/2] / n at x = -L, which derivative turns
        imaginary.  Its sums are numpy reductions, so no transform or BLAS
        product is taken to build it."""
        n = self.grid.points
        m = n // 2 + 1
        k = np.arange(m)
        c = np.cos(np.pi / (m - 1) * (np.outer(k, k) % (2 * (m - 1))))
        c[:, 1:-1] *= 2.0
        xi = self.freq_axis
        s = np.sin(np.pi / (m - 1) * (np.outer(k, k[1:-1]) % (2 * (m - 1))))
        d = (s[:, :, None] * (-xi[1:-1, None] * c[1:-1])).sum(axis=1) / (m - 1)
        d[-1] = (-1) ** (m - 1) * xi[-1] / n * c[-1]
        return c, c / (2 * (m - 1)), d

    def forward(self, a, overwrite_x=False, axes=None):
        """The DCT-I along axes, every axis by default."""
        tally["octant_forward"] += 1
        return _dct1(a, self._matrices[0], range(self.dim) if axes is None else axes, overwrite_x)

    def inverse(self, c, overwrite_x=False):
        tally["octant_inverse"] += 1
        return _dct1(c, self._matrices[1], range(self.dim), overwrite_x)

    def from_spectrum(self, spectrum):
        """forward(take(a)) read off fftn(a): the modes 0, ..., n/2 of each axis, times (-1)^(k_1 + ... + k_d).

        That is Martucci's identity in the class docstring, read the other
        way.  The result is new memory, about 2^-d of spectrum's, so the
        caller may drop spectrum; a sign flip is exact, so it equals
        forward(take(a)) to the rounding of the two transforms."""
        sign = reduce(np.multiply.outer, [(-1.0) ** np.arange(self.shape[0])] * self.dim)
        return spectrum[(self._modes,) * self.dim] * sign

    def axis_lines(self, u, ax, power=False):
        # the octant's arrays are about 2^-d of the grid's, so each is formed at once
        p = self.line(abs_sq(self.forward(u, axes=(ax,))), ax) if power else None
        du = self.derivative(u, ax)
        np.conjugate(du, out=du)
        du *= u
        return p, self.line(du, ax)

    def apply(self, a, m, overwrite_x=False):
        c = self.forward(a, overwrite_x)
        c *= m
        return self.inverse(c, overwrite_x=True)

    def derivative(self, u, ax):
        """The odd part of the derivative, and the periodic grid's Nyquist term on the plane x_ax = -L.

        Along ax, the modes 0 < k < n/2 of an even field give an odd
        derivative, which is 0 at x = 0 and at x = -L.  The Nyquist mode
        k = n/2 gives the even term i xi_{n/2} c_{n/2} (-1)^p / n on point p,
        whose products with x_ax cancel in mirror pairs except on the plane
        x_ax = -L, which has no mirror.  So the array is that term there and
        the odd part elsewhere: paired with x_ax times an even field by the
        Parseval weights, it gives the periodic grid's sum.  It is one pass
        of the matrix D along ax on u's points (_matrices)."""
        tally["octant_derivative"] += 1
        d = _dct1(u, self._matrices[2], (ax,), False).astype(complex, copy=False)
        d[tuple(-1 if a == ax else slice(None) for a in range(self.dim))] *= 1j
        return d

    def riesz_pairing(self, rho, gamma_exp):
        power = abs_sq(self.forward(rho))
        power *= self.multiplier(gamma_exp)
        return self.weigh(power).sum()


def is_even(a: np.ndarray) -> bool:
    """a[j] == a[(n - j) % n] along every axis, exactly: a is even about the grid centre.

    Index 0 is its own mirror, so along each axis a[1:] is compared with its
    reverse, a[:0:-1], as views: no copy of the grid.  The point at index 0
    on every axis is in no comparison; it is compared with itself, which
    fails only for a NaN there."""
    whole = (slice(None),) * a.ndim
    halves = ((a[whole[:ax] + (slice(1, None),)], a[whole[:ax] + (slice(None, 0, -1),)]) for ax in range(a.ndim))
    return bool(a.flat[0] == a.flat[0]) and all(np.array_equal(p, q) for p, q in halves)


def transform_basis(grid: Grid, *arrays) -> PeriodicBasis:
    """EvenOctant when every array given is even (None stands for zero), PeriodicBasis otherwise.

    The grid keeps its one EvenOctant, with the DCT matrices it builds, in
    its _cache, so every caller on the grid shares them."""
    if not all(a is None or is_even(a) for a in arrays):
        return PeriodicBasis(grid)
    if "even_octant" not in grid._cache:
        grid._cache["even_octant"] = EvenOctant(grid)
    return grid._cache["even_octant"]


def shell_fraction(basis: PeriodicBasis, density: np.ndarray, cut: float, spectral: bool = False) -> float:
    """Share of the grid's sum(density) on the box shell where some |a_i| >= cut.

    a_i is the coordinate x_i, or with spectral=True the integer wave index
    k_i of the fftfreq layout, so the shell is a max-norm one in either space.
    The caller passes its own density on the basis's points or modes, which
    weigh carries to the whole grid; the mask is cached on the grid.
    """
    grid = basis.grid
    key = ("shell", cut, spectral, basis.name)
    mask = grid._cache.get(key)
    if mask is None:
        n = grid.points
        dist = np.abs(np.fft.fftfreq(n) * n)[basis._modes] if spectral else np.abs(grid.axis)[basis._points]
        mask = np.zeros(basis.shape, dtype=bool)
        for ax in range(grid.dim):
            shape = [1] * grid.dim
            shape[ax] = dist.size
            mask |= dist.reshape(shape) >= cut
        grid._cache[key] = mask
    density = basis.weigh(density)
    total = float(density.sum())
    if total == 0.0:
        return 0.0
    return float(density[mask].sum()) / total


def center_of_mass(f: Field) -> np.ndarray:
    """Mass-weighted mean position, one entry per axis."""
    w = abs_sq(f.values)
    total = float(w.sum())
    if total == 0.0:
        return np.zeros(f.grid.dim)
    return np.array([float((c * w).sum()) / total for c in f.grid.coords])


def recenter(f: Field) -> Field:
    """Shift the field by an integer lattice vector so the center of mass is nearest the origin.

    Lattice rolls are exact for all periodic spectral operators; no
    interpolation is introduced.
    """
    com = center_of_mass(f)
    shifts = [-int(round(c / f.grid.spacing)) for c in com]
    if all(s == 0 for s in shifts):
        return f
    return Field(f.grid, np.roll(f.values, shifts, axis=tuple(range(f.grid.dim))))
