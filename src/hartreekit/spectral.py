"""Periodic spectral grid and Fourier-side operators.

All fields live on a cubic box [-L, L)^d with n points per axis and periodic
boundary conditions; derivatives and nonlocal convolutions are diagonal in the
discrete Fourier basis with frequencies xi_k = pi*k/L.  The box is a surrogate
for R^d: every routine here assumes the data decays well inside the boundary,
and `outer_shell_mass_fraction` quantifies when that assumption is violated.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache, reduce

import numpy as np
import scipy.fft as sfft
from scipy.special import gamma as gamma_fn, gammaincc

_fft_workers = 1


def set_fft_workers(n: int) -> None:
    """Set the worker count used by all FFTs (fixed count keeps runs deterministic)."""
    global _fft_workers
    _fft_workers = max(1, int(n))


# overwrite_x=True lets a transform work in place in its input's memory; pass
# it only for a temporary that nothing reads afterwards.  Without it a complex
# input is copied and the copy transformed in place, which at 64^3 takes a
# fifth to a third less time than pocketfft's out-of-place path.  The result
# is bit-identical either way.
def _in_place(a: np.ndarray, overwrite_x: bool):
    return (a, overwrite_x) if overwrite_x or not np.iscomplexobj(a) else (a.copy(), True)


def fftn(a: np.ndarray, overwrite_x: bool = False) -> np.ndarray:
    a, overwrite_x = _in_place(a, overwrite_x)
    return sfft.fftn(a, workers=_fft_workers, overwrite_x=overwrite_x)


def ifftn(a: np.ndarray, overwrite_x: bool = False) -> np.ndarray:
    a, overwrite_x = _in_place(a, overwrite_x)
    return sfft.ifftn(a, workers=_fft_workers, overwrite_x=overwrite_x)


def rfftn(a: np.ndarray) -> np.ndarray:
    """Half spectrum of a real array: the first n/2 + 1 entries along the last axis."""
    return sfft.rfftn(a, workers=_fft_workers)


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


@dataclass(eq=True)
class Grid:
    """Uniform periodic grid on [-half_length, half_length)^dim.

    Coordinate and frequency arrays are cached lazily; instances are treated
    as immutable after construction.  The fields are the [grid] config keys.
    """

    dim: int = 3
    points: int = 64
    half_length: float = 10.0

    def __post_init__(self):
        # written as `not 0 < x < inf` so that NaN and inf fail too; every problem is reported
        problems = []
        if self.dim < 1:
            problems.append(f"dim must be >= 1, got {self.dim}")
        if self.points < 4 or self.points % 2:
            problems.append(f"points must be an even integer >= 4, got {self.points}")
        if not 0 < self.half_length < math.inf:
            problems.append(f"half_length must be positive and finite, got {self.half_length}")
        if problems:
            raise ValueError("; ".join(problems))
        self._cache: dict = {}

    @property
    def spacing(self) -> float:
        return 2.0 * self.half_length / self.points

    @property
    def shape(self) -> tuple:
        return (self.points,) * self.dim

    @property
    def cell_volume(self) -> float:
        return self.spacing ** self.dim

    @property
    def axis(self) -> np.ndarray:
        """1-D coordinate axis x_j = h (j - n/2), from -L; exactly antisymmetric, x_{n-j} == -x_j, at every h."""
        if "axis" not in self._cache:
            self._cache["axis"] = self.spacing * (np.arange(self.points) - self.points // 2)
        return self._cache["axis"]

    @property
    def freq_axis(self) -> np.ndarray:
        """1-D frequency axis in fftfreq layout, xi_k = pi*k/L."""
        if "freq_axis" not in self._cache:
            self._cache["freq_axis"] = 2.0 * np.pi * sfft.fftfreq(self.points, d=self.spacing)
        return self._cache["freq_axis"]

    @property
    def coords(self) -> tuple:
        """Broadcastable (sparse) coordinate arrays, one per axis."""
        if "coords" not in self._cache:
            self._cache["coords"] = tuple(
                np.meshgrid(*([self.axis] * self.dim), indexing="ij", sparse=True)
            )
        return self._cache["coords"]

    @property
    def freqs(self) -> tuple:
        """Broadcastable (sparse) frequency arrays, one per axis."""
        if "freqs" not in self._cache:
            self._cache["freqs"] = tuple(
                np.meshgrid(*([self.freq_axis] * self.dim), indexing="ij", sparse=True)
            )
        return self._cache["freqs"]

    @property
    def r_sq(self) -> np.ndarray:
        """|x|^2 on the full grid."""
        if "r_sq" not in self._cache:
            self._cache["r_sq"] = sum(c ** 2 for c in self.coords)
        return self._cache["r_sq"]

    @property
    def k_sq(self) -> np.ndarray:
        """|xi|^2 on the full grid (fftfreq layout)."""
        if "k_sq" not in self._cache:
            self._cache["k_sq"] = sum(f ** 2 for f in self.freqs)
        return self._cache["k_sq"]

    def riesz_multiplier(self, gamma_exp: float) -> np.ndarray:
        """Fourier multiplier of |x|^{-gamma_exp} convolution on this grid.

        The singular xi = 0 entry is replaced by the renormalized lattice
        limit -c(d,g) (2pi/a)^{g-d} Z_d(d-g) (a = box edge), which cancels the
        leading periodization bias for smooth localized sources: the periodic
        result then matches the free-space potential to the order of the
        image-tail terms.
        """
        key = ("riesz", gamma_exp)
        if key not in self._cache:
            if not 0.0 < gamma_exp < self.dim:
                raise ValueError(f"riesz kernel needs 0 < gamma_exp < dim, got {gamma_exp}")
            c = riesz_constant(self.dim, gamma_exp)
            with np.errstate(divide="ignore"):
                m = c * self.k_sq ** ((gamma_exp - self.dim) / 2.0)
            edge = 2.0 * self.half_length
            zero_mode = -c * (2.0 * np.pi / edge) ** (gamma_exp - self.dim) * epstein_zeta(
                self.dim - gamma_exp, self.dim
            )
            m[(0,) * self.dim] = zero_mode
            self._cache[key] = m
        return self._cache[key]

    def field_from_function(self, fn) -> "Field":
        """Sample fn(*coords) on the grid."""
        return Field(self, np.asarray(fn(*self.coords), dtype=complex) + np.zeros(self.shape))

    def __eq__(self, other):
        return (
            isinstance(other, Grid)
            and self.dim == other.dim
            and self.points == other.points
            and self.half_length == other.half_length
        )

    def __hash__(self):
        return hash((self.dim, self.points, self.half_length))


@dataclass
class Field:
    """Array of samples on a Grid."""

    grid: Grid
    values: np.ndarray

    def __post_init__(self):
        self.values = np.asarray(self.values)
        if self.values.shape != self.grid.shape:
            raise ValueError(f"values shape {self.values.shape} != grid shape {self.grid.shape}")


def abs_sq(a: np.ndarray) -> np.ndarray:
    """|a|^2 as a real array: the density of samples, the power spectrum of a transform."""
    return a.real * a.real + a.imag * a.imag


def integrate(f: Field):
    """Box quadrature h^d * sum; spectrally accurate for smooth periodic data."""
    s = f.values.sum() * f.grid.cell_volume
    return float(s.real) if np.isrealobj(f.values) else complex(s)


def gradient(f: Field) -> list:
    """Spectral gradient, one Field per axis; real for a real f."""
    basis = PeriodicBasis(f.grid)
    fhat = fftn(f.values)
    grads = (basis.derivative(fhat, ax) for ax in range(f.grid.dim))
    return [Field(f.grid, g.real if np.isrealobj(f.values) else g) for g in grads]


def riesz_convolve(f: Field, gamma_exp: float) -> Field:
    """Free-space Riesz potential (|x|^{-gamma_exp} * f), periodically aliased.

    The zero mode follows the renormalized lattice rule (see
    Grid.riesz_multiplier), so for sources well contained in the box the
    result tracks the free-space potential; residual error is set by the
    periodic images and the source's far tail.
    """
    return Field(f.grid, PeriodicBasis(f.grid).apply(f.values, f.grid.riesz_multiplier(gamma_exp)))


class PeriodicBasis:
    """The full periodic grid, whose state is carried as fftn(u).

    Everything that reads a state reads it through a basis.  take and expand
    carry a grid field to the basis's points and back, forward and inverse
    transform there, and apply multiplies by a multiplier given on the
    basis's modes (k_sq, or the Riesz multiplier(gamma)); convolve is the
    Riesz convolution of a real density.  weigh multiplies by the Parseval
    weights, so that weigh(a).sum() over the points or the modes is the sum
    over the whole grid; norm_sq is the weighted squared norm, by Parseval
    n^d times the grid's for coefficients.  Here take, expand and weigh are
    the identity."""

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
        return self.grid.riesz_multiplier(gamma_exp)

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

    def apply(self, a: np.ndarray, m: np.ndarray, overwrite_x: bool = False) -> np.ndarray:
        """The multiplier m applied to a; overwrite_x lets it reuse a temporary a's memory.

        A real a goes through rfftn/irfftn and comes back real, which takes m
        to be even in xi (so the result is real); the half spectrum is the
        first n/2 + 1 entries of m along the last axis."""
        if np.isrealobj(a):
            half = m[..., : a.shape[-1] // 2 + 1] * rfftn(a)
            return sfft.irfftn(half, a.shape, workers=_fft_workers, overwrite_x=True)
        return ifftn(m * fftn(a), overwrite_x=True)

    def convolve(self, rho: np.ndarray, gamma_exp: float) -> np.ndarray:
        """|x|^{-gamma_exp} * rho for a temporary rho, whose memory it may reuse."""
        return self.apply(rho, self.multiplier(gamma_exp), overwrite_x=True)

    def derivative(self, c: np.ndarray, ax: int) -> np.ndarray:
        """The spectral derivative along axis ax of the field whose coefficients are c.

        A basis may return another array that pairs with x_ax and a field on
        its points to the same sum (EvenOctant.derivative); this one returns
        the derivative itself."""
        return ifftn(1j * self.grid.freqs[ax] * c, overwrite_x=True)

    def riesz_pairing(self, rho: np.ndarray, gamma_exp: float):
        """sum_xi m(xi) |rho-hat(xi)|^2 over the full spectrum, m the Riesz multiplier, from one real transform.

        This is n^d / h^d times int (|x|^{-gamma} * rho) rho by Parseval.
        rho is real and m even, so rfftn's half spectrum stands for the whole:
        each entry counts twice, except on the last axis's planes 0 and n/2,
        which are their own mirror images (Grid makes n even)."""
        power = abs_sq(rfftn(rho))
        power *= self.grid.riesz_multiplier(gamma_exp)[..., : power.shape[-1]]
        return 2.0 * power.sum() - power[..., 0].sum() - power[..., -1].sum()

    def norm_sq(self, c: np.ndarray) -> float:
        return np.vdot(c, c).real

    def norm(self, a: np.ndarray) -> float:
        return math.sqrt(self.norm_sq(a))


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
    so the Hartree flow with an even potential never leaves the octant."""

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

    def multiplier(self, gamma_exp):
        key = ("riesz_octant", gamma_exp)
        if key not in self.grid._cache:
            octant = (self._modes,) * self.dim
            self.grid._cache[key] = self.grid.riesz_multiplier(gamma_exp)[octant].copy()
        return self.grid._cache[key]

    def take(self, a):
        return a[self._take]

    def expand(self, a):
        return a[self._space]

    def weigh(self, a):
        return self._weight * a

    def forward(self, a, overwrite_x=False):
        return sfft.dctn(a, type=1, workers=_fft_workers, overwrite_x=overwrite_x)

    def inverse(self, c, overwrite_x=False):
        return sfft.idctn(c, type=1, workers=_fft_workers, overwrite_x=overwrite_x)

    def apply(self, a, m, overwrite_x=False):
        return self.inverse(m * self.forward(a, overwrite_x), overwrite_x=True)

    def derivative(self, c, ax):
        """The odd part of the derivative, and the periodic grid's Nyquist term on the plane x_ax = -L.

        Along ax, the modes 0 < k < n/2 of an even field give an odd
        derivative, -idst(xi_k c_k, type=1) on the points 0 < m < n/2, which
        is 0 at x = 0 and at x = -L.  The Nyquist mode k = n/2 gives the even
        term i xi_{n/2} c_{n/2} (-1)^m / n on point m, whose products with
        x_ax cancel in mirror pairs except on the plane x_ax = -L, which has
        no mirror.  So the array is that term there and the odd part elsewhere:
        paired with x_ax times an even field by the Parseval weights, it gives
        the periodic grid's sum.  idctn along the other axes takes it back to
        the points."""
        half = self.grid.points // 2

        def along(s):
            return tuple(s if a == ax else slice(None) for a in range(self.dim))

        inner = along(slice(1, half))
        xi = self.freq_axis[1:half].reshape([-1 if a == ax else 1 for a in range(self.dim)])
        d = np.zeros(c.shape, dtype=complex)
        d[inner] = sfft.idst(-xi * c[inner], type=1, axis=ax, workers=_fft_workers, overwrite_x=True)
        edge = along(half)
        d[edge] = (1j * (-1) ** half * self.freq_axis[half] / self.grid.points) * c[edge]
        others = tuple(a for a in range(self.dim) if a != ax)
        return sfft.idctn(d, type=1, axes=others, workers=_fft_workers, overwrite_x=True)

    def riesz_pairing(self, rho, gamma_exp):
        power = abs_sq(self.forward(rho))
        power *= self.multiplier(gamma_exp)
        return self.weigh(power).sum()

    def norm_sq(self, c):
        return float(self.weigh(abs_sq(c)).sum())


def is_even(a: np.ndarray) -> bool:
    """a[j] == a[(n - j) % n] along every axis, exactly: a is even about the grid centre."""
    return all(np.array_equal(a, np.take(a, -np.arange(n) % n, axis=ax)) for ax, n in enumerate(a.shape))


def transform_basis(grid: Grid, *arrays) -> PeriodicBasis:
    """EvenOctant when every array given is even (None stands for zero), PeriodicBasis otherwise."""
    even = all(a is None or is_even(a) for a in arrays)
    return EvenOctant(grid) if even else PeriodicBasis(grid)


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


def outer_shell_mass_fraction(f: Field, shell: float = 0.1) -> float:
    """Fraction of integral(|f|^2) carried by points with max_i |x_i| >= (1-shell)*L.

    The sup-norm shell matches the box geometry; small values certify the
    field is effectively compactly supported inside the box.
    """
    return shell_fraction(PeriodicBasis(f.grid), abs_sq(f.values), (1.0 - shell) * f.grid.half_length)


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
