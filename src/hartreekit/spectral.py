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
from functools import lru_cache

import numpy as np
import scipy.fft as sfft
from scipy.special import gamma as gamma_fn, gammaincc

_fft_workers = 1


def set_fft_workers(n: int) -> None:
    """Set the worker count used by all FFTs (fixed count keeps runs deterministic)."""
    global _fft_workers
    _fft_workers = max(1, int(n))


# overwrite_x=True lets a transform work in place in its input's memory, which
# is faster; pass it only for a temporary that nothing reads afterwards.  The
# result is bit-identical either way.
def fftn(a: np.ndarray, overwrite_x: bool = False) -> np.ndarray:
    return sfft.fftn(a, workers=_fft_workers, overwrite_x=overwrite_x)


def ifftn(a: np.ndarray, overwrite_x: bool = False) -> np.ndarray:
    return sfft.ifftn(a, workers=_fft_workers, overwrite_x=overwrite_x)


def rfftn(a: np.ndarray) -> np.ndarray:
    """Half spectrum of a real array: the first n/2 + 1 entries along the last axis."""
    return sfft.rfftn(a, workers=_fft_workers)


def apply_multiplier(a: np.ndarray, m: np.ndarray) -> np.ndarray:
    """ifftn(m * fftn(a)) for a multiplier m on the fftfreq grid.

    A real a goes through rfftn/irfftn and comes back real, which takes m to
    be even in xi (so the result is real); the half spectrum is the first
    n/2 + 1 entries of m along the last axis.
    """
    if np.isrealobj(a):
        half = m[..., : a.shape[-1] // 2 + 1] * rfftn(a)
        return sfft.irfftn(half, a.shape, workers=_fft_workers, overwrite_x=True)
    return ifftn(m * fftn(a), overwrite_x=True)


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
        """1-D coordinate axis x_j = -L + j*h."""
        if "axis" not in self._cache:
            self._cache["axis"] = -self.half_length + self.spacing * np.arange(self.points)
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
    """Spectral gradient, one Field per axis."""
    fhat = fftn(f.values)
    real_in = np.isrealobj(f.values)
    out = []
    for xi in f.grid.freqs:
        g = ifftn(1j * xi * fhat)
        out.append(Field(f.grid, g.real if real_in else g))
    return out


def riesz_convolve(f: Field, gamma_exp: float) -> Field:
    """Free-space Riesz potential (|x|^{-gamma_exp} * f), periodically aliased.

    The zero mode follows the renormalized lattice rule (see
    Grid.riesz_multiplier), so for sources well contained in the box the
    result tracks the free-space potential; residual error is set by the
    periodic images and the source's far tail.
    """
    return Field(f.grid, apply_multiplier(f.values, f.grid.riesz_multiplier(gamma_exp)))


def shell_fraction(grid: Grid, density: np.ndarray, cut: float, spectral: bool = False) -> float:
    """Share of sum(density) on the box shell where some |a_i| >= cut.

    a_i is the coordinate x_i, or with spectral=True the integer wave index
    k_i of the fftfreq layout, so the shell is a max-norm one in either space.
    The caller passes its own density; the mask is cached on the grid.
    """
    key = ("shell", cut, spectral)
    mask = grid._cache.get(key)
    if mask is None:
        n = grid.points
        dist = np.abs(np.fft.fftfreq(n) * n) if spectral else np.abs(grid.axis)
        mask = np.zeros(grid.shape, dtype=bool)
        for ax in range(grid.dim):
            shape = [1] * grid.dim
            shape[ax] = n
            mask |= dist.reshape(shape) >= cut
        grid._cache[key] = mask
    total = float(density.sum())
    if total == 0.0:
        return 0.0
    return float(density[mask].sum()) / total


def outer_shell_mass_fraction(f: Field, shell: float = 0.1) -> float:
    """Fraction of integral(|f|^2) carried by points with max_i |x_i| >= (1-shell)*L.

    The sup-norm shell matches the box geometry; small values certify the
    field is effectively compactly supported inside the box.
    """
    return shell_fraction(f.grid, abs_sq(f.values), (1.0 - shell) * f.grid.half_length)


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
