"""Conserved quantities and virial functionals for the Hartree flow.

Conventions: mass M = int |u|^2; interaction P = int (|x|^{-g} * |u|^2)|u|^2;
form norm ||u||_{HV}^2 = ||grad u||^2 + int V|u|^2; energy
E = 1/2 ||u||_{HV}^2 - 1/4 P; variance I = int |x|^2 |u|^2 with
I' = 4 Im int conj(u) x.grad u and
I'' = 8 ||u||_{HV}^2 - 2g P - e,   e = 4 int (2V + x.grad V)|u|^2.

Each quantity is computed by one function, which takes the shared inputs
rho = |u|^2 and u-hat = fftn(u) rather than recomputing them:

    M, int V|u|^2, I    _integral(grid, rho, weight)   weight none, V, |x|^2
    e                   _e_term(grid, rho, 2V + x.grad V)
    ||grad u||^2        _grad_sq(grid, |u-hat|^2)
    P                   _p(grid, rho, gamma)
    I'                  _virial_first(u, u-hat)
    E, I''              take_snapshot
    Weinstein quotient  FunctionalSnapshot.weinstein
    Cauchy-Schwarz gap  FunctionalSnapshot.cauchy_schwarz_gap

take_snapshot evaluates all of them from one rho and one fftn(u); every
caller that wants one of these quantities reads it off a snapshot.  The two
single-quantity calls, mass and hv_norm_sq, exist for the self-consistent
omega loop and the Parseval gate, which need nothing else.
"""

from __future__ import annotations

import math
from dataclasses import asdict, dataclass

from .spectral import Field, Grid, abs_sq, fftn, ifftn, riesz_convolve

CSV_COLUMNS = (
    "t",
    "mass",
    "energy",
    "grad_sq",
    "hv_sq",
    "p_value",
    "variance_I",
    "virial_I1",
    "virial_I2",
    "e_term",
    "z",
)


def _integral(grid: Grid, rho, weight=None) -> float:
    """int weight |u|^2 by box quadrature; no weight gives the mass."""
    return float((rho if weight is None else weight * rho).sum() * grid.cell_volume)


def _e_term(grid: Grid, rho, virial_weight) -> float:
    return 4.0 * _integral(grid, rho, virial_weight)


def _grad_sq(grid: Grid, power) -> float:
    """||grad u||^2 via Parseval from the power spectrum |u-hat|^2."""
    return float((grid.k_sq * power).sum() * (grid.cell_volume / grid.points**grid.dim))


def _p(grid: Grid, rho, gamma: float) -> float:
    return _integral(grid, rho, riesz_convolve(Field(grid, rho), gamma).values)


def _virial_first(u: Field, uhat) -> float:
    g = u.grid
    acc = 0.0
    uc = u.values.conj()
    for x, xi in zip(g.coords, g.freqs):
        du = ifftn(1j * xi * uhat, overwrite_x=True)
        acc += float((uc * x * du).imag.sum())
    return acc * (4.0 * g.cell_volume)


def mass(u: Field) -> float:
    return _integral(u.grid, abs_sq(u.values))


def hv_norm_sq(u: Field, v: Field | None = None) -> float:
    """||u||_{HV}^2 = ||grad u||^2 (Parseval) + int V|u|^2."""
    out = _grad_sq(u.grid, abs_sq(fftn(u.values)))
    if v is not None:
        out += _integral(u.grid, abs_sq(u.values), v.values)
    return out


@dataclass
class FunctionalSnapshot:
    """All monitored functionals of one state at one time."""

    time: float
    mass: float
    energy: float
    grad_sq: float
    hv_sq: float
    p_value: float
    variance_I: float
    virial_I1: float
    virial_I2: float
    e_term: float
    e_term_approximate: bool = False

    @property
    def z(self) -> float:
        return math.sqrt(max(self.variance_I, 0.0))

    def csv_row(self) -> list:
        return [self.time, *(getattr(self, c) for c in CSV_COLUMNS[1:])]

    def to_dict(self) -> dict:
        return {**asdict(self), "z": self.z}

    def weinstein(self, gamma: float) -> float:
        """W = P / (||u||_{HV}^gamma ||u||_{L2}^{4-gamma}); scale and phase invariant."""
        if self.mass <= 0 or self.hv_sq <= 0:
            raise ValueError("weinstein quotient needs positive mass and form norm")
        return self.p_value / (self.hv_sq ** (gamma / 2.0) * self.mass ** ((4.0 - gamma) / 2.0))

    def cauchy_schwarz_gap(self, gamma: float, c_q: float) -> float:
        """I * (||u||_{HV}^2 - P^{2/g} / (c_q M^{(4-g)/g})) - (I'/4)^2, nonnegative by interpolation.

        c_q is the sharp constant C_Q = C_GN^{2/gamma} built from the ground
        state; the middle factor is nonnegative by the sharp inequality, and
        the whole expression is the discriminant-type gap behind the variance
        convexity estimates.
        """
        m, p = self.mass, self.p_value
        return self.variance_I * (
            self.hv_sq - p ** (2.0 / gamma) / (c_q * m ** ((4.0 - gamma) / gamma))
        ) - (self.virial_I1 / 4.0) ** 2


def take_snapshot(
    u: Field,
    t: float,
    v: Field | None,
    virial_weight: Field | None,
    gamma: float,
    e_term_approximate: bool = False,
    uhat=None,
) -> FunctionalSnapshot:
    """Evaluate every monitored functional from one |u|^2 and one fftn(u).

    uhat is fftn(u.values) when the caller already holds it."""
    g = u.grid
    rho = abs_sq(u.values)
    if uhat is None:
        uhat = fftn(u.values)
    gs = _grad_sq(g, abs_sq(uhat))
    i1 = _virial_first(u, uhat)
    p = _p(g, rho, gamma)
    vt = _integral(g, rho, v.values) if v is not None else 0.0
    e = _e_term(g, rho, virial_weight.values) if virial_weight is not None else 0.0
    hv = gs + vt
    return FunctionalSnapshot(
        time=t,
        mass=_integral(g, rho),
        energy=0.5 * hv - 0.25 * p,
        grad_sq=gs,
        hv_sq=hv,
        p_value=p,
        variance_I=_integral(g, rho, g.r_sq),
        virial_I1=i1,
        virial_I2=8.0 * hv - 2.0 * gamma * p - e,
        e_term=e,
        e_term_approximate=e_term_approximate,
    )
