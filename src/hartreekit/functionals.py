"""Conserved quantities and virial functionals for the Hartree flow.

Conventions: mass M = int |u|^2; interaction P = int (|x|^{-g} * |u|^2)|u|^2;
form norm ||u||_{HV}^2 = ||grad u||^2 + int V|u|^2; energy
E = 1/2 ||u||_{HV}^2 - 1/4 P; variance I = int |x|^2 |u|^2 with
I' = 4 Im int conj(u) x.grad u and
I'' = 8 ||u||_{HV}^2 - 2g P - e,   e = 4 int (2V + x.grad V)|u|^2.

Each quantity is computed by one function, which takes the shared inputs
rho = |u|^2 and u's points or transform, rather than recomputing them, and
reads them on a basis (spectral.PeriodicBasis): the full periodic grid, or
for even fields one octant with DCT-I coefficients, where every sum takes
the Parseval weights (spectral.EvenOctant):

    M, int V|u|^2, I    _integral(basis, rho, weight)   weight none, V, |x|^2
    e                   4 _integral(basis, rho, 2V + x.grad V)
    ||grad u||^2        _grad_sq(basis, |u-hat|^2), or per axis from the
                        power line of u's transform along that axis alone
    P                   _p(basis, rho, gamma)       one real transform of rho
    I'                  _virial_first(basis, u)     0 for a real u
    E, I''              take_snapshot
    Weinstein quotient  FunctionalSnapshot.weinstein
    Cauchy-Schwarz gap  FunctionalSnapshot.cauchy_schwarz_gap

take_snapshot evaluates all of them from one rho, and a caller that wants
several of these quantities reads them off a snapshot.  I' takes its
derivatives from u's points along each axis (basis.axis_lines): on the
full grid one fft and one ifft, on the octant one matrix pass
(EvenOctant.derivative).  Given u-hat, ||grad u||^2 is read off it;
without, off the power of the transforms along each axis alone, which
the full grid's derivatives reuse, so a full-grid snapshot of a complex
u costs 3 fft and 3 ifft (I', ||grad u||^2) and one rfftn (P), and an
octant one 3 one-axis DCT-Is more than with u-hat.  The full grid takes
each axis's pair in one copy of u and squares its power an eighth of the
planes at a time (spectral.eighths), so beside u it holds one one-axis
transform and an eighth of its power.  A real u has I' = 0 exactly and
takes no derivative: one forward transform of the basis for
||grad u||^2.  The two single-quantity calls, mass and hv_norm_sq, serve the validate gates that read only M,
||grad u||^2, int V|u|^2 or e (the last two through _integral) and would
otherwise pay for a whole snapshot.
"""

from __future__ import annotations

import math
from dataclasses import asdict, dataclass, fields

import numpy as np

from .spectral import Field, PeriodicBasis, abs_sq, fftn


def _integral(basis: PeriodicBasis, rho, weight=None) -> float:
    """int weight |u|^2 by box quadrature over the basis's points; no weight gives the mass."""
    return float(basis.weigh(rho if weight is None else weight * rho).sum() * basis.grid.cell_volume)


def _grad_sq(basis: PeriodicBasis, power, ax: int | None = None, overwrite_x: bool = False) -> float:
    """||grad u||^2 via Parseval from the power spectrum |u-hat|^2 on the basis's modes.

    With ax, ||d_ax u||^2 instead, from the power of u's transform along ax
    alone summed over the other axes with the weights (basis.axis_lines):
    the axis's xi^2 takes the place of k_sq, and its n points that of the
    grid's n^d.  With overwrite_x, power is a temporary whose memory takes
    the product with k_sq."""
    g = basis.grid
    if ax is not None:
        return float((basis.freq_axis**2 * power).sum() * (g.cell_volume / g.points))
    product = np.multiply(basis.k_sq, power, out=power if overwrite_x else None)
    return float(basis.weigh(product).sum() * (g.cell_volume / g.points**g.dim))


def _p(basis: PeriodicBasis, rho, gamma: float) -> float:
    """P = h^d / N sum_xi m(xi) |rho-hat(xi)|^2 by Parseval, m the Riesz multiplier, from one real transform."""
    g = basis.grid
    return float(basis.riesz_pairing(rho, gamma) * (g.cell_volume / g.points**g.dim))


def _virial_first(basis: PeriodicBasis, u, grad: bool = False) -> tuple:
    """I' = 4 Im sum_j int conj(u) x_j d_j u from u's points, each term one derivative along axis j.

    Each term is the line along j of conj(d_j u) u, the conjugate of the
    integrand, summed over the other axes (basis.axis_lines), whose
    imaginary part is weighted by x_j and subtracted.  That is the
    integrand's sum up to rounding: numpy's complex product may fuse a
    multiply-add, so the two orders can differ in the last bits.  With
    grad, ||grad u||^2 is read off the power of u's transform along each
    axis, which axis_lines takes with the derivative (_grad_sq), for a
    caller that holds no u-hat.  Returns (I', ||grad u||^2 or None)."""
    acc, gs = 0.0, 0.0 if grad else None
    for ax, x in enumerate(basis.coords):
        power, line = basis.axis_lines(u, ax, grad)
        if grad:
            gs += _grad_sq(basis, power, ax)
        acc -= (x.ravel() * line.imag).sum()
    return float(acc) * (4.0 * basis.grid.cell_volume), gs


def mass(u: Field) -> float:
    return _integral(PeriodicBasis(u.grid), abs_sq(u.values))


def hv_norm_sq(u: Field) -> float:
    """||u||_{HV}^2 at V = 0, ||grad u||^2 by Parseval; take_snapshot's hv_sq adds int V|u|^2.

    |u-hat|^2, and its product with k_sq, are formed in the transform's own
    memory (abs_sq and _grad_sq with overwrite_x), so the only grid array
    taken beyond u is the transform."""
    return _grad_sq(PeriodicBasis(u.grid), abs_sq(fftn(u.values), overwrite_x=True), overwrite_x=True)


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
        return [getattr(self, name) for name in _ROW]

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


# a trajectory.csv row: the snapshot's fields in order but the flag, then z; time is the column t
_ROW = tuple(f.name for f in fields(FunctionalSnapshot) if f.name != "e_term_approximate") + ("z",)
CSV_COLUMNS = tuple("t" if name == "time" else name for name in _ROW)


def take_snapshot(
    u,
    t: float,
    v,
    virial_weight,
    gamma: float,
    e_term_approximate: bool = False,
    uhat=None,
    basis: PeriodicBasis | None = None,
) -> FunctionalSnapshot:
    """Evaluate every monitored functional from one |u|^2 and one transform of u.

    u, v and virial_weight are Fields on the grid (v and virial_weight may be
    None).  With basis given, they are arrays on the basis's points instead,
    and every sum runs there with its Parseval weights.  uhat is u's
    transform on the basis (fftn(u.values) on the full grid) when the caller
    already holds it; ||grad u||^2 is then read off it."""
    if basis is None:
        basis = PeriodicBasis(u.grid)
        u, v, virial_weight = (None if f is None else f.values for f in (u, v, virial_weight))
    # every read of rho comes first, so that rho is gone before u's transform and I' need their arrays
    rho = abs_sq(u)
    m = _integral(basis, rho)
    var = _integral(basis, rho, basis.r_sq)
    p = _p(basis, rho, gamma)
    vt = _integral(basis, rho, v) if v is not None else 0.0
    e = 4.0 * _integral(basis, rho, virial_weight) if virial_weight is not None else 0.0
    del rho
    # a real u has a real gradient, so I' is 0 exactly and takes no derivative
    real = np.isrealobj(u)
    if uhat is None and real:
        uhat = basis.forward(u)
    # without u-hat, ||grad u||^2 comes from I''s transforms along each axis
    i1, gs = (0.0, None) if real else _virial_first(basis, u, grad=uhat is None)
    if uhat is not None:
        gs = _grad_sq(basis, abs_sq(uhat))
    hv = gs + vt
    return FunctionalSnapshot(
        time=t,
        mass=m,
        energy=0.5 * hv - 0.25 * p,
        grad_sq=gs,
        hv_sq=hv,
        p_value=p,
        variance_I=var,
        virial_I1=i1,
        virial_I2=8.0 * hv - 2.0 * gamma * p - e,
        e_term=e,
        e_term_approximate=e_term_approximate,
    )
