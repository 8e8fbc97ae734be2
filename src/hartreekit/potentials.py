"""External potentials: construction, Kato-class admissibility, virial sign data.

A potential enters the analysis in three ways: pointwise values V, the virial
combination 2V + x.grad V (whose sign controls the convexity argument), and
the negative-part Kato norm that gates admissibility of the quadratic form
||u||^2 = ||grad u||^2 + int V |u|^2.
"""

from __future__ import annotations

import hashlib
import warnings
from dataclasses import dataclass, field as dc_field

import numpy as np
from scipy.special import gamma as gamma_fn

from .functionals import _integral
from .spectral import Field, Grid, PeriodicBasis, _check_section, shell_mask, transform_basis

# the [potential] keys each kind reads; a sampled potential's values come from its file
_PARAMS = {
    "zero": (),
    "gaussian_bump": ("amplitude", "sigma"),
    "smooth_compact_bump": ("amplitude", "radius"),
    "inverse_poly": ("amplitude", "exponent"),
    "ball_indicator": ("amplitude", "radius"),
    "grid_sampled": ("file",),
}
KINDS = tuple(_PARAMS)


@dataclass
class PotentialSpec:
    """Declarative potential description: kind plus named numeric parameters.

    The fields other than values are the [potential] config keys."""

    kind: str = "zero"
    amplitude: float = 0.0
    sigma: float = 1.0
    radius: float = 1.0
    exponent: int = 1
    values: np.ndarray | None = None  # grid_sampled only

    def __post_init__(self):
        _check_section([("kind", self.kind, KINDS)])
        if self.kind == "grid_sampled" and self.values is None:
            raise ValueError("grid_sampled potential needs a values array")
        # only the keys the kind reads are checked, and each problem names the kind
        rules = (("sigma", "positive"), ("radius", "positive"), ("amplitude", "finite"))
        params = _PARAMS[self.kind]
        integer = self.exponent >= 1 and float(self.exponent).is_integer()
        _check_section(
            [(key, getattr(self, key), rule) for key, rule in rules if key in params]
            + [("exponent" not in params or integer, f"exponent must be a positive integer, got {self.exponent}")],
            f"{self.kind}: ",
        )

    @property
    def is_zero(self) -> bool:
        return self.kind == "zero" or (self.kind != "grid_sampled" and self.amplitude == 0.0)

    @property
    def compact_support(self) -> bool:
        return self.kind in ("zero", "smooth_compact_bump", "ball_indicator")

    @property
    def xgrad_is_distributional(self) -> bool:
        """True when x.grad V carries a surface term the grid cannot represent."""
        return self.kind == "ball_indicator"

    def to_dict(self) -> dict:
        if self.kind == "grid_sampled":
            sha = hashlib.sha256(np.ascontiguousarray(self.values).tobytes()).hexdigest()
            return {"kind": self.kind, "sha256": sha, "shape": list(self.values.shape)}
        return {"kind": self.kind, **{name: getattr(self, name) for name in _PARAMS[self.kind]}}


def _sample(spec: PotentialSpec, grid: Grid, weight: bool) -> np.ndarray:
    """The one kind dispatch: V on the grid or, with weight, 2V + x.grad V from that
    V; a weight of V times a factor is multiplied in place, holding no extra grid array.

    The Gaussian bump is formed in its own memory, a * exp(-r2 / sigma^2)
    one operation at a time in that order, and its weight factor
    2 - 2 r2 / sigma^2 likewise in one more array: the same bits as the
    expressions, with at most two grid arrays held."""
    r2, a, k = grid.r_sq, spec.amplitude, spec.kind
    if k == "zero":
        return np.zeros(grid.shape)
    if k == "gaussian_bump":
        s2 = spec.sigma**2
        v = np.negative(r2)
        v /= s2
        np.exp(v, out=v)
        v *= a
        if weight:
            f = np.multiply(r2, 2.0)
            f /= s2
            v *= np.subtract(2.0, f, out=f)
        return v
    if k == "smooth_compact_bump":
        s = r2 / spec.radius**2
        inside = s < 1.0
        si = s[inside]
        vi = a * np.exp(1.0 - 1.0 / (1.0 - si))
        vals = np.zeros(grid.shape)
        vals[inside] = np.multiply(vi, 2.0 - 2.0 * si / (1.0 - si) ** 2, out=vi) if weight else vi
        return vals
    if k == "inverse_poly":
        p = spec.exponent
        if weight:
            return 2.0 * a * (1.0 + r2 - p * r2) / (1.0 + r2) ** (p + 1)
        return a / (1.0 + r2) ** p
    if k == "ball_indicator":
        v = a * (r2 <= spec.radius**2).astype(float)
        return np.multiply(v, 2.0, out=v) if weight else v
    if spec.values.shape != grid.shape:
        raise ValueError(f"grid_sampled values shape {spec.values.shape} does not match grid {grid.shape}")
    v = np.asarray(spec.values, dtype=float)
    return _spectral_weight(grid, v) if weight else v


def _spectral_weight(grid: Grid, v: np.ndarray) -> np.ndarray:
    """2V + x.grad V from the samples v, x.grad V by spectral differentiation."""
    # each axis's derivative is a temporary, dropped before the next is taken
    return 2.0 * v + sum(x * PeriodicBasis(grid).derivative(v, ax) for ax, x in enumerate(grid.coords))


def weight_band_error(v: Field) -> float:
    """A two-level estimate of the error of a sampled V's weight 2V + x.grad V, over its sup.

    The weight is recomputed from V with its spectrum cut to the inner half
    of the band, |k_i| < n/4 on every axis: the complement of the spectral
    shell_mask at n/4, which PeriodicBasis.apply takes as the 0/1 multiplier
    of that cut.  The estimate is the largest gap between that weight and
    the full band's on the inner half box, |x_i| < L/2 (the complement of
    the shell_mask at L/2), over the full-band weight's sup.  On the
    measured smooth kinds it was never below the true error, and up to 10^8
    above it where V is resolved, so it can flag a weight, not correct it."""
    grid, basis = v.grid, PeriodicBasis(v.grid)
    full = _spectral_weight(grid, v.values)
    gap = full - _spectral_weight(grid, basis.apply(v.values, ~shell_mask(basis, grid.points // 4, spectral=True)))
    scale = float(np.abs(full).max())
    return float(np.abs(gap[~shell_mask(basis, grid.half_length / 2)]).max()) / scale if scale > 0 else 0.0


def eval_potential(spec: PotentialSpec, grid: Grid) -> Field:
    """Sample V on the grid (real Field)."""
    return Field(grid, _sample(spec, grid, weight=False))


def eval_virial_weight(spec: PotentialSpec, grid: Grid) -> Field:
    """Sample 2V + x.grad V (real Field), analytically where the kind allows.

    ball_indicator: grad V is a surface distribution; the returned field is
    the interior value 2V, flagged via spec.xgrad_is_distributional and by a
    warning located here, which Python's default filter shows once per
    process.  grid_sampled: x.grad V by spectral differentiation."""
    if spec.xgrad_is_distributional:
        warnings.warn(
            "ball_indicator: x.grad V has a surface part the grid cannot carry; "
            "using the distributional-interior value 2V"
        )
    return Field(grid, _sample(spec, grid, weight=True))


def kato_constant(dim: int) -> float:
    """C_d = Gamma(d/2) / ((d-2) * 2 * pi^{d/2}); 1/C_d bounds the admissible negative-part Kato norm."""
    if dim < 3:
        raise ValueError("Kato constant defined for dim >= 3")
    return float(gamma_fn(dim / 2.0) / ((dim - 2) * 2.0 * np.pi ** (dim / 2.0)))


def kato_norm(v: Field) -> float:
    """sup_x C_d int |V(y)| |x-y|^{2-d} dy, evaluated as a grid max of the Riesz potential.

    The max is taken on the points where the basis ran the convolution
    (PeriodicBasis.convolve, unexpanded): an even |V|, as every centred kind
    gives, is convolved on the octant as DCT-Is with the octant's own
    gamma = d - 2 multiplier, and the octant holds every value of the grid."""
    grid = v.grid
    if grid.dim < 3:
        raise ValueError("Kato norm defined for dim >= 3")
    absv = np.abs(v.values)
    basis = transform_basis(grid, absv)
    return float(kato_constant(grid.dim) * basis.convolve(basis.take(absv), float(grid.dim - 2)).max())


@dataclass
class AdmissibilityReport:
    """Admissibility numbers in both normalizations of the Kato quantity.

    kato_norm_* carry the Green-function constant C_d inside (the form
    returned by kato_norm); the equivalent raw-integral values
    sup_x int |V(y)| |x-y|^{2-d} dy are kato_norm_*/C_d and are compared
    against 1/C_d (= 4 pi in d = 3).  The two comparisons are the same
    inequality; the gate is coercivity of the quadratic form."""

    admissible: bool
    kato_norm_negative_part: float
    kato_norm_full: float
    kato_constant: float  # C_d
    kato_integral_negative_part: float  # kato_norm_negative_part / C_d
    kato_integral_threshold: float  # 1 / C_d
    ld2_norm: float  # L^{d/2} norm over the box
    compact_support: bool
    # weight_band_error of a grid_sampled V; None for an analytic kind or V = 0
    weight_band_error: float | None = None
    notes: list = dc_field(default_factory=list)


def check_admissible(spec: PotentialSpec, v: Field | None, grid: Grid) -> AdmissibilityReport:
    """Negative part strictly below the coercivity threshold, clear of _side's band, norms finite.

    v is spec sampled on grid, None for the zero potential, whose norms are
    all 0.  The gate is sup_x int |V_-(y)| |x-y|^{2-d} dy < 1/C_d, equivalently
    kato_norm(V_-) < 1, a strict hypothesis that 1 - kato_norm(V_-) must
    clear _side's band: exactly the condition under which the form norm
    sandwich keeps a positive lower constant.  Finiteness of the K cap
    L^{d/2} membership is automatic for bounded data on a box; the report
    records the numbers and flags non-compact tails informatively rather
    than failing them, and a grid_sampled V's weight_band_error.
    """
    cd = kato_constant(grid.dim)
    kneg = kfull = ld2 = 0.0
    if v is not None:
        vneg = np.maximum(-v.values, 0.0)
        kneg = kato_norm(Field(grid, vneg)) if vneg.any() else 0.0
        kfull = kato_norm(v)
        ld2 = _integral(PeriodicBasis(grid), np.abs(v.values) ** (grid.dim / 2.0)) ** (2.0 / grid.dim)
    notes = []
    if not spec.compact_support and not spec.is_zero:
        notes.append(
            f"{spec.kind} has unbounded support; box truncation at |x_i| < {grid.half_length} "
            "stands in for the far tail"
        )
    ok = _side(1.0 - kneg) > 0 and np.isfinite(ld2)
    if not ok:
        notes.append("negative part reaches the Kato threshold; quadratic form loses coercivity")
    return AdmissibilityReport(
        admissible=bool(ok),
        kato_norm_negative_part=kneg,
        kato_norm_full=kfull,
        kato_constant=cd,
        kato_integral_negative_part=kneg / cd,
        kato_integral_threshold=1.0 / cd,
        ld2_norm=ld2,
        compact_support=spec.compact_support,
        weight_band_error=weight_band_error(v) if spec.kind == "grid_sampled" else None,
        notes=notes,
    )


# half-width of the noise band, as a ratio of margin to scale; read by _side only
STRICTNESS = 1e-8


def _side(margin: float, scale: float = 1.0) -> int:
    """+1 above the band STRICTNESS * scale about zero, -1 below it, 0 inside it or for nan.

    Every threshold hypothesis, admissibility included, reads its margin here."""
    band = STRICTNESS * scale
    return 1 if margin > band else -1 if margin < -band else 0


def value_sign(values, rtol: float = 1e-10) -> str:
    """Sign of an array up to rtol times its sup: 'zero', 'nonnegative', 'nonpositive', or 'mixed'."""
    tol = rtol * float(np.abs(values).max())
    pos = float(values.max()) > tol
    neg = float(values.min()) < -tol
    if pos and neg:
        return "mixed"
    if pos:
        return "nonnegative"
    return "nonpositive" if neg else "zero"


def reference_potential(spec: PotentialSpec, v: Field | None) -> PotentialSpec:
    """The threshold branch rule: the potential the reference ground state is solved
    with, for spec sampled as v (None for a zero spec, its own free reference).  V >= 0
    up to 1e-12 of its sup has no V_-: free branch, PotentialSpec().  Else pinned: spec."""
    if v is not None and value_sign(v.values, rtol=1e-12) in ("nonnegative", "zero"):
        return PotentialSpec()
    return spec
