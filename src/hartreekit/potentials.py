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

from .spectral import Field, Grid, fftn, ifftn, integrate, riesz_convolve

KINDS = (
    "zero",
    "gaussian_bump",
    "smooth_compact_bump",
    "inverse_poly",
    "ball_indicator",
    "grid_sampled",
)

# which numeric parameters each kind consumes
_PARAMS = {
    "zero": (),
    "gaussian_bump": ("amplitude", "sigma"),
    "smooth_compact_bump": ("amplitude", "radius"),
    "inverse_poly": ("amplitude", "exponent"),
    "ball_indicator": ("amplitude", "radius"),
    "grid_sampled": (),
}


@dataclass
class PotentialSpec:
    """Declarative potential description: kind plus named numeric parameters."""

    kind: str
    amplitude: float = 0.0
    sigma: float = 1.0
    radius: float = 1.0
    exponent: int = 1
    values: np.ndarray | None = None  # grid_sampled only

    def __post_init__(self):
        if self.kind not in KINDS:
            raise ValueError(f"unknown potential kind {self.kind!r}, expected one of {KINDS}")
        if self.kind == "grid_sampled" and self.values is None:
            raise ValueError("grid_sampled potential needs a values array")
        for name in ("sigma", "radius"):
            if name in _PARAMS[self.kind] and getattr(self, name) <= 0:
                raise ValueError(f"{self.kind}: {name} must be positive")
        if self.kind == "inverse_poly" and self.exponent < 1:
            raise ValueError("inverse_poly: exponent must be a positive integer")

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
        d = {"kind": self.kind}
        for name in _PARAMS[self.kind]:
            d[name] = getattr(self, name)
        if self.kind == "grid_sampled":
            d["sha256"] = hashlib.sha256(np.ascontiguousarray(self.values).tobytes()).hexdigest()
            d["shape"] = list(self.values.shape)
        return d

    @classmethod
    def from_dict(cls, d: dict, values: np.ndarray | None = None) -> "PotentialSpec":
        kw = {k: v for k, v in d.items() if k in ("kind", "amplitude", "sigma", "radius", "exponent")}
        if d.get("kind") == "grid_sampled":
            kw["values"] = values
        return cls(**kw)


def eval_potential(spec: PotentialSpec, grid: Grid) -> Field:
    """Sample V on the grid (real Field)."""
    r2 = grid.r_sq
    k = spec.kind
    if k == "zero":
        vals = np.zeros(grid.shape)
    elif k == "gaussian_bump":
        vals = spec.amplitude * np.exp(-r2 / spec.sigma**2)
    elif k == "smooth_compact_bump":
        s = r2 / spec.radius**2
        vals = np.zeros(grid.shape)
        inside = s < 1.0
        vals[inside] = spec.amplitude * np.exp(1.0 - 1.0 / (1.0 - s[inside]))
    elif k == "inverse_poly":
        vals = spec.amplitude / (1.0 + r2) ** spec.exponent
    elif k == "ball_indicator":
        vals = spec.amplitude * (r2 <= spec.radius**2).astype(float)
    elif k == "grid_sampled":
        if spec.values.shape != grid.shape:
            raise ValueError(
                f"grid_sampled values shape {spec.values.shape} does not match grid {grid.shape}"
            )
        vals = np.asarray(spec.values, dtype=float)
    return Field(grid, vals)


def eval_virial_weight(spec: PotentialSpec, grid: Grid) -> Field:
    """Sample 2V + x.grad V (real Field), analytically where the kind allows.

    ball_indicator: grad V is a surface distribution; the returned field is
    the interior value 2V (flagged via spec.xgrad_is_distributional and a
    warning).  grid_sampled: x.grad V by spectral differentiation.
    """
    r2 = grid.r_sq
    k = spec.kind
    if k == "zero":
        vals = np.zeros(grid.shape)
    elif k == "gaussian_bump":
        vals = spec.amplitude * np.exp(-r2 / spec.sigma**2) * (2.0 - 2.0 * r2 / spec.sigma**2)
    elif k == "smooth_compact_bump":
        s = r2 / spec.radius**2
        vals = np.zeros(grid.shape)
        inside = s < 1.0
        si = s[inside]
        vals[inside] = (
            spec.amplitude * np.exp(1.0 - 1.0 / (1.0 - si)) * (2.0 - 2.0 * si / (1.0 - si) ** 2)
        )
    elif k == "inverse_poly":
        p = spec.exponent
        vals = 2.0 * spec.amplitude * (1.0 + r2 - p * r2) / (1.0 + r2) ** (p + 1)
    elif k == "ball_indicator":
        warnings.warn(
            "ball_indicator: x.grad V has a surface part the grid cannot carry; "
            "using the distributional-interior value 2V",
            stacklevel=2,
        )
        vals = 2.0 * spec.amplitude * (r2 <= spec.radius**2).astype(float)
    elif k == "grid_sampled":
        v = np.asarray(spec.values, dtype=float)
        vhat = fftn(v)
        xg = np.zeros(grid.shape)
        for x, xi in zip(grid.coords, grid.freqs):
            xg += (x * ifftn(1j * xi * vhat).real)
        vals = 2.0 * v + xg
    return Field(grid, vals)


def kato_constant(dim: int) -> float:
    """C_d = Gamma(d/2) / ((d-2) * 2 * pi^{d/2}); 1/C_d bounds the admissible negative-part Kato norm."""
    if dim < 3:
        raise ValueError("Kato constant defined for dim >= 3")
    return float(gamma_fn(dim / 2.0) / ((dim - 2) * 2.0 * np.pi ** (dim / 2.0)))


def kato_norm(v: Field) -> float:
    """sup_x C_d int |V(y)| |x-y|^{2-d} dy, evaluated as a grid max of the Riesz potential."""
    grid = v.grid
    if grid.dim < 3:
        raise ValueError("Kato norm defined for dim >= 3")
    absv = Field(grid, np.abs(v.values))
    pot = riesz_convolve(absv, float(grid.dim - 2))
    return float(kato_constant(grid.dim) * pot.values.max())


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
    notes: list = dc_field(default_factory=list)

    def to_dict(self) -> dict:
        return {
            "admissible": self.admissible,
            "kato_norm_negative_part": self.kato_norm_negative_part,
            "kato_norm_full": self.kato_norm_full,
            "kato_constant": self.kato_constant,
            "kato_integral_negative_part": self.kato_integral_negative_part,
            "kato_integral_threshold": self.kato_integral_threshold,
            "ld2_norm": self.ld2_norm,
            "compact_support": self.compact_support,
            "notes": list(self.notes),
        }


def check_admissible(spec: PotentialSpec, grid: Grid) -> AdmissibilityReport:
    """Negative part strictly below the coercivity threshold (with margin), norms finite.

    The gate is sup_x int |V_-(y)| |x-y|^{2-d} dy < 1/C_d, equivalently
    kato_norm(V_-) < 1: exactly the condition under which the form norm
    sandwich keeps a positive lower constant.  Finiteness of the K cap
    L^{d/2} membership is automatic for bounded data on a box; the report
    records the numbers and flags non-compact tails informatively rather
    than failing them.
    """
    v = eval_potential(spec, grid)
    vneg = Field(grid, np.maximum(-v.values, 0.0))
    cd = kato_constant(grid.dim)
    if spec.is_zero:
        kneg = 0.0
        kfull = 0.0
    else:
        kneg = kato_norm(vneg) if vneg.values.any() else 0.0
        kfull = kato_norm(v)
    ld2 = float(integrate(Field(grid, np.abs(v.values) ** (grid.dim / 2.0))) ** (2.0 / grid.dim))
    notes = []
    if not spec.compact_support and not spec.is_zero:
        notes.append(
            f"{spec.kind} has unbounded support; box truncation at |x_i| < {grid.half_length} "
            "stands in for the far tail"
        )
    ok = kneg < 1.0 - 1e-8 and np.isfinite(ld2)
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
        notes=notes,
    )


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


def sign_classify(spec: PotentialSpec, grid: Grid, rtol: float = 1e-10) -> str:
    """Sign of 2V + x.grad V over the grid (see value_sign).

    The zero potential returns 'zero', which satisfies both sign hypotheses of
    the dichotomy (the free equation belongs to both branches).
    """
    if spec.is_zero:
        return "zero"
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        w = eval_virial_weight(spec, grid).values
    return value_sign(w, rtol)
