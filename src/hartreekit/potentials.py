"""External potentials: construction, Kato-class admissibility, virial sign data.

A potential enters the analysis in three ways: pointwise values V, the virial
combination 2V + x.grad V (whose sign controls the convexity argument), and
the negative-part Kato norm that gates admissibility of the quadratic form
||u||^2 = ||grad u||^2 + int V |u|^2.
"""

from __future__ import annotations

import difflib
import hashlib
import math
import warnings
from dataclasses import dataclass, field as dc_field

import numpy as np
from scipy.special import gamma as gamma_fn

from .spectral import Field, Grid, gradient, integrate, riesz_convolve

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


def suggest(name: str, options) -> str:
    """The hint " (did you mean 'x'?)" for the option closest to a misspelt name, or ""."""
    close = difflib.get_close_matches(name, options, n=1)
    return f" (did you mean '{close[0]}'?)" if close else ""


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
        if self.kind not in KINDS:
            raise ValueError(f"kind '{self.kind}' is not one of {'/'.join(KINDS)}{suggest(self.kind, KINDS)}")
        if self.kind == "grid_sampled" and self.values is None:
            raise ValueError("grid_sampled potential needs a values array")
        # written as `not 0 < x < inf` so that NaN fails too; every problem is reported
        params = _PARAMS[self.kind]
        problems = [
            f"{self.kind}: {name} must be positive and finite, got {getattr(self, name)}"
            for name in ("sigma", "radius")
            if name in params and not 0 < getattr(self, name) < math.inf
        ]
        if "amplitude" in params and not math.isfinite(self.amplitude):
            problems.append(f"{self.kind}: amplitude must be finite, got {self.amplitude}")
        if "exponent" in params and not (self.exponent >= 1 and float(self.exponent).is_integer()):
            problems.append(f"inverse_poly: exponent must be a positive integer, got {self.exponent}")
        if problems:
            raise ValueError("; ".join(problems))

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
        vals = 2.0 * v + sum(x * d.values for x, d in zip(grid.coords, gradient(Field(grid, v))))
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


def check_admissible(spec: PotentialSpec, v: Field | None, grid: Grid) -> AdmissibilityReport:
    """Negative part strictly below the coercivity threshold (with margin), norms finite.

    v is spec sampled on grid, None for the zero potential, whose norms are
    all 0.  The gate is sup_x int |V_-(y)| |x-y|^{2-d} dy < 1/C_d, equivalently
    kato_norm(V_-) < 1: exactly the condition under which the form norm
    sandwich keeps a positive lower constant.  Finiteness of the K cap
    L^{d/2} membership is automatic for bounded data on a box; the report
    records the numbers and flags non-compact tails informatively rather
    than failing them.
    """
    cd = kato_constant(grid.dim)
    kneg = kfull = ld2 = 0.0
    if v is not None:
        vneg = np.maximum(-v.values, 0.0)
        kneg = kato_norm(Field(grid, vneg)) if vneg.any() else 0.0
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


def on_free_branch(v: Field | None) -> bool:
    """The threshold branch rule: with V = 0 (v None) or V >= 0 up to 1e-12 of
    its sup, V_- vanishes and the reference ground state is the free one."""
    return v is None or value_sign(v.values, rtol=1e-12) in ("nonnegative", "zero")
