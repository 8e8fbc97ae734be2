"""Threshold algebra and the super-threshold dichotomy classifier.

Everything here is scalar work on conserved quantities: the critical exponent
s_c, the mass-energy ratio ME against a ground-state reference, the auxiliary
function f(x) whose stationary point x0 calibrates the virial argument, the
admission condition on I'(0), and the hypothesis conjunctions that turn those
numbers into a verdict.  The two reference branches (free profile when the
negative part of V vanishes, potential-pinned profile otherwise) are chosen
by the caller; classify() checks the choice against reference_potential.  Every
comparison reads its margin through _side: above, below or inside a band of
STRICTNESS times a scale.  A strict hypothesis (ME > 1, the product against
Q's) must clear the band; a non-strict one ((1.8), the sign of I'(0)) may touch it.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import asdict, dataclass, field as dc_field

import numpy as np

from .functionals import FunctionalSnapshot, take_snapshot
from .ground_state import GroundState
from .potentials import (
    AdmissibilityReport,
    PotentialSpec,
    check_admissible,
    eval_potential,
    eval_virial_weight,
    reference_potential,
    value_sign,
)
from .spectral import Field, PeriodicBasis, shell_fraction

# half-width of the noise band, as a ratio of margin to scale; read by _side only
STRICTNESS = 1e-8


def _side(margin: float, scale: float = 1.0) -> int:
    """+1 above the band STRICTNESS * scale about zero, -1 below it, 0 inside it or for nan."""
    band = STRICTNESS * scale
    return 1 if margin > band else -1 if margin < -band else 0


def s_crit(gamma: float) -> float:
    """Scaling-critical Sobolev index (gamma - 2)/2."""
    if gamma == 2.0:
        warnings.warn("gamma = 2 sits on the mass-critical boundary; s_c = 0", stacklevel=2)
    return (gamma - 2.0) / 2.0


def _k0(gamma: float) -> float:
    # (8/(g-2))^{2/g} (g-2)/(2g); ties the sharp constant to the invariant below
    return (8.0 / (gamma - 2.0)) ** (2.0 / gamma) * (gamma - 2.0) / (2.0 * gamma)


def free_reference_invariant(c_q: float, gamma: float) -> float:
    """Scale-invariant product E(Q) M(Q)^{(4-gamma)/(gamma-2)} of the free
    ground-state family, recovered from the sharp constant alone.

    Every member of the frequency-scaled family shares this value, so it is
    the natural denominator scale for ME when only scalars are available."""
    if c_q <= 0:
        raise ValueError(f"c_q must be positive, got {c_q}")
    return (c_q / _k0(gamma)) ** (gamma / (2.0 - gamma))


def me_from_scalars(mass: float, energy: float, c_q: float, gamma: float) -> float:
    """ME built from conserved scalars and the sharp constant (free branch).

    Returns nan when energy <= 0: the fractional power is undefined there and
    the classifier handles that regime separately."""
    if mass <= 0:
        raise ValueError(f"mass must be positive, got {mass}")
    if energy <= 0:
        return math.nan
    sc = s_crit(gamma)
    jay = free_reference_invariant(c_q, gamma)
    return mass ** (1.0 - sc) * energy**sc / jay**sc


def me_ratio(u0: FunctionalSnapshot, gs: GroundState, gamma: float) -> float:
    """M^{1-s_c} E^{s_c} of the data over the same product of the reference.

    The caller passes the branch-correct reference (free profile for
    vanishing V_-, pinned profile otherwise).  Nonpositive data energy makes
    the fractional power undefined; that is reported as nan rather than an
    exception because the classifier routes those inputs to the convexity
    argument instead."""
    sc = s_crit(gamma)
    if gs.mass <= 0 or gs.energy <= 0:
        raise ValueError(
            f"reference state has M={gs.mass}, E={gs.energy}; both must be positive"
        )
    if u0.energy <= 0:
        return math.nan
    return (u0.mass / gs.mass) ** (1.0 - sc) * (u0.energy / gs.energy) ** sc


def f_eval(x: float, energy: float, mass: float, c_q: float, gamma: float) -> float:
    """The comparison function f(x) on (-inf, 16 E]."""
    top = 16.0 * energy - x
    if top < 0:
        raise ValueError(f"x = {x} exceeds 16 E = {16.0 * energy}; f is not defined there")
    g2 = gamma - 2.0
    return (
        2.0 * gamma * energy / g2
        - x / (4.0 * g2)
        - (top / (2.0 * g2)) ** (2.0 / gamma) / (c_q * mass ** ((4.0 - gamma) / gamma))
    )


def f_deriv(x: float, energy: float, mass: float, c_q: float, gamma: float) -> float:
    """df/dx; singular at the endpoint x = 16 E."""
    top = 16.0 * energy - x
    if top < 0:
        raise ValueError(f"x = {x} exceeds 16 E = {16.0 * energy}; f is not defined there")
    if top == 0:
        raise ValueError("df/dx is singular at x = 16 E")
    g2 = gamma - 2.0
    return -1.0 / (4.0 * g2) + (top / (2.0 * g2)) ** ((2.0 - gamma) / gamma) / (
        gamma * g2 * c_q * mass ** ((4.0 - gamma) / gamma)
    )


def x0_defects(x0: float, energy: float, mass: float, c_q: float, gamma: float) -> tuple:
    """Defects of x0's defining identities f'(x0) = 0 and f(x0) = x0/8, each
    scaled and divided by the guard, and the guard.

    The guard is 1 unless the stationary gap 16E - x0 sinks toward the ulp of
    16E; past that the identities cannot be evaluated at full precision, so
    the tolerance widens with the representation error instead of lying."""
    top = max(16.0 * energy - x0, 1e-300)
    guard = max(1.0, 64.0 * np.finfo(float).eps * abs(16.0 * energy) / top / 1e-10)
    scale_fp = 1.0 / (4.0 * (gamma - 2.0))
    scale_fv = max(abs(x0) / 8.0, 1e-4 * (abs(16.0 * energy) + top))
    return (
        abs(f_deriv(x0, energy, mass, c_q, gamma)) / scale_fp / guard,
        abs(f_eval(x0, energy, mass, c_q, gamma) - x0 / 8.0) / scale_fv / guard,
        guard,
    )


def x0_solve(energy: float, mass: float, c_q: float, gamma: float) -> float:
    """Unique stationary point of f, in closed form.

    Isolating the power term in f'(x0) = 0 gives
    16 E - x0 = 2 (gamma-2) * [gamma c_q M^{(4-gamma)/gamma} / 4]^{gamma/(2-gamma)},
    assembled in log space since the exponent is negative.  The result is
    validated against f'(x0) = 0 and f(x0) = x0/8 (x0_defects) to 1e-10."""
    if mass <= 0 or c_q <= 0:
        raise ValueError(
            f"x0 needs positive mass and c_q, got mass={mass}, c_q={c_q}"
        )
    logt = (gamma / (2.0 - gamma)) * (
        math.log(gamma) + math.log(c_q) + (4.0 - gamma) / gamma * math.log(mass) - math.log(4.0)
    )
    x0 = 16.0 * energy - 2.0 * (gamma - 2.0) * math.exp(logt)
    if 16.0 * energy - x0 <= 0.0:
        warnings.warn(
            "x0 is indistinguishable from 16E at double precision; "
            "identity validation skipped",
            stacklevel=2,
        )
        return x0
    fp, fv, guard = x0_defects(x0, energy, mass, c_q, gamma)
    if fp > 1e-10 or fv > 1e-10:
        raise ArithmeticError(
            f"x0 = {x0} failed its defining identities: scaled defects {fp:.3e} of f'(x0) = 0 "
            f"and {fv:.3e} of f(x0) = x0/8, against 1e-10 (guard {guard:.3e})"
        )
    return x0


def mp_product(mass: float, p_value: float, gamma: float) -> float:
    """M^{1-s_c} P^{s_c}, the scale-invariant product that the dichotomy compares with the ground state's."""
    sc = s_crit(gamma)
    return mass ** (1.0 - sc) * p_value**sc


@dataclass
class Condition18:
    """Admission condition on the initial virial slope, both printed forms.

    satisfied/margin follow the theorem-stated form
    ME (1 - I'(0)^2 / (32 E I(0))) <= 1.  The companion form
    z'(0)^2 >= x0/2 is strictly stronger whenever x0 > 0; when the data falls
    in the window between the two boundaries, agrees is False and the note
    says so; disagreement outside it raises ArithmeticError.  The defaults
    are those of a degenerate result, a condition that cannot be evaluated."""

    satisfied: bool = False
    margin: float = -math.inf  # 1 - LHS; nonnegative means satisfied
    lhs: float = math.nan
    z_prime_sq: float = math.nan
    x0_half: float = math.nan
    z_sq_boundary: float = math.nan  # 8E (1 - 1/ME), the exact threshold of the stated form
    paper_form_satisfied: bool = False
    agrees: bool = True
    degenerate: bool = True
    note: str = ""


def check_condition_1_8(u0: FunctionalSnapshot, me: float, x0: float) -> Condition18:
    """Evaluate the admission condition and its companion slope form, given
    the data's me_ratio and x0_solve (x0 is not read when me is nan)."""
    i0 = u0.variance_I
    i1 = u0.virial_I1
    energy = u0.energy
    if i0 <= 0:
        return Condition18(lhs=math.inf, note="I(0) = 0: variance degenerate, condition cannot be evaluated")
    z_prime_sq = i1 * i1 / (4.0 * i0)
    if math.isnan(me):
        return Condition18(
            z_prime_sq=z_prime_sq, note="E <= 0: ME undefined, condition not applicable (convexity regime)"
        )
    lhs = me * (1.0 - i1 * i1 / (32.0 * energy * i0))
    margin = 1.0 - lhs
    satisfied = _side(lhs - 1.0) <= 0

    x0_half = x0 / 2.0
    boundary = 8.0 * energy * (1.0 - 1.0 / me)
    scale = max(abs(x0_half), abs(boundary), z_prime_sq, 1e-300)
    paper_side = _side(z_prime_sq - x0_half, scale)
    paper_sat = paper_side >= 0
    agrees = paper_sat == satisfied
    note = ""
    if not agrees:
        if _side(z_prime_sq - boundary, scale) >= 0 and paper_side <= 0:
            note = (
                "z'(0)^2 lies between the stated boundary 8E(1-1/ME) and x0/2; "
                "the two printed forms of the condition differ in this window "
                "and the stated form is authoritative"
            )
        else:
            raise ArithmeticError(
                f"condition forms disagree outside the boundary window: "
                f"z'^2={z_prime_sq}, boundary={boundary}, x0/2={x0_half}"
            )
    return Condition18(
        satisfied=satisfied, margin=margin, lhs=lhs, z_prime_sq=z_prime_sq,
        x0_half=x0_half, z_sq_boundary=boundary, paper_form_satisfied=paper_sat,
        agrees=agrees, degenerate=False, note=note,
    )


@dataclass
class DichotomyReport:
    """Everything the super-threshold classifier measured, plus the verdict."""

    verdict: str  # BlowUp | Global | BlowUpNegativeEnergy | Indeterminate
    gamma: float
    s_c: float
    me: float
    x0: float
    f_x0: float
    I0: float
    I1_0: float
    mass: float
    energy: float
    cond_me_gt_1: dict
    cond_1_8: dict
    sign_2V_xgradV: str
    cond_mp: dict
    sigma_membership: dict
    admissibility: dict
    branch: str  # free | pinned
    failed_blowup: list = dc_field(default_factory=list)
    failed_global: list = dc_field(default_factory=list)
    subthreshold: dict = dc_field(default_factory=dict)
    notes: list = dc_field(default_factory=list)


def classify(
    u0: Field,
    potential: PotentialSpec,
    gs: GroundState,
    gamma: float,
    admissibility: AdmissibilityReport | None = None,
) -> DichotomyReport:
    """Apply the super-threshold dichotomy hypotheses to initial data.

    gs must be solved with reference_potential's choice for potential.
    Nothing here raises on data that merely fails hypotheses; the verdict
    degrades to Indeterminate with the failures listed.  admissibility is
    check_admissible's report for potential on u0's grid, when the caller
    already has it."""
    grid = u0.grid
    vfield = None if potential.is_zero else eval_potential(potential, grid)
    ref = reference_potential(potential, vfield)
    branch = "free" if ref.is_zero else "pinned"
    if not (ref.is_zero and gs.potential.is_zero or ref.to_dict() == gs.potential.to_dict()):
        need = "V = 0" if ref.is_zero else "the same potential"
        raise ValueError(f"the {branch} branch needs a reference solved with {need}, not with kind {gs.potential.kind!r}")

    wfield = None if potential.is_zero else eval_virial_weight(potential, grid)
    snap = take_snapshot(
        u0, 0.0, vfield, wfield, gamma,
        e_term_approximate=potential.xgrad_is_distributional,
    )
    if snap.mass <= 0:
        raise ValueError("initial data has zero mass")

    notes: list = []
    sc = s_crit(gamma)
    adm = check_admissible(potential, vfield, grid) if admissibility is None else admissibility
    # variance density in the outer 10% shell
    frac = shell_fraction(PeriodicBasis(grid), np.abs(u0.values) ** 2 * grid.r_sq, 0.9 * grid.half_length)
    sigma_ok = frac < 1e-6
    sigma_rec = {"shell_fraction": frac, "satisfied": sigma_ok, "threshold": 1e-6}
    if not sigma_ok:
        notes.append(
            "outer-shell variance fraction exceeds 1e-6; the data is not "
            "numerically localized enough to trust x-weighted quantities"
        )
    # the zero potential satisfies both sign hypotheses: the free equation belongs to both branches
    sign_w = "zero" if wfield is None else value_sign(wfield.values)
    if snap.e_term_approximate:
        notes.append("2V + x.grad V has a distributional part; its sign and e-term use the flagged interior value")

    me = me_ratio(snap, gs, gamma)
    energy = snap.energy
    me_side = _side(me - 1.0)
    # x0 and f(x0) exist wherever ME does
    x0 = f_x0 = math.nan
    if not math.isnan(me):
        x0 = x0_solve(energy, snap.mass, gs.c_q, gamma)
        f_x0 = f_eval(x0, energy, snap.mass, gs.c_q, gamma)
        if me_side * _side(x0, max(abs(16.0 * energy), 1e-300)) < 0:
            raise ArithmeticError(f"ME > 1 and x0 > 0 must agree: me={me}, x0={x0}, 16E={16.0 * energy}")
    cond18 = check_condition_1_8(snap, me, x0)

    mp_u = mp_product(snap.mass, snap.p_value, gamma)
    mp_q = mp_product(gs.mass, gs.snapshot.p_value, gamma)
    mp_margin = mp_u - mp_q
    mp_side = _side(mp_margin, mp_q)
    mp_rec = {
        "product_u": mp_u, "product_gs": mp_q, "margin": mp_margin, "scale": mp_q,
        "gt_satisfied": mp_side > 0, "lt_satisfied": mp_side < 0,
    }
    me_rec = {"value": me, "margin": me - 1.0, "satisfied": me_side > 0}
    i1 = snap.virial_I1
    i1_side = _side(i1, math.sqrt(32.0 * abs(energy) * snap.variance_I) + abs(i1))
    sign_ok_blowup = sign_w in ("nonnegative", "zero")

    # negative-energy data bypasses ME (nan there, so me_gt_1 fails): convexity
    # closes the argument only when the weight keeps e(t) >= 0, otherwise
    # nothing is concluded
    localized = [("sigma_membership", sigma_ok), ("admissible_potential", adm.admissible)]
    if energy < 0:
        blowup_hyps = localized + [("weight_sign_nonnegative", sign_ok_blowup)]
        global_hyps = blowup_hyps + [("me_gt_1", me_side > 0)]
    else:
        common = localized + [("me_gt_1", me_side > 0), ("virial_bound_1_8", cond18.satisfied)]
        blowup_hyps = common + [
            ("I1_nonpositive", i1_side <= 0),
            ("weight_sign_nonnegative", sign_ok_blowup),
            ("mp_product_above", mp_side > 0),
        ]
        global_hyps = common + [
            ("I1_nonnegative", i1_side >= 0),
            ("weight_sign_nonpositive", sign_w in ("nonpositive", "zero")),
            ("mp_product_below", mp_side < 0),
        ]
    failed_blowup = [name for name, ok in blowup_hyps if not ok]
    failed_global = [name for name, ok in global_hyps if not ok]

    if not failed_blowup and not failed_global:
        # cannot happen: the product inequalities are strict and opposed
        raise AssertionError("both hypothesis sets satisfied; strict product comparison is broken")
    if not failed_blowup:
        verdict = "BlowUpNegativeEnergy" if energy < 0 else "BlowUp"
    elif not failed_global:
        verdict = "Global"
    else:
        verdict = "Indeterminate"
    if energy < 0:
        notes.append(
            "E_V(u0) < 0 but the convexity hypotheses are incomplete" if failed_blowup
            else "E_V(u0) < 0: concavity of the variance forces finite-time blow-up"
        )

    return DichotomyReport(
        verdict=verdict, gamma=gamma, s_c=sc, me=me, x0=x0, f_x0=f_x0,
        I0=snap.variance_I, I1_0=i1, mass=snap.mass, energy=energy,
        cond_me_gt_1=me_rec, cond_1_8=asdict(cond18), sign_2V_xgradV=sign_w,
        cond_mp=mp_rec, sigma_membership=sigma_rec, admissibility=asdict(adm),
        branch=branch,
        failed_blowup=failed_blowup, failed_global=failed_global,
        subthreshold=_subthreshold_record(snap, vfield, wfield, gs, gamma, me),
        notes=notes,
    )


def _subthreshold_record(
    snap: FunctionalSnapshot, vfield: Field | None, wfield: Field | None, gs: GroundState, gamma: float, me: float
) -> dict:
    """Sub-threshold comparison record; verdict NotApplicable unless ME < 1 and
    V >= 0, which classify has tied to a free reference.  vfield and wfield
    are the sampled V and 2V + x.grad V, None for the zero potential."""
    grid = gs.field.grid
    regime = "native" if (gamma == 3.0 and grid.dim == 5) else "heuristic-extension"
    rec = {
        "verdict": "NotApplicable",
        "regime": regime,
        "product_u": math.nan,
        "product_gs": math.nan,
        "margin": math.nan,
        "notes": [],
    }
    if _side(me - 1.0) >= 0:
        rec["notes"].append("ME is not below 1")
        return rec
    if not gs.potential.is_zero:
        rec["notes"].append("V takes negative values; the sub-threshold result needs V >= 0")
        return rec

    prod_u = math.sqrt(max(snap.hv_sq, 0.0) * snap.mass)
    prod_q = math.sqrt(gs.snapshot.hv_sq * gs.mass)
    margin = prod_u - prod_q
    rec.update(product_u=prod_u, product_gs=prod_q, margin=margin)
    side = _side(margin, prod_q)
    if side < 0:
        rec["verdict"] = "GlobalScattersPredicted"
        if vfield is not None:
            xg = wfield.values - 2.0 * vfield.values
            if value_sign(xg) not in ("nonpositive", "zero"):
                rec["notes"].append(
                    "scattering additionally needs x.grad V <= 0, which fails here; "
                    "only persistence below the product threshold is predicted"
                )
    elif side > 0:
        rec["verdict"] = "BlowUpPredicted"
        if wfield is not None and value_sign(wfield.values) not in ("nonnegative", "zero"):
            rec["notes"].append(
                "gradient growth additionally needs 2V + x.grad V >= 0, which fails here; "
                "only persistence above the product threshold is predicted"
            )
    else:
        rec["notes"].append("product sits on the threshold within tolerance")
    if regime == "heuristic-extension":
        rec["notes"].append("outside the stated (gamma, d) = (3, 5) regime; prediction is a heuristic extension")
    return rec
