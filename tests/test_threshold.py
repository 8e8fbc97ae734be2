"""Scalar threshold algebra, the admission condition, and the dichotomy verdicts."""

import inspect
import json
import math
from dataclasses import asdict, replace

import numpy as np
import pytest

from hartreekit.functionals import FunctionalSnapshot, take_snapshot
from hartreekit.ground_state import solve_ground_state
from hartreekit.potentials import PotentialSpec
from hartreekit.runner import threshold_defects, variational_defects
from hartreekit.spectral import Field, Grid
from hartreekit.threshold import (
    check_condition_1_8,
    classify,
    f_deriv,
    f_eval,
    free_reference_invariant,
    me_from_scalars,
    me_ratio,
    s_crit,
    x0_solve,
)

from conftest import GAMMA, random_threshold_tuple

VERDICTS = {"BlowUp", "Global", "BlowUpNegativeEnergy", "Indeterminate"}


@pytest.fixture(scope="module")
def gs_wide():
    # wide box so the exponential tail of Q clears the outer-shell gate
    gs = solve_ground_state(Grid(3, 48, 12.0), PotentialSpec(kind="zero"), GAMMA)
    assert gs.converged
    return gs


def chirped(gs, c, lam):
    g = gs.field.grid
    return Field(g, c * gs.field.values * np.exp(1j * lam * g.r_sq))


def gaussian_data(grid, a, w, lam):
    r2 = grid.r_sq
    return Field(grid, a * np.exp(-r2 / (2.0 * w * w)) * np.exp(1j * lam * r2))


def condition_1_8(snap, gs):
    """check_condition_1_8 on the ME and x0 that classify hands it."""
    me = me_ratio(snap, gs)
    x0 = math.nan if math.isnan(me) else x0_solve(snap.energy, snap.mass, gs.c_q, GAMMA)
    return check_condition_1_8(snap, me, x0)


def test_s_crit_values():
    assert s_crit(2.5) == pytest.approx(0.25, abs=0)
    assert s_crit(3.0) == pytest.approx(0.5, abs=0)
    with pytest.warns(UserWarning):
        assert s_crit(2.0) == 0.0


def test_x0_defining_identities_50_tuples():
    rng = np.random.default_rng(31)
    for _ in range(50):
        # the prescribed gap keeps 16E - x0 well clear of the ulp of 16E
        fp, fv, _product, guard = threshold_defects(*random_threshold_tuple(rng)[:4])
        assert guard == 1.0
        assert fp < 1e-10
        assert fv < 1e-10


def test_x0_product_identity_50_tuples():
    # ME (1 - x0/(16E))^{s_c} = 1 pins x0 to the mass-energy ratio alone
    rng = np.random.default_rng(32)
    for _ in range(50):
        e, m, c_q, gamma, _ = random_threshold_tuple(rng)
        _fp, _fv, product, guard = threshold_defects(e, m, c_q, gamma)
        assert guard == 1.0 and product < 1e-10
        x0 = x0_solve(e, m, c_q, gamma)
        sc = s_crit(gamma)
        me = me_from_scalars(m, e, c_q, gamma)
        # equivalent closed relation, exponent unwound
        assert abs((1.0 - x0 / (16.0 * e)) - me ** (-1.0 / sc)) < 1e-12 * me ** (-1.0 / sc)


def test_x0_sign_tracks_me():
    rng = np.random.default_rng(33)
    seen_above = seen_below = 0
    for _ in range(80):
        e, m, c_q, gamma, _ = random_threshold_tuple(rng)
        x0 = x0_solve(e, m, c_q, gamma)
        me = me_from_scalars(m, e, c_q, gamma)
        if me > 1.0 + 1e-9:
            assert x0 > 0.0
            seen_above += 1
        elif me < 1.0 - 1e-9:
            assert x0 < 0.0
            seen_below += 1
    # the construction must actually exercise both sides
    assert seen_above >= 10 and seen_below >= 10


def test_x0_depends_only_on_me_and_16e():
    # two tuples with equal ME have equal x0/(16E)
    e1, m1, c1, gamma = 0.7, 1.3, 0.9, 2.6
    me1 = me_from_scalars(m1, e1, c1, gamma)
    sc = s_crit(gamma)
    m2, c2 = 2.1, 0.9
    # pick e2 so the ratio matches: ME = M^{1-sc} E^{sc} / J^{sc}
    jay = free_reference_invariant(c2, gamma)
    e2 = (me1 / m2 ** (1.0 - sc)) ** (1.0 / sc) * jay
    assert abs(me_from_scalars(m2, e2, c2, gamma) - me1) < 1e-12
    r1 = x0_solve(e1, m1, c1, gamma) / (16.0 * e1)
    r2 = x0_solve(e2, m2, c2, gamma) / (16.0 * e2)
    assert abs(r1 - r2) < 1e-12


def test_f_domain_and_input_errors():
    e, m, c_q, gamma = 0.5, 1.0, 1.0, 2.5
    with pytest.raises(ValueError):
        f_eval(16.0 * e + 1.0, e, m, c_q, gamma)
    with pytest.raises(ValueError):
        f_deriv(16.0 * e + 1.0, e, m, c_q, gamma)
    with pytest.raises(ValueError):
        f_deriv(16.0 * e, e, m, c_q, gamma)  # derivative singular at the endpoint
    with pytest.raises(ValueError):
        x0_solve(e, -1.0, c_q, gamma)
    with pytest.raises(ValueError):
        x0_solve(e, m, 0.0, gamma)
    with pytest.raises(ValueError):
        free_reference_invariant(-0.1, gamma)
    with pytest.raises(ValueError):
        me_from_scalars(0.0, e, c_q, gamma)
    assert math.isnan(me_from_scalars(m, -0.2, c_q, gamma))
    assert math.isnan(me_from_scalars(m, 0.0, c_q, gamma))


def test_me_scalar_and_ratio_forms_agree(gs_wide):
    # the gs itself sits at ME = 1 in both conventions, up to discretization
    s = gs_wide.snapshot
    me_scalar = me_from_scalars(s.mass, s.energy, gs_wide.c_q, GAMMA)
    assert abs(me_scalar - 1.0) < 1e-3
    u = chirped(gs_wide, 1.1, -0.2)
    snap = take_snapshot(u, 0.0, None, None, GAMMA)
    ratio = me_ratio(snap, gs_wide)
    scalar = me_from_scalars(snap.mass, snap.energy, gs_wide.c_q, GAMMA)
    # both normalize the same product, one against Q, one against c_q
    assert abs(ratio / scalar - 1.0) < 2e-3
    assert math.isnan(me_ratio(take_snapshot(Field(u.grid, 1.3 * gs_wide.field.values), 0.0, None, None, GAMMA), gs_wide))


def test_condition_disagreement_window(gs_wide):
    # between 8E(1 - 1/ME) and x0/2 the two printed forms split; the stated
    # one is authoritative and the report must say so rather than raise
    u = gaussian_data(gs_wide.field.grid, 0.32, 1.5, 0.03)
    snap = take_snapshot(u, 0.0, None, None, GAMMA)
    c = condition_1_8(snap, gs_wide)
    assert c.satisfied and not c.paper_form_satisfied and not c.agrees
    assert c.z_sq_boundary < c.z_prime_sq < c.x0_half
    assert "authoritative" in c.note
    me = me_ratio(snap, gs_wide)
    assert c.z_sq_boundary == pytest.approx(8.0 * snap.energy * (1.0 - 1.0 / me), rel=1e-12)


def test_condition_agreement_outside_window(gs_wide):
    # strongly chirped data: both forms satisfied
    u = gaussian_data(gs_wide.field.grid, 0.34, 1.5, 0.04)
    snap = take_snapshot(u, 0.0, None, None, GAMMA)
    c = condition_1_8(snap, gs_wide)
    assert c.satisfied and c.paper_form_satisfied and c.agrees and not c.degenerate
    # real data below threshold: z' = 0, x0 < 0, both forms again agree
    u2 = Field(gs_wide.field.grid, 1.1 * gs_wide.field.values)
    c2 = condition_1_8(take_snapshot(u2, 0.0, None, None, GAMMA), gs_wide)
    assert c2.satisfied and c2.paper_form_satisfied and c2.agrees
    assert c2.z_prime_sq == pytest.approx(0.0, abs=1e-10)
    assert c2.x0_half < 0.0


def test_condition_degenerate_branches(gs_wide):
    # E <= 0 routes to the convexity regime
    u = Field(gs_wide.field.grid, 1.3 * gs_wide.field.values)
    c = condition_1_8(take_snapshot(u, 0.0, None, None, GAMMA), gs_wide)
    assert c.degenerate and not c.satisfied
    assert "convexity" in c.note
    # I(0) = 0 cannot be normalized into z'(0)
    snap = FunctionalSnapshot(
        time=0.0, mass=1.0, energy=0.5, grad_sq=1.0, hv_sq=1.0,
        p_value=1.0, variance_I=0.0, virial_I1=0.0, virial_I2=0.0, e_term=0.0,
    )
    c0 = condition_1_8(snap, gs_wide)
    assert c0.degenerate and not c0.satisfied
    assert c0.margin == -math.inf


def test_classify_blowup_profile(gs_wide):
    rep = classify(chirped(gs_wide, 1.1, -0.2), PotentialSpec(kind="zero"), gs_wide)
    assert rep.verdict == "BlowUp"
    assert rep.failed_blowup == []
    assert rep.me > 1.0 and rep.x0 > 0.0
    assert rep.I1_0 < 0.0
    assert rep.cond_mp["gt_satisfied"]
    assert rep.cond_1_8["satisfied"]
    assert rep.branch == "free"
    json.dumps(asdict(rep))  # report must serialize as-is


def test_classify_reads_gamma_off_the_reference(gs_wide):
    """gamma is the reference's alone: no classifier function takes one, and the
    report, its s_c and its ME are the reference's.  classify reads no field of
    the reference either (validate drops it), so a reference without one serves."""
    for fn in (classify, me_ratio, variational_defects):
        assert "gamma" not in inspect.signature(fn).parameters
    u = chirped(gs_wide, 1.1, -0.2)
    rep = classify(u, PotentialSpec(kind="zero"), replace(gs_wide, field=None))
    assert rep.gamma == gs_wide.gamma and rep.s_c == s_crit(gs_wide.gamma)
    assert rep.me == me_ratio(take_snapshot(u, 0.0, None, None, gs_wide.gamma), gs_wide)
    assert asdict(rep) == asdict(classify(u, PotentialSpec(kind="zero"), gs_wide))


def test_classify_global_profile(gs_wide):
    u = gaussian_data(gs_wide.field.grid, 0.2, 1.5, 0.5)
    rep = classify(u, PotentialSpec(kind="zero"), gs_wide)
    assert rep.verdict == "Global"
    assert rep.failed_global == []
    assert rep.me > 1.0
    assert rep.I1_0 > 0.0
    assert rep.cond_mp["lt_satisfied"]


def test_classify_negative_energy(gs_wide):
    rep = classify(Field(gs_wide.field.grid, 1.3 * gs_wide.field.values),
                   PotentialSpec(kind="zero"), gs_wide)
    assert rep.verdict == "BlowUpNegativeEnergy"
    assert rep.energy < 0.0
    assert math.isnan(rep.me)
    assert any("concavity" in n for n in rep.notes)


def test_classify_ground_state_indeterminate(gs_wide):
    # Q sits exactly on every strict inequality, so no hypothesis set closes
    rep = classify(gs_wide.field, PotentialSpec(kind="zero"), gs_wide)
    assert rep.verdict == "Indeterminate"
    assert "me_gt_1" in rep.failed_blowup and "me_gt_1" in rep.failed_global
    assert "mp_product_above" in rep.failed_blowup
    assert "mp_product_below" in rep.failed_global


@pytest.mark.xfail(
    strict=True,
    raises=ArithmeticError,
    reason="on the free reference solved at 32^3, L 10, 1.02 Q reads ME 1.0046 "
    "from the reference's M and E but x0 -0.0017 from its c_q, on opposite "
    "sides of the threshold, and classify raises 'ME > 1 and x0 > 0 must "
    "agree'; at 48^3, L 12 both read below (ME 0.9968, x0 -0.0395). Kept "
    "strict until an error band on the reference scalars (ROADMAP item 10, "
    "reference_unresolved) turns the straddle into a verdict.",
)
def test_classify_near_q_on_a_coarse_reference_returns_a_verdict(grid32):
    gs = solve_ground_state(grid32, PotentialSpec(kind="zero"), GAMMA)
    assert gs.converged
    rep = classify(Field(grid32, 1.02 * gs.field.values), PotentialSpec(), gs)
    assert rep.verdict in VERDICTS


def test_classify_constant_phase_gauge(gs_wide):
    u = chirped(gs_wide, 1.1, -0.2)
    rep1 = classify(u, PotentialSpec(kind="zero"), gs_wide)
    rep2 = classify(Field(u.grid, np.exp(1.3j) * u.values), PotentialSpec(kind="zero"), gs_wide)
    assert rep2.verdict == rep1.verdict == "BlowUp"
    assert rep2.me == pytest.approx(rep1.me, rel=1e-12)
    assert rep2.x0 == pytest.approx(rep1.x0, rel=1e-12)
    assert rep2.I1_0 == pytest.approx(rep1.I1_0, rel=1e-10)


def test_classify_sigma_gate(gs48):
    # at half_length 10 the tail of Q itself trips the outer-shell gate
    rep = classify(gs48.field, PotentialSpec(kind="zero"), gs48)
    assert not rep.sigma_membership["satisfied"]
    assert "sigma_membership" in rep.failed_blowup
    assert rep.verdict == "Indeterminate"
    assert any("localized" in n for n in rep.notes)


def test_classify_branch_validation(gs_wide):
    well = PotentialSpec(kind="gaussian_bump", amplitude=-0.5, sigma=1.0)
    with pytest.raises(ValueError, match="pinned"):
        classify(gs_wide.field, well, gs_wide)


def test_classify_pinned_branch(grid48):
    well = PotentialSpec(kind="gaussian_bump", amplitude=-0.5, sigma=1.0)
    gsp = solve_ground_state(grid48, well, GAMMA)
    assert gsp.converged
    # free potential with a pinned reference is rejected
    with pytest.raises(ValueError, match="free"):
        classify(gsp.field, PotentialSpec(kind="zero"), gsp)
    rep = classify(gsp.field, well, gsp)
    assert rep.branch == "pinned"
    assert rep.verdict in VERDICTS
    assert rep.admissibility["admissible"]
    # 2V + x.grad V of a gaussian well changes sign, so neither sign
    # hypothesis can hold and the convexity weight conditions both fail
    assert rep.sign_2V_xgradV == "mixed"
    json.dumps(asdict(rep))


def test_subthreshold_predictions(gs_wide):
    def subthreshold(u):
        return classify(u, PotentialSpec(kind="zero"), gs_wide).subthreshold

    rec = subthreshold(Field(gs_wide.field.grid, 0.5 * gs_wide.field.values))
    assert rec["verdict"] == "GlobalScattersPredicted"
    assert rec["margin"] < 0.0
    assert rec["regime"] == "heuristic-extension"
    rec2 = subthreshold(Field(gs_wide.field.grid, 1.1 * gs_wide.field.values))
    assert rec2["verdict"] == "BlowUpPredicted"
    assert rec2["margin"] > 0.0
    # E < 0 has no defined ME, so the comparison is not applicable
    rec3 = subthreshold(Field(gs_wide.field.grid, 1.3 * gs_wide.field.values))
    assert rec3["verdict"] == "NotApplicable"
    # ME > 1 likewise
    rec4 = subthreshold(chirped(gs_wide, 1.1, -0.2))
    assert rec4["verdict"] == "NotApplicable"
    # V >= 0, V != 0 keeps the free reference, and each prediction names the
    # sign hypothesis that V breaks: the bump's weight V (2 - 2 r^2) changes
    # sign, and x.grad V > 0 between the origin and the off-centre bump's peak
    grid = gs_wide.field.grid
    bump = PotentialSpec(kind="gaussian_bump", amplitude=0.05, sigma=1.0)
    off = PotentialSpec(kind="grid_sampled", values=0.05 * np.exp(-(grid.r_sq - 2.0 * grid.coords[0] + 1.0)))
    for potential, scale, verdict, me, note in (
        (bump, 1.1, "BlowUpPredicted", 0.8465, "gradient growth additionally needs 2V + x.grad V >= 0, "
         "which fails here; only persistence above the product threshold is predicted"),
        (off, 0.5, "GlobalScattersPredicted", 0.3526, "scattering additionally needs x.grad V <= 0, "
         "which fails here; only persistence below the product threshold is predicted"),
    ):
        rep = classify(Field(grid, scale * gs_wide.field.values), potential, gs_wide)
        assert rep.branch == "free"
        assert rep.me == pytest.approx(me, abs=1e-4)
        assert rep.subthreshold["verdict"] == verdict
        assert rep.subthreshold["notes"][0] == note


def test_subthreshold_needs_a_nonnegative_potential():
    # a well has a negative part, so its reference is pinned and the
    # sub-threshold comparison, stated for V >= 0, does not apply
    well = PotentialSpec(kind="gaussian_bump", amplitude=-0.5, sigma=1.0)
    gsp = solve_ground_state(Grid(3, 32, 10.0), well, GAMMA)
    assert gsp.converged
    rep = classify(Field(gsp.field.grid, 0.5 * gsp.field.values), well, gsp)
    assert rep.branch == "pinned" and rep.me < 1.0
    assert rep.subthreshold["verdict"] == "NotApplicable"
    assert rep.subthreshold["notes"] == ["V takes negative values; the sub-threshold result needs V >= 0"]


def test_subthreshold_embedded_in_dichotomy_report(gs_wide):
    rep = classify(Field(gs_wide.field.grid, 0.5 * gs_wide.field.values),
                   PotentialSpec(kind="zero"), gs_wide)
    assert rep.subthreshold["verdict"] == "GlobalScattersPredicted"
    # sub-threshold data cannot satisfy the super-threshold ME hypothesis
    assert rep.verdict == "Indeterminate"
