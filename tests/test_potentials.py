"""Potential evaluation, Kato norms, admissibility, and the quadratic-form sandwich."""

import numpy as np
import pytest

from hartreekit.potentials import (
    AdmissibilityReport,
    PotentialSpec,
    check_admissible,
    eval_potential,
    eval_virial_weight,
    kato_constant,
    kato_norm,
    reference_potential,
    value_sign,
)
from hartreekit.runner import kato_ball_defect, kato_sandwich_excess, smooth_random_field
from hartreekit.spectral import Field, Grid, transform_basis


def test_kato_ball_closed_form(grid64):
    # a * 1_{|x|<R}: (-Lap)^{-1} peaks at the center with value a R^2 / 2 in d=3
    a, R = 0.7, 1.5
    v = eval_potential(PotentialSpec(kind="ball_indicator", amplitude=a, radius=R), grid64)
    assert kato_ball_defect(v, a, R) < 1e-2
    assert kato_ball_defect(v, a, 0.8 * R) > 1e-2


def test_kato_norm_scales_linearly(grid32):
    v1 = eval_potential(PotentialSpec(kind="gaussian_bump", amplitude=0.3, sigma=1.0), grid32)
    v2 = eval_potential(PotentialSpec(kind="gaussian_bump", amplitude=0.6, sigma=1.0), grid32)
    assert abs(kato_norm(v2) - 2.0 * kato_norm(v1)) < 1e-10 * kato_norm(v2)


def test_kato_norm_sign_blind(grid32):
    pos = eval_potential(PotentialSpec(kind="gaussian_bump", amplitude=0.4, sigma=1.2), grid32)
    neg = eval_potential(PotentialSpec(kind="gaussian_bump", amplitude=-0.4, sigma=1.2), grid32)
    assert abs(kato_norm(pos) - kato_norm(neg)) < 1e-12


@pytest.mark.parametrize("shift", [0, 3])
def test_kato_norm_is_the_max_over_the_bases_points(grid32, shift):
    """kato_norm reads the max where its basis convolved, bit-equal to the expanded grid's max.

    The centred bump is even and takes the octant; the shifted one takes the
    periodic grid."""
    v = eval_potential(PotentialSpec(kind="gaussian_bump", amplitude=-0.4, sigma=1.2), grid32)
    v = Field(grid32, np.roll(v.values, shift, axis=0))
    absv = np.abs(v.values)
    basis = transform_basis(grid32, absv)
    assert basis.name == ("even_octant" if shift == 0 else "periodic")
    expanded = kato_constant(3) * float(basis.expand(basis.convolve(basis.take(absv), 1.0)).max())
    assert kato_norm(v) == expanded


def test_kato_constant_d3():
    assert abs(kato_constant(3) - 1.0 / (4.0 * np.pi)) < 1e-15


def test_sandwich_bounds_random_pairs(grid32):
    """(1 - ||V||_K) ||grad u||^2 <= hv^2 <= (1 + ||V||_K) ||grad u||^2, 50 draws."""
    rng = np.random.default_rng(404)
    worst = 0.0
    for _ in range(50):
        amp = rng.uniform(0.05, 0.6) * rng.choice([-1.0, 1.0])
        sig = rng.uniform(0.6, 1.5)
        v = eval_potential(PotentialSpec(kind="gaussian_bump", amplitude=amp, sigma=sig), grid32)
        worst = max(worst, kato_sandwich_excess(v, smooth_random_field(grid32, rng)))
    assert worst <= 1e-2
    # the bound needs u to decay inside the box: a near-constant u has almost
    # no gradient but keeps the full potential term
    flat = Field(grid32, 1.0 + smooth_random_field(grid32, rng).values)
    assert kato_sandwich_excess(v, flat) > 1e-2


@pytest.mark.parametrize(
    "spec",
    [
        PotentialSpec(kind="zero"),
        PotentialSpec(kind="gaussian_bump", amplitude=0.4, sigma=1.1),
        PotentialSpec(kind="gaussian_bump", amplitude=-0.3, sigma=0.9),
        PotentialSpec(kind="ball_indicator", amplitude=0.5, radius=1.2),
        PotentialSpec(kind="inverse_poly", amplitude=0.2, exponent=2),
    ],
)
def test_admissibility_report_fields(grid32, spec):
    rep = check_admissible(spec, None if spec.is_zero else eval_potential(spec, grid32), grid32)
    assert isinstance(rep, AdmissibilityReport)
    assert rep.kato_norm_negative_part >= 0.0
    assert rep.kato_norm_full >= rep.kato_norm_negative_part - 1e-12
    assert rep.admissible == (rep.kato_norm_negative_part < 1.0 - 1e-8)
    # raw-integral normalization is the same number divided by C_d
    assert abs(rep.kato_integral_negative_part * rep.kato_constant - rep.kato_norm_negative_part) < 1e-12


def test_admissibility_flags_deep_well(grid32):
    # strongly negative well crosses the coercivity threshold
    def admissibility(amplitude):
        spec = PotentialSpec(kind="gaussian_bump", amplitude=amplitude, sigma=1.5)
        return check_admissible(spec, eval_potential(spec, grid32), grid32)

    rep = admissibility(-40.0)
    assert not rep.admissible
    # an equally large positive barrier has no negative part and stays admissible
    rep2 = admissibility(40.0)
    assert rep2.admissible


def test_sign_classify_virial_weight(grid32):
    def sign(spec):
        return value_sign(eval_virial_weight(spec, grid32).values)

    # inverse_poly p=1: 2V + x.grad V = 2a/(1+r^2)^2, single-signed with a
    assert sign(PotentialSpec(kind="inverse_poly", amplitude=0.4, exponent=1)) == "nonnegative"
    assert sign(PotentialSpec(kind="inverse_poly", amplitude=-0.4, exponent=1)) == "nonpositive"
    # gaussian bump weight changes sign at r = sigma
    assert sign(PotentialSpec(kind="gaussian_bump", amplitude=0.4, sigma=1.0)) == "mixed"
    assert sign(PotentialSpec(kind="zero")) == "zero"


def test_virial_weight_gaussian_analytic(grid32):
    # w = 2V + x . grad V; for V = a exp(-r^2/s^2): w = (2 - 2 r^2/s^2) V
    a, s = 0.37, 1.3
    spec = PotentialSpec(kind="gaussian_bump", amplitude=a, sigma=s)
    v = eval_potential(spec, grid32)
    w = eval_virial_weight(spec, grid32)
    expect = (2.0 - 2.0 * grid32.r_sq / s**2) * v.values
    assert np.allclose(w.values, expect, atol=1e-10 * abs(a))
    # a grid_sampled copy takes x . grad V from the spectral gradient; sigma 2
    # resolves the bump on grid32, where the two agree to ~4e-10 of the sup
    wide = PotentialSpec(kind="gaussian_bump", amplitude=a, sigma=2.0)
    sampled = PotentialSpec(kind="grid_sampled", values=eval_potential(wide, grid32).values)
    expect = eval_virial_weight(wide, grid32).values
    assert np.abs(eval_virial_weight(sampled, grid32).values - expect).max() <= 1e-8 * np.abs(expect).max()


# each analytic kind's closed-form weight against the spectral x.grad V of its
# own sampled V on 64^3, L 8, over the points with max|x_i| <= L/2.  The bound
# is the spectral route's own error there: round-off for the Gaussian; the
# bump's steep rim and inverse_poly's algebraic core hold it near 3e-4 of the sup
_WEIGHT_ROUTES = [
    pytest.param(PotentialSpec(kind="gaussian_bump", amplitude=-0.37, sigma=1.0), 1e-12, id="gaussian_bump"),
    pytest.param(PotentialSpec(kind="smooth_compact_bump", amplitude=0.3, radius=7.6), 1e-3, id="smooth_compact_bump"),
    pytest.param(PotentialSpec(kind="inverse_poly", amplitude=0.3, exponent=1), 1e-3, id="inverse_poly_p1"),
    pytest.param(PotentialSpec(kind="inverse_poly", amplitude=-0.3, exponent=2), 1e-3, id="inverse_poly_p2"),
]


@pytest.mark.parametrize("spec, bound", _WEIGHT_ROUTES)
def test_virial_weight_matches_the_spectral_route_of_its_own_v(spec, bound):
    grid = Grid(3, 64, 8.0)
    w = eval_virial_weight(spec, grid).values
    sampled = PotentialSpec(kind="grid_sampled", values=eval_potential(spec, grid).values)
    inner = np.max(np.abs(np.broadcast_arrays(*grid.coords)), axis=0) <= grid.half_length / 2
    assert np.abs(eval_virial_weight(sampled, grid).values - w)[inner].max() <= bound * np.abs(w).max()


def _dipped(depth):
    """A grid_sampled V >= 0 with sup 1, but for one sample of -depth."""
    grid = Grid(3, 16, 8.0)
    vals = np.exp(-grid.r_sq / 4.0)
    vals /= vals.max()
    vals[0, 0, 0] = -depth
    return PotentialSpec(kind="grid_sampled", values=vals)


_BRANCH_CASES = [
    pytest.param(PotentialSpec(), "own", id="zero"),
    pytest.param(PotentialSpec(kind="gaussian_bump", amplitude=0.0), "own", id="gaussian_bump-amplitude0"),
    pytest.param(_dipped(1e-13), "free", id="grid_sampled-dip1e-13"),
    pytest.param(_dipped(1e-11), "pinned", id="grid_sampled-dip1e-11"),
    pytest.param(PotentialSpec(kind="grid_sampled", values=np.ones((16,) * 3)), "free", id="grid_sampled+"),
    pytest.param(PotentialSpec(kind="grid_sampled", values=-np.ones((16,) * 3)), "pinned", id="grid_sampled-"),
] + [
    pytest.param(PotentialSpec(kind=kind, amplitude=sign * 0.3, **params), branch, id=f"{kind}{'+-'[sign < 0]}")
    for kind, params in (
        ("gaussian_bump", {"sigma": 1.0}),
        ("smooth_compact_bump", {"radius": 2.0}),
        ("inverse_poly", {"exponent": 1}),
        ("ball_indicator", {"radius": 1.5}),
    )
    for sign, branch in ((1, "free"), (-1, "pinned"))
]


@pytest.mark.parametrize("spec, branch", _BRANCH_CASES)
def test_reference_potential_is_free_exactly_when_v_has_no_negative_part(spec, branch):
    # free: V >= 0 up to 1e-12 of its sup; own: a zero spec is its own free reference
    v = None if spec.is_zero else eval_potential(spec, Grid(3, 16, 8.0))
    ref = reference_potential(spec, v)
    if branch == "free":
        assert ref is not spec and ref.to_dict() == {"kind": "zero"}
    else:
        assert ref is spec and ref.is_zero == (branch == "own")


def test_virial_weight_zero_potential(grid32):
    w = eval_virial_weight(PotentialSpec(kind="zero"), grid32)
    assert np.all(w.values == 0.0)


def test_unknown_kind_rejected():
    with pytest.raises(ValueError):
        PotentialSpec(kind="wendigo")


@pytest.mark.parametrize("n", [32, 64])
@pytest.mark.parametrize("spec", [
    PotentialSpec(kind="gaussian_bump", amplitude=-0.5, sigma=1.0),
    PotentialSpec(kind="smooth_compact_bump", amplitude=-0.3, radius=4.0),
    PotentialSpec(kind="inverse_poly", amplitude=-0.05, exponent=2),
], ids=["gaussian_bump", "smooth_compact_bump", "inverse_poly_p2"])
def test_weight_band_error_is_not_below_the_weight_error_of_a_sampled_copy(spec, n):
    # a grid_sampled copy of an analytic V on L 10: the two-level estimate in
    # its admissibility report is not below the true error of its weight on
    # the inner half box, over the sup; an analytic kind and V = 0 report None
    grid = Grid(3, n, 10.0)
    v = eval_potential(spec, grid)
    copy = PotentialSpec(kind="grid_sampled", values=v.values)
    w = eval_virial_weight(spec, grid).values
    inner = np.ix_(*[np.abs(grid.axis) < grid.half_length / 2] * 3)
    error = np.abs(eval_virial_weight(copy, grid).values - w)[inner].max() / np.abs(w).max()
    assert check_admissible(copy, v, grid).weight_band_error >= error
    assert check_admissible(spec, v, grid).weight_band_error is None
    assert check_admissible(PotentialSpec(), None, grid).weight_band_error is None
