"""Through-thickness profiles: closed forms, constraints, thickness."""

import warnings

import numpy as np
import pytest
from types import SimpleNamespace

from plate_reduce import (
    CiarletGeymonat,
    ExactIncompressibleProfile,
    Gent,
    HyperbolicProfile,
    NeoHookean,
    PolyProfile,
    ProfileConstraintError,
    SaintVenantKirchhoff,
    catalog_surface,
    cg_profile,
    deformed_thickness,
    evaluate_jet,
    exact_invariants_from_jet,
    incompressible_profile,
    incompressible_profile_general,
    integrate_contents,
    invariant_series,
    order_of_residual,
    series_contents,
    solve_svk_profile_ode,
    svk_profile,
    through_thickness_energy_from_jet,
    verify_orientation,
)


def jet_of(name, x):
    return evaluate_jet(catalog_surface(name), np.array(x))


# ---------------------------------------------------------------------------
# cubic carrier


def test_poly_profile_evaluation():
    profile = PolyProfile(1.5, -0.5, 0.2)
    assert profile.phi(0.0) == 0.0
    assert profile.dphi(0.0) == 1.5
    x3, d = 0.3, 1e-6
    fd = (profile.phi(x3 + d) - profile.phi(x3 - d)) / (2.0 * d)
    assert fd == pytest.approx(profile.dphi(x3), abs=1e-9)


def test_poly_profile_requires_positive_slope():
    with pytest.raises(ValueError, match="positive"):
        PolyProfile(0.0)
    with pytest.raises(ValueError, match="positive"):
        PolyProfile(-1.0, 0.5)


# ---------------------------------------------------------------------------
# volume-preserving cubic profiles


def test_incompressible_profile_on_the_cylinder():
    profile = incompressible_profile(jet_of("cylinder", (0.05, -0.3)))
    assert profile.alpha == 1.0
    assert profile.beta == pytest.approx(0.5, abs=1e-14)
    assert profile.gamma == pytest.approx(0.5, abs=1e-14)


def test_incompressible_profile_rejects_area_distortion():
    jet = jet_of("sphere_cap", (0.25, -0.15))
    with pytest.raises(ProfileConstraintError,
                       match="incompressible_profile_general"):
        incompressible_profile(jet)


def test_general_profile_keeps_volume_through_quadratic_order():
    jet = jet_of("sphere_cap", (0.25, -0.15))
    profile = incompressible_profile_general(jet)
    assert profile.alpha == pytest.approx(1.0 / np.sqrt(jet.detC), rel=1e-14)
    series = invariant_series(jet, profile)
    residual = lambda x3: abs(series.exact(x3)[2] - 1.0)
    big, small = residual(1e-2), residual(1e-3)
    assert small <= 1e-8
    assert 800.0 <= big / small <= 1250.0


def test_general_profile_rejects_nonpositive_determinant():
    with pytest.raises(ProfileConstraintError, match="positive"):
        incompressible_profile_general(SimpleNamespace(detC=-1.0, H=0.0,
                                                       K=0.0))


# ---------------------------------------------------------------------------
# exact volume-preserving profile


def test_exact_profile_solves_the_fiber_cubic():
    jet = jet_of("cylinder", (0.05, -0.3))
    profile = ExactIncompressibleProfile(jet)
    for x3 in (0.3, -0.3, 0.45):
        phi = profile.phi(x3)
        anti = phi + jet.H * phi ** 2 + jet.K * phi ** 3 / 3.0
        assert anti == pytest.approx(x3 / np.sqrt(jet.detC), abs=1e-14)
        # half-curvature cylinder: phi = 1 - sqrt(1 - 2 x3)
        assert phi == pytest.approx(1.0 - np.sqrt(1.0 - 2.0 * x3), abs=1e-13)
    assert profile.phi(0.0) == 0.0


@pytest.mark.parametrize("name,x", [("cylinder", (0.05, -0.3)),
                                    ("sphere_cap", (0.25, -0.15))])
def test_exact_profile_has_unit_fiber_determinant(name, x):
    jet = jet_of(name, x)
    profile = ExactIncompressibleProfile(jet)
    for x3 in (0.2, -0.15):
        assert exact_invariants_from_jet(jet, profile, x3)[2] == \
            pytest.approx(1.0, abs=1e-12)
        area = 1.0 + 2.0 * jet.H * profile.phi(x3) + jet.K * profile.phi(x3) ** 2
        assert profile.dphi(x3) == \
            pytest.approx(1.0 / (np.sqrt(jet.detC) * area), rel=1e-12)


def test_exact_profile_solves_its_cubic_to_rounding():
    # tiny offsets included: the root is resolved relative to its size
    rng = np.random.default_rng(11)
    for _ in range(200):
        jet = SimpleNamespace(H=rng.uniform(-2.0, 2.0), K=rng.uniform(-3.0, 3.0),
                              detC=rng.uniform(0.5, 2.0))
        profile = ExactIncompressibleProfile(jet)
        for x3 in (1e-9, -1e-6, 0.05, -0.1):
            phi = profile.phi(x3)
            anti = phi + jet.H * phi ** 2 + jet.K * phi ** 3 / 3.0
            assert anti == pytest.approx(x3 / np.sqrt(jet.detC), rel=1e-14, abs=0.0)


def test_exact_profile_brackets_up_to_the_area_zero():
    # the area factor 1 + 2 H p + K p^2 vanishes at p = 0.4 and 0.7, and
    # A(p) = p + H p^2 + K p^3 / 3 peaks at A(0.4) = 0.16190 before it
    jet = SimpleNamespace(H=-1.9643, K=3.5714, detC=1.0)
    profile = ExactIncompressibleProfile(jet)
    phi = profile.phi(0.161)
    anti = phi + jet.H * phi ** 2 + jet.K * phi ** 3 / 3.0
    assert anti == pytest.approx(0.161, rel=1e-14, abs=0.0)
    assert 0.0 < phi < 0.4
    with pytest.raises(ProfileConstraintError, match="orientation"):
        profile.phi(0.17)


def test_exact_profile_detects_orientation_loss():
    profile = ExactIncompressibleProfile(jet_of("cylinder", (0.05, -0.3)))
    with pytest.raises(ProfileConstraintError, match="orientation"):
        profile.phi(0.6)


# ---------------------------------------------------------------------------
# model-specific minimizing profiles


def test_cg_profile_slope():
    material = CiarletGeymonat.from_lame(1.0, 1.0)
    jet = SimpleNamespace(trC=3.0, detC=2.0, H=0.0, K=0.0, b1=0.0)
    profile = cg_profile(jet, material)
    # alpha = sqrt((a+b) / (a + b detC))
    assert profile.alpha == pytest.approx(np.sqrt(0.75 / 1.0), rel=1e-14)
    assert profile.beta == 0.0 and profile.gamma == 0.0


def test_cg_profile_quadratic_coefficient_minimizes_bending():
    material = CiarletGeymonat.from_lame(1.0, 1.0)
    jet = jet_of("sphere_cap", (0.25, -0.15))
    best = cg_profile(jet, material)
    w_best = series_contents(jet, material, best, "series").bending
    for delta in (1e-3, -1e-3):
        worse = PolyProfile(best.alpha, best.beta + delta, best.gamma)
        assert series_contents(jet, material, worse, "series").bending > w_best


def test_svk_profile_closed_coefficients():
    profile = svk_profile(-0.5, 1.0, 1.0, 1e-3)
    assert profile.beta == pytest.approx(1.0 / 6.0, abs=1e-15)
    assert profile.gamma == pytest.approx(2.0 * profile.alpha * 0.25 / 3.0,
                                          abs=1e-15)
    # alpha_bar = 1 - (4/9) (2 H h)^2 / 2 + O(h^4) at these constants
    assert (1.0 - profile.alpha) / 1e-6 == pytest.approx(4.0 / 9.0, abs=1e-6)


def test_svk_profile_flat_limit():
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        profile = svk_profile(0.0, 1.0, 1.0, 0.1)
        assert profile.xi == np.inf
    assert profile.alpha == pytest.approx(1.0, abs=1e-15)
    assert profile.phi(0.05) == pytest.approx(0.05, abs=1e-15)
    assert profile.dphi(0.05) == pytest.approx(1.0, abs=1e-15)
    with pytest.raises(ValueError, match="positive"):
        svk_profile(-0.5, 1.0, 1.0, 0.0)


@pytest.mark.parametrize("H", [np.nan, np.inf, -np.inf])
def test_svk_profile_rejects_a_non_finite_H_before_cosh(H):
    # rejected before cosh runs, so without a RuntimeWarning, and in every
    # row before the overflow test that H = 1e4 would fail
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ValueError) as info:
            svk_profile(H, 1.0, 1.0, 0.1)
        assert str(info.value) == f"the SVK profile needs a finite H, got {H:g}"
        with pytest.raises(ValueError) as info:
            svk_profile(np.array([0.1, H, 1e4]), 1.0, 1.0, np.array([0.1, 0.2, 0.1]))
        assert info.value.index == 1
        assert str(info.value) == f"the SVK profile needs a finite H, got {H:g}"
        # the constructor rejects it too: phi and xi were once nan
        with pytest.raises(ValueError) as info:
            HyperbolicProfile(H=H, lam=1.0, mu=1.0, h=0.1, alpha_bar=1.0)
        assert str(info.value) == f"the SVK profile needs a finite H, got {H:g}"


def test_svk_profile_overflow_raises_without_a_runtime_warning():
    # cosh(2 H h) overflows, or lam and mu underflow to 0 / 0: numpy's
    # warnings stay inside, and only the documented OverflowError leaves
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for H, index in ((1e4, 0), (np.array([0.5, 1e4]), 1)):
            with pytest.raises(OverflowError) as info:
                svk_profile(H, 1.0, 1.0, 0.1)
            assert str(info.value) == "the SVK profile at H = 10000, h = 0.1"
            assert info.value.index == index
        with pytest.raises(OverflowError) as info:
            svk_profile(0.0, 1e-200, 1e-300, 0.001)
        assert str(info.value) == "the SVK profile at H = 0, h = 0.001"


def test_hyperbolic_profile_consistency_and_validation():
    profile = svk_profile(-0.5, 1.0, 1.0, 0.05)
    for x3 in (0.02, -0.035):
        d = 1e-6
        fd = (profile.phi(x3 + d) - profile.phi(x3 - d)) / (2.0 * d)
        assert fd == pytest.approx(profile.dphi(x3), abs=1e-9)
    with pytest.raises(ValueError, match="Lame"):
        HyperbolicProfile(H=-0.5, lam=-1.0, mu=1.0, h=0.05, alpha_bar=1.0)
    with pytest.raises(ValueError, match="half thickness"):
        HyperbolicProfile(H=-0.5, lam=1.0, mu=1.0, h=0.0, alpha_bar=1.0)
    with pytest.raises(ValueError, match="slope"):
        HyperbolicProfile(H=0.0, lam=1.0, mu=1.0, h=0.05, alpha_bar=0.0)
    # xi is derived from the slope: alpha_bar / (2 H), and inf at H = 0
    assert profile.xi == profile.alpha_bar / (2.0 * profile.H)
    assert HyperbolicProfile(H=-0.0, lam=1.0, mu=1.0, h=0.05, alpha_bar=1.0).xi == np.inf
    with pytest.raises(TypeError):
        HyperbolicProfile(H=-0.5, lam=1.0, mu=1.0, h=0.05, xi=-1.0)


@pytest.mark.parametrize("profile", [
    ExactIncompressibleProfile(jet_of("cylinder", (0.05, -0.3))),
    svk_profile(-0.5, 1.0, 1.0, 0.05),
    svk_profile(0.0, 1.0, 1.0, 0.1),
], ids=["exact_incompressible", "hyperbolic", "hyperbolic_flat"])
def test_profiles_take_array_offsets_as_their_scalar_calls(profile):
    # 1e-6 and -3e-5 take the sinh(z)/z series of the hyperbolic profile
    x3 = np.array([[-0.04, 0.0, 1e-6], [0.02, -3e-5, 0.045]])
    for what in (profile.phi, profile.dphi):
        assert what(x3).tolist() == [[what(t) for t in row] for row in x3.tolist()]


# ---------------------------------------------------------------------------
# deformed thickness


def test_deformed_thickness_cylinder_closed_form():
    jet = jet_of("cylinder", (0.05, -0.3))
    profile = ExactIncompressibleProfile(jet)
    h = 0.3
    expected = np.sqrt(1.0 + 2.0 * h) - np.sqrt(1.0 - 2.0 * h)
    assert deformed_thickness(profile, h) == pytest.approx(expected,
                                                           abs=1e-12)


def test_deformed_thickness_linear_profile():
    assert deformed_thickness(PolyProfile(1.0), 0.2) == \
        pytest.approx(0.4, abs=1e-15)
    with pytest.raises(ValueError, match="positive"):
        deformed_thickness(PolyProfile(1.0), -0.1)


# ---------------------------------------------------------------------------
# the half-thickness rule


HALF_THICKNESS_USERS = {
    "HyperbolicProfile": lambda h: HyperbolicProfile(
        H=-0.5, lam=1.0, mu=1.0, h=h, alpha_bar=1.0),
    "svk_profile": lambda h: svk_profile(-0.5, 1.0, 1.0, h),
    "deformed_thickness": lambda h: deformed_thickness(PolyProfile(1.0), h),
    "integrate_contents": lambda h: integrate_contents(
        catalog_surface("cylinder"), Gent(mu=1.0, jm=10.0), h, grid=(4, 4)),
    "through_thickness_energy_from_jet": lambda h: through_thickness_energy_from_jet(
        jet_of("cylinder", (0.05, -0.3)), NeoHookean(mu=1.0), PolyProfile(1.0), h),
    "solve_svk_profile_ode": lambda h: solve_svk_profile_ode(-0.5, 1.0, 1.0, h),
    "order_of_residual": lambda h: order_of_residual(lambda x: x ** 2, [1.0, 0.1, 0.01, h]),
    "verify_orientation": lambda h: verify_orientation(
        catalog_surface("cylinder"), lambda jet: PolyProfile(1.0), h),
    "SaintVenantKirchhoff.profile": lambda h: SaintVenantKirchhoff(1.0, 1.0).profile(
        jet_of("cylinder", (0.05, -0.3)), h),
}


@pytest.mark.parametrize("h", [0.0, -1e-3, np.nan, np.inf, None])
@pytest.mark.parametrize("user", HALF_THICKNESS_USERS)
def test_every_half_thickness_user_rejects_a_bad_h(user, h):
    with pytest.raises(ValueError, match="half thickness must be positive and finite"):
        HALF_THICKNESS_USERS[user](h)


@pytest.mark.parametrize("h", [0.0, -1e-3, np.nan, np.inf])
@pytest.mark.parametrize("user", ["svk_profile", "through_thickness_energy_from_jet"])
def test_an_array_half_thickness_names_its_first_bad_element(user, h):
    with pytest.raises(ValueError) as err:
        HALF_THICKNESS_USERS[user](np.array([1e-3, 2e-3, h, -1.0]))
    assert str(err.value) == f"half thickness must be positive and finite, got {h:g}"
    assert err.value.index == 2
