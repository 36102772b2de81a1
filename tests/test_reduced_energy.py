"""Closed-form plate energy contents against series and quadrature routes."""

import numpy as np
import pytest
from types import SimpleNamespace

from plate_reduce import (
    CiarletGeymonat,
    ExactIncompressibleProfile,
    Gent,
    MaterialDomainError,
    MooneyRivlin,
    NeoHookean,
    SaintVenantKirchhoff,
    StiffeningLimitError,
    catalog_surface,
    cg_bending_closed,
    cg_bending_lame,
    cg_contents,
    cg_profile,
    cg_small_strain_contents,
    cg_stretching_closed,
    coupling_stationary_angles,
    eigenframe_coupling,
    energy_series_coefficients,
    evaluate_jet,
    evaluate_jets,
    fit_h_powers,
    gent_contents,
    gent_contents_general,
    gent_contents_unimodular,
    incompressible_profile_general,
    integrate_contents,
    invariant_series,
    point_contents,
    series_contents,
    svk_content,
    through_thickness_energy_from_jet,
)
from plate_reduce import reduced_energy
from plate_reduce.materials import MODELS, MaterialModel

H_STRETCH = (1e-2, 5e-3, 2e-3, 1e-3, 5e-4)
H_BEND = (1e-3, 5e-4, 2e-4, 1e-4, 5e-5)


def jet_of(name, x, **kwargs):
    return evaluate_jet(catalog_surface(name, **kwargs), np.array(x))


def oracle_fit(jet, material, profile, hs):
    energies = [through_thickness_energy_from_jet(jet, material, profile, h)
                for h in hs]
    return fit_h_powers(hs, energies)


# ---------------------------------------------------------------------------
# Gent


@pytest.mark.parametrize("jm", [5.0, 10.0, 1e6])
def test_gent_bending_on_an_isometry_is_jm_independent(jm):
    contents = gent_contents(jet_of("cylinder", (0.05, -0.3)), 1.0, jm)
    assert contents.formula_id == "gent_unimodular"
    assert contents.stretching == 0.0
    assert contents.bending == pytest.approx(4.0 / 3.0, rel=1e-12)


def test_gent_stretching_on_a_uniform_stretch():
    contents = gent_contents(jet_of("uniform_stretch", (0.1, 0.2)), 1.0, 10.0)
    assert contents.stretching == pytest.approx(-10.0 * np.log(0.775),
                                                rel=1e-12)
    assert contents.stretching == pytest.approx(2.5489224962879007, rel=1e-12)
    assert contents.bending == 0.0


@pytest.mark.parametrize("name,x", [("cylinder", (0.05, -0.3)),
                                    ("uniform_stretch", (0.1, 0.2)),
                                    ("gaussian_bump", (0.3, 0.2))])
def test_gent_general_form_reduces_to_unimodular(name, x):
    jet = jet_of(name, x)
    uni = gent_contents_unimodular(jet, 1.0, 10.0)
    gen = gent_contents_general(jet, 1.0, 10.0)
    assert gen.stretching == pytest.approx(uni.stretching, abs=1e-12)
    assert gen.bending == pytest.approx(uni.bending, rel=1e-12, abs=1e-12)


def test_gent_general_form_against_series_and_quadrature():
    jet = jet_of("sphere_cap", (0.25, -0.15))
    material = Gent(mu=1.0, jm=10.0)
    closed = gent_contents(jet, 1.0, 10.0)
    assert closed.formula_id == "gent_general"

    by_series = series_contents(jet, material,
                                incompressible_profile_general(jet), "series")
    assert by_series.stretching == pytest.approx(closed.stretching, rel=1e-10)
    assert by_series.bending == pytest.approx(closed.bending, rel=1e-12)

    profile = ExactIncompressibleProfile(jet)
    assert oracle_fit(jet, material, profile, H_STRETCH).c1 == \
        pytest.approx(closed.stretching, rel=2e-5)
    assert oracle_fit(jet, material, profile, H_BEND).c3 == \
        pytest.approx(closed.bending, rel=1e-5)


def test_gent_bending_approaches_the_stiff_limit_like_one_over_jm():
    jet = jet_of("gaussian_bump", (0.3, 0.2))
    limit = (16.0 * jet.H ** 2 - jet.K * (jet.trC + 2.0)) / 3.0
    gap = lambda jm: abs(gent_contents(jet, 1.0, jm).bending - limit)
    assert gap(1e3) / gap(1e4) == pytest.approx(10.0, rel=0.01)


def test_gent_stiffening_limits_raise():
    flat = SimpleNamespace(trC=13.0, detC=1.0, H=0.0, K=0.0, b1=0.0,
                           derivative_mode="analytic")
    with pytest.raises(StiffeningLimitError, match="extensibility limit"):
        gent_contents_unimodular(flat, 1.0, 10.0)
    squeezed = SimpleNamespace(trC=3.0, detC=0.05, H=0.0, K=0.0, b1=0.0,
                               derivative_mode="analytic")
    with pytest.raises(StiffeningLimitError, match="not positive"):
        gent_contents_general(squeezed, 1.0, 10.0)


# ---------------------------------------------------------------------------
# Ciarlet-Geymonat


def test_cg_closed_forms_agree_on_random_jets():
    rng = np.random.default_rng(42)
    for _ in range(200):
        a, b = rng.uniform(0.2, 3.0, 2)
        material = CiarletGeymonat(a=a, b=b)
        jet = SimpleNamespace(trC=rng.uniform(1.5, 5.0),
                              detC=rng.uniform(0.4, 3.0),
                              H=rng.uniform(-1.5, 1.5),
                              K=rng.uniform(-2.0, 2.0),
                              b1=rng.uniform(-3.0, 3.0))
        contents = cg_contents(jet, material)
        scale_s = max(abs(contents.stretching), 1e-12)
        scale_b = max(abs(contents.bending), 1e-12)
        assert abs(cg_stretching_closed(jet, material)
                   - contents.stretching) <= 1e-10 * scale_s
        assert abs(cg_bending_closed(jet, material)
                   - contents.bending) <= 1e-10 * scale_b
        assert abs(cg_bending_lame(jet, 4.0 * b, 2.0 * a)
                   - contents.bending) <= 1e-10 * scale_b


def test_cg_contents_against_quadrature_on_the_sphere():
    jet = jet_of("sphere_cap", (0.25, -0.15))
    material = CiarletGeymonat.from_lame(2.0, 0.8)
    contents = cg_contents(jet, material)
    assert contents.formula_id == "cg_minimizing_profile"
    assert cg_stretching_closed(jet, material) == \
        pytest.approx(contents.stretching, rel=1e-12)
    assert cg_bending_closed(jet, material) == \
        pytest.approx(contents.bending, rel=1e-12)

    profile = cg_profile(jet, material)
    assert oracle_fit(jet, material, profile, H_STRETCH).c1 == \
        pytest.approx(contents.stretching, rel=1e-5)
    assert oracle_fit(jet, material, profile, H_BEND).c3 == \
        pytest.approx(contents.bending, rel=1e-5)


def test_cg_small_strain_contents():
    quad = cg_small_strain_contents(np.zeros((2, 2)), -0.5, 0.0, 1.0, 1.0)
    assert quad.formula_id == "cg_small_strain"
    assert quad.stretching == 0.0
    assert quad.bending == pytest.approx(8.0 / 9.0, rel=1e-14)
    with_k = cg_small_strain_contents(np.zeros((2, 2)), -0.5, 1.0, 1.0, 1.0)
    assert with_k.bending == pytest.approx(8.0 / 9.0 - 4.0 / 3.0, rel=1e-14)
    # membrane term: 2 lam mu / (lam + 2 mu) tr^2 E + 2 mu tr E^2
    E = np.array([[0.1, 0.02], [0.02, -0.03]])
    w1 = cg_small_strain_contents(E, 0.0, 0.0, 1.3, 0.7).stretching
    expected = (2.0 * 1.3 * 0.7 / (1.3 + 1.4) * np.trace(E) ** 2
                + 1.4 * np.trace(E @ E))
    assert w1 == pytest.approx(expected, rel=1e-14)


# ---------------------------------------------------------------------------
# Saint Venant-Kirchhoff


def test_svk_content_frozen_values():
    contents = svk_content(-0.5, 0.0, 1.0, 1.0)
    assert contents.formula_id == "svk_isometry"
    assert contents.stretching == 0.0
    assert contents.bending == pytest.approx(8.0 / 9.0, rel=1e-14)
    assert svk_content(-0.5, 1.0, 1.0, 1.0).bending == \
        pytest.approx(8.0 / 9.0 - 4.0 / 3.0, rel=1e-14)


def test_svk_and_cg_share_the_small_strain_bending_content():
    for (H, K, lam, mu) in ((0.7, -0.3, 1.3, 0.7), (-0.5, 0.2, 2.0, 0.8)):
        assert svk_content(H, K, lam, mu).bending == \
            pytest.approx(cg_small_strain_contents(
                np.zeros((2, 2)), H, K, lam, mu).bending, rel=1e-14)


# ---------------------------------------------------------------------------
# eigenframe coupling


def test_eigenframe_coupling_frozen_case():
    k1, k2, l1 = 1.0, 2.0, np.sqrt(1.5)
    # quadratic factors A = -1/6, B = 2/3
    assert eigenframe_coupling(k1, k2, l1, 0.0) == \
        pytest.approx(1.0 / 36.0, rel=1e-12)
    assert eigenframe_coupling(k1, k2, l1, 0.5 * np.pi) == \
        pytest.approx(4.0 / 9.0, rel=1e-12)
    angles = coupling_stationary_angles(k1, k2, l1)
    assert len(angles) == 3
    assert angles[0] == 0.0 and angles[2] == pytest.approx(0.5 * np.pi)
    assert angles[1] == pytest.approx(np.arctan(0.5), abs=1e-14)
    assert np.tan(angles[1]) ** 2 == pytest.approx(0.25, rel=1e-12)
    assert eigenframe_coupling(k1, k2, l1, angles[1]) <= 1e-30


def test_eigenframe_coupling_degenerate_cases():
    # both factors positive: no interior zero
    assert len(coupling_stationary_angles(1.0, 2.0, np.sqrt(3.0))) == 2
    # equal curvatures: coupling constant in the angle
    vals = [eigenframe_coupling(1.3, 1.3, 1.7, p)
            for p in np.linspace(0.0, 0.5 * np.pi, 101)]
    assert max(vals) - min(vals) <= 1e-12
    # identity stretch: coupling vanishes identically
    assert all(eigenframe_coupling(1.0, 2.0, 1.0, p) == 0.0
               for p in np.linspace(0.0, 0.5 * np.pi, 101))
    with pytest.raises(ValueError, match="positive"):
        eigenframe_coupling(1.0, 2.0, 0.0, 0.3)


def test_eigenframe_coupling_over_an_angle_array():
    k1, k2, l1 = 1.0, 2.0, np.sqrt(1.5)
    phis = np.linspace(0.0, 0.5 * np.pi, 2001).reshape(3, 667)
    values = eigenframe_coupling(k1, k2, l1, phis)
    assert values.shape == phis.shape
    scalar = np.array([[eigenframe_coupling(k1, k2, l1, p) for p in row]
                       for row in phis])
    assert isinstance(eigenframe_coupling(k1, k2, l1, 0.3), float)
    # vectorized sin/cos may differ from the scalar ones in the last bit
    assert np.max(np.abs(values - scalar)) <= 1e-15
    assert np.unravel_index(np.argmin(values), phis.shape) == \
        np.unravel_index(np.argmin(scalar), phis.shape)


# ---------------------------------------------------------------------------
# series machinery and dispatch


def test_energy_series_coefficients_on_the_cylinder():
    jet = jet_of("cylinder", (0.05, -0.3))
    series = invariant_series(jet, incompressible_profile_general(jet))
    w0, w2 = energy_series_coefficients(Gent(mu=1.0, jm=10.0), series)
    assert abs(w0) <= 1e-14
    assert w2 == pytest.approx(2.0, rel=1e-12)  # (2/3) w2 = 4/3


def test_energy_series_coefficients_reject_svk():
    jet = jet_of("cylinder", (0.05, -0.3))
    series = invariant_series(jet, incompressible_profile_general(jet))
    with pytest.raises(TypeError, match="invariant representation"):
        energy_series_coefficients(SaintVenantKirchhoff(lam=1.0, mu=1.0),
                                   series)


def test_point_contents_dispatch():
    cylinder = jet_of("cylinder", (0.05, -0.3))
    sphere = jet_of("sphere_cap", (0.25, -0.15))
    assert point_contents(cylinder, Gent(mu=1.0, jm=10.0)).formula_id == \
        "gent_unimodular"
    assert point_contents(sphere, Gent(mu=1.0, jm=10.0)).formula_id == \
        "gent_general"
    assert point_contents(sphere, CiarletGeymonat.from_lame(1.0, 1.0)
                          ).formula_id == "cg_minimizing_profile"
    assert point_contents(cylinder, NeoHookean(mu=1.0)).formula_id == \
        "neo_hookean_series"
    assert point_contents(sphere, MooneyRivlin(mu=1.0, chi=0.4)).formula_id \
        == "mooney_rivlin_series"
    assert point_contents(cylinder, SaintVenantKirchhoff(lam=1.0, mu=1.0)
                          ).formula_id == "svk_isometry"
    with pytest.raises(TypeError, match="unknown material"):
        point_contents(cylinder, object())


FORMULA_IDS = {"gent_unimodular", "gent_general", "neo_hookean_series",
               "mooney_rivlin_series", "cg_minimizing_profile", "svk_isometry"}
CATALOG = ("plane", "uniform_stretch", "cylinder", "sphere_cap", "saddle",
           "gaussian_bump")


def test_contents_table_names_every_model():
    assert reduced_energy._CONTENTS.keys() == MODELS.keys()


@pytest.mark.parametrize("mode", ["analytic", "finite-difference"])
def test_point_contents_writes_only_the_tabled_formula_ids(mode):
    materials = [Gent(mu=1.0, jm=10.0), NeoHookean(mu=1.0),
                 MooneyRivlin(mu=1.0, chi=0.4), CiarletGeymonat.from_lame(1.0, 1.0),
                 SaintVenantKirchhoff(lam=1.0, mu=1.0)]
    assert {type(m) for m in materials} == set(MODELS.values())
    seen = set()
    for name in CATALOG:
        surface = catalog_surface(name, derivative_mode=mode)
        (u0, u1), (v0, v1) = surface.domain
        t = np.array([0.3, 0.5, 0.7])
        jets = evaluate_jets(surface, np.column_stack([u0 + t * (u1 - u0),
                                                       v0 + t[::-1] * (v1 - v0)]))
        for material in materials:
            try:
                ids = point_contents(jets, material).formula_id
            except (MaterialDomainError, StiffeningLimitError):
                continue  # SVK off an isometry
            assert set(ids) <= FORMULA_IDS, (name, material)
            seen |= set(ids)
    assert seen == FORMULA_IDS


def test_point_contents_rejects_a_model_the_table_does_not_name():
    class Unnamed(MaterialModel):
        pass

    class Renamed(NeoHookean):
        name = "renamed"

    jet = jet_of("cylinder", (0.05, -0.3))
    for material in (Unnamed(), Renamed(mu=1.0)):
        with pytest.raises(TypeError, match="no contents rule for"):
            point_contents(jet, material)


def test_point_contents_svk_needs_an_unstretched_surface():
    jet = jet_of("uniform_stretch", (0.1, 0.2))
    with pytest.raises(MaterialDomainError, match="unstretched"):
        point_contents(jet, SaintVenantKirchhoff(lam=1.0, mu=1.0))


def test_mooney_rivlin_collapses_to_neo_hookean_at_chi_one():
    jet = jet_of("gaussian_bump", (0.3, 0.2))
    mr = point_contents(jet, MooneyRivlin(mu=1.3, chi=1.0))
    nh = point_contents(jet, NeoHookean(mu=1.3))
    assert mr.stretching == nh.stretching
    assert mr.bending == nh.bending


@pytest.mark.parametrize("material", [NeoHookean(mu=1.3),
                                      MooneyRivlin(mu=1.3, chi=0.4)],
                         ids=["neo_hookean", "mooney_rivlin"])
def test_incompressible_series_contents_against_quadrature(material):
    jet = jet_of("gaussian_bump", (0.3, 0.2))
    contents = point_contents(jet, material)
    profile = ExactIncompressibleProfile(jet)
    fit_s = oracle_fit(jet, material, profile, H_STRETCH)
    fit_b = oracle_fit(jet, material, profile, H_BEND)
    assert fit_s.c1 == pytest.approx(contents.stretching, rel=2e-4)
    assert fit_b.c3 == pytest.approx(contents.bending, rel=3e-5)


# ---------------------------------------------------------------------------
# area integration


def test_integrate_contents_on_the_plane_is_zero():
    totals = integrate_contents(catalog_surface("plane"), Gent(mu=1.0, jm=10.0),
                                0.01)
    assert totals == (0.0, 0.0, 0.0)


def test_integrate_contents_on_the_cylinder():
    total_s, total_b, energy = integrate_contents(
        catalog_surface("cylinder"), Gent(mu=1.0, jm=10.0), 0.01, grid=(6, 6))
    assert total_s == 0.0
    assert total_b == pytest.approx(4.0 / 3.0, rel=1e-12)
    assert energy == pytest.approx(1e-6 * 4.0 / 3.0, rel=1e-12)


def test_integrate_contents_guards():
    with pytest.raises(ValueError, match="must be positive"):
        integrate_contents(catalog_surface("plane"), Gent(mu=1.0, jm=10.0),
                           -0.01)
    overstretched = catalog_surface("uniform_stretch", l1=4.0, l2=0.25)
    with pytest.raises(StiffeningLimitError, match="at grid node"):
        integrate_contents(overstretched, Gent(mu=1.0, jm=10.0), 0.01,
                           grid=(3, 3))
    # a fractional, zero or boolean side is no Gauss-Legendre rule
    for grid in ((2.5, 3), (0, 8), (True, 3)):
        with pytest.raises(ValueError, match=r"grid must be two integers >= 1, "
                                             rf"got \({grid[0]}, {grid[1]}\)"):
            integrate_contents(catalog_surface("plane"), Gent(mu=1.0, jm=10.0),
                               0.01, grid=grid)
