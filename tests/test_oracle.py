"""Numerical oracles: power fits, scalar minimization, quadrature, ODE."""

import dataclasses
import os
import subprocess
import sys
import warnings

import numpy as np
import pytest

import plate_reduce

from plate_reduce import (
    BracketError,
    CiarletGeymonat,
    FitError,
    Gent,
    MooneyRivlin,
    NeoHookean,
    ResolutionError,
    SaintVenantKirchhoff,
    StiffeningLimitError,
    catalog_surface,
    cg_profile,
    evaluate_jet,
    exact_invariants_from_jet,
    fit_h_powers,
    incompressible_profile,
    materials,
    minimize_scalar,
    order_of_residual,
    parabolic_refine,
    point_contents,
    solve_svk_profile_ode,
    svk_profile,
    through_thickness_energy,
    through_thickness_energy_from_jet,
)
from plate_reduce.surface_geometry import _gauss_legendre

HS = (1e-2, 5e-3, 2e-3, 1e-3, 5e-4)


# ---------------------------------------------------------------------------
# fit_h_powers


def test_fit_recovers_planted_coefficients():
    energies = [2.0 * h + 5.0 * h ** 3 for h in HS]
    fit = fit_h_powers(HS, energies)
    assert fit.c1 == pytest.approx(2.0, rel=1e-12)
    assert fit.c3 == pytest.approx(5.0, rel=1e-9)
    assert fit.residual_norm <= 1e-10


def test_fit_rejects_bad_samples():
    with pytest.raises(FitError, match="at least 4"):
        fit_h_powers((1e-2, 1e-3, 1e-4), (1.0, 2.0, 3.0))
    with pytest.raises(FitError, match="distinct"):
        fit_h_powers((1e-2, 1e-2, 1e-3, 1e-4), (1.0, 2.0, 3.0, 4.0))
    with pytest.raises(FitError, match="positive"):
        fit_h_powers((1e-2, -1e-3, 1e-3, 1e-4), (1.0, 2.0, 3.0, 4.0))
    with pytest.raises(FitError, match="decade"):
        fit_h_powers((1.0, 0.9, 0.8, 0.7), (1.0, 2.0, 3.0, 4.0))
    with pytest.raises(FitError, match="equally long"):
        fit_h_powers((1e-2, 1e-3, 1e-4, 1e-5), (1.0, 2.0))


def test_fit_rejects_an_h_cubed_column_that_underflows():
    # h^3 rounds to 0.0 at every sample: the h^3 column carries no rank
    hs = [1e-110, 3e-110, 1e-109, 3e-109]
    with pytest.raises(FitError, match="rank-deficient design matrix"):
        fit_h_powers(hs, [2.0 * h for h in hs])


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
@pytest.mark.parametrize("where", ["h", "energy"])
def test_fit_rejects_non_finite_samples(bad, where):
    hs, energies = list(HS), [2.0 * h + 5.0 * h ** 3 for h in HS]
    (hs if where == "h" else energies)[2] = bad
    with pytest.raises(FitError, match="finite"):
        fit_h_powers(hs, energies)


def test_fit_leaves_numpy_ma_unimported():
    # np.unique imports numpy.ma on first use, about 19 ms of a fresh
    # process; the distinctness test must not
    src = os.path.dirname(os.path.dirname(os.path.abspath(plate_reduce.__file__)))
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        [src] + [p for p in [os.environ.get("PYTHONPATH")] if p]))
    proc = subprocess.run(
        [sys.executable, "-c", "import sys; from plate_reduce import fit_h_powers; "
         f"fit_h_powers({HS!r}, [2.0 * h for h in {HS!r}]); "
         "print('numpy.ma' in sys.modules)"],
        capture_output=True, text=True, env=env)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "False"


# ---------------------------------------------------------------------------
# scalar minimization


def test_minimize_scalar_on_a_quadratic():
    x, fx = minimize_scalar(lambda x: (x - 1.3) ** 2 + 2.0, (0.0, 3.0))
    # near the minimum f differences fall below machine precision, so the
    # argmin cannot resolve past ~sqrt(eps)
    assert x == pytest.approx(1.3, abs=1e-7)
    assert fx == pytest.approx(2.0, abs=1e-14)


def test_minimize_scalar_rejects_bad_brackets():
    with pytest.raises(BracketError, match="lo < hi"):
        minimize_scalar(lambda x: x * x, (1.0, 1.0))
    with pytest.raises(BracketError, match="no descent"):
        minimize_scalar(lambda x: -(x - 1.0) ** 2, (0.0, 2.0))


@pytest.mark.parametrize("bracket", [
    (0.0, np.inf), (-np.inf, 0.0), (np.nan, 1.0),
    (np.zeros(3), np.array([1.0, np.inf, 2.0])),
    (np.array([-1.0, -np.inf]), 1.0)],
    ids=["inf-hi", "inf-lo", "nan-lo", "inf-lane", "-inf-lane"])
def test_minimize_scalar_rejects_non_finite_bracket_ends(bracket):
    # an infinite end once returned (nan, nan) after a RuntimeWarning
    calls = []

    def f(x):
        calls.append(x)
        return (x - 0.3) ** 2

    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(BracketError, match="finite ends"):
            minimize_scalar(f, bracket)
    assert calls == []


def test_parabolic_refine_is_exact_on_quadratics():
    refined = parabolic_refine(lambda x: 3.0 * (x - 0.7) ** 2 + 1.0, 0.5, 0.2)
    assert refined == pytest.approx(0.7, abs=1e-12)
    # concave samples leave the estimate untouched
    assert parabolic_refine(lambda x: -x * x, 0.3, 0.1) == 0.3


@pytest.mark.parametrize("x0", [np.nan, np.inf, np.array([0.5, np.nan])],
                         ids=["nan", "inf", "nan-lane"])
def test_parabolic_refine_rejects_a_non_finite_x0(x0):
    # a NaN x0 once returned nan
    calls = []
    with pytest.raises(ValueError, match="parabolic_refine needs a finite x0"):
        parabolic_refine(lambda x: calls.append(x) or x * x, x0, 0.1)
    assert calls == []


def _lane_quartic(centers, scales):
    # one tilted quartic per lane; a scalar center gives the scalar function
    def f(x):
        u2 = (x - centers) * (x - centers)
        return scales * u2 + 0.1 * u2 * u2
    return f


def test_minimize_scalar_lanes_match_scalar_calls_bit_for_bit():
    centers = np.array([0.3, 1.1, -0.7, 2.0, 0.05])
    scales = np.array([1.0, 0.5, 3.0, 2.0, 0.2])
    # widths from 0.2 to 6: the lanes freeze at different iterations
    lo = np.array([0.2, 0.0, -3.0, 1.5, -3.0])
    hi = np.array([0.4, 2.0, 1.0, 3.0, 3.0])
    x, fx = minimize_scalar(_lane_quartic(centers, scales), (lo, hi))
    refined = parabolic_refine(_lane_quartic(centers, scales), x, 1e-4)
    for i in range(len(lo)):
        f = _lane_quartic(float(centers[i]), float(scales[i]))
        xi, fi = minimize_scalar(f, (float(lo[i]), float(hi[i])))
        assert (x[i], fx[i]) == (xi, fi)
        assert refined[i] == parabolic_refine(f, xi, 1e-4)


def test_parabolic_refine_lanes_keep_estimates_that_do_not_curve_up():
    curvature = np.array([3.0, -1.0, 0.0])
    refined = parabolic_refine(lambda x: curvature * (x - 0.7) ** 2,
                               np.full(3, 0.5), 0.2)
    assert refined[0] == pytest.approx(0.7, abs=1e-12)
    assert list(refined[1:]) == [0.5, 0.5]


def test_minimize_scalar_rejects_a_bad_lane():
    f = lambda x: x * x
    with pytest.raises(BracketError, match="lo < hi"):
        minimize_scalar(f, (np.array([-1.0, 1.0, -2.0]),
                            np.array([1.0, 1.0, 2.0])))
    with pytest.raises(BracketError, match="no descent"):
        # the second lane is a concave cap
        minimize_scalar(_lane_quartic(np.array([0.0, 6.0]),
                                      np.array([1.0, -1.0])),
                        (np.array([-1.0, 5.0]), np.array([1.0, 7.0])))


def test_minimize_scalar_rejects_a_nan_probe():
    # every comparison with nan is false: the search once returned the
    # bracket's end with a nan minimum
    f = lambda x: float("nan") if x > 0.7 else (x - 0.6) ** 2
    with pytest.raises(BracketError, match="nan at a probe") as err:
        minimize_scalar(f, (0.0, 1.0))
    assert err.value.index == 0
    lanes = lambda x: np.where((x > 0.7) & (np.arange(3) > 0), np.nan,
                               (x - 0.6) ** 2)
    with pytest.raises(BracketError, match="nan at a probe") as err:
        minimize_scalar(lanes, (np.zeros(3), np.ones(3)))
    assert err.value.index == 1


def test_minimize_scalar_ignores_nan_at_a_frozen_lane():
    # a lane that has frozen is still probed, and that value is dropped
    calls = []

    def f(x):
        calls.append(x)
        values = (x - 0.3) ** 2
        return np.where(len(calls) > 20, [np.nan, values[1]], values)

    lo, hi = np.array([0.3, 0.0]), np.array([0.3 + 1e-9, 1.0])
    x, fx = minimize_scalar(f, (lo, hi))
    for i in range(2):
        xi, fi = minimize_scalar(lambda x: (x - 0.3) ** 2, (lo[i], hi[i]))
        assert (x[i], fx[i]) == (xi, fi)


def test_parabolic_refine_keeps_an_estimate_with_an_infinite_probe():
    # an infinite probe once gave nan, after a numpy RuntimeWarning
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert parabolic_refine(
            lambda x: float("inf") if x > 0.55 else x * x, 0.5, 0.1) == 0.5
        assert parabolic_refine(lambda x: float("inf"), 0.5, 0.1) == 0.5
        refined = parabolic_refine(
            lambda x: np.where(x > 0.55, np.inf, 3.0 * (x - 0.2) ** 2),
            np.array([0.5, 0.1]), 0.1)
    assert refined[0] == 0.5
    assert refined[1] == parabolic_refine(lambda x: 3.0 * (x - 0.2) ** 2,
                                          0.1, 0.1)


def test_scalar_search_hands_f_python_floats():
    # numpy scalars would put every probe of an expensive f (the SVK
    # shooting loop) into numpy-scalar arithmetic
    seen = []

    def f(x):
        seen.append(type(x))
        return (x - 1.3) ** 2

    x, fx = minimize_scalar(f, (np.float64(0.0), 3.0))
    refined = parabolic_refine(f, x, 1e-4)
    assert set(seen) == {float}
    assert type(x) is float and type(fx) is float and type(refined) is float
    assert type(parabolic_refine(lambda x: -x * x, np.float64(0.3), 0.1)) is float


# ---------------------------------------------------------------------------
# through-thickness quadrature


def cylinder_jet():
    return evaluate_jet(catalog_surface("cylinder"), np.array([0.05, -0.3]))


def test_quadrature_recovers_gent_bending_content():
    jet = cylinder_jet()
    material = Gent(mu=1.0, jm=10.0)
    profile = incompressible_profile(jet)
    hs = (1e-3, 5e-4, 2e-4, 1e-4, 5e-5)
    energies = [through_thickness_energy_from_jet(jet, material, profile, h)
                for h in hs]
    fit = fit_h_powers(hs, energies)
    assert abs(fit.c1) <= 1e-10
    assert fit.c3 == pytest.approx(4.0 / 3.0, rel=1e-5)


def test_quadrature_surface_route_matches_jet_route():
    jet = cylinder_jet()
    material = Gent(mu=1.0, jm=10.0)
    profile = incompressible_profile(jet)
    by_surface = through_thickness_energy(
        catalog_surface("cylinder"), np.array([0.05, -0.3]), material,
        profile, 1e-3)
    by_jet = through_thickness_energy_from_jet(jet, material, profile, 1e-3)
    assert by_surface == by_jet


def test_quadrature_validates_order_and_admissibility():
    jet = cylinder_jet()
    material = Gent(mu=1.0, jm=10.0)
    profile = incompressible_profile(jet)
    with pytest.raises(ValueError, match="quad_order"):
        through_thickness_energy_from_jet(jet, material, profile, 1e-3,
                                          quad_order=1)
    stretched = evaluate_jet(
        catalog_surface("uniform_stretch", l1=4.0, l2=0.25),
        np.array([0.1, 0.1]))
    with pytest.raises(StiffeningLimitError, match="inadmissible fiber"):
        through_thickness_energy_from_jet(
            stretched, material, incompressible_profile(stretched), 1e-3)


def test_quadrature_rejects_a_fractional_order():
    # numpy's own TypeError would otherwise name its internal 'deg'
    jet = cylinder_jet()
    with pytest.raises(ValueError, match=r"^quad_order must be an integer, got 2\.5$"):
        through_thickness_energy_from_jet(jet, Gent(mu=1.0, jm=10.0),
                                          incompressible_profile(jet), 1e-3, quad_order=2.5)


def test_quadrature_handles_svk_via_full_tensor():
    jet = cylinder_jet()
    material = SaintVenantKirchhoff(lam=1.0, mu=1.0)
    h = 0.01
    energy = through_thickness_energy_from_jet(
        jet, material, svk_profile(jet.H, 1.0, 1.0, h), h, quad_order=16)
    assert energy / h ** 3 == pytest.approx(8.0 / 9.0, rel=2e-4)


@pytest.mark.parametrize("material,profile_of", [
    (Gent(mu=1.0, jm=10.0), incompressible_profile),
    (CiarletGeymonat.from_lame(1.0, 1.0),
     lambda jet: cg_profile(jet, CiarletGeymonat.from_lame(1.0, 1.0))),
    (SaintVenantKirchhoff(lam=1.0, mu=1.0),
     lambda jet: svk_profile(jet.H, 1.0, 1.0, 1e-3)),
], ids=["gent", "ciarlet_geymonat", "svk"])
def test_array_h_equals_the_scalar_calls_bit_for_bit(material, profile_of):
    jet = cylinder_jet()
    profile = profile_of(jet)
    energies = through_thickness_energy_from_jet(jet, material, profile, np.array(HS))
    singles = [through_thickness_energy_from_jet(jet, material, profile, h)
               for h in HS]
    assert all(type(e) is float for e in singles)
    assert energies.shape == (len(HS),)
    assert energies.tolist() == singles


def test_inadmissible_fiber_names_the_first_failing_node():
    # at h = 0.2 only the last node passes I1 - 3 = 0.15; at h = 0.3 the
    # first one does too, so a (node, h) order would name another x3
    jet = cylinder_jet()
    profile = incompressible_profile(jet)
    hs, jm = (0.2, 0.3), 0.15
    nodes, _ = _gauss_legendre(8)
    failing = [h * t for h in hs for t in nodes
               if exact_invariants_from_jet(jet, profile, h * t)[0] - 3.0 >= jm]
    assert failing[0] == hs[0] * nodes[-1]
    with pytest.raises(StiffeningLimitError,
                       match=f"inadmissible fiber point x3 = {failing[0]:.9g}: I1"):
        through_thickness_energy_from_jet(jet, Gent(mu=1.0, jm=jm), profile,
                                          np.array(hs))


def test_oracle_never_reads_the_closed_form_invariant_algebra(monkeypatch):
    # shift I1 by 1e-3 in fiber_invariants and invariant_series, wherever
    # the package binds them: the closed forms move, the oracle must not
    jet = cylinder_jet()
    profile = incompressible_profile(jet)
    models = (Gent(mu=1.0, jm=10.0), NeoHookean(mu=1.0),
              MooneyRivlin(mu=1.0, chi=0.6), CiarletGeymonat.from_lame(1.0, 1.0))

    def energies():
        return [through_thickness_energy_from_jet(jet, m, profile, np.array(HS))
                for m in models]

    before = energies()
    contents = point_contents(jet, NeoHookean(mu=1.0))
    fiber_invariants, invariant_series = (materials.fiber_invariants,
                                          materials.invariant_series)

    def shifted_invariants(*args):
        i1, i2, i3 = fiber_invariants(*args)
        return i1 + 1e-3, i2, i3

    def shifted_series(*args):
        series = invariant_series(*args)
        return dataclasses.replace(series, i1=(series.i1[0] + 1e-3,) + series.i1[1:])

    for name, module in list(sys.modules.items()):
        if name.startswith("plate_reduce."):
            for original, shifted in ((fiber_invariants, shifted_invariants),
                                      (invariant_series, shifted_series)):
                for attr, value in list(vars(module).items()):
                    if value is original:
                        monkeypatch.setattr(module, attr, shifted)

    moved = point_contents(jet, NeoHookean(mu=1.0))
    assert moved.stretching == pytest.approx(contents.stretching + 2e-3 * 0.5,
                                             rel=1e-9)
    for after, ref in zip(energies(), before):
        assert np.array_equal(after, ref)


# ---------------------------------------------------------------------------
# profile ODE


def test_svk_ode_agrees_with_closed_profile():
    solution = solve_svk_profile_ode(-0.5, 1.0, 1.0, 0.05, n_steps=400)
    closed = svk_profile(-0.5, 1.0, 1.0, 0.05)
    assert solution.slope == pytest.approx(closed.alpha, abs=1e-10)
    assert solution.ode_residual <= 1e-7
    assert solution.energy / 0.05 ** 3 == pytest.approx(8.0 / 9.0, rel=5e-3)
    mid = len(solution.x3) // 2
    assert solution.phi[mid] == 0.0
    assert solution.dphi[mid] == solution.slope
    assert solution.x3[0] == -0.05 and solution.x3[-1] == 0.05
    sup = np.max(np.abs(solution.phi
                        - np.array([closed.phi(t) for t in solution.x3])))
    assert sup <= 1e-8


def test_svk_ode_values_are_frozen():
    # the shooting oracle's numbers, pinned bit for bit
    solution = solve_svk_profile_ode(-0.5, 1.0, 1.0, 0.05, n_steps=400)
    assert solution.slope == 0.9988900451208073
    assert solution.energy == 0.00011102325083621138
    assert solution.ode_residual == 8.578457943997364e-10


def test_svk_ode_resolution_guards():
    with pytest.raises(ValueError, match="n_steps"):
        solve_svk_profile_ode(-0.5, 1.0, 1.0, 0.05, n_steps=50)
    with pytest.raises(ResolutionError, match="step count"):
        solve_svk_profile_ode(30.0, 1.0, 1.0, 1.0, n_steps=400)
    # an odd step count is kept: 201 steps each way, 2 * 201 + 1 nodes
    assert len(solve_svk_profile_ode(-0.5, 1.0, 1.0, 0.05, n_steps=201).x3) == 403


# ---------------------------------------------------------------------------
# convergence-order estimation


def test_order_of_residual():
    hs = (1e-1, 3e-2, 1e-2, 3e-3, 1e-3)
    assert order_of_residual(lambda h: h ** 4, hs) == pytest.approx(4.0,
                                                                    abs=1e-6)
    with pytest.raises(ValueError, match="decades"):
        order_of_residual(lambda h: h, (1e-1, 5e-2, 2e-2, 1e-2))


def test_order_of_residual_excludes_the_roundoff_floor():
    hs = (1e-1, 3e-2, 1e-2, 3e-3, 1e-3)
    floored = lambda h: h ** 2 if h > 5e-3 else 0.0
    with pytest.warns(RuntimeWarning, match="floor"):
        slope = order_of_residual(floored, hs)
    assert slope == pytest.approx(2.0, abs=1e-6)
    with pytest.raises(ValueError, match="usable"):
        with pytest.warns(RuntimeWarning):
            order_of_residual(lambda h: 0.0, hs)


# ---------------------------------------------------------------------------
# Gauss-Legendre rule


@pytest.mark.parametrize("n", [2, 8, 16, 64])
def test_cached_gauss_rule_is_leggauss_and_read_only(n):
    nodes, weights = _gauss_legendre(n)
    want_nodes, want_weights = np.polynomial.legendre.leggauss(n)
    assert np.array_equal(nodes, want_nodes)
    assert np.array_equal(weights, want_weights)
    assert _gauss_legendre(n)[0] is nodes
    for a in (nodes, weights):
        with pytest.raises(ValueError, match="read-only"):
            a[0] = 0.0
