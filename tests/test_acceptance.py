"""Acceptance gate: run every built-in verification check at its stated
tolerance and print one PASS/FAIL line per check."""

import dataclasses

import pytest

from plate_reduce import checks, reduced_energy


def test_check_registry_is_complete():
    assert checks.CHECK_IDS == (
        "incompressibility_order",
        "gent_bending",
        "gent_stretching",
        "theorema_egregium",
        "codazzi_residuals",
        "cg_profile_minimality",
        "cg_small_strain",
        "svk_profile",
        "thickness_formula",
        "eigenframe_coupling",
        "cross_path_curvatures",
        "orientation",
    )


@pytest.mark.parametrize("check_id,check", checks.CHECKS,
                         ids=[cid for cid, _ in checks.CHECKS])
def test_acceptance(check_id, check, capsys):
    verdict = check({})
    status = "PASS" if verdict["passed"] else "FAIL"
    with capsys.disabled():
        print(f"[{status}] {check_id}: {verdict['detail']}")
    assert verdict["check_id"] == check_id
    assert verdict["passed"], f"{check_id}: {verdict['detail']}"


def test_oracle_check_values_are_frozen():
    # the golden-section, SVK-shooting and eigenframe checks' numbers,
    # pinned bit for bit
    cg = checks._check_cg_profile_minimality({})["observed"]
    assert cg["alpha_gap"] == 2.598350978821884e-09
    assert cg["beta_gap"] == 5.025821980808587e-10
    svk = checks._check_svk_profile({})["observed"]
    assert svk["fit_c3"] == 0.88888755687369
    assert svk["profile_sup_err"] == 8.743006318923108e-16
    assert svk["content_rel_err"] == 1.4985170986581142e-06
    frame = checks._check_eigenframe_coupling({})["observed"]
    assert frame["constant_span"] == 3.1086244689504383e-15
    assert frame["isotropic_span"] == 0.0


# The oracle checks compare with the contents evaluate writes: a wrong
# closed form in point_contents' dispatch, or in the SVK content, must
# fail its check.


def test_gent_stretching_fails_on_a_wrong_gent_dispatch(monkeypatch):
    def stiffer(jet, material):
        return reduced_energy.gent_contents(jet, material.mu, 1.01 * material.jm)

    monkeypatch.setitem(reduced_energy._CONTENTS, "gent", stiffer)
    verdict = checks._check_gent_stretching({})
    assert not verdict["passed"]
    assert verdict["observed"]["oracle_vs_closed"] > 1e-4


def test_svk_profile_fails_on_a_wrong_svk_content(monkeypatch):
    svk_content = checks.svk_content

    def off(*args):
        contents = svk_content(*args)
        return dataclasses.replace(contents, bending=1.001 * contents.bending)

    monkeypatch.setattr(checks, "svk_content", off)
    verdict = checks._check_svk_profile({})
    assert not verdict["passed"]
    assert verdict["observed"]["content_rel_err"] > 5e-4


def test_svk_profile_check_shoots_its_thicknesses_in_one_call(monkeypatch):
    # one solver call for the profile at h = 0.05 and one for the five
    # thicknesses of the h^3 fit, whose probes then share one lane pass
    solve, calls = checks.oracle.solve_svk_profile_ode, []

    def counted(*args, **kwargs):
        calls.append(args[3])
        return solve(*args, **kwargs)

    monkeypatch.setattr(checks.oracle, "solve_svk_profile_ode", counted)
    assert checks._check_svk_profile({})["passed"]
    assert len(calls) == 2
    assert calls[0] == 0.05 and len(calls[1]) == 5
