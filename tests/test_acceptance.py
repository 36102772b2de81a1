"""Acceptance gate: run every built-in verification check at its stated
tolerance and print one PASS/FAIL line per check."""

import pytest

from plate_reduce import cli_io


def test_check_registry_is_complete():
    assert cli_io.CHECK_IDS == (
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


@pytest.mark.parametrize("check_id,check", cli_io.CHECKS,
                         ids=[cid for cid, _ in cli_io.CHECKS])
def test_acceptance(check_id, check, capsys):
    verdict = check(cli_io.VerifyContext())
    status = "PASS" if verdict["passed"] else "FAIL"
    with capsys.disabled():
        print(f"[{status}] {check_id}: {verdict['detail']}")
    assert verdict["check_id"] == check_id
    assert verdict["passed"], f"{check_id}: {verdict['detail']}"


def test_oracle_check_values_are_frozen():
    # the golden-section, SVK-shooting and eigenframe checks' numbers,
    # pinned bit for bit
    ctx = cli_io.VerifyContext()
    cg = cli_io._check_cg_profile_minimality(ctx)["observed"]
    assert cg["alpha_gap"] == 2.598350978821884e-09
    assert cg["beta_gap"] == 5.025821980808587e-10
    svk = cli_io._check_svk_profile(ctx)["observed"]
    assert svk["fit_c3"] == 0.88888755687369
    assert svk["profile_sup_err"] == 8.743006318923108e-16
    assert svk["content_rel_err"] == 1.4985170986581142e-06
    frame = cli_io._check_eigenframe_coupling(ctx)["observed"]
    assert frame["constant_span"] == 3.1086244689504383e-15
    assert frame["isotropic_span"] == 0.0
