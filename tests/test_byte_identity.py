"""``tools/byte_identity.py compare`` on small fixture output sets."""

import importlib.util
import json
import os
import shutil

import pytest

from plate_reduce.cli_io import SWEEP_PARAMS, parse_config

_TOOL = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))),
                     "tools", "byte_identity.py")
_spec = importlib.util.spec_from_file_location("_byte_identity", _TOOL)
byte_identity = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(byte_identity)

POINTS = os.path.join("evaluate-grid", "seed0", "bump_gent", "points.csv")
VERDICTS = os.path.join("verify-all", "seed0", "verify_all", "verdicts.json")


def _entry(check_id, observed, passed=True):
    return {"check_id": check_id, "detail": f"{check_id} detail", "expected": 1.0,
            "observed": observed, "passed": passed, "tolerance": 1e-06}


ENTRIES = [_entry("gent_bending", {"oracle_vs_closed": 7.682450547386033e-07}),
           _entry("svk_profile", {"fit_c3": 0.88888755687369}),
           _entry("orientation", {"min_det_F": 0.999987})]


def _write_set(root, entries=ENTRIES, points="x1,x2,w_s\n0.1,0.2,0.3\n", **counts):
    os.makedirs(os.path.join(root, os.path.dirname(POINTS)))
    with open(os.path.join(root, POINTS), "w") as f:
        f.write(points)
    n_passed = sum(entry["passed"] for entry in entries)
    report = dict({"checks": entries, "n_checks": len(entries), "n_passed": n_passed,
                   "all_passed": n_passed == len(entries)}, **counts)
    os.makedirs(os.path.join(root, os.path.dirname(VERDICTS)))
    with open(os.path.join(root, VERDICTS), "w") as f:
        f.write(json.dumps(report, indent=2, sort_keys=True) + "\n")
    return str(root)


@pytest.fixture
def base(tmp_path):
    return _write_set(tmp_path / "base")


def _compare(base, change):
    lines = byte_identity.compare(base, change)
    assert (byte_identity.main(["compare", base, change]) == 0) == (lines == [])
    return lines


def test_identical_sets_pass(base, tmp_path):
    assert _compare(base, _write_set(tmp_path / "change")) == []


def test_an_appended_passing_check_passes(base, tmp_path):
    entries = ENTRIES + [_entry("new_check", {"gap": 1e-9})]
    assert _compare(base, _write_set(tmp_path / "change", entries)) == []


def _swapped(entries):
    return [entries[1], entries[0]] + entries[2:]


def _last_digit(entries):
    edited = json.loads(json.dumps(entries))
    edited[1]["observed"]["fit_c3"] = 0.88888755687368
    return edited


@pytest.mark.parametrize("entries,counts,message", [
    (_last_digit(ENTRIES), {}, "missing, moved or changed"),
    (ENTRIES[:1] + ENTRIES[2:], {}, "missing, moved or changed"),
    (_swapped(ENTRIES), {}, "missing, moved or changed"),
    (ENTRIES, {"n_checks": 4}, "n_checks is 4, its entries give 3"),
    (ENTRIES + [_entry("orientation", {"min_det_F": 1.0})], {}, "reuse an id"),
    (ENTRIES + [_entry("new_check", {}, passed=False)], {"all_passed": True},
     "all_passed is True, its entries give False"),
    (ENTRIES, {"n_passed": True}, "n_passed is True, its entries give 3"),
    (ENTRIES, {"tolerances": {}}, "a top-level field"),
], ids=["last_digit_of_observed", "removed_entry", "swapped_entries",
        "wrong_n_checks", "reused_id", "wrong_all_passed", "bool_n_passed",
        "added_top_level_field"])
def test_a_changed_verdicts_report_fails(base, tmp_path, entries, counts, message):
    lines = _compare(base, _write_set(tmp_path / "change", entries, **counts))
    assert len(lines) == 1 and lines[0].startswith(VERDICTS + ": ")
    assert message in lines[0]


def test_a_changed_points_byte_fails(base, tmp_path):
    change = _write_set(tmp_path / "change", points="x1,x2,w_s\n0.1,0.2,0.4\n")
    assert _compare(base, change) == [f"{POINTS}: differs"]


def test_a_missing_file_fails(base, tmp_path):
    change = tmp_path / "change"
    shutil.copytree(base, change)
    os.remove(change / POINTS)
    assert _compare(base, str(change)) == [f"{POINTS}: only in {base}"]


def test_a_missing_set_is_a_usage_error(base, tmp_path):
    assert byte_identity.main(["compare", base, str(tmp_path / "none")]) == 2


def _kind(command, config):
    run = parse_config(config)
    if command == "evaluate":
        return command, run.surface.derivative_mode
    return command, run.sweep[0]


def test_the_extra_runs_are_valid_and_cover_what_the_workloads_leave_out():
    labels = [label for label, _, _ in byte_identity.EXTRA]
    assert len(set(labels)) == len(labels)
    kinds = sorted(_kind(command, config) for _, command, config in byte_identity.EXTRA)
    assert kinds == sorted([("evaluate", "finite-difference"),
                            *(("sweep", p) for p in SWEEP_PARAMS if p != "h")])
