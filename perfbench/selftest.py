"""Self-test of the benchmark's output checker and tracer.

    python3 perfbench/selftest.py

1. Perturbed outputs of small invocations must be reported as failures,
   and a reference that disagrees must be counted in a pass's failures.
2. Traced runs on small grids must see exact call counts, which holds
   only if every binding of a wrapped function was patched:
   ``evaluate_jet`` runs 2*nx*ny + 1 times per ``evaluate`` and
   nx*ny*len(values) + 1 times per ``h`` sweep, and ``verify --all``
   makes 12 check spans.
"""

import json
import os
import shutil
import sys

import outputs
import run
import tracer
from workloads import CHECK_IDS, Invocation, invocations

EVALUATE = Invocation("small_evaluate", "evaluate", {
    "surface": {"name": "gaussian_bump", "A": 0.5, "s": 1.0},
    "material": {"model": "gent", "mu": 1.0, "jm": 10.0},
    "h": 1e-3, "grid": {"nx": 3, "ny": 4}})
SWEEP = Invocation("small_sweep", "sweep", {
    "surface": {"name": "gaussian_bump", "A": 0.5, "s": 1.0},
    "material": {"model": "neo_hookean", "mu": 1.0},
    "h": 1e-3, "grid": {"nx": 3, "ny": 3},
    "derivative_mode": "finite-difference",
    "options": {"sweep": {"param": "h", "values": [1e-3, 2e-3, 4e-3]}}})

failures = []


def expect(condition, message):
    print(("ok   " if condition else "FAIL ") + message)
    if not condition:
        failures.append(message)


def edit(path, old, new):
    with open(path) as fh:
        text = fh.read()
    if old not in text:
        raise RuntimeError(f"{old!r} not found in {path}")
    with open(path, "w") as fh:
        fh.write(text.replace(old, new, 1))


def fresh_copy(src, dst):
    shutil.rmtree(dst, ignore_errors=True)
    shutil.copytree(src, dst)
    return dst


def test_checker(work_dir):
    invs = [EVALUATE, SWEEP]
    paths = [inv.write_config(work_dir) for inv in invs]
    good = run.run_pass(invs, paths, None, os.path.join(work_dir, "good"), False)
    expect(not good.failures, f"unperturbed small outputs pass {good.failures}")
    outs = {inv.label: os.path.join(work_dir, "good", inv.label) for inv in invs}
    reference = {inv.label: outputs.reference_entry(inv, outs[inv.label])
                 for inv in invs}
    for inv in invs:
        expect(outputs.check(inv, 0, outs[inv.label], reference) is None,
               f"{inv.label} matches its own reference")
        expect(outputs.check(inv, 1, outs[inv.label], reference) is not None,
               f"{inv.label} with exit code 1 fails")

    bad = os.path.join(work_dir, "bad")
    ev, sw = EVALUATE, SWEEP
    row = reference[ev.label]
    w_b = row["w_b"][5]
    perturbations = [
        (ev, "points.csv", f"{w_b!r}", f"{w_b * (1 + 1e-9)!r}",
         "w_b off the reference by 1e-9 relative"),
        (ev, "points.csv", ",gent_", ",gent_x_", "a changed formula_id"),
        (ev, "points.csv", f"{w_b!r}", "nan", "a NaN content"),
        (ev, "summary.json", '"energy": ', '"energy": NaN, "e": ',
         "NaN in summary.json"),
        (ev, "summary.json", '"energy": ', '"energy": 1e999, "e": ',
         "an overflowing number in summary.json"),
        (sw, "sweep.csv", "total_energy,", "total_energy,1", "a changed sweep result"),
        (sw, "sweep.csv", "detcf_residual", "detcf", "a renamed sweep observable"),
    ]
    for inv, name, old, new, what in perturbations:
        out = fresh_copy(outs[inv.label], bad)
        edit(os.path.join(out, name), old, new)
        expect(outputs.check(inv, 0, out, reference) is not None,
               f"{what} is reported")

    out = fresh_copy(outs[ev.label], bad)
    with open(os.path.join(out, "points.csv")) as fh:
        lines = fh.readlines()
    with open(os.path.join(out, "points.csv"), "w") as fh:
        fh.writelines(lines[:-1])
    expect(outputs.check(ev, 0, out) is not None,
           "a missing points.csv row is reported without a reference")

    verdicts = {"checks": [{"check_id": cid, "passed": True} for cid in CHECK_IDS],
                "n_checks": 12, "n_passed": 12, "all_passed": True}
    verify = Invocation("verify_all", "verify")
    for passed, label in ((True, "a 12/12 PASS"), (False, "an 11/12 PASS")):
        verdicts["checks"][7]["passed"] = passed
        verdicts["n_passed"] = 12 if passed else 11
        verdicts["all_passed"] = passed
        os.makedirs(bad, exist_ok=True)
        with open(os.path.join(bad, "verdicts.json"), "w") as fh:
            json.dump(verdicts, fh)
        verdict = outputs.check(verify, 0, bad)
        expect((verdict is None) == passed,
               f"{label} in verdicts.json is {'accepted' if passed else 'reported'}")

    # the counting path: a reference that disagrees fails the pass
    reference[ev.label]["totals"]["energy"] *= 1.0 + 1e-12
    counted = run.run_pass([ev], paths[:1], reference,
                           os.path.join(work_dir, "counted"), False)
    expect((counted.attempted, len(counted.failures)) == (1, 1),
           "a pass against a disagreeing reference counts 1 failed of 1")


def test_exact_counts(work_dir):
    invs = [EVALUATE, SWEEP] + invocations("verify-all", 0)
    paths = [inv.write_config(work_dir) for inv in invs]
    traced = run.run_pass(invs, paths, None, os.path.join(work_dir, "traced"), True)
    expect(not traced.failures, f"traced small runs pass {traced.failures}")
    ev, sw, verify = (traced.spans[inv.label] for inv in invs)
    jet = tracer.JET
    nx, ny = EVALUATE.grid
    expect(ev["calls"][jet] == 2 * nx * ny + 1,
           f"evaluate {nx}x{ny}: {ev['calls'][jet]} jets == 2*nx*ny+1")
    expect(ev["jet_distinct"] == ev["calls"][jet],
           "evaluate: every jet input is distinct")
    nx, ny = SWEEP.grid
    n = nx * ny * len(SWEEP.sweep_values) + 1
    expect(sw["calls"][jet] == n,
           f"h sweep {nx}x{ny}x{len(SWEEP.sweep_values)}: {sw['calls'][jet]} "
           f"jets == nx*ny*len(values)+1")
    expect(sw["jet_distinct"] == nx * ny + 1,
           "h sweep: nx*ny+1 distinct jet inputs")
    checks = {k: v for k, v in verify["calls"].items()
              if k.startswith("cli_io.check.")}
    expect(sorted(checks) == sorted(f"cli_io.check.{c}" for c in CHECK_IDS)
           and set(checks.values()) == {1}, "verify --all: 12 check spans")
    expect(verify["calls"].get("thickness_profile.ExactIncompressibleProfile.phi", 0) > 0,
           "verify --all: the ExactIncompressibleProfile.phi class attribute "
           "is traced")
    for spans in traced.spans.values():
        for name, self_s in spans["self_s"].items():
            if not -1e-6 <= self_s <= spans["total_s"][name] + 1e-9:
                expect(False, f"self time of {name} within [0, total]")


def main():
    work_dir = os.path.join(run.WORK_DIR, f"selftest-{os.getpid()}")
    shutil.rmtree(work_dir, ignore_errors=True)
    os.makedirs(work_dir)
    test_checker(work_dir)
    test_exact_counts(work_dir)
    if failures:
        sys.exit(f"{len(failures)} self-test expectations failed "
                 f"(outputs kept in {work_dir})")
    shutil.rmtree(work_dir)
    print("selftest passed")


if __name__ == "__main__":
    main()
