"""Write the byte-identity output set of this checkout's ``src``, or
compare two such sets.

    python3 tools/byte_identity.py OUT_DIR
    python3 tools/byte_identity.py compare BASE CHANGE

Runs, one fresh ``python -m plate_reduce.cli_io`` process at a time:

- the four ``evaluate-grid`` configs at seeds 0 and 9
  (``points.csv``, ``summary.json``);
- ``sweep-fd`` at seeds 0-3 (``sweep.csv``);
- ``verify --all`` (``verdicts.json``).

The configs come from ``perfbench/workloads.py``, which is imported and
never changed.  The layout under OUT_DIR is fixed
(``<workload>/seed<n>/<label>/<file>``), so two checkouts' sets compare
file by file.  A run fails when it exits non-zero or writes anything to
standard error, such as a leaked ``RuntimeWarning`` that a comparison
of the files would not see.  Each run's standard output and error are
discarded unless it fails; the script prints the first failing run's
label, exit code and output, and exits 1.

``compare`` checks that the set CHANGE keeps the set BASE and may only
add checks.  Both must hold the same files, and every file other than
``verdicts.json`` must be byte-equal.  In ``verdicts.json`` the base's
check entries must open the change's list, in order, each with the same
``json.dumps(entry, sort_keys=True)``; any further entries have ids that
are new; ``n_checks``, ``n_passed`` and ``all_passed`` must be what the
change's entries give, and any other top-level field is unchanged.  It
prints one line per difference and exits 1 if there is any, else 0.
"""

import importlib.util
import json
import os
import subprocess
import sys
import tempfile

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SEEDS = {"evaluate-grid": (0, 9), "sweep-fd": (0, 1, 2, 3), "verify-all": (0,)}


def _workloads():
    path = os.path.join(ROOT, "perfbench", "workloads.py")
    spec = importlib.util.spec_from_file_location("_bench_workloads", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def _files(root):
    return {os.path.relpath(os.path.join(path, name), root)
            for path, _, names in os.walk(root) for name in names}


def _verdicts_differences(base_path, change_path):
    with open(base_path) as f:
        base = json.load(f)
    with open(change_path) as f:
        change = json.load(f)
    key = lambda entry: json.dumps(entry, sort_keys=True)
    old, new = base["checks"], change["checks"]
    if [key(entry) for entry in new[:len(old)]] != [key(entry) for entry in old]:
        yield "a base check entry is missing, moved or changed"
    base_ids = {entry["check_id"] for entry in old}
    added = [entry["check_id"] for entry in new[len(old):]]
    if base_ids & set(added) or len(set(added)) != len(added):
        yield f"the added checks {added} reuse an id"
    counts = {"n_checks": len(new), "n_passed": sum(e["passed"] for e in new),
              "all_passed": all(e["passed"] for e in new)}
    for field, value in counts.items():
        if key(change.get(field)) != key(value):
            yield f"{field} is {change.get(field)!r}, its entries give {value!r}"
    others = lambda report: {k: v for k, v in report.items()
                             if k != "checks" and k not in counts}
    if key(others(base)) != key(others(change)):
        yield "a top-level field other than the checks and their counts changed"


def compare(base, change):
    """The differences of set ``change`` from set ``base`` that the rules
    above forbid, one line each."""
    base_files, change_files = _files(base), _files(change)
    lines = [f"{name}: only in {where}"
             for where, names in ((base, base_files - change_files),
                                  (change, change_files - base_files))
             for name in sorted(names)]
    for name in sorted(base_files & change_files):
        paths = (os.path.join(base, name), os.path.join(change, name))
        if os.path.basename(name) == "verdicts.json":
            try:
                lines += [f"{name}: {line}" for line in _verdicts_differences(*paths)]
            except (ValueError, KeyError, TypeError) as err:
                lines.append(f"{name}: not a verdicts report ({err!r})")
        else:
            with open(paths[0], "rb") as f, open(paths[1], "rb") as g:
                if f.read() != g.read():
                    lines.append(f"{name}: differs")
    return lines


def main(argv=None):
    args = sys.argv[1:] if argv is None else argv
    if len(args) == 3 and args[0] == "compare":
        missing = [path for path in args[1:] if not os.path.isdir(path)]
        if missing:
            print(f"no output set at {missing[0]}", file=sys.stderr)
            return 2
        lines = compare(*args[1:])
        print("\n".join(lines) or f"{args[2]} keeps every output of {args[1]}")
        return 1 if lines else 0
    if len(args) != 1:
        print("usage: python3 tools/byte_identity.py OUT_DIR\n"
              "       python3 tools/byte_identity.py compare BASE CHANGE",
              file=sys.stderr)
        return 2
    out_root = os.path.abspath(args[0])
    workloads = _workloads()
    env = dict(os.environ, PYTHONPATH=os.path.join(ROOT, "src"))
    with tempfile.TemporaryDirectory() as config_dir:
        for workload, seeds in SEEDS.items():
            for seed in seeds:
                for inv in workloads.invocations(workload, seed):
                    out = os.path.join(out_root, workload, f"seed{seed}", inv.label)
                    os.makedirs(out, exist_ok=True)
                    config = inv.write_config(config_dir)
                    argv = [sys.executable, "-m", "plate_reduce.cli_io"]
                    run = subprocess.run(argv + inv.argv(config, out), cwd=ROOT, env=env,
                                         stdin=subprocess.DEVNULL, capture_output=True,
                                         text=True)
                    if run.returncode != 0 or run.stderr:
                        print(f"{workload} seed {seed} {inv.label}: exit "
                              f"{run.returncode}\n{run.stdout}{run.stderr}",
                              file=sys.stderr)
                        return 1
    print(f"wrote the byte-identity set under {out_root}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
