"""Write the byte-identity output set of this checkout's ``src``.

    python3 tools/byte_identity.py OUT_DIR

Runs, one fresh ``python -m plate_reduce.cli_io`` process at a time:

- the four ``evaluate-grid`` configs at seeds 0 and 9
  (``points.csv``, ``summary.json``);
- ``sweep-fd`` at seeds 0-3 (``sweep.csv``);
- ``verify --all`` (``verdicts.json``).

The configs come from ``perfbench/workloads.py``, which is imported and
never changed.  The layout under OUT_DIR is fixed
(``<workload>/seed<n>/<label>/<file>``), so two checkouts compare with
``diff -r``.  A run fails when it exits non-zero or writes anything to
standard error, such as a leaked ``RuntimeWarning`` that ``diff -r``
would not see.  Each run's standard output and error are discarded
unless it fails; the script prints the first failing run's label, exit
code and output, and exits 1.
"""

import importlib.util
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


def main(argv=None):
    args = sys.argv[1:] if argv is None else argv
    if len(args) != 1:
        print("usage: python3 tools/byte_identity.py OUT_DIR", file=sys.stderr)
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
