"""Regenerate the reference outputs the benchmark compares against.

    python3 perfbench/make_reference.py

Runs every workload that takes inputs once at the default seed and keeps
what ``outputs.check`` compares in ``reference/<workload>.json.gz``.
Run it only at a commit whose outputs are known to be right: later
commits are held to these outputs.
"""

import gzip
import json
import os
import shutil

import outputs
import run
from workloads import DEFAULT_SEED, WORKLOADS, invocations


def main():
    os.makedirs(outputs.REFERENCE_DIR, exist_ok=True)
    for workload in WORKLOADS:
        invs = invocations(workload, DEFAULT_SEED)
        if all(inv.config is None for inv in invs):
            continue
        work_dir = os.path.join(run.WORK_DIR, f"reference-{os.getpid()}")
        shutil.rmtree(work_dir, ignore_errors=True)
        os.makedirs(work_dir)
        config_paths = [inv.write_config(work_dir) for inv in invs]
        pass_dir = os.path.join(work_dir, "pass")
        result = run.run_pass(invs, config_paths, None, pass_dir, False)
        if result.failures:
            raise SystemExit(f"{workload}: {result.failures}")
        reference = {inv.label: outputs.reference_entry(
            inv, os.path.join(pass_dir, inv.label)) for inv in invs}
        path = outputs.reference_path(workload)
        with open(path, "wb") as raw, \
                gzip.GzipFile(fileobj=raw, mode="wb", mtime=0) as fh:
            fh.write(json.dumps(reference, sort_keys=True).encode())
        shutil.rmtree(work_dir)
        print(f"wrote {path} ({os.path.getsize(path)} bytes)")


if __name__ == "__main__":
    main()
