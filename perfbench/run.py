"""Benchmark the plate-reduce CLI on one workload.

    python3 perfbench/run.py --workload evaluate-grid --seed 0 --seconds 40 --trace 0

Run from the root of a checkout; the program is imported from ``src``.
Invocations run one at a time (a closed loop with one client).  With
``--trace 0`` each CLI call is a fresh ``python -m plate_reduce.cli_io``
process and the end-to-end metrics are reported; with ``--trace 1``
untraced passes alternate with passes through ``tracer.py`` and the
per-layer metrics are reported.  The last line of standard output is
the result as one JSON object.  See README.md for the metrics.
"""

import argparse
import json
import os
import platform
import shutil
import signal
import statistics
import subprocess
import sys
import threading
import time
from collections import namedtuple
from importlib import metadata

import outputs
import tracer
from workloads import DEFAULT_SEED, WORKLOADS, invocations

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH_DIR)
SRC = os.path.join(ROOT, "src")
WORK_DIR = os.path.join(BENCH_DIR, "out")
TRACER = os.path.join(BENCH_DIR, "tracer.py")
CHILD_TIMEOUT_S = 150.0
SETUP_REPEATS = 5


# exit code, wall time and resource use of one finished child
Child = namedtuple("Child", "code wall_s cpu_s max_rss_mb")


def run_child(argv, log_path):
    """Run ``argv`` to completion with ``src`` on the import path.

    The child is reaped with ``wait4``, which returns its own rusage: the
    RUSAGE_CHILDREN accounting split per child.  A watchdog kills a child
    that outlives CHILD_TIMEOUT_S.
    """
    env = dict(os.environ, PYTHONPATH=SRC)
    done = threading.Event()
    with open(log_path, "wb") as log:
        start = time.perf_counter()
        proc = subprocess.Popen(argv, stdin=subprocess.DEVNULL, stdout=log,
                                stderr=subprocess.STDOUT, env=env, cwd=ROOT)

        def kill():
            if not done.is_set():
                os.kill(proc.pid, signal.SIGKILL)

        watchdog = threading.Timer(CHILD_TIMEOUT_S, kill)
        watchdog.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        finally:
            done.set()
            watchdog.cancel()
            watchdog.join()
        wall = time.perf_counter() - start
    proc.returncode = os.waitstatus_to_exitcode(status)
    return Child(proc.returncode, wall, usage.ru_utime + usage.ru_stime,
                 usage.ru_maxrss / 1024.0)


class Pass:
    """One run of every invocation of a workload, outputs checked."""

    def __init__(self):
        self.wall_s = 0.0
        self.cpu_s = 0.0
        self.peak_rss_mb = 0.0
        self.attempted = 0
        self.failures = []
        self.spans = {}


def run_pass(invs, config_paths, reference, pass_dir, traced):
    result = Pass()
    os.makedirs(pass_dir)
    start = time.perf_counter()
    for inv, config_path in zip(invs, config_paths):
        out = os.path.join(pass_dir, inv.label)
        cli_args = inv.argv(config_path, out)
        spans_path = out + ".spans.json"
        if traced:
            argv = [sys.executable, TRACER, "--spans", spans_path, "--"] + cli_args
        else:
            argv = [sys.executable, "-m", "plate_reduce.cli_io"] + cli_args
        child = run_child(argv, out + ".log")
        problem = outputs.check(inv, child.code, out, reference)
        result.attempted += 1
        result.cpu_s += child.cpu_s
        result.peak_rss_mb = max(result.peak_rss_mb, child.max_rss_mb)
        if problem is not None:
            result.failures.append((inv.label, problem, out + ".log"))
        elif traced:
            with open(spans_path) as fh:
                result.spans[inv.label] = json.load(fh)
    result.wall_s = time.perf_counter() - start
    return result


def measure_setup(run_dir):
    """Wall times of fresh-process imports of plate_reduce.cli_io, after
    one untimed import that fills the bytecode cache."""
    argv = [sys.executable, "-c", "import plate_reduce.cli_io"]
    log = os.path.join(run_dir, "setup.log")
    times = []
    for k in range(SETUP_REPEATS + 1):
        child = run_child(argv, log)
        if child.code != 0:
            with open(log) as fh:
                sys.exit(f"import plate_reduce.cli_io failed:\n{fh.read()}")
        if k:
            times.append(child.wall_s)
    return times


def layer_metrics(traced_passes, overhead):
    """Per-layer metrics: medians over traced passes of the per-pass sums
    over invocations."""
    def per_pass(fn):
        return statistics.median(fn(list(p.spans.values()))
                                 for p in traced_passes)

    def total(spans, kind, name):
        return sum(s[kind].get(name, 0) for s in spans)

    metrics = {}
    for name in tracer.FUNCTIONS:
        metrics[f"{name}.calls"] = (per_pass(lambda s: total(s, "calls", name)),
                                    "count")
        metrics[f"{name}.self_s"] = (per_pass(lambda s: total(s, "self_s", name)),
                                     "s")
    jet = tracer.JET
    metrics[f"{jet}.distinct_frac"] = (per_pass(
        lambda s: sum(x["jet_distinct"] for x in s) / total(s, "calls", jet)),
        "fraction")
    for cid in outputs.CHECK_IDS:
        name = f"cli_io.check.{cid}"
        metrics[f"{name}.s"] = (per_pass(lambda s: total(s, "total_s", name)), "s")
    metrics["trace.overhead_frac"] = (overhead, "fraction")
    return metrics


def print_invocation_layers(traced_passes):
    """Per-invocation split of the traced spans (medians over passes),
    which the per-layer metrics sum over a workload's invocations."""
    for label, first in traced_passes[0].spans.items():
        for name in sorted(first["calls"]):
            self_s = statistics.median(p.spans[label]["self_s"][name]
                                       for p in traced_passes)
            total_s = statistics.median(p.spans[label]["total_s"][name]
                                        for p in traced_passes)
            print(f"span {label} {name} calls {first['calls'][name]} "
                  f"self_s {self_s:.6f} total_s {total_s:.6f}")


def environment(load_start):
    def read(path):
        try:
            with open(path) as fh:
                return fh.read()
        except OSError:
            return ""

    models = [line.split(":", 1)[1].strip()
              for line in read("/proc/cpuinfo").splitlines()
              if line.startswith("model name")]
    return {
        "nproc": os.cpu_count(),
        "cpu_model": models[0] if models else platform.processor(),
        "python": platform.python_version(),
        "numpy": metadata.version("numpy"),
        "scipy": metadata.version("scipy"),
        "loadavg_start": load_start,
        "loadavg_end": read("/proc/loadavg").strip(),
        "shared_machine": True,
        "note": "shared machine: other tenants' load moves wall times; "
                "no thread, affinity or cgroup setting is changed",
    }


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, required=True,
                        help="measurement budget; passes repeat until it "
                             "is spent")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    if not os.path.isfile(os.path.join(SRC, "plate_reduce", "cli_io.py")):
        sys.exit(f"no plate_reduce sources under {SRC}")
    with open("/proc/loadavg") as fh:
        load_start = fh.read().strip()
    begin = time.perf_counter()
    deadline = begin + args.seconds

    invs = invocations(args.workload, args.seed)
    reference = (outputs.load_reference(args.workload)
                 if args.seed == DEFAULT_SEED else None)
    run_dir = os.path.join(WORK_DIR, f"{args.workload}-{os.getpid()}")
    shutil.rmtree(run_dir, ignore_errors=True)
    os.makedirs(run_dir)
    config_paths = [inv.write_config(run_dir) for inv in invs]

    setup = [] if args.trace else measure_setup(run_dir)
    untraced, traced = [], []
    while True:
        pair_start = time.perf_counter()
        n = len(untraced)
        untraced.append(run_pass(invs, config_paths, reference,
                                 os.path.join(run_dir, f"pass{n}"), False))
        if args.trace:
            traced.append(run_pass(invs, config_paths, reference,
                                   os.path.join(run_dir, f"traced{n}"), True))
        # start another pass only if it would end at most half a pass
        # after the deadline, so runs end close to it on average
        elapsed = time.perf_counter() - pair_start
        if time.perf_counter() + 0.5 * elapsed > deadline:
            break

    passes = untraced + traced
    attempted = sum(p.attempted for p in passes)
    failures = [f for p in passes for f in p.failures]
    for label, problem, log in failures:
        print(f"FAILED {label}: {problem} (log: {log})", file=sys.stderr)

    wall = statistics.median(p.wall_s for p in untraced)
    if args.trace:
        good = [p for p in traced if not p.failures]
        if not good:
            sys.exit("no traced pass completed without failures")
        overhead = statistics.median(p.wall_s for p in traced) / wall - 1.0
        metrics = layer_metrics(good, overhead)
        print_invocation_layers(good)
    else:
        nodes = sum(inv.nodes for inv in invs)
        metrics = {
            "wall_s": (wall, "s"),
            "cpu_s": (statistics.median(p.cpu_s for p in untraced), "s"),
            "setup_s": (statistics.median(setup), "s"),
            "peak_rss_mb": (statistics.median(p.peak_rss_mb for p in untraced),
                            "MiB"),
        }
        extra = {"failed_frac": (len(failures) / attempted, "fraction")}
        if nodes:
            extra["nodes_per_s"] = (statistics.median(
                nodes / p.wall_s for p in untraced), "1/s")
        for name, (value, unit) in {**metrics, **extra}.items():
            print(f"{name} {value:.6g} {unit}")
        print("pass wall_s " + " ".join(f"{p.wall_s:.3f}" for p in untraced)
              + "; setup_s " + " ".join(f"{t:.3f}" for t in setup)
              + f"; run {time.perf_counter() - begin:.1f} s")
    print("environment " + json.dumps(environment(load_start), sort_keys=True))

    if not failures:
        shutil.rmtree(run_dir, ignore_errors=True)
    result = {
        "correct": not failures,
        "attempted": attempted,
        "failed": len(failures),
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }
    print(json.dumps(result))


if __name__ == "__main__":
    main()
