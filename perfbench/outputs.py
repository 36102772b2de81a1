"""Checks on what one CLI invocation wrote.

Every seed: exit code 0, the expected files and row counts, finite
numbers only, strict JSON (no NaN or Infinity), and for ``verify --all``
a 12/12 PASS.  At the default seed, the outputs are also compared with
reference outputs generated by ``make_reference.py``:

* ``summary.json`` totals to 1e-13 relative (a zero total relative to
  the bending total);
* per-node ``w_s``/``w_b`` in ``points.csv`` to 1e-12 of the largest
  reference content of that invocation, and ``formula_id`` exactly;
* ``sweep.csv`` rows: keys exactly, ``total_energy`` to 1e-13 relative,
  ``detcf_residual`` (a difference from 1) to 1e-15 absolute.
"""

import csv
import gzip
import json
import math
import os

from workloads import CHECK_IDS

POINTS_COLUMNS = ["x1", "x2", "trC", "detC", "lambda1", "lambda2",
                  "H", "K", "b1", "w_s", "w_b", "formula_id"]
SWEEP_COLUMNS = ["param", "value", "observable", "result"]
TOTALS = ("stretching_content", "bending_content", "energy")
TOTALS_RTOL = 1e-13
NODE_RTOL = 1e-12
SWEEP_TOL = {"total_energy": (1e-13, 0.0), "detcf_residual": (0.0, 1e-15)}

REFERENCE_DIR = os.path.join(os.path.dirname(os.path.abspath(__file__)),
                             "reference")


class OutputError(Exception):
    """An output that is missing, malformed or wrong."""


def _reject_constant(name):
    raise OutputError(f"non-strict JSON constant {name}")


def _numbers(value):
    if isinstance(value, dict):
        value = list(value.values())
    if isinstance(value, list):
        for item in value:
            yield from _numbers(item)
    elif isinstance(value, (int, float)) and not isinstance(value, bool):
        yield value


def _read_json(path):
    """Parse strict JSON whose numbers are all finite."""
    name = os.path.basename(path)
    try:
        with open(path) as fh:
            data = json.load(fh, parse_constant=_reject_constant)
    except (OSError, ValueError) as err:
        raise OutputError(f"{name}: {err}") from err
    if not all(math.isfinite(v) for v in _numbers(data)):
        raise OutputError(f"{name}: a number is not finite")
    return data


def _read_csv(path, columns):
    try:
        with open(path, newline="") as fh:
            rows = list(csv.reader(fh))
    except OSError as err:
        raise OutputError(f"{os.path.basename(path)}: {err}") from err
    if not rows or rows[0] != columns:
        raise OutputError(f"{os.path.basename(path)}: unexpected header")
    return rows[1:]


def _finite(text, where):
    try:
        value = float(text)
    except ValueError:
        raise OutputError(f"{where}: {text!r} is not a number") from None
    if not math.isfinite(value):
        raise OutputError(f"{where}: {text!r} is not finite")
    return value


def _close(a, b, rtol, atol=0.0):
    return abs(a - b) <= rtol * max(abs(a), abs(b)) + atol


def _check_evaluate(inv, out, ref):
    nx, ny = inv.grid
    rows = _read_csv(os.path.join(out, "points.csv"), POINTS_COLUMNS)
    if len(rows) != nx * ny:
        raise OutputError(f"points.csv has {len(rows)} rows, expected {nx * ny}")
    values = []
    for i, row in enumerate(rows):
        if len(row) != len(POINTS_COLUMNS) or not row[-1]:
            raise OutputError(f"points.csv row {i + 1} is malformed")
        values.append([_finite(v, f"points.csv row {i + 1}") for v in row[:-1]])
    ids = [row[-1] for row in rows]

    summary = _read_json(os.path.join(out, "summary.json"))
    try:
        results = summary["results"]
        totals = [results["totals"][k] for k in TOTALS]
        echoed, n_points, formula_ids = (summary["config"], results["n_points"],
                                         results["formula_ids"])
    except (KeyError, TypeError) as err:
        raise OutputError(f"summary.json lacks {err}") from err
    if echoed != inv.config:
        raise OutputError("summary.json config differs from the input config")
    if n_points != nx * ny or formula_ids != sorted(set(ids)):
        raise OutputError("summary.json n_points or formula_ids disagree "
                          "with points.csv")
    if not all(isinstance(v, float) for v in totals):
        raise OutputError("summary.json totals are not numbers")

    if ref is None:
        return
    for key, value in zip(TOTALS, totals):
        expected = ref["totals"][key]
        # a zero total (stretching on an isometry) is held to the bending one
        scale = abs(expected) or abs(ref["totals"]["bending_content"])
        if abs(value - expected) > TOTALS_RTOL * scale:
            raise OutputError(f"total {key} = {value!r} differs from the "
                              f"reference {expected!r}")
    if ids != ref["formula_id"]:
        raise OutputError("formula_id column differs from the reference")
    scale = max(max(map(abs, ref["w_s"])), max(map(abs, ref["w_b"])))
    w_s, w_b = POINTS_COLUMNS.index("w_s"), POINTS_COLUMNS.index("w_b")
    for i, row in enumerate(values):
        for col, name in ((w_s, "w_s"), (w_b, "w_b")):
            if abs(row[col] - ref[name][i]) > NODE_RTOL * scale:
                raise OutputError(f"points.csv row {i + 1} {name} = {row[col]!r} "
                                  f"differs from the reference {ref[name][i]!r}")


def _check_sweep(inv, out, ref):
    rows = _read_csv(os.path.join(out, "sweep.csv"), SWEEP_COLUMNS)
    values = inv.sweep_values
    if len(rows) != 2 * len(values):
        raise OutputError(f"sweep.csv has {len(rows)} rows, expected "
                          f"{2 * len(values)}")
    for i, row in enumerate(rows):
        if len(row) != 4 or row[0] != "h":
            raise OutputError(f"sweep.csv row {i + 1} is malformed")
        if _finite(row[1], f"sweep.csv row {i + 1}") != values[i // 2]:
            raise OutputError(f"sweep.csv row {i + 1} is for another h")
        _finite(row[3], f"sweep.csv row {i + 1}")
    if ref is None:
        return
    for i, (row, expected) in enumerate(zip(rows, ref["rows"])):
        rtol, atol = SWEEP_TOL[expected[2]]
        if (row[:3] != expected[:3]
                or not _close(float(row[3]), float(expected[3]), rtol, atol)):
            raise OutputError(f"sweep.csv row {i + 1} {row} differs from the "
                              f"reference {expected}")


def _check_verify(inv, out, ref):
    report = _read_json(os.path.join(out, "verdicts.json"))
    try:
        ids = [c["check_id"] for c in report["checks"]]
        passed = [c["passed"] for c in report["checks"]]
        counts = (report["n_checks"], report["n_passed"], report["all_passed"])
    except (KeyError, TypeError) as err:
        raise OutputError(f"verdicts.json lacks {err}") from err
    if tuple(ids) != CHECK_IDS:
        raise OutputError("verdicts.json does not list the 12 built-in checks")
    if not all(p is True for p in passed) or counts != (12, 12, True):
        failing = [cid for cid, p in zip(ids, passed) if p is not True]
        raise OutputError(f"verdicts.json is not a 12/12 PASS: {failing}")


_CHECKERS = {"evaluate": _check_evaluate, "sweep": _check_sweep,
             "verify": _check_verify}


def check(inv, exit_code, out_dir, reference=None):
    """Return None if the outputs in ``out_dir`` pass, else the reason."""
    if exit_code != 0:
        return f"exit code {exit_code}"
    ref = None
    if reference is not None:
        ref = reference.get(inv.label)
        if ref is None or ref["config"] != inv.config:
            return "the reference was made for another config"
    try:
        _CHECKERS[inv.command](inv, out_dir, ref)
    except OutputError as err:
        return str(err)
    return None


def reference_path(workload):
    return os.path.join(REFERENCE_DIR, f"{workload}.json.gz")


def reference_entry(inv, out_dir):
    """What the reference keeps of one invocation's outputs."""
    entry = {"config": inv.config}
    if inv.command == "evaluate":
        rows = _read_csv(os.path.join(out_dir, "points.csv"), POINTS_COLUMNS)
        for name in ("w_s", "w_b"):
            col = POINTS_COLUMNS.index(name)
            entry[name] = [float(row[col]) for row in rows]
        entry["formula_id"] = [row[-1] for row in rows]
        summary = _read_json(os.path.join(out_dir, "summary.json"))
        entry["totals"] = summary["results"]["totals"]
    elif inv.command == "sweep":
        entry["rows"] = _read_csv(os.path.join(out_dir, "sweep.csv"),
                                  SWEEP_COLUMNS)
    return entry


def load_reference(workload):
    """Reference outputs of ``workload`` at the default seed, or None when
    the workload has none (``verify-all`` is checked the same way at
    every seed)."""
    path = reference_path(workload)
    if not os.path.exists(path):
        return None
    with gzip.open(path, "rt") as fh:
        return json.load(fh)
