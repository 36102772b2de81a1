"""Config fuzzing of the command line: every drawn config ends in finite
output or a documented exit code, never a traceback.

Configs are drawn from the schema (surfaces, materials, ``h``, ``grid``,
``derivative_mode``, ``fd_step`` and sweeps for ``evaluate`` and ``sweep``;
``tolerances`` and ``checks`` for ``verify``), with
ordinary values mixed with tiny, huge, negative, non-finite and non-numeric
ones.  Argument lists are drawn from the commands, options and paths the
parser knows and one it does not.  ``main`` runs in this process; a
traceback is an exception that fails the test.
"""

import contextlib
import io
import json
import math
import os
import tempfile
import warnings

from hypothesis import example, given, settings
from hypothesis import strategies as st

from plate_reduce.cli_io import CHECK_IDS, MAX_SIZE, SWEEP_PARAMS, main


def _mostly(ordinary, edge):
    # about one value in four from ``edge``, so that most configs get past the
    # validation and into the numerics
    return st.integers(0, 3).flatmap(lambda k: edge if k == 3 else ordinary)


# any float (nan, inf, subnormal, huge, negative, -0.0) and the non-numbers
# a JSON config can hold
EDGE = st.one_of(st.floats(), st.sampled_from(
    [1e-300, 1e300, -1.0, 0, True, "1", None]))
numbers = _mostly(st.floats(0.05, 3.0), EDGE)
fractions = _mostly(st.floats(0.05, 0.95), EDGE)
steps = _mostly(st.floats(1e-6, 1e-2), EDGE)
# valid grid and quadrature sizes stay small, since a size n costs an n x n
# Gauss rule and n^2 nodes; sizes past MAX_SIZE are rejected before any work
sizes = _mostly(st.integers(2, 6), st.sampled_from(
    [-1, 0, 1, 2.5, 1e-300, True, "3", None, MAX_SIZE + 1, 10 ** 5, 1e300]))

SURFACE_KEYS = {"plane": (), "uniform_stretch": ("l1", "l2"),
                "cylinder": ("R",), "sphere_cap": ("R",), "saddle": ("a",),
                "gaussian_bump": ("A", "s")}
MATERIAL_KEYS = {"gent": ("mu", "jm"), "neo_hookean": ("mu",),
                 "mooney_rivlin": ("mu", "chi"),
                 "ciarlet_geymonat": ("lambda", "mu"),
                 "svk": ("lambda", "mu")}


def _spec(draw, key, name, keys):
    # Mooney-Rivlin's chi lies in (0, 1)
    return dict({key: name}, **{k: draw(fractions if k == "chi" else numbers)
                                for k in keys})


@st.composite
def runs(draw):
    """A command and the config it runs; a sweep mostly has its sweep."""
    command = draw(st.sampled_from(["evaluate", "sweep"]))
    surface = draw(st.sampled_from(sorted(SURFACE_KEYS)))
    material = draw(st.sampled_from(sorted(MATERIAL_KEYS)))
    # a surface key may be left at its default; a material has none
    keys = draw(st.lists(st.sampled_from(SURFACE_KEYS[surface]), unique=True)
                if SURFACE_KEYS[surface] else st.just([]))
    cfg = {"surface": _spec(draw, "name", surface, keys),
           "material": _spec(draw, "model", material, MATERIAL_KEYS[material]),
           "h": draw(numbers),
           "grid": {"nx": draw(sizes), "ny": draw(sizes)}}
    if draw(st.booleans()):
        cfg["derivative_mode"] = draw(_mostly(
            st.sampled_from(["analytic", "finite-difference"]),
            st.just("symbolic")))
    if draw(st.booleans()):
        cfg["fd_step"] = draw(steps)
    if draw(_mostly(st.just(command == "sweep"), st.booleans())):
        param = draw(_mostly(st.sampled_from(SWEEP_PARAMS), st.just("mu")))
        values = sizes if param == "quad_order" else numbers
        cfg["options"] = {"sweep": {"param": param, "values": draw(_mostly(
            st.lists(values, min_size=1, max_size=3), st.just([])))}}
    return command, cfg


def _run_main(argv, cfg):
    """``main``'s exit code, stdout and stderr, and the files it wrote as
    {name: text}, or None when it made no output directory."""
    with tempfile.TemporaryDirectory() as tmp:
        path, out = os.path.join(tmp, "config.json"), os.path.join(tmp, "out")
        with open(path, "w") as fh:
            json.dump(cfg, fh)
        stdout, stderr = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(stdout), \
                contextlib.redirect_stderr(stderr), warnings.catch_warnings():
            warnings.simplefilter("always")
            code = main(argv + ["--config", path, "--out", out])
        files = None
        if os.path.exists(out):
            files = {}
            for name in os.listdir(out):
                with open(os.path.join(out, name)) as fh:
                    files[name] = fh.read()
    return code, stdout.getvalue(), stderr.getvalue(), files


def _assert_strict_output(files):
    for name, text in files.items():
        if name.endswith(".json"):
            json.loads(text, parse_constant=lambda c: _fail(f"{name}: {c}"))
            continue
        assert name.endswith(".csv"), name
        for line in text.splitlines()[1:]:
            for cell in line.split(","):
                try:
                    value = float(cell)
                except ValueError:
                    continue  # formula ids, param and observable names
                assert math.isfinite(value), f"{name}: {line}"


def _fail(message):
    raise AssertionError(f"non-strict JSON constant in {message}")


def _assert_config_error(stdout, err, files):
    # a config error is the only line printed: the run's warnings go
    assert err.startswith("config error: ") and err.count("\n") == 1, err
    assert stdout == ""
    assert files is None


SVK = {"model": "svk", "lambda": 1.0, "mu": 1.0}


@settings(max_examples=300)
@given(runs())
# the SVK profile coefficient was inf / inf and then 0 / 0: a traceback
@example(("evaluate", {"surface": {"name": "cylinder", "R": 0.001},
                       "material": SVK, "h": 0.8, "grid": {"nx": 3, "ny": 3}}))
@example(("evaluate", {
    "surface": {"name": "plane"},
    "material": {"model": "svk", "lambda": 1e-200, "mu": 1e-300},
    "h": 1e-3, "grid": {"nx": 3, "ny": 3}}))
def test_main_ends_every_config_in_output_or_a_documented_code(run):
    command, cfg = run
    code, stdout, err, files = _run_main([command], cfg)
    assert code in (0, 2, 3), (code, err)
    if code == 0:
        _assert_strict_output(files)
    elif code == 3:
        assert stdout == "" and files is None
        assert err.startswith("admissibility failure"), err
    else:
        _assert_config_error(stdout, err, files)


# the numbers a tolerance or perturbation is drawn from: EDGE, and integers
# past the double range, which a JSON config can hold as 1e400 cannot
VERIFY_EDGE = st.one_of(EDGE, st.sampled_from([10 ** 400, -10 ** 400]))
check_ids = _mostly(st.sampled_from(CHECK_IDS), st.just("bogus"))


@st.composite
def verify_runs(draw):
    """A verify command line and its config; most select a few checks, so
    that few examples run all twelve."""
    cfg = {"surface": {"name": "cylinder"},
           "material": {"model": "neo_hookean", "mu": 1.0}, "h": 1e-3}
    if draw(st.booleans()):
        cfg["tolerances"] = draw(_mostly(
            st.dictionaries(check_ids, _mostly(st.floats(1e-12, 1.0),
                                               VERIFY_EDGE), max_size=2),
            st.sampled_from([[], 1e-3, None])))
    options = {}
    if draw(_mostly(st.just(True), st.just(False))):
        options["checks"] = draw(_mostly(
            st.lists(check_ids, min_size=1, max_size=3),
            st.sampled_from([[], "gent_bending", None, 3, [1],
                             {"gent_bending": True}])))
    if options:
        cfg["options"] = options
    run_all = draw(_mostly(st.just(False), st.booleans()))
    return ["verify", "--all"] if run_all else ["verify"], cfg


@settings(max_examples=100)
@given(verify_runs())
def test_verify_ends_every_config_in_verdicts_or_a_config_error(run):
    argv, cfg = run
    code, stdout, err, files = _run_main(argv, cfg)
    assert code in (0, 1, 2), (code, err)
    assert "Traceback" not in err, err
    if code == 2:
        _assert_config_error(stdout, err, files)
        # only validation ends verify with 2, and its message names the
        # key, never a generic overflow
        assert "overflows" not in err, err
        return
    assert set(files) == {"verdicts.json"}
    _assert_strict_output(files)
    report = json.loads(files["verdicts.json"])
    assert report["all_passed"] is (code == 0)


# a config every command runs to the end: one fast check, a two-value sweep
ARGV_CONFIG = {"surface": {"name": "cylinder"},
               "material": {"model": "gent", "mu": 1.0, "jm": 10.0},
               "h": 1e-3, "grid": {"nx": 3, "ny": 3},
               "options": {"checks": ["gent_stretching"],
                           "sweep": {"param": "h", "values": [1e-3, 2e-3]}}}
COMMANDS = ["evaluate", "verify", "sweep"]
PATHS = ["config.json", "missing.json"]
tokens = st.sampled_from(COMMANDS + PATHS + ["--config", "--out", "-h", "--bogus"])
# mostly a command and then options, an option often with a path after it,
# so that many runs get past the parser; else any tokens in any order
chunks = st.one_of(tokens.map(lambda t: [t]), st.tuples(
    st.sampled_from(["--config", "--out"]), st.sampled_from(PATHS)).map(list))
argvs = _mostly(
    st.tuples(st.sampled_from(COMMANDS), st.lists(chunks, max_size=3)).map(
        lambda run: [run[0]] + [t for chunk in run[1] for t in chunk]),
    st.lists(tokens, max_size=6))


@settings(max_examples=150)
@given(argvs)
# an --out that names a file: os.makedirs raised FileExistsError out of main
@example(["evaluate", "--config", "config.json", "--out", "config.json"])
def test_main_returns_a_documented_code_for_every_argv(argv):
    # relative paths in a fresh directory: an --out left out writes there
    with tempfile.TemporaryDirectory() as tmp, contextlib.chdir(tmp):
        with open("config.json", "w") as fh:
            json.dump(ARGV_CONFIG, fh)
        stdout, stderr = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(stdout), \
                contextlib.redirect_stderr(stderr):
            code = main(argv)
    err = stderr.getvalue()
    assert code in (0, 1, 2, 3), (code, err)
    if code == 2:
        assert err.startswith("config error: ") and err.count("\n") == 1, err
