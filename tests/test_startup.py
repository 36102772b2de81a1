"""What a fresh process loads: ``evaluate`` and ``sweep`` never run the
verify-only layers or load the checks, ``verify`` never imports
``numpy.random``, every public name still resolves, and the CLI starts
with one BLAS thread unless its caller chose another count."""

import json
import os
import subprocess
import sys
import textwrap

import pytest

import plate_reduce

LAYERS = ("cli_io", "connectors", "materials", "oracle", "reduced_energy",
          "surface_geometry", "thickness_profile")

# the public names of plate_reduce, frozen
PUBLIC_NAMES = """
    AreaDistortionError BracketError CiarletGeymonat CodazziReport
    ConnectorFrame DegenerateImmersionError DomainError EnergyContents
    ExactIncompressibleProfile FitError FrameGrid Gent HFit HyperbolicProfile
    InvariantSeries JetBatch MaterialDomainError MooneyRivlin NeoHookean
    OrientationReport ParametricSurface PolyProfile ProfileConstraintError
    ResolutionError SaintVenantKirchhoff StiffeningLimitError SurfaceJet
    SvkProfileSolution appendix_H_K c_star_from_metric catalog_surface
    cg_bending_closed cg_bending_lame cg_contents cg_profile
    cg_small_strain_contents cg_stretching_closed check_codazzi compute_frame
    coupling_stationary_angles curvatures_from_frame deformed_thickness
    eigenframe_coupling energy_series_coefficients evaluate_jet evaluate_jets
    exact_invariants exact_invariants_from_jet fiber_deformation_gradient
    fit_h_powers gauss_from_connectors gauss_uniform_stretch gent_contents
    gent_contents_general gent_contents_unimodular grid_contents
    incompressible_profile incompressible_profile_general integrate_contents
    invariant_series lame_constants material_from_config minimize_scalar
    molecular_params order_of_residual parabolic_refine point_contents
    sample_frame_grid sampled_injectivity series_contents small_strain_energy
    solve_svk_profile_ode svk_content svk_profile symmetric_sqrt
    through_thickness_energy through_thickness_energy_from_jet
    verify_orientation volumetric_energy
""".split()

SCRIPT = """
import contextlib, io, json, sys, types

import plate_reduce.cli_io as cli

def unrun():
    return [m for m in ("connectors", "oracle")
            if type(sys.modules["plate_reduce." + m]) is not types.ModuleType]

report = {{"loaded": [m for m in {layers!r}
                      if "plate_reduce." + m in sys.modules],
           "unrun_at_import": unrun()}}
for command, config in (("evaluate", {evaluate!r}), ("sweep", {sweep!r})):
    assert cli.main([command, "--config", config, "--out", {out!r}]) == 0
report["unrun_after_runs"] = unrun()
report["absent_after_runs"] = [m for m in ("plate_reduce.checks", "numpy.random")
                               if m not in sys.modules]
# a config that names a check id loads the check table to validate it
with contextlib.redirect_stderr(io.StringIO()) as err:
    report["bad_tolerance_code"] = cli.main(
        ["evaluate", "--config", {bad_tolerance!r}, "--out", {out!r}])
report["bad_tolerance_err"] = err.getvalue()

import plate_reduce
report["all"] = plate_reduce.__all__
# each name resolves to the object its own layer module defines
report["resolved"] = [
    n for n in plate_reduce.__all__
    if getattr(sys.modules[getattr(plate_reduce, n).__module__], n)
    is getattr(plate_reduce, n)]
namespace = {{}}
exec("from plate_reduce import *", namespace)
report["star"] = sorted(n for n in namespace if n != "__builtins__")
print(json.dumps(report))
"""


CHECK_IDS = ("incompressibility_order", "gent_bending", "gent_stretching",
             "theorema_egregium", "codazzi_residuals", "cg_profile_minimality",
             "cg_small_strain", "svk_profile", "thickness_formula",
             "eigenframe_coupling", "cross_path_curvatures", "orientation")

# verify run as ``python -m plate_reduce.cli_io``: the running module is
# __main__, and an import of plate_reduce.cli_io would run it a second time;
# its os._exit raises SystemExit here, so the report below is printed
VERIFY_SCRIPT = """
import json, os, runpy, sys

sys.argv = ["plate-reduce", "verify", "--all", "--out", {out!r}]
os._exit = sys.exit
try:
    runpy.run_module("plate_reduce.cli_io", run_name="__main__")
except SystemExit as done:
    code = done.code
print(json.dumps({{"code": code, "modules": sorted(
    m for m in sys.modules if m.startswith(("plate_reduce", "numpy.random")))}}))
"""


def _src_env():
    src = os.path.dirname(os.path.dirname(os.path.abspath(plate_reduce.__file__)))
    return dict(os.environ, PYTHONPATH=os.pathsep.join(
        [src] + [p for p in [os.environ.get("PYTHONPATH")] if p]))


def test_the_tracer_spans_each_check_once(tmp_path):
    # perfbench/tracer.py rebuilds cli_io.CHECKS from its (id, check)
    # pairs, one span per check; verify --all calls each check once
    tracer = os.path.join(os.path.dirname(os.path.dirname(
        os.path.abspath(__file__))), "perfbench", "tracer.py")
    spans = tmp_path / "spans.json"
    proc = subprocess.run(
        [sys.executable, tracer, "--spans", str(spans), "--", "verify",
         "--all", "--out", str(tmp_path / "out")],
        capture_output=True, text=True, env=_src_env())
    assert proc.returncode == 0, proc.stderr
    calls = json.loads(spans.read_text())["calls"]
    assert ({k: n for k, n in calls.items() if k.startswith("cli_io.check.")}
            == {f"cli_io.check.{cid}": 1 for cid in CHECK_IDS})


def _run_script(script, env=None):
    proc = subprocess.run([sys.executable, "-c", textwrap.dedent(script)],
                          capture_output=True, text=True,
                          env=env or _src_env())
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.splitlines()[-1])


def write(tmp_path, name, cfg):
    path = tmp_path / name
    path.write_text(json.dumps(cfg))
    return str(path)


def test_evaluate_and_sweep_never_run_the_verify_only_layers(tmp_path):
    base = {"surface": {"name": "gaussian_bump"},
            "material": {"model": "neo_hookean", "mu": 1.0},
            "h": 1e-3, "grid": {"nx": 4, "ny": 4}}
    script = SCRIPT.format(
        layers=LAYERS, out=str(tmp_path / "out"),
        evaluate=write(tmp_path, "evaluate.json", base),
        sweep=write(tmp_path, "sweep.json", dict(
            base, options={"sweep": {"param": "h", "values": [1e-3, 2e-3]}})),
        bad_tolerance=write(tmp_path, "bad_tolerance.json",
                            dict(base, tolerances={"bogus": 1e-3})))
    report = _run_script(script)
    # the tracer finds every layer module in sys.modules after this import
    assert report["loaded"] == list(LAYERS)
    assert report["unrun_at_import"] == ["connectors", "oracle"]
    assert report["unrun_after_runs"] == ["connectors", "oracle"]
    assert report["absent_after_runs"] == ["plate_reduce.checks", "numpy.random"]
    assert report["bad_tolerance_code"] == 2
    from plate_reduce.checks import _DEFAULT_TOL
    assert report["bad_tolerance_err"] == (
        "config error: unknown tolerances key 'bogus'; allowed keys: "
        # every check that declares a tolerance, in declaration order
        + ", ".join(cid for cid, tol in _DEFAULT_TOL.items() if tol is not None) + "\n")
    assert sorted(report["all"]) == sorted(PUBLIC_NAMES)
    assert report["resolved"] == report["all"]
    assert report["star"] == sorted(PUBLIC_NAMES)


def test_verify_as_a_module_loads_cli_io_once_and_no_numpy_random(tmp_path):
    report = _run_script(VERIFY_SCRIPT.format(out=str(tmp_path / "out")))
    assert report["code"] == 0
    assert "plate_reduce.checks" in report["modules"]
    assert "plate_reduce.cli_io" not in report["modules"]
    assert not any(m.startswith("numpy.random") for m in report["modules"])


# ---------------------------------------------------------------------------
# BLAS threads

# the process's thread count and its OPENBLAS_NUM_THREADS, after importing
# ``first`` and then the CLI, and again after an evaluate run
THREADS_SCRIPT = """
import json, os, sys

def threads():
    return len(os.listdir("/proc/self/task"))

import {first}
import plate_reduce.cli_io as cli
report = {{"threads": threads(),
           "env": os.environ.get("OPENBLAS_NUM_THREADS")}}
assert cli.main(["evaluate", "--config", {config!r}, "--out", {out!r}]) == 0
report["threads_after_evaluate"] = threads()
print(json.dumps(report))
"""

needs_proc_tasks = pytest.mark.skipif(
    not os.path.isdir("/proc/self/task"),
    reason="threads are counted in /proc/self/task")


def _threads_report(tmp_path, first, blas_threads):
    env = _src_env()
    env.pop("OPENBLAS_NUM_THREADS", None)
    if blas_threads is not None:
        env["OPENBLAS_NUM_THREADS"] = blas_threads
    config = write(tmp_path, "evaluate.json", {
        "surface": {"name": "gaussian_bump"},
        "material": {"model": "neo_hookean", "mu": 1.0},
        "h": 1e-3, "grid": {"nx": 4, "ny": 4}})
    return _run_script(THREADS_SCRIPT.format(
        first=first, config=config, out=str(tmp_path / "out")), env=env)


@needs_proc_tasks
def test_cli_starts_with_one_blas_thread(tmp_path):
    report = _threads_report(tmp_path, "plate_reduce", None)
    assert report == {"threads": 1, "env": "1", "threads_after_evaluate": 1}


@needs_proc_tasks
def test_cli_keeps_the_callers_blas_thread_count(tmp_path):
    report = _threads_report(tmp_path, "plate_reduce", "2")
    # OpenBLAS starts no more threads than the process may run on
    threads = min(2, len(os.sched_getaffinity(0)))
    assert report == {"threads": threads, "env": "2",
                      "threads_after_evaluate": threads}


@needs_proc_tasks
def test_cli_leaves_the_environment_once_numpy_is_loaded(tmp_path):
    report = _threads_report(tmp_path, "numpy", None)
    assert report["env"] is None
