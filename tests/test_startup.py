"""What a fresh process loads: ``evaluate`` and ``sweep`` never run the
verify-only layers, and every public name still resolves."""

import json
import os
import subprocess
import sys
import textwrap

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
import json, sys, types

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
            base, options={"sweep": {"param": "h", "values": [1e-3, 2e-3]}})))
    src = os.path.dirname(os.path.dirname(os.path.abspath(plate_reduce.__file__)))
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        [src] + [p for p in [os.environ.get("PYTHONPATH")] if p]))
    proc = subprocess.run([sys.executable, "-c", textwrap.dedent(script)],
                          capture_output=True, text=True, env=env)
    assert proc.returncode == 0, proc.stderr
    report = json.loads(proc.stdout.splitlines()[-1])
    # the tracer finds every layer module in sys.modules after this import
    assert report["loaded"] == list(LAYERS)
    assert report["unrun_at_import"] == ["connectors", "oracle"]
    assert report["unrun_after_runs"] == ["connectors", "oracle"]
    assert sorted(report["all"]) == sorted(PUBLIC_NAMES)
    assert report["resolved"] == report["all"]
    assert report["star"] == sorted(PUBLIC_NAMES)
