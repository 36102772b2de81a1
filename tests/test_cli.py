"""End-to-end tests of the command-line interface and config parsing."""

import json
import math
import os
import signal
import subprocess
import sys
import tracemalloc

import numpy as np
import pytest

import warnings

import plate_reduce
from plate_reduce import (AreaDistortionError, BracketError,
                          DegenerateImmersionError, DomainError, FitError,
                          Gent, PolyProfile, ResolutionError,
                          StiffeningLimitError, checks, cli_io, evaluate_jet)
from plate_reduce.checks import (
    CHECK_IDS,
    _check_eigenframe_coupling,
    _verdict,
)
from plate_reduce.cli_io import (
    CSV_COLUMNS,
    ConfigError,
    _evaluation_nodes,
    _fmt,
    _format_column,
    _write_json,
    load_config,
    main,
    parse_config,
)
from plate_reduce.reduced_energy import grid_contents
from plate_reduce.surface_geometry import uniform_stretch_cone

BASE = {
    "surface": {"name": "cylinder"},
    "material": {"model": "gent", "mu": 1.0, "jm": 10.0},
    "h": 1e-3,
    "grid": {"nx": 3, "ny": 3},
}


def write_config(tmp_path, cfg, name="config.json"):
    path = tmp_path / name
    path.write_text(json.dumps(cfg))
    return str(path)


def read_rows(csv_path):
    lines = csv_path.read_text().splitlines()
    header = lines[0].split(",")
    return header, [dict(zip(header, line.split(","))) for line in lines[1:]]


def run_cli(tmp_path, cfg, command="evaluate", extra=(), name="config.json"):
    out = tmp_path / f"out_{name}"
    code = main([command, "--config", write_config(tmp_path, cfg, name),
                 "--out", str(out), *extra])
    return code, out


def _src_env():
    # the environment of a fresh process that imports this checkout's src
    src = os.path.dirname(os.path.dirname(os.path.abspath(plate_reduce.__file__)))
    return dict(os.environ, PYTHONPATH=os.pathsep.join(
        [src] + [p for p in [os.environ.get("PYTHONPATH")] if p]))


# ---------------------------------------------------------------------------
# evaluate


def test_evaluate_cylinder(tmp_path, capsys):
    code, out = run_cli(tmp_path, BASE)
    assert code == 0
    stdout = capsys.readouterr().out
    assert "evaluated 9 points on cylinder" in stdout
    assert "wrote" in stdout

    header, rows = read_rows(out / "points.csv")
    assert header == list(CSV_COLUMNS)
    assert len(rows) == 9
    for row in rows:
        assert float(row["trC"]) == 2.0
        assert float(row["detC"]) == 1.0
        assert float(row["w_s"]) == 0.0
        assert float(row["w_b"]) == pytest.approx(4.0 / 3.0, rel=1e-12)
        assert row["formula_id"] == "gent_unimodular"
        assert all(cell != "-0" for cell in row.values())

    summary = json.loads((out / "summary.json").read_text())
    assert summary["config"] == BASE
    results = summary["results"]
    assert results["n_points"] == 9
    assert results["formula_ids"] == ["gent_unimodular"]
    totals = results["totals"]
    assert totals["stretching_content"] == 0.0
    assert totals["bending_content"] == pytest.approx(4.0 / 3.0, rel=1e-12)
    assert totals["energy"] == pytest.approx(4.0 / 3.0 * 1e-9, rel=1e-10)
    profile = results["profile_at_center"]
    assert profile == pytest.approx(
        {"kind": "cubic", "alpha": 1.0, "beta": 0.5, "gamma": 0.5,
         "x1": 0.0, "x2": 0.0})


def test_evaluate_is_deterministic(tmp_path):
    _, out_a = run_cli(tmp_path, BASE, name="a.json")
    _, out_b = run_cli(tmp_path, BASE, name="b.json")
    for fname in ("points.csv", "summary.json"):
        assert (out_a / fname).read_bytes() == (out_b / fname).read_bytes()


def test_points_csv_round_trips_the_grid_values(tmp_path):
    cfg = dict(BASE, surface={"name": "gaussian_bump"},
               material={"model": "mooney_rivlin", "mu": 1.0, "chi": 0.7},
               grid={"nx": 5, "ny": 4})
    code, out = run_cli(tmp_path, cfg)
    assert code == 0
    config = parse_config(cfg)
    points = _evaluation_nodes(config.surface, 5, 4)
    jets, contents = grid_contents(config.surface, config.material, points)
    expected = {"x1": points[:, 0], "x2": points[:, 1], "w_s": contents.stretching,
                "w_b": contents.bending}
    expected.update((k, getattr(jets, k)) for k in CSV_COLUMNS[2:9])
    _, rows = read_rows(out / "points.csv")
    assert len(rows) == 20
    for i, row in enumerate(rows):
        assert row["formula_id"] == contents.formula_id[i]
        for column, values in expected.items():
            assert float(row[column]) == values[i], (i, column)


@pytest.mark.parametrize("changes", [
    {"surface": {"name": "gaussian_bump"},
     "material": {"model": "mooney_rivlin", "mu": 1.0, "chi": 0.7}},
    {"surface": {"name": "cylinder"}},
], ids=["bump", "cylinder"])
def test_points_csv_text_equals_per_row_formatting(tmp_path, changes):
    # the bump's symmetric grid repeats values across rows; the cylinder's
    # columns are mostly ties, and its K is -0.0 at every node
    cfg = dict(BASE, grid={"nx": 5, "ny": 5}, **changes)
    code, out = run_cli(tmp_path, cfg)
    assert code == 0
    config = parse_config(cfg)
    points = _evaluation_nodes(config.surface, 5, 5)
    jets, contents = grid_contents(config.surface, config.material, points)
    columns = [points[:, 0], points[:, 1]] + [getattr(jets, k) for k in
                                              CSV_COLUMNS[2:9]]
    columns += [contents.stretching, contents.bending]
    lines = [",".join([_fmt(c[i]) for c in columns] + [contents.formula_id[i]])
             for i in range(len(points))]
    text = (out / "points.csv").read_text()
    assert text == "\n".join([",".join(CSV_COLUMNS)] + lines) + "\n"


def test_format_column_formats_each_value_like_fmt():
    values = np.array([0.1, -0.0, 0.0, 0.1, 1 / 3, -2.5, 1 / 3, 5e-324,
                       -0.0, 1e300, 0.1 + 2 ** -56, 0.1])
    assert _format_column(values) == [_fmt(v) for v in values.tolist()]
    assert _format_column(values)[1] == "0"


def _evaluate_peak_bytes(tmp_path):
    # the traced peak of a warm evaluate on a 64 x 64 grid
    cfg = dict(BASE, surface={"name": "gaussian_bump", "A": 0.5, "s": 1.0},
               grid={"nx": 64, "ny": 64})
    config = load_config(write_config(tmp_path, cfg))
    assert cli_io.cmd_evaluate(config, str(tmp_path / "warm")) == 0
    tracemalloc.start()
    try:
        assert cli_io.cmd_evaluate(config, str(tmp_path / "out")) == 0
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_evaluate_holds_less_than_5_mib(tmp_path):
    # holding the float columns, jets and row tuples of a 64 x 64 grid
    # through the integration peaked near 6.5 MiB
    assert _evaluate_peak_bytes(tmp_path) < 5 * 2 ** 20


def test_evaluate_holds_one_block_of_jets_and_text(tmp_path):
    # holding the whole grid's jets, then its points.csv text, through the
    # integration peaked near 3.8 MiB; the 11 float columns and the ids of
    # 4096 rows are about 0.4 MiB of what is left
    assert _evaluate_peak_bytes(tmp_path) < 1.5 * 2 ** 20


def test_evaluate_flat_plane_is_zero(tmp_path):
    cfg = dict(BASE, surface={"name": "plane"},
               material={"model": "neo_hookean", "mu": 1.0})
    code, out = run_cli(tmp_path, cfg)
    assert code == 0
    _, rows = read_rows(out / "points.csv")
    assert all(float(r["w_s"]) == 0.0 and float(r["w_b"]) == 0.0 for r in rows)
    results = json.loads((out / "summary.json").read_text())["results"]
    assert results["totals"] == {"stretching_content": 0.0,
                                 "bending_content": 0.0, "energy": 0.0}
    assert results["formula_ids"] == ["neo_hookean_series"]


def test_evaluate_finite_difference_mode(tmp_path):
    cfg = dict(BASE, derivative_mode="finite-difference", fd_step=1e-4)
    code, out = run_cli(tmp_path, cfg)
    assert code == 0
    _, rows = read_rows(out / "points.csv")
    # nodes are inset by 3 * fd_step so difference stencils stay in-domain
    assert float(rows[0]["x1"]) == pytest.approx(-0.4997, abs=1e-12)
    assert float(rows[0]["w_b"]) == pytest.approx(4.0 / 3.0, rel=1e-6)


def test_evaluate_svk_cylinder(tmp_path):
    cfg = dict(BASE, material={"model": "svk", "lambda": 1.0, "mu": 1.0},
               h=0.01)
    code, out = run_cli(tmp_path, cfg)
    assert code == 0
    _, rows = read_rows(out / "points.csv")
    for row in rows:
        assert float(row["w_s"]) == 0.0
        assert float(row["w_b"]) == pytest.approx(8.0 / 9.0, rel=1e-12)
        assert row["formula_id"] == "svk_isometry"
    profile = json.loads((out / "summary.json").read_text())["results"][
        "profile_at_center"]
    assert profile["kind"] == "hyperbolic"
    assert profile["beta"] == pytest.approx(1.0 / 6.0, rel=1e-12)


def test_evaluate_admissibility_failure(tmp_path, capsys):
    cfg = dict(BASE, surface={"name": "uniform_stretch", "l1": 4.0, "l2": 0.25})
    code, _ = run_cli(tmp_path, cfg)
    assert code == 3
    assert "admissibility failure at point" in capsys.readouterr().err


# ---------------------------------------------------------------------------
# config parsing


def test_parse_config_defaults():
    config = parse_config({"surface": {"name": "cylinder"},
                           "material": {"model": "gent", "mu": 1.0, "jm": 10.0},
                           "h": 0.01})
    assert config.grid == (8, 8)
    assert config.surface.derivative_mode == "analytic"
    assert config.surface.step == 1e-4
    assert config.tolerances == {}
    assert config.options == {}
    assert config.h == 0.01
    assert isinstance(config.material, Gent)
    assert config.surface.name == "cylinder"


def test_parse_config_keeps_raw_copy():
    data = dict(BASE)
    config = parse_config(data)
    assert config.raw == data
    assert config.raw is not data


def _patched(**changes):
    cfg = {k: (dict(v) if isinstance(v, dict) else v) for k, v in BASE.items()}
    cfg.update(changes)
    return {k: v for k, v in cfg.items() if v is not _DROP}


_DROP = object()

BAD_CONFIGS = [
    ([], "config must be a JSON object"),
    (_patched(bogus=1), "unknown config key 'bogus'; allowed keys:"),
    (_patched(h=_DROP), "config is missing required key 'h'"),
    (_patched(h="thin"), "'h' must be a number"),
    (_patched(h=True), "'h' must be a number"),
    (_patched(h=-1.0), "'h' must be positive"),
    (_patched(derivative_mode="symbolic"), "'derivative_mode' must be"),
    (_patched(surface="cylinder"), "'surface' must be a mapping with a 'name' key"),
    (_patched(surface={"name": "nope"}), "surface: unknown catalog surface"),
    # a name that cannot be a table key is still an unknown name
    (_patched(surface={"name": [1]}), "surface: unknown catalog surface '[1]'"),
    (_patched(surface={"name": {"a": 1}}), "surface: unknown catalog surface '{'a': 1}'"),
    (_patched(surface={"name": "cylinder", "bogus": 1}),
     "surface: unknown parameters"),
    (_patched(surface={"name": "gaussian_bump", "A": -0.1}),
     "surface: bump amplitude must be nonnegative"),
    (_patched(material={"model": "nope"}), "material: unknown material model"),
    (_patched(material={"model": "ciarlet_geymonat", "a": 0.5, "b": 0.25, "c": 1.5}),
     "material: unknown material parameters ['c'] for 'ciarlet_geymonat'"),
    (_patched(grid={"nx": 1, "ny": 3}), "'grid.nx' must be at least 2"),
    (_patched(grid={"nx": 3, "ny": 100000}),
     "'grid.ny' must be at most 1024, got 100000"),
    (_patched(grid={"nx": 3, "ny": 3, "nz": 3}), "unknown grid key 'nz'"),
    (_patched(grid=[8, 8]), "'grid' must be a mapping"),
    (_patched(quad_order=16), "unknown config key 'quad_order'; allowed keys:"),
    (_patched(tolerances={"bogus": 1e-3}), "unknown tolerance key 'bogus'"),
    (_patched(tolerances={"gent_bending": "x"}),
     "'tolerances.gent_bending' must be a number"),
    (_patched(tolerances={"orientation": 5.0}),
     "the orientation check takes no tolerance"),
    (_patched(options=[]), "'options' must be a mapping"),
    (_patched(options={"bogus": 1}), "unknown options key 'bogus'"),
    (_patched(options={"perturb_beta": 1e-3}),
     "unknown options key 'perturb_beta'"),
    (_patched(options={"checks": "gent_bending"}),
     "'options.checks' must be a list of check ids"),
    (_patched(options={"checks": ["nope"]}), "unknown check id 'nope'"),
    (_patched(options={"checks": ["cg_small_strain", "cg_small_strain"]}),
     "list of check ids, each once"),
    (_patched(options={"sweep": [1]}), "'options.sweep' must be a mapping"),
    (_patched(options={"sweep": {"param": "h"}}),
     "'options.sweep' needs 'param' and 'values'"),
    (_patched(options={"sweep": {"param": "h", "values": []}}),
     "'sweep.values' must be a non-empty list"),
    (_patched(options={"sweep": {"param": "h", "values": [1e-3], "bogus": 1}}),
     "unknown sweep key 'bogus'"),
    (_patched(options={"sweep": {"param": "lambda1", "values": [-1.0]}}),
     "'sweep.values' must be positive"),
]


@pytest.mark.parametrize("data,match", BAD_CONFIGS,
                         ids=[m.split(",")[0][:40] for _, m in BAD_CONFIGS])
def test_parse_config_rejects(data, match):
    with pytest.raises(ConfigError) as err:
        parse_config(data)
    assert match in str(err.value)


@pytest.mark.parametrize("command,changes,message", [
    ("evaluate", {"h": math.inf}, "'h' must be finite, got inf"),
    ("evaluate", {"material": {"model": "gent", "mu": math.nan, "jm": 10.0}},
     "material: 'mu' must be finite, got nan"),
    ("evaluate", {"fd_step": math.inf}, "'fd_step' must be finite, got inf"),
    ("sweep", {"options": {"sweep": {"param": "h", "values": [1e-3, math.nan]}}},
     "'sweep.values' must be finite, got nan"),
    ("evaluate", {"surface": {"name": "sphere_cap", "R": math.nan}},
     "surface: 'R' must be finite, got nan"),
    ("evaluate", {"surface": {"name": "sphere_cap", "R": "2"}},
     "surface: 'R' must be a number, got '2'"),
    ("evaluate", {"surface": {"name": "sphere_cap", "R": True}},
     "surface: 'R' must be a number, got True"),
    ("evaluate", {"material": {"model": "svk", "lambda": -2, "mu": 1}},
     "material: SaintVenantKirchhoff requires lam > 0 and mu > 0"),
    # an integer past the double range reads as 1e400 does
    ("evaluate", {"h": 10 ** 400}, "'h' must be finite, got inf"),
    ("verify", {"tolerances": {"gent_bending": -10 ** 400}},
     "'tolerances.gent_bending' must be finite, got -inf"),
])
def test_non_finite_numbers_are_config_errors(tmp_path, capsys, command,
                                              changes, message):
    # json.dumps writes NaN and Infinity, which json.load reads back
    code, out = run_cli(tmp_path, _patched(**changes), command=command)
    assert code == 2
    assert capsys.readouterr().err == f"config error: {message}\n"
    assert not out.exists()


@pytest.mark.parametrize("command", ["evaluate", "sweep"])
@pytest.mark.parametrize("changes,message", [
    ({"surface": {"name": "saddle", "a": 1e9}},
     "stretch tensor not positive definite"),
    ({"derivative_mode": "finite-difference", "fd_step": 1.0},
     "outside domain of 'cylinder'"),
], ids=["saddle_a_1e9", "fd_step_1"])
def test_degenerate_or_outside_surfaces_are_config_errors(
        tmp_path, capsys, command, changes, message):
    if command == "sweep":
        changes = dict(changes, options={"sweep": {"param": "h", "values": [1e-3]}})
    code, out = run_cli(tmp_path, _patched(**changes), command=command)
    assert code == 2
    err = capsys.readouterr().err
    assert err.startswith("config error: ") and message in err
    assert "Traceback" not in err
    assert not out.exists()


def test_fd_quadrature_node_past_the_inset_domain_names_the_margin(tmp_path,
                                                                   capsys):
    # the first of 128 Gauss nodes per side lies 1.3e-4 inside the bump's
    # domain, within the 2 * fd_step = 2e-4 the stencil needs
    code, out = run_cli(tmp_path, _patched(
        surface={"name": "gaussian_bump"},
        material={"model": "neo_hookean", "mu": 1.0},
        derivative_mode="finite-difference", grid={"nx": 128, "ny": 128}))
    assert code == 2
    assert capsys.readouterr().err == (
        "config error: point (-0.749869, -0.749869) outside domain of "
        "'gaussian_bump' inset by its finite-difference margin 0.0002\n")
    assert not out.exists()


def _bump_4x4(**changes):
    return _patched(**dict({"surface": {"name": "gaussian_bump", "A": 0.5},
                            "material": {"model": "neo_hookean", "mu": 1.0},
                            "grid": {"nx": 4, "ny": 4},
                            "options": {"sweep": {"param": "h",
                                                  "values": [1e-3, 2e-3]}}},
                           **changes))


_BOTH = ("evaluate", "sweep")
# (id, changes, message, commands)
_NON_FINITE_RESULTS = [
    ("mu_1e308", {"material": {"model": "neo_hookean", "mu": 1e308}},
     "is inf, not a finite number", _BOTH),
    ("h_1e200",
     {"h": 1e200, "options": {"sweep": {"param": "h", "values": [1e200]}}},
     "a result overflows double precision: the energy at h = 1e+200", _BOTH),
    ("sphere_R_1e-300", {"surface": {"name": "sphere_cap", "R": 1e-300}},
     "stretch tensor not positive definite", _BOTH),
    # s * s underflows to 0 and the steepness maxima are NaN
    ("bump_s_1e-200",
     {"surface": {"name": "gaussian_bump", "A": 0.5, "s": 1e-200}},
     "bump with A=0.5, s=1e-200 is too steep to stay an immersion", _BOTH),
    # (s * s) ** 8 past the double range: the check when the bump is built
    # names the width (w ** 8, w ** 2 and an inf s * s failed three ways)
    *[(f"bump_s_{s:g}", {"surface": {"name": "gaussian_bump", "A": 0.5, "s": s}},
       f"a result overflows double precision: the bump width s = {s:g}", _BOTH)
      for s in (1e20, 1e100, 1e200)],
    # only evaluate builds the SVK profile (at the domain center); here
    # cosh(2 H h) overflows and its coefficient is inf / inf
    ("svk_cylinder_R_1e-3",
     {"surface": {"name": "cylinder", "R": 0.001}, "h": 0.8,
      "material": {"model": "svk", "lambda": 1.0, "mu": 1.0}},
     "a result overflows double precision: the SVK profile at H = -500, "
     "h = 0.8", ("evaluate",)),
    # lambda * lambda and mu * (lambda + mu) underflow: 0 / 0
    ("svk_plane_lame_1e-200",
     {"surface": {"name": "plane"},
      "material": {"model": "svk", "lambda": 1e-200, "mu": 1e-300}},
     "a result overflows double precision: the SVK profile at H = 0, "
     "h = 0.001", ("evaluate",)),
]


@pytest.mark.parametrize("command,changes,message", [
    pytest.param(command, changes, message, id=f"{name}-{command}")
    for name, changes, message, commands in _NON_FINITE_RESULTS
    for command in commands])
def test_non_finite_results_are_config_errors(tmp_path, capsys, command,
                                              changes, message):
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        code, out = run_cli(tmp_path, _bump_4x4(**changes), command=command)
    assert code == 2
    err = capsys.readouterr().err
    assert "Traceback" not in err
    # the error line is the only output: the run's RuntimeWarnings are dropped
    assert err.startswith("config error: ") and err.count("\n") == 1
    assert message in err
    assert caught == []
    assert not out.exists()


@pytest.mark.parametrize("command", _BOTH)
def test_widest_bump_within_double_precision_runs(tmp_path, command):
    # w = 1e38: w ** 8 = 1e304 is still finite
    code, out = run_cli(tmp_path, _bump_4x4(surface={"name": "gaussian_bump",
                                                     "A": 0.5, "s": 1e19}),
                        command=command)
    assert code == 0
    assert out.exists()


@pytest.mark.parametrize("changes", [
    {"material": {"model": "neo_hookean", "mu": 1e308}},
    {"surface": {"name": "sphere_cap", "R": 1e-300}},
], ids=["mu_1e308", "sphere_R_1e-300"])
def test_non_finite_config_error_is_the_only_stderr_line(tmp_path, changes):
    proc = subprocess.run(
        [sys.executable, "-m", "plate_reduce.cli_io", "evaluate", "--config",
         write_config(tmp_path, _bump_4x4(**changes)),
         "--out", str(tmp_path / "out")],
        capture_output=True, text=True, env=_src_env())
    assert proc.returncode == 2
    assert proc.stderr.startswith("config error: ")
    assert proc.stderr.count("\n") == 1, proc.stderr


def test_run_that_succeeds_still_shows_its_warnings(tmp_path, monkeypatch):
    def noisy(tolerances):
        warnings.warn("a noisy check", RuntimeWarning)
        return _verdict("eigenframe_coupling", True, 0.0, 0.0, 1.0, "ok")

    monkeypatch.setattr(cli_io, "CHECKS", (("eigenframe_coupling", noisy),))
    cfg = dict(BASE, options={"checks": ["eigenframe_coupling"]})
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        code, _ = run_cli(tmp_path, cfg, command="verify")
    assert code == 0
    assert [str(w.message) for w in caught] == ["a noisy check"]


def test_codazzi_check_shows_warnings_other_than_umbilic_ones(tmp_path):
    # the check drops the umbilic-stretch warnings of plane and cylinder;
    # any other RuntimeWarning of the connector numerics reaches stderr
    script = (
        "import sys, warnings\n"
        "from plate_reduce import cli_io, connectors\n"
        "check = connectors.check_codazzi\n"
        "def noisy(grid):\n"
        "    warnings.warn('overflow in a connector', RuntimeWarning)\n"
        "    return check(grid)\n"
        "connectors.check_codazzi = noisy\n"
        "sys.exit(cli_io.main(sys.argv[1:]))\n")
    cfg = dict(BASE, options={"checks": ["codazzi_residuals"]})
    proc = subprocess.run(
        [sys.executable, "-c", script, "verify", "--config",
         write_config(tmp_path, cfg), "--out", str(tmp_path / "out")],
        capture_output=True, text=True, env=_src_env())
    assert proc.returncode == 0, proc.stderr
    assert "RuntimeWarning: overflow in a connector" in proc.stderr
    assert "umbilic stretch" not in proc.stderr


@pytest.mark.parametrize("changes,message", [
    ({"surface": {"name": "cylinder"},
      "material": {"model": "ciarlet_geymonat", "lambda": 1.0, "mu": 1.0},
      "options": {"sweep": {"param": "lambda1", "values": [2.0, 1e200]}}},
     "the swept lambda1 = 1e+200"),
    # 1e-200 squared is 0.0, and 1 / 0.0 raised ZeroDivisionError
    ({"surface": {"name": "cylinder"},
      "material": {"model": "ciarlet_geymonat", "lambda": 1.0, "mu": 1.0},
      "options": {"sweep": {"param": "lambda1", "values": [1e-200]}}},
     "the swept lambda1 = 1e-200"),
    ({"h": 1e200, "options": {"sweep": {"param": "h",
                                        "values": [1e-3, 1e200]}}},
     "the energy at h = 1e+200"),
    ({"h": 1e200, "options": {"sweep": {"param": "quad_order",
                                        "values": [2, 3]}}},
     "the energy at h = 1e+200"),
], ids=["lambda1_1e200", "lambda1_1e-200", "h_sweep_1e200", "quad_order_h_1e200"])
def test_overflow_names_the_quantity(tmp_path, capsys, changes, message):
    code, out = run_cli(tmp_path, _bump_4x4(**changes), command="sweep")
    assert code == 2
    assert capsys.readouterr().err == (
        f"config error: a result overflows double precision: {message}\n")
    assert not out.exists()


def test_write_json_rejects_non_finite_values(tmp_path):
    path = tmp_path / "summary.json"
    with pytest.raises(ValueError, match="JSON compliant"):
        _write_json(str(path), {"energy": math.nan})
    assert not path.exists()


def test_material_parameters_must_be_numbers():
    with pytest.raises(ConfigError, match="material: 'mu' must be a number"):
        parse_config(_patched(material={"model": "neo_hookean", "mu": "10"}))


def test_load_config_errors(tmp_path):
    with pytest.raises(ConfigError, match="cannot read config"):
        load_config(str(tmp_path / "missing.json"))
    bad = tmp_path / "bad.json"
    bad.write_text("{not json")
    with pytest.raises(ConfigError, match="invalid JSON in"):
        load_config(str(bad))
    # past the interpreter's limit on digits in an integer, where it has one
    bad.write_text('{"h": ' + "9" * 5000 + "}")
    with pytest.raises(ConfigError,
                       match="invalid JSON in .*digits|'h' must be finite"):
        load_config(str(bad))


@pytest.mark.parametrize("command,message", [
    ("evaluate", "evaluate needs --config"),
    ("verify", "verify needs --config or --all"),
    ("sweep", "sweep needs --config"),
])
def test_main_requires_config(command, message, capsys):
    assert main([command]) == 2
    assert message in capsys.readouterr().err


@pytest.mark.parametrize("argv,changes", [
    (["evaluate"], None),
    (["verify"], None),
    (["sweep"], None),
    (["verify"], {"options": {"checks": []}}),
    (["sweep"], {}),
    (["sweep"], {"options": {"sweep": {"param": "mu", "values": [1.0]}}}),
    (["sweep"], {"material": {"model": "neo_hookean", "mu": 1.0},
                 "options": {"sweep": {"param": "Jm", "values": [1e2]}}}),
    (["sweep"], {"options": {"sweep": {"param": "quad_order",
                                       "values": [4.5]}}}),
    # a size past the bound is rejected before any Gauss rule is built
    (["sweep"], {"options": {"sweep": {"param": "quad_order",
                                       "values": [4, 1e300]}}}),
    (["evaluate"], {"grid": {"nx": 100000, "ny": 3}}),
    # usage errors, which argparse would report in two lines of its own
    (["evaluate", "--bogus"], None),
    ([], None),
    (["bogus"], None),
    (["verify", "--config"], None),
], ids=["evaluate_no_config", "verify_no_config", "sweep_no_config",
        "empty_selection", "no_options_sweep", "param_mu", "Jm_neo_hookean",
        "quad_order_4.5", "quad_order_1e300", "grid_nx_1e5", "unknown_option",
        "no_command", "unknown_command", "config_without_path"])
def test_every_config_error_is_one_stderr_line(tmp_path, capsys, argv,
                                               changes):
    if changes is not None:
        argv += ["--config", write_config(tmp_path, _patched(**changes)),
                 "--out", str(tmp_path / "out")]
    assert main(argv) == 2
    captured = capsys.readouterr()
    assert captured.err.startswith("config error: ")
    assert captured.err.count("\n") == 1, captured.err
    assert captured.out == ""
    assert not (tmp_path / "out").exists()


def test_usage_errors_and_help_return_from_main(capsys):
    # argparse would end the process with SystemExit; main returns instead
    assert main(["evaluate", "--bogus"]) == 2
    assert capsys.readouterr().err == ("config error: unrecognized "
                                       "arguments: --bogus\n")
    assert main(["--help"]) == 0
    captured = capsys.readouterr()
    assert captured.out.startswith("usage: plate-reduce")
    assert captured.err == ""


@pytest.mark.parametrize("command", ["evaluate", "verify"])
@pytest.mark.parametrize("sweep,message", [
    ({"param": "mu", "values": [1.0]},
     "unknown sweep parameter 'mu'; expected one of h, Jm, lambda1, "
     "quad_order"),
    ({"param": "lambda1", "values": [1.1]},
     "lambda1 sweep requires a ciarlet_geymonat material in the config"),
    ({"param": "quad_order", "values": [1]},
     "'sweep.values' must be at least 2, got 1"),
    ({"param": "quad_order", "values": [2048]},
     "'sweep.values' must be at most 1024, got 2048"),
    ({"param": "quad_order", "values": [8.0]},
     "'sweep.values' must be an integer, got 8.0"),
], ids=["param_mu", "lambda1_gent", "quad_order_1", "quad_order_2048",
        "quad_order_8.0"])
def test_every_command_validates_options_sweep(tmp_path, capsys, command,
                                               sweep, message):
    code, out = run_cli(tmp_path, _patched(options={"sweep": sweep}),
                        command=command)
    assert code == 2
    assert capsys.readouterr().err == f"config error: {message}\n"
    assert not out.exists()


def test_main_reports_config_errors(tmp_path, capsys):
    path = write_config(tmp_path, {"surface": {"name": "cylinder"}})
    assert main(["evaluate", "--config", path]) == 2
    assert capsys.readouterr().err.startswith("config error:")


# ---------------------------------------------------------------------------
# verify


def test_verify_selected_checks(tmp_path, capsys):
    cfg = dict(BASE, options={"checks": ["eigenframe_coupling",
                                         "cross_path_curvatures"]})
    code, out = run_cli(tmp_path, cfg, command="verify")
    assert code == 0
    stdout = capsys.readouterr().out
    assert "PASS eigenframe_coupling:" in stdout
    assert "PASS cross_path_curvatures:" in stdout
    assert "2/2 checks passed" in stdout

    report = json.loads((out / "verdicts.json").read_text())
    assert report["n_checks"] == 2
    assert report["n_passed"] == 2
    assert report["all_passed"] is True
    assert [v["check_id"] for v in report["checks"]] == [
        "eigenframe_coupling", "cross_path_curvatures"]
    assert all(v["passed"] and v["detail"] for v in report["checks"])


def shift_profile_beta(monkeypatch, shift):
    # the incompressibility-order check's profile with its quadratic
    # coefficient shifted by ``shift``
    rule = checks.incompressible_profile

    def shifted(jet):
        p = rule(jet)
        return PolyProfile(p.alpha, p.beta + shift, p.gamma)

    monkeypatch.setattr(checks, "incompressible_profile", shifted)


def test_verify_perturbation_is_caught(tmp_path, capsys, monkeypatch):
    shift_profile_beta(monkeypatch, 1e-3)
    cfg = dict(BASE, options={"checks": ["incompressibility_order"]})
    code, out = run_cli(tmp_path, cfg, command="verify")
    assert code == 1
    stdout = capsys.readouterr().out
    assert "FAIL incompressibility_order:" in stdout
    assert "0/1 checks passed" in stdout
    report = json.loads((out / "verdicts.json").read_text())
    assert report["all_passed"] is False


def test_verify_writes_non_finite_observations_as_failed_nulls(tmp_path,
                                                             capsys,
                                                             monkeypatch):
    # a perturbation this large overflows the residuals to nan slopes
    shift_profile_beta(monkeypatch, 1e200)
    cfg = dict(BASE, options={"checks": ["incompressibility_order"]})
    with np.errstate(over="ignore", invalid="ignore"):
        code, out = run_cli(tmp_path, cfg, command="verify")
    assert code == 1
    assert "FAIL incompressibility_order:" in capsys.readouterr().out
    report = json.loads((out / "verdicts.json").read_text(),
                        parse_constant=lambda c: pytest.fail(f"non-strict {c}"))
    assert report["all_passed"] is False
    verdict, = report["checks"]
    assert verdict["passed"] is False
    assert verdict["observed"] == {"cylinder": None, "gaussian_bump": None}


@pytest.mark.parametrize("error", [DomainError, DegenerateImmersionError,
                                   AreaDistortionError, StiffeningLimitError,
                                   FitError, BracketError, ResolutionError,
                                   TypeError, KeyError])
def test_verify_check_that_raises_fails_its_verdict(tmp_path, capsys,
                                                    monkeypatch, error):
    def crash(tolerances):
        raise error("no room for the stencil")

    monkeypatch.setattr(cli_io, "CHECKS", tuple(
        (cid, crash if cid == "eigenframe_coupling" else check)
        for cid, check in cli_io.CHECKS))
    cfg = dict(BASE, options={"checks": ["eigenframe_coupling",
                                         "cross_path_curvatures"]})
    code, out = run_cli(tmp_path, cfg, command="verify")
    assert code == 1
    captured = capsys.readouterr()
    assert "Traceback" not in captured.err
    # a KeyError's text is the repr of its key
    assert (f"FAIL eigenframe_coupling: check raised {error.__name__}: "
            f"{error('no room for the stencil')}") in captured.out
    assert "PASS cross_path_curvatures:" in captured.out
    assert "1/2 checks passed" in captured.out
    report = json.loads((out / "verdicts.json").read_text(),
                        parse_constant=lambda c: pytest.fail(f"non-strict {c}"))
    crashed, other = report["checks"]
    assert crashed["check_id"] == "eigenframe_coupling"
    assert crashed["passed"] is False and crashed["observed"] is None
    assert error.__name__ in crashed["detail"]
    assert other["passed"] is True
    assert report["n_passed"] == 1 and report["all_passed"] is False


def test_verdict_fails_any_non_finite_observation():
    verdict = _verdict("x", True, {"ok": 1.0, "bad": math.inf}, 0.0, 1.0, "")
    assert verdict["passed"] is False
    assert verdict["observed"] == {"ok": 1.0, "bad": None}
    verdict = _verdict("x", True, math.nan, 0.0, 1.0, "")
    assert verdict["passed"] is False and verdict["observed"] is None
    assert _verdict("x", True, 2.0, 0.0, 1.0, "")["passed"] is True
    # numpy scalars that are no Python float still reach verdicts.json
    verdict = _verdict("x", True, {"a": np.float32(0.5), "b": np.int64(2)},
                       np.float32(3.0), 1.0, "")
    assert json.loads(json.dumps(verdict))["observed"] == {"a": 0.5, "b": 2.0}
    verdict = _verdict("x", True, np.float32(0.25), None, None, "")
    assert json.loads(json.dumps(verdict))["observed"] == 0.25
    assert verdict["expected"] is None and verdict["passed"] is True


def test_minimality_probes_are_the_seeded_draw():
    drawn = np.random.default_rng(170831).uniform(
        (0.2, 0.2, 1.5, 0.4, -1.5, -2.0, -3.0),
        (3.0, 3.0, 5.0, 3.0, 1.5, 2.0, 3.0), size=(100, 7))
    stored = checks._MINIMALITY_PROBES
    assert stored.shape == drawn.shape and stored.dtype == drawn.dtype
    assert stored.tobytes() == drawn.tobytes()


def test_eigenframe_check_fails_on_a_shifted_coupling(monkeypatch):
    # a coupling whose zero sits 1e-7 off the bisected angle must fail
    coupling = checks.eigenframe_coupling
    monkeypatch.setattr(checks, "eigenframe_coupling",
                        lambda k1, k2, lambda1, phi:
                        coupling(k1, k2, lambda1, phi + 1e-7))
    assert not _check_eigenframe_coupling({})["passed"]


def test_eigenframe_check_holds_less_than_1_mib():
    # a 1001-angle grid argmin, refined by minimize_scalar, holds no large arrays
    assert _check_eigenframe_coupling({})["passed"]
    tracemalloc.start()
    try:
        verdict = _check_eigenframe_coupling({})
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert verdict["passed"] and peak < 2 ** 20


def test_verify_tolerance_override(tmp_path, capsys):
    cfg = dict(BASE, tolerances={"cross_path_curvatures": 1e-30},
               options={"checks": ["cross_path_curvatures"]})
    code, _ = run_cli(tmp_path, cfg, command="verify")
    assert code == 1
    assert "FAIL cross_path_curvatures:" in capsys.readouterr().out


def test_each_tolerance_reaches_its_verdict(tmp_path):
    # a check runs at, and reports, the config's tolerance for its id;
    # orientation takes none and reports 0.0
    ids = [cid for cid in CHECK_IDS if cid != "orientation"]
    tolerances = {cid: 0.5 + i / 64 for i, cid in enumerate(ids)}
    code, out = run_cli(tmp_path, dict(BASE, tolerances=tolerances),
                        command="verify")
    assert code == 0
    verdicts = json.loads((out / "verdicts.json").read_text())["checks"]
    assert ({v["check_id"]: v["tolerance"] for v in verdicts}
            == dict(tolerances, orientation=0.0))


def test_verify_empty_selection(tmp_path, capsys):
    cfg = dict(BASE, options={"checks": []})
    code, _ = run_cli(tmp_path, cfg, command="verify")
    assert code == 2
    assert "empty check selection" in capsys.readouterr().err


def test_check_ids_are_unique():
    assert len(set(CHECK_IDS)) == len(CHECK_IDS) == 12


def test_cli_io_still_names_the_check_table():
    assert cli_io.CHECKS is checks.CHECKS
    assert cli_io.CHECK_IDS is checks.CHECK_IDS
    with pytest.raises(AttributeError, match="_check_orientation"):
        cli_io._check_orientation


# ---------------------------------------------------------------------------
# sweep


def sweep_table(out):
    lines = (out / "sweep.csv").read_text().splitlines()
    assert lines[0] == "param,value,observable,result"
    table = {}
    for line in lines[1:]:
        param, value, observable, result = line.split(",")
        table[(float(value), observable)] = float(result)
    return table


def test_sweep_h(tmp_path):
    cfg = dict(BASE, surface={"name": "gaussian_bump"},
               material={"model": "neo_hookean", "mu": 1.0},
               grid={"nx": 4, "ny": 4},
               options={"sweep": {"param": "h", "values": [1e-2, 1e-3]}})
    code, out = run_cli(tmp_path, cfg, command="sweep")
    assert code == 0
    table = sweep_table(out)
    assert len(table) == 4
    # det C_f drifts from 1 like h^3 for the truncated cubic profile
    ratio = table[(1e-2, "detcf_residual")] / table[(1e-3, "detcf_residual")]
    assert 500.0 < ratio < 2000.0
    assert table[(1e-2, "total_energy")] > table[(1e-3, "total_energy")] > 0.0


def test_sweep_jm_gap_decays(tmp_path, capsys):
    cfg = dict(BASE, surface={"name": "gaussian_bump"},
               options={"sweep": {"param": "Jm", "values": [1e2, 1e3]}})
    code, out = run_cli(tmp_path, cfg, command="sweep")
    assert code == 0
    table = sweep_table(out)
    for observable in ("stretching_gap", "bending_gap"):
        ratio = table[(1e2, observable)] / table[(1e3, observable)]
        assert 8.0 < ratio < 12.0

    cfg["material"] = {"model": "neo_hookean", "mu": 1.0}
    code, _ = run_cli(tmp_path, cfg, command="sweep", name="nh.json")
    assert code == 2
    assert "Jm sweep requires a gent material" in capsys.readouterr().err


def test_sweep_lambda1(tmp_path, capsys):
    cfg = dict(BASE, material={"model": "ciarlet_geymonat",
                               "lambda": 2.0, "mu": 0.8},
               options={"sweep": {"param": "lambda1", "values": [1.1, 1.2]}})
    code, out = run_cli(tmp_path, cfg, command="sweep")
    assert code == 0
    table = sweep_table(out)
    assert table[(1.2, "strain_norm")] > table[(1.1, "strain_norm")] > 0.0
    assert table[(1.2, "w1_quadratic_remainder")] > 0.0
    assert table[(1.1, "w1_quadratic_remainder")] > 0.0

    cfg["material"] = BASE["material"]
    code, _ = run_cli(tmp_path, cfg, command="sweep", name="gent.json")
    assert code == 2
    assert "lambda1 sweep requires a ciarlet_geymonat" in capsys.readouterr().err


def test_sweep_quad_order(tmp_path, capsys):
    cfg = dict(BASE, options={"sweep": {"param": "quad_order",
                                        "values": [4, 8]}})
    code, out = run_cli(tmp_path, cfg, command="sweep")
    assert code == 0
    table = sweep_table(out)
    # the cylinder integrand is constant, so every order integrates exactly
    assert table[(4.0, "quadrature_delta")] <= 1e-12
    assert table[(8.0, "quadrature_delta")] <= 1e-12
    assert table[(4.0, "total_energy")] > 0.0

    cfg["options"]["sweep"]["values"] = [4.5]
    code, _ = run_cli(tmp_path, cfg, command="sweep", name="frac.json")
    assert code == 2
    assert capsys.readouterr().err == ("config error: 'sweep.values' must be "
                                       "an integer, got 4.5\n")


_SVK_STRETCH = {"surface": {"name": "uniform_stretch", "l1": 3.0, "l2": 0.5},
                "material": {"model": "svk", "lambda": 1.0, "mu": 1.0}}


@pytest.mark.parametrize("changes,sweep,where,message", [
    ({"surface": {"name": "uniform_stretch", "l1": 3.0, "l2": 0.3333333333333333},
      "material": {"model": "gent", "mu": 1.0, "jm": 100.0}},
     {"param": "Jm", "values": [1e-9]}, "", "reached the extensibility limit"),
    # a grid's first failing Gauss node, as evaluate names a lattice point:
    # the 3 x 3 config grid, then the 4 x 4 reference of the top order
    (_SVK_STRETCH, {"param": "h", "values": [1e-3, 2e-3]},
     " at point (-0.387298, -0.387298)", "needs an unstretched mid-surface"),
    (_SVK_STRETCH, {"param": "quad_order", "values": [2, 4]},
     " at point (-0.430568, -0.430568)", "needs an unstretched mid-surface"),
], ids=["Jm_gent", "h_svk", "quad_order_svk"])
def test_sweep_admissibility_failure_exits_3(tmp_path, capsys, changes, sweep,
                                             where, message):
    code, out = run_cli(tmp_path, _patched(options={"sweep": sweep}, **changes),
                        command="sweep")
    assert code == 3
    err = capsys.readouterr().err
    assert err.startswith(f"admissibility failure{where}: ") and message in err
    assert not out.exists()


def test_sweep_rejects_unknown_param(tmp_path, capsys):
    cfg = dict(BASE, options={"sweep": {"param": "mu", "values": [1.0]}})
    code, _ = run_cli(tmp_path, cfg, command="sweep")
    assert code == 2
    assert "unknown sweep parameter 'mu'" in capsys.readouterr().err


def test_sweep_needs_sweep_options(tmp_path, capsys):
    code, _ = run_cli(tmp_path, BASE, command="sweep")
    assert code == 2
    assert "sweep command needs options.sweep" in capsys.readouterr().err


def test_sweep_is_deterministic(tmp_path):
    cfg = dict(BASE, options={"sweep": {"param": "quad_order",
                                        "values": [4, 8]}})
    _, out_a = run_cli(tmp_path, cfg, command="sweep", name="a.json")
    _, out_b = run_cli(tmp_path, cfg, command="sweep", name="b.json")
    assert (out_a / "sweep.csv").read_bytes() == (out_b / "sweep.csv").read_bytes()


# ---------------------------------------------------------------------------
# console entry point and helper surfaces


def test_console_script(tmp_path):
    # the module entry point behind the plate-reduce script, run from this
    # checkout whether or not the package is installed
    env = _src_env()
    out = tmp_path / "out"
    proc = subprocess.run(
        [sys.executable, "-m", "plate_reduce.cli_io", "evaluate", "--config",
         write_config(tmp_path, BASE), "--out", str(out)],
        capture_output=True, text=True, env=env)
    assert proc.returncode == 0
    assert (out / "summary.json").exists()
    assert "evaluated 9 points" in proc.stdout


def _buffered_env():
    # stdout to a file or pipe is block-buffered unless PYTHONUNBUFFERED is
    # set, so only the entry function's flush before os._exit delivers it
    env = _src_env()
    env.pop("PYTHONUNBUFFERED", None)
    return env


@pytest.mark.parametrize("code,cfg,command,stdout_end,stderr_start", [
    (0, BASE, "evaluate", "wrote ", None),
    (1, dict(BASE, tolerances={"cross_path_curvatures": 1e-30},
             options={"checks": ["cross_path_curvatures"]}),
     "verify", "0/1 checks passed", None),
    (2, None, "evaluate", None, "config error: "),
    (3, dict(BASE, surface={"name": "uniform_stretch", "l1": 4.0, "l2": 0.25}),
     "evaluate", None, "admissibility failure at point "),
], ids=["ok", "check-failed", "config", "admissibility"])
def test_each_exit_code_delivers_its_streams_to_files(tmp_path, code, cfg, command,
                                                      stdout_end, stderr_start):
    config = [] if cfg is None else ["--config", write_config(tmp_path, cfg)]
    out, err = tmp_path / "stdout.txt", tmp_path / "stderr.txt"
    with open(out, "w") as out_file, open(err, "w") as err_file:
        proc = subprocess.run(
            [sys.executable, "-m", "plate_reduce.cli_io", command, *config,
             "--out", str(tmp_path / "out")],
            stdout=out_file, stderr=err_file, env=_buffered_env())
    assert proc.returncode == code, err.read_text()
    if stdout_end is None:
        assert out.read_text() == ""
        assert err.read_text().count("\n") == 1
        assert err.read_text().startswith(stderr_start)
    else:
        assert out.read_text().splitlines()[-1].startswith(stdout_end)
        assert err.read_text() == ""


@pytest.mark.skipif(not hasattr(signal, "SIGPIPE"), reason="no SIGPIPE here")
def test_a_closed_stdout_ends_evaluate_by_sigpipe(tmp_path):
    # the files are written before the buffered stdout is flushed into a
    # pipe no one reads; the process ends as cat does, without a traceback
    out = tmp_path / "out"
    proc = subprocess.Popen(
        [sys.executable, "-m", "plate_reduce.cli_io", "evaluate", "--config",
         write_config(tmp_path, BASE), "--out", str(out)],
        stdout=subprocess.PIPE, stderr=subprocess.PIPE, env=_buffered_env())
    proc.stdout.close()
    _, stderr = proc.communicate(timeout=120)
    assert proc.returncode == -signal.SIGPIPE
    assert stderr == b""
    assert (out / "points.csv").exists() and (out / "summary.json").exists()


def test_import_does_not_load_scipy():
    # numpy is the only runtime dependency; a fresh process shows what the
    # CLI module pulls in
    env = _src_env()
    proc = subprocess.run(
        [sys.executable, "-c", "import plate_reduce.cli_io, sys; "
         "print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))"],
        capture_output=True, text=True, env=env)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "[]"


def test_uniform_stretch_cone_surface():
    surface = uniform_stretch_cone(2.0)
    assert surface.name == "uniform_stretch_cone"
    jet = evaluate_jet(surface, np.array([1.0, 0.0]))
    assert jet.lambda1 == pytest.approx(2.0, abs=1e-12)
    assert jet.lambda2 == pytest.approx(0.5, abs=1e-12)
    assert abs(jet.K) <= 1e-12
    assert jet.detC == pytest.approx(1.0, abs=1e-12)


def test_uniform_stretch_cone_validation():
    with pytest.raises(ValueError, match="lambda1 > 1"):
        uniform_stretch_cone(1.0)
    # its one parameter box excludes the apex
    assert uniform_stretch_cone(2.0).domain == ((0.55, 1.45), (-0.45, 0.45))
