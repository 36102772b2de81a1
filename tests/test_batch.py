"""The batched jet -> contents -> integration pipeline against the
per-point one, value for value and error for error."""

import json
import warnings
from dataclasses import replace

import numpy as np
import pytest

import plate_reduce.cli_io as cli_io
import plate_reduce.reduced_energy as reduced_energy
from plate_reduce import (
    CiarletGeymonat,
    DegenerateImmersionError,
    Gent,
    MaterialDomainError,
    MooneyRivlin,
    NeoHookean,
    ParametricSurface,
    SaintVenantKirchhoff,
    StiffeningLimitError,
    catalog_surface,
    evaluate_jet,
    integrate_contents,
    point_contents,
)
from plate_reduce.reduced_energy import gent_contents, grid_contents
from plate_reduce.surface_geometry import (JetBatch, _bump_height,
                                           _bump_scalars, _gauss_legendre,
                                           evaluate_jets, uniform_stretch_cone)
from plate_reduce.thickness_profile import svk_profile

SURFACES = ("plane", "uniform_stretch", "cylinder", "sphere_cap", "saddle",
            "gaussian_bump")
MODES = ("analytic", "finite-difference")
MATERIALS = (Gent(mu=1.0, jm=10.0), NeoHookean(mu=1.0),
             MooneyRivlin(mu=1.0, chi=0.7), CiarletGeymonat.from_lame(1.0, 1.0),
             SaintVenantKirchhoff(lam=1.0, mu=1.0))
ARRAY_FIELDS = ("grad_y", "hess_y", "grad_nu", "a1", "a2", "normal", "C", "B",
                "r1", "r2", "l1", "l2", "shape_op")
SCALAR_FIELDS = ("lambda1", "lambda2", "H", "K", "b1", "trC", "detC")


def grid_points(surface, n=7):
    # an odd count puts a node on the center: umbilic frames, the bump's
    # series branch and unimodular nodes next to stretched ones
    margin = 3.0 * surface.step
    (u0, u1), (v0, v1) = surface.domain
    xs = np.linspace(u0 + margin, u1 - margin, n)
    ys = np.linspace(v0 + margin, v1 - margin, n)
    return np.column_stack([np.repeat(xs, n), np.tile(ys, n)])


def first_error_per_point(surface, material, points):
    """(index, type, message) of the first failure of a per-point loop."""
    for i, x in enumerate(points):
        try:
            point_contents(evaluate_jet(surface, x), material)
        except ValueError as err:
            return i, type(err), str(err)
    return None


def assert_close(batched, per_point, what):
    scale = max(np.max(np.abs(per_point)), 1e-300)
    gap = np.max(np.abs(np.asarray(batched) - per_point))
    assert gap <= 1e-14 * scale, f"{what}: gap {gap:.3g} of {scale:.3g}"


def assert_jets_match_per_point(surface, mode):
    points = grid_points(surface)
    batch = evaluate_jets(surface, points)
    jets = [evaluate_jet(surface, x) for x in points]
    assert isinstance(batch, JetBatch) and len(batch) == len(points)
    assert batch.derivative_mode == mode
    np.testing.assert_array_equal(batch.x, points.T)
    for field in ARRAY_FIELDS + SCALAR_FIELDS:
        per_point = np.stack([np.asarray(getattr(j, field)) for j in jets], axis=-1)
        assert getattr(batch, field).shape == per_point.shape, field
        assert_close(getattr(batch, field), per_point,
                     f"{surface.name} {mode} {field}")


@pytest.mark.parametrize("mode", MODES)
@pytest.mark.parametrize("name", SURFACES)
def test_batched_jets_match_per_point_jets(name, mode):
    assert_jets_match_per_point(catalog_surface(name, derivative_mode=mode), mode)


@pytest.mark.parametrize("mode", MODES)
def test_batched_cone_jets_match_per_point_jets(mode):
    cone = replace(uniform_stretch_cone(1.5), derivative_mode=mode)
    assert_jets_match_per_point(cone, mode)


@pytest.mark.parametrize("name", SURFACES)
def test_batched_map_is_bit_equal_to_per_point_map(name):
    # the finite-difference stencil amplifies any rounding change of the
    # map by 1/step^2, so the batched map must reproduce every bit
    surface = catalog_surface(name, derivative_mode="finite-difference")
    points = grid_points(surface)
    step = surface.step
    for offset in ((0.0, 0.0), (step, 0.0), (-step, step), (2 * step, -step)):
        shifted = points + np.array(offset)
        per_point = np.stack([surface.map(x) for x in shifted], axis=-1)
        assert np.array_equal(surface.map(shifted.T), per_point)


def test_bump_scalars_round_like_single_points():
    # both sides of the series switch at q = v / s^2 = 0.01
    v = np.linspace(0.0, 0.02, 2001)
    per_point = np.array([_bump_scalars(vi, 0.5, 1.0) for vi in v]).T
    assert np.array_equal(np.array(_bump_scalars(v, 0.5, 1.0)), per_point)


@pytest.mark.parametrize("v", [np.linspace(0.0, 0.02, 2001), 0.005, 0.015],
                         ids=["switch", "scalar-series", "scalar-direct"])
def test_bump_map_scalars_equal_the_full_ones(v):
    # surface.map reads (m, zeta_v) without the derivative terms
    m, zv = _bump_scalars(v, 0.5, 1.0, derivatives=False)
    full = _bump_scalars(v, 0.5, 1.0)
    assert type(m) is type(full[0]) and type(zv) is type(full[3])
    assert np.all(m == full[0]) and np.all(zv == full[3])


@pytest.mark.parametrize("v", [np.linspace(0.011, 0.5, 50),
                               np.linspace(0.0, 0.0099, 50)],
                         ids=["no-series", "series-only"])
def test_bump_scalars_masked_edge_cases(v):
    # the series branch (q < 0.01) is evaluated on its elements only
    per_point = np.array([_bump_scalars(vi, 0.5, 1.0) for vi in v]).T
    assert np.array_equal(np.array(_bump_scalars(v, 0.5, 1.0)), per_point)
    m, zv = _bump_scalars(v, 0.5, 1.0, derivatives=False)
    assert np.array_equal(m, per_point[0]) and np.array_equal(zv, per_point[3])


def test_bump_height_sums_like_a_per_node_loop():
    # the vectorized height keeps the node order of this loop, and its
    # series branch (q < 0.01) the rounding of the per-point powers
    v = np.array([0.0, 1e-4, 3e-3, 9.9e-3, 0.02, 0.3, 0.5625])
    nodes, weights = _gauss_legendre(64)
    heights = _bump_height(v, 0.5, 1.0)
    for vi, height in zip(v, heights):
        total = 0.0
        for t, wk in zip(0.5 * vi * (nodes + 1.0), weights):
            total += wk * _bump_scalars(t, 0.5, 1.0)[3]
        assert height == 0.5 * vi * total


@pytest.mark.parametrize("v", [0.3, 7e-3, np.array([0.0, 5e-3, 0.02, 0.3, 0.5625])],
                         ids=["scalar", "scalar-series", "array"])
def test_bump_height_is_a_left_fold_of_its_gauss_terms(v):
    # the 64 terms w_k zeta_v(t_k), added node by node from the left; a
    # pairwise .sum() or a BLAS @ over the nodes rounds differently
    nodes, weights = _gauss_legendre(64)
    zv = _bump_scalars(np.multiply.outer(nodes + 1.0, 0.5 * v), 0.5, 1.0,
                       derivatives=False)[1]
    total = 0.0
    for wk, zk in zip(weights, zv):
        total = total + wk * zk
    assert np.array_equal(_bump_height(v, 0.5, 1.0), 0.5 * v * total)


@pytest.mark.parametrize("material", MATERIALS, ids=lambda m: type(m).__name__)
@pytest.mark.parametrize("mode", MODES)
@pytest.mark.parametrize("name", SURFACES)
def test_batched_contents_match_per_point_contents(name, mode, material):
    surface = catalog_surface(name, derivative_mode=mode)
    points = grid_points(surface)
    expected_error = first_error_per_point(surface, material, points)
    if expected_error is not None:
        with pytest.raises(ValueError) as info:
            grid_contents(surface, material, points)
        assert (info.value.index, type(info.value), str(info.value)) == expected_error
        return
    batch, contents = grid_contents(surface, material, points)
    singles = [point_contents(evaluate_jet(surface, x), material) for x in points]
    for field in ("stretching", "bending"):
        values = getattr(contents, field)
        assert values.shape == (len(points),)
        assert_close(values, [getattr(c, field) for c in singles],
                     f"{name} {mode} {type(material).__name__} {field}")
    assert list(contents.formula_id) == [c.formula_id for c in singles]
    # the batch contents contract: float64 values, one formula id per point
    assert (contents.stretching.dtype, contents.bending.dtype, contents.formula_id.dtype,
            contents.formula_id.shape) == (np.float64, np.float64, object, (len(points),))
    # a batch of jets gives the same contents as point_contents on it
    again = point_contents(batch, material)
    np.testing.assert_array_equal(again.bending, contents.bending)


def test_svk_batch_reports_first_stretched_node():
    surface = catalog_surface("sphere_cap")
    with pytest.raises(MaterialDomainError) as info:
        point_contents(evaluate_jets(surface, grid_points(surface)),
                       SaintVenantKirchhoff(lam=1.0, mu=1.0))
    assert info.value.index == 0


def test_svk_profile_of_a_batch_equals_the_per_point_profiles():
    surface = catalog_surface("gaussian_bump")
    points = grid_points(surface)
    material = SaintVenantKirchhoff(lam=1.0, mu=1.0)
    batch = material.profile(evaluate_jets(surface, points), h=0.01)
    x3 = np.linspace(-0.01, 0.01, 5)
    for i, x in enumerate(points):
        single = material.profile(evaluate_jet(surface, x), h=0.01)
        for field in ("alpha", "beta", "gamma"):
            assert getattr(batch, field)[i] == getattr(single, field), \
                (i, field)
        np.testing.assert_array_equal(batch.phi(x3[:, None])[:, i],
                                      single.phi(x3))
        np.testing.assert_array_equal(batch.dphi(x3[:, None])[:, i],
                                      single.dphi(x3))


def test_svk_profile_batch_names_the_first_overflowing_row():
    # cosh(2 H h) overflows at H = 1e4 and beyond for h = 0.1
    H = np.array([0.1, -0.3, 1e4, 2e4])
    with np.errstate(over="ignore", invalid="ignore"), \
            pytest.raises(OverflowError) as info:
        svk_profile(H, 1.0, 1.0, 0.1)
    assert info.value.index == 2
    assert str(info.value) == "the SVK profile at H = 10000, h = 0.1"


def ramp(slope, s=0.0):
    """(x1 + slope x1^2 / 2 + s x2^2, x2, 0): stretch 1 + slope x1 along x1.

    The shear s leaves det C = (1 + slope x1)^2, so for slope = -1 the map
    is unimodular exactly on x1 = 0, where tr C - 2 = 4 s^2 x2^2.
    """
    def _map(x):
        return np.array([x[0] + 0.5 * slope * x[0] * x[0] + s * x[1] * x[1],
                         x[1], 0.0 * x[0]])

    def _grad(x):
        one, zero = np.ones_like(x[0]), np.zeros_like(x[0])
        return np.array([[one + slope * x[0], 2.0 * s * x[1]], [zero, one],
                         [zero, zero]])

    def _hess(x):
        hh = np.zeros((3, 2, 2) + np.shape(x)[1:])
        hh[0, 0, 0] = slope
        hh[0, 1, 1] = 2.0 * s
        return hh

    return ParametricSurface(map=_map, grad=_grad, hess=_hess, name="ramp")


@pytest.mark.parametrize("slope,index,error", [
    # unimodular and general Gent nodes; only the last x1 row fails
    (-1.0, 20, StiffeningLimitError),
    # rank deficient at x1 = 0.5, but the contents fail at the first node
    (-2.0, 0, StiffeningLimitError),
    # rank deficient at the first node, the contents fail after it
    (2.0, 0, DegenerateImmersionError),
])
def test_grid_contents_raises_in_per_point_order(slope, index, error):
    surface = ramp(slope)
    xs = np.linspace(-0.5, 0.5, 5)
    points = np.column_stack([np.repeat(xs, 5), np.tile(xs, 5)])
    expected = first_error_per_point(surface, Gent(mu=1.0, jm=1.0), points)
    assert expected[:2] == (index, error)
    with pytest.raises(error) as info:
        grid_contents(surface, Gent(mu=1.0, jm=1.0), points)
    assert (info.value.index, type(info.value), str(info.value)) == expected


# (-0.5, 0) passes; (0, 0.5) fails the unimodular form and (-0.5, 0.5)
# the general one
UNIMODULAR_FAILS = ((0.0, 0.5), (
    1, StiffeningLimitError,
    "tr C - 2 = 4 reached the extensibility limit Jm = 1"))
GENERAL_FAILS = ((-0.5, 0.5), (
    1, StiffeningLimitError,
    "det C (Jm - tr C + 3) - 1 = -8.3125 is not positive (tr C = 7.25, "
    "det C = 2.25, Jm = 1)"))


@pytest.mark.parametrize("first,second", [
    (UNIMODULAR_FAILS, GENERAL_FAILS), (GENERAL_FAILS, UNIMODULAR_FAILS),
], ids=["unimodular-first", "general-first"])
def test_gent_batch_raises_the_first_failure_of_either_form(first, second):
    surface, material = ramp(-1.0, s=2.0), Gent(mu=1.0, jm=1.0)
    points = np.array([(-0.5, 0.0), first[0], second[0]])
    expected = first_error_per_point(surface, material, points)
    assert expected == first[1]
    with pytest.raises(StiffeningLimitError) as info:
        gent_contents(evaluate_jets(surface, points), 1.0, 1.0)
    assert (info.value.index, type(info.value), str(info.value)) == expected
    with pytest.raises(StiffeningLimitError) as info:
        grid_contents(surface, material, points)
    assert (info.value.index, type(info.value), str(info.value)) == expected


def test_gent_batch_warns_of_no_discarded_form(capsys):
    # the general form is valid at every point, while the unimodular one,
    # evaluated and discarded, takes log1p of 2 - tr C = -1.37
    surface = catalog_surface("uniform_stretch", l1=1.6, l2=0.9)
    jets = evaluate_jets(surface, grid_points(surface, n=3))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        contents = gent_contents(jets, 1.0, 1.0)
    assert list(contents.formula_id) == ["gent_general"] * len(jets)
    assert np.all(np.isfinite(contents.stretching))
    assert capsys.readouterr() == ("", "")


def test_gent_at_the_exact_extensibility_limit_raises_for_one_jet():
    # tr C - 2 = 2.25 = Jm exactly: the form divides by zero at this point
    jet = evaluate_jet(catalog_surface("uniform_stretch", l1=2, l2=0.5),
                       (0.1, 0.2))
    for contents in (gent_contents, reduced_energy.gent_contents_unimodular):
        with pytest.raises(StiffeningLimitError, match="Jm = 2.25"):
            contents(jet, 1.0, 2.25)


@pytest.mark.parametrize("surface,jm,grid,index,point,message", [
    (catalog_surface("uniform_stretch", l1=4, l2=0.25), 10.0, (3, 3), 0,
     (-0.387298, -0.387298),
     "tr C - 2 = 14.0625 reached the extensibility limit Jm = 10"),
    (ramp(-1.0), 1.0, (4, 4), 12, (0.430568, -0.430568),
     "det C (Jm - tr C + 3) - 1 = -0.132381889 is not positive "
     "(tr C = 1.32425263, det C = 0.324252625, Jm = 1)"),
])
def test_integrate_contents_names_the_first_failing_node(surface, jm, grid,
                                                         index, point, message):
    # the model's own error, carrying the Gauss-grid row and its (x1, x2)
    with pytest.raises(StiffeningLimitError) as info:
        integrate_contents(surface, Gent(mu=1.0, jm=jm), 0.01, grid=grid)
    assert info.value.index == index
    assert "({:.6g}, {:.6g})".format(*info.value.point) == str(point)
    assert str(info.value) == message


@pytest.mark.parametrize("slope,line", [
    (None, "admissibility failure at point (-0.5, -0.5): tr C - 2 = 14.0625 "
           "reached the extensibility limit Jm = 10\n"),
    (-1.0, "admissibility failure at point (0.5, -0.5): det C (Jm - tr C + 3) "
           "- 1 = -0.3125 is not positive (tr C = 1.25, det C = 0.25, Jm = 1)\n"),
])
def test_evaluate_names_the_first_failing_point(tmp_path, capsys, monkeypatch,
                                                slope, line):
    if slope is None:
        surface = {"name": "uniform_stretch", "l1": 4, "l2": 0.25}
        material = {"model": "gent", "mu": 1.0, "jm": 10.0}
        grid = {"nx": 3, "ny": 3}
    else:
        monkeypatch.setattr(cli_io, "catalog_surface",
                            lambda name, **kwargs: ramp(slope))
        surface = {"name": "ramp"}
        material = {"model": "gent", "mu": 1.0, "jm": 1.0}
        grid = {"nx": 5, "ny": 5}
    path = tmp_path / "config.json"
    path.write_text(json.dumps({"surface": surface, "material": material,
                                "h": 1e-3, "grid": grid}))
    code = cli_io.main(["evaluate", "--config", str(path),
                        "--out", str(tmp_path / "out")])
    assert code == 3
    assert capsys.readouterr().err == line


def test_point_only_callables_work_per_point_and_fail_clearly_in_a_batch():
    surface = ParametricSurface(
        map=lambda x: np.array([x[0], x[1], 0.0]),
        grad=lambda x: np.array([[1.0, 0.0], [0.0, 1.0], [0.0, 0.0]]),
        hess=lambda x: np.zeros((3, 2, 2)), name="per_point")
    assert evaluate_jet(surface, np.array([0.1, 0.2])).trC == 2.0
    with pytest.raises(TypeError, match=r"grad of surface 'per_point' returned "
                                        r"shape \(3, 2\) for points of shape "
                                        r"\(2, 4\); expected \(3, 2, 4\)"):
        evaluate_jets(surface, np.zeros((4, 2)))


def test_evaluate_jets_rejects_points_of_the_wrong_shape():
    with pytest.raises(ValueError, match="points must have shape"):
        evaluate_jets(catalog_surface("plane"), np.zeros((4, 3)))


def test_h_sweep_totals_equal_per_h_integration(tmp_path):
    values = [5e-4, 1e-3, 2e-3]
    cfg = {"surface": {"name": "gaussian_bump"},
           "material": {"model": "neo_hookean", "mu": 1.0},
           "h": 1e-3, "grid": {"nx": 4, "ny": 4},
           "options": {"sweep": {"param": "h", "values": values}}}
    path = tmp_path / "config.json"
    path.write_text(json.dumps(cfg))
    assert cli_io.main(["sweep", "--config", str(path),
                        "--out", str(tmp_path / "out")]) == 0
    rows = (tmp_path / "out" / "sweep.csv").read_text().splitlines()[1:]
    totals = [row.split(",")[3] for row in rows if ",total_energy," in row]
    surface = catalog_surface("gaussian_bump")
    expected = [cli_io._fmt(integrate_contents(surface, NeoHookean(mu=1.0), h,
                                               grid=(4, 4))[2]) for h in values]
    assert totals == expected


# ---------------------------------------------------------------------------
# grids run in blocks of GRID_BLOCK rows

# 37 x 29 = 1073 rows: two full blocks and a partial one
BLOCKED_GRID = (37, 29)


BLOCK = reduced_energy.GRID_BLOCK


def test_blocked_grid_spans_several_blocks_and_a_partial_one():
    n = BLOCKED_GRID[0] * BLOCKED_GRID[1]
    assert n > 2 * BLOCK and n % BLOCK


def evaluate_blocked(tmp_path, surface, material):
    path = tmp_path / "config.json"
    nx, ny = BLOCKED_GRID
    path.write_text(json.dumps({"surface": surface, "material": material,
                                "h": 1e-3, "grid": {"nx": nx, "ny": ny}}))
    out = tmp_path / "out"
    code = cli_io.main(["evaluate", "--config", str(path), "--out", str(out)])
    return code, out


def evaluation_points(surface):
    return cli_io._evaluation_nodes(surface, *BLOCKED_GRID)


def test_blocked_points_csv_equals_one_shot_grid_contents(tmp_path):
    surface = catalog_surface("gaussian_bump")
    material = MooneyRivlin(mu=1.0, chi=0.7)
    code, out = evaluate_blocked(
        tmp_path, {"name": "gaussian_bump"},
        {"model": "mooney_rivlin", "mu": 1.0, "chi": 0.7})
    assert code == 0
    points = evaluation_points(surface)
    jets, contents = grid_contents(surface, material, points)
    columns = [points[:, 0], points[:, 1]] + [getattr(jets, k) for k in
                                              cli_io.CSV_COLUMNS[2:9]]
    columns += [contents.stretching, contents.bending]
    lines = [",".join([cli_io._fmt(c[i]) for c in columns]
                      + [contents.formula_id[i]]) for i in range(len(points))]
    assert (out / "points.csv").read_text() == "\n".join(
        [",".join(cli_io.CSV_COLUMNS)] + lines) + "\n"


@pytest.mark.parametrize("material", [Gent(mu=1.0, jm=10.0),
                                      CiarletGeymonat.from_lame(1.0, 1.0)])
def test_blocked_totals_equal_the_full_grid_weighted_sum(material):
    surface = catalog_surface("gaussian_bump")
    nx, ny = BLOCKED_GRID
    (u0, u1), (v0, v1) = surface.domain
    xu, wu = _gauss_legendre(nx)
    xv, wv = _gauss_legendre(ny)
    su, cu = 0.5 * (u1 - u0), 0.5 * (u1 + u0)
    sv, cv = 0.5 * (v1 - v0), 0.5 * (v1 + v0)
    points = np.column_stack([np.repeat(su * xu + cu, ny),
                              np.tile(sv * xv + cv, nx)])
    _, contents = grid_contents(surface, material, points)
    weights = np.outer(wu * su, wv * sv)
    total_s = float(np.sum(weights * contents.stretching.reshape(nx, ny)))
    total_b = float(np.sum(weights * contents.bending.reshape(nx, ny)))
    assert integrate_contents(surface, material, 1e-3, grid=BLOCKED_GRID) == (
        total_s, total_b, 1e-3 * total_s + 1e-3 ** 3 * total_b)


def test_grid_columns_index_the_first_failing_row_of_the_whole_grid():
    # ramp(-1) with Jm = 1 fails for x1 >= 0.382: x1 row 32 of 37, row 928
    surface, material = ramp(-1.0), Gent(mu=1.0, jm=1.0)
    points = evaluation_points(surface)
    expected = first_error_per_point(surface, material, points)
    assert expected[0] == 32 * 29 and expected[0] >= BLOCK
    with pytest.raises(StiffeningLimitError) as info:
        reduced_energy.grid_columns(surface, material, points,
                                    lambda jets, c: (c.bending,))
    assert (info.value.index, type(info.value), str(info.value)) == expected


def test_blocked_evaluate_names_a_later_blocks_first_failing_point(
        tmp_path, capsys, monkeypatch):
    monkeypatch.setattr(cli_io, "catalog_surface",
                        lambda name, **kwargs: ramp(-1.0))
    code, out = evaluate_blocked(tmp_path, {"name": "ramp"},
                                 {"model": "gent", "mu": 1.0, "jm": 1.0})
    assert code == 3
    points = evaluation_points(ramp(-1.0))
    index, _, message = first_error_per_point(ramp(-1.0), Gent(mu=1.0, jm=1.0),
                                              points)
    assert index >= BLOCK
    x1, x2 = points[index]
    assert capsys.readouterr().err == (
        f"admissibility failure at point ({x1:.6g}, {x2:.6g}): {message}\n")
    assert not out.exists()


def test_blocked_integration_names_a_later_blocks_first_failing_node():
    surface, material = ramp(-1.0), Gent(mu=1.0, jm=1.0)
    nx, ny = BLOCKED_GRID
    xu, _ = _gauss_legendre(nx)
    xv, _ = _gauss_legendre(ny)
    nodes = 0.5 * np.column_stack([np.repeat(xu, ny), np.tile(xv, nx)])
    index, _, message = first_error_per_point(surface, material, nodes)
    assert index >= BLOCK
    x1, x2 = nodes[index]
    with pytest.raises(StiffeningLimitError) as info:
        integrate_contents(surface, material, 1e-3, grid=BLOCKED_GRID)
    assert info.value.index == index
    assert tuple(info.value.point) == (x1, x2)
    assert str(info.value) == message


def test_blocked_evaluate_names_a_non_finite_value_as_one_pass_did(
        tmp_path, capsys, monkeypatch):
    # one pass named the least non-finite value of the whole column in
    # sort order (-inf, inf, nan), wherever it sat
    original = reduced_energy.point_contents
    calls = []

    def patched(jets, material):
        contents = original(jets, material)
        contents.bending[5] = (np.nan, np.inf, -np.inf)[len(calls)]
        calls.append(len(jets))
        return contents

    monkeypatch.setattr(reduced_energy, "point_contents", patched)
    code, out = evaluate_blocked(tmp_path, {"name": "gaussian_bump"},
                                 {"model": "neo_hookean", "mu": 1.0})
    assert code == 2
    assert calls == [BLOCK, BLOCK, BLOCKED_GRID[0] * BLOCKED_GRID[1] - 2 * BLOCK]
    assert capsys.readouterr().err == (
        "config error: w_b is -inf, not a finite number: the config leaves "
        "the range of double precision\n")
    assert not out.exists()
