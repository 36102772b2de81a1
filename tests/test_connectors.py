"""Tests for the stretch-eigenframe connector fields."""

import warnings
from dataclasses import fields

import numpy as np
import pytest

from plate_reduce import (
    CodazziReport,
    ConnectorFrame,
    FrameGrid,
    c_star_from_metric,
    catalog_surface,
    check_codazzi,
    compute_frame,
    curvatures_from_frame,
    evaluate_jet,
    gauss_from_connectors,
    gauss_uniform_stretch,
    sample_frame_grid,
)
from plate_reduce.checks import CHECKS
from plate_reduce.surface_geometry import UMBILIC_GAP, uniform_stretch_cone

BUMP_X = np.array([0.3, 0.2])


def bump_frame():
    surface = catalog_surface("gaussian_bump", A=0.5, s=1.0)
    return surface, compute_frame(surface, BUMP_X)


def inset(surface):
    """The surface domain shrunk by 8% of its width on each side."""
    (u0, u1), (v0, v1) = surface.domain
    du, dv = (u1 - u0) * 0.08, (v1 - v0) * 0.08
    return (u0 + du, u1 - du), (v0 + dv, v1 - dv)


# ---------------------------------------------------------------------------
# single-point frames


def test_frame_recovers_curvatures():
    surface, frame = bump_frame()
    jet = evaluate_jet(surface, BUMP_X)
    H, K = curvatures_from_frame(frame)
    assert abs(H - jet.H) <= 1e-12
    assert abs(K - jet.K) <= 1e-12


def test_frame_matches_jet_stretches():
    surface, frame = bump_frame()
    jet = evaluate_jet(surface, BUMP_X)
    assert frame.lambda1 == pytest.approx(jet.lambda1, rel=1e-12)
    assert frame.lambda2 == pytest.approx(jet.lambda2, rel=1e-12)
    assert not frame.ill_conditioned
    # r-frame is orthonormal and right-handed
    assert abs(frame.r1 @ frame.r1 - 1.0) <= 1e-14
    assert abs(frame.r2 @ frame.r2 - 1.0) <= 1e-14
    assert abs(frame.r1 @ frame.r2) <= 1e-14
    assert frame.r1[0] * frame.r2[1] - frame.r1[1] * frame.r2[0] > 0.0
    # dij are the d-fields resolved in the r-frame
    for i, d in enumerate((frame.d1_star, frame.d2_star)):
        for j, r in enumerate((frame.r1, frame.r2)):
            assert abs(frame.dij[i, j] - d @ r) <= 1e-14


def test_flipped_parity():
    _, frame = bump_frame()
    flip = frame.flipped()
    for name in ("r1", "r2", "d1_star", "d2_star"):
        assert np.array_equal(getattr(flip, name), -getattr(frame, name))
    assert flip.c1 == -frame.c1 and flip.c2 == -frame.c2
    for name in ("x", "c", "c_star", "dij"):
        assert np.array_equal(getattr(flip, name), getattr(frame, name))
    assert flip.c12 == frame.c12
    assert flip.lambda1 == frame.lambda1 and flip.lambda2 == frame.lambda2


def test_flipped_leaves_observables_alone():
    _, frame = bump_frame()
    flip = frame.flipped()
    assert curvatures_from_frame(flip) == curvatures_from_frame(frame)
    assert gauss_uniform_stretch(flip, 2.0) == gauss_uniform_stretch(frame, 2.0)


def test_c_star_from_metric_matches_frame():
    surface, frame = bump_frame()
    jet = evaluate_jet(surface, BUMP_X)
    step = 1e-5
    gl = np.zeros((2, 2))
    for k in range(2):
        e = np.zeros(2)
        e[k] = step
        hi = evaluate_jet(surface, BUMP_X + e)
        lo = evaluate_jet(surface, BUMP_X - e)
        gl[0, k] = (hi.lambda1 - lo.lambda1) / (2.0 * step)
        gl[1, k] = (hi.lambda2 - lo.lambda2) / (2.0 * step)
    rebuilt = c_star_from_metric(frame, jet, gl)
    assert np.max(np.abs(rebuilt - frame.c_star)) <= 1e-10


def test_c_star_alternate_identity():
    # c*_k = (lambda1 c_k - l1 . (d_k grad y) r2) / lambda2, exactly
    surface, frame = bump_frame()
    jet = evaluate_jet(surface, BUMP_X)
    for k in range(2):
        alt = (jet.lambda1 * frame.c[k]
               - jet.l1 @ (jet.hess_y[:, :, k] @ frame.r2)) / jet.lambda2
        assert abs(alt - frame.c_star[k]) <= 1e-12


def test_umbilic_frames_warn_and_flag():
    for name in ("plane", "cylinder"):
        surface = catalog_surface(name)
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            frame = compute_frame(surface, np.array([0.1, -0.1]))
        assert len(caught) == 1
        assert issubclass(caught[0].category, RuntimeWarning)
        assert "umbilic stretch at" in str(caught[0].message)
        assert frame.ill_conditioned
        assert np.array_equal(frame.c, np.zeros(2))
        assert frame.c12 == 0.0


def test_frame_near_the_sphere_center_is_resolved():
    # the relative stretch gap here is about 2.5e-11: not a tie of the
    # stretch frame, so the rotation rate 1/rho is resolved, unflagged
    surface = catalog_surface("sphere_cap")
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        frame = compute_frame(surface, np.array([1e-5, 0.0]))
    assert caught == []
    assert not frame.ill_conditioned
    assert np.hypot(*frame.c) == pytest.approx(1e5, rel=1e-6)


def test_bump_frame_emits_no_warning():
    surface = catalog_surface("gaussian_bump", A=0.5, s=1.0)
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        compute_frame(surface, BUMP_X)
    assert caught == []


def test_c12_skipped_is_nan():
    # a sampled grid skips the four-point c12 stencil of every node
    _, grid = bump_grid()
    assert np.all(np.isnan(grid.field("c12")))
    assert np.isnan(grid.frames[2][2].c12)


# ---------------------------------------------------------------------------
# uniform area-preserving stretch


def test_gauss_uniform_stretch_synthetic():
    frame = ConnectorFrame(
        x=np.zeros(2), lambda1=2.0, lambda2=0.5,
        r1=np.array([1.0, 0.0]), r2=np.array([0.0, 1.0]),
        c=np.zeros(2), c_star=np.zeros(2),
        d1_star=np.zeros(2), d2_star=np.zeros(2), dij=np.zeros((2, 2)),
        c1=1.0, c2=1.0, c12=0.5)
    # (lambda1^2 - 1/lambda1^2)(c2^2 - c1^2 + c12) = 3.75 * 0.5
    assert gauss_uniform_stretch(frame, 2.0) == 1.875


def test_cone_is_flat_under_uniform_stretch():
    surface = uniform_stretch_cone(2.0)
    jet = evaluate_jet(surface, np.array([1.0, 0.0]))
    assert jet.lambda1 == pytest.approx(2.0, abs=1e-12)
    assert jet.lambda2 == pytest.approx(0.5, abs=1e-12)
    assert abs(jet.K) <= 1e-12
    assert jet.detC == pytest.approx(1.0, abs=1e-12)
    frame = compute_frame(surface, np.array([1.0, 0.0]))
    assert abs(gauss_uniform_stretch(frame, 2.0)) <= 1e-6


# ---------------------------------------------------------------------------
# grid sampling


def bump_grid(n=5, half=0.05):
    surface = catalog_surface("gaussian_bump", A=0.5, s=1.0)
    bounds = ((BUMP_X[0] - half, BUMP_X[0] + half),
              (BUMP_X[1] - half, BUMP_X[1] + half))
    return surface, sample_frame_grid(surface, grid=(n, n), bounds=bounds)


def test_sample_frame_grid_layout():
    _, grid = bump_grid()
    assert grid.shape == (5, 5)
    assert grid.spacing == pytest.approx((0.025, 0.025), rel=1e-12)
    lam1 = grid.field("lambda1")
    assert lam1.shape == (5, 5)
    assert lam1.dtype == np.float64
    assert np.all(lam1 >= grid.field("lambda2"))


def test_sample_frame_grid_sign_continuity():
    _, grid = bump_grid()
    r1 = grid.field("r1")
    dots = [np.sum(r1[1:, :] * r1[:-1, :], axis=-1),
            np.sum(r1[:, 1:] * r1[:, :-1], axis=-1)]
    assert min(float(np.min(d)) for d in dots) > 0.99


def test_sample_frame_grid_too_small():
    surface = catalog_surface("gaussian_bump", A=0.5, s=1.0)
    for grid in ((2, 5), (0, 0)):
        with pytest.raises(ValueError, match="too small for central differences"):
            sample_frame_grid(surface, grid=grid, bounds=inset(surface))


def test_gauss_from_connectors_matches_jet():
    surface, grid = bump_grid(n=11, half=0.01)
    jet = evaluate_jet(surface, BUMP_X)
    assert gauss_from_connectors(grid, jet) == pytest.approx(jet.K, rel=2e-3)


@pytest.mark.parametrize("shape", [(2, 5), (5, 2), (1, 1)])
def test_hand_built_frame_grid_too_small(shape):
    _, grid = bump_grid()
    with pytest.raises(ValueError, match=rf"grid \({shape[0]}, {shape[1]}\) "
                                         "too small for central differences"):
        FrameGrid(xs=grid.xs[:shape[0]], ys=grid.ys[:shape[1]], fields=grid.fields)


# ---------------------------------------------------------------------------
# compatibility identities


def test_codazzi_residuals_saddle():
    surface = catalog_surface("saddle")
    half = 1.5e-3
    bounds = ((0.2 - half, 0.2 + half), (0.15 - half, 0.15 + half))
    report = check_codazzi(sample_frame_grid(surface, grid=(11, 11),
                                             bounds=bounds))
    assert report.n_interior == 81
    assert report.spacing == pytest.approx((3e-4, 3e-4), rel=1e-12)
    assert report.max_residual() <= 1e-4
    assert report.c_compatibility <= 1e-4
    assert report.max_residual() == max(report.curl_c_star,
                                        report.curl_d1_star,
                                        report.curl_d2_star)


def test_codazzi_plane_is_exact():
    surface = catalog_surface("plane")
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", RuntimeWarning)
        report = check_codazzi(sample_frame_grid(surface, grid=(5, 5),
                                                 bounds=inset(surface)))
    assert report.curl_c_star == 0.0
    assert report.curl_d1_star == 0.0
    assert report.curl_d2_star == 0.0
    assert report.c_compatibility == 0.0
    assert report.n_interior == 9


def test_max_residual_excludes_c_compatibility():
    report = CodazziReport(curl_c_star=1e-6, curl_d1_star=2e-6,
                           curl_d2_star=3e-6, c_compatibility=99.0,
                           n_interior=1, spacing=(0.1, 0.1))
    assert report.max_residual() == 3e-6


# ---------------------------------------------------------------------------
# batched frames against the per-point matrix route


def matrix_route_frame(surface, x, c12_step):
    """The frame fields at x by per-point jets and matrix products."""
    def c_vector(jet):
        g, h = jet.grad_y, jet.hess_y
        dC = np.einsum("mik,mj->kij", h, g) + np.einsum("mi,mjk->kij", g, h)
        num = np.array([jet.r2 @ dC[k] @ jet.r1 for k in range(2)])
        gap = jet.lambda1**2 - jet.lambda2**2
        scale = jet.lambda1**2 + jet.lambda2**2
        if gap <= UMBILIC_GAP * scale:
            dscale = np.max(np.abs(dC)) + scale
            return np.where(np.abs(num) <= 1e-9 * dscale, 0.0, np.nan)
        return num / gap

    jet = evaluate_jet(surface, x)
    c = c_vector(jet)
    r1, r2, l1, l2 = jet.r1, jet.r2, jet.l1, jet.l2
    c_star = np.array([(l2 @ (jet.hess_y[:, :, k] @ r1) + jet.lambda2 * c[k])
                       / jet.lambda1 for k in range(2)])
    d1 = -jet.grad_nu.T @ l1
    d2 = -jet.grad_nu.T @ l2
    cs = []
    for k in range(2):
        for sgn in (-1.0, 1.0):
            xn = x.copy()
            xn[k] += sgn * c12_step
            cs.append(c_vector(evaluate_jet(surface, xn)))
    grad_c = np.column_stack([(cs[1] - cs[0]) / (2.0 * c12_step),
                              (cs[3] - cs[2]) / (2.0 * c12_step)])
    return dict(lambda1=jet.lambda1, lambda2=jet.lambda2, r1=r1, r2=r2, c=c,
                c_star=c_star, d1_star=d1, d2_star=d2,
                dij=np.array([[d1 @ r1, d1 @ r2], [d2 @ r1, d2 @ r2]]),
                c1=c @ r1, c2=c @ r2, c12=r1 @ grad_c @ r2)


ODD_FIELDS = ("r1", "r2", "d1_star", "d2_star", "c1", "c2")
# fields compared against a common scale: components of one vector field
# (c1, c2 of c; dij of the d-fields) may vanish up to its rounding
SCALE_GROUPS = (("c", "c1", "c2"), ("c_star",), ("d1_star", "d2_star", "dij"))


@pytest.mark.parametrize("name", ["plane", "uniform_stretch", "cylinder",
                                  "sphere_cap", "saddle", "gaussian_bump",
                                  "uniform_stretch_cone"])
def test_frame_grid_matches_matrix_route(name):
    surface = (uniform_stretch_cone(2.0) if name == "uniform_stretch_cone"
               else catalog_surface(name))
    # a grid does not compute c12: compute_frame's, at every fifth node
    nodes = [(i, j) for i in range(0, 11, 5) for j in range(0, 11, 5)]
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", RuntimeWarning)
        grid = sample_frame_grid(surface, grid=(11, 11), bounds=inset(surface))
        c12 = np.array([compute_frame(surface, np.array([grid.xs[i], grid.ys[j]])).c12
                        for i, j in nodes])
        ref = [[matrix_route_frame(surface, np.array([x, y]), 5e-5)
                for y in grid.ys] for x in grid.xs]
    # gauge: propagate r1 signs down the first column, then along rows
    sign = np.ones((11, 11))
    for i in range(1, 11):
        d = ref[i][0]["r1"] @ ref[i - 1][0]["r1"]
        sign[i, 0] = sign[i - 1, 0] * (1.0 if d >= 0.0 else -1.0)
    for i in range(11):
        for j in range(1, 11):
            d = ref[i][j]["r1"] @ ref[i][j - 1]["r1"]
            sign[i, j] = sign[i, j - 1] * (1.0 if d >= 0.0 else -1.0)
    def reference(field):
        want = np.array([[f[field] for f in row] for row in ref])
        if field in ODD_FIELDS:
            want = want * sign.reshape(sign.shape + (1,) * (want.ndim - 2))
        return want

    for field in ("lambda1", "lambda2", "r1", "r2"):
        assert np.array_equal(grid.field(field), reference(field)), field
    for group in SCALE_GROUPS:
        scale = max(np.nanmax(np.abs(reference(field)), initial=0.0)
                    for field in group)
        for field in group:
            got, want = grid.field(field), reference(field)
            assert np.array_equal(np.isnan(got), np.isnan(want)), field
            gap = np.nanmax(np.abs(got - want), initial=0.0)
            assert gap <= 1e-12 * scale, f"{field}: gap {gap:.3g} of {scale:.3g}"
    want = np.array([ref[i][j]["c12"] for i, j in nodes])
    assert np.array_equal(np.isnan(c12), np.isnan(want))
    scale = np.nanmax(np.abs(want), initial=0.0)
    assert np.nanmax(np.abs(c12 - want), initial=0.0) <= 1e-12 * scale


@pytest.mark.parametrize("name", ["gaussian_bump", "sphere_cap", "cylinder",
                                  "plane"])
def test_sampled_fields_equal_stacked_frames(name):
    # a grid reads field() from its batched fields and builds its frames
    # from them on first read; both views must agree, nan and umbilic
    # flags included
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", RuntimeWarning)
        surface = catalog_surface(name)
        grid = sample_frame_grid(surface, grid=(7, 6), bounds=inset(surface))
    assert len(grid.frames) == 7 and all(len(row) == 6 for row in grid.frames)
    assert grid.frames is grid.frames
    for f in fields(ConnectorFrame):
        got = grid.field(f.name)
        want = np.array([[getattr(frame, f.name) for frame in row]
                         for row in grid.frames])
        assert got.shape == want.shape and got.dtype == want.dtype, f.name
        assert np.array_equal(got, want, equal_nan=True), f.name


def test_frame_grids_compare_by_identity():
    # the 3x3 grid samples the saddle's umbilic origin
    saddle = catalog_surface("saddle")
    with pytest.warns(RuntimeWarning, match="umbilic"):
        a = sample_frame_grid(saddle, grid=(3, 3), bounds=inset(saddle))
    with pytest.warns(RuntimeWarning, match="umbilic"):
        b = sample_frame_grid(saddle, grid=(3, 3), bounds=inset(saddle))
    assert (a == a) is True and (a == b) is False and (a != b) is True
    assert len({a, b, a}) == 2


def test_connector_checks_build_no_frames(monkeypatch):
    # both checks read batched fields only; the two frames left are the
    # cones' compute_frame calls in theorema_egregium
    built = []
    init = ConnectorFrame.__init__

    def counting_init(self, *args, **kwargs):
        built.append(kwargs.get("x"))
        init(self, *args, **kwargs)

    monkeypatch.setattr(ConnectorFrame, "__init__", counting_init)
    checks = dict(CHECKS)
    for cid in ("theorema_egregium", "codazzi_residuals"):
        assert checks[cid]({})["passed"], cid
    assert len(built) == 2


def test_check_codazzi_keeps_nan_residuals():
    grid = sample_frame_grid(catalog_surface("saddle"), grid=(5, 5),
                             bounds=((0.1, 0.3), (0.05, 0.25)))
    # node (2, 2) is column 2 * 5 + 2 of the row-major batch
    c_star = grid.fields["c_star"].copy()
    c_star[:, 12] = np.nan
    report = check_codazzi(FrameGrid(xs=grid.xs, ys=grid.ys,
                                     fields=dict(grid.fields, c_star=c_star)))
    assert np.isnan(report.curl_c_star)
    assert np.isnan(report.curl_d1_star)
    assert np.isnan(report.curl_d2_star)
    assert np.isfinite(report.c_compatibility)
    assert np.isnan(report.max_residual())


@pytest.mark.parametrize("position", range(3))
def test_max_residual_keeps_nan_in_any_position(position):
    residuals = [1e-6, 2e-6, 3e-6]
    residuals[position] = np.nan
    report = CodazziReport(*residuals, c_compatibility=0.0, n_interior=1,
                           spacing=(0.1, 0.1))
    assert np.isnan(report.max_residual())
