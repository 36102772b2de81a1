"""Mid-surface jets: catalog values, internal identities, and guards."""

from dataclasses import fields

import numpy as np
import pytest

from plate_reduce import (
    AreaDistortionError,
    DegenerateImmersionError,
    DomainError,
    ParametricSurface,
    ProfileConstraintError,
    SurfaceJet,
    appendix_H_K,
    catalog_surface,
    evaluate_jet,
    evaluate_jets,
    fiber_deformation_gradient,
    gent_contents,
    incompressible_profile,
    incompressible_profile_general,
    sampled_injectivity,
    verify_orientation,
    PolyProfile,
)
from plate_reduce.surface_geometry import _lattice, _pow, unimodular_tolerance


def jet_of(name, x, **kwargs):
    return evaluate_jet(catalog_surface(name, **kwargs), np.array(x))


# ---------------------------------------------------------------------------
# frozen catalog values


def test_cylinder_jet_is_an_isometry():
    jet = jet_of("cylinder", (0.05, -0.3))
    assert jet.trC == pytest.approx(2.0, abs=1e-14)
    assert jet.detC == pytest.approx(1.0, abs=1e-14)
    assert jet.H == pytest.approx(-0.5, abs=1e-14)
    assert jet.K == pytest.approx(0.0, abs=1e-14)
    assert jet.b1 == pytest.approx(-1.0, abs=1e-14)
    assert jet.lambda1 == pytest.approx(1.0, abs=1e-14)
    assert jet.lambda2 == pytest.approx(1.0, abs=1e-14)


def test_uniform_stretch_jet():
    jet = jet_of("uniform_stretch", (0.1, 0.2))
    assert jet.lambda1 == pytest.approx(2.0, abs=1e-14)
    assert jet.lambda2 == pytest.approx(0.5, abs=1e-14)
    assert jet.trC == pytest.approx(4.25, abs=1e-14)
    assert jet.detC == pytest.approx(1.0, abs=1e-14)
    assert jet.H == 0.0 and jet.K == 0.0


def test_sphere_cap_jet():
    jet = jet_of("sphere_cap", (0.25, -0.15))
    # radius 2 cap: umbilic point with principal curvatures -1/2
    assert jet.H == pytest.approx(-0.5, abs=1e-12)
    assert jet.K == pytest.approx(0.25, abs=1e-12)
    assert jet.detC - 1.0 == pytest.approx(0.02171136653895278, rel=1e-12)
    # curvature umbilic: b1 = trC * H
    assert jet.b1 == pytest.approx(jet.trC * jet.H, rel=1e-12)


def test_gaussian_bump_preserves_area_exactly():
    jet = jet_of("gaussian_bump", (0.3, 0.2))
    assert jet.detC == pytest.approx(1.0, abs=1e-14)
    assert jet.trC - 2.0 == pytest.approx(1.087053017535311e-3, rel=1e-10)
    assert jet.H == pytest.approx(-0.9936737954268056, rel=1e-12)
    assert jet.K == pytest.approx(0.9873695386931628, rel=1e-12)
    assert jet.b1 - 2.0 * jet.H == pytest.approx(-7.998072318544658e-4,
                                                 rel=1e-9)


@pytest.mark.parametrize("x,frozen_map,frozen", [
    # every height node of the stencil in the series branch (q < 0.01)
    ((0.05, 0.05),
     (0.049968740325983856, 0.049968740325983856, 0.0024999973970576948), dict(
        trC=2.000001559442906, detC=0.9999999949971164, H=-0.9999906274222641,
        K=0.9999812548932868, b1=-1.9999827986332481)),
    # height nodes on both sides of the switch
    ((0.3, 0.2),
     (0.2950951886586839, 0.19673012577245594, 0.0649548289882189), dict(
        trC=2.0010870480028524, detC=0.9999999949835385, H=-0.9936737970285224,
        K=0.9873695418721699, b1=-1.9881473962755274)),
])
def test_finite_difference_bump_values_are_frozen(x, frozen_map, frozen):
    surface = catalog_surface("gaussian_bump", derivative_mode="finite-difference")
    assert tuple(surface.map(np.array(x)).tolist()) == frozen_map
    jet = evaluate_jet(surface, np.array(x))
    assert {k: float(getattr(jet, k)) for k in frozen} == frozen


def test_fd_jet_values_are_frozen():
    # every bit of the nested central differences at a height node
    surface = catalog_surface("gaussian_bump", derivative_mode="finite-difference")
    jet = evaluate_jet(surface, np.array((0.3, 0.2)))
    hexed = lambda a: np.vectorize(float.hex)(a).tolist()
    assert hexed(jet.grad_y) == [
        ["0x1.ebfddfa193bb8p-1", "-0x1.f087be7a54d00p-7"],
        ["-0x1.f087be7859000p-7", "0x1.f274f971d3044p-1"],
        ["0x1.32900498b04aep-2", "0x1.98c006217462cp-3"]]
    assert hexed(jet.hess_y) == [
        [["-0x1.d25adaad0f580p-3", "-0x1.a010094a5d200p-5"],
         ["-0x1.a010094a5d200p-5", "-0x1.3718093631800p-4"]],
        [["-0x1.a010094a5d200p-5", "-0x1.371808d6d3700p-4"],
         ["-0x1.371808d6d3700p-4", "-0x1.3695e7b5c6ec0p-3"]],
        [["0x1.fc063f84d0dc8p-1", "-0x1.f1300fa66d000p-9"],
         ["-0x1.f1300fa66d000p-9", "0x1.fda4924970498p-1"]]]
    assert {k: float(getattr(jet, k)).hex() for k in ("H", "K", "b1", "trC", "detC")} == {
        "H": "-0x1.fcc2cfda4260fp-1", "K": "0x1.f9888026d0a03p-1",
        "b1": "-0x1.fcf73a4ea1857p+0", "trC": "0x1.00239ed1cf8b2p+1",
        "detC": "0x1.ffffffd4e8af4p-1"}


# worst |FD - analytic| over these points and surfaces at the default step
# 1e-4: 3.3e-10 for the second-order fields (hess_y, H, K, b1) and 9.4e-13
# for the first-order ones (grad_y, trC, detC); the bounds allow about 6x
# and 10x that, and the second-order one stays a tenth of the round-off
# floor eps / step^2 ~ 2e-8 of a nested difference
FD_BOUNDS = {"hess_y": 2e-9, "H": 2e-9, "K": 2e-9, "b1": 2e-9,
             "grad_y": 1e-11, "trC": 1e-11, "detC": 1e-11}


@pytest.mark.parametrize("name,params", [
    ("saddle", {"a": 1.0}), ("saddle", {"a": 0.3}), ("plane", {}), ("uniform_stretch", {})])
@pytest.mark.parametrize("x", [(0.1, 0.1), (-0.2, 0.3), (0.3, -0.25), (0.0, 0.0)])
def test_fd_jets_of_quadratic_maps_match_analytic(name, params, x):
    analytic = jet_of(name, x, **params)
    fd = jet_of(name, x, derivative_mode="finite-difference", **params)
    for field, bound in FD_BOUNDS.items():
        gap = np.max(np.abs(np.asarray(getattr(fd, field)) - getattr(analytic, field)))
        assert gap <= bound, (field, gap)
    if name != "saddle":  # an affine map's differences cancel exactly
        assert np.array_equal(fd.hess_y, np.zeros((3, 2, 2)))


def random_quadratic_maps(count=60, seed=1):
    # (A, B) of y(x) = A x + B[x, x] / 2: A = Q[:, :2] U with Q orthogonal
    # and U = I + uniform(-0.25, 0.25), B uniform(-1, 1) symmetrised
    rng = np.random.default_rng(seed)
    maps = []
    for _ in range(count):
        U = np.eye(2) + rng.uniform(-0.25, 0.25, (2, 2))
        Q, _ = np.linalg.qr(rng.normal(size=(3, 3)))
        B = rng.uniform(-1.0, 1.0, (3, 2, 2))
        maps.append((Q[:, :2] @ U, 0.5 * (B + B.swapaxes(1, 2))))
    return maps


def quadratic_map_surface(A, B, derivative_mode):
    points = lambda x: (1,) * (np.ndim(x) - 1)  # trailing point axes of x
    return ParametricSurface(
        map=lambda x: (np.einsum("ij,j...->i...", A, x)
                       + 0.5 * np.einsum("ijk,j...,k...->i...", B, x, x)),
        grad=lambda x: A.reshape(A.shape + points(x)) + np.einsum("ijk,k...->ij...", B, x),
        hess=lambda x: np.broadcast_to(B.reshape(B.shape + points(x)),
                                       B.shape + np.shape(x)[1:]).copy(),
        derivative_mode=derivative_mode)


# worst |FD - analytic| over the 60 draws at x = 0: 1.6e-12 (hess_y),
# 1.2e-12 (K), 8.5e-13 (b1), 5.3e-13 (H), 8.9e-16 (trC), 6.7e-16 (detC) and
# 1.1e-16 (grad_y); the bounds allow at least 11x the worst of each order
RANDOM_FD_BOUNDS = {"hess_y": 2e-11, "H": 2e-11, "K": 2e-11, "b1": 2e-11,
                    "grad_y": 1e-14, "trC": 1e-14, "detC": 1e-14}


def test_fd_jets_of_random_quadratic_maps_match_analytic():
    # a quadratic map's central differences have no truncation error, so
    # the finite-difference jet differs from the analytic one by round-off
    origin = np.zeros(2)
    for k, (A, B) in enumerate(random_quadratic_maps()):
        analytic = evaluate_jet(quadratic_map_surface(A, B, "analytic"), origin)
        fd = evaluate_jet(quadratic_map_surface(A, B, "finite-difference"), origin)
        assert np.array_equal(analytic.hess_y, B)
        for field, bound in RANDOM_FD_BOUNDS.items():
            gap = np.max(np.abs(np.asarray(getattr(fd, field)) - getattr(analytic, field)))
            assert gap <= bound, (k, field, gap)


@pytest.mark.parametrize("lo,hi", [(-0.75, 0.75), (0.0, 0.01), (0.1, 3.0)],
                         ids=["coordinates", "series", "radii"])
def test_catalog_powers_round_like_the_scalar_power(lo, hi):
    # np.float_power of a Python float, a numpy scalar or an array rounds
    # as ``**`` does on each single point; the array ``**`` does not
    x = np.random.default_rng(20).uniform(lo, hi, 2000)
    for k in range(2, 8):
        expected = np.array([float(xi) ** k for xi in x])
        assert np.array_equal([np.float_power(float(xi), k) for xi in x], expected)
        assert np.array_equal([np.float_power(xi, k) for xi in x], [xi ** k for xi in x])
        assert np.array_equal(_pow(x, k), expected)


def test_bump_apex_is_an_isometry_point():
    jet = jet_of("gaussian_bump", (0.0, 0.0))
    assert np.max(np.abs(jet.C - np.eye(2))) <= 1e-12


def test_saddle_jet():
    jet = jet_of("saddle", (0.2, 0.15))
    assert jet.detC - 1.0 == pytest.approx(0.0625, abs=1e-14)
    assert jet.K < 0.0


def test_plane_jet_is_trivial():
    jet = jet_of("plane", (0.1, -0.2))
    assert jet.trC == 2.0 and jet.detC == 1.0
    assert jet.H == 0.0 and jet.K == 0.0 and jet.b1 == 0.0


@pytest.mark.parametrize("mode", ["analytic", "finite-difference"])
@pytest.mark.parametrize("x", [(0.0, 0.0), (0.3, -0.2), (-0.45, 0.4)])
def test_flat_bump_is_the_plane_bit_for_bit(mode, x):
    flat = jet_of("gaussian_bump", x, A=0.0, derivative_mode=mode)
    plane = jet_of("plane", x, derivative_mode=mode)
    for f in fields(SurfaceJet):
        if f.name != "derivative_mode":
            a, b = np.asarray(getattr(flat, f.name)), np.asarray(getattr(plane, f.name))
            assert a.dtype == b.dtype and a.tobytes() == b.tobytes(), f.name


# ---------------------------------------------------------------------------
# internal identities of the jet


@pytest.mark.parametrize("name,x", [
    ("gaussian_bump", (0.3, 0.2)),
    ("sphere_cap", (0.25, -0.15)),
    ("saddle", (0.2, 0.15)),
    ("cylinder", (0.05, -0.3)),
])
def test_jet_identities(name, x):
    jet = jet_of(name, x)
    # frames orthonormal, image frame consistent with the stretches
    assert abs(jet.r1 @ jet.r2) <= 1e-14
    assert jet.r1 @ jet.r1 == pytest.approx(1.0, abs=1e-14)
    assert np.allclose(jet.C @ jet.r1, jet.lambda1 ** 2 * jet.r1, atol=1e-12)
    assert np.allclose(jet.C @ jet.r2, jet.lambda2 ** 2 * jet.r2, atol=1e-12)
    assert np.allclose(jet.grad_y @ jet.r1, jet.lambda1 * jet.l1, atol=1e-12)
    assert abs(jet.l1 @ jet.l2) <= 1e-12
    # unit normal orthogonal to the tangent plane
    assert abs(jet.normal @ jet.normal - 1.0) <= 1e-12
    assert abs(jet.normal @ jet.a1) <= 1e-12
    assert abs(jet.normal @ jet.a2) <= 1e-12
    assert np.allclose(jet.a1, jet.grad_y[:, 0])
    # (grad y)^T grad nu is symmetric and traces to b1
    M = jet.grad_y.T @ jet.grad_nu
    assert np.max(np.abs(M - M.T)) <= 1e-12
    assert jet.b1 == pytest.approx(np.trace(M), abs=1e-12)
    # curvatures come from the shape operator
    assert jet.H == pytest.approx(0.5 * np.trace(jet.shape_op), abs=1e-14)
    assert jet.K == pytest.approx(np.linalg.det(jet.shape_op), abs=1e-14)
    assert np.allclose(jet.B, jet.grad_y @ jet.grad_y.T, atol=1e-14)
    assert jet.trC == pytest.approx(np.trace(jet.C), abs=1e-14)
    assert jet.detC == pytest.approx(np.linalg.det(jet.C), rel=1e-12)


def test_finite_difference_jet_matches_analytic():
    ana = jet_of("gaussian_bump", (0.3, 0.2))
    fd = jet_of("gaussian_bump", (0.3, 0.2),
                derivative_mode="finite-difference")
    assert fd.derivative_mode == "finite-difference"
    assert abs(fd.H - ana.H) <= 1e-7
    assert abs(fd.K - ana.K) <= 1e-7
    assert abs(fd.b1 - ana.b1) <= 1e-7
    assert abs(fd.trC - ana.trC) <= 1e-7
    assert np.max(np.abs(fd.C - ana.C)) <= 1e-7


# ---------------------------------------------------------------------------
# curvatures from raw second derivatives


@pytest.mark.parametrize("name,x", [
    ("plane", (0.1, -0.2)),
    ("uniform_stretch", (0.1, 0.2)),
    ("cylinder", (0.05, -0.3)),
    ("gaussian_bump", (0.3, 0.2)),
])
def test_appendix_H_K_matches_jet_on_unimodular_surfaces(name, x):
    jet = jet_of(name, x)
    h_alt, k_alt = appendix_H_K(jet)
    assert h_alt == pytest.approx(jet.H, abs=1e-10)
    assert k_alt == pytest.approx(jet.K, abs=1e-10)


def test_appendix_H_K_rejects_area_distortion():
    jet = jet_of("sphere_cap", (0.25, -0.15))
    with pytest.raises(AreaDistortionError, match="det C"):
        appendix_H_K(jet)
    with pytest.raises(AreaDistortionError):
        appendix_H_K(jet_of("saddle", (0.2, 0.15)))


def _admits(f, error):
    try:
        f()
    except error:
        return False
    return True


@pytest.mark.parametrize("mode", ["analytic", "finite-difference"])
@pytest.mark.parametrize("name, params", [
    ("plane", {}), ("uniform_stretch", {}), ("uniform_stretch", {"l1": 2.0, "l2": 0.6}),
    # det C - 1 = 6.0e-7: outside the analytic tolerance, inside the FD one
    ("uniform_stretch", {"l1": 2.0, "l2": 0.5 * (1 + 3e-7)}),
    ("cylinder", {}), ("sphere_cap", {}), ("saddle", {}), ("gaussian_bump", {})])
def test_every_unimodular_user_applies_the_one_tolerance(mode, name, params):
    jet = evaluate_jet(catalog_surface(name, derivative_mode=mode, **params),
                       np.array([0.2, -0.15]))
    unimodular = abs(jet.detC - 1.0) <= unimodular_tolerance(jet)
    assert (gent_contents(jet, 1.0, 10.0).formula_id == "gent_unimodular") == unimodular
    assert _admits(lambda: incompressible_profile(jet), ProfileConstraintError) == unimodular
    assert _admits(lambda: appendix_H_K(jet), AreaDistortionError) == unimodular


# ---------------------------------------------------------------------------
# guards


def test_evaluate_jet_outside_domain():
    with pytest.raises(DomainError, match="outside domain"):
        jet_of("cylinder", (5.0, 0.0))


def test_degenerate_immersion_is_rejected():
    flat = ParametricSurface(
        map=lambda x: np.array([x[0], 0.0, 0.0]),
        grad=lambda x: np.array([[1.0, 0.0], [0.0, 0.0], [0.0, 0.0]]),
        hess=lambda x: np.zeros((3, 2, 2)))
    with pytest.raises(DegenerateImmersionError, match="rank deficient"):
        evaluate_jet(flat, np.array([0.0, 0.0]))


def test_parametric_surface_validation():
    with pytest.raises(ValueError, match="derivative_mode"):
        ParametricSurface(map=lambda x: np.zeros(3), derivative_mode="exact")
    with pytest.raises(ValueError, match="grad and hess"):
        ParametricSurface(map=lambda x: np.zeros(3))
    with pytest.raises(ValueError, match="step"):
        ParametricSurface(map=lambda x: np.zeros(3),
                          derivative_mode="finite-difference", step=0.0)


def test_catalog_surface_validation():
    with pytest.raises(ValueError, match="unknown catalog surface"):
        catalog_surface("nope")
    with pytest.raises(ValueError, match="unknown parameters"):
        catalog_surface("cylinder", bogus=1.0)
    with pytest.raises(ValueError, match="radius"):
        catalog_surface("cylinder", R=-1.0)
    with pytest.raises(ValueError, match="too steep"):
        catalog_surface("gaussian_bump", A=5.0, s=0.2)
    with pytest.raises(ValueError, match="positive"):
        catalog_surface("uniform_stretch", l1=-2.0)


@pytest.mark.parametrize("s", [1e20, 1.2e77, 1.3e154])
def test_bump_width_past_double_precision_names_the_width(s):
    # w = s * s: w ** 8 overflows, then w ** 2, then s * s is inf
    with pytest.raises(OverflowError) as err:
        catalog_surface("gaussian_bump", A=0.5, s=s)
    assert str(err.value) == f"the bump width s = {s:g}"
    # a flat bump never uses the width
    assert catalog_surface("gaussian_bump", A=0.0, s=s).map(np.zeros(2)).tolist() == [0, 0, 0]


# ---------------------------------------------------------------------------
# fiber deformation gradient, orientation and injectivity


def test_fiber_deformation_gradient_stacks_the_single_point_calls():
    # a JetBatch of 3 points and x3 of shape (4, 1): a (4, 3, 3, 3) stack
    # whose every entry is the one-point, scalar-x3 call
    points = np.array([[0.3, 0.2], [-0.1, 0.4], [0.05, -0.3]])
    batch = evaluate_jets(catalog_surface("gaussian_bump"), points)
    profile = incompressible_profile_general(batch)
    x3 = np.array([[-0.05], [0.0], [0.02], [0.04]])
    grad_phi = np.stack([0.1 * x3 * batch.H, -0.2 * x3 * batch.K])
    F = fiber_deformation_gradient(batch, profile, x3)
    shifted = fiber_deformation_gradient(batch, profile, x3, grad_phi)
    assert F.shape == shifted.shape == (4, 3, 3, 3)
    for i in range(len(points)):
        jet = SurfaceJet(**{f.name: getattr(batch, f.name)[..., i]
                            for f in fields(SurfaceJet) if f.name != "derivative_mode"})
        single = PolyProfile(profile.alpha[i], profile.beta[i], profile.gamma[i])
        for k, t in enumerate(x3[:, 0]):
            np.testing.assert_array_equal(F[k, i], fiber_deformation_gradient(jet, single, t))
            np.testing.assert_array_equal(shifted[k, i], fiber_deformation_gradient(
                jet, single, t, grad_phi=grad_phi[:, k, i]))


def test_verify_orientation_passes_at_working_thickness():
    report = verify_orientation(catalog_surface("cylinder"),
                                lambda jet: PolyProfile(1.0, 0.5, 0.5), 0.01)
    assert report.passed
    assert report.n_points == 5 * 5 * 9
    assert report.n_nonpositive == 0
    assert report.min_det_F > 0.99


def test_verify_orientation_flags_excessive_thickness():
    report = verify_orientation(catalog_surface("cylinder"),
                                lambda jet: PolyProfile(1.0, 0.5, 0.5), 0.9)
    assert not report.passed
    assert report.n_nonpositive > 0
    assert report.min_det_F <= 0.0
    assert abs(report.argmin_x3) <= 0.9


def test_verify_orientation_fails_on_nan_jacobians():
    with np.errstate(invalid="ignore"):
        report = verify_orientation(catalog_surface("cylinder"),
                                    lambda jet: PolyProfile(1.0, np.nan), 0.01)
    assert np.isnan(report.min_det_F)
    assert not report.passed


@pytest.mark.parametrize("h", [0.01, 0.9])
def test_verify_orientation_rule_matches_a_per_node_loop(h):
    surface = catalog_surface("cylinder")
    report = verify_orientation(surface, incompressible_profile_general, h)
    step = surface.step
    (lo1, hi1), (lo2, hi2) = surface.domain
    dets = []
    for x1 in np.linspace(lo1 + 2.0 * step, hi1 - 2.0 * step, 5):
        for x2 in np.linspace(lo2 + 2.0 * step, hi2 - 2.0 * step, 5):
            x = np.array([x1, x2])
            jet = evaluate_jet(surface, x)
            profile = incompressible_profile_general(jet)
            near = [[incompressible_profile_general(
                        evaluate_jet(surface, x + sgn * step * np.eye(2)[k]))
                     for sgn in (1.0, -1.0)] for k in range(2)]
            for x3 in np.linspace(-h, h, 9):
                grad_phi = [(plus.phi(x3) - minus.phi(x3)) / (2.0 * step)
                            for plus, minus in near]
                F = fiber_deformation_gradient(jet, profile, x3,
                                               grad_phi=grad_phi)
                dets.append((np.linalg.det(F), (x1, x2), x3))
    best = min(dets, key=lambda d: d[0])  # the first minimum in loop order
    assert report.min_det_F == pytest.approx(best[0], rel=1e-14, abs=0.0)
    assert report.argmin_x == best[1]
    assert report.argmin_x3 == best[2]
    assert report.n_nonpositive == sum(d <= 0.0 for d, _, _ in dets)
    assert report.n_points == len(dets)
    assert report.passed == (h == 0.01)


def test_lattice_rows_run_x1_outer_inside_the_inset_bounds():
    xs, ys, points = _lattice(((-1.0, 2.0), (0.5, 1.5)), 4, 3, 0.25)
    assert np.array_equal(xs, np.linspace(-0.75, 1.75, 4))
    assert np.array_equal(ys, np.linspace(0.75, 1.25, 3))
    assert points.shape == (12, 2)
    assert points.tolist() == [[x, y] for x in xs.tolist() for y in ys.tolist()]


@pytest.mark.parametrize("name", ["plane", "cylinder", "gaussian_bump"])
def test_sampled_injectivity_on_catalog(name):
    assert sampled_injectivity(catalog_surface(name))


def test_sampled_injectivity_detects_a_fold():
    folded = ParametricSurface(
        map=lambda x: np.array([x[0] ** 2, x[1], 0.0]),
        grad=lambda x: np.array([[2.0 * x[0], 0.0], [0.0, 1.0], [0.0, 0.0]]),
        hess=lambda x: np.array([[[2.0, 0.0], [0.0, 0.0]],
                                 [[0.0, 0.0], [0.0, 0.0]],
                                 [[0.0, 0.0], [0.0, 0.0]]]))
    assert not sampled_injectivity(folded)
