"""Energy densities, fiber invariants, and material construction."""

import numpy as np
import pytest
from types import SimpleNamespace

from plate_reduce import (
    CiarletGeymonat,
    Gent,
    HyperbolicProfile,
    MaterialDomainError,
    MooneyRivlin,
    NeoHookean,
    ParametricSurface,
    PolyProfile,
    SaintVenantKirchhoff,
    StiffeningLimitError,
    catalog_surface,
    cg_profile,
    coupling_stationary_angles,
    eigenframe_coupling,
    evaluate_jet,
    exact_invariants,
    exact_invariants_from_jet,
    fiber_deformation_gradient,
    incompressible_profile,
    invariant_series,
    lame_constants,
    material_from_config,
    molecular_params,
    parabolic_refine,
    small_strain_energy,
    svk_profile,
    symmetric_sqrt,
    volumetric_energy,
)
from plate_reduce.materials import matrix_invariants
from plate_reduce.surface_geometry import uniform_stretch_cone

ALL_MODELS = (Gent(mu=1.0, jm=10.0), NeoHookean(mu=1.0),
              MooneyRivlin(mu=1.0, chi=0.4),
              CiarletGeymonat.from_lame(1.0, 1.0),
              SaintVenantKirchhoff(lam=1.0, mu=1.0))


# ---------------------------------------------------------------------------
# energy densities


@pytest.mark.parametrize("material", ALL_MODELS,
                         ids=[type(m).__name__ for m in ALL_MODELS])
def test_energy_vanishes_at_identity(material):
    if isinstance(material, SaintVenantKirchhoff):
        w = volumetric_energy(material, C_f=np.eye(3))
    else:
        w = volumetric_energy(material, 3.0, 3.0, 1.0)
    assert abs(w) <= 1e-14


def test_gent_density_frozen_value():
    w = volumetric_energy(Gent(mu=1.0, jm=10.0), 5.25, 5.25, 1.0)
    assert w == pytest.approx(-5.0 * np.log(0.775), rel=1e-14)
    assert w == pytest.approx(1.2744612481439501, rel=1e-14)


def test_gent_extensibility_limit():
    with pytest.raises(StiffeningLimitError, match="extensibility limit"):
        volumetric_energy(Gent(mu=1.0, jm=10.0), 13.0, 3.0, 1.0)


def test_gent_approaches_neo_hookean_for_large_jm():
    w_gent = volumetric_energy(Gent(mu=2.0, jm=1e8), 4.0, 4.0, 1.0)
    w_nh = volumetric_energy(NeoHookean(mu=2.0), 4.0, 4.0, 1.0)
    assert w_gent == pytest.approx(w_nh, rel=1e-6)


def test_mooney_rivlin_interpolates_both_invariants():
    w = volumetric_energy(MooneyRivlin(mu=2.0, chi=0.25), 5.0, 4.0, 1.0)
    assert w == pytest.approx(0.5 * 2.0 * (0.25 * 2.0 + 0.75 * 1.0), rel=1e-14)


def test_cg_reference_state_is_stress_free():
    material = CiarletGeymonat.from_lame(1.0, 1.0)

    def w_of(eps):
        s = (1.0 + eps) ** 2
        return volumetric_energy(material, 3.0 * s, 3.0 * s * s, s ** 3)

    assert abs((w_of(1e-5) - w_of(-1e-5)) / 2e-5) <= 1e-8
    assert 0.0 < w_of(1e-5) < 1e-8


def test_cg_rejects_nonpositive_volume():
    with pytest.raises(MaterialDomainError, match="positive"):
        volumetric_energy(CiarletGeymonat(a=1.0, b=1.0), 3.0, 3.0, -1.0)


def test_svk_density():
    material = SaintVenantKirchhoff(lam=1.0, mu=1.0)
    # C = diag(4, 1, 1): E = diag(1, 0, 0)
    assert volumetric_energy(material, C_f=np.diag([4.0, 1.0, 1.0])) == \
        pytest.approx(1.5, rel=1e-14)
    with pytest.raises(ValueError, match="C_f"):
        volumetric_energy(material, 3.0, 3.0, 1.0)


def test_unknown_material_is_rejected():
    with pytest.raises(TypeError, match="unknown material"):
        volumetric_energy(object(), 3.0, 3.0, 1.0)


# ---------------------------------------------------------------------------
# model construction


def test_model_parameter_validation():
    with pytest.raises(ValueError):
        Gent(mu=-1.0, jm=10.0)
    with pytest.raises(ValueError):
        Gent(mu=1.0, jm=0.0)
    with pytest.raises(ValueError):
        NeoHookean(mu=0.0)
    with pytest.raises(ValueError):
        MooneyRivlin(mu=1.0, chi=0.0)
    with pytest.raises(ValueError):
        MooneyRivlin(mu=1.0, chi=1.5)
    with pytest.raises(ValueError):
        CiarletGeymonat(a=-1.0, b=1.0)
    with pytest.raises(ValueError):
        SaintVenantKirchhoff(lam=1.0, mu=-1.0)
    with pytest.raises(ValueError, match="lam > 0"):
        SaintVenantKirchhoff(lam=-2.0, mu=1.0)


def test_cg_constants_are_locked():
    material = CiarletGeymonat.from_lame(1.0, 1.0)
    assert material.a == 0.5 and material.b == 0.25
    assert material.c == 1.5 and material.d == -1.75
    assert CiarletGeymonat(a=0.5, b=0.25) == material
    # c and d are derived from a and b: they take no value of their own
    with pytest.raises(TypeError):
        CiarletGeymonat(a=0.5, b=0.25, c=1.5)
    with pytest.raises(AttributeError):
        material.d = -1.75
    with pytest.raises(ValueError, match="Lame"):
        CiarletGeymonat.from_lame(-1.0, 1.0)


def test_array_parameter_cg_matches_scalar_models():
    a = np.array([0.3, 1.0, 2.5])
    b = np.array([0.7, 0.2, 1.9])
    I1, I2, I3 = np.array([3.2, 4.1, 2.9]), 0.0, np.array([0.8, 1.3, 2.2])
    lanes = CiarletGeymonat(a=a, b=b)
    w = volumetric_energy(lanes, I1, I2, I3)
    grad, hess = lanes.partials(I1, I2, I3)
    jet = SimpleNamespace(trC=I1, detC=I3, H=np.array([0.4, -1.0, 0.0]),
                          K=0.0, b1=np.array([1.5, 0.2, -0.9]))
    profile = cg_profile(jet, lanes)
    for i in range(len(a)):
        model = CiarletGeymonat(a=float(a[i]), b=float(b[i]))
        assert w[i] == volumetric_energy(model, I1[i], I2, I3[i])
        g, h = model.partials(I1[i], I2, I3[i])
        assert [np.broadcast_to(v, 3)[i] for v in grad + hess] == list(g + h)
        one = cg_profile(SimpleNamespace(trC=I1[i], detC=I3[i], H=jet.H[i],
                                         K=0.0, b1=jet.b1[i]), model)
        assert (profile.alpha[i], profile.beta[i]) == (one.alpha, one.beta)


def test_array_parameter_cg_rejects_any_bad_lane():
    with pytest.raises(ValueError, match="a > 0"):
        CiarletGeymonat(a=np.array([1.0, 0.0]), b=np.array([1.0, 1.0]))
    with pytest.raises(ValueError, match="a > 0"):
        CiarletGeymonat(a=np.array([1.0, 1.0]), b=np.array([-1.0, 1.0]))
    a, b = np.array([0.5, 1.0]), np.array([0.25, 0.5])
    lanes = CiarletGeymonat(a=a, b=b)
    assert lanes.c.tolist() == [1.5, 3.0] and lanes.d.tolist() == [-1.75, -3.5]


NAN, INF = float("nan"), float("inf")
CG_CONFIG = {"model": "ciarlet_geymonat", "a": 1.0, "b": 1.0}


@pytest.mark.parametrize("make,message", [
    (lambda x: Gent(mu=x, jm=10.0), "Gent requires"),
    (lambda x: Gent(mu=1.0, jm=x), "Gent requires"),
    (lambda x: NeoHookean(mu=x), "NeoHookean requires"),
    (lambda x: MooneyRivlin(mu=x, chi=0.5), "MooneyRivlin requires mu"),
    (lambda x: CiarletGeymonat(a=x, b=1.0), "a > 0 and b > 0"),
    (lambda x: CiarletGeymonat(a=1.0, b=x), "a > 0 and b > 0"),
    (lambda x: CiarletGeymonat(a=np.array([1.0, x]), b=np.array([1.0, 1.0])),
     "a > 0 and b > 0"),
    (lambda x: CiarletGeymonat(a=np.array([1.0, 1.0]), b=np.array([x, 1.0])),
     "a > 0 and b > 0"),
    # c and d are derived, so a config naming either is rejected
    (lambda x: material_from_config(CG_CONFIG | {"c": x}), "unknown material parameters"),
    (lambda x: material_from_config(CG_CONFIG | {"d": x}), "unknown material parameters"),
    (lambda x: CiarletGeymonat.from_lame(x, 1.0), "Lame constants"),
    (lambda x: CiarletGeymonat.from_lame(1.0, x), "Lame constants"),
    (lambda x: SaintVenantKirchhoff(lam=x, mu=1.0), "lam > 0 and mu > 0"),
    (lambda x: SaintVenantKirchhoff(lam=1.0, mu=x), "lam > 0 and mu > 0"),
], ids=["gent-mu", "gent-jm", "neo_hookean-mu", "mooney_rivlin-mu", "cg-a",
        "cg-b", "cg-a-lane", "cg-b-lane", "cg-c", "cg-d", "cg-lame-lambda",
        "cg-lame-mu", "svk-lambda", "svk-mu"])
@pytest.mark.parametrize("value", [NAN, INF, -INF, "2"],
                         ids=["nan", "inf", "-inf", "numeric-string"])
def test_models_reject_non_finite_parameters(make, message, value):
    # NaN fails every comparison, so `x <= 0` alone let it through
    with pytest.raises(ValueError, match=message):
        make(value)


# (make, error, message with {} for the value, index or None); each of
# these once let NaN or an infinity through, or failed only later
POSITIVE_GUARDS = {
    "hyperbolic-lam": (lambda x: HyperbolicProfile(H=0.5, lam=x, mu=1.0, h=0.1, alpha_bar=1.0),
                       ValueError, "Lame constants must be positive", 0),
    "hyperbolic-mu": (lambda x: HyperbolicProfile(H=0.5, lam=1.0, mu=x, h=0.1, alpha_bar=1.0),
                      ValueError, "Lame constants must be positive", 1),
    "hyperbolic-xi": (lambda x: HyperbolicProfile(H=0.5, lam=1.0, mu=1.0, h=0.1, alpha_bar=x),
                      ValueError, "mid-plane slope 2 H xi must be positive", 0),
    "poly-alpha": (lambda x: PolyProfile(x), ValueError,
                   "profile slope alpha at the mid-plane must be positive", 0),
    "eigenframe_coupling": (lambda x: eigenframe_coupling(1.0, 2.0, x, 0.3),
                            ValueError, "lambda1 = {:.9g} must be positive", 0),
    "coupling_stationary_angles": (lambda x: coupling_stationary_angles(1.0, 2.0, x),
                                   ValueError, "lambda1 = {:.9g} must be positive", 0),
    "molecular-n_chains": (lambda x: molecular_params(x, 10, 1, 1), MaterialDomainError,
                           "chain density, k, and temperature must be positive", 0),
    "molecular-n_links": (lambda x: molecular_params(1, x, 1, 1), MaterialDomainError,
                          "chain segment count N must exceed 1", None),
    "molecular-k": (lambda x: molecular_params(1, 10, x, 1), MaterialDomainError,
                    "chain density, k, and temperature must be positive", 1),
    "molecular-temperature": (lambda x: molecular_params(1, 10, 1, x), MaterialDomainError,
                              "chain density, k, and temperature must be positive", 2),
    "surface-step": (lambda x: ParametricSurface(
        map=lambda p: p, derivative_mode="finite-difference", step=x),
        ValueError, "step must be positive", 0),
    "parabolic_refine-delta": (lambda x: parabolic_refine(lambda t: t * t, 0.5, x),
                               ValueError, "parabolic_refine needs delta > 0, got {:g}", 0),
    "uniform_stretch_cone": (uniform_stretch_cone, ValueError,
                             "cone construction needs lambda1 > 1", None),
    "gent-mu": (lambda x: Gent(mu=x, jm=1.0), ValueError,
                "Gent requires mu > 0 and jm > 0", 0),
    "gent-jm": (lambda x: Gent(mu=1.0, jm=x), ValueError,
                "Gent requires mu > 0 and jm > 0", 1),
    "mooney_rivlin-chi": (lambda x: MooneyRivlin(1.0, x), ValueError,
                          "MooneyRivlin requires chi in (0, 1]", None),
    "cg-from_lame-lam": (lambda x: CiarletGeymonat.from_lame(x, 1.0), ValueError,
                         "Lame constants must be positive", 0),
    "cg-from_lame-mu": (lambda x: CiarletGeymonat.from_lame(1.0, x), ValueError,
                        "Lame constants must be positive", 1),
    "catalog-step": (lambda x: catalog_surface("plane", step=x), ValueError,
                     "step must be positive", 0),
    "hyperbolic-H": (lambda x: HyperbolicProfile(H=x, lam=1.0, mu=1.0, h=0.1, alpha_bar=1.0),
                     ValueError, "the SVK profile needs a finite H, got {:g}", 0),
    "svk_profile-H": (lambda x: svk_profile(x, 1.0, 1.0, 0.1), ValueError,
                      "the SVK profile needs a finite H, got {:g}", 0),
    "svk_profile-lam": (lambda x: svk_profile(0.1, x, 1.0, 0.1), ValueError,
                        "Lame constants must be positive", 0),
    "svk_profile-mu": (lambda x: svk_profile(0.1, 1.0, x, 0.1), ValueError,
                       "Lame constants must be positive", 1),
}
# an infinite principal value is allowed there; NaN is not
NAN_GUARDS = {
    "principal_energy": (lambda x: SaintVenantKirchhoff(lam=1.0, mu=1.0).principal_energy(
        [1.0, 1.0, x]), MaterialDomainError, "matrix is not positive definite", None),
    "symmetric_sqrt": (lambda x: symmetric_sqrt(np.diag([1.0, x, 1.0])),
                       MaterialDomainError, "matrix is not positive definite", None),
    # eigvalsh did not converge on a NaN matrix: LinAlgError
    "svk-energy": (lambda x: SaintVenantKirchhoff(lam=1.0, mu=1.0).energy(np.full((3, 3), x)),
                   MaterialDomainError, "matrix is not positive definite", None),
    # det warned of a NaN and every invariant model returned NaN
    **{f"{m.name}-density": (lambda x, m=m: m.density(np.diag([1.0, x, 1.0])),
                             MaterialDomainError, "matrix is not positive definite", None)
       for m in ALL_MODELS if not m.needs_C_f},
}


@pytest.mark.parametrize("guard,value", [
    *((g, v) for g in POSITIVE_GUARDS for v in (NAN, INF, -INF)),
    *(pytest.param(g, v, id=f"{g}-{name}") for g in POSITIVE_GUARDS
      for v, name in ((10 ** 400, "10**400"), (-10 ** 400, "-10**400"))),
    *((g, NAN) for g in NAN_GUARDS)])
def test_positivity_guards_reject_nan_and_infinities(guard, value):
    make, error, message, index = {**POSITIVE_GUARDS, **NAN_GUARDS}[guard]
    with pytest.raises(error) as err:
        make(value)
    assert type(err.value) is error
    # an integer past the double range reads as the infinity of its sign
    shown = value if isinstance(value, float) else (INF if value > 0 else -INF)
    assert str(err.value) == message.format(shown)
    assert getattr(err.value, "index", None) == index


@pytest.mark.parametrize("guard", POSITIVE_GUARDS)
def test_positivity_guards_reject_none(guard):
    # a missing value is read as NaN and fails with the guard's own error
    make, error, message, index = POSITIVE_GUARDS[guard]
    with pytest.raises(error) as err:
        make(None)
    assert type(err.value) is error
    assert str(err.value) == message.format(NAN)
    assert getattr(err.value, "index", None) == index


@pytest.mark.parametrize("guard", [*POSITIVE_GUARDS, *NAN_GUARDS])
def test_positivity_guards_reject_a_numeric_string(guard):
    # a value that is not a real number reads as NaN, even where float()
    # would parse it, and fails with the guard's own error
    make, error, message, index = {**POSITIVE_GUARDS, **NAN_GUARDS}[guard]
    with pytest.raises(error) as err:
        make("2")
    assert type(err.value) is error
    assert str(err.value) == message.format(NAN)
    assert getattr(err.value, "index", None) == index


# diag(4, 1, 1) written as numeric strings, which float() would parse
STRING_MATRIX = [["4", "0", "0"], ["0", "1", "0"], ["0", "0", "1"]]


def test_matrix_readers_read_numeric_strings_as_nan():
    # these read the strings as numbers once: 1.5, (6, 9, 4) and 0.015;
    # numpy's det warns of the NaN it is given
    with pytest.raises(MaterialDomainError, match="^matrix is not positive definite$"):
        volumetric_energy(NeoHookean(mu=1.0), C_f=STRING_MATRIX)
    with np.errstate(invalid="ignore"):
        assert np.isnan(matrix_invariants(STRING_MATRIX)).all()
    strain = [["0.1", "0", "0"], ["0", "0", "0"], ["0", "0", "0"]]
    assert np.isnan(small_strain_energy(CiarletGeymonat.from_lame(1.0, 1.0), strain))
    with pytest.raises(MaterialDomainError, match="^matrix is not positive definite$"):
        volumetric_energy(SaintVenantKirchhoff(lam=1.0, mu=1.0), C_f=STRING_MATRIX)


def test_cg_from_config_gives_scalars():
    for spec in ({"model": "ciarlet_geymonat", "lambda": 1.0, "mu": 1.0},
                 {"model": "ciarlet_geymonat", "a": 0.5, "b": 0.25}):
        material = material_from_config(spec)
        assert all(type(v) is float for v in
                   (material.a, material.b, material.c, material.d))


def test_lame_constants():
    assert lame_constants(CiarletGeymonat.from_lame(2.0, 0.8)) == \
        pytest.approx((2.0, 0.8), rel=1e-14)
    assert lame_constants(SaintVenantKirchhoff(lam=1.3, mu=0.7)) == (1.3, 0.7)
    with pytest.raises(TypeError):
        lame_constants(NeoHookean(mu=1.0))


def test_small_strain_energy_matches_lame_form():
    E = np.array([[0.8, 0.3, 0.1], [0.3, -0.5, 0.2], [0.1, 0.2, 0.4]])
    w = small_strain_energy(CiarletGeymonat.from_lame(1.3, 0.7), E)
    expected = 0.5 * 1.3 * np.trace(E) ** 2 + 0.7 * np.trace(E @ E)
    assert w == pytest.approx(expected, rel=1e-14)


def test_small_strain_energy_takes_a_stack():
    material = CiarletGeymonat.from_lame(1.3, 0.7)
    G = np.array([[0.8, 0.3, 0.1], [0.3, -0.5, 0.2], [0.1, 0.2, 0.4]])
    stack = np.array([1e-1, 1e-2, -3e-3, 0.0])[:, None, None] * G
    w = small_strain_energy(material, stack)
    assert w.shape == (4,)
    singles = [small_strain_energy(material, E) for E in stack]
    assert all(type(v) is float for v in singles)
    np.testing.assert_array_equal(w, singles)


def test_material_from_config():
    assert material_from_config({"model": "gent", "mu": 2.0, "jm": 5.0}) == \
        Gent(mu=2.0, jm=5.0)
    assert material_from_config({"model": "neo_hookean", "mu": 1.5}) == \
        NeoHookean(mu=1.5)
    assert material_from_config(
        {"model": "mooney_rivlin", "mu": 1.0, "chi": 0.7}) == \
        MooneyRivlin(mu=1.0, chi=0.7)
    assert material_from_config(
        {"model": "ciarlet_geymonat", "lambda": 1.0, "mu": 1.0}) == \
        CiarletGeymonat.from_lame(1.0, 1.0)
    assert material_from_config(
        {"model": "ciarlet_geymonat", "a": 0.5, "b": 0.25}) == \
        CiarletGeymonat.from_lame(1.0, 1.0)
    assert material_from_config(
        {"model": "svk", "lambda": 1.3, "mu": 0.7}) == \
        SaintVenantKirchhoff(lam=1.3, mu=0.7)


def test_material_from_config_rejects_bad_specs():
    with pytest.raises(ValueError, match="'model'"):
        material_from_config({"mu": 1.0})
    with pytest.raises(ValueError, match="'model'"):
        material_from_config("gent")
    with pytest.raises(ValueError, match="unknown material model"):
        material_from_config({"model": "hooke"})
    with pytest.raises(ValueError, match="missing parameter"):
        material_from_config({"model": "gent", "mu": 1.0})
    with pytest.raises(ValueError, match="unknown material parameters"):
        material_from_config({"model": "neo_hookean", "mu": 1.0, "jm": 5.0})


def test_molecular_params():
    mu, jm = molecular_params(2.0, 4.0, 1.5, 2.0)
    assert mu == pytest.approx(6.0) and jm == pytest.approx(9.0)
    with pytest.raises(MaterialDomainError):
        molecular_params(2.0, 1.0, 1.5, 2.0)
    with pytest.raises(MaterialDomainError):
        molecular_params(2.0, 4.0, 1.5, -2.0)


def test_symmetric_sqrt():
    rng = np.random.default_rng(7)
    for _ in range(5):
        M = rng.normal(size=(3, 3))
        A = M.T @ M + 0.1 * np.eye(3)
        R = symmetric_sqrt(A)
        assert np.max(np.abs(R - R.T)) <= 1e-12
        assert np.max(np.abs(R @ R - A)) <= 1e-10
    with pytest.raises(MaterialDomainError):
        symmetric_sqrt(np.diag([1.0, -1.0, 1.0]))


def _spd_stack(n, seed=11):
    M = np.random.default_rng(seed).normal(size=(n, 3, 3))
    return np.swapaxes(M, -1, -2) @ M + 0.1 * np.eye(3)


def test_stacked_symmetric_sqrt_matches_per_matrix_calls():
    stack = _spd_stack(6).reshape(2, 3, 3, 3)
    roots = symmetric_sqrt(stack)
    assert roots.shape == stack.shape
    for idx in np.ndindex(2, 3):
        assert np.array_equal(roots[idx], symmetric_sqrt(stack[idx]))


def test_stacked_svk_energy_matches_per_matrix_calls():
    material = SaintVenantKirchhoff(lam=1.3, mu=0.7)
    stack = _spd_stack(7)
    diag = np.zeros((5, 3, 3))
    diag[:, [0, 1, 2], [0, 1, 2]] = np.linspace(0.5, 1.5, 15).reshape(5, 3)
    for C_f in (stack, diag):
        energies = volumetric_energy(material, C_f=C_f)
        assert energies.shape == (len(C_f),)
        for i, C in enumerate(C_f):
            single = volumetric_energy(material, C_f=C)
            assert isinstance(single, float)
            assert energies[i] == single


def _svk_energy_via_sqrt(material, C_f):
    # E = U - I with U the principal square root of C_f
    E = symmetric_sqrt(C_f) - np.eye(3)
    tr = lambda M: np.trace(M, axis1=-2, axis2=-1)
    return 0.5 * material.lam * tr(E) ** 2 + material.mu * tr(E @ E)


def test_svk_energy_matches_the_square_root_route_on_spd_stacks():
    material = SaintVenantKirchhoff(lam=1.3, mu=0.7)
    values = np.random.default_rng(5).uniform(0.2, 3.0, size=(200, 3))
    Q = np.linalg.qr(np.random.default_rng(6).normal(size=(200, 3, 3)))[0]
    rotated = (Q * values[..., None, :]) @ np.swapaxes(Q, -1, -2)
    for C_f in (_spd_stack(200), rotated):
        new, old = material.energy(C_f), _svk_energy_via_sqrt(material, C_f)
        assert np.all(np.abs(new - old) <= 1e-12 * np.abs(old))


def test_svk_energy_is_exact_on_diagonal_stacks_with_a_unit_value():
    # the shooting oracle's fiber: C_f = diag(a, 1, b)
    material = SaintVenantKirchhoff(lam=1.3, mu=0.7)
    rng = np.random.default_rng(9)
    diag = rng.uniform(0.3, 2.5, size=(300, 3))
    diag[:, 1] = 1.0
    for k in (1, 2):  # the unit value in every slot
        diag[k::3] = np.roll(diag[k::3], k, axis=1)
    stack = np.zeros((300, 3, 3))
    stack[:, [0, 1, 2], [0, 1, 2]] = diag
    energies = material.energy(stack)
    assert np.array_equal(energies, _svk_energy_via_sqrt(material, stack))
    assert np.array_equal(material.principal_energy(diag), energies)
    assert isinstance(material.principal_energy(diag[0]), float)


def test_svk_principal_energy_rejects_nonpositive_values():
    material = SaintVenantKirchhoff(lam=1.0, mu=1.0)
    for bad in ([1.0, 0.0, 2.0], [[1.0, 1.0, 1.0], [0.5, 1.0, -1e-3]]):
        with pytest.raises(MaterialDomainError, match="not positive definite"):
            material.principal_energy(bad)


def test_stack_with_one_indefinite_member_is_rejected():
    stack = _spd_stack(4)
    stack[2] = np.diag([1.0, -1e-3, 1.0])
    with pytest.raises(MaterialDomainError, match="not positive definite"):
        symmetric_sqrt(stack)
    with pytest.raises(MaterialDomainError, match="not positive definite"):
        volumetric_energy(SaintVenantKirchhoff(lam=1.0, mu=1.0), C_f=stack)


def test_error_types_are_value_errors():
    assert issubclass(StiffeningLimitError, ValueError)
    assert issubclass(MaterialDomainError, ValueError)


# ---------------------------------------------------------------------------
# fiber deformation and invariants


def cylinder_jet():
    return evaluate_jet(catalog_surface("cylinder"), np.array([0.05, -0.3]))


def test_fiber_deformation_gradient():
    jet = cylinder_jet()
    profile = PolyProfile(1.0)
    F = fiber_deformation_gradient(jet, profile, 0.0)
    assert np.allclose(F[:, 2], jet.normal, atol=1e-14)
    assert np.linalg.det(F) == pytest.approx(1.0, rel=1e-12)
    shifted = fiber_deformation_gradient(jet, profile, 0.0,
                                         grad_phi=np.array([0.2, -0.1]))
    assert np.allclose(shifted[:, 0] - F[:, 0], 0.2 * jet.normal, atol=1e-14)
    assert np.allclose(shifted[:, 1] - F[:, 1], -0.1 * jet.normal, atol=1e-14)


def test_exact_invariants_routes_agree():
    jet = cylinder_jet()
    profile = PolyProfile(1.0, 0.5, 0.5)
    by_jet = exact_invariants_from_jet(jet, profile, 0.2)
    by_surface = exact_invariants(catalog_surface("cylinder"),
                                  np.array([0.05, -0.3]), profile, 0.2)
    assert np.allclose(by_jet, by_surface, rtol=1e-14)


def test_invariant_series_matches_matrix_route_exactly():
    jet = cylinder_jet()
    profile = PolyProfile(1.0, 0.5, 0.5)
    series = invariant_series(jet, profile)
    for x3 in (0.0, 0.3, -0.2):
        exact = np.array(series.exact(x3))
        matrix = np.array(exact_invariants_from_jet(jet, profile, x3))
        assert np.max(np.abs(exact - matrix)) <= 1e-12


def test_invariant_series_truncation_is_cubic():
    series = invariant_series(cylinder_jet(), PolyProfile(1.0, 0.5, 0.5))
    assert np.allclose(series.at(0.0),
                       (series.i1[0], series.i2[0], series.i3[0]))
    gap = lambda x3: np.max(np.abs(np.array(series.at(x3))
                                   - np.array(series.exact(x3))))
    big, small = gap(1e-2), gap(1e-3)
    assert small <= 1e-8
    assert 800.0 <= big / small <= 1250.0


def test_invariant_series_needs_only_scalar_jet_fields():
    jet = evaluate_jet(catalog_surface("gaussian_bump"), np.array([0.3, 0.2]))
    scalars = SimpleNamespace(trC=jet.trC, detC=jet.detC, H=jet.H, K=jet.K,
                              b1=jet.b1)
    profile = incompressible_profile(jet)
    full = invariant_series(jet, profile)
    slim = invariant_series(scalars, profile)
    assert full.i1 == slim.i1 and full.i2 == slim.i2 and full.i3 == slim.i3
    assert full.exact(0.05) == slim.exact(0.05)
