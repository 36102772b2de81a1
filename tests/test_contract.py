"""The library's input contract, as one table over one value pool.

A public function returns finite values, or raises ``ValueError`` or
``TypeError`` (or a documented subclass) whose message names the
parameter.  Each row of ``CONTRACT`` names one parameter: a call that
takes its value, the parameter's kind, the error class, the message
template and the ``index`` the error carries (None for an error without
one).  The kind picks the values of ``POOL`` the row must reject and how
its message shows the value; an array entry is a finite or positive row
whose index is the entry's position.  Every call runs with warnings as
errors: a guard rejects a value before the arithmetic can warn of it.
"""

import math
import pickle
import warnings

import numpy as np
import pytest

from plate_reduce import (
    BracketError,
    CiarletGeymonat,
    DomainError,
    FitError,
    Gent,
    HyperbolicProfile,
    MaterialDomainError,
    MooneyRivlin,
    NeoHookean,
    ParametricSurface,
    PolyProfile,
    SaintVenantKirchhoff,
    catalog_surface,
    cg_small_strain_contents,
    compute_frame,
    coupling_stationary_angles,
    deformed_thickness,
    eigenframe_coupling,
    evaluate_jet,
    evaluate_jets,
    exact_invariants,
    fit_h_powers,
    gauss_uniform_stretch,
    grid_contents,
    incompressible_profile,
    integrate_contents,
    material_from_config,
    minimize_scalar,
    molecular_params,
    order_of_residual,
    parabolic_refine,
    sample_frame_grid,
    small_strain_energy,
    solve_svk_profile_ode,
    svk_profile,
    symmetric_sqrt,
    through_thickness_energy,
    through_thickness_energy_from_jet,
    verify_orientation,
    volumetric_energy,
)
from plate_reduce.cli_io import ConfigError, parse_config
from plate_reduce.materials import matrix_invariants
from plate_reduce.surface_geometry import uniform_stretch_cone

NAN, INF = float("nan"), float("inf")
POOL = (NAN, INF, -INF, -1.0, 0.0, None, "2", 10 ** 400, -10 ** 400, 2.5, True,
        [1.0, 2.0], 1e308)
SCALARS = [x for x in POOL if np.ndim(x) == 0]


def _read(x):
    # a scalar as every guard reads it: a real number as a float, an
    # integer past the double range as the infinity of its sign, anything
    # else (None, a string) as NaN
    try:
        return float(x) if isinstance(x, (int, float)) else NAN
    except OverflowError:
        return INF if x > 0 else -INF


def _id(x):
    # a pool value's test id, with 10**400 written short
    return repr(x).replace("1" + "0" * 400, "10**400")


# kind: (the values a row must reject, the value its message shows)
KINDS = {
    "positive": ([x for x in SCALARS if not 0.0 < _read(x) < INF], _read),
    "finite": ([x for x in SCALARS if not -INF < _read(x) < INF], _read),
    # an infinite entry is allowed in a matrix; one read as NaN is not
    "matrix": ([x for x in SCALARS if math.isnan(_read(x))], _read),
    # anything but a Python or numpy integer; the integers past the double
    # range fail the range test instead, with its own message
    "integer": ([x for x in POOL if isinstance(x, bool) or not isinstance(x, int)],
                lambda x: x),
    # every scalar, and the wrong shapes of the pool's point
    "point": (SCALARS + [[1.0], [1.0, 2.0, 2.5], [[1.0, 2.0]]], np.shape),
}


def _array(*entries):
    # an array that keeps each entry as it is given: numpy makes an array
    # of a float and a string all strings, and its float then reads as NaN
    return np.array(entries, dtype=object)


def _diag(x):
    # diag(x, 1, 1) as nested lists, so that a string stays one entry
    return [[x, 0.0, 0.0], [0.0, 1.0, 0.0], [0.0, 0.0, 1.0]]


def _config_grid(key):
    def run(n):
        cfg = {"surface": {"name": "cylinder"}, "h": 1e-3,
               "material": {"model": "gent", "mu": 1.0, "jm": 10.0},
               "grid": dict({"nx": 3, "ny": 3}, **{key: n})}
        return parse_config(cfg).grid
    return run


def _config_sweep_order(n):
    cfg = {"surface": {"name": "cylinder"}, "h": 1e-3,
           "material": {"model": "gent", "mu": 1.0, "jm": 10.0},
           "options": {"sweep": {"param": "quad_order", "values": [n]}}}
    # the values as cmd_sweep reads them
    return [float(v) for v in parse_config(cfg).options["sweep"]["values"]]


BUMP = catalog_surface("gaussian_bump")
CYLINDER_JET = evaluate_jet(catalog_surface("cylinder"), np.array([0.05, -0.3]))
BUMP_PROFILE = incompressible_profile(evaluate_jet(BUMP, np.array([0.1, 0.2])))
GENT, NEO, SVK = Gent(mu=1.0, jm=10.0), NeoHookean(mu=1.0), SaintVenantKirchhoff(1.0, 1.0)
CG_CONFIG = {"model": "ciarlet_geymonat", "a": 1.0, "b": 1.0}
FRAME = compute_frame(BUMP, np.array([0.1, 0.2]))
NOT_PD = "matrix is not positive definite"
HALF = "half thickness must be positive and finite, got {:g}"
LAME = "Lame constants must be positive"
CG_AB = "CiarletGeymonat requires a > 0 and b > 0"
LAMBDA1 = "lambda1 = {:.9g} must be positive"
SVK_H = "the SVK profile needs a finite H, got {:g}"

# (id, call, kind, error, message, index, valid): ``valid`` is a value the
# call accepts, or None where the rest of the call rejects every value
CONTRACT = [
    # material constructors
    ("Gent-mu", lambda x: Gent(mu=x, jm=10.0), "positive", ValueError,
     "Gent requires mu > 0 and jm > 0", 0, 1.0),
    ("Gent-jm", lambda x: Gent(mu=1.0, jm=x), "positive", ValueError,
     "Gent requires mu > 0 and jm > 0", 1, 10.0),
    ("NeoHookean-mu", lambda x: NeoHookean(mu=x), "positive", ValueError,
     "NeoHookean requires mu > 0", 0, 1.0),
    ("MooneyRivlin-mu", lambda x: MooneyRivlin(mu=x, chi=0.5), "positive", ValueError,
     "MooneyRivlin requires mu > 0", 0, 1.0),
    ("MooneyRivlin-chi", lambda x: MooneyRivlin(1.0, x), "positive", ValueError,
     "MooneyRivlin requires chi in (0, 1]", None, 0.5),
    ("CiarletGeymonat-a", lambda x: CiarletGeymonat(a=x, b=1.0), "positive",
     ValueError, CG_AB, 0, 1.0),
    ("CiarletGeymonat-b", lambda x: CiarletGeymonat(a=1.0, b=x), "positive",
     ValueError, CG_AB, 0, 1.0),
    ("CiarletGeymonat-a-lane", lambda x: CiarletGeymonat(
        a=_array(1.0, x), b=np.array([1.0, 1.0])), "positive", ValueError, CG_AB, 1, 0.5),
    ("CiarletGeymonat-b-lane", lambda x: CiarletGeymonat(
        a=np.array([1.0, 1.0]), b=_array(x, 1.0)), "positive", ValueError, CG_AB, 0, 0.5),
    # c and d are derived, so a config naming either is rejected
    ("material_from_config-c", lambda x: material_from_config(CG_CONFIG | {"c": x}),
     "positive", ValueError,
     "unknown material parameters ['c'] for 'ciarlet_geymonat'", None, None),
    ("material_from_config-d", lambda x: material_from_config(CG_CONFIG | {"d": x}),
     "positive", ValueError,
     "unknown material parameters ['d'] for 'ciarlet_geymonat'", None, None),
    ("CiarletGeymonat.from_lame-lam", lambda x: CiarletGeymonat.from_lame(x, 1.0),
     "positive", ValueError, LAME, 0, 1.0),
    ("CiarletGeymonat.from_lame-mu", lambda x: CiarletGeymonat.from_lame(1.0, x),
     "positive", ValueError, LAME, 1, 1.0),
    ("SaintVenantKirchhoff-lam", lambda x: SaintVenantKirchhoff(lam=x, mu=1.0),
     "positive", ValueError, "SaintVenantKirchhoff requires lam > 0 and mu > 0", 0, 1.0),
    ("SaintVenantKirchhoff-mu", lambda x: SaintVenantKirchhoff(lam=1.0, mu=x),
     "positive", ValueError, "SaintVenantKirchhoff requires lam > 0 and mu > 0", 1, 1.0),
    ("molecular_params-n_chains", lambda x: molecular_params(x, 10, 1, 1), "positive",
     MaterialDomainError, "chain density, k, and temperature must be positive", 0, 1.0),
    ("molecular_params-n_links", lambda x: molecular_params(1, x, 1, 1), "positive",
     MaterialDomainError, "chain segment count N must exceed 1", 0, 10.0),
    ("molecular_params-k", lambda x: molecular_params(1, 10, x, 1), "positive",
     MaterialDomainError, "chain density, k, and temperature must be positive", 1, 1.0),
    ("molecular_params-temperature", lambda x: molecular_params(1, 10, 1, x),
     "positive", MaterialDomainError,
     "chain density, k, and temperature must be positive", 2, 1.0),
    # matrices: a NaN fails before eigh, which need not converge on one,
    # and before det, which warns of one
    ("principal_energy", lambda x: SVK.principal_energy([1.0, 1.0, x]), "matrix",
     MaterialDomainError, NOT_PD, None, 1.0),
    ("symmetric_sqrt", lambda x: symmetric_sqrt(np.diag([1.0, x, 1.0])), "matrix",
     MaterialDomainError, NOT_PD, None, 1.0),
    ("SaintVenantKirchhoff.energy", lambda x: SVK.energy(np.full((3, 3), x)), "matrix",
     MaterialDomainError, NOT_PD, None, None),
    *((f"{type(m).__name__}.density", lambda x, m=m: m.density(np.diag([1.0, x, 1.0])),
       "matrix", MaterialDomainError, NOT_PD, None, 1.0)
      for m in (GENT, NEO, MooneyRivlin(mu=1.0, chi=0.4),
                CiarletGeymonat.from_lame(1.0, 1.0))),
    ("matrix_invariants", lambda x: matrix_invariants(_diag(x)), "matrix",
     MaterialDomainError, NOT_PD, None, 4.0),
    ("volumetric_energy-NeoHookean", lambda x: volumetric_energy(NEO, C_f=_diag(x)),
     "matrix", MaterialDomainError, NOT_PD, None, 4.0),
    ("volumetric_energy-SaintVenantKirchhoff", lambda x: volumetric_energy(
        SVK, C_f=_diag(x)), "matrix", MaterialDomainError, NOT_PD, None, 4.0),
    ("small_strain_energy", lambda x: small_strain_energy(
        CiarletGeymonat.from_lame(1.0, 1.0), [[x, 0.0, 0.0], [0.0] * 3, [0.0] * 3]),
     "finite", ValueError, "strain E_f must be finite, got {:g}", 0, 0.1),
    # profiles
    ("PolyProfile-alpha", lambda x: PolyProfile(x), "positive", ValueError,
     "profile slope alpha at the mid-plane must be positive", 0, 1.0),
    ("HyperbolicProfile-H", lambda x: HyperbolicProfile(
        H=x, lam=1.0, mu=1.0, h=0.1, alpha_bar=1.0), "finite", ValueError, SVK_H, 0, 0.5),
    ("HyperbolicProfile-lam", lambda x: HyperbolicProfile(
        H=0.5, lam=x, mu=1.0, h=0.1, alpha_bar=1.0), "positive", ValueError, LAME, 0, 1.0),
    ("HyperbolicProfile-mu", lambda x: HyperbolicProfile(
        H=0.5, lam=1.0, mu=x, h=0.1, alpha_bar=1.0), "positive", ValueError, LAME, 1, 1.0),
    ("HyperbolicProfile-h", lambda x: HyperbolicProfile(
        H=-0.5, lam=1.0, mu=1.0, h=x, alpha_bar=1.0), "positive", ValueError, HALF, 0, 0.1),
    ("HyperbolicProfile-alpha_bar", lambda x: HyperbolicProfile(
        H=0.5, lam=1.0, mu=1.0, h=0.1, alpha_bar=x), "positive", ValueError,
     "mid-plane slope 2 H xi must be positive", 0, 1.0),
    # H is rejected before cosh runs, and in every row before the overflow
    # test that H = 1e4 would fail
    ("svk_profile-H", lambda x: svk_profile(x, 1.0, 1.0, 0.1), "finite", ValueError,
     SVK_H, 0, 0.5),
    ("svk_profile-H-lane", lambda x: svk_profile(
        _array(0.1, x, 1e4), 1.0, 1.0, np.array([0.1, 0.2, 0.1])), "finite", ValueError,
     SVK_H, 1, None),
    ("svk_profile-lam", lambda x: svk_profile(0.1, x, 1.0, 0.1), "positive", ValueError,
     LAME, 0, 1.0),
    ("svk_profile-mu", lambda x: svk_profile(0.1, 1.0, x, 0.1), "positive", ValueError,
     LAME, 1, 1.0),
    ("svk_profile-h", lambda x: svk_profile(-0.5, 1.0, 1.0, x), "positive", ValueError,
     HALF, 0, 0.1),
    ("svk_profile-h-lane", lambda x: svk_profile(
        -0.5, 1.0, 1.0, _array(1e-3, 2e-3, x, -1.0)), "positive", ValueError, HALF, 2, None),
    ("deformed_thickness-h", lambda x: deformed_thickness(PolyProfile(1.0), x), "positive",
     ValueError, HALF, 0, 0.1),
    ("SaintVenantKirchhoff.profile-h", lambda x: SVK.profile(CYLINDER_JET, x), "positive",
     ValueError, HALF, 0, 0.1),
    # the oracle
    ("through_thickness_energy_from_jet-h", lambda x: through_thickness_energy_from_jet(
        CYLINDER_JET, NEO, PolyProfile(1.0), x), "positive", ValueError, HALF, 0, 0.1),
    ("through_thickness_energy_from_jet-h-lane", lambda x: through_thickness_energy_from_jet(
        CYLINDER_JET, NEO, PolyProfile(1.0), _array(1e-3, 2e-3, x, -1.0)), "positive",
     ValueError, HALF, 2, None),
    ("integrate_contents-h", lambda x: integrate_contents(
        catalog_surface("cylinder"), GENT, x, grid=(4, 4)), "positive", ValueError,
     HALF, 0, 1e-3),
    ("solve_svk_profile_ode-h", lambda x: solve_svk_profile_ode(-0.5, 1.0, 1.0, x),
     "positive", ValueError, HALF, 0, 0.05),
    ("order_of_residual-h", lambda x: order_of_residual(
        lambda h: h ** 2, [1.0, 0.1, 0.01, x]), "positive", ValueError, HALF, 3, 1e-3),
    ("verify_orientation-h", lambda x: verify_orientation(
        catalog_surface("cylinder"), lambda jet: PolyProfile(1.0), x), "positive",
     ValueError, HALF, 0, 0.1),
    ("parabolic_refine-delta", lambda x: parabolic_refine(lambda t: t * t, 0.5, x),
     "positive", ValueError, "parabolic_refine needs delta > 0, got {:g}", 0, 0.1),
    ("parabolic_refine-x0", lambda x: parabolic_refine(lambda t: t * t, x, 0.1),
     "finite", ValueError, "parabolic_refine needs a finite x0, got {:g}", 0, 0.5),
    ("minimize_scalar-lo", lambda x: minimize_scalar(lambda t: (t - 1.0) ** 2, (x, 2.0)),
     "finite", BracketError, "bracket must have finite ends with lo < hi", None, 0.0),
    ("minimize_scalar-hi", lambda x: minimize_scalar(lambda t: (t - 1.0) ** 2, (0.0, x)),
     "finite", BracketError, "bracket must have finite ends with lo < hi", None, 2.0),
    ("fit_h_powers-h", lambda x: fit_h_powers(
        [x, 3e-3, 1e-2, 3e-2], [1e-3, 3e-3, 1e-2, 3e-2]), "finite", FitError,
     "h samples and energies must be finite", 0, 1e-3),
    ("fit_h_powers-energy", lambda x: fit_h_powers(
        [1e-3, 3e-3, 1e-2, 3e-2], [1e-3, 3e-3, x, 3e-2]), "finite", FitError,
     "h samples and energies must be finite", 2, 1e-2),
    # surfaces and points
    ("ParametricSurface-step", lambda x: ParametricSurface(
        map=lambda p: p, derivative_mode="finite-difference", step=x), "positive",
     ValueError, "step must be positive", 0, 1e-4),
    ("catalog_surface-step", lambda x: catalog_surface("plane", step=x), "positive",
     ValueError, "step must be positive", 0, 1e-4),
    ("uniform_stretch_cone-lambda1", uniform_stretch_cone, "positive", ValueError,
     "cone construction needs lambda1 > 1", 0, 1.5),
    ("evaluate_jets-points", lambda x: evaluate_jets(BUMP, [[x, 0.2]]), "finite",
     DomainError, "point ({:.6g}, 0.2) outside domain of 'gaussian_bump'", 0, 0.1),
    ("grid_contents-points", lambda x: grid_contents(BUMP, GENT, [[0.1, 0.2], [0.3, x]]),
     "finite", DomainError, "point (0.3, {:.6g}) outside domain of 'gaussian_bump'", 1, 0.1),
    ("evaluate_jet-x", lambda x: evaluate_jet(BUMP, x), "point", ValueError,
     "a point must have shape (2,), got {}", None, [0.1, 0.2]),
    ("through_thickness_energy-x", lambda x: through_thickness_energy(
        BUMP, x, GENT, BUMP_PROFILE, 1e-3), "point", ValueError,
     "a point must have shape (2,), got {}", None, [0.1, 0.2]),
    ("exact_invariants-x", lambda x: exact_invariants(BUMP, x, BUMP_PROFILE, 0.0), "point",
     ValueError, "a point must have shape (2,), got {}", None, [0.1, 0.2]),
    ("compute_frame-x", lambda x: compute_frame(BUMP, x), "point", ValueError,
     "a point must have shape (2,), got {}", None, [0.1, 0.2]),
    # the reduced energy and the connectors
    ("cg_small_strain_contents-E", lambda x: cg_small_strain_contents(
        [[0.1, 0.0], [0.0, x]], 0.0, 0.0, 1.0, 1.0), "finite", ValueError,
     "strain E must be finite, got {:g}", 3, 0.0),
    ("eigenframe_coupling-lambda1", lambda x: eigenframe_coupling(1.0, 2.0, x, 0.3),
     "positive", ValueError, LAMBDA1, 0, 1.2),
    ("eigenframe_coupling-phi_angle", lambda x: eigenframe_coupling(1.0, 2.0, 1.2, x),
     "finite", ValueError, "phi_angle = {:.9g} must be finite", 0, 0.3),
    ("coupling_stationary_angles-lambda1", lambda x: coupling_stationary_angles(
        1.0, 2.0, x), "positive", ValueError, LAMBDA1, 0, 1.2),
    ("gauss_uniform_stretch-lambda1", lambda x: gauss_uniform_stretch(FRAME, x),
     "positive", ValueError, LAMBDA1, 0, 1.2),
    # integers
    ("config-grid.nx", _config_grid("nx"), "integer", ConfigError,
     "'grid.nx' must be an integer, got {!r}", None, 4),
    ("config-grid.ny", _config_grid("ny"), "integer", ConfigError,
     "'grid.ny' must be an integer, got {!r}", None, 4),
    ("config-sweep.quad_order", _config_sweep_order, "integer", ConfigError,
     "'sweep.values' must be an integer, got {!r}", None, 8),
    ("through_thickness_energy_from_jet-quad_order",
     lambda n: through_thickness_energy_from_jet(
         CYLINDER_JET, GENT, incompressible_profile(CYLINDER_JET), 1e-3, quad_order=n),
     "integer", ValueError, "quad_order must be an integer, got {!r}", None, 8),
    ("solve_svk_profile_ode-n_steps", lambda n: solve_svk_profile_ode(
        -0.5, 1.0, 1.0, 0.05, n_steps=n), "integer", ValueError,
     "n_steps must be an integer, got {!r}", None, 200),
    ("integrate_contents-grid", lambda n: integrate_contents(
        catalog_surface("cylinder"), GENT, 1e-3, grid=(n, 3)), "integer", ValueError,
     "grid side must be an integer, got {!r}", None, 4),
    ("sample_frame_grid-grid", lambda n: sample_frame_grid(
        catalog_surface("saddle"), (n, 5), ((0.05, 0.4), (0.05, 0.4))), "integer",
     ValueError, "grid side must be an integer, got {!r}", None, 5),
]
ROWS = {row[0]: row[1:] for row in CONTRACT}


@pytest.mark.parametrize("row,value", [
    pytest.param(row, value, id=f"{row}-{_id(value)}")
    for row, (_, kind, *_) in ROWS.items() for value in KINDS[kind][0]])
def test_a_parameter_rejects_each_value_of_its_kind(row, value):
    call, kind, error, message, index, _ = ROWS[row]
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(error) as err:
            call(value)
    assert type(err.value) is error
    assert str(err.value) == message.format(KINDS[kind][1](value))
    assert getattr(err.value, "index", None) == index


@pytest.mark.parametrize("row", [row for row, spec in ROWS.items() if spec[-1] is not None])
def test_a_parameter_accepts_its_valid_value(row):
    # so each rejection comes from the value, and not from the rest of the
    # call; an integer parameter reads a numpy integer as its int
    call, kind, *_, valid = ROWS[row]
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        result = call(valid)
        if kind == "integer":
            assert pickle.dumps(call(np.int64(valid))) == pickle.dumps(result)
