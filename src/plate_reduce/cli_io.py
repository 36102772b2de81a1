"""Config-driven command line: evaluate, verify, and sweep plate energies.

The ``plate-reduce`` entry point reads a strict JSON configuration naming
a catalog surface, a material model, and discretization choices, then
either tabulates per-point energy contents (``evaluate``), runs the
built-in verification matrix against independent numerics (``verify``),
or emits parameter-sweep data for convergence studies (``sweep``).  All
outputs are deterministic flat files: identical configs give
byte-identical ``points.csv``, ``summary.json``, ``verdicts.json``, and
``sweep.csv``.

Exit codes: 0 success, 1 at least one verification check failed (a
check that raises a domain, admissibility or oracle error fails),
2 usage or configuration error, 3 material admissibility failure.
"""

import argparse
import copy
import json
import os
import sys
import warnings
from dataclasses import dataclass, field
from types import SimpleNamespace

import numpy as np

from . import connectors, oracle
from .materials import (CiarletGeymonat, Gent, MaterialDomainError,
                        NeoHookean, StiffeningLimitError, fiber_invariants,
                        finite_number, lame_constants, material_from_config,
                        volumetric_energy)
from .reduced_energy import (cg_contents, cg_small_strain_contents,
                             cg_stretching_closed, coupling_stationary_angles,
                             eigenframe_coupling, gent_contents,
                             GRID_BLOCK, grid_columns, integrate_contents,
                             plate_energy, point_contents)
from .surface_geometry import (DegenerateImmersionError, DomainError,
                               ParametricSurface, appendix_H_K,
                               catalog_surface, evaluate_jet,
                               uniform_stretch_cone, verify_orientation)
from .thickness_profile import (ExactIncompressibleProfile, PolyProfile,
                                ProfileConstraintError, cg_profile,
                                deformed_thickness, incompressible_profile,
                                incompressible_profile_general, svk_profile)

EXIT_OK = 0
EXIT_CHECK_FAILED = 1
EXIT_CONFIG = 2
EXIT_ADMISSIBILITY = 3

# Fitting grids for E(h) = c1 h + c3 h^3.  The bending grid must sit low
# enough that the unmodeled h^5 term stays below the 1e-5 relative
# comparisons on c3; the stretching grid can sit a decade higher.
H_STRETCH = (1e-2, 5e-3, 2e-3, 1e-3, 5e-4)
H_BEND = (1e-3, 5e-4, 2e-4, 1e-4, 5e-5)

CSV_COLUMNS = ("x1", "x2", "trC", "detC", "lambda1", "lambda2",
               "H", "K", "b1", "w_s", "w_b", "formula_id")

# every float in points.csv and sweep.csv, after + 0.0 canonicalizes -0
_FLOAT_FORMAT = "%.17g"

_ADMISSIBILITY_ERRORS = (MaterialDomainError, StiffeningLimitError,
                         ProfileConstraintError)
# errors that fail a built-in check instead of stopping verify; cmd_verify
# adds oracle's own when a check raises, so that evaluate never runs oracle
_CHECK_ERRORS = (DomainError, DegenerateImmersionError) + _ADMISSIBILITY_ERRORS


class ConfigError(ValueError):
    """Invalid or unusable run configuration."""


# ---------------------------------------------------------------------------
# configuration


@dataclass(frozen=True)
class RunConfig:
    """Validated run configuration plus the raw mapping it came from."""

    raw: dict
    surface: ParametricSurface
    material: object
    h: float
    grid: tuple
    derivative_mode: str
    quad_order: int
    fd_step: float
    tolerances: dict
    options: dict


_TOP_KEYS = ("surface", "material", "h", "grid", "derivative_mode",
             "quad_order", "fd_step", "tolerances", "options")
_OPTION_KEYS = ("perturb_beta", "checks", "sweep")
SWEEP_PARAMS = ("h", "Jm", "lambda1", "quad_order")


def _as_number(value, key, positive=True):
    try:
        value = finite_number(value, key)
    except ValueError as err:
        raise ConfigError(str(err)) from None
    if positive and not value > 0.0:
        raise ConfigError(f"'{key}' must be positive, got {value:g}")
    return value


def _as_int(value, key, minimum):
    if isinstance(value, bool) or not isinstance(value, int):
        raise ConfigError(f"'{key}' must be an integer, got {value!r}")
    if value < minimum:
        raise ConfigError(f"'{key}' must be at least {minimum}, got {value}")
    return value


def _reject_unknown_keys(mapping, allowed, where):
    unknown = sorted(set(mapping) - set(allowed))
    if unknown:
        raise ConfigError(f"unknown {where} key '{unknown[0]}'; "
                          f"allowed keys: {', '.join(allowed)}")


def parse_config(data):
    """Validate a config mapping and build the objects it names.

    Unknown keys are rejected at every level so that a misspelled
    tolerance or option cannot silently weaken a verification run.
    """
    if not isinstance(data, dict):
        raise ConfigError("config must be a JSON object")
    _reject_unknown_keys(data, _TOP_KEYS, "config")
    for key in ("surface", "material", "h"):
        if key not in data:
            raise ConfigError(f"config is missing required key '{key}'")

    mode = data.get("derivative_mode", "analytic")
    if mode not in ("analytic", "finite-difference"):
        raise ConfigError("'derivative_mode' must be 'analytic' or "
                          f"'finite-difference', got {mode!r}")
    fd_step = _as_number(data.get("fd_step", 1e-4), "fd_step")

    sspec = data["surface"]
    if not isinstance(sspec, dict) or "name" not in sspec:
        raise ConfigError("'surface' must be a mapping with a 'name' key")
    sspec = dict(sspec)
    name = sspec.pop("name")
    try:
        surface = catalog_surface(name, derivative_mode=mode, step=fd_step,
                                  **sspec)
    except (ValueError, TypeError) as err:
        raise ConfigError(f"surface: {err}") from err

    try:
        material = material_from_config(data["material"])
    except ValueError as err:
        raise ConfigError(f"material: {err}") from err

    h = _as_number(data["h"], "h")

    gspec = data.get("grid", {"nx": 8, "ny": 8})
    if not isinstance(gspec, dict):
        raise ConfigError("'grid' must be a mapping with 'nx' and 'ny'")
    _reject_unknown_keys(gspec, ("nx", "ny"), "grid")
    nx = _as_int(gspec.get("nx", 8), "grid.nx", 2)
    ny = _as_int(gspec.get("ny", 8), "grid.ny", 2)

    quad_order = _as_int(data.get("quad_order", 16), "quad_order", 2)

    tolerances = data.get("tolerances", {})
    if not isinstance(tolerances, dict):
        raise ConfigError("'tolerances' must be a mapping of check id to number")
    for key, value in tolerances.items():
        if key not in CHECK_IDS:
            raise ConfigError(f"unknown tolerance key '{key}'; "
                              f"known checks: {', '.join(CHECK_IDS)}")
        _as_number(value, f"tolerances.{key}")

    options = data.get("options", {})
    if not isinstance(options, dict):
        raise ConfigError("'options' must be a mapping")
    _reject_unknown_keys(options, _OPTION_KEYS, "options")
    if "perturb_beta" in options:
        _as_number(options["perturb_beta"], "options.perturb_beta",
                   positive=False)
    if "checks" in options:
        checks = options["checks"]
        if not isinstance(checks, list) or not all(isinstance(c, str) for c in checks):
            raise ConfigError("'options.checks' must be a list of check ids")
        for cid in checks:
            if cid not in CHECK_IDS:
                raise ConfigError(f"unknown check id '{cid}'; "
                                  f"known checks: {', '.join(CHECK_IDS)}")
    if "sweep" in options:
        swp = options["sweep"]
        if not isinstance(swp, dict):
            raise ConfigError("'options.sweep' must be a mapping")
        _reject_unknown_keys(swp, ("param", "values"), "sweep")
        if "param" not in swp or "values" not in swp:
            raise ConfigError("'options.sweep' needs 'param' and 'values'")
        if not isinstance(swp["param"], str):
            raise ConfigError("'sweep.param' must be a string")
        values = swp["values"]
        if not isinstance(values, list) or not values:
            raise ConfigError("'sweep.values' must be a non-empty list")
        for v in values:
            _as_number(v, "sweep.values")

    return RunConfig(
        raw=copy.deepcopy(data), surface=surface, material=material, h=h,
        grid=(nx, ny), derivative_mode=mode, quad_order=quad_order,
        fd_step=fd_step, tolerances=dict(tolerances), options=copy.deepcopy(options),
    )


def load_config(path):
    """Read and validate a JSON config file."""
    try:
        with open(path, "r") as fh:
            data = json.load(fh)
    except OSError as err:
        raise ConfigError(f"cannot read config {path}: {err}") from err
    except json.JSONDecodeError as err:
        raise ConfigError(f"invalid JSON in {path}: {err}") from err
    return parse_config(data)


# ---------------------------------------------------------------------------
# evaluate


def _evaluation_nodes(surface, nx, ny):
    margin = 3.0 * surface.step if surface.derivative_mode == "finite-difference" else 0.0
    (u0, u1), (v0, v1) = surface.domain
    return (np.linspace(u0 + margin, u1 - margin, nx),
            np.linspace(v0 + margin, v1 - margin, ny))


def _write_json(path, payload):
    # strict JSON: a non-finite value raises before the file is opened
    text = json.dumps(payload, indent=2, sort_keys=True, allow_nan=False)
    with open(path, "w") as fh:
        fh.write(text + "\n")


def _require_finite(name, values):
    # outputs hold finite numbers only; called before any file is opened
    values = np.asarray(values)
    # sorted, so that the value named does not depend on the row order
    bad = np.sort(values[~np.isfinite(values)])
    if bad.size:
        raise ConfigError(f"{name} is {bad[0]}, not a finite number: the "
                          "config leaves the range of double precision")


def _fmt(value):
    # + 0.0 canonicalizes negative zero
    return _FLOAT_FORMAT % (value + 0.0)


def _format_column(name, values):
    """The ``_fmt`` text of each value, formatting each distinct one once;
    a non-finite value is a ConfigError naming the column."""
    distinct, index = np.unique(values + 0.0, return_inverse=True)
    _require_finite(name, distinct)
    text = [_FLOAT_FORMAT % v for v in distinct.tolist()]
    return list(map(text.__getitem__, index.tolist()))


def cmd_evaluate(config, out_dir):
    """Tabulate per-point invariants and energy contents; write totals.

    Emits ``points.csv`` (one row per grid node) and ``summary.json``
    with the integrated totals, the profile coefficients at the domain
    center, and the set of formula ids used.  A non-finite result writes
    no file and is a configuration error.
    """
    xs, ys = _evaluation_nodes(config.surface, *config.grid)
    # x1 outer, x2 inner, as the rows of points.csv
    points = np.column_stack([np.repeat(xs, len(ys)), np.tile(ys, len(xs))])
    try:
        *columns, formula_id = grid_columns(
            config.surface, config.material, points, lambda jets, contents: (
                jets.trC, jets.detC, jets.lambda1, jets.lambda2, jets.H,
                jets.K, jets.b1, contents.stretching, contents.bending,
                contents.formula_id))
    except _ADMISSIBILITY_ERRORS as err:
        x1, x2 = points[err.index]
        print(f"admissibility failure at point ({x1:.6g}, {x2:.6g}): {err}",
              file=sys.stderr)
        return EXIT_ADMISSIBILITY
    columns = [points[:, 0], points[:, 1]] + columns
    for name, values in zip(CSV_COLUMNS, columns):
        _require_finite(name, values)
    n_points, ids = len(points), sorted(set(formula_id))
    try:
        total_s, total_b, energy = integrate_contents(
            config.surface, config.material, config.h, grid=config.grid)
    except _ADMISSIBILITY_ERRORS as err:
        print(f"admissibility failure: {err}", file=sys.stderr)
        return EXIT_ADMISSIBILITY

    (u0, u1), (v0, v1) = config.surface.domain
    center = np.array([0.5 * (u0 + u1), 0.5 * (v0 + v1)])
    profile = config.material.profile(evaluate_jet(config.surface, center),
                                      h=config.h)
    totals = {"stretching_content": float(total_s),
              "bending_content": float(total_b), "energy": float(energy)}
    coefficients = {"alpha": float(profile.alpha),
                    "beta": float(profile.beta), "gamma": float(profile.gamma)}
    for name, value in {**totals, **coefficients}.items():
        _require_finite(name, value)
    summary = {
        "config": config.raw,
        "results": {
            "n_points": n_points,
            "totals": totals,
            "profile_at_center": dict(
                coefficients, kind=profile.kind,
                x1=float(center[0]), x2=float(center[1])),
            "formula_ids": ids,
        },
    }

    os.makedirs(out_dir, exist_ok=True)
    csv_path = os.path.join(out_dir, "points.csv")
    with open(csv_path, "w") as fh:
        fh.write(",".join(CSV_COLUMNS) + "\n")
        for start in range(0, n_points, GRID_BLOCK):
            rows = slice(start, start + GRID_BLOCK)
            text = [_format_column(name, values[rows])
                    for name, values in zip(CSV_COLUMNS, columns)]
            fh.writelines(",".join(row) + "\n"
                          for row in zip(*text, formula_id[rows]))
    _write_json(os.path.join(out_dir, "summary.json"), summary)
    print(f"evaluated {n_points} points on {config.surface.name}; "
          f"energy(h={config.h:g}) = {energy:.17g}")
    print(f"wrote {csv_path} and {os.path.join(out_dir, 'summary.json')}")
    return EXIT_OK


# ---------------------------------------------------------------------------
# verification checks


@dataclass
class VerifyContext:
    """Knobs shared by the verification checks.

    ``perturb_beta`` shifts the quadratic profile coefficient before the
    incompressibility-order check runs; it exists so mutation tests can
    confirm the check actually bites.
    """

    perturb_beta: float = 0.0
    tolerances: dict = field(default_factory=dict)

    def tol(self, check_id, default):
        return float(self.tolerances.get(check_id, default))


def _verdict(check_id, passed, observed, expected, tolerance, detail):
    # a non-finite observed value is written as null and fails the check
    null = lambda v: v if np.isfinite(v) else None
    observed = ({k: null(v) for k, v in observed.items()}
                if isinstance(observed, dict) else null(observed))
    values = observed.values() if isinstance(observed, dict) else (observed,)
    return {"check_id": check_id, "passed": bool(passed) and None not in values,
            "observed": observed, "expected": expected,
            "tolerance": tolerance, "detail": detail}


def _loglog_slope(xs, ys):
    return float(np.polyfit(np.log(np.asarray(xs, dtype=float)),
                            np.log(np.asarray(ys, dtype=float)), 1)[0])


def _check_incompressibility_order(ctx):
    # |det C_f - 1| at x3 = h must shrink like h^3 for the cubic
    # volume-preserving profile on unit-determinant surfaces.
    tol = ctx.tol("incompressibility_order", 0.2)
    hs = np.array([1e-2, 10.0 ** -2.5, 1e-3, 10.0 ** -3.5, 1e-4])
    slopes = {}
    for name, point in (("cylinder", (0.05, -0.3)),
                        ("gaussian_bump", (0.3, 0.2))):
        jet = evaluate_jet(catalog_surface(name), np.array(point))
        base = incompressible_profile(jet)
        profile = PolyProfile(base.alpha, base.beta + ctx.perturb_beta,
                              base.gamma)
        residuals = [abs(fiber_invariants(jet, profile, h)[2] - 1.0) for h in hs]
        slopes[name] = _loglog_slope(hs, residuals)
    passed = all(abs(s - 3.0) <= tol for s in slopes.values())
    detail = ("det C_f residual slopes " +
              ", ".join(f"{s:.3f} ({n})" for n, s in sorted(slopes.items())) +
              f" vs 3 +/- {tol:g}")
    return _verdict("incompressibility_order", passed,
                    {k: float(v) for k, v in slopes.items()}, 3.0, tol, detail)


def _check_gent_bending(ctx):
    # Closed bending content of the stiffening model against the
    # through-thickness quadrature, the stiff limit, and the 1/Jm rate.
    rel_tol = ctx.tol("gent_bending", 1e-5)
    jet = evaluate_jet(catalog_surface("cylinder"), np.array([0.05, -0.3]))
    profile = incompressible_profile(jet)
    target = 4.0 / 3.0

    closed = gent_contents(jet, 1.0, 10.0)
    energies = [oracle.through_thickness_energy_from_jet(
        jet, Gent(mu=1.0, jm=10.0), profile, h) for h in H_BEND]
    fit = oracle.fit_h_powers(H_BEND, energies)
    errs = {
        "oracle_vs_closed_jm10": abs(fit.c3 - closed.bending) / target,
        "closed_jm10_vs_4_3": abs(closed.bending - target) / target,
        "closed_jm1e6_vs_4_3":
            abs(gent_contents(jet, 1.0, 1e6).bending - target) / target,
    }

    bump = evaluate_jet(catalog_surface("gaussian_bump"), np.array([0.3, 0.2]))
    stiff_limit = (16.0 * bump.H ** 2 - bump.K * (bump.trC + 2.0)) / 3.0
    jms = (1e3, 1e4, 1e5)
    gaps = [abs(gent_contents(bump, 1.0, jm).bending - stiff_limit)
            for jm in jms]
    rate = _loglog_slope(jms, gaps)

    passed = max(errs.values()) <= rel_tol and abs(rate + 1.0) <= 0.05
    detail = (f"max rel err {max(errs.values()):.2e} vs 4/3 "
              f"(tol {rel_tol:g}); extensibility-gap rate {rate:.4f} vs -1")
    observed = dict({k: float(v) for k, v in errs.items()},
                    jm_gap_rate=float(rate))
    return _verdict("gent_bending", passed, observed, target, rel_tol, detail)


def _check_gent_stretching(ctx):
    # Closed stretching content on a uniform unimodular stretch against
    # the through-thickness quadrature's h-linear coefficient.
    rel_tol = ctx.tol("gent_stretching", 1e-6)
    jet = evaluate_jet(catalog_surface("uniform_stretch"),
                       np.array([0.1, 0.2]))
    closed = gent_contents(jet, 1.0, 10.0)
    target = -10.0 * np.log(0.775)
    energies = [oracle.through_thickness_energy_from_jet(
        jet, Gent(mu=1.0, jm=10.0), incompressible_profile(jet), h)
        for h in H_STRETCH]
    fit = oracle.fit_h_powers(H_STRETCH, energies)
    errs = {
        "oracle_vs_closed": abs(fit.c1 - closed.stretching) / target,
        "closed_vs_log_form": abs(closed.stretching - target) / target,
    }
    passed = max(errs.values()) <= rel_tol
    detail = (f"stretching content rel err {max(errs.values()):.2e} "
              f"vs -10 ln 0.775 (tol {rel_tol:g})")
    return _verdict("gent_stretching", passed,
                    {k: float(v) for k, v in errs.items()},
                    float(target), rel_tol, detail)


def _check_theorema_egregium(ctx):
    # Gauss curvature recovered from connector fields alone: the curl
    # route on a dense patch, and the reduced uniform-stretch identity
    # on cones where it must vanish by cancellation.
    rel_tol = ctx.tol("theorema_egregium", 1e-3)
    cone_tol = 1e-6
    surface = catalog_surface("gaussian_bump")
    point = (0.3, 0.2)
    half = 0.04
    grid = connectors.sample_frame_grid(
        surface, grid=(41, 41), bounds=((point[0] - half, point[0] + half),
                                        (point[1] - half, point[1] + half)))
    jet = evaluate_jet(surface, np.array(point))
    k_curl = connectors.gauss_from_connectors(grid, jet=jet)
    rel_err = abs(k_curl - jet.K) / abs(jet.K)

    cone_errs = {}
    for lam1 in (2.0, 1.5):
        cone = uniform_stretch_cone(lam1)
        x = np.array([1.0, 0.0])
        frame = connectors.compute_frame(cone, x, c12_step=5e-5)
        k_red = connectors.gauss_uniform_stretch(frame, lam1)
        cone_errs[f"lambda1_{lam1:g}"] = abs(k_red - evaluate_jet(cone, x).K)

    passed = rel_err <= rel_tol and max(cone_errs.values()) <= cone_tol
    detail = (f"curl route rel err {rel_err:.2e} (tol {rel_tol:g}); "
              f"cone identity err {max(cone_errs.values()):.2e} (tol {cone_tol:g})")
    observed = dict({k: float(v) for k, v in cone_errs.items()},
                    curl_rel_err=float(rel_err), curl_value=float(k_curl),
                    jet_value=float(jet.K))
    return _verdict("theorema_egregium", passed, observed, float(jet.K),
                    rel_tol, detail)


_CODAZZI_CENTERS = (("plane", (0.1, -0.1)), ("uniform_stretch", (0.1, 0.2)),
                    ("cylinder", (0.05, -0.3)), ("sphere_cap", (0.3, -0.2)),
                    ("saddle", (0.2, 0.15)), ("gaussian_bump", (0.3, 0.2)))


def _check_codazzi_residuals(ctx):
    # The three curl compatibility identities of the connector fields
    # plus curl-freeness of the metric connector, on every catalog
    # surface.  Grid spacing 3e-4 keeps the second-order stencil error
    # of each residual under the tolerance.
    tol = ctx.tol("codazzi_residuals", 1e-4)
    half = 1.5e-3
    worst = {}
    for name, (cx, cy) in _CODAZZI_CENTERS:
        surface = catalog_surface(name)
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", RuntimeWarning)
            grid = connectors.sample_frame_grid(
                surface, grid=(11, 11), bounds=((cx - half, cx + half),
                                                (cy - half, cy + half)))
            report = connectors.check_codazzi(grid)
        worst[name] = float(report.max_residual())
    passed = max(worst.values()) <= tol
    detail = (f"max compatibility residual {max(worst.values()):.2e} "
              f"over {len(worst)} surfaces (tol {tol:g})")
    return _verdict("codazzi_residuals", passed, worst, 0.0, tol, detail)


def _check_cg_profile_minimality(ctx):
    # The closed-form profile coefficients must sit at the minima of the
    # fiber energy: alpha for the h-term, beta for the h^3-term.  Probed
    # on 100 random (a, b, trC, detC, H, K, b1) tuples, searched as lanes
    # with derivative-free minimization, then the closed h^3 content is
    # checked against quadrature on two curved surfaces.
    tol = ctx.tol("cg_profile_minimality", 1e-8)
    rel_tol = 1e-5
    a, b, trC, detC, H, K, b1 = np.random.default_rng(170831).uniform(
        (0.2, 0.2, 1.5, 0.4, -1.5, -2.0, -3.0), (3.0, 3.0, 5.0, 3.0, 1.5, 2.0, 3.0),
        size=(100, 7)).T
    material = CiarletGeymonat(a=a, b=b)
    jet = SimpleNamespace(trC=trC, detC=detC, H=H, K=K, b1=b1)
    profile = cg_profile(jet, material)

    def f_alpha(alpha):
        a2 = alpha * alpha
        return volumetric_energy(material, trC + a2, detC + a2 * trC, a2 * detC)

    def f_beta(beta):
        # half the second x3-derivative of the fiber energy, by a 6th-order
        # stencil so its truncation cannot shift the beta minimizer above
        # the comparison tolerance; its seven offsets make one (7, 100) call
        trial, delta, acc = PolyProfile(profile.alpha, beta, 0.0), 5e-3, 0.0
        rows = volumetric_energy(material, *fiber_invariants(
            jet, trial, np.arange(-3.0, 4.0)[:, None] * delta))
        for w, row in zip((2.0, -27.0, 270.0, -490.0, 270.0, -27.0, 2.0), rows):
            acc += w * row
        return acc / (180.0 * delta * delta) / 2.0

    alpha_hat, _ = oracle.minimize_scalar(f_alpha, (np.full(100, 0.3), 1.8), tol=1e-10)
    alpha_hat = oracle.parabolic_refine(f_alpha, alpha_hat, 1e-4)
    worst_alpha = np.max(np.abs(alpha_hat - profile.alpha))

    beta_hat = oracle.parabolic_refine(f_beta, np.zeros(100), 1.0)
    beta_hat, _ = oracle.minimize_scalar(
        f_beta, (beta_hat - 0.5, beta_hat + 0.5), tol=1e-10)
    beta_hat = oracle.parabolic_refine(f_beta, beta_hat, 1e-2)
    worst_beta = np.max(np.abs(beta_hat - profile.beta))

    material = CiarletGeymonat.from_lame(1.0, 1.0)
    rel_errs = {}
    for name, point in (("sphere_cap", (0.25, -0.15)),
                        ("gaussian_bump", (0.3, 0.2))):
        jet = evaluate_jet(catalog_surface(name), np.array(point))
        closed = cg_contents(jet, material)
        energies = [oracle.through_thickness_energy_from_jet(
            jet, material, cg_profile(jet, material), h) for h in H_BEND]
        fit = oracle.fit_h_powers(H_BEND, energies)
        rel_errs[name] = abs(fit.c3 - closed.bending) / abs(closed.bending)

    passed = (max(worst_alpha, worst_beta) <= tol
              and max(rel_errs.values()) <= rel_tol)
    detail = (f"coefficient gaps alpha {worst_alpha:.2e}, beta {worst_beta:.2e} "
              f"(tol {tol:g}); h^3 content rel err {max(rel_errs.values()):.2e} "
              f"(tol {rel_tol:g})")
    observed = dict({k: float(v) for k, v in rel_errs.items()},
                    alpha_gap=float(worst_alpha), beta_gap=float(worst_beta))
    return _verdict("cg_profile_minimality", passed, observed, 0.0, tol, detail)


def _check_cg_small_strain(ctx):
    # The stretching content minus its small-strain quadratic form must
    # shrink like strain^3, in 2D (membrane form) and 3D (bulk form).
    tol = ctx.tol("cg_small_strain", 0.2)
    lam, mu = 1.3, 0.7
    material = CiarletGeymonat.from_lame(lam, mu)
    ts = np.array([1e-1, 10.0 ** -1.5, 1e-2, 10.0 ** -2.5])

    E0 = np.array([[0.8, 0.3], [0.3, -0.5]])
    rem2 = []
    for t in ts:
        C = np.eye(2) + 2.0 * t * E0
        jet = SimpleNamespace(trC=float(np.trace(C)),
                              detC=float(np.linalg.det(C)))
        w1 = cg_stretching_closed(jet, material)
        quad = cg_small_strain_contents(t * E0, 0.0, 0.0, lam, mu).stretching
        rem2.append(abs(w1 - quad))
    slope2 = _loglog_slope(ts, rem2)

    G = np.array([[0.8, 0.3, 0.1], [0.3, -0.5, 0.2], [0.1, 0.2, 0.4]])
    rem3 = []
    for t in ts:
        C_f = np.eye(3) + 2.0 * t * G
        i1 = float(np.trace(C_f))
        i2 = 0.5 * (i1 * i1 - float(np.trace(C_f @ C_f)))
        i3 = float(np.linalg.det(C_f))
        W = volumetric_energy(material, i1, i2, i3)
        quad = (0.5 * lam * np.trace(t * G) ** 2
                + mu * np.trace((t * G) @ (t * G)))
        rem3.append(abs(W - quad))
    slope3 = _loglog_slope(ts, rem3)

    passed = abs(slope2 - 3.0) <= tol and abs(slope3 - 3.0) <= tol
    detail = (f"remainder orders {slope2:.3f} (membrane), {slope3:.3f} (bulk) "
              f"vs 3 +/- {tol:g}")
    return _verdict("cg_small_strain", passed,
                    {"membrane_slope": float(slope2),
                     "bulk_slope": float(slope3)}, 3.0, tol, detail)


def _check_svk_profile(ctx):
    # The shooting solution of the stationarity ODE must match the
    # closed hyperbolic profile, reproduce the h^3 energy content, and
    # the mid-plane slope must have the predicted h^2 defect.
    sup_tol = ctx.tol("svk_profile", 1e-6)
    lam = mu = 1.0
    curvature = -0.5

    solution = oracle.solve_svk_profile_ode(curvature, lam, mu, 0.05, n_steps=400)
    closed = svk_profile(curvature, lam, mu, 0.05)
    sup_err = float(np.max(np.abs(
        solution.phi - np.array([closed.phi(t) for t in solution.x3]))))

    hs = (2e-3, 1e-3, 5e-4, 2e-4, 1e-4)
    energies = [oracle.solve_svk_profile_ode(curvature, lam, mu, h,
                                             n_steps=200).energy for h in hs]
    fit = oracle.fit_h_powers(hs, energies)
    target = 8.0 / 9.0
    content_rel = abs(fit.c3 - target) / target

    alpha_bar = svk_profile(curvature, lam, mu, 1e-3).alpha_bar
    slope_coef = (1.0 - alpha_bar) / 1e-6
    coef_rel = abs(slope_coef - 4.0 / 9.0) / (4.0 / 9.0)

    passed = (sup_err <= sup_tol and content_rel <= 1e-5 and coef_rel <= 1e-4)
    detail = (f"profile sup err {sup_err:.2e} (tol {sup_tol:g}); "
              f"h^3 content rel err {content_rel:.2e}; "
              f"slope-defect coefficient rel err {coef_rel:.2e}")
    observed = {"profile_sup_err": sup_err,
                "content_rel_err": float(content_rel),
                "slope_defect_rel_err": float(coef_rel),
                "fit_c3": float(fit.c3)}
    return _verdict("svk_profile", passed, observed, target, sup_tol, detail)


def _check_thickness_formula(ctx):
    # Deformed thickness of the exactly volume-preserving profile minus
    # 2h + (2/3)(6H^2 - K) h^3 must vanish at fifth order.
    tol = ctx.tol("thickness_formula", 0.3)
    hs = np.array([0.25, 0.15, 0.08, 0.04, 0.02])
    slopes = {}
    for name, point in (("cylinder", (0.05, -0.3)),
                        ("gaussian_bump", (0.3, 0.2))):
        jet = evaluate_jet(catalog_surface(name), np.array(point))
        profile = ExactIncompressibleProfile(jet)
        coef = 2.0 * (6.0 * jet.H ** 2 - jet.K) / 3.0
        rem = [abs(deformed_thickness(profile, h) - (2.0 * h + coef * h ** 3))
               for h in hs]
        slopes[name] = _loglog_slope(hs, rem)
    passed = all(abs(s - 5.0) <= tol for s in slopes.values())
    detail = ("thickness remainder orders " +
              ", ".join(f"{s:.3f} ({n})" for n, s in sorted(slopes.items())) +
              f" vs 5 +/- {tol:g}")
    return _verdict("thickness_formula", passed,
                    {k: float(v) for k, v in slopes.items()}, 5.0, tol, detail)


def _linspace_argmin(f, stop, num, block=8192):
    """The first point of np.linspace(0, stop, num) where ``f`` is least;
    ``f`` sees the grid as bit-identical blocks of at most ``block`` points."""
    step = stop / (num - 1)
    best, arg = np.inf, 0.0
    for i0 in range(0, num, block):
        phis = np.arange(i0, min(i0 + block, num), dtype=float) * step
        if i0 + block >= num:
            phis[-1] = stop
        values = f(phis)
        i = int(np.argmin(values))
        if values[i] < best:  # strict: the first minimum wins, as in np.argmin
            best, arg = values[i], phis[i]
    return arg


def _check_eigenframe_coupling(ctx):
    # The quartic angular coupling must vanish exactly at the interior
    # stationary angle when the quadratic factor changes sign, and be
    # constant when the two principal factors coincide.
    tol = ctx.tol("eigenframe_coupling", 1e-6)
    k1, k2 = 1.0, 2.0
    lambda1 = np.sqrt(1.5)

    n_scan = 200001
    scan_argmin = _linspace_argmin(
        lambda phis: eigenframe_coupling(k1, k2, lambda1, phis),
        0.5 * np.pi, n_scan)

    # the quadratic factor A cos^2 + B sin^2 is monotone in sin^2, so its
    # sign change brackets the zero of the quartic
    A = k1 * lambda1 ** 2 + k2 / lambda1 ** 2 - (k1 + k2)
    B = k2 * lambda1 ** 2 + k1 / lambda1 ** 2 - (k1 + k2)
    g = lambda p: A * np.cos(p) ** 2 + B * np.sin(p) ** 2
    # plain bisection down to adjacent floats: g(0) = A < 0 < B = g(pi/2)
    # here, and the root taken is the first float where g is positive
    lo, phi_star = 0.0, 0.5 * np.pi
    while lo < 0.5 * (lo + phi_star) < phi_star:
        mid = 0.5 * (lo + phi_star)
        if g(mid) > 0.0:
            phi_star = mid
        else:
            lo = mid

    tan2 = np.tan(phi_star) ** 2
    tan2_err = abs(tan2 - 0.25)
    w_star = eigenframe_coupling(k1, k2, lambda1, phi_star)
    angles = coupling_stationary_angles(k1, k2, lambda1)
    interior = [p for p in angles if 1e-6 < p < 0.5 * np.pi - 1e-6]
    angle_err = abs(interior[0] - phi_star) if interior else np.inf
    scan_err = abs(scan_argmin - phi_star)

    flat_phis = np.linspace(0.0, 0.5 * np.pi, 1001)
    flat_const = eigenframe_coupling(1.3, 1.3, 1.7, flat_phis)
    flat_iso = eigenframe_coupling(k1, k2, 1.0, flat_phis)
    const_span = np.max(flat_const) - np.min(flat_const)
    iso_span = np.max(flat_iso) - np.min(flat_iso)

    passed = (tan2_err <= tol and w_star <= 1e-12 and angle_err <= 1e-9
              and scan_err <= 2.0 * (0.5 * np.pi / (n_scan - 1))
              and const_span <= 1e-12 and iso_span <= 1e-12)
    detail = (f"tan^2 gap {tan2_err:.2e} (tol {tol:g}); coupling at the "
              f"zero {w_star:.2e}; constant-case span {max(const_span, iso_span):.2e}")
    observed = {"tan_squared": float(tan2), "coupling_at_zero": float(w_star),
                "stationary_angle_gap": float(angle_err),
                "constant_span": float(const_span),
                "isotropic_span": float(iso_span)}
    return _verdict("eigenframe_coupling", passed, observed, 0.25, tol, detail)


_CROSS_PATH_POINTS = (
    ("plane", ((0.1, -0.2), (0.3, 0.1), (-0.25, 0.35))),
    ("uniform_stretch", ((0.1, 0.2), (-0.3, -0.1), (0.25, -0.35))),
    ("cylinder", ((0.05, -0.3), (-0.2, 0.1), (0.35, 0.25))),
    ("gaussian_bump", ((0.3, 0.2), (0.1, -0.4), (-0.35, 0.15))),
)


def _check_cross_path_curvatures(ctx):
    # Curvatures from raw Cartesian second derivatives against the
    # shape-operator route, on every unit-determinant catalog surface.
    tol = ctx.tol("cross_path_curvatures", 1e-8)
    worst = 0.0
    n_points = 0
    for name, points in _CROSS_PATH_POINTS:
        surface = catalog_surface(name)
        for point in points:
            jet = evaluate_jet(surface, np.array(point))
            h_alt, k_alt = appendix_H_K(jet)
            worst = max(worst, abs(h_alt - jet.H), abs(k_alt - jet.K))
            n_points += 1
    passed = worst <= tol
    detail = (f"max |H, K| gap {worst:.2e} over {n_points} points "
              f"(tol {tol:g})")
    return _verdict("cross_path_curvatures", passed, float(worst), 0.0, tol,
                    detail)


def _check_orientation(ctx):
    # Fiber Jacobian positivity at working thickness on all catalog
    # surfaces, and loss of orientation at an excessive thickness.
    reports = {name: verify_orientation(catalog_surface(name),
                                        incompressible_profile_general, 0.01)
               for name, _ in _CODAZZI_CENTERS}
    thick = verify_orientation(catalog_surface("cylinder"),
                               incompressible_profile_general, 0.9)

    passed = all(r.passed for r in reports.values()) and not thick.passed
    min_det = min(r.min_det_F for r in reports.values())
    detail = (f"min fiber Jacobian {min_det:.6f} at h=0.01 over "
              f"{len(reports)} surfaces; h=0.9 flips orientation: "
              f"{not thick.passed}")
    observed = dict({k: float(r.min_det_F) for k, r in reports.items()},
                    thick_min_det=float(thick.min_det_F))
    return _verdict("orientation", passed, observed, 0.0, 0.0, detail)


CHECKS = (
    ("incompressibility_order", _check_incompressibility_order),
    ("gent_bending", _check_gent_bending),
    ("gent_stretching", _check_gent_stretching),
    ("theorema_egregium", _check_theorema_egregium),
    ("codazzi_residuals", _check_codazzi_residuals),
    ("cg_profile_minimality", _check_cg_profile_minimality),
    ("cg_small_strain", _check_cg_small_strain),
    ("svk_profile", _check_svk_profile),
    ("thickness_formula", _check_thickness_formula),
    ("eigenframe_coupling", _check_eigenframe_coupling),
    ("cross_path_curvatures", _check_cross_path_curvatures),
    ("orientation", _check_orientation),
)
CHECK_IDS = tuple(cid for cid, _ in CHECKS)


def cmd_verify(config, out_dir, run_all=False):
    """Run verification checks; write verdicts.json.

    With ``run_all`` (or no check selection in the config) every
    built-in check runs.  A check that raises a domain, admissibility or
    oracle error fails, with the error as its detail and null values.
    Returns 0 only if all selected checks pass.
    """
    ctx = VerifyContext()
    selection = CHECK_IDS
    if config is not None:
        ctx = VerifyContext(
            perturb_beta=float(config.options.get("perturb_beta", 0.0)),
            tolerances=config.tolerances)
        if not run_all and "checks" in config.options:
            selection = tuple(config.options["checks"])
    if not selection:
        print("empty check selection: nothing to verify", file=sys.stderr)
        return EXIT_CONFIG

    table = dict(CHECKS)
    verdicts = []
    n_passed = 0
    for cid in selection:
        try:
            verdict = table[cid](ctx)
        except (*_CHECK_ERRORS, oracle.FitError, oracle.BracketError,
                oracle.ResolutionError) as err:
            verdict = _verdict(cid, False, np.nan, None, None,
                               f"check raised {type(err).__name__}: {err}")
        verdicts.append(verdict)
        n_passed += int(verdict["passed"])
        print(f"{'PASS' if verdict['passed'] else 'FAIL'} {cid}: "
              f"{verdict['detail']}")

    os.makedirs(out_dir, exist_ok=True)
    report = {"checks": verdicts, "n_checks": len(verdicts),
              "n_passed": n_passed, "all_passed": n_passed == len(verdicts)}
    _write_json(os.path.join(out_dir, "verdicts.json"), report)
    print(f"{n_passed}/{len(verdicts)} checks passed")
    return EXIT_OK if n_passed == len(verdicts) else EXIT_CHECK_FAILED


# ---------------------------------------------------------------------------
# sweep


def _sweep_point(surface):
    # off-center so symmetry points (where different models can agree
    # identically) do not collapse the observables to zero
    (u0, u1), (v0, v1) = surface.domain
    return np.array([0.5 * (u0 + u1) + 0.2 * (u1 - u0),
                     0.5 * (v0 + v1) + 0.2 * (v1 - v0)])


def cmd_sweep(config, out_dir):
    """Emit long-format sweep data for one parameter; write sweep.csv.

    A non-finite result writes no file and is a configuration error.
    """
    sweep = config.options.get("sweep")
    if sweep is None:
        print("sweep command needs options.sweep = {param, values} in the "
              "config", file=sys.stderr)
        return EXIT_CONFIG
    param = sweep["param"]
    values = [float(v) for v in sweep["values"]]
    jet = evaluate_jet(config.surface, _sweep_point(config.surface))
    rows = []

    if param == "h":
        profile = incompressible_profile_general(jet)
        # the contents do not depend on h: integrate once
        total_s, total_b, _ = integrate_contents(
            config.surface, config.material, values[0], grid=config.grid)
        for h in values:
            rows.append((param, h, "detcf_residual",
                         abs(fiber_invariants(jet, profile, h)[2] - 1.0)))
            rows.append((param, h, "total_energy",
                         plate_energy(h, total_s, total_b)))
    elif param == "Jm":
        if not isinstance(config.material, Gent):
            print("Jm sweep requires a gent material in the config",
                  file=sys.stderr)
            return EXIT_CONFIG
        mu = config.material.mu
        base = point_contents(jet, NeoHookean(mu=mu))
        for jm in values:
            contents = point_contents(jet, Gent(mu=mu, jm=jm))
            rows.append((param, jm, "stretching_gap",
                         abs(contents.stretching - base.stretching)))
            rows.append((param, jm, "bending_gap",
                         abs(contents.bending - base.bending)))
    elif param == "lambda1":
        if not isinstance(config.material, CiarletGeymonat):
            print("lambda1 sweep requires a ciarlet_geymonat material in the "
                  "config", file=sys.stderr)
            return EXIT_CONFIG
        lam, mu = lame_constants(config.material)
        for l1 in values:
            if l1 <= 0:
                print(f"lambda1 sweep values must be positive, got {l1:g}",
                      file=sys.stderr)
                return EXIT_CONFIG
            try:
                C = np.diag([l1 ** 2, 1.0 / l1 ** 2])
            except (OverflowError, ZeroDivisionError):  # l1**2 out of range
                raise OverflowError(f"the swept lambda1 = {l1:g}") from None
            strain = 0.5 * (C - np.eye(2))
            synthetic = SimpleNamespace(trC=float(np.trace(C)), detC=1.0)
            w1 = cg_stretching_closed(synthetic, config.material)
            quad = cg_small_strain_contents(strain, 0.0, 0.0, lam, mu).stretching
            rows.append((param, l1, "strain_norm",
                         float(np.linalg.norm(strain))))
            rows.append((param, l1, "w1_quadratic_remainder", abs(w1 - quad)))
    elif param == "quad_order":
        orders = []
        for v in values:
            if v != int(v) or int(v) < 2:
                print(f"quad_order sweep values must be integers >= 2, got {v:g}",
                      file=sys.stderr)
                return EXIT_CONFIG
            orders.append(int(v))
        reference = integrate_contents(config.surface, config.material,
                                       config.h, grid=(max(orders), max(orders)))[2]
        for q in orders:
            total = integrate_contents(config.surface, config.material,
                                       config.h, grid=(q, q))[2]
            rows.append((param, float(q), "total_energy", total))
            rows.append((param, float(q), "quadrature_delta",
                         abs(total - reference)))
    else:
        print(f"unknown sweep parameter '{param}'; expected one of "
              f"{', '.join(SWEEP_PARAMS)}", file=sys.stderr)
        return EXIT_CONFIG

    for name, value, observable, result in rows:
        _require_finite(f"{observable} at {name} = {value:g}", result)
    os.makedirs(out_dir, exist_ok=True)
    csv_path = os.path.join(out_dir, "sweep.csv")
    with open(csv_path, "w") as fh:
        fh.write("param,value,observable,result\n")
        for name, value, observable, result in rows:
            fh.write(f"{name},{_fmt(value)},{observable},{_fmt(result)}\n")
    print(f"wrote {len(rows)} sweep rows to {csv_path}")
    return EXIT_OK


# ---------------------------------------------------------------------------
# entry point


def main(argv=None):
    """Parse arguments and dispatch; returns the process exit code."""
    parser = argparse.ArgumentParser(
        prog="plate-reduce",
        description="Evaluate, verify, and sweep reduced plate energies "
                    "of thin hyperelastic sheets.")
    sub = parser.add_subparsers(dest="command", required=True)
    descriptions = {
        "evaluate": "tabulate per-point energy contents and totals",
        "verify": "run built-in formula checks against independent numerics",
        "sweep": "emit long-format data over one swept parameter",
    }
    for name, text in descriptions.items():
        cmd = sub.add_parser(name, help=text)
        cmd.add_argument("--config", help="path to a JSON run configuration")
        cmd.add_argument("--out", default=".", help="output directory")
        if name == "verify":
            cmd.add_argument("--all", action="store_true",
                             help="run every built-in check")
    args = parser.parse_args(argv)

    # warnings are shown once the run is over, unless a config error ends
    # it: its line is then the only line on stderr
    with warnings.catch_warnings(record=True) as caught:
        try:
            code = _run(args)
        except (ConfigError, DomainError, DegenerateImmersionError) as err:
            print(f"config error: {err}", file=sys.stderr)
            return EXIT_CONFIG
        except OverflowError as err:
            # a float power (the energy's h**3) raises instead of giving inf
            print(f"config error: a result overflows double precision: {err}",
                  file=sys.stderr)
            return EXIT_CONFIG
    for w in caught:
        warnings.showwarning(w.message, w.category, w.filename, w.lineno)
    return code


def _run(args):
    if args.command == "verify":
        if args.config is None and not args.all:
            print("verify needs --config or --all", file=sys.stderr)
            return EXIT_CONFIG
        config = load_config(args.config) if args.config else None
        return cmd_verify(config, args.out, run_all=args.all)
    if args.config is None:
        print(f"{args.command} needs --config", file=sys.stderr)
        return EXIT_CONFIG
    command = cmd_evaluate if args.command == "evaluate" else cmd_sweep
    return command(load_config(args.config), args.out)


if __name__ == "__main__":
    sys.exit(main())
