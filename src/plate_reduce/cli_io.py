"""Config-driven command line: evaluate, verify, and sweep plate energies.

The ``plate-reduce`` entry point reads a strict JSON configuration naming
a catalog surface, a material model, and discretization choices, then
either tabulates per-point energy contents (``evaluate``), runs the
built-in verification matrix against independent numerics (``verify``),
or emits parameter-sweep data for convergence studies (``sweep``).  All
outputs are deterministic flat files: identical configs give
byte-identical ``points.csv``, ``summary.json``, ``verdicts.json``, and
``sweep.csv``.

The checks themselves live in ``checks``, which only ``verify`` (and a
config that names a check id) imports.

Exit codes: 0 success, 1 at least one verification check failed (a
check that raises fails), 2 usage or configuration error, 3 material
admissibility failure.  Only ``main`` returns 2 or 3, after printing one
``config error:`` or ``admissibility failure`` line; a usage error is a
config error.
"""

import argparse
import copy
import json
import os
import sys
import warnings
from dataclasses import dataclass
from types import SimpleNamespace

# Every BLAS/LAPACK call here works on stacks of 3x3 matrices or designs of a
# few columns, too small to split across threads, and OpenBLAS's idle worker
# spins while the process starts.  So one BLAS thread unless the caller set
# it; once numpy is loaded (pytest, a notebook) the pool exists already, and
# the environment its child processes inherit is left alone.
if "numpy" not in sys.modules:
    os.environ.setdefault("OPENBLAS_NUM_THREADS", "1")

import numpy as np

from .materials import (CiarletGeymonat, Gent, MaterialDomainError,
                        NeoHookean, StiffeningLimitError, fiber_invariants,
                        lame_constants, material_from_config)
from .reduced_energy import (cg_small_strain_contents, cg_stretching_closed,
                             GRID_BLOCK, grid_columns, integrate_contents,
                             plate_energy, point_contents)
from .surface_geometry import (DegenerateImmersionError, DomainError,
                               ParametricSurface, _lattice, catalog_surface,
                               evaluate_jet, finite_number, integer, positive)
from .thickness_profile import (ProfileConstraintError,
                                incompressible_profile_general)

EXIT_OK = 0
EXIT_CHECK_FAILED = 1
EXIT_CONFIG = 2
EXIT_ADMISSIBILITY = 3

CSV_COLUMNS = ("x1", "x2", "trC", "detC", "lambda1", "lambda2",
               "H", "K", "b1", "w_s", "w_b", "formula_id")

# every float in points.csv and sweep.csv, after + 0.0 canonicalizes -0
_FLOAT_FORMAT = "%.17g"

_ADMISSIBILITY_ERRORS = (MaterialDomainError, StiffeningLimitError,
                         ProfileConstraintError)


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
    tolerances: dict
    options: dict


_TOP_KEYS = ("surface", "material", "h", "grid", "derivative_mode",
             "fd_step", "tolerances", "options")
_OPTION_KEYS = ("checks", "sweep")
SWEEP_PARAMS = ("h", "Jm", "lambda1", "quad_order")
_SWEEP_MODELS = {"Jm": Gent, "lambda1": CiarletGeymonat}
# the largest grid side or quad_order: an n-point Gauss rule is an n x n
# eigenproblem (0.16 s at 1024, 1.1 s at 2048), and 1e5 would need 80 GB
MAX_SIZE = 1024


def _as_number(value, key):
    return positive(finite_number(value, key, ConfigError),
                    f"'{key}' must be positive, got {{:g}}", ConfigError)


def _reject_unknown_keys(mapping, allowed, where):
    unknown = sorted(set(mapping) - set(allowed))
    if unknown:
        raise ConfigError(f"unknown {where} key '{unknown[0]}'; "
                          f"allowed keys: {', '.join(allowed)}")


def _require_check_id(cid, message):
    # the check table is imported only for a config that names a check;
    # returns the check's default tolerance, None if it takes none
    from .checks import _DEFAULT_TOL
    if cid not in _DEFAULT_TOL:
        raise ConfigError(f"{message}; known checks: {', '.join(_DEFAULT_TOL)}")
    return _DEFAULT_TOL[cid]


def parse_config(data):
    """Validate a config mapping and build the objects it names.

    Unknown keys are rejected at every level so that a misspelled
    tolerance or option cannot silently weaken a verification run.  This
    is the only place a config is validated: ``options.sweep`` is checked
    here, against the material too, for every command.
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
    nx, ny = (integer(gspec.get(key, 8), f"'grid.{key}'", 2, MAX_SIZE, ConfigError)
              for key in ("nx", "ny"))

    tolerances = data.get("tolerances", {})
    if not isinstance(tolerances, dict):
        raise ConfigError("'tolerances' must be a mapping of check id to number")
    for key, value in tolerances.items():
        if _require_check_id(key, f"unknown tolerance key '{key}'") is None:
            raise ConfigError(f"the {key} check takes no tolerance")
        _as_number(value, f"tolerances.{key}")

    options = data.get("options", {})
    if not isinstance(options, dict):
        raise ConfigError("'options' must be a mapping")
    _reject_unknown_keys(options, _OPTION_KEYS, "options")
    if "checks" in options:
        checks = options["checks"]
        if (not isinstance(checks, list) or not all(isinstance(c, str) for c in checks)
                or len(set(checks)) < len(checks)):
            raise ConfigError("'options.checks' must be a list of check ids, each once")
        for cid in checks:
            _require_check_id(cid, f"unknown check id '{cid}'")
    if "sweep" in options:
        swp = options["sweep"]
        if not isinstance(swp, dict):
            raise ConfigError("'options.sweep' must be a mapping")
        _reject_unknown_keys(swp, ("param", "values"), "sweep")
        if "param" not in swp or "values" not in swp:
            raise ConfigError("'options.sweep' needs 'param' and 'values'")
        param, values = swp["param"], swp["values"]
        if param not in SWEEP_PARAMS:
            raise ConfigError(f"unknown sweep parameter {param!r}; expected "
                              f"one of {', '.join(SWEEP_PARAMS)}")
        if not isinstance(values, list) or not values:
            raise ConfigError("'sweep.values' must be a non-empty list")
        for v in values:
            if param == "quad_order":
                integer(v, "'sweep.values'", 2, MAX_SIZE, ConfigError)
            else:
                _as_number(v, "sweep.values")
        if not isinstance(material, _SWEEP_MODELS.get(param, object)):
            raise ConfigError(f"{param} sweep requires a "
                              f"{_SWEEP_MODELS[param].name} material in the config")

    return RunConfig(
        raw=copy.deepcopy(data), surface=surface, material=material, h=h,
        grid=(nx, ny), tolerances=dict(tolerances),
        options=copy.deepcopy(options))


def load_config(path):
    """Read and validate a JSON config file."""
    try:
        with open(path, "r") as fh:
            data = json.load(fh)
    except OSError as err:
        raise ConfigError(f"cannot read config {path}: {err}") from err
    except ValueError as err:  # a JSONDecodeError, or an integer too long
        raise ConfigError(f"invalid JSON in {path}: {err}") from err
    return parse_config(data)


# ---------------------------------------------------------------------------
# evaluate


def _evaluation_nodes(surface, nx, ny):
    """The rows (x1, x2) of points.csv: x1 outer, x2 inner."""
    margin = 3.0 * surface.step if surface.derivative_mode == "finite-difference" else 0.0
    return _lattice(surface.domain, nx, ny, margin)[2]


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


def _format_column(values):
    """The ``_fmt`` text of each value, formatting each distinct one once."""
    distinct, index = np.unique(values + 0.0, return_inverse=True)
    text = [_FLOAT_FORMAT % v for v in distinct.tolist()]
    return list(map(text.__getitem__, index.tolist()))


def cmd_evaluate(config, out_dir):
    """Tabulate per-point invariants and energy contents; write totals.

    Emits ``points.csv`` (one row per grid node) and ``summary.json``
    with the integrated totals, the profile coefficients at the domain
    center, and the set of formula ids used.  A non-finite result writes
    no file and is a configuration error.
    """
    points = _evaluation_nodes(config.surface, *config.grid)
    *columns, formula_id = grid_columns(
        config.surface, config.material, points, lambda jets, contents: (
            jets.trC, jets.detC, jets.lambda1, jets.lambda2, jets.H,
            jets.K, jets.b1, contents.stretching, contents.bending,
            contents.formula_id))
    columns = [points[:, 0], points[:, 1]] + columns
    for name, values in zip(CSV_COLUMNS, columns):
        _require_finite(name, values)
    n_points, ids = len(points), sorted(set(formula_id))
    total_s, total_b, energy = integrate_contents(
        config.surface, config.material, config.h, grid=config.grid)

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
            text = [_format_column(values[rows]) for values in columns]
            fh.writelines(",".join(row) + "\n"
                          for row in zip(*text, formula_id[rows]))
    _write_json(os.path.join(out_dir, "summary.json"), summary)
    print(f"evaluated {n_points} points on {config.surface.name}; "
          f"energy(h={config.h:g}) = {energy:.17g}")
    print(f"wrote {csv_path} and {os.path.join(out_dir, 'summary.json')}")
    return EXIT_OK


# ---------------------------------------------------------------------------
# verify


def __getattr__(name):
    # defined in .checks, which loads on the first of these lookups
    if name in ("CHECKS", "CHECK_IDS"):
        from . import checks
        return getattr(checks, name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


def cmd_verify(config, out_dir, run_all):
    """Run verification checks; write verdicts.json.

    With ``run_all`` (or no check selection in the config) every
    built-in check runs.  A check that raises fails, with the error as
    its detail and null values.  Returns 0 only if all selected checks
    pass.
    """
    from .checks import CHECK_IDS, CHECKS, _verdict
    tolerances = {} if config is None else config.tolerances
    selection = CHECK_IDS
    if config is not None and not run_all and "checks" in config.options:
        selection = tuple(config.options["checks"])
    if not selection:
        raise ConfigError("empty check selection: nothing to verify")

    # a CHECKS bound on this module replaces the built-in table:
    # perfbench/tracer.py wraps each check that way, and tests substitute
    # checks
    table = dict(globals().get("CHECKS", CHECKS))
    verdicts = []
    n_passed = 0
    for cid in selection:
        try:
            verdict = table[cid](tolerances)
        except Exception as err:
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

    ``parse_config`` has validated the sweep.  A non-finite result writes
    no file and is a configuration error.
    """
    sweep = config.options.get("sweep")
    if sweep is None:
        raise ConfigError("sweep command needs options.sweep = "
                          "{param, values} in the config")
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
            # first: an energy that overflows ends the run before its invariants warn
            energy = plate_energy(h, total_s, total_b)
            rows.append((param, h, "detcf_residual",
                         abs(fiber_invariants(jet, profile, h)[2] - 1.0)))
            rows.append((param, h, "total_energy", energy))
    elif param == "Jm":
        mu = config.material.mu
        base = point_contents(jet, NeoHookean(mu=mu))
        for jm in values:
            contents = point_contents(jet, Gent(mu=mu, jm=jm))
            rows.append((param, jm, "stretching_gap",
                         abs(contents.stretching - base.stretching)))
            rows.append((param, jm, "bending_gap",
                         abs(contents.bending - base.bending)))
    elif param == "lambda1":
        lam, mu = lame_constants(config.material)
        for l1 in values:
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
    else:  # quad_order
        orders = [int(v) for v in values]
        top = max(orders)
        reference = integrate_contents(config.surface, config.material,
                                       config.h, grid=(top, top))[2]
        for q in orders:
            total = reference if q == top else integrate_contents(
                config.surface, config.material, config.h, grid=(q, q))[2]
            rows.append((param, float(q), "total_energy", total))
            rows.append((param, float(q), "quadrature_delta",
                         abs(total - reference)))

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


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        raise ConfigError(message)


def main(argv=None):
    """Parse arguments and dispatch; returns the exit code, never exits."""
    parser = _Parser(
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

    # warnings are shown once the run is over, unless a config error ends
    # it: its line is then the only line on stderr
    with warnings.catch_warnings(record=True) as caught:
        try:
            code = _run(parser.parse_args(argv))
        except SystemExit as stop:  # --help, once the help is printed
            return stop.code
        # an OSError here is an --out that cannot be written, say a file
        except (ConfigError, DomainError, DegenerateImmersionError, OSError) as err:
            print(f"config error: {err}", file=sys.stderr)
            return EXIT_CONFIG
        except OverflowError as err:
            # a float power (the energy's h**3) raises instead of giving inf
            print(f"config error: a result overflows double precision: {err}",
                  file=sys.stderr)
            return EXIT_CONFIG
        except _ADMISSIBILITY_ERRORS as err:
            # grid_columns names the first failing row of every grid run
            point = getattr(err, "point", None)
            where = "" if point is None else " at point ({:.6g}, {:.6g})".format(*point)
            print(f"admissibility failure{where}: {err}", file=sys.stderr)
            code = EXIT_ADMISSIBILITY
    for w in caught:
        warnings.showwarning(w.message, w.category, w.filename, w.lineno)
    return code


def _run(args):
    if args.command == "verify":
        if args.config is None and not args.all:
            raise ConfigError("verify needs --config or --all")
        config = load_config(args.config) if args.config else None
        return cmd_verify(config, args.out, run_all=args.all)
    if args.config is None:
        raise ConfigError(f"{args.command} needs --config")
    command = cmd_evaluate if args.command == "evaluate" else cmd_sweep
    return command(load_config(args.config), args.out)


def entry():
    """The ``plate-reduce`` program: ``main``, then ``os._exit`` once both
    streams are flushed, which skips only the ~20 ms interpreter teardown
    (output files are closed by then); a closed stdout ends it by SIGPIPE."""
    import signal  # here, so that importing cli_io stays as light as before
    if hasattr(signal, "SIGPIPE"):
        signal.signal(signal.SIGPIPE, signal.SIG_DFL)
    code = main()
    sys.stdout.flush()
    sys.stderr.flush()
    os._exit(code)


if __name__ == "__main__":
    entry()
