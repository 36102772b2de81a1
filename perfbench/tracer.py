"""Per-layer tracing of one ``plate-reduce`` invocation.

Run as ``python tracer.py --spans OUT.json -- <plate-reduce arguments>``
with ``src`` on ``PYTHONPATH``.  It imports ``plate_reduce.cli_io``,
wraps each layer's public functions from outside the program, calls
``cli_io.main`` in this process, writes the span totals to OUT.json and
exits with the CLI's exit code.

A span covers one call of a wrapped function.  Spans nest through a stack,
so a span's self time is its duration minus the time of the spans it
encloses.  Totals are kept per span name in memory and written once at
the end.  Closures cannot be wrapped from outside: the RK4 and
fiber-energy closures of ``oracle.solve_svk_profile_ode`` run inside
``oracle.minimize_scalar`` and land in its self time.
"""

import argparse
import functools
import json
import sys
import time
from collections import defaultdict

LAYERS = {
    "surface_geometry": ("evaluate_jet", "verify_orientation", "appendix_H_K"),
    "reduced_energy": ("point_contents", "integrate_contents", "gent_contents",
                       "series_contents", "cg_contents", "svk_content",
                       "eigenframe_coupling"),
    "materials": ("volumetric_energy", "invariant_series",
                  "fiber_deformation_gradient"),
    "thickness_profile": ("incompressible_profile",
                          "incompressible_profile_general", "cg_profile",
                          "svk_profile", "deformed_thickness",
                          "ExactIncompressibleProfile.phi"),
    "connectors": ("sample_frame_grid", "compute_frame", "check_codazzi",
                   "gauss_from_connectors"),
    "oracle": ("solve_svk_profile_ode", "minimize_scalar",
               "through_thickness_energy_from_jet", "fit_h_powers"),
    "cli_io": ("load_config", "cmd_evaluate", "cmd_verify", "cmd_sweep"),
}
FUNCTIONS = tuple(f"{module}.{name}" for module, names in LAYERS.items()
                  for name in names)
JET = "surface_geometry.evaluate_jet"


class Tracer:
    """Span totals per name: call count, self time and total time."""

    def __init__(self):
        self.calls = defaultdict(int)
        self.self_s = defaultdict(float)
        self.total_s = defaultdict(float)
        self.jet_keys = set()
        # surfaces stay referenced so that an id in jet_keys is never reused
        self._surfaces = {}
        self._stack = []

    def wrap(self, name, fn):
        stack, clock = self._stack, time.perf_counter
        calls, self_s, total_s = self.calls, self.self_s, self.total_s

        @functools.wraps(fn)
        def span(*args, **kwargs):
            stack.append(0.0)
            start = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                duration = clock() - start
                enclosed = stack.pop()
                if stack:
                    stack[-1] += duration
                calls[name] += 1
                self_s[name] += duration - enclosed
                total_s[name] += duration
        return span

    def wrap_jet(self, fn):
        import numpy as np
        span = self.wrap(JET, fn)

        @functools.wraps(fn)
        def keyed(surface, x, *args, **kwargs):
            self._surfaces[id(surface)] = surface
            self.jet_keys.add((id(surface),
                               np.asarray(x, dtype=float).tobytes()))
            return span(surface, x, *args, **kwargs)
        return keyed

    def totals(self):
        return {"calls": dict(self.calls), "self_s": dict(self.self_s),
                "total_s": dict(self.total_s),
                "jet_distinct": len(self.jet_keys)}


def install(tracer):
    """Wrap every layer function at every binding the package holds.

    Modules import functions by name, so each module attribute that is
    the same function object is replaced.  ``cli_io.CHECKS`` is rebuilt
    with wrapped checks (``cmd_verify`` reads it at call time), and the
    class attribute ``ExactIncompressibleProfile.phi`` is wrapped in place.
    """
    import plate_reduce.cli_io as cli

    modules = [m for n, m in sorted(sys.modules.items())
               if n == "plate_reduce" or n.startswith("plate_reduce.")]
    for module_name, names in LAYERS.items():
        module = sys.modules[f"plate_reduce.{module_name}"]
        for name in names:
            qualified = f"{module_name}.{name}"
            if "." in name:
                cls_name, attr = name.split(".")
                cls = getattr(module, cls_name)
                setattr(cls, attr, tracer.wrap(qualified, getattr(cls, attr)))
                continue
            original = getattr(module, name)
            wrapped = (tracer.wrap_jet(original) if qualified == JET
                       else tracer.wrap(qualified, original))
            for mod in modules:
                for attr, value in list(vars(mod).items()):
                    if value is original:
                        setattr(mod, attr, wrapped)
    cli.CHECKS = tuple((cid, tracer.wrap(f"cli_io.check.{cid}", fn))
                       for cid, fn in cli.CHECKS)


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--spans", required=True,
                        help="where to write the span totals (JSON)")
    parser.add_argument("cli_args", nargs=argparse.REMAINDER,
                        help="-- followed by plate-reduce arguments")
    args = parser.parse_args()
    cli_args = args.cli_args[1:] if args.cli_args[:1] == ["--"] else args.cli_args

    import plate_reduce.cli_io as cli
    tracer = Tracer()
    install(tracer)
    code = cli.main(cli_args)
    with open(args.spans, "w") as fh:
        json.dump(tracer.totals(), fh)
    return code


if __name__ == "__main__":
    sys.exit(main())
