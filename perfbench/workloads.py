"""The three benchmark workloads and the CLI invocations each one makes.

A workload is a fixed list of ``plate-reduce`` invocations.  Its surface
and material parameters come from the seed, inside ranges where every
invocation exits 0; the program only ever sees the generated config file.
``verify-all`` takes no input, so its seed is ignored.
"""

import json
import os
import random

DEFAULT_SEED = 0

CHECK_IDS = (
    "incompressibility_order", "gent_bending", "gent_stretching",
    "theorema_egregium", "codazzi_residuals", "cg_profile_minimality",
    "cg_small_strain", "svk_profile", "thickness_formula",
    "eigenframe_coupling", "cross_path_curvatures", "orientation",
)


class Invocation:
    """One CLI call: its arguments, its config and what it must write."""

    def __init__(self, label, command, config=None):
        self.label = label
        self.command = command
        self.config = config

    @property
    def grid(self):
        g = self.config["grid"]
        return g["nx"], g["ny"]

    @property
    def sweep_values(self):
        return self.config["options"]["sweep"]["values"]

    @property
    def nodes(self):
        """Grid nodes the config requests (0 for verify)."""
        if self.command == "verify":
            return 0
        nx, ny = self.grid
        if self.command == "sweep":
            return nx * ny * len(self.sweep_values)
        return nx * ny

    def write_config(self, work_dir):
        """Write the config into ``work_dir``; return its path or None."""
        if self.config is None:
            return None
        path = os.path.join(work_dir, self.label + ".json")
        with open(path, "w") as fh:
            json.dump(self.config, fh)
        return path

    def argv(self, config_path, out_dir):
        """Arguments after ``python -m plate_reduce.cli_io``."""
        if config_path is None:
            return ["verify", "--all", "--out", out_dir]
        return [self.command, "--config", config_path, "--out", out_dir]


def _evaluate_grid(rng):
    u = rng.uniform
    h = u(5e-4, 2e-3)
    return [
        Invocation("bump_gent", "evaluate", {
            "surface": {"name": "gaussian_bump", "A": u(0.4, 0.6), "s": 1.0},
            "material": {"model": "gent", "mu": u(0.8, 1.2), "jm": u(8.0, 12.0)},
            "h": h, "grid": {"nx": 64, "ny": 64}}),
        Invocation("bump_mooney_rivlin", "evaluate", {
            "surface": {"name": "gaussian_bump", "A": u(0.4, 0.6), "s": 1.0},
            "material": {"model": "mooney_rivlin", "mu": u(0.8, 1.2),
                         "chi": u(0.3, 0.9)},
            "h": h, "grid": {"nx": 48, "ny": 48}}),
        Invocation("sphere_cg", "evaluate", {
            "surface": {"name": "sphere_cap", "R": u(1.5, 2.5)},
            "material": {"model": "ciarlet_geymonat", "lambda": u(0.5, 2.0),
                         "mu": u(0.5, 2.0)},
            "h": h, "grid": {"nx": 48, "ny": 48}}),
        Invocation("cylinder_svk", "evaluate", {
            "surface": {"name": "cylinder", "R": u(0.8, 1.2)},
            "material": {"model": "svk", "lambda": u(0.5, 2.0), "mu": u(0.5, 2.0)},
            "h": h, "grid": {"nx": 48, "ny": 48}}),
    ]


def _verify_all(rng):
    return [Invocation("verify_all", "verify")]


def _sweep_fd(rng):
    h0 = rng.uniform(2.5e-4, 1e-3)
    values = [h0 * 2.0 ** k for k in range(6)]
    return [Invocation("sweep_h", "sweep", {
        "surface": {"name": "gaussian_bump", "A": rng.uniform(0.4, 0.6), "s": 1.0},
        "material": {"model": "neo_hookean", "mu": rng.uniform(0.8, 1.2)},
        "h": values[0], "grid": {"nx": 12, "ny": 12},
        "derivative_mode": "finite-difference",
        "options": {"sweep": {"param": "h", "values": values}}})]


WORKLOADS = {
    "evaluate-grid": _evaluate_grid,
    "verify-all": _verify_all,
    "sweep-fd": _sweep_fd,
}


def invocations(workload, seed):
    """The invocations of ``workload``; the same seed gives the same list."""
    return WORKLOADS[workload](random.Random(f"{workload}:{seed}"))
