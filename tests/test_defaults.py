"""Every setting in ``src/`` that a caller may leave out, frozen.

A defaulted parameter or dataclass field is a setting: each one doubles
the configurations that tests must cover unless two callers need
different values.  A new one shows in review as an edit to ``DEFAULTS``,
the same way a new public name does to ``PUBLIC_NAMES``.
"""

import ast
import os

import plate_reduce

SRC = os.path.dirname(os.path.abspath(plate_reduce.__file__))

# module, qualified def or class, parameter or field: one default a line
DEFAULTS = """
    cli_io main argv
    connectors ConnectorFrame ill_conditioned
    connectors FrameGrid fields
    materials CiarletGeymonat.profile h
    materials MaterialModel.profile h
    materials SaintVenantKirchhoff.profile h
    materials volumetric_energy C_f
    oracle solve_svk_profile_ode n_steps
    oracle through_thickness_energy quad_order
    oracle through_thickness_energy_from_jet quad_order
    reduced_energy integrate_contents grid
    surface_geometry ParametricSurface derivative_mode
    surface_geometry ParametricSurface domain
    surface_geometry ParametricSurface grad
    surface_geometry ParametricSurface hess
    surface_geometry ParametricSurface name
    surface_geometry ParametricSurface step
    surface_geometry SurfaceJet derivative_mode
    surface_geometry _bump_scalars derivatives
    surface_geometry catalog_surface derivative_mode
    surface_geometry catalog_surface step
    surface_geometry fiber_deformation_gradient grad_phi
    surface_geometry positive error
    thickness_profile PolyProfile beta
    thickness_profile PolyProfile gamma
    thickness_profile incompressible_profile_general tol
"""


def _defaults(node, module, scope=()):
    # (module, qualified name, setting) of every default under ``node``
    for child in ast.iter_child_nodes(node):
        inner, names = scope, []
        if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)):
            inner = scope + (getattr(child, "name", "<lambda>"),)
            args = child.args
            positional = args.posonlyargs + args.args
            names = [a.arg for a in positional[len(positional) - len(args.defaults):]]
            names += [a.arg for a, default in zip(args.kwonlyargs, args.kw_defaults)
                      if default is not None]
        elif isinstance(child, ast.ClassDef):
            inner = scope + (child.name,)
            names = [s.target.id for s in child.body
                     if isinstance(s, ast.AnnAssign) and s.value is not None]
        yield from ((module, ".".join(inner), name) for name in names)
        yield from _defaults(child, module, inner)


def test_the_defaults_in_src_are_frozen():
    found = []
    for name in sorted(os.listdir(SRC)):
        if name.endswith(".py"):
            with open(os.path.join(SRC, name)) as f:
                found += _defaults(ast.parse(f.read()), name[:-3])
    frozen = [tuple(line.split()) for line in DEFAULTS.strip().splitlines()]
    assert sorted(found) == sorted(frozen)
    assert len(frozen) == 26
