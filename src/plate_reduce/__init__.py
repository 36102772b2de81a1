"""Dimension reduction of bulk elastic energies to plate energies.

Mid-surface geometry, through-thickness profiles, closed-form stretching
and bending contents for several hyperelastic models, and numerical
oracles that verify every closed form independently.

Public names resolve on first use.  ``connectors`` and ``oracle``, which
only verification uses, run on first attribute access.
"""

import importlib
import importlib.util
import sys

__version__ = "0.1.0"

# the public names, by the submodule that defines them
_MODULES = {
    "connectors": """CodazziReport ConnectorFrame FrameGrid
        c_star_from_metric check_codazzi compute_frame curvatures_from_frame
        gauss_from_connectors gauss_uniform_stretch sample_frame_grid""",
    "materials": """CiarletGeymonat Gent InvariantSeries MaterialDomainError
        MooneyRivlin NeoHookean SaintVenantKirchhoff StiffeningLimitError
        exact_invariants exact_invariants_from_jet invariant_series
        lame_constants
        material_from_config molecular_params small_strain_energy
        symmetric_sqrt volumetric_energy""",
    "oracle": """BracketError FitError HFit ResolutionError
        SvkProfileSolution fit_h_powers minimize_scalar order_of_residual
        parabolic_refine solve_svk_profile_ode through_thickness_energy
        through_thickness_energy_from_jet""",
    "reduced_energy": """EnergyContents cg_bending_closed cg_bending_lame
        cg_contents cg_small_strain_contents cg_stretching_closed
        coupling_stationary_angles eigenframe_coupling
        energy_series_coefficients gent_contents gent_contents_general
        gent_contents_unimodular grid_contents integrate_contents
        point_contents series_contents svk_content""",
    "surface_geometry": """AreaDistortionError DegenerateImmersionError
        DomainError JetBatch OrientationReport ParametricSurface SurfaceJet
        appendix_H_K catalog_surface evaluate_jet evaluate_jets
        fiber_deformation_gradient sampled_injectivity verify_orientation""",
    "thickness_profile": """ExactIncompressibleProfile HyperbolicProfile
        PolyProfile ProfileConstraintError cg_profile deformed_thickness
        incompressible_profile incompressible_profile_general svk_profile""",
}
_MODULE_OF = {name: module for module, names in _MODULES.items()
              for name in names.split()}
__all__ = sorted(_MODULE_OF)


def _lazy(name):
    # registered now, so every importer gets this object; run on first use
    spec = importlib.util.find_spec(f"{__name__}.{name}")
    spec.loader = importlib.util.LazyLoader(spec.loader)
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module
    spec.loader.exec_module(module)
    return module


connectors = _lazy("connectors")
oracle = _lazy("oracle")


def __getattr__(name):
    if name not in _MODULE_OF:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    return getattr(importlib.import_module(f".{_MODULE_OF[name]}", __name__),
                   name)
