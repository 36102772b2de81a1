"""Dimension reduction of bulk elastic energies to plate energies.

Mid-surface geometry, through-thickness profiles, closed-form stretching
and bending contents for several hyperelastic models, and numerical
oracles that verify every closed form independently.
"""

from .connectors import (CodazziReport, ConnectorFrame, FrameGrid,
                         c_star_from_metric, check_codazzi, compute_frame,
                         curvatures_from_frame, gauss_from_connectors,
                         gauss_uniform_stretch, sample_frame_grid)
from .materials import (CiarletGeymonat, Gent, InvariantSeries,
                        MaterialDomainError, MooneyRivlin, NeoHookean,
                        SaintVenantKirchhoff, StiffeningLimitError,
                        exact_invariants, exact_invariants_from_jet,
                        fiber_deformation_gradient, invariant_series,
                        lame_constants, material_from_config,
                        molecular_params, small_strain_energy,
                        symmetric_sqrt, volumetric_energy)
from .oracle import (BracketError, FitError, HFit, ResolutionError,
                     SvkProfileSolution, fit_h_powers, minimize_scalar,
                     order_of_residual, parabolic_refine,
                     solve_svk_profile_ode, through_thickness_energy,
                     through_thickness_energy_from_jet)
from .reduced_energy import (EnergyContents, cg_bending_closed,
                             cg_bending_lame, cg_contents,
                             cg_small_strain_contents, cg_stretching_closed,
                             coupling_stationary_angles, eigenframe_coupling,
                             energy_series_coefficients, gent_contents,
                             gent_contents_general, gent_contents_unimodular,
                             grid_contents, integrate_contents,
                             point_contents, series_contents, svk_content)
from .surface_geometry import (AreaDistortionError,
                               DegenerateImmersionError, DomainError,
                               JetBatch, OrientationReport,
                               ParametricSurface, SurfaceJet, appendix_H_K,
                               catalog_surface, evaluate_jet, evaluate_jets,
                               sampled_injectivity, verify_orientation)
from .thickness_profile import (ExactIncompressibleProfile,
                                HyperbolicProfile, PolyProfile,
                                ProfileConstraintError, cg_profile,
                                deformed_thickness, incompressible_profile,
                                incompressible_profile_general, svk_profile)

__version__ = "0.1.0"

__all__ = [
    "AreaDistortionError", "BracketError", "CiarletGeymonat", "CodazziReport",
    "ConnectorFrame", "DegenerateImmersionError", "DomainError",
    "EnergyContents", "ExactIncompressibleProfile", "FitError", "FrameGrid",
    "Gent", "HFit", "HyperbolicProfile", "InvariantSeries", "JetBatch",
    "MaterialDomainError", "MooneyRivlin", "NeoHookean", "OrientationReport",
    "ParametricSurface", "PolyProfile", "ProfileConstraintError",
    "ResolutionError", "SaintVenantKirchhoff", "StiffeningLimitError",
    "SurfaceJet", "SvkProfileSolution", "appendix_H_K", "c_star_from_metric",
    "catalog_surface", "cg_bending_closed", "cg_bending_lame", "cg_contents",
    "cg_profile", "cg_small_strain_contents", "cg_stretching_closed",
    "check_codazzi", "compute_frame", "coupling_stationary_angles",
    "curvatures_from_frame", "deformed_thickness", "eigenframe_coupling",
    "energy_series_coefficients", "evaluate_jet", "evaluate_jets",
    "exact_invariants",
    "exact_invariants_from_jet", "fiber_deformation_gradient", "fit_h_powers",
    "gauss_from_connectors", "gauss_uniform_stretch", "gent_contents",
    "gent_contents_general", "gent_contents_unimodular", "grid_contents",
    "incompressible_profile", "incompressible_profile_general",
    "integrate_contents", "invariant_series", "lame_constants",
    "material_from_config", "minimize_scalar", "molecular_params",
    "order_of_residual", "parabolic_refine", "point_contents",
    "sample_frame_grid", "sampled_injectivity", "series_contents",
    "small_strain_energy", "solve_svk_profile_ode", "svk_content",
    "svk_profile", "symmetric_sqrt", "through_thickness_energy",
    "through_thickness_energy_from_jet", "verify_orientation",
    "volumetric_energy",
]
