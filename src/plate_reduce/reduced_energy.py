"""Closed-form stretching and bending contents of thin-sheet energies.

A through-thickness integral of a nonlinear elastic energy along the
optimal fiber profile collapses to ``h * w_s + h^3 * w_b`` in the half
thickness h.  This module evaluates the per-unit-area contents ``w_s``
(stretching) and ``w_b`` (bending) in closed form for the supported
material models, exposes the eigenframe-coupling analysis of the bending
content, and integrates contents over a surface patch.
"""

from dataclasses import dataclass, replace

import numpy as np

from .materials import (MaterialDomainError, StiffeningLimitError, as_model,
                        invariant_series, volumetric_energy)
from .surface_geometry import (DegenerateImmersionError, DomainError, JetBatch,
                               _gauss_legendre, _where, evaluate_jets,
                               float_if_scalar, half_thickness, integer, positive,
                               raise_first_failure, unimodular_tolerance)


@dataclass(frozen=True)
class EnergyContents:
    """Per-unit-area energy contents of a reduced plate theory.

    Attributes
    ----------
    stretching : float
        Content multiplying h (membrane term).
    bending : float
        Content multiplying h^3.
    formula_id : str
        Identifier of the closed form that produced the values.

    For a JetBatch the contents are arrays over its points; from
    ``point_contents`` all three fields are (N,) arrays.
    """

    stretching: float
    bending: float
    formula_id: str


# ---------------------------------------------------------------------------
# generic quadratic expansion of the fiber energy


def energy_series_coefficients(material, series):
    """Constant and quadratic x3-coefficients of the fiber energy density.

    Parameters
    ----------
    material : invariant-based material model
    series : InvariantSeries
        Quadratic expansion of the fiber invariants along a profile.

    Returns
    -------
    (w0, w2) : pair of floats
        Fiber energy ``w0 + O(x3) + w2 x3^2 + O(x3^3)``; the odd term
        integrates away, so the thickness integral over (-h, h) is
        ``2 h w0 + (2/3) h^3 w2 + O(h^5)``.
    """
    I1, I2, I3 = series.i1[0], series.i2[0], series.i3[0]
    g, h = as_model(material).partials(I1, I2, I3)
    w0 = volumetric_energy(material, I1, I2, I3)
    v1 = (series.i1[1], series.i2[1], series.i3[1])
    v2 = (series.i1[2], series.i2[2], series.i3[2])
    w2 = (sum(g[k] * v2[k] for k in range(3))
          + 0.5 * sum(v1[k] * h[k] * v1[k] for k in range(3)))
    return float_if_scalar(w0), float_if_scalar(w2)


def series_contents(jet, material, profile, formula_id):
    """Stretching/bending contents from the quadratic invariant expansion
    along ``profile``, under the caller's ``formula_id``.

    Exact as the h- and h^3-contents for any cubic profile, since the
    discarded invariant orders only enter at h^5.
    """
    series = invariant_series(jet, profile)
    w0, w2 = energy_series_coefficients(material, series)
    return EnergyContents(2.0 * w0, (2.0 / 3.0) * w2, formula_id)


# ---------------------------------------------------------------------------
# Gent


def _gent_unimodular(jet, mu, jm):
    # (w_s, w_b, (failed, make_error)) of the det C = 1 form at every point;
    # a numpy jm makes a single point's x / 0 an inf, not a ZeroDivisionError
    trc, b1, H, K, jm = jet.trC, jet.b1, jet.H, jet.K, np.float64(jm)
    delta = jm - (trc - 2.0)
    with np.errstate(all="ignore"):
        w_s = -mu * jm * np.log1p(-(trc - 2.0) / jm)
        w_b = (mu / 3.0) * jm * (
            2.0 * ((b1 - 2.0 * H) / delta) ** 2
            + (16.0 * H * H - K * (trc + 2.0)) / delta)
    return w_s, w_b, (delta <= 0.0, lambda i: StiffeningLimitError(
        f"tr C - 2 = {np.ravel(trc)[i] - 2.0:.9g} reached the extensibility "
        f"limit Jm = {jm:.9g}"))


def _gent_general(jet, mu, jm):
    # as _gent_unimodular, for the general-stretch form
    trc, detc, b1, H, K, jm = jet.trC, jet.detC, jet.b1, jet.H, jet.K, np.float64(jm)
    den = detc * (jm - trc + 3.0) - 1.0
    with np.errstate(all="ignore"):
        w_s = -mu * jm * np.log1p(-(detc * (trc - 3.0) + 1.0) / (jm * detc))
        w_b = (mu * jm / (3.0 * detc)) * (
            2.0 * ((detc * b1 - 2.0 * H) / den) ** 2
            + (16.0 * H * H - K * (detc * trc + 2.0)) / den)
    return w_s, w_b, (den <= 0.0, lambda i: StiffeningLimitError(
        f"det C (Jm - tr C + 3) - 1 = {np.ravel(den)[i]:.9g} is not positive "
        f"(tr C = {np.ravel(trc)[i]:.9g}, det C = {np.ravel(detc)[i]:.9g}, "
        f"Jm = {jm:.9g})"))


def gent_contents_unimodular(jet, mu, jm):
    """Gent contents for an area-preserving mid-surface (det C = 1)."""
    w_s, w_b, check = _gent_unimodular(jet, mu, jm)
    raise_first_failure(check)
    return EnergyContents(float_if_scalar(w_s), float_if_scalar(w_b), "gent_unimodular")


def gent_contents_general(jet, mu, jm):
    """Gent contents without the det C = 1 restriction.

    Reduces to the unimodular formulas on det C = 1 inputs.
    """
    w_s, w_b, check = _gent_general(jet, mu, jm)
    raise_first_failure(check)
    return EnergyContents(float_if_scalar(w_s), float_if_scalar(w_b), "gent_general")


def gent_contents(jet, mu, jm):
    """Stretching and bending contents for the Gent model.

    Picks the area-preserving closed form when |det C - 1| <=
    ``unimodular_tolerance(jet)``, else the general-stretch form; over a
    JetBatch, point by point: both forms are evaluated at every point, each
    point keeps its own, and ``formula_id`` is an array over the points.

    Raises
    ------
    StiffeningLimitError
        When the stretch reaches the model's extensibility limit.
    """
    unimodular = np.abs(jet.detC - 1.0) <= unimodular_tolerance(jet)
    s_u, b_u, (failed_u, error_u) = _gent_unimodular(jet, mu, jm)
    s_g, b_g, (failed_g, error_g) = _gent_general(jet, mu, jm)
    raise_first_failure((unimodular & failed_u, error_u),
                        (~unimodular & failed_g, error_g))
    return EnergyContents(float_if_scalar(_where(unimodular, s_u, s_g)),
                          float_if_scalar(_where(unimodular, b_u, b_g)),
                          _where(unimodular, "gent_unimodular", "gent_general"))


# ---------------------------------------------------------------------------
# Ciarlet-Geymonat


def cg_contents(jet, material):
    """Stretching and bending contents for the Ciarlet-Geymonat model.

    The bending content is obtained by inserting the minimizing profile
    into the quadratic expansion of the fiber energy; the equivalent
    rearrangements `cg_bending_closed` and `cg_bending_lame` are kept as
    cross-checks.
    """
    return _CONTENTS["ciarlet_geymonat"](jet, material)


def cg_stretching_closed(jet, material):
    """Closed-form Ciarlet-Geymonat stretching content."""
    a, b = material.a, material.b
    s = a + b
    D = a + b * jet.detC
    return 2.0 * (a * jet.trC + s * (1.0 - np.log(s * jet.detC / D)) - (3.0 * a + b))


def cg_bending_closed(jet, material):
    """Closed-form Ciarlet-Geymonat bending content in the (a, b) constants."""
    a, b = material.a, material.b
    trc, detc, b1, H, K = jet.trC, jet.detC, jet.b1, jet.H, jet.K
    s = a + b
    D = a + b * detc
    return (
        a * s * s * (7.0 * a + 32.0 * b * detc) / (3.0 * D**3) * H * H
        + 5.0 * a * a * s / (3.0 * D * D) * b1 * H
        - 2.0 * a * s * (D * trc + 2.0 * s) / (3.0 * D * D) * K
        - a * a / (12.0 * D) * b1 * b1
    )


def cg_bending_lame(jet, lam, mu):
    """Ciarlet-Geymonat bending content written in the Lame constants."""
    trc, detc, b1, H, K = jet.trC, jet.detC, jet.b1, jet.H, jet.K
    D = 2.0 * mu + lam * detc
    return (
        mu * (2.0 * mu + lam) ** 2 * (16.0 * lam * detc + 7.0 * mu) / (3.0 * D**3) * H * H
        + 5.0 * mu * mu * (2.0 * mu + lam) / (3.0 * D * D) * b1 * H
        - mu * (2.0 * mu + lam) * (D * trc + 2.0 * (2.0 * mu + lam)) / (3.0 * D * D) * K
        - mu * mu / (12.0 * D) * b1 * b1
    )


def cg_small_strain_contents(E, H, K, lam, mu):
    """Leading quadratic contents for small mid-surface strain E.

    Parameters
    ----------
    E : (2, 2) array_like
        Mid-surface strain, (C - I)/2.
    H, K : float
        Mean and Gaussian curvature.
    lam, mu : float
        Lame constants.
    """
    E = np.asarray(E, dtype=float)
    tr_e = np.trace(E)
    w1 = 2.0 * lam * mu / (lam + 2.0 * mu) * tr_e * tr_e + 2.0 * mu * np.trace(E @ E)
    # the bending content of an isometry
    w3 = svk_content(H, K, lam, mu).bending
    return EnergyContents(float(w1), float(w3), "cg_small_strain")


# ---------------------------------------------------------------------------
# Saint Venant-Kirchhoff


def svk_content(H, K, lam, mu):
    """Bending content of the Saint Venant-Kirchhoff variant on isometries.

    The mid-surface is assumed unstretched (C = I), which makes the
    stretching content zero; K is accepted for formula completeness even
    though isometries of a flat sheet have K = 0.
    """
    w3 = 16.0 / 3.0 * mu * (lam + mu) / (2.0 * mu + lam) * H * H - 4.0 / 3.0 * mu * K
    return EnergyContents(float_if_scalar(np.zeros_like(w3)), float_if_scalar(w3),
                          "svk_isometry")


# ---------------------------------------------------------------------------
# eigenframe coupling of the bending content


def _coupling_coefficients(kappa1, kappa2, lambda1):
    positive(lambda1, "lambda1 = {:.9g} must be positive")
    l2 = lambda1 * lambda1
    a = kappa1 * l2 + kappa2 / l2 - (kappa1 + kappa2)
    b = kappa2 * l2 + kappa1 / l2 - (kappa1 + kappa2)
    return a, b


def eigenframe_coupling(kappa1, kappa2, lambda1, phi_angle):
    """Bending coupling between stretch and curvature eigenframes.

    For an area-preserving stretch (lambda1, 1/lambda1) whose first
    principal direction makes angle ``phi_angle`` with the first curvature
    direction, the only frame-dependent bending term is the square of a
    cos^2/sin^2 combination; it vanishes when the frames can align the
    stretch with the curvatures.

    Returns
    -------
    float or ndarray
        The (nonnegative) coupling term, a float for a scalar
        ``phi_angle`` and an array of its shape otherwise.
    """
    a, b = _coupling_coefficients(kappa1, kappa2, lambda1)
    c = np.cos(phi_angle)
    s = np.sin(phi_angle)
    return float_if_scalar((a * c * c + b * s * s) ** 2)


def coupling_stationary_angles(kappa1, kappa2, lambda1):
    """Stationary angles of the eigenframe coupling in [0, pi/2].

    The axis angles 0 and pi/2 are always stationary; an interior angle
    appears when the coefficient ratio makes tan^2 of it positive, and
    the coupling vanishes there.
    """
    a, b = _coupling_coefficients(kappa1, kappa2, lambda1)
    angles = [0.0, 0.5 * np.pi]
    if a * b < 0.0:
        angles.append(float(np.arctan(np.sqrt(-a / b))))
    return np.sort(np.array(angles))


# ---------------------------------------------------------------------------
# per-point dispatch and area integration


def _svk_closed_form(jet, material):
    eye = np.eye(2).reshape((2, 2) + (1,) * (np.ndim(jet.C) - 2))
    strain = np.max(np.abs(jet.C - eye), axis=(0, 1))
    raise_first_failure((strain > unimodular_tolerance(jet), lambda i: MaterialDomainError(
        f"Saint Venant-Kirchhoff content needs an unstretched "
        f"mid-surface; max |C - I| = {np.ravel(strain)[i]:.6g}")))
    return svk_content(jet.H, jet.K, material.lam, material.mu)


def _series(formula_id):  # the invariant series along the model's profile rule
    return lambda jet, m: series_contents(jet, m, m.profile(jet), formula_id)


# each model's contents rule and formula ids, by config name (materials.MODELS)
_CONTENTS = {
    "gent": lambda jet, m: gent_contents(jet, m.mu, m.jm),
    "neo_hookean": _series("neo_hookean_series"),
    "mooney_rivlin": _series("mooney_rivlin_series"),
    "ciarlet_geymonat": _series("cg_minimizing_profile"),
    "svk": _svk_closed_form,
}


def point_contents(jet, material):
    """Contents of the reduced energy at a surface point for any model.

    ``jet`` is a SurfaceJet, or a JetBatch for the contents at all of its
    points in one vectorized pass; then the three fields of the result
    are (N,) arrays.  A batch raises the error the first failing point
    would raise on its own, with that point's position as the error's
    ``index``.

    Gent and Saint Venant-Kirchhoff use their closed forms, the latter on
    an unstretched mid-surface only; the other models go through the
    series expansion along their profile rule (``material.profile``).
    A model the table of rules does not name raises TypeError.
    """
    rule = _CONTENTS.get(getattr(as_model(material), "name", None))
    if rule is None:
        raise TypeError(f"no contents rule for {type(material).__name__}")
    contents = rule(jet, material)
    if isinstance(jet, JetBatch):  # every rule's stretching and bending are (N,) floats
        return replace(contents, formula_id=np.broadcast_to(
            np.asarray(contents.formula_id, dtype=object), (len(jet),)).copy())
    return contents


def grid_contents(surface, material, points):
    """Jets and contents at every row of ``points`` (N, 2).

    Returns (JetBatch, EnergyContents of (N,) arrays) from one pass of
    ``evaluate_jets`` and one of ``point_contents``.  Errors come in the
    order of a point-by-point loop that evaluates each point's jet and
    then its contents: the error of the first failing row is raised, with
    that row as the error's ``index``.
    """
    try:
        jets = evaluate_jets(surface, points)
    except (DomainError, DegenerateImmersionError) as err:
        if err.index:
            # the contents of a row before the failing jet may fail first
            point_contents(evaluate_jets(surface, points[:err.index]), material)
        raise
    return jets, point_contents(jets, material)


# rows per grid_contents pass: a grid's temporaries are one block's
GRID_BLOCK = 512


def grid_columns(surface, material, points, keep):
    """The (N,) arrays ``keep(jets, contents)`` of ``grid_contents`` over
    all rows of ``points``, run on GRID_BLOCK rows at a time.  The first
    failing row's error is raised with that row as its ``index`` and the
    row's (x1, x2) as its ``point``."""
    blocks = []
    for start in range(0, len(points), GRID_BLOCK):
        try:
            blocks.append(keep(*grid_contents(
                surface, material, points[start:start + GRID_BLOCK])))
        except ValueError as err:
            if hasattr(err, "index"):  # raise_first_failure's row
                err.index += start
                err.point = points[err.index]
            raise
    return [np.concatenate(column) for column in zip(*blocks)]


def integrate_contents(surface, material, h, grid=(8, 8)):
    """Integrate the reduced energy over the surface's reference domain.

    Tensor-product Gauss-Legendre quadrature with ``grid`` nodes per axis
    on the flat reference area element.  The surface callables are called
    once per block of GRID_BLOCK nodes, so they must broadcast over
    trailing point axes (see ParametricSurface).  Accumulation is a
    fixed-order pairwise reduction over the whole grid, so totals are
    reproducible bit-for-bit.

    Returns
    -------
    (total_stretch, total_bend, total) : triple of floats
        Area integrals of w_s and w_b, and ``h*total_stretch +
        h^3*total_bend``.

    Raises
    ------
    StiffeningLimitError, MaterialDomainError
        The model's own error at the first offending node (x1 outer, x2
        inner), with its grid row as ``index`` and its (x1, x2) as ``point``.
    """
    half_thickness(h)
    nx, ny = (integer(n, "grid side", 1, np.inf, ValueError) for n in grid)
    (u0, u1), (v0, v1) = surface.domain
    xu, wu = _gauss_legendre(nx)
    xv, wv = _gauss_legendre(ny)
    su, cu = 0.5 * (u1 - u0), 0.5 * (u1 + u0)
    sv, cv = 0.5 * (v1 - v0), 0.5 * (v1 + v0)

    points = np.column_stack([np.repeat(su * xu + cu, ny), np.tile(sv * xv + cv, nx)])
    stretching, bending = grid_columns(
        surface, material, points, lambda _, c: (c.stretching, c.bending))

    weights = np.outer(wu * su, wv * sv)
    total_stretch = float(np.sum(weights * stretching.reshape(nx, ny)))
    total_bend = float(np.sum(weights * bending.reshape(nx, ny)))
    return total_stretch, total_bend, plate_energy(h, total_stretch, total_bend)


def plate_energy(h, stretching, bending):
    """h w_s + h^3 w_b; a float power that overflows raises naming ``h``."""
    try:
        return h * stretching + h**3 * bending
    except OverflowError:
        raise OverflowError(f"the energy at h = {h:g}") from None
