"""Numerical oracles for the closed-form plate energies.

Everything here works from quadrature, finite differences, and direct
minimization of the bulk energy; none of it knows the closed-form
profiles or energy contents it is used to verify.
"""

from __future__ import annotations

import functools
import warnings

import numpy as np
from dataclasses import dataclass
from typing import Tuple

from . import materials as _materials
from .surface_geometry import (_gauss_legendre, evaluate_jet, float_if_scalar,
                               fiber_deformation_gradient, half_thickness,
                               positive, raise_first_failure)

GOLDEN = (5.0 ** 0.5 - 1.0) / 2.0


class BracketError(ValueError):
    """The bracket shows no interior descent to minimize into."""


class ResolutionError(ValueError):
    """Step count too small for the requested integration range."""


class FitError(ValueError):
    """The sample set cannot support the requested power fit."""


@dataclass(frozen=True)
class HFit:
    """Least-squares coefficients of E(h) = c1 h + c3 h^3."""

    h_samples: Tuple[float, ...]
    energies: Tuple[float, ...]
    c1: float
    c3: float
    residual_norm: float


def through_thickness_energy(surface, x, material, profile, h, quad_order=8):
    """Integrate the bulk energy density through the thickness at one point.

    Gauss-Legendre quadrature of W along the fiber x3 in [-h, h]; the
    in-plane profile gradient is dropped, matching the closed forms this
    oracle exists to check.
    """
    return through_thickness_energy_from_jet(
        evaluate_jet(surface, x), material, profile, h, quad_order)


def through_thickness_energy_from_jet(jet, material, profile, h, quad_order=8):
    """Same as ``through_thickness_energy`` from a precomputed SurfaceJet.

    The density is read from C_f = F^T F of the fiber deformation gradient
    at every node, never from the invariant algebra of the closed forms.
    A scalar ``h`` gives a float; a 1-d array (or sequence) of them gives the
    array of those floats, each equal to its scalar call.
    """
    if not isinstance(quad_order, (int, np.integer)):
        raise ValueError(f"quad_order must be an integer, got {quad_order!r}")
    if quad_order < 2:
        raise ValueError("quad_order must be at least 2")
    nodes, weights = _gauss_legendre(quad_order)
    h = np.asarray(half_thickness(h), dtype=float)
    x3 = np.multiply.outer(h, nodes)
    F = fiber_deformation_gradient(jet, profile, x3)
    try:
        w = _materials.volumetric_energy(material, C_f=np.swapaxes(F, -1, -2) @ F)
    except _materials.StiffeningLimitError as e:
        # the first failing node, in (h, node) order
        raise _materials.StiffeningLimitError(
            f"inadmissible fiber point x3 = {x3.flat[e.index]:.9g}: {e}") from e
    # a row sum, not w @ weights: an array h then keeps each scalar h's bits
    return float_if_scalar(h * (w * weights).sum(axis=-1))


def fit_h_powers(h_samples, energies):
    """Fit E(h) = c1 h + c3 h^3 by least squares.

    Takes parallel arrays of thicknesses and energies.  Needs at least 4
    distinct, finite samples spanning a decade; no higher-order term is
    included, so keep max(h) small enough that h^5 leakage is below the
    tolerance of the comparison at hand.
    """
    hs = np.asarray(h_samples, dtype=float)
    es = np.asarray(energies, dtype=float)
    if hs.shape != es.shape or hs.ndim != 1:
        raise FitError("h_samples and energies must be 1-d and equally long")
    if len(hs) < 4:
        raise FitError("need at least 4 samples")
    if not (np.all(np.isfinite(hs)) and np.all(np.isfinite(es))):
        raise FitError("h samples and energies must be finite")
    if np.any(np.diff(np.sort(hs)) == 0.0):
        raise FitError("h samples must be distinct")
    if np.any(hs <= 0):
        raise FitError("h samples must be positive")
    if hs.max() / hs.min() < 10.0:
        raise FitError("h samples must span at least one decade")
    order = np.argsort(hs)[::-1]
    hs, es = hs[order], es[order]
    design = np.stack([hs, hs ** 3], axis=1)
    coef, _, rank, _ = np.linalg.lstsq(design, es, rcond=None)
    if rank < 2:
        raise FitError("rank-deficient design matrix")
    resid = design @ coef - es
    return HFit(h_samples=tuple(hs), energies=tuple(es),
                c1=float(coef[0]), c3=float(coef[1]),
                residual_norm=float(np.linalg.norm(resid)))


def _lanes(f, *values):
    # (scalar call?, f on lane arrays, lane arrays of values); scalar
    # values make one lane whose f is still called with a Python float
    scalar = all(np.ndim(v) == 0 for v in values)
    lane_f = (lambda x: np.array([f(float(x[0]))])) if scalar else f
    return (scalar, lane_f, *np.broadcast_arrays(
        *(np.atleast_1d(np.asarray(v, dtype=float)) for v in values)))


def minimize_scalar(f, bracket):
    """Golden-section minimization on a bracket, or on lanes of brackets.

    Scalar ends: ``f`` gets and the result holds Python floats.  Array
    ends: one search per element, run as lanes in lockstep (``f`` maps an
    array of probes to their values); a lane freezes once its width is
    <= 1e-10.  Returns (argmin, fmin).  BracketError if any lane has a
    non-finite end or lo >= hi (before ``f`` is called), its midpoint
    above both ends (no descent), or a nan value it used (``index``).
    """
    tol = 1e-10
    scalar, f, a, b = _lanes(f, *bracket)
    if not np.all(np.isfinite(a) & np.isfinite(b) & (b > a)):
        raise BracketError("bracket must have finite ends with lo < hi")
    fa, fb = f(a), f(b)
    f_mid = f(0.5 * (a + b))
    if np.any((f_mid > fa) & (f_mid > fb)):
        raise BracketError("midpoint above both bracket ends; no descent found")
    c = b - GOLDEN * (b - a)
    d = a + GOLDEN * (b - a)
    fc, fd = f(c), f(d)
    nan = np.isnan([fa, fb, f_mid, fc, fd]).any(axis=0)
    while np.any(b - a > tol):
        # a left lane keeps [a, d], a right lane [c, b]; each probes once
        active = b - a > tol
        left, right = active & (fc <= fd), active & ~(fc <= fd)
        a, fa, b, fb = (np.where(right, c, a), np.where(right, fc, fa),
                        np.where(left, d, b), np.where(left, fd, fb))
        c, fc, d, fd = (np.where(right, d, c), np.where(right, fd, fc),
                        np.where(left, c, d), np.where(left, fc, fd))
        x = np.where(left, b - GOLDEN * (b - a), a + GOLDEN * (b - a))
        fx = f(x)
        nan |= active & np.isnan(fx)
        c, fc = np.where(left, x, c), np.where(left, fx, fc)
        d, fd = np.where(right, x, d), np.where(right, fx, fd)
    raise_first_failure((nan, lambda i: BracketError(
        "f is nan at a probe of the bracket; no minimum to compare")))
    xs, fs = np.stack([a, c, d, b]), np.stack([fa, fc, fd, fb])
    k, lane = np.argmin(fs, axis=0), np.arange(fs.shape[1])
    x, fx = xs[k, lane], fs[k, lane]
    return (float(x[0]), float(fx[0])) if scalar else (x, fx)


def parabolic_refine(f, x0, delta):
    """One exact-for-quadratics refinement of a minimizer estimate, or of
    lanes of them as in ``minimize_scalar``; an estimate whose three
    values are not all finite, or do not curve upward, is kept.
    ValueError for a non-finite ``x0`` or a ``delta`` outside (0, inf)."""
    positive(delta, "parabolic_refine needs delta > 0, got {:g}")
    scalar, f, x0, delta = _lanes(f, x0, delta)
    raise_first_failure((~np.isfinite(x0), lambda i: ValueError(
        f"parabolic_refine needs a finite x0, got {np.ravel(x0)[i]:g}")))
    # a lane with a non-finite value reads as flat (0, 0, 0), which is kept
    probes = [f(x0 - delta), f(x0), f(x0 + delta)]
    fm, f0, fp = np.where(np.isfinite(probes).all(axis=0), probes, 0.0)
    denom = fm - 2.0 * f0 + fp
    keep = denom <= 0.0
    x = np.where(keep, x0, x0 + 0.5 * delta * (fm - fp) / np.where(keep, 1.0, denom))
    return float(x[0]) if scalar else x


@dataclass(frozen=True)
class SvkProfileSolution:
    """Sampled minimizing profile of the 1D fiber energy for SVK bending."""

    x3: np.ndarray
    phi: np.ndarray
    dphi: np.ndarray
    slope: float
    energy: float
    ode_residual: float


def solve_svk_profile_ode(H, lam, mu, h, n_steps=400):
    """Shoot the SVK profile stationarity ODE and scan its free slope.

    Integrates phi'' = 4 H^2 phi - 2 lam H / (2 mu + lam) with phi(0) = 0
    by classical RK4 from the mid-plane outward in both directions, then
    minimizes the through-thickness SVK energy over the initial slope in
    [0.5, 1.5].  The energy is evaluated from the bulk density on a
    developable fiber (principal curvatures 2H and 0), whose C_f is
    diagonal, so from its principal values, and Simpson-integrated on the
    RK4 grid.  ``n_steps`` (at least 100) RK4 steps go each way, so ``x3``
    holds 2 * n_steps + 1 nodes, an even number of intervals for Simpson.
    """
    if n_steps < 100:
        raise ValueError("n_steps must be at least 100")
    if 2.0 * abs(H) * half_thickness(h) / n_steps > 0.05:
        raise ResolutionError("curvature too large for this step count; raise n_steps")
    material = _materials.SaintVenantKirchhoff(lam=lam, mu=mu)
    coef = 4.0 * H * H
    forcing = -2.0 * lam * H / (2.0 * mu + lam)
    dt = h / n_steps

    def profile_for(s):
        # RK4 on the first-order system (phi, psi) from the mid-plane out,
        # in Python floats: phi' = psi, psi' = coef phi + forcing
        phi, psi = [], []
        for step in (-dt, dt):
            p, q = 0.0, s
            for _ in range(n_steps):
                k1p, k1q = q, coef * p + forcing
                k2p, k2q = q + 0.5 * step * k1q, coef * (p + 0.5 * step * k1p) + forcing
                k3p, k3q = q + 0.5 * step * k2q, coef * (p + 0.5 * step * k2p) + forcing
                k4p, k4q = q + step * k3q, coef * (p + step * k3p) + forcing
                p += step * (k1p + 2 * k2p + 2 * k3p + k4p) / 6.0
                q += step * (k1q + 2 * k2q + 2 * k3q + k4q) / 6.0
                phi.append(p)
                psi.append(q)
            if step < 0.0:
                phi, psi = phi[::-1] + [0.0], psi[::-1] + [s]
        return np.array(phi), np.array(psi)

    def profile_energy(phi, psi):
        # C_f on this fiber is diag((1 + 2H phi)^2, 1, psi^2)
        c = np.stack([(1.0 + 2.0 * H * phi) ** 2, np.ones_like(phi), psi ** 2], -1)
        dens = material.principal_energy(c)
        # composite Simpson on the uniform grid
        total = dens[0] + dens[-1] + 4.0 * dens[1:-1:2].sum() + 2.0 * dens[2:-2:2].sum()
        return total * dt / 3.0

    @functools.cache  # parabolic_refine probes the golden-section argmin again
    def fiber_energy(s):
        return profile_energy(*profile_for(s))

    slope, _ = minimize_scalar(fiber_energy, (0.5, 1.5))
    slope = parabolic_refine(fiber_energy, slope, 1e-5)
    phi, psi = profile_for(slope)
    energy = profile_energy(phi, psi)
    second = (phi[2:] - 2.0 * phi[1:-1] + phi[:-2]) / dt ** 2
    residual = float(np.max(np.abs(second - (coef * phi[1:-1] + forcing))))
    return SvkProfileSolution(x3=np.linspace(-h, h, 2 * n_steps + 1), phi=phi,
                              dphi=psi, slope=float(slope),
                              energy=float(energy), ode_residual=residual)


def order_of_residual(residual, h_set):
    """Log-log slope of residual(h) over h_set.

    Nonpositive residuals (at the round-off floor) are excluded with a
    warning.  h_set should span at least 1.5 decades.
    """
    hs = np.asarray(sorted(half_thickness(h_set), reverse=True), dtype=float)
    if hs.max() / hs.min() < 10.0 ** 1.5:
        raise ValueError("h_set must span at least 1.5 decades")
    vals = np.array([residual(h) for h in hs], dtype=float)
    keep = vals > 0.0
    if not np.all(keep):
        warnings.warn("residuals at or below zero hit the round-off floor; "
                      f"excluding {int((~keep).sum())} point(s)", RuntimeWarning)
    if keep.sum() < 2:
        raise ValueError("fewer than 2 usable residuals above the floor")
    return float(_loglog_slope(hs[keep], vals[keep]))


def _loglog_slope(xs, ys):
    # the least-squares slope of log ys against log xs
    return np.polyfit(np.log(np.asarray(xs, dtype=float)),
                      np.log(np.asarray(ys, dtype=float)), 1)[0]
