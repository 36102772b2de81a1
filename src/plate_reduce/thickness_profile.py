"""Through-thickness displacement profiles of the normal fiber.

Each profile phi maps the signed thickness offset x3 to the normal
displacement of the deformed fiber, with phi(0) = 0 and phi'(0) > 0.
Closed-form profiles here are the stationary ones for their material
class; the generic cubic carrier is shared by all series formulas.
"""

from __future__ import annotations

import numpy as np
from dataclasses import dataclass

from .surface_geometry import (_gauss_legendre, _where, float_if_scalar,
                               half_thickness, positive,
                               raise_first_failure, unimodular_tolerance)

SHC_SERIES_CUTOFF = 1e-4


class ProfileConstraintError(ValueError):
    """Profile preconditions (unimodular metric, admissible fiber) violated."""


def _shc(z):
    # sinh(z)/z, stable through z = 0; elementwise over arrays
    series = np.abs(z) < SHC_SERIES_CUTOFF
    z2, zd = z * z, _where(series, 1.0, z)
    return _where(series, 1.0 + z2 / 6.0 + z2 * z2 / 120.0, np.sinh(zd) / zd)


@dataclass(frozen=True)
class PolyProfile:
    """Cubic fiber profile alpha x3 + beta x3^2 + gamma x3^3.

    The coefficients may be arrays over points, one profile per point.
    """

    alpha: float
    beta: float = 0.0
    gamma: float = 0.0

    kind = "cubic"

    def __post_init__(self):
        positive(self.alpha, "profile slope alpha at the mid-plane must be positive")

    def phi(self, x3):
        return x3 * (self.alpha + x3 * (self.beta + x3 * self.gamma))

    def dphi(self, x3):
        return self.alpha + x3 * (2.0 * self.beta + 3.0 * x3 * self.gamma)


def _require_finite_H(H):
    H = np.asarray(H, dtype=float)
    raise_first_failure((~np.isfinite(H), lambda i: ValueError(
        f"the SVK profile needs a finite H, got {np.ravel(H)[i]:g}")))


@dataclass(frozen=True)
class HyperbolicProfile:
    """Stationary fiber profile of the Saint Venant-Kirchhoff sheet.

    Member of the family phi_p (1 - cosh(2 H x3)) + xi sinh(2 H x3) with
    phi_p = lam / (2 H (2 mu + lam)) and mid-plane slope alpha_bar =
    2 H xi; evaluated through sinh(z)/z so small curvature (and H = 0,
    where xi alone is meaningless) stays stable.
    """

    H: float
    lam: float
    mu: float
    h: float
    alpha_bar: float

    kind = "hyperbolic"

    def __post_init__(self):
        _require_finite_H(self.H)
        positive((self.lam, self.mu), "Lame constants must be positive")
        half_thickness(self.h)
        positive(self.alpha_bar, "mid-plane slope 2 H xi must be positive")

    @property
    def alpha(self):
        return self.alpha_bar

    @property
    def xi(self):
        """alpha_bar / (2 H); inf at H = 0."""
        with np.errstate(divide="ignore"):
            return _where(self.H != 0.0, np.divide(self.alpha_bar, 2.0 * self.H), np.inf)

    @property
    def beta(self):
        return -self.lam * self.H / (2.0 * self.mu + self.lam)

    @property
    def gamma(self):
        return 2.0 * self.alpha_bar * self.H * self.H / 3.0

    def phi(self, x3):
        ratio = self.lam / (2.0 * self.mu + self.lam)
        s1 = _shc(self.H * x3)
        return (-ratio * self.H * x3 * x3 * s1 * s1
                + self.alpha_bar * x3 * _shc(2.0 * self.H * x3))

    def dphi(self, x3):
        ratio = self.lam / (2.0 * self.mu + self.lam)
        z = 2.0 * self.H * x3
        return self.alpha_bar * np.cosh(z) - ratio * np.sinh(z)


class ExactIncompressibleProfile(object):
    """Profile solving det C_f = 1 exactly along the fiber.

    phi satisfies phi + H phi^2 + (K/3) phi^3 = x3 / sqrt(det C); the
    cubic is inverted numerically on its monotone branch through 0, one
    scalar solve per element of an array ``x3``.
    """

    def __init__(self, jet):
        self.H = jet.H
        self.K = jet.K
        self.root_detC = np.sqrt(jet.detC)

    def _antiderivative(self, p):
        return p + self.H * p * p + self.K * p ** 3 / 3.0

    def _area_factor(self, p):
        return 1.0 + 2.0 * self.H * p + self.K * p * p

    def phi(self, x3):
        if np.ndim(x3):
            return np.vectorize(self.phi, otypes=[float])(x3)
        t = x3 / self.root_detC
        if t == 0.0:
            return 0.0
        sign = 1.0 if t > 0 else -1.0
        target = abs(t)
        lo, hi = 0.0, abs(t)
        f = lambda p: sign * self._antiderivative(sign * p) - target
        # the monotone branch ends where the area factor first vanishes in
        # p > 0: at 1/q for the larger root q of q^2 + 2 H sign q + K > 0
        disc = self.H * self.H - self.K
        q = -sign * self.H + np.sqrt(disc) if disc >= 0.0 else 0.0
        p_end = 1.0 / q if q > 0.0 else np.inf
        while f(hi) < 0.0:
            if hi >= p_end:
                raise ProfileConstraintError(
                    f"fiber offset x3 = {x3:.6g} leaves the orientation-preserving range")
            hi = min(2.0 * hi, p_end)
        # safeguarded Newton: f' is the area factor, each iterate shrinks
        # the bracket (lo, hi] of the root, and a step leaving it bisects
        p = hi
        while True:
            value = f(p)
            lo, hi = (p, hi) if value < 0.0 else (lo, p)
            area = self._area_factor(sign * p)
            p_next = p - value / area if area > 0.0 else lo
            if not lo < p_next <= hi:
                p_next = 0.5 * (lo + hi)
            if abs(p_next - p) <= 1e-15 + 8.9e-16 * abs(p):
                return sign * p_next
            p = p_next

    def dphi(self, x3):
        if np.ndim(x3):
            return np.vectorize(self.dphi, otypes=[float])(x3)
        p = self.phi(x3)
        area = self._area_factor(p)
        if area <= 0.0:
            raise ProfileConstraintError(
                f"fiber offset x3 = {x3:.6g} leaves the orientation-preserving range")
        return 1.0 / (self.root_detC * area)


def incompressible_profile(jet):
    """Cubic profile keeping det C_f = 1 through quadratic order, for an
    area-preserving mid-surface.

    Coefficients {1, -H, (6 H^2 - K)/3}.  Raises ProfileConstraintError
    when det C deviates from 1; use ``incompressible_profile_general``
    for surfaces that stretch area.
    """
    tol = unimodular_tolerance(jet)
    raise_first_failure((np.abs(jet.detC - 1.0) > tol, lambda i: ProfileConstraintError(
        f"det C = {np.ravel(jet.detC)[i]:.12g} is not 1 within {tol:g}; "
        "use incompressible_profile_general for area-changing stretches")))
    return incompressible_profile_general(jet, tol)


def incompressible_profile_general(jet, tol=0.0):
    """Cubic profile keeping det C_f = 1 through quadratic order for any
    mid-surface stretch.

    det C within ``tol`` of 1 is taken as 1, which gives the coefficients
    of ``incompressible_profile``; over a batch, point by point.
    """
    d = jet.detC
    raise_first_failure((d <= 0, lambda i: ProfileConstraintError("det C must be positive")))
    d = _where(np.abs(d - 1.0) <= tol, 1.0, d)
    return PolyProfile(alpha=1.0 / np.sqrt(d),
                       beta=-jet.H / d,
                       gamma=(6.0 * jet.H * jet.H - jet.K) / (3.0 * d ** 1.5))


def cg_profile(jet, material):
    """Energy-minimizing cubic profile for the Ciarlet-Geymonat model.

    alpha minimizes the leading-order fiber energy, beta the h^3 term;
    the cubic coefficient does not enter the h^3 energy at this alpha and
    is fixed to zero.
    """
    a, b = material.a, material.b
    s = a + b
    D = a + b * jet.detC
    alpha = np.sqrt(s / D)
    beta = -(a / (8.0 * D)) * jet.b1 + (s * (a - 4.0 * b * jet.detC) / (4.0 * D * D)) * jet.H
    return PolyProfile(alpha=float_if_scalar(alpha), beta=float_if_scalar(beta), gamma=0.0)


def svk_profile(H, lam, mu, h):
    """Energy-minimizing hyperbolic profile for Saint Venant-Kirchhoff.

    The free odd coefficient is fixed by minimizing the fiber energy over
    the stationary family at half thickness h, elementwise over arrays.
    """
    rows = np.broadcast(H, lam, mu, h).shape
    at = lambda v, i: np.broadcast_to(v, rows).ravel()[i]
    _require_finite_H(np.broadcast_to(H, rows))
    positive((lam, mu), "Lame constants must be positive")
    with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
        c = np.cosh(2.0 * H * half_thickness(h))
        alpha_bar = (lam * lam * c + 4.0 * mu * (lam + mu)) / ((2.0 * mu + lam) ** 2 * c)
    # cosh(2 H h) overflows, or lam and mu underflow to 0 / 0
    raise_first_failure((~((0.0 < alpha_bar) & (alpha_bar < np.inf)), lambda i:
                         OverflowError(f"the SVK profile at H = {at(H, i):g}, "
                                       f"h = {at(h, i):g}")))
    return HyperbolicProfile(H=H, lam=lam, mu=mu, h=h,
                             alpha_bar=float_if_scalar(alpha_bar))


def deformed_thickness(profile, h):
    """Thickness of the deformed sheet: 16-point Gauss quadrature of phi'
    over [-h, h]."""
    half_thickness(h)
    nodes, weights = _gauss_legendre(16)
    return h * sum(w * profile.dphi(h * t) for t, w in zip(nodes, weights))
