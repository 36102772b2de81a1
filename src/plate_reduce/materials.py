"""Hyperelastic material models, each owning its rules, and fiber invariants.

The deformation of a thin sheet is resolved along the thickness fiber:
mid-surface jet plus a through-thickness profile give the full 3D
deformation gradient, its principal invariants, and the energy density
of the chosen material model.
"""

from __future__ import annotations

import numpy as np
from dataclasses import dataclass
from typing import Callable, Tuple

from .surface_geometry import (evaluate_jet, fiber_deformation_gradient,
                               finite_number, float_if_scalar, positive,
                               raise_first_failure, real_values,
                               unimodular_tolerance)
from .thickness_profile import (cg_profile, incompressible_profile_general,
                                svk_profile)


class StiffeningLimitError(ValueError):
    """First invariant reached the finite-extensibility limit of the model."""


class MaterialDomainError(ValueError):
    """Invariants outside the domain of the energy density."""


def _pop_numbers(spec, keys):
    return [finite_number(spec.pop(key), key, ValueError) for key in keys]


class MaterialModel(object):
    """Base of the material models; each model owns its rules.

    ``name`` and ``params`` are its config name and parameter keys (in
    field order).  ``energy`` is its density, elementwise over arrays, of
    (I1, I2, I3), or of C_f when ``needs_C_f`` (then isotropic, from C_f's
    principal values); ``density`` its density of C_f, one 3x3 or a stack
    (..., 3, 3), for every model; ``partials`` the gradient and Hessian diagonal of
    that density in (I1, I2, I3); ``lame`` its Lame pair; ``profile`` its
    through-thickness profile rule at a jet (half thickness ``h`` for the
    hyperbolic one).
    """

    needs_C_f = False

    @classmethod
    def from_config(cls, spec):
        """The model of config parameters, popping each key it reads."""
        return cls(*_pop_numbers(spec, cls.params))

    def density(self, C_f):
        C_f = real_values(C_f)
        if np.isnan(C_f).any():  # before det, which warns of a NaN
            raise MaterialDomainError("matrix is not positive definite")
        return self.energy(*matrix_invariants(C_f))

    def partials(self, I1, I2, I3):
        raise TypeError(
            f"{type(self).__name__} has no invariant representation; "
            "its fiber energy cannot be expanded this way")

    def lame(self):
        raise TypeError(f"no Lame constants for {type(self).__name__}")

    def profile(self, jet, h=None):
        return incompressible_profile_general(jet, unimodular_tolerance(jet))


@dataclass(frozen=True)
class Gent(MaterialModel):
    """Incompressible rubber model with a finite extensibility limit."""

    mu: float
    jm: float

    name, params = "gent", ("mu", "jm")

    def __post_init__(self):
        positive((self.mu, self.jm), "Gent requires mu > 0 and jm > 0")

    def _extensibility_gap(self, I1):
        gap = 1.0 - (I1 - 3.0) / self.jm
        raise_first_failure((gap <= 0.0, lambda i: StiffeningLimitError(
            f"I1 = {np.ravel(I1)[i]:.9g} reached the extensibility limit "
            f"Jm + 3 = {self.jm + 3.0:.9g}")))
        return gap

    def energy(self, I1, I2, I3):
        return -0.5 * self.mu * self.jm * np.log(self._extensibility_gap(I1))

    def partials(self, I1, I2, I3):
        self._extensibility_gap(I1)  # the check; the partials divide by Jm - (I1 - 3)
        gap = self.jm - (I1 - 3.0)
        c = 0.5 * self.mu * self.jm
        return (c / gap, 0.0, 0.0), (c / gap**2, 0.0, 0.0)


@dataclass(frozen=True)
class NeoHookean(MaterialModel):
    mu: float

    name, params = "neo_hookean", ("mu",)

    def __post_init__(self):
        positive(self.mu, "NeoHookean requires mu > 0")

    def energy(self, I1, I2, I3):
        return 0.5 * self.mu * (I1 - 3.0)

    def partials(self, I1, I2, I3):
        return (0.5 * self.mu, 0.0, 0.0), (0.0, 0.0, 0.0)


@dataclass(frozen=True)
class MooneyRivlin(MaterialModel):
    mu: float
    chi: float

    name, params = "mooney_rivlin", ("mu", "chi")

    def __post_init__(self):
        positive(self.mu, "MooneyRivlin requires mu > 0")
        if not 0.0 < real_values(self.chi) <= 1.0:
            raise ValueError("MooneyRivlin requires chi in (0, 1]")

    def energy(self, I1, I2, I3):
        return 0.5 * self.mu * (self.chi * (I1 - 3.0) + (1.0 - self.chi) * (I2 - 3.0))

    def partials(self, I1, I2, I3):
        return ((0.5 * self.mu * self.chi, 0.5 * self.mu * (1.0 - self.chi), 0.0),
                (0.0, 0.0, 0.0))


@dataclass(frozen=True)
class CiarletGeymonat(MaterialModel):
    """Compressible model a*I1 + b*I3 - (c/2) ln I3 + d.

    c = 2(a+b) and d = -(3a+b) are derived, so that the reference state
    is stress free with energy zero.  Array parameters are lanes, one
    model each, that ``energy``, ``partials`` and ``cg_profile``
    broadcast over.
    """

    a: float
    b: float

    name, params = "ciarlet_geymonat", ("a", "b")

    def __post_init__(self):
        positive(self.a, "CiarletGeymonat requires a > 0 and b > 0")
        positive(self.b, "CiarletGeymonat requires a > 0 and b > 0")

    @property
    def c(self):
        return 2.0 * (self.a + self.b)

    @property
    def d(self):
        return -(3.0 * self.a + self.b)

    @classmethod
    def from_lame(cls, lam, mu):
        positive((lam, mu), "Lame constants must be positive")
        return cls(a=mu / 2.0, b=lam / 4.0)

    @classmethod
    def from_config(cls, spec):
        """From "lambda" and "mu", or from "a" and "b"."""
        if "lambda" in spec or "mu" in spec:
            return cls.from_lame(*_pop_numbers(spec, ("lambda", "mu")))
        return super().from_config(spec)

    def energy(self, I1, I2, I3):
        raise_first_failure((I3 <= 0.0, lambda i: MaterialDomainError(
            f"I3 = {np.ravel(I3)[i]:.9g} must be positive")))
        return self.a * I1 + self.b * I3 - 0.5 * self.c * np.log(I3) + self.d

    def partials(self, I1, I2, I3):
        s = self.a + self.b
        return (self.a, 0.0, self.b - s / I3), (0.0, 0.0, s / I3**2)

    def lame(self):
        return 4.0 * self.b, 2.0 * self.a

    def profile(self, jet, h=None):
        return cg_profile(jet, self)


@dataclass(frozen=True)
class SaintVenantKirchhoff(MaterialModel):
    lam: float
    mu: float

    name, params, needs_C_f = "svk", ("lambda", "mu"), True

    def __post_init__(self):
        positive((self.lam, self.mu), "SaintVenantKirchhoff requires lam > 0 and mu > 0")

    def energy(self, C_f):
        """Density of C_f, one 3x3 or a stack (..., 3, 3), from its
        principal values (eigvalsh)."""
        C_f = real_values(C_f)
        # a NaN fails without eigvalsh, which need not converge on one
        return self.principal_energy(np.nan if np.isnan(C_f).any() else np.linalg.eigvalsh(C_f))

    density = energy

    def principal_energy(self, c):
        """Density (lam/2) (sum e_i)^2 + mu sum e_i^2, e_i = sqrt(c_i) - 1,
        of the principal values c (..., 3) of C_f: E = U - I in U's
        eigenbasis."""
        c = real_values(c)
        if not np.all(c > 0.0):
            raise MaterialDomainError("matrix is not positive definite")
        e = np.sqrt(c) - 1.0
        return 0.5 * self.lam * e.sum(axis=-1) ** 2 + self.mu * (e * e).sum(axis=-1)

    def lame(self):
        return self.lam, self.mu

    def profile(self, jet, h=None):
        return svk_profile(jet.H, self.lam, self.mu, h)


MODELS = {cls.name: cls for cls in
          (Gent, NeoHookean, MooneyRivlin, CiarletGeymonat, SaintVenantKirchhoff)}


def as_model(material):
    """``material`` itself; TypeError unless it is one of the models here."""
    if not isinstance(material, MaterialModel):
        raise TypeError(f"unknown material {type(material).__name__}")
    return material


def lame_constants(material):
    """Lame pair (lambda, mu) of a compressible model."""
    return as_model(material).lame()


def material_from_config(spec):
    """Build a material from a config mapping like {"model": "gent", ...}."""
    if not isinstance(spec, dict) or "model" not in spec:
        raise ValueError("material spec must be a mapping with a 'model' key")
    spec = dict(spec)
    model = spec.pop("model")
    cls = MODELS.get(model) if isinstance(model, str) else None
    if cls is None:
        raise ValueError(f"unknown material model '{model}'")
    try:
        out = cls.from_config(spec)
    except KeyError as e:
        raise ValueError(f"material '{model}' is missing parameter {e}") from e
    if spec:
        raise ValueError(f"unknown material parameters {sorted(spec)} for '{model}'")
    return out


def molecular_params(n_chains, n_links, k_boltzmann, temperature):
    """Shear modulus and extensibility limit from chain statistics.

    Returns (mu, jm) = (n k T, 3 (N - 1)).
    """
    if not 1.0 < real_values(n_links) < np.inf:
        raise MaterialDomainError("chain segment count N must exceed 1")
    positive((n_chains, k_boltzmann, temperature),
             "chain density, k, and temperature must be positive", MaterialDomainError)
    return n_chains * k_boltzmann * temperature, 3.0 * (n_links - 1.0)


def symmetric_sqrt(A):
    """Principal square root of a symmetric positive-definite matrix, or
    of each matrix in a stack of shape (..., n, n)."""
    A = real_values(A)
    # a NaN fails without eigh, which need not converge on one
    vals, vecs = (np.nan, None) if np.isnan(A).any() else np.linalg.eigh(A)
    if not np.all(vals > 0.0):  # all, not vals[..., 0]: eigh does not sort a NaN first
        raise MaterialDomainError("matrix is not positive definite")
    return (vecs * np.sqrt(vals)[..., None, :]) @ np.swapaxes(vecs, -1, -2)


def volumetric_energy(material, *invariants, C_f=None):
    """Energy density per unit reference volume.

    Every model takes the right Cauchy-Green matrix ``C_f``, one 3x3 or a
    stack of shape (..., 3, 3), and returns a float or an array of the
    stack's leading shape.  Invariant-based models also take (I1, I2, I3),
    scalars or arrays over points; SaintVenantKirchhoff needs ``C_f``.
    """
    if C_f is not None:
        return as_model(material).density(C_f)
    if as_model(material).needs_C_f:
        raise ValueError(f"{type(material).__name__} energy needs C_f")
    return material.energy(*invariants)


def small_strain_energy(material, E_f):
    """Quadratic strain energy (lambda/2) tr^2 E + mu tr E^2 of a model's
    Lame pair: a float for one 3x3 strain, an array for a stack (..., 3, 3)."""
    lam, mu = lame_constants(material)
    E_f = real_values(E_f)
    tr = lambda A: np.trace(A, axis1=-2, axis2=-1)
    return float_if_scalar(0.5 * lam * tr(E_f) ** 2 + mu * tr(E_f @ E_f))


# ---------------------------------------------------------------------------
# fiber deformation and invariants


def matrix_invariants(C):
    """Principal invariants (tr C, (tr^2 C - tr C^2) / 2, det C) of one 3x3
    matrix, or of each matrix in a stack of shape (..., 3, 3)."""
    C = real_values(C)
    i1 = np.trace(C, axis1=-2, axis2=-1)
    return i1, 0.5 * (i1 * i1 - np.trace(C @ C, axis1=-2, axis2=-1)), np.linalg.det(C)


def exact_invariants_from_jet(jet, profile, x3):
    """Principal invariants of C_f = F^T F built numerically from the jet;
    floats for one jet and a scalar x3, else arrays over F's stack."""
    F = fiber_deformation_gradient(jet, profile, x3)
    return tuple(map(float_if_scalar, matrix_invariants(np.swapaxes(F, -1, -2) @ F)))


def exact_invariants(surface, x, profile, x3):
    """Invariants of the fiber deformation at reference point x, offset x3."""
    return exact_invariants_from_jet(evaluate_jet(surface, x), profile, x3)


@dataclass(frozen=True)
class InvariantSeries:
    """Quadratic-in-x3 coefficients of the fiber invariants, plus an exact
    evaluator from the same jet data.

    Each triple is (constant, linear, quadratic).
    """

    i1: Tuple[float, float, float]
    i2: Tuple[float, float, float]
    i3: Tuple[float, float, float]
    exact: Callable[[float], Tuple[float, float, float]]

    def at(self, x3):
        """Evaluate the truncated series at offset x3."""
        ev = lambda c: c[0] + c[1] * x3 + c[2] * x3 * x3
        return ev(self.i1), ev(self.i2), ev(self.i3)


def invariant_series(jet, profile):
    """Fiber invariants through quadratic order for a cubic profile.

    ``jet`` needs only the scalar fields trC, detC, H, K, b1; ``profile``
    needs alpha, beta, gamma (cubic coefficients, phi(0) = 0).  Fields
    and coefficients may be arrays over points (a JetBatch and the
    profile built from it).  The closed-form route, independent of the
    matrix route above.
    """
    trC, detC = jet.trC, jet.detC
    H, K, b1 = jet.H, jet.K, jet.b1
    al, be, ga = profile.alpha, profile.beta, profile.gamma

    # tr C_phi and phi'^2 through x3^2
    t0, t1, t2 = trC, 2.0 * al * b1, 2.0 * be * b1 + al * al * (2.0 * H * b1 - K * trC)
    p0, p1, p2 = al * al, 4.0 * al * be, 4.0 * be * be + 6.0 * al * ga

    i1 = (t0 + p0, t1 + p1, t2 + p2)

    # det C_phi through x3^2
    d0 = detC
    d1 = 4.0 * H * al * detC
    d2 = detC * (4.0 * H * be + (4.0 * H * H + 2.0 * K) * al * al)

    i3 = (p0 * d0,
          p0 * d1 + p1 * d0,
          p0 * d2 + p1 * d1 + p2 * d0)

    i2 = (d0 + p0 * t0,
          d1 + p0 * t1 + p1 * t0,
          d2 + p0 * t2 + p1 * t1 + p2 * t0)

    return InvariantSeries(i1=i1, i2=i2, i3=i3,
                           exact=lambda x3: fiber_invariants(jet, profile, x3))


def fiber_invariants(jet, profile, x3):
    """Principal invariants of C_f at offset x3 from the jet's scalar
    fields trC, detC, H, K, b1 and the profile's phi and dphi; exact for
    any profile, and independent of the matrix route."""
    trC, detC, H, K, b1 = jet.trC, jet.detC, jet.H, jet.K, jet.b1
    phi = profile.phi(x3)
    dphi = profile.dphi(x3)
    tr_cphi = trC + 2.0 * phi * b1 + phi * phi * (2.0 * H * b1 - K * trC)
    area = 1.0 + 2.0 * H * phi + K * phi * phi
    det_cphi = detC * area * area
    pp = dphi * dphi
    return tr_cphi + pp, det_cphi + pp * tr_cphi, pp * det_cphi
