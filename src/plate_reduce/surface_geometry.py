"""Point-local differential geometry of a deformed mid-surface.

A deformation maps a flat reference domain into 3-space.  Everything the
plate energy formulas need at a point (tangents, normal, stretch
eigenframe, curvature invariants) is collected into a single jet record.

The jet code is elementwise over a trailing point shape: ``evaluate_jet``
runs it on one point (shape ``()``), ``evaluate_jets`` on N points at once
(shape ``(N,)``), and the downstream formulas accept either record.
"""

from __future__ import annotations

import functools
import numbers

import numpy as np
from dataclasses import dataclass
from typing import Callable, Optional, Tuple

# Relative eigenvalue gap below which the stretch frame is treated as an
# exact tie and pinned to the coordinate axes.
UMBILIC_GAP = 1e-12


@functools.lru_cache(maxsize=None)
def _gauss_legendre(n):
    # the n-point Gauss-Legendre rule on [-1, 1], built once, shared read-only
    nodes, weights = np.polynomial.legendre.leggauss(n)
    nodes.flags.writeable = weights.flags.writeable = False
    return nodes, weights


# np.float_power rounds an array like the scalar ``**`` of each point; the
# array ``**`` does not, and the finite-difference stencil amplifies any
# change of rounding in ``surface.map`` by 1/step^2.
_pow = np.float_power


def _where(cond, a, b):
    # np.where that keeps a single point's values scalar
    if np.ndim(cond) == 0:
        return a if cond else b
    return np.where(cond, a, b)


class DomainError(ValueError):
    """Evaluation point outside the reference domain (or too close to its
    boundary for the requested finite-difference stencil)."""


class DegenerateImmersionError(ValueError):
    """The surface gradient lost rank at the evaluation point."""


class AreaDistortionError(ValueError):
    """A formula that assumes det C = 1 was applied where det C != 1."""


@dataclass(frozen=True)
class ParametricSurface:
    """Deformation of a flat rectangular reference domain into 3-space.

    The callables broadcast over trailing point axes: given ``x`` of shape
    ``(2, ...)`` they return shapes ``(3, ...)``, ``(3, 2, ...)`` and
    ``(3, 2, 2, ...)``.  ``evaluate_jet`` calls them with one point of
    shape ``(2,)``; ``evaluate_jets`` calls them once with ``(2, N)`` and
    raises TypeError when a callable returns any other shape.  A surface
    whose callables only take single points works with ``evaluate_jet``.

    Parameters
    ----------
    map : callable
        x (2, ...) -> y (3, ...).
    grad : callable, optional
        x -> dy (3, 2, ...).  Required in analytic mode.
    hess : callable, optional
        x -> ddy (3, 2, 2, ...), symmetric in axes 1 and 2.  Required in
        analytic mode.
    derivative_mode : str
        "analytic" or "finite-difference".
    step : float
        Central-difference step for finite-difference mode and for any
        in-plane differencing done on top of the surface.
    domain : tuple
        ((x1_min, x1_max), (x2_min, x2_max)).
    """

    map: Callable[[np.ndarray], np.ndarray]
    grad: Optional[Callable[[np.ndarray], np.ndarray]] = None
    hess: Optional[Callable[[np.ndarray], np.ndarray]] = None
    derivative_mode: str = "analytic"
    step: float = 1e-4
    domain: Tuple[Tuple[float, float], Tuple[float, float]] = ((-0.5, 0.5), (-0.5, 0.5))
    name: str = "custom"

    def __post_init__(self):
        if self.derivative_mode not in ("analytic", "finite-difference"):
            raise ValueError("derivative_mode must be 'analytic' or 'finite-difference'")
        if self.derivative_mode == "analytic" and (self.grad is None or self.hess is None):
            raise ValueError("analytic mode requires grad and hess callables")
        positive(self.step, "step must be positive")


@dataclass(frozen=True)
class SurfaceJet:
    """Second-order data of a surface at one reference point.

    The stretch eigenframe (r1, r2) lives in the reference plane with
    lambda1 >= lambda2 > 0 and r2 the +90 degree rotation of r1; (l1, l2)
    is its image frame on the tangent plane, and ``shape_op`` is the
    surface gradient of the normal expressed in that frame.
    """

    x: np.ndarray
    grad_y: np.ndarray
    hess_y: np.ndarray
    grad_nu: np.ndarray
    a1: np.ndarray
    a2: np.ndarray
    normal: np.ndarray
    C: np.ndarray
    B: np.ndarray
    lambda1: float
    lambda2: float
    r1: np.ndarray
    r2: np.ndarray
    l1: np.ndarray
    l2: np.ndarray
    shape_op: np.ndarray
    H: float
    K: float
    b1: float
    trC: float
    detC: float
    derivative_mode: str = "analytic"


class JetBatch(SurfaceJet):
    """The jets of N points as a struct of arrays: each SurfaceJet field
    with the point axis appended, so the scalars (lambda1, H, K, b1, trC,
    detC, ...) are (N,) arrays, ``x`` is (2, N), ``grad_y`` (3, 2, N).
    A formula with a per-point branch, like Gent's, evaluates each branch
    over the whole batch and picks with a mask; a batch is never split.
    """

    def __len__(self):
        return self.x.shape[-1]


def raise_first_failure(*checks):
    """Raise the error of the first failing point, if any point fails.

    Each check is a pair (failed, make_error): a boolean mask over the
    points (0-d for a single point) and a function of a point's position
    that builds its error.  Checks are listed in the order one point is
    checked, so the error is the one a point-by-point loop would raise.
    The raised error carries that position as its ``index`` attribute.
    """
    masks = [np.ravel(failed) for failed, _ in checks]
    if not any(mask.any() for mask in masks):
        return
    i = int(np.flatnonzero(np.logical_or.reduce(masks))[0])
    for mask, (_, make_error) in zip(masks, checks):
        if mask[i]:
            err = make_error(i)
            err.index = i
            raise err


def finite_number(value, key, error):
    """``value`` as a float; ``error`` unless it is a finite real number.

    The one number check of config parsing (surface and material
    parameters and top-level numbers): booleans, strings, NaN and
    infinities are all rejected.
    """
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise error(f"'{key}' must be a number, got {value!r}")
    return float(finite(value, f"'{key}' must be finite, got {{:g}}", error))


def integer(value, name, low, high, error):
    """``value`` as an int; ``error`` unless it is a Python or numpy integer
    (never a bool) in [low, high].  The one integer rule of the guards."""
    if isinstance(value, bool) or not isinstance(value, (int, np.integer)):
        raise error(f"{name} must be an integer, got {value!r}")
    if value < low:
        raise error(f"{name} must be at least {low}, got {value}")
    if value > high:
        raise error(f"{name} must be at most {high}, got {value}")
    return int(value)


def _real(v):
    try:
        return float(v) if isinstance(v, numbers.Real) else np.nan
    except OverflowError:  # an integer past the double range, like 10**400
        return np.inf if v > 0 else -np.inf


def real_values(value):
    """``value`` as a float array: an element that is not a real number
    (None, a string, a complex) reads as NaN, an integer past the double
    range as the infinity of its sign.  The one number rule of the guards."""
    x = np.asarray(value)
    if x.dtype.kind in "biuf":
        return x.astype(float, copy=False)
    return np.vectorize(_real, otypes=[float])(np.asarray(value, dtype=object))


def read_point(x):
    """``x`` as a (2,) float array; a ValueError names any other shape."""
    x = real_values(x)
    if x.shape != (2,):
        raise ValueError(f"a point must have shape (2,), got {x.shape}")
    return x


def above(low, value, message, error):
    """``value``, or ``error(message.format(x))``, with ``index``, for its
    first element x outside (low, inf); NaN, and so anything not a real
    number, fails.  The one interval rule of the guards."""
    x = real_values(value)
    raise_first_failure((~((x > low) & (x < np.inf)),
                         lambda i: error(message.format(np.ravel(x)[i]))))
    return value


def positive(value, message, error=ValueError):
    return above(0.0, value, message, error)


def finite(value, message, error):
    return above(-np.inf, value, message, error)


def half_thickness(h):
    return positive(real_values(h),
                    "half thickness must be positive and finite, got {:g}")


def float_if_scalar(value):
    """A Python float for a single point's value; arrays pass through."""
    return float(value) if np.ndim(value) == 0 else value


def unimodular_tolerance(jet):
    """Tolerance on |det C - 1| within which ``jet`` counts as area
    preserving: 1e-8 for analytic jets, 1e-4 for finite-difference ones."""
    return 1e-8 if getattr(jet, "derivative_mode", "analytic") == "analytic" else 1e-4


def _dot(a, b):
    return a[0] * b[0] + a[1] * b[1] + a[2] * b[2]


def _cross(a, b):
    return np.array([a[1] * b[2] - a[2] * b[1],
                     a[2] * b[0] - a[0] * b[2],
                     a[0] * b[1] - a[1] * b[0]])


def _call(surface, what, x, shape):
    out = np.asarray(getattr(surface, what)(x), dtype=float)
    expected = shape + x.shape[1:]
    if out.shape != expected:
        raise TypeError(
            f"{what} of surface '{surface.name}' returned shape {out.shape} "
            f"for points of shape {x.shape}; expected {expected} (callables "
            "must broadcast over trailing point axes, see ParametricSurface)")
    return out


def _central(f, x, step):
    """Central differences of ``f`` along both reference coordinates at
    the points ``x`` (2, ...)."""
    return [(f(x + e) - f(x - e)) / (2.0 * step)
            for e in step * np.eye(2).reshape((2, 2) + (1,) * (x.ndim - 1))]


def _lattice(bounds, nx, ny, inset):
    """(xs, ys, points): the nx x ny linspace nodes of ``bounds``, ends
    ``inset`` inside, and their (nx * ny, 2) rows, x1 outer, x2 inner."""
    (u0, u1), (v0, v1) = bounds
    xs = np.linspace(u0 + inset, u1 - inset, nx)
    ys = np.linspace(v0 + inset, v1 - inset, ny)
    return xs, ys, np.column_stack([np.repeat(xs, ny), np.tile(ys, nx)])


def _fd_derivatives(surface, x, step):
    """Gradient (3, 2, ...) and Hessian (3, 2, 2, ...) of the surface map
    at ``x`` (2, ...) by nested central differences."""
    def grad(p):
        return np.stack(_central(lambda q: _call(surface, "map", q, (3,)), p, step), axis=1)
    h = np.stack(_central(grad, x, step), axis=2)
    # nested differences are not exactly symmetric; enforce it
    return grad(x), 0.5 * (h + h.swapaxes(1, 2))


def _eigen_gap(C):
    """Mean and half gap of the eigenvalues of 2x2 symmetric ``C`` (2, 2,
    ...), and the umbilic mask of the stretch frame and its connectors."""
    mean = 0.5 * (C[0, 0] + C[1, 1])
    gap = np.hypot(0.5 * (C[0, 0] - C[1, 1]), C[0, 1])
    return mean, gap, gap <= UMBILIC_GAP * np.abs(mean)


def _stretch_frame(C):
    """Eigenvalues and deterministic eigenframe of 2x2 SPD matrices.

    ``C`` is (2, 2, ...).  Returns (mu1, mu2, r1, r2) with mu1 >= mu2 and
    r2 = rot90(r1).  Ties are pinned to r1 = e1; otherwise r1 is chosen in
    the +x1 half plane (+x2 on its edge).
    """
    c11, c12, c22 = C[0, 0], C[0, 1], C[1, 1]
    mean, gap, tie = _eigen_gap(C)
    mu1 = mean + gap
    mu2 = mean - gap
    # eigenvector of mu1 from the longer of the two rows of C - mu1 I
    v1x, v1y = c12, mu1 - c11
    v2x, v2y = mu1 - c22, c12
    first = v1x * v1x + v1y * v1y >= v2x * v2x + v2y * v2y
    vx = _where(first, v1x, v2x)
    vy = _where(first, v1y, v2y)
    norm = _where(tie, 1.0, np.sqrt(vx * vx + vy * vy))
    sign = _where((vx < 0.0) | ((vx == 0.0) & (vy < 0.0)), -1.0, 1.0)
    r1x = _where(tie, 1.0, sign * vx / norm)
    r1y = _where(tie, 0.0, sign * vy / norm)
    return mu1, mu2, np.array([r1x, r1y]), np.array([-r1y, r1x])


def _jet_fields(surface, x):
    """Every SurfaceJet field at the points ``x`` (2, ...), the point
    shape trailing each field's own shape.

    Raises the DomainError or DegenerateImmersionError of the first
    failing point.
    """
    fd = surface.derivative_mode == "finite-difference"
    margin = 2.0 * surface.step if fd else 0.0
    (lo1, hi1), (lo2, hi2) = surface.domain
    outside = ~((lo1 + margin <= x[0]) & (x[0] <= hi1 - margin)
                & (lo2 + margin <= x[1]) & (x[1] <= hi2 - margin))
    # points outside are evaluated at the domain center; they raise below
    center = np.reshape([0.5 * (lo1 + hi1), 0.5 * (lo2 + hi2)], (2,) + (1,) * (x.ndim - 1))
    xe = np.where(outside, center, x)
    if fd:
        grad_y, hess_y = _fd_derivatives(surface, xe, surface.step)
    else:
        grad_y = _call(surface, "grad", xe, (3, 2))
        hess_y = _call(surface, "hess", xe, (3, 2, 2))

    a1 = grad_y[:, 0]
    a2 = grad_y[:, 1]
    w = _cross(a1, a2)
    area = np.sqrt(_dot(w, w))
    c11, c12, c22 = _dot(a1, a1), _dot(a1, a2), _dot(a2, a2)
    flat = area <= 1e-12 * np.maximum(np.maximum(c11, c22), 1e-30)
    area = _where(flat, 1.0, area)
    nu = w / area

    C = np.array([[c11, c12], [c12, c22]])
    B = (grad_y[:, None, 0] * grad_y[None, :, 0]
         + grad_y[:, None, 1] * grad_y[None, :, 1])
    trC = c11 + c22
    detC = c11 * c22 - c12 * c12

    mu1, mu2, r1, r2 = _stretch_frame(C)

    def point(i):
        x1, x2 = np.reshape(x, (2, -1))[:, i]
        return f"({x1:.6g}, {x2:.6g})"

    inset = f" inset by its finite-difference margin {margin:g}" if fd else ""
    raise_first_failure(
        (outside, lambda i: DomainError(
            f"point {point(i)} outside domain of '{surface.name}'{inset}")),
        (flat, lambda i: DegenerateImmersionError(
            f"surface gradient is rank deficient at {point(i)}")),
        # not > rather than <=, so a NaN stretch (a surface evaluated off
        # its real range, such as a sphere cap smaller than the domain) fails
        (~(mu2 > 0.0), lambda i: DegenerateImmersionError(
            f"stretch tensor not positive definite at {point(i)}")),
    )
    lam1 = np.sqrt(mu1)
    lam2 = np.sqrt(mu2)
    l1 = (a1 * r1[0] + a2 * r1[1]) / lam1
    l2 = (a1 * r2[0] + a2 * r2[1]) / lam2

    # gradient of the unit normal from the product-rule gradient of a1 x a2
    dws = [_cross(hess_y[:, 0, k], a2) + _cross(a1, hess_y[:, 1, k]) for k in range(2)]
    cols = [(dw - nu * _dot(nu, dw)) / area for dw in dws]
    grad_nu = np.array(cols).swapaxes(0, 1)

    # surface gradient of the normal in the (l1, l2) frame
    dnu_r1 = cols[0] * r1[0] + cols[1] * r1[1]
    dnu_r2 = cols[0] * r2[0] + cols[1] * r2[1]
    s11 = _dot(l1, dnu_r1) / lam1
    s12 = _dot(l1, dnu_r2) / lam2
    s21 = _dot(l2, dnu_r1) / lam1
    s22 = _dot(l2, dnu_r2) / lam2

    return dict(
        x=x, grad_y=grad_y, hess_y=hess_y, grad_nu=grad_nu,
        a1=a1, a2=a2, normal=nu, C=C, B=B,
        lambda1=lam1, lambda2=lam2, r1=r1, r2=r2, l1=l1, l2=l2,
        shape_op=np.array([[s11, s12], [s21, s22]]),
        H=0.5 * (s11 + s22), K=s11 * s22 - s12 * s21, b1=mu1 * s11 + mu2 * s22,
        trC=trC, detC=detC, derivative_mode=surface.derivative_mode,
    )


_SCALAR_FIELDS = ("lambda1", "lambda2", "H", "K", "b1", "trC", "detC")


def evaluate_jet(surface, x):
    """Evaluate the full second-order jet of ``surface`` at ``x`` (2,).

    Raises ValueError for ``x`` of another shape, DomainError outside the
    domain and DegenerateImmersionError if the surface gradient loses rank.
    """
    jet = _jet_fields(surface, read_point(x))
    for name in _SCALAR_FIELDS:
        jet[name] = float(jet[name])
    return SurfaceJet(**jet)


def evaluate_jets(surface, points):
    """Evaluate the jets of ``surface`` at every row of ``points`` (N, 2)
    in one vectorized pass.

    The surface callables are called once with all points (see
    ParametricSurface).  Raises the DomainError or
    DegenerateImmersionError that ``evaluate_jet`` raises at the first
    failing row, with that row as the error's ``index``.
    """
    points = real_values(points)
    if points.ndim != 2 or points.shape[1] != 2:
        raise ValueError(f"points must have shape (N, 2), got {points.shape}")
    return JetBatch(**_jet_fields(surface, np.ascontiguousarray(points.T)))


def appendix_H_K(jet):
    """Mean and Gauss curvature from raw Cartesian second derivatives.

    Valid only for area-preserving mid-surfaces (det C = 1); an
    independent cross-check of the eigenframe route.
    """
    tol = unimodular_tolerance(jet)
    if abs(jet.detC - 1.0) > tol:
        raise AreaDistortionError(
            f"det C = {jet.detC:.12g} is not 1 within {tol:g}; "
            "this shortcut assumes an area-preserving mid-surface"
        )
    nu = jet.normal
    b = np.array([[nu @ jet.hess_y[:, 0, 0], nu @ jet.hess_y[:, 0, 1]],
                  [nu @ jet.hess_y[:, 1, 0], nu @ jet.hess_y[:, 1, 1]]])
    a1, a2 = jet.a1, jet.a2
    two_h = (a1 @ a2) * (b[1, 0] + b[0, 1]) - (a2 @ a2) * b[0, 0] - (a1 @ a1) * b[1, 1]
    k = b[0, 0] * b[1, 1] - b[1, 0] * b[0, 1]
    return 0.5 * two_h, k


def fiber_deformation_gradient(jet, profile, x3, grad_phi=None):
    """Deformation gradients along the thickness fiber at offsets ``x3``.

    Columns 1-2 are the in-plane gradient of the displaced surface, column
    3 the fiber direction; the in-plane gradient of the profile is dropped
    unless ``grad_phi`` (2, ...) is supplied.  ``jet`` is a SurfaceJet or
    a JetBatch, whose point axis trails the shapes of ``x3`` and of the
    profile's coefficients.  Returns a (..., 3, 3) stack over the broadcast
    shape: one 3x3 for one jet and a scalar ``x3``.
    """
    phi = np.asarray(profile.phi(x3))
    normal = np.moveaxis(jet.normal, 0, -1)
    cols = (np.moveaxis(jet.grad_y, (0, 1), (-2, -1))
            + phi[..., None, None] * np.moveaxis(jet.grad_nu, (0, 1), (-2, -1)))
    if grad_phi is not None:
        cols = cols + np.moveaxis(np.asarray(grad_phi), 0, -1)[..., None, :] * normal[..., None]
    F = np.empty(cols.shape[:-1] + (3,))
    F[..., :2] = cols
    F[..., 2] = np.asarray(profile.dphi(x3))[..., None] * normal
    return F


@dataclass(frozen=True)
class OrientationReport:
    """Minimum fiber Jacobian over a sampling grid and fiber range."""

    min_det_F: float
    argmin_x: Tuple[float, float]
    argmin_x3: float
    n_points: int
    n_nonpositive: int
    passed: bool


def verify_orientation(surface, profile, h):
    """Check that the thickened deformation preserves orientation at 9
    fiber offsets over a 5 x 5 grid of the domain.

    ``profile`` is a rule jet -> profile, such as
    ``incompressible_profile_general`` or ``lambda jet: P`` for a fixed
    profile P, applied to the jets of the grid and of its neighbors one
    ``surface.step`` away; the in-plane profile gradient is estimated by
    central differences and included in the fiber deformation gradient.
    Diagnostic only: negative Jacobians are reported, not raised.
    """
    half_thickness(h)
    step = surface.step
    margin = 2.0 * step + (2.0 * step if surface.derivative_mode == "finite-difference" else 0.0)
    points = _lattice(surface.domain, 5, 5, margin)[2]
    x3s = np.linspace(-h, h, 9)
    jet = evaluate_jets(surface, points)

    x3 = x3s[:, None]  # over (x3, point)
    grad_phi = _central(lambda p: profile(evaluate_jets(surface, p.T)).phi(x3), points.T, step)
    det = np.linalg.det(fiber_deformation_gradient(jet, profile(jet), x3, grad_phi)).T.ravel()

    # the first minimum in (x1, x2, x3) loop order; a NaN Jacobian is
    # the minimum and fails the check
    n = int(np.argmin(det))
    point, k = divmod(n, len(x3s))
    return OrientationReport(
        min_det_F=float(det[n]),
        argmin_x=(float(points[point, 0]), float(points[point, 1])),
        argmin_x3=float(x3s[k]), n_points=det.size,
        n_nonpositive=int(np.sum(det <= 0.0)), passed=bool(det[n] > 0.0),
    )


# ---------------------------------------------------------------------------
# catalog surfaces


def _masked(cond, a, b):
    # _where for an ``a`` given only where ``cond`` holds; overwrites ``b``
    if np.ndim(cond) == 0:
        return a if cond else b
    b[cond] = a
    return b


def _bump_scalars(v, amp, w, derivatives=True):
    """Radial building blocks of the area-preserving bump at v = |x|^2 / 2.

    Returns (m, m', m'', zeta_v, zeta_vv) for the planar shrink factor m
    and the height zeta; primes are d/dv.  Elementwise over arrays of v.
    ``surface.grad`` and ``surface.hess`` need all five; ``surface.map``
    needs only (m, zeta_v), which ``derivatives=False`` computes alone.
    """
    q = v / w
    e = np.exp(-q * q)
    gp = 2.0 * amp * v * e / w ** 2
    # series branches, on the elements u where the direct quotients lose
    # digits as v -> 0; the direct ones are computed with v = 1 there
    series = q < 0.01
    vd = _where(series, 1.0, v)
    u = v[series] if np.ndim(series) else v
    n = _masked(series, amp * (u / w ** 2 - _pow(u, 3) / (2 * w ** 4)
                               + _pow(u, 5) / (6 * w ** 6) - _pow(u, 7) / (24 * w ** 8)),
                -amp * np.expm1(-q * q) / vd)
    m = np.sqrt(1.0 - n)
    G = 2.0 * amp * e / w ** 2
    s = G * (2.0 - gp) / (2.0 * (1.0 - n))
    zv = np.sqrt(s)
    if not derivatives:
        return m, zv
    gpp = 2.0 * amp * (1.0 - 2.0 * q * q) * e / w ** 2
    n1 = _masked(series, amp * (1.0 / w ** 2 - 3 * _pow(u, 2) / (2 * w ** 4)
                                + 5 * _pow(u, 4) / (6 * w ** 6) - 7 * _pow(u, 6) / (24 * w ** 8)),
                 (gp - n) / vd)
    n2 = _masked(series, amp * (-3.0 * u / w ** 4 + 10 * _pow(u, 3) / (3 * w ** 6)
                                - 7 * _pow(u, 5) / (4 * w ** 8)), (gpp - 2.0 * n1) / vd)
    m1 = -n1 / (2.0 * m)
    m2 = -n2 / (2.0 * m) - n1 * n1 / (4.0 * _pow(m, 3))
    G1 = -4.0 * amp * v * e / w ** 4
    s1 = (G1 * (2.0 - gp) - G * gpp) / (2.0 * (1.0 - n)) + G * (2.0 - gp) * n1 / (2.0 * _pow(1.0 - n, 2))
    zvv = s1 / (2.0 * zv)
    return m, m1, m2, zv, zvv


def _bump_height(v, amp, w):
    # integrate zeta' = sqrt(s) (zeta_v, no derivative terms) from 0 to v
    # with fixed-order quadrature, accumulated node by node: the finite-
    # difference stencil divides by step^2, so the summation order must not change
    nodes, weights = _gauss_legendre(64)
    axis = (-1,) + (1,) * np.ndim(v)
    zv = _bump_scalars(0.5 * v * np.reshape(nodes + 1.0, axis), amp, w, derivatives=False)[1]
    return 0.5 * v * np.add.accumulate(np.reshape(weights, axis) * zv)[-1]


def _gaussian_bump(amp, s):
    positive(s, "bump width must be positive")
    if amp < 0:
        raise ValueError("bump amplitude must be nonnegative")
    box = ((-0.75, 0.75), (-0.75, 0.75))
    if amp == 0:
        return _uniform_stretch(1.0, 1.0)[0], box
    w = s * s
    if not w < 2.0 ** 128:  # so w ** 8 in _bump_scalars stays finite
        raise OverflowError(f"the bump width s = {s:g}")
    vs = np.linspace(1e-6, 8.0 * w, 2000)
    q = vs / w
    gp = 2.0 * amp * vs * np.exp(-q * q) / w ** 2
    n = -amp * np.expm1(-q * q) / vs
    # not <=, so NaN maxima (w = s*s underflowed to 0) fail too
    if not (gp.max() <= 1.8 and n.max() <= 0.9):
        raise ValueError(
            f"bump with A={amp:g}, s={s:g} is too steep to stay an immersion; "
            "reduce A or increase s"
        )

    def _radius(x):
        return 0.5 * (_pow(x[0], 2) + _pow(x[1], 2))

    def _map(x):
        v = _radius(x)
        m = _bump_scalars(v, amp, w, derivatives=False)[0]
        return np.array([x[0] * m, x[1] * m, _bump_height(v, amp, w)])

    def _grad(x):
        m, m1, _, zv, _ = _bump_scalars(_radius(x), amp, w)
        x1, x2 = x[0], x[1]
        return np.array([[m + _pow(x1, 2) * m1, x1 * x2 * m1],
                         [x1 * x2 * m1, m + _pow(x2, 2) * m1],
                         [x1 * zv, x2 * zv]])

    def _hess(x):
        hh = _zeros(x, 3, 2, 2)
        m, m1, m2, zv, zvv = _bump_scalars(_radius(x), amp, w)
        x1, x2 = x[0], x[1]
        # d_i d_j (x_k m) is symmetric in (k, i, j): four distinct entries
        hh[0, 0, 0] = 3.0 * x1 * m1 + _pow(x1, 3) * m2
        hh[0, 0, 1] = hh[0, 1, 0] = hh[1, 0, 0] = x2 * m1 + _pow(x1, 2) * x2 * m2
        hh[0, 1, 1] = hh[1, 0, 1] = hh[1, 1, 0] = x1 * m1 + x1 * _pow(x2, 2) * m2
        hh[1, 1, 1] = 3.0 * x2 * m1 + _pow(x2, 3) * m2
        for i in range(2):
            for j in range(2):
                hh[2, i, j] = (1.0 if i == j else 0.0) * zv + x[i] * x[j] * zvv
        return hh

    return (_map, _grad, _hess), box


def _zeros(x, *shape):
    """A fresh zero array of ``shape`` at every point of ``x`` (2, ...)."""
    return np.zeros(shape + np.shape(x)[1:])


def _graph(l1, l2, height, slope, curvature):
    """map, grad and hess of the graph x -> (l1 x1, l2 x2, height(x)).

    ``slope(x)`` returns the two first partials of the height and
    ``curvature(x)`` a function (i, j) -> its second partial in x_i, x_j.
    """
    def _map(x):
        return np.array([l1 * x[0], l2 * x[1], height(x)])

    def _grad(x):
        g = _zeros(x, 3, 2)
        g[0, 0] = l1
        g[1, 1] = l2
        g[2, 0], g[2, 1] = slope(x)
        return g

    def _hess(x):
        hh = _zeros(x, 3, 2, 2)
        second = curvature(x)
        for i in range(2):
            for j in range(2):
                hh[2, i, j] = second(i, j)
        return hh

    return _map, _grad, _hess


_BOX = ((-0.5, 0.5), (-0.5, 0.5))


def _uniform_stretch(l1, l2):
    positive((l1, l2), "stretch factors must be positive")
    return _graph(l1, l2, lambda x: np.zeros_like(x[0]), lambda x: (0.0, 0.0),
                  lambda x: lambda i, j: 0.0), _BOX


def _cylinder(R):
    positive(R, "cylinder radius must be positive")
    _map = lambda x: np.array(
        [R * np.sin(x[0] / R), x[1], R * (1.0 - np.cos(x[0] / R))])

    def _grad(x):
        g = _zeros(x, 3, 2)
        g[0, 0] = np.cos(x[0] / R)
        g[1, 1] = 1.0
        g[2, 0] = np.sin(x[0] / R)
        return g

    def _hess(x):
        hh = _zeros(x, 3, 2, 2)
        hh[0, 0, 0] = -np.sin(x[0] / R) / R
        hh[2, 0, 0] = np.cos(x[0] / R) / R
        return hh

    half = min(0.5, 1.4 * R)
    return (_map, _grad, _hess), ((-half, half), (-0.5, 0.5))


def _sphere_cap(R):
    positive(R, "sphere radius must be positive")

    def _root(x):
        return np.sqrt(R * R - _pow(x[0], 2) - _pow(x[1], 2))

    def _slope(x):
        root = _root(x)
        return x[0] / root, x[1] / root

    def _curvature(x):
        root = _root(x)
        return lambda i, j: (1.0 if i == j else 0.0) / root + x[i] * x[j] / _pow(root, 3)

    half = 0.45 * R
    return (_graph(1.0, 1.0, lambda x: R - _root(x), _slope, _curvature),
            ((-half, half), (-half, half)))


def _saddle(a):
    return _graph(1.0, 1.0, lambda x: a * x[0] * x[1], lambda x: (a * x[1], a * x[0]),
                  lambda x: lambda i, j: 0.0 if i == j else a), _BOX


# config name -> (builder, its parameters' defaults in the order they are
# read); a builder takes the parameters as finite floats and returns
# ((map, grad, hess), domain)
_CATALOG = {
    "plane": (lambda: _uniform_stretch(1.0, 1.0), {}),
    "uniform_stretch": (_uniform_stretch, {"l1": 2.0, "l2": 0.5}),
    "cylinder": (_cylinder, {"R": 1.0}),
    "sphere_cap": (_sphere_cap, {"R": 2.0}),
    "saddle": (_saddle, {"a": 1.0}),
    "gaussian_bump": (_gaussian_bump, {"A": 0.5, "s": 1.0}),
}


def catalog_surface(name, derivative_mode="analytic", step=1e-4, **params):
    """Build one of the named benchmark surfaces.

    Names: plane, uniform_stretch{l1,l2}, cylinder{R}, sphere_cap{R},
    saddle{a}, gaussian_bump{A,s}.  Their callables broadcast over
    trailing point axes (see ParametricSurface).
    """
    return _catalog_surface(name, params, derivative_mode, step)


def _catalog_surface(name, params, derivative_mode, step):
    # params as one mapping, so that a "step" key is an unknown parameter
    if not isinstance(name, str) or name not in _CATALOG:
        raise ValueError(f"unknown catalog surface '{name}'")
    build, defaults = _CATALOG[name]
    extra = set(params) - set(defaults)
    if extra:
        raise ValueError(f"unknown parameters {sorted(extra)} for surface '{name}'")
    callables, box = build(*[finite_number(params.get(key, value), key, ValueError)
                             for key, value in defaults.items()])
    return ParametricSurface(*callables, derivative_mode=derivative_mode, step=step,
                             domain=box, name=name)


def uniform_stretch_cone(lambda1):
    """Developable cone whose principal stretches are (lambda1, 1/lambda1)
    at every point of the apex-free parameter box (0.55, 1.45) x
    (-0.45, 0.45).

    The image of x is (s x1, s x2, k |x|) with s = 1/lambda1 and
    k^2 = lambda1^2 - s^2, so the radial direction stretches by lambda1
    and the angular one by 1/lambda1 while the Gauss curvature vanishes.
    Requires lambda1 > 1.  Not a config surface name; its callables
    broadcast like the catalog's.
    """
    above(1.0, lambda1, "cone construction needs lambda1 > 1", ValueError)
    lambda1 = float(real_values(lambda1))
    s = 1.0 / lambda1
    k = np.sqrt(lambda1 ** 2 - s ** 2)

    def _slope(x):
        rho = np.hypot(x[0], x[1])
        return k * x[0] / rho, k * x[1] / rho

    def _curvature(x):
        rho = np.hypot(x[0], x[1])
        return lambda i, j: k * ((1.0 if i == j else 0.0) / rho
                                 - x[i] * x[j] / _pow(rho, 3))

    graph = _graph(s, s, lambda x: k * np.hypot(x[0], x[1]), _slope, _curvature)
    return ParametricSurface(*graph, domain=((0.55, 1.45), (-0.45, 0.45)),
                             name="uniform_stretch_cone")


def sampled_injectivity(surface):
    """Sampling check (not a proof) that the map, called one point at a
    time, does not self-intersect on a 12 x 12 grid of the domain."""
    ref = _lattice(surface.domain, 12, 12, 0.0)[2]
    pts = np.array([surface.map(p) for p in ref])
    d_img = np.linalg.norm(pts[:, None, :] - pts[None, :, :], axis=2)
    d_ref = np.linalg.norm(ref[:, None, :] - ref[None, :, :], axis=2)
    mask = d_ref > 1e-12
    return bool(np.all(d_img[mask] > 1e-9 * d_ref[mask]))
