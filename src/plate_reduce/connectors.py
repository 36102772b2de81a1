"""Planar connector fields of a stretch eigenframe and their compatibility.

The eigenframe (r1, r2) of the mid-surface metric rotates from point to
point; its rate of rotation is a planar connector field c.  The pushed
frame (l1, l2) on the surface carries a second connector c*, and the
normal's gradient decomposes through two more planar fields d1*, d2*.
Cross-derivatives of these fields reproduce the Gaussian curvature and
satisfy compatibility identities, both of which this module checks
numerically.
"""

import warnings
from dataclasses import dataclass, field as _field, replace
from functools import cached_property
from typing import List, Tuple

import numpy as np

from .surface_geometry import (_central, _dot, _eigen_gap, _lattice, evaluate_jets,
                               integer, positive, read_point)


# the frame fields that change sign when both eigenvectors are negated;
# c, c_star, dij and c12 are even under this gauge flip
_GAUGE_ODD = ("r1", "r2", "d1_star", "d2_star", "c1", "c2")


@dataclass(frozen=True)
class ConnectorFrame:
    """Connector data of the stretch eigenframe at one point.

    Attributes
    ----------
    x : (2,) ndarray
        Evaluation point in the reference plane.
    lambda1, lambda2 : float
        Principal stretches, lambda1 >= lambda2.
    r1, r2 : (2,) ndarray
        Stretch eigenframe in the reference plane (right-handed).
    c : (2,) ndarray
        Rotation rate of the r-frame: c_k = r2 . (d_k r1).
    c_star : (2,) ndarray
        Rotation rate of the pushed frame: c*_k = l2 . (d_k l1).
    d1_star, d2_star : (2,) ndarray
        Normal-gradient components, di* = -(grad nu)^T li.
    dij : (2, 2) ndarray
        Components of the d-fields in the r-frame, dij[i, j] = di* . rj.
    c1, c2 : float
        Components of c in the r-frame.
    c12 : float
        r1 . (grad c) r2, from central differences of the c-field with
        step 5e-5; nan on a sampled grid, which does not compute it.
    ill_conditioned : bool
        True when an umbilic stretch made the c-division unreliable.
    """

    x: np.ndarray
    lambda1: float
    lambda2: float
    r1: np.ndarray
    r2: np.ndarray
    c: np.ndarray
    c_star: np.ndarray
    d1_star: np.ndarray
    d2_star: np.ndarray
    dij: np.ndarray
    c1: float
    c2: float
    c12: float
    ill_conditioned: bool = False

    def flipped(self):
        """The same frame with both eigenvectors negated (gauge flip),
        which negates the ``_GAUGE_ODD`` fields."""
        return replace(self, **{n: -getattr(self, n) for n in _GAUGE_ODD})


def _dot2(a, b):
    return a[0] * b[0] + a[1] * b[1]


def _c_vector(jet):
    """Rotation rate of the stretch frame at each point of a JetBatch,
    (2, N), and the mask of umbilic points where it is ill-conditioned."""
    g, h = jet.grad_y, jet.hess_y
    # dC[k, i, j] = d_k C_ij = (d_k a_i) . a_j + a_i . (d_k a_j)
    dC = np.array([[[_dot(h[:, i, k], g[:, j]) + _dot(g[:, i], h[:, j, k])
                     for j in range(2)] for i in range(2)] for k in range(2)])
    num = sum(jet.r2[i] * dC[:, i, j] * jet.r1[j]
              for i in range(2) for j in range(2))
    ill = _eigen_gap(jet.C)[2]
    # constant-metric umbilics (plane, cylinder) have zero numerator and
    # a well-defined zero rotation rate; anything else is unresolvable
    dscale = np.abs(dC).max(axis=(0, 1, 2)) + jet.lambda1 ** 2 + jet.lambda2 ** 2
    umbilic_c = np.where(np.abs(num) <= 1e-9 * dscale, 0.0, np.nan)
    gap = np.where(ill, 1.0, jet.lambda1 ** 2 - jet.lambda2 ** 2)
    return np.where(ill, umbilic_c, num / gap), ill


def _frame_fields(surface, points):
    """Every ConnectorFrame field at the points (N, 2), the point axis
    trailing each field's own shape, with c12 nan (``compute_frame``
    differences it); warns once per umbilic point."""
    jet = evaluate_jets(surface, points)
    c, ill = _c_vector(jet)
    for x in points[ill]:
        warnings.warn(
            f"umbilic stretch at ({x[0]:.6g}, {x[1]:.6g}): frame rotation "
            "rate is ill-conditioned", RuntimeWarning)

    r1, r2, h = jet.r1, jet.r2, jet.hess_y
    c_star = np.array([(_dot(jet.l2, h[:, 0, k] * r1[0] + h[:, 1, k] * r1[1])
                        + jet.lambda2 * c[k]) / jet.lambda1 for k in range(2)])
    d1, d2 = (-np.array([_dot(jet.grad_nu[:, k], l) for k in range(2)])
              for l in (jet.l1, jet.l2))

    return dict(x=points.T, lambda1=jet.lambda1, lambda2=jet.lambda2,
                r1=r1, r2=r2, c=c, c_star=c_star, d1_star=d1, d2_star=d2,
                dij=np.array([[_dot2(d, r1), _dot2(d, r2)] for d in (d1, d2)]),
                c1=_dot2(c, r1), c2=_dot2(c, r2), c12=np.full(len(points), np.nan),
                ill_conditioned=ill)


def _frame_at(fields, n):
    """The ConnectorFrame of point ``n`` of ``_frame_fields``."""
    frame = {name: value[..., n] for name, value in fields.items()}
    for name in ("lambda1", "lambda2", "c1", "c2", "c12"):
        frame[name] = float(frame[name])
    frame["ill_conditioned"] = bool(frame["ill_conditioned"])
    return ConnectorFrame(**frame)


def compute_frame(surface, x):
    """Connector fields of the stretch eigenframe at a point.

    Parameters
    ----------
    surface : ParametricSurface
        Its callables must broadcast over point axes (see
        ParametricSurface); the point is evaluated as a batch of one.
    x : (2,) array_like
        Evaluation point; must leave room for the four-point c12 stencil
        of step 5e-5 (``surface_geometry._central`` of the c-field), any
        umbilic point of which flags the frame ``ill_conditioned`` too.

    Warns
    -----
    RuntimeWarning
        At umbilic points of the stretch, where the eigenframe rotation
        rate is ill-conditioned; the output is flagged.
    """
    x = read_point(x)[:, None]
    fields = _frame_fields(surface, x.T)

    def c_field(p):
        c, umbilic = _c_vector(evaluate_jets(surface, p.T))
        fields["ill_conditioned"] = fields["ill_conditioned"] | umbilic
        return c

    grad_c = _central(c_field, x, 5e-5)
    r1, r2 = fields["r1"], fields["r2"]
    fields["c12"] = _dot2(r1, grad_c[0] * r2[0] + grad_c[1] * r2[1])
    return _frame_at(fields, 0)


def c_star_from_metric(frame, jet, grad_lambdas):
    """Surface-frame connector from purely metric data.

    Parameters
    ----------
    frame : ConnectorFrame
    jet : SurfaceJet
        Jet at the same point (supplies C).
    grad_lambdas : (2, 2) array_like
        Row i is the reference-plane gradient of stretch lambda_i.

    Returns
    -------
    (2,) ndarray
        (1/sqrt(det C)) C c - (1/lambda2)(grad lambda1 . r2) r1
        + (1/lambda1)(grad lambda2 . r1) r2; matches frame.c_star.
    """
    gl = np.asarray(grad_lambdas, dtype=float)
    return (jet.C @ frame.c) / np.sqrt(jet.detC) \
        - (gl[0] @ frame.r2) / frame.lambda2 * frame.r1 \
        + (gl[1] @ frame.r1) / frame.lambda1 * frame.r2


def curvatures_from_frame(frame):
    """Mean and Gaussian curvature recovered from the d-components.

    Returns
    -------
    (H, K) : pair of floats
    """
    d, l1, l2 = frame.dij, frame.lambda1, frame.lambda2
    H = -0.5 * (d[0, 0] / l1 + d[1, 1] / l2)
    K = (d[0, 0] * d[1, 1] - d[0, 1] * d[1, 0]) / (l1 * l2)
    return float(H), float(K)


# ---------------------------------------------------------------------------
# grid sampling and cross-derivative identities


@dataclass(frozen=True, eq=False)
class FrameGrid:
    """Connector frames on a rectangular grid with gauge-continuous signs.

    ``fields`` holds every ConnectorFrame field batched, as
    ``_frame_fields`` returns them: nodes (i, j) in row-major order on the
    trailing axis.  Each axis has at least 3 nodes, for central
    differences.  Grids compare by identity: their fields are arrays.
    """

    xs: np.ndarray
    ys: np.ndarray
    fields: dict = _field(repr=False)

    def __post_init__(self):
        if min(self.shape) < 3:
            raise ValueError(f"grid {self.shape} too small for central differences")

    @property
    def shape(self) -> Tuple[int, int]:
        return len(self.xs), len(self.ys)

    @property
    def spacing(self) -> Tuple[float, float]:
        return float(self.xs[1] - self.xs[0]), float(self.ys[1] - self.ys[0])

    @cached_property
    def frames(self) -> List[List[ConnectorFrame]]:
        """Node (i, j)'s ConnectorFrame at ``frames[i][j]``, built from
        the fields on first read."""
        nx, ny = self.shape
        return [[_frame_at(self.fields, i * ny + j) for j in range(ny)]
                for i in range(nx)]

    def field(self, name):
        """One frame attribute over the grid, an (nx, ny, ...) array."""
        value = np.moveaxis(self.fields[name], -1, 0)
        return value.reshape(self.shape + value.shape[1:]).copy()


def sample_frame_grid(surface, grid, bounds):
    """Sample connector frames on a uniform grid.

    ``grid`` = (nx, ny) nodes cover ``bounds`` = ((u0, u1), (v0, v1));
    c12 is not computed (nan).  Eigenvector signs are made continuous by
    propagating from the first node down the first column and then along
    rows, flipping frames whose r1 opposes its predecessor's.  The fields
    are computed in one batch and kept batched.
    """
    nx, ny = (integer(n, "grid side", 0, np.inf, ValueError) for n in grid)
    xs, ys, points = _lattice(bounds, nx, ny, 0.0)
    fields = _frame_fields(surface, points)
    # FrameGrid checks the node counts before the sign pass flips ``fields``
    frame_grid = FrameGrid(xs=xs, ys=ys, fields=fields)

    # -1 where r1 opposes its predecessor's; the running products of these
    # down the first column, then along each row, are the gauge signs
    r1 = fields["r1"].reshape(2, nx, ny)
    keeps = lambda a, b: np.where(_dot2(a, b) >= 0.0, 1.0, -1.0)
    first = np.cumprod(np.append(1.0, keeps(r1[:, 1:, 0], r1[:, :-1, 0])))
    sign = np.cumprod(np.column_stack(
        [first, keeps(r1[:, :, 1:], r1[:, :, :-1])]), axis=1).ravel()
    for name in _GAUGE_ODD:
        fields[name] = fields[name] * sign
    return frame_grid


def _curl(grid, name):
    """Central-difference planar curl d1 v2 - d2 v1 of a frame field at
    the interior nodes, (nx - 2, ny - 2)."""
    v = grid.field(name)
    dx, dy = grid.spacing
    return ((v[2:, 1:-1, 1] - v[:-2, 1:-1, 1]) / (2 * dx)
            - (v[1:-1, 2:, 0] - v[1:-1, :-2, 0]) / (2 * dy))


def gauss_from_connectors(grid, jet):
    """Gaussian curvature from the skew gradient of the surface connector.

    Central-differences curl(c*) at the grid's center node (i, j) =
    (nx // 2, ny // 2) and divides by -lambda1*lambda2 of ``jet``, the
    SurfaceJet at that node.
    """
    i, j = grid.shape[0] // 2, grid.shape[1] // 2
    return float(-_curl(grid, "c_star")[i - 1, j - 1] / (jet.lambda1 * jet.lambda2))


def gauss_uniform_stretch(frame, lambda1):
    """Gaussian curvature of a spatially uniform area-preserving stretch.

    With lambda2 = 1/lambda1 constant over the plane, the curvature
    reduces to (1/lambda2^2 - 1/lambda1^2)(c2^2 - c1^2 + c12).
    """
    positive(lambda1, "lambda1 = {:.9g} must be positive")
    l2inv = lambda1 * lambda1
    return float((l2inv - 1.0 / l2inv)
                 * (frame.c2**2 - frame.c1**2 + frame.c12))


def _cross2(a, b):
    return a[..., 0] * b[..., 1] - a[..., 1] * b[..., 0]


@dataclass(frozen=True)
class CodazziReport:
    """Max absolute residuals of the connector compatibility identities."""

    curl_c_star: float
    curl_d1_star: float
    curl_d2_star: float
    c_compatibility: float
    n_interior: int
    spacing: Tuple[float, float]

    def max_residual(self):
        """The largest curl residual; NaN when any of them is NaN."""
        return float(np.max([self.curl_c_star, self.curl_d1_star,
                             self.curl_d2_star]))


def check_codazzi(grid):
    """Residuals of the compatibility identities over a frame grid.

    Checks curl c* = d2* x d1*, curl d1* = c* x d2*, curl d2* = d1* x c*
    (planar curls, scalar crosses), and the symmetry of grad c, at every
    interior node; reports the max absolute residual of each, NaN when
    any of its residuals is NaN.
    """
    c_star, d1, d2 = (grid.field(name)[1:-1, 1:-1]
                      for name in ("c_star", "d1_star", "d2_star"))
    residuals = (_curl(grid, "c_star") - _cross2(d2, d1),
                 _curl(grid, "d1_star") - _cross2(c_star, d2),
                 _curl(grid, "d2_star") - _cross2(d1, c_star),
                 _curl(grid, "c"))
    return CodazziReport(
        *(float(np.max(np.abs(r), initial=0.0)) for r in residuals),
        n_interior=residuals[0].size, spacing=grid.spacing)
