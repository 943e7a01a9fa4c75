"""Concrete convex hypersurfaces and their extracted geometry.

Three representations:

* `PlaneCurve` -- a closed convex curve in the plane on a uniform periodic
  parameter grid (hypersurface dimension n = 1);
* `RevolutionProfile` -- a meridian profile (x along the rotation axis,
  y >= 0) rotated about the x-axis, closed by the two poles (n = 2);
* `Ellipsoid` -- semi-axes (a, b) for a plane ellipse or (a, b, c) for an
  ellipsoid, evaluated with closed-form fundamental forms.

All derivative extraction uses 4th-order stencils: periodic for curves,
reflection-through-the-poles for meridian grids (scalar geometric fields
extend evenly through a pole, the radial coordinate oddly).  Meridian grids
assume the parametrization speed is symmetric about the poles, which holds
for uniform-arclength grids and for trigonometric meridians.

Normals are inward everywhere, so convex surfaces have positive principal
curvatures and negative support values about interior base points.

One grid-fields layer serves both grid kinds.  `_grid_fields`, the only dispatch
on surface kind for grid operations, takes a `PlaneCurve`, a `RevolutionProfile` or
an axisymmetric `Ellipsoid` (on `grid_size` meridian samples); its builders refuse
what extraction refuses, so `covariant_hessian` and `support_hessian_residual`
refuse it too.  `codazzi_residual` takes rotation surfaces only.

The two grid types own every operation that depends on their layout, with
the same members: `dim`, `geometry`, `moved`, `resampled`, `scaled`,
`centroid` and `linearized_solver`.  `resampled` moves the samples to
uniform polygon arclength by a local degree-7 interpolant, with no system to solve.
"""

import json
import math
import numbers
from dataclasses import dataclass
from functools import cached_property

import numpy as np
import scipy.linalg
from scipy.linalg.lapack import dgtsv, dgttrf, dgttrs

from . import _fd

FORMAT_VERSION = 1

_POLE_MARGIN = 1e-3          # pointwise ellipsoid evaluation keeps away from poles
_POLE_ANGLE_TOL = 1e-6       # profile must meet the axis orthogonally to this


class GeometryError(ValueError):
    """Invalid or out-of-contract surface data."""


class NonConvexSurfaceError(GeometryError):
    """A principal curvature fails to be positive."""

    def __init__(self, message, index):
        super().__init__(f"{message} (first offending sample index {index})")
        self.index = index


# ---------------------------------------------------------------------------
# surface snapshots

@dataclass(frozen=True)
class PlaneCurve:
    """Closed plane curve on a uniform periodic parameter grid."""

    points: np.ndarray       # (M, 2)
    dim = 1                  # hypersurface dimension n (a class constant)

    def __post_init__(self):
        pts = np.asarray(self.points, dtype=float)
        if pts.ndim != 2 or pts.shape[1] != 2 or pts.shape[0] < 16:
            raise GeometryError(f"curve needs at least 16 plane points, got {pts.shape}")
        if not np.isfinite(pts).all():
            raise GeometryError("curve has non-finite coordinates")
        object.__setattr__(self, "points", pts)

    @property
    def grid_size(self):
        return self.points.shape[0]

    def geometry(self, base_point=None):
        return curve_geometry(self, base_point)

    def moved(self, displacement):
        """The curve with sample i displaced by row i of `displacement` (M, 2)."""
        return PlaneCurve(self.points + displacement)

    def resampled(self):
        """Resampled to uniform arclength by the local interpolant in arclength, which
        reads three samples before the first and four after the last across the seam."""
        pts, m = self.points, self.grid_size
        s = _arclength(np.vstack([pts, pts[:1]]))
        knots = np.concatenate((s[-4:-1] - s[-1], s, s[1:4] + s[-1]))
        ext = np.vstack([pts[-3:], pts, pts[:4]])
        return PlaneCurve(_local_lagrange(knots, ext, s[-1] * np.arange(m) / m))

    def scaled(self, alpha, center):
        return PlaneCurve(center + alpha * (self.points - center))

    def centroid(self, weights):
        return (weights @ self.points) / weights.sum()

    def linearized_solver(self, geom, dfdlam, c):
        """Solver of (I - c J) u = r for the normal speed F of the flow.

        J is the 3-point linearization of F under a normal displacement u,
        F'(k) (d_ss + k^2), with d_ss on the polygon's arclength spacings: a
        cyclic tridiagonal matrix, factored once for every right-hand side.
        `dfdlam` (M, 1) is F' at the samples.
        """
        fwd = _segments(np.vstack([self.points, self.points[:1]]))   # sample i to i + 1
        back = np.concatenate((fwd[-1:], fwd[:-1]))
        a, b = _second_difference(back, fwd)
        g = c * dfdlam[:, 0]
        diag = 1.0 - g * (geom.lam[:, 0] ** 2 - a - b)
        return _cyclic_tridiagonal_solver(-g * a, diag, -g * b)


@dataclass(frozen=True)
class RevolutionProfile:
    """Meridian profile (x, y) rotated about the x-axis; ends on the axis."""

    profile: np.ndarray      # (M, 2), y >= 0, y = 0 exactly at both ends
    dim = 2

    def __post_init__(self):
        prof = np.asarray(self.profile, dtype=float)
        if prof.ndim != 2 or prof.shape[1] != 2 or prof.shape[0] < 16:
            raise GeometryError(f"profile needs at least 16 samples, got {prof.shape}")
        if not np.isfinite(prof).all():
            raise GeometryError("profile has non-finite coordinates")
        scale = float(np.abs(prof).max())
        y = prof[:, 1].copy()
        if abs(y[0]) > 1e-9 * scale or abs(y[-1]) > 1e-9 * scale:
            raise GeometryError("profile must start and end on the rotation axis (y = 0)")
        y[0] = y[-1] = 0.0
        interior = y[1:-1]
        if (interior <= 0.0).any():
            bad = 1 + int(np.nonzero(interior <= 0.0)[0][0])
            raise GeometryError(f"profile touches the axis in the interior at sample {bad}")
        prof = np.column_stack([prof[:, 0], y])
        object.__setattr__(self, "profile", prof)

    @property
    def grid_size(self):
        return self.profile.shape[0]

    def geometry(self, base_point=None):
        return revolution_geometry(self, base_point)

    def moved(self, displacement):
        """The profile moved by the meridian columns of `displacement` (M, 3).

        The normal at a pole lies along the axis; the constructor snaps pole rounding to y = 0.
        """
        return RevolutionProfile(self.profile + displacement[:, :2])

    def resampled(self):
        """Resampled to uniform arclength with the poles kept in place.

        The local interpolant reads three samples past each pole: the profile's own,
        mirrored through the pole (axis coordinate even, radius odd), so the resampled
        data keeps the reflection symmetry of the pole stencils.
        """
        prof = self.profile
        s = _arclength(prof)
        length = s[-1]
        knots = np.concatenate((-s[3:0:-1], s, 2.0 * length - s[-2:-5:-1]))
        ext = np.vstack([prof[3:0:-1], prof, prof[-2:-5:-1]])
        ext[[0, 1, 2, -3, -2, -1], 1] *= -1.0
        new = _local_lagrange(knots, ext, np.linspace(0.0, length, self.grid_size))
        new[0] = prof[0]
        new[-1] = prof[-1]
        new[:, 1] = np.abs(new[:, 1])      # guard rounding at the near-pole samples
        return RevolutionProfile(new)

    def scaled(self, alpha, center):
        """Scaled by `alpha` about `center`, a point on the axis (x, 0, 0)."""
        center = center[:2]
        return RevolutionProfile(center + alpha * (self.profile - center))

    def centroid(self, weights):
        """Centroid (x, 0, 0) of the rotation surface under the area `weights`."""
        return np.array([float(weights @ self.profile[:, 0]) / float(weights.sum()), 0.0, 0.0])

    def linearized_solver(self, geom, dfdlam, c):
        """Solver of (I - c J) u = r for the normal speed F of the flow.

        J = F_m L_m + F_p L_p is the 3-point linearization of F under an
        axisymmetric normal displacement u, with L_m = d_ss + lam_m^2 and
        L_p = (y_s / y) d_s + lam_p^2 on the meridian's arclength spacings.
        At a pole L_p tends to d_ss + lam_p^2, and u is even through it, so
        the matrix is plainly tridiagonal.  `dfdlam` (M, 2) holds
        (dF/dlam_m, dF/dlam_p) at the samples.
        """
        prof = self.profile
        seg = _segments(prof)
        back, fwd = seg[:-1], seg[1:]
        a, b = _second_difference(back, fwd)
        q = (prof[2:, 1] - prof[:-2, 1]) / (prof[1:-1, 1] * (back + fwd) ** 2)  # (y_s / y) d_s
        fm, fp = c * dfdlam[:, 0], c * dfdlam[:, 1]
        lam2 = fm * geom.lam[:, 0] ** 2 + fp * geom.lam[:, 1] ** 2
        lower, upper = np.empty(self.grid_size), np.empty(self.grid_size)
        lower[1:-1] = -fm[1:-1] * a + fp[1:-1] * q
        upper[1:-1] = -fm[1:-1] * b - fp[1:-1] * q
        diag = 1.0 - lam2
        diag[1:-1] += fm[1:-1] * (a + b)
        pole = 2.0 * (fm + fp)[[0, -1]] / seg[[0, -1]] ** 2      # d_ss with u_{-1} = u_1
        diag[[0, -1]] += pole
        upper[0], lower[-1] = -pole
        lower, upper = lower[1:], upper[:-1]

        def solve(r):
            _, _, _, u, info = dgtsv(lower, diag, upper, r)
            if info != 0:
                raise GeometryError("singular linearized flow system")
            return u
        return solve


@dataclass(frozen=True)
class Ellipsoid:
    """Analytic ellipse (two semi-axes) or ellipsoid (three semi-axes)."""

    semi_axes: tuple

    def __post_init__(self):
        axes = tuple(float(a) for a in self.semi_axes)
        if len(axes) not in (2, 3) or not all(0.0 < a < math.inf for a in axes):
            raise GeometryError(f"semi-axes must be 2 or 3 positive finite reals, "
                                f"got {self.semi_axes}")
        object.__setattr__(self, "semi_axes", axes)

    @property
    def dim(self):
        return len(self.semi_axes) - 1

    @property
    def axisymmetric(self):
        return self.dim == 2 and abs(self.semi_axes[0] - self.semi_axes[1]) < 1e-14


def circle(radius, grid_size=256):
    return ellipse(radius, radius, grid_size)


def ellipse(a, b, grid_size=256):
    th = 2.0 * np.pi * np.arange(grid_size) / grid_size
    return PlaneCurve(np.column_stack([a * np.cos(th), b * np.sin(th)]))


def sphere_profile(radius, grid_size=256):
    return spheroid_profile(radius, radius, grid_size)


def spheroid_profile(equatorial, polar, grid_size=256):
    """Meridian of the spheroid with semi-axes (equatorial, equatorial, polar)."""
    u = np.linspace(0.0, np.pi, grid_size)
    x = -polar * np.cos(u)
    y = equatorial * np.sin(u)
    return RevolutionProfile(np.column_stack([x, y]))


# ---------------------------------------------------------------------------
# cyclic tridiagonal solves and uniform-arclength resampling

def _cyclic_tridiagonal_solver(lower, diag, upper):
    """Solver of the cyclic tridiagonal system A x = r, r (n,), over one factorization.

    Row i of A is lower[i] x[i-1] + diag[i] x[i] + upper[i] x[i+1], indices
    mod n.  A is a tridiagonal B plus a rank-one corner term: B is factored by
    `dgttrf` and its Sherman-Morrison vector v solved once, z = B^-1 v, so
    each right-hand side costs one `dgttrs` and an axpy.
    """
    corner_first, corner_last = lower[0], upper[-1]     # entries (0, n-1) and (n-1, 0)
    gamma = -diag[0]
    diag = diag.copy()
    diag[0] -= gamma
    diag[-1] -= corner_first * corner_last / gamma
    v = np.zeros(diag.size)
    v[[0, -1]] = gamma, corner_last
    ratio = corner_first / gamma
    dl, d, du, du2, ipiv, info = dgttrf(lower[1:], diag, upper[:-1])
    if info != 0:
        raise GeometryError("singular cyclic tridiagonal system")
    z = dgttrs(dl, d, du, du2, ipiv, v)[0]
    denominator = 1.0 + z[0] + ratio * z[-1]

    def solve(r):
        y = dgttrs(dl, d, du, du2, ipiv, r)[0]
        return y - z * ((y[0] + ratio * y[-1]) / denominator)
    return solve


def _second_difference(back, fwd):
    """Weights (a, b) of the 3-point second difference a u_{i-1} - (a + b) u_i + b u_{i+1}.

    `back` and `fwd` are the spacings to the previous and the next sample.
    """
    span = back + fwd
    return 2.0 / (back * span), 2.0 / (fwd * span)


def _local_lagrange(knots, values, targets):
    """Local degree-7 interpolant of `values` (N, k) over `knots` (N,), at `targets`.

    The knots increase strictly, and the targets lie in [knots[3], knots[-4]]: a
    target in [knots[i], knots[i + 1]) takes the polynomial through knots i - 3 to
    i + 4 (Lagrange interpolation in Newton form: one divided-difference order per
    pass over the knots, then one product of the coefficients with the Newton basis).
    A 4-point cubic costs less, but its error adds up over a flow's resamples: up to
    3x a periodic C^2 spline's in the final r_max and tau_fit at M = 64, dt_safety
    0.1; degree 7's does not.
    """
    # table[j, :, l]: divided difference of order j over knots l, ..., l + j
    table = np.empty((8, values.shape[1], knots.size))
    table[0] = values.T
    for j in range(1, 8):
        span = knots[j:] - knots[:-j]
        if j == 1 and not span.min() > 0.0:
            raise GeometryError("coincident samples: arclength does not increase")
        order = table[j, :, :-j]
        np.subtract(table[j - 1, :, 1:knots.size - j + 1], table[j - 1, :, :-j], out=order)
        order /= span
    start = np.minimum(np.searchsorted(knots, targets, side="right"), knots.size - 4) - 4
    # Newton basis at each target: row j is the product of (t - knot) over its first j knots
    basis = np.empty((8, targets.size))
    basis[0] = 1.0
    np.cumprod(targets - knots[start + np.arange(7)[:, None]], axis=0, out=basis[1:])
    return np.einsum("jkm,jm->mk", table[:, :, start], basis)


def _norms(v):
    """Lengths of the rows of `v` (N, 2), with the bits of `np.linalg.norm(v, axis=1)`
    at a fraction of its call cost."""
    return np.sqrt(v[:, 0] * v[:, 0] + v[:, 1] * v[:, 1])


def _segments(points):
    return _norms(points[1:] - points[:-1])


def _arclength(points):
    return np.concatenate([[0.0], np.cumsum(_segments(points))])


# ---------------------------------------------------------------------------
# extracted geometry

@dataclass
class ShapeData:
    """Per-sample geometric state of a hypersurface.

    `lam` keeps the grid's frame order: k on a curve, (lam_m, lam_p) (meridian,
    parallel) on a rotation surface; a pointwise ellipsoid sample is ascending.
    """

    dim: int                 # hypersurface dimension n
    position: np.ndarray     # (M, n+1)
    normal: np.ndarray       # (M, n+1) inward unit normals
    lam: np.ndarray          # (M, n) principal curvatures in the grid's frame order
    support: np.ndarray      # (M,) support value about the base point
    weights: np.ndarray      # (M,) measure weights (arclength / area elements)

    # the row sums add whole columns: numpy's axis-1 reduction costs ~5x more at n <= 2
    @property
    def mean(self):
        """(M,) mean curvature H, the sum of the principal curvatures."""
        return sum(self.lam.T)

    @property
    def norm_A2(self):
        """(M,) |A|^2, the sum of the squared principal curvatures."""
        return sum(self.lam.T ** 2)

    @property
    def measure(self):
        return float(self.weights.sum())


def _first_nonpositive(values):
    """Index of the first row of `values` with an entry <= 0 (NaN is not), or None.

    One `min()` passes positive data; the index is looked for only on failure."""
    if values.min() > 0.0:
        return None
    bad = (values <= 0.0).reshape(len(values), -1).any(axis=1).nonzero()[0]
    return int(bad[0]) if bad.size else None


@dataclass
class _GridFields:
    """Sampled fields of a curve grid (n = 1) or a meridian grid, pole to pole (n = 2).

    The samples lie in one plane: a curve's points, or a meridian's (x, y) with the
    rotation axis along x.  `d1` and `d2` differentiate a scalar along the grid, of
    step `du`: periodically on a curve, evenly through the poles on a meridian.
    """

    dim: int
    du: float
    xy: np.ndarray           # (M, 2) samples
    vel: np.ndarray          # (M, 2) velocity d xy / du
    E: np.ndarray            # metric g_ss = |vel|^2
    w: np.ndarray            # speed |vel|
    nu: np.ndarray           # (M, 2) inward planar normal
    lam: np.ndarray          # (M, n) principal curvatures in frame order
    base: np.ndarray         # (2,) base point in the plane of the samples
    support: np.ndarray      # Z = <xy - base, nu>

    def d1(self, f):
        if self.dim == 1:
            return _fd.periodic_d1(f, self.du)
        return _fd.reflected_d1(f, self.du)

    def d2(self, f):
        if self.dim == 1:
            return _fd.periodic_d2(f, self.du)
        return _fd.reflected_d2(f, self.du)

    @cached_property
    def G(self):
        """Metric g_pp of the rotation angle on a meridian grid, y^2."""
        y = self.xy[:, 1]
        return y * y

    # the metric derivatives, which every Christoffel symbol reads
    @cached_property
    def dE(self):
        return self.d1(self.E)

    @cached_property
    def dG(self):
        return self.d1(self.G)


def _turning_frame(vel, tangent_d1, orient, what):
    """Metric E = |vel|^2, speed, inward normal and curvature of a planar grid curve.

    The curvature is the unit tangent's turning: exact on circles and other
    single-harmonic grids, O(h^4) in general.  `orient` (+-1) turns the normal
    orient * (-ty, tx) inward; `tangent_d1` differentiates the (M, 2) tangent.
    """
    xp, yp = vel.T
    w2 = xp * xp + yp * yp
    if _first_nonpositive(w2) is not None:
        raise GeometryError(f"degenerate {what} (zero speed)")
    w = np.sqrt(w2)
    tangent = vel / w[:, None]
    tx, ty = tangent.T
    dtx, dty = tangent_d1(tangent).T
    normal = np.empty_like(tangent)
    normal[:, 0], normal[:, 1] = -orient * ty, orient * tx
    return w2, w, normal, orient * (tx * dty - ty * dtx) / w


def _curve_fields(curve, base_point=None):
    pts = curve.points
    h = 2.0 * np.pi / pts.shape[0]
    vel = _fd.periodic_d1(pts, h)
    x, y = pts.T
    nxt = np.concatenate((pts[1:], pts[:1]))          # sample i + 1
    area2 = float((x * nxt[:, 1] - nxt[:, 0] * y).sum())
    orient = 1.0 if area2 >= 0.0 else -1.0
    w2, w, normal, k = _turning_frame(vel, lambda t: _fd.periodic_d1(t, h), orient,
                                      "parametrization")

    nonconvex = _first_nonpositive(k)
    if nonconvex is not None:
        raise NonConvexSurfaceError("curve is not convex: curvature <= 0", nonconvex)

    angles = np.arctan2(vel[:, 1], vel[:, 0])
    turns = np.concatenate((angles[1:], angles[:1])) - angles
    turns = (turns + np.pi) % (2.0 * np.pi) - np.pi
    # +-1 for simple curves depending on traversal; normalize by orientation
    turning_number = orient * float(turns.sum() / (2.0 * np.pi))
    if abs(turning_number - 1.0) > 1e-6:
        raise GeometryError(f"curve is not simple: turning number {turning_number:.6f} != 1")

    base = np.zeros(2) if base_point is None else np.asarray(base_point, dtype=float)
    if base.shape != (2,):
        raise GeometryError(f"a plane curve's base point is a pair (x, y), got {base_point!r}")
    # offsets by columns: an (M, 2) - (2,) broadcast costs ~2.5x more at M = 1024
    rx, ry = x - base[0], y - base[1]
    rho = np.sqrt(rx * rx + ry * ry)
    tol = 1e-12 * max(1.0, float(np.abs(pts).max()))
    if not rho.min() >= tol and (rho < tol).any():
        raise GeometryError("base point lies on the curve; radial direction undefined")
    return _GridFields(1, h, pts, vel, w2, w, normal, k[:, None], base,
                       rx * normal[:, 0] + ry * normal[:, 1])


def _profile_fields(profile, base_point=None):
    prof = profile.profile
    m = prof.shape[0]
    du = 1.0 / (m - 1)
    x, y = prof.T

    vel = _fd.reflected_d1(prof, du, (+1, -1))      # x even through the poles, y odd
    # the inward normal orient * (-ty, tx) has a negative y-component at the equator;
    # the tangent's x-part is odd through the poles, its y-part even
    orient = -1.0 if vel[int(y.argmax()), 0] > 0.0 else 1.0
    w2, w, nu, lam_m = _turning_frame(vel, lambda t: _fd.reflected_d1(t, du, (-1, +1)), orient,
                                      "profile parametrization")

    # pole-angle check: the one-sided slope of the axis coordinate must vanish
    # relative to the profile speed.  The base tolerance is floored by the
    # estimator's own resolution, O((h kappa)^3), on interpolation-grade data
    # (resampled flow states); the reference curvature is the robust bulk
    # median so an irregular pole cannot loosen its own check.
    h_arc = float(_segments(prof).sum() / (m - 1))     # the bits of .mean()
    bulk = np.sort(np.abs(lam_m[m // 4: 3 * m // 4]))   # its median as np.median gives it
    kappa_ref = float(0.5 * (bulk[(bulk.size - 1) // 2] + bulk[bulk.size // 2])) or 1.0
    pole_tol = max(_POLE_ANGLE_TOL, (2.0 * h_arc * kappa_ref) ** 3)
    for label, xsl, ysl in (("first", _fd.onesided_d1_start(x, du), _fd.onesided_d1_start(y, du)),
                            ("last", _fd.onesided_d1_end(x, du), _fd.onesided_d1_end(y, du))):
        speed = math.hypot(xsl, ysl)
        if speed <= 0.0 or abs(xsl) > pole_tol * speed:
            raise GeometryError(f"profile does not meet the axis orthogonally at the "
                                f"{label} sample (pole-angle violation)")

    lam = np.empty((m, 2))
    lam[:, 0] = lam_m
    lam[1:-1, 1] = -nu[1:-1, 1] / y[1:-1]
    lam[[0, -1], 1] = lam_m[[0, -1]]          # regular pole limit
    fields = _meridian_grid(du, prof, vel, w2, w, nu, lam, base_point)
    bad = _first_nonpositive(lam)
    if bad is not None:
        raise NonConvexSurfaceError("rotation surface is not convex", bad)
    return fields


def _spheroid_fields(equatorial, polar, grid_size, base_point=None):
    a, c = float(equatorial), float(polar)
    m = int(grid_size)
    if m < 16:
        raise GeometryError("meridian grid needs at least 16 samples")
    u = np.linspace(0.0, np.pi, m)
    sin, cos = np.sin(u), np.cos(u)
    xp, yp = c * sin, a * cos
    w = np.sqrt(xp * xp + yp * yp)
    nu = np.column_stack([yp, -xp]) / w[:, None]
    lam = np.column_stack([a * c / w ** 3, c / (a * w)])
    return _meridian_grid(float(u[1] - u[0]), np.array([-c * cos, a * sin]).T,
                          np.array([xp, yp]).T, w * w, w, nu, lam, base_point)


def _meridian_grid(du, xy, vel, E, w, nu, lam, base_point):
    """Fields of a meridian grid; the base point is its x on the axis, 0 by default."""
    if base_point is not None and not isinstance(base_point, numbers.Real):
        raise GeometryError(f"a rotation surface's base point is one real number (its x "
                            f"on the axis), got {base_point!r}")
    bx = float(base_point or 0.0)
    support = (xy[:, 0] - bx) * nu[:, 0] + xy[:, 1] * nu[:, 1]
    return _GridFields(2, du, xy, vel, E, w, nu, lam, np.array([bx, 0.0]), support)


def _grid_fields(surface, grid_size=None, base_point=None):
    """The grid fields of `surface`: the one dispatch on its kind for grid operations."""
    if isinstance(surface, PlaneCurve):
        return _curve_fields(surface, base_point)
    if isinstance(surface, RevolutionProfile):
        return _profile_fields(surface, base_point)
    if isinstance(surface, Ellipsoid):
        if surface.dim != 2:
            raise GeometryError("an analytic ellipse is evaluated pointwise with "
                                "ellipsoid_geometry; grid operations take ellipse(a, b, M)")
        if not surface.axisymmetric:
            raise GeometryError("grid operations support axisymmetric ellipsoids only "
                                "(equal first two semi-axes); triaxial surfaces are "
                                "evaluated pointwise with ellipsoid_geometry")
        if grid_size is None:
            raise GeometryError("analytic ellipsoid grid operations need grid_size")
        a, _, c = surface.semi_axes
        return _spheroid_fields(a, c, grid_size, base_point)
    raise GeometryError(f"unsupported surface type {type(surface).__name__} for grid operations")


def curve_geometry(curve, base_point=None):
    """Extract `ShapeData` from a closed convex plane curve.

    Tangent, normal, and curvature come from 4th-order periodic differences;
    the normal is oriented inward and the signed curvature is positive for
    convex curves.  The support value uses the origin unless `base_point`, a
    pair (x, y), overrides it.
    """
    f = _curve_fields(curve, base_point)
    return ShapeData(dim=1, position=f.xy.copy(), normal=f.nu, lam=f.lam,
                     support=f.support, weights=f.w * f.du)


def _meridian_shape_data(f):
    m = f.xy.shape[0]
    pos, nrm = np.zeros((m, 3)), np.zeros((m, 3))
    pos[:, :2] = f.xy
    nrm[:, :2] = f.nu
    weights = 2.0 * np.pi * f.xy[:, 1] * f.w * f.du
    weights[[0, -1]] *= 0.5
    return ShapeData(dim=2, position=pos, normal=nrm, lam=f.lam, support=f.support,
                     weights=weights)


def revolution_geometry(profile, base_point=None):
    """Extract `ShapeData` along the meridian of a convex rotation surface.

    The meridian principal curvature is the signed profile curvature; the
    parallel one comes from the normal's axial tilt, with the regular limit
    (equal to the meridian value) at the two poles.  `base_point`, when given,
    must lie on the rotation axis (a single x-coordinate).
    """
    return _meridian_shape_data(_profile_fields(profile, base_point))


# ---------------------------------------------------------------------------
# pointwise analytic ellipsoid geometry

def ellipsoid_geometry(semi_axes, u, v=None):
    """Closed-form `ShapeData` (single sample) of an ellipse or ellipsoid point.

    For three semi-axes the parametrization is
    X = (a sin u cos v, b sin u sin v, c cos u); the point must keep away from
    the coordinate poles (u within 1e-3 of 0 or pi is rejected).
    """
    surf = Ellipsoid(semi_axes)
    if surf.dim == 1:
        a, b = surf.semi_axes
        t = float(u)
        pos = np.array([a * math.cos(t), b * math.sin(t)])
        tangent = np.array([-a * math.sin(t), b * math.cos(t)])
        speed2 = float(tangent @ tangent)
        nu = -np.array([b * math.cos(t), a * math.sin(t)])
        nu /= np.linalg.norm(nu)
        k = a * b / speed2 ** 1.5
        support = float(pos @ nu)
        return ShapeData(dim=1, position=pos[None, :], normal=nu[None, :], lam=np.array([[k]]),
                         support=np.array([support]), weights=np.array([math.sqrt(speed2)]))

    a, b, c = surf.semi_axes
    uu, vv = float(u), float(v if v is not None else 0.0)
    if min(uu, math.pi - uu) < _POLE_MARGIN:
        raise GeometryError(f"parameter point too close to a coordinate pole (u={uu:.4g})")
    su, cu = math.sin(uu), math.cos(uu)
    sv, cv = math.sin(vv), math.cos(vv)
    pos = np.array([a * su * cv, b * su * sv, c * cu])
    xu = np.array([a * cu * cv, b * cu * sv, -c * su])
    xv = np.array([-a * su * sv, b * su * cv, 0.0])
    xuu = np.array([-a * su * cv, -b * su * sv, -c * cu])
    xuv = np.array([-a * cu * sv, b * cu * cv, 0.0])
    xvv = np.array([-a * su * cv, -b * su * sv, 0.0])
    raw = np.cross(xu, xv)
    raw /= np.linalg.norm(raw)
    nu = -raw if float(raw @ pos) > 0.0 else raw      # inward
    g = np.array([[xu @ xu, xu @ xv], [xu @ xv, xv @ xv]])
    h = np.array([[xuu @ nu, xuv @ nu], [xuv @ nu, xvv @ nu]])
    lam = scipy.linalg.eigh(h, g, eigvals_only=True)
    return ShapeData(dim=2, position=pos[None, :], normal=nu[None, :], lam=lam[None, :],
                     support=np.array([float(pos @ nu)]),
                     weights=np.array([math.sqrt(np.linalg.det(g))]))


# ---------------------------------------------------------------------------
# grid tensor calculus
#
# In the coordinates (s, phi) of a grid -- the grid parameter s, and on a rotation
# surface the rotation angle phi -- the metric is diag(E, G) and h is diag(h_ss, h_pp),
# with h_ss = lam_m E and h_pp = lam_p G.  Axisymmetric fields depend on s alone; so
# do the Christoffel symbols, from 4th-order differences of E and G.

def _hessian_terms(f, phi):
    """Nonzero components of the covariant Hessian of `phi`: ss, and pp when n = 2."""
    dphi = f.d1(phi)
    terms = [f.d2(phi) - f.dE / (2.0 * f.E) * dphi]
    if f.dim == 2:
        terms.append(f.dG / (2.0 * f.E) * dphi)
    return terms


def _nabla_h_terms(f):
    """nabla_s h_ss, and nabla_s h_pp when n = 2: the components of nabla h along s.

    The parallel-fiber Christoffel contraction is evaluated in its pole-regular
    form (G'/G) h_pp = G' lam_p.
    """
    h_ss = f.lam[:, 0] * f.E
    terms = [f.d1(h_ss) - (f.dE / f.E) * h_ss]
    if f.dim == 2:
        terms.append(f.d1(f.lam[:, 1] * f.G) - f.dG * f.lam[:, 1])
    return terms


def covariant_hessian(surface, phi, grid_size=None):
    """Covariant Hessian (M, n, n) of a scalar sampled on the parameter grid.

    Christoffel symbols come from 4th-order differences of the extracted
    metric fields, so the result is metric-compatible with them to rounding.
    On a meridian grid the field is axisymmetric (a function of the profile
    parameter, even at the poles).
    """
    f = _grid_fields(surface, grid_size)
    phi = np.asarray(phi, dtype=float)
    m = f.E.shape[0]
    if phi.shape != (m,):
        raise GeometryError(f"field shape {phi.shape} does not match grid ({m},)")
    hess = np.zeros((m, f.dim, f.dim))
    for i, term in enumerate(_hessian_terms(f, phi)):
        hess[:, i, i] = term
    return hess


def codazzi_residual(surface, grid_size=None):
    """Max defect of total symmetry of the covariant derivative of h.

    Returns max |nabla_k h_ij - nabla_j h_ik| over the samples and index
    triples of a rotation surface's meridian grid.  With h diagonal and
    axisymmetric, the one triple whose symmetry is not built in is
    nabla_s h_pp = nabla_p h_sp = (G'/2)(lam_m - lam_p); the residual converges
    to zero at 4th order under grid refinement.
    """
    f = _grid_fields(surface, grid_size)
    if f.dim != 2:
        raise GeometryError(f"codazzi_residual needs a rotation surface (n = 2); on a "
                            f"curve (n = {f.dim}) nabla h has one component")
    nab_p_sp = 0.5 * f.dG * (f.lam[:, 0] - f.lam[:, 1])
    return float(np.abs(_nabla_h_terms(f)[1] - nab_p_sp).max())


def support_hessian_residual(surface, grid_size=None, base_point=None):
    """Max defect of the support-value Hessian identity (flat ambient).

    Checks nabla_i nabla_j Z = -h_ij - <X^T, nabla h_ij> - Z (A^2)_ij
    pointwise on the grid, with the left side as in `covariant_hessian` and
    nabla h from 4th-order differences.  The base point must be strictly
    inside the surface.
    """
    f = _grid_fields(surface, grid_size, base_point)
    z = f.support
    if np.any(z >= 0.0):
        raise GeometryError("support_hessian_residual: base point is not strictly inside the "
                            "surface (support values must be negative with inward normals)")
    (x, y), (xp, yp), (bx, by) = f.xy.T, f.vel.T, f.base
    radial = ((x - bx) * xp + (y - by) * yp) / f.E      # (X^T)^s
    metric = (f.E, f.G) if f.dim == 2 else (f.E,)
    terms = zip(_hessian_terms(f, z), _nabla_h_terms(f), f.lam.T, metric)
    res = [hess + lam * g + radial * nab_h + z * lam ** 2 * g for hess, nab_h, lam, g in terms]
    return float(max(np.abs(r).max() for r in res))


# ---------------------------------------------------------------------------
# snapshot documents

def surface_to_document(surface, metadata=None):
    doc = {"format_version": FORMAT_VERSION, "kind": "surface_snapshot",
           "metadata": dict(metadata or {})}
    if isinstance(surface, PlaneCurve):
        doc["variant"] = "curve"
        doc["grid_size"] = surface.grid_size
        doc["positions"] = surface.points.tolist()
    elif isinstance(surface, RevolutionProfile):
        doc["variant"] = "revolution"
        doc["grid_size"] = surface.grid_size
        doc["profile"] = surface.profile.tolist()
    elif isinstance(surface, Ellipsoid):
        doc["variant"] = "ellipsoid"
        doc["semi_axes"] = list(surface.semi_axes)
    else:
        raise GeometryError(f"cannot serialize {type(surface).__name__}")
    return doc


# snapshot variant -> (the field holding its samples, that field's array rank, constructor)
_SNAPSHOT_VARIANTS = {"curve": ("positions", 2, PlaneCurve),
                      "revolution": ("profile", 2, RevolutionProfile),
                      "ellipsoid": ("semi_axes", 1, Ellipsoid)}


def surface_from_document(doc):
    """The surface of a snapshot document; a missing or ill-typed field is refused by name."""
    if not isinstance(doc, dict):
        raise GeometryError(f"a snapshot document is a JSON object, got {type(doc).__name__}")
    if doc.get("format_version") != FORMAT_VERSION:
        raise GeometryError(f"unsupported snapshot format_version {doc.get('format_version')!r}")
    variant = doc.get("variant")
    if variant not in _SNAPSHOT_VARIANTS:
        raise GeometryError(f"unknown snapshot variant {variant!r}")
    key, rank, build = _SNAPSHOT_VARIANTS[variant]
    try:
        data = np.asarray(doc[key], dtype=float)
    except (KeyError, TypeError, ValueError) as exc:
        raise GeometryError(f"{variant} snapshot needs {key!r}, an array of numbers "
                            f"({type(exc).__name__}: {exc})") from exc
    if data.ndim != rank:
        raise GeometryError(f"{variant} snapshot: {key!r} must have rank {rank}, "
                            f"got shape {data.shape}")
    return build(data)


def save_surface(surface, path, metadata=None):
    """Write the snapshot document as one line of JSON.

    `json.dumps` without indent runs the C encoder; floats keep their repr,
    so they load back bit-exact.
    """
    with open(path, "w") as fh:
        fh.write(json.dumps(surface_to_document(surface, metadata)) + "\n")


def load_surface(path):
    with open(path) as fh:
        return surface_from_document(json.load(fh))


def extract_geometry(surface, base_point=None, grid_size=256):
    """Dispatch geometry extraction for any surface snapshot."""
    if isinstance(surface, (PlaneCurve, RevolutionProfile)):
        return surface.geometry(base_point)
    return _meridian_shape_data(_grid_fields(surface, grid_size, base_point))
