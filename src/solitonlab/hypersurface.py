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

The two grid types own every operation that depends on their layout, with
the same members: `dim`, `geometry`, `moved`, `resampled`, `scaled`,
`centroid` and `linearized_solver`.  `resampled` moves the samples to
uniform polygon arclength by a local degree-7 interpolant, with no system to solve.
"""

import json
import math
import numbers
from dataclasses import dataclass

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
        if len(axes) not in (2, 3) or any(a <= 0.0 for a in axes):
            raise GeometryError(f"semi-axes must be 2 or 3 positive reals, got {self.semi_axes}")
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


def _plane_base(base_point):
    """A plane curve's base point as an array of shape (2,); the origin by default."""
    if base_point is None:
        return np.zeros(2)
    base = np.asarray(base_point, dtype=float)
    if base.shape != (2,):
        raise GeometryError(f"a plane curve's base point is a pair (x, y), got {base_point!r}")
    return base


def _axis_base(base_point):
    """A rotation surface's base point as its x on the axis; 0 by default."""
    if base_point is None:
        return 0.0
    if not isinstance(base_point, numbers.Real):
        raise GeometryError(f"a rotation surface's base point is one real number (its x "
                            f"on the axis), got {base_point!r}")
    return float(base_point)


def _first_nonpositive(values):
    """Index of the first row of `values` with an entry <= 0 (NaN is not), or None.

    One `min()` passes positive data; the index is looked for only on failure."""
    if values.min() > 0.0:
        return None
    bad = (values <= 0.0).reshape(len(values), -1).any(axis=1).nonzero()[0]
    return int(bad[0]) if bad.size else None


def _require_interior_base(support, what):
    if np.any(support >= 0.0):
        raise GeometryError(f"{what}: base point is not strictly inside the surface "
                            "(support values must be negative with inward normals)")


def _curve_velocity(points):
    """Grid step and the 4th-order periodic velocity (x', y'), (M, 2), of a curve grid."""
    h = 2.0 * np.pi / points.shape[0]
    return h, _fd.periodic_d1(points, h)


def curve_geometry(curve, base_point=None):
    """Extract `ShapeData` from a closed convex plane curve.

    Tangent, normal, and curvature come from 4th-order periodic differences;
    the normal is oriented inward and the signed curvature is positive for
    convex curves.  The support value uses the origin unless `base_point`, a
    pair (x, y), overrides it.
    """
    pts = curve.points
    h, vel = _curve_velocity(pts)
    xp, yp = vel.T
    x, y = pts.T
    w2 = xp * xp + yp * yp
    if _first_nonpositive(w2) is not None:
        raise GeometryError("degenerate parametrization (zero speed)")
    w = np.sqrt(w2)

    nxt = np.concatenate((pts[1:], pts[:1]))          # sample i + 1
    area2 = float((x * nxt[:, 1] - nxt[:, 0] * y).sum())
    orient = 1.0 if area2 >= 0.0 else -1.0
    # curvature from the turning of the unit tangent: exact on circles and
    # other single-harmonic grids, O(h^4) in general
    tangent = vel / w[:, None]
    tx, ty = tangent.T
    dtx, dty = _fd.periodic_d1(tangent, h).T
    k = orient * (tx * dty - ty * dtx) / w
    normal = np.empty_like(tangent)
    normal[:, 0], normal[:, 1] = -orient * ty, orient * tx

    nonconvex = _first_nonpositive(k)
    if nonconvex is not None:
        raise NonConvexSurfaceError("curve is not convex: curvature <= 0", nonconvex)

    angles = np.arctan2(yp, xp)
    turns = np.concatenate((angles[1:], angles[:1])) - angles
    turns = (turns + np.pi) % (2.0 * np.pi) - np.pi
    # +-1 for simple curves depending on traversal; normalize by orientation
    turning_number = orient * float(turns.sum() / (2.0 * np.pi))
    if abs(turning_number - 1.0) > 1e-6:
        raise GeometryError(f"curve is not simple: turning number {turning_number:.6f} != 1")

    rel = pts - _plane_base(base_point)
    support = rel[:, 0] * normal[:, 0] + rel[:, 1] * normal[:, 1]
    rho = _norms(rel)
    tol = 1e-12 * max(1.0, float(np.abs(pts).max()))
    if not rho.min() >= tol and (rho < tol).any():
        raise GeometryError("base point lies on the curve; radial direction undefined")

    return ShapeData(dim=1, position=pts.copy(), normal=normal, lam=k[:, None],
                     support=support, weights=w * h)


# ---------------------------------------------------------------------------
# meridian field bundles (shared by discrete profiles and analytic spheroids)

@dataclass
class _MeridianFields:
    """Sampled meridian fields of a rotation surface, pole to pole."""

    du: float
    x: np.ndarray
    y: np.ndarray
    xp: np.ndarray
    yp: np.ndarray
    w: np.ndarray
    nu: np.ndarray           # (M, 2) inward planar normal
    E: np.ndarray            # metric g_ss
    G: np.ndarray            # metric g_phiphi
    lam_m: np.ndarray        # meridian principal curvature
    lam_p: np.ndarray        # parallel principal curvature
    support: np.ndarray      # Z about the base point
    rel_x: np.ndarray        # x minus the base point's x

    def d1(self, f):
        return _fd.reflected_d1(f, self.du, +1)

    def d2(self, f):
        return _fd.reflected_d2(f, self.du, +1)

    @property
    def h_ss(self):
        return self.lam_m * self.E

    @property
    def h_pp(self):
        return self.lam_p * self.G


def _meridian_from_profile(profile, base_point=None):
    prof = profile.profile
    m = prof.shape[0]
    du = 1.0 / (m - 1)
    x, y = prof.T

    vel = _fd.reflected_d1(prof, du, (+1, -1))      # x even through the poles, y odd
    xp, yp = vel.T
    w2 = xp * xp + yp * yp
    if _first_nonpositive(w2) is not None:
        raise GeometryError("degenerate profile parametrization (zero speed)")
    w = np.sqrt(w2)

    # orient the planar normal inward: negative y-component at the equator
    ie = int(y.argmax())
    orient = 1.0 if -xp[ie] / w[ie] < 0.0 else -1.0
    # meridian curvature from the turning of the unit tangent (tangent x-part
    # is odd through the poles, y-part even)
    tangent = vel / w[:, None]
    tx, ty = tangent.T
    nu = tangent[:, ::-1] * (orient, -orient)          # orient * (ty, -tx)
    dtx, dty = _fd.reflected_d1(tangent, du, (-1, +1)).T
    lam_m = orient * (ty * dtx - tx * dty) / w

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

    lam_p = np.empty(m)
    lam_p[1:-1] = -nu[1:-1, 1] / y[1:-1]
    lam_p[[0, -1]] = lam_m[[0, -1]]          # regular pole limit

    rel_x = x - _axis_base(base_point)
    support = rel_x * nu[:, 0] + y * nu[:, 1]
    return _MeridianFields(du=du, x=x, y=y, xp=xp, yp=yp, w=w, nu=nu,
                           E=w2, G=y * y, lam_m=lam_m, lam_p=lam_p,
                           support=support, rel_x=rel_x)


def _meridian_from_spheroid(equatorial, polar, grid_size, base_point=None):
    a, c = float(equatorial), float(polar)
    m = int(grid_size)
    if m < 16:
        raise GeometryError("meridian grid needs at least 16 samples")
    u = np.linspace(0.0, np.pi, m)
    du = float(u[1] - u[0])
    x = -c * np.cos(u)
    y = a * np.sin(u)
    xp = c * np.sin(u)
    yp = a * np.cos(u)
    w = np.sqrt(xp * xp + yp * yp)
    nu = np.column_stack([yp, -xp]) / w[:, None]
    lam_m = a * c / w ** 3
    lam_p = c / (a * w)
    rel_x = x - _axis_base(base_point)
    support = rel_x * nu[:, 0] + y * nu[:, 1]
    return _MeridianFields(du=du, x=x, y=y, xp=xp, yp=yp, w=w, nu=nu,
                           E=w * w, G=y * y, lam_m=lam_m, lam_p=lam_p,
                           support=support, rel_x=rel_x)


def _meridian_fields(surface, grid_size=None, base_point=None):
    if isinstance(surface, RevolutionProfile):
        return _meridian_from_profile(surface, base_point)
    if isinstance(surface, Ellipsoid):
        if surface.dim != 2:
            raise GeometryError("meridian grid operations need a 2-dimensional surface")
        if not surface.axisymmetric:
            raise GeometryError("grid operations support axisymmetric ellipsoids only "
                                "(equal first two semi-axes); triaxial surfaces are "
                                "evaluated pointwise with ellipsoid_geometry")
        if grid_size is None:
            raise GeometryError("analytic ellipsoid grid operations need grid_size")
        a, _, c = surface.semi_axes
        return _meridian_from_spheroid(a, c, grid_size, base_point)
    raise GeometryError(f"unsupported surface type {type(surface).__name__} for grid operations")


def _meridian_shape_data(f):
    m = f.x.shape[0]
    pos, nrm, lam = np.zeros((m, 3)), np.zeros((m, 3)), np.empty((m, 2))
    pos[:, 0], pos[:, 1] = f.x, f.y
    nrm[:, :2] = f.nu
    lam[:, 0], lam[:, 1] = f.lam_m, f.lam_p
    weights = 2.0 * np.pi * f.y * f.w * f.du
    weights[[0, -1]] *= 0.5
    return ShapeData(dim=2, position=pos, normal=nrm, lam=lam, support=f.support,
                     weights=weights)


def revolution_geometry(profile, base_point=None):
    """Extract `ShapeData` along the meridian of a convex rotation surface.

    The meridian principal curvature is the signed profile curvature; the
    parallel one comes from the normal's axial tilt, with the regular limit
    (equal to the meridian value) at the two poles.  `base_point`, when given,
    must lie on the rotation axis (a single x-coordinate).
    """
    geom = _meridian_shape_data(_meridian_from_profile(profile, base_point))
    bad = _first_nonpositive(geom.lam)
    if bad is not None:
        raise NonConvexSurfaceError("rotation surface is not convex", bad)
    return geom


def spheroid_meridian_geometry(equatorial, polar, grid_size=256, base_point=None):
    """Closed-form `ShapeData` on a meridian grid of an axisymmetric ellipsoid."""
    return _meridian_shape_data(_meridian_from_spheroid(equatorial, polar, grid_size, base_point))


# ---------------------------------------------------------------------------
# pointwise analytic ellipsoid geometry

def ellipsoid_geometry(semi_axes, u, v=None):
    """Closed-form `ShapeData` (single sample) of an ellipse or ellipsoid point.

    For three semi-axes the parametrization is
    X = (a sin u cos v, b sin u sin v, c cos u); the point must keep away from
    the coordinate poles (u within 1e-3 of 0 or pi is rejected).
    """
    surf = semi_axes if isinstance(semi_axes, Ellipsoid) else Ellipsoid(tuple(semi_axes))
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

def covariant_hessian(surface, phi, grid_size=None):
    """Covariant Hessian of a scalar sampled on the parameter grid.

    Christoffel symbols come from 4th-order differences of the extracted
    metric fields, so the result is metric-compatible with them to rounding.
    Curves use the one-dimensional reduction; meridian grids assume the field
    is axisymmetric (a function of the profile parameter, even at the poles).
    """
    phi = np.asarray(phi, dtype=float)
    if isinstance(surface, PlaneCurve):
        m = surface.grid_size
        if phi.shape != (m,):
            raise GeometryError(f"field shape {phi.shape} does not match grid ({m},)")
        h, vel = _curve_velocity(surface.points)
        xp, yp = vel.T
        e = xp * xp + yp * yp
        ep = _fd.periodic_d1(e, h)
        pp = _fd.periodic_d1(phi, h)
        ppp = _fd.periodic_d2(phi, h)
        return (ppp - ep / (2.0 * e) * pp).reshape(m, 1, 1)

    f = _meridian_fields(surface, grid_size)
    m = f.x.shape[0]
    if phi.shape != (m,):
        raise GeometryError(f"field shape {phi.shape} does not match grid ({m},)")
    pp = f.d1(phi)
    ppp = f.d2(phi)
    ep = f.d1(f.E)
    gp = f.d1(f.G)
    hess = np.zeros((m, 2, 2))
    hess[:, 0, 0] = ppp - ep / (2.0 * f.E) * pp
    hess[:, 1, 1] = gp / (2.0 * f.E) * pp
    return hess


def _meridian_nabla_h(f):
    """Nonzero components of the covariant derivative of the second form.

    On a rotation surface h is diagonal with s-dependent entries, which
    reduces nabla_k h_ij to four fields; Christoffel terms use the same
    4th-order metric derivatives as `covariant_hessian`.  The parallel-fiber
    Christoffel contraction is evaluated in its pole-regular form
    (G'/G) h_pp = G' * lam_p.
    """
    ep = f.d1(f.E)
    gp = f.d1(f.G)
    nab_s_ss = f.d1(f.h_ss) - (ep / f.E) * f.h_ss
    nab_s_pp = f.d1(f.h_pp) - gp * f.lam_p
    nab_p_sp = 0.5 * gp * (f.lam_m - f.lam_p)
    return nab_s_ss, nab_s_pp, nab_p_sp, ep, gp


def codazzi_residual(surface, grid_size=None):
    """Max defect of total symmetry of the covariant derivative of h.

    Assembles nabla_k h_ij on the meridian grid and returns
    max |nabla_k h_ij - nabla_j h_ik| over samples and index triples; the
    residual converges to zero at 4th order under grid refinement.
    """
    f = _meridian_fields(surface, grid_size)
    nab_s_ss, nab_s_pp, nab_p_sp, _, _ = _meridian_nabla_h(f)
    m = f.x.shape[0]
    nabla = np.zeros((m, 2, 2, 2))      # [sample, k, i, j]
    nabla[:, 0, 0, 0] = nab_s_ss
    nabla[:, 0, 1, 1] = nab_s_pp
    nabla[:, 1, 0, 1] = nabla[:, 1, 1, 0] = nab_p_sp
    defect = np.abs(nabla - nabla.transpose(0, 3, 2, 1))
    return float(defect.max())


def support_hessian_residual(surface, grid_size=None, base_point=None):
    """Max defect of the support-value Hessian identity (flat ambient).

    Checks nabla_i nabla_j Z = -h_ij - <X^T, nabla h_ij> - Z (A^2)_ij
    pointwise on the grid, with the left side from `covariant_hessian` and
    nabla h from 4th-order differences.  The base point must be strictly
    inside the surface.
    """
    if isinstance(surface, PlaneCurve):
        geom = curve_geometry(surface, base_point=base_point)
        _require_interior_base(geom.support, "support_hessian_residual")
        h, vel = _curve_velocity(surface.points)
        xp, yp = vel.T
        e = xp * xp + yp * yp
        ep = _fd.periodic_d1(e, h)
        z = geom.support
        hess_z = _fd.periodic_d2(z, h) - ep / (2.0 * e) * _fd.periodic_d1(z, h)
        h11 = geom.lam[:, 0] * e
        nab_h = _fd.periodic_d1(h11, h) - (ep / e) * h11
        rel = geom.position - _plane_base(base_point)
        tang = np.einsum("ij,ij->i", rel, vel) / e
        res = hess_z + h11 + tang * nab_h + z * (geom.lam[:, 0] ** 2 * e)
        return float(np.abs(res).max())

    f = _meridian_fields(surface, grid_size, base_point)
    _require_interior_base(f.support, "support_hessian_residual")
    nab_s_ss, nab_s_pp, _, ep, gp = _meridian_nabla_h(f)
    z = f.support
    zp = f.d1(z)
    hess_ss = f.d2(z) - ep / (2.0 * f.E) * zp
    hess_pp = gp / (2.0 * f.E) * zp
    radial = (f.rel_x * f.xp + f.y * f.yp) / f.E      # shc(rho) * (d_rho^T)^s at c = 0
    res_ss = hess_ss + f.h_ss + radial * nab_s_ss + z * f.lam_m ** 2 * f.E
    res_pp = hess_pp + f.h_pp + radial * nab_s_pp + z * f.lam_p ** 2 * f.G
    return float(max(np.abs(res_ss).max(), np.abs(res_pp).max()))


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


def surface_from_document(doc):
    if doc.get("format_version") != FORMAT_VERSION:
        raise GeometryError(f"unsupported snapshot format_version {doc.get('format_version')!r}")
    variant = doc.get("variant")
    if variant == "curve":
        return PlaneCurve(np.asarray(doc["positions"], dtype=float))
    if variant == "revolution":
        return RevolutionProfile(np.asarray(doc["profile"], dtype=float))
    if variant == "ellipsoid":
        return Ellipsoid(tuple(doc["semi_axes"]))
    raise GeometryError(f"unknown snapshot variant {variant!r}")


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
    if isinstance(surface, Ellipsoid):
        if surface.dim == 2 and surface.axisymmetric:
            a, _, c = surface.semi_axes
            return spheroid_meridian_geometry(a, c, grid_size, base_point)
        raise GeometryError("general ellipsoids are evaluated pointwise; "
                            "use ellipsoid_geometry(semi_axes, u, v)")
    raise GeometryError(f"unknown surface type {type(surface).__name__}")
