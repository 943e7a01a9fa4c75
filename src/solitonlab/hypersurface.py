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
`centroid`, `min_spacing` and `linearized_solver`.
"""

import json
import math
import numbers
from dataclasses import dataclass

import numpy as np
import scipy.linalg
from scipy.linalg.lapack import dgtsv

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
        if not np.all(np.isfinite(pts)):
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
        """Resampled to uniform arclength by the periodic C^2 cubic interpolant."""
        closed = np.vstack([self.points, self.points[:1]])
        s = _arclength(closed)
        m = self.grid_size
        return PlaneCurve(_periodic_spline(s, closed, s[-1] * np.arange(m) / m))

    def scaled(self, alpha, center):
        return PlaneCurve(center + alpha * (self.points - center))

    def centroid(self, weights):
        return (weights @ self.points) / weights.sum()

    def min_spacing(self):
        """Shortest segment of the closed polygon, the closing one included."""
        return float(_segments(np.vstack([self.points, self.points[:1]])).min())

    def linearized_solver(self, geom, dfdlam, c):
        """Solver of (I - c J) u = r for the normal speed F of the flow.

        J is the 3-point linearization of F under a normal displacement u,
        F'(k) (d_ss + k^2), with d_ss on the polygon's arclength spacings: a
        cyclic tridiagonal matrix.  `dfdlam` (M, 1) is F' at the samples.
        """
        fwd = _segments(np.vstack([self.points, self.points[:1]]))   # sample i to i + 1
        back = np.roll(fwd, 1)
        a, b = _second_difference(back, fwd)
        g = c * dfdlam[:, 0]
        lower, upper = -g * a, -g * b
        diag = 1.0 - g * (geom.lam[:, 0] ** 2 - a - b)
        return lambda r: _cyclic_tridiagonal_solve(lower, diag, upper, r[:, None])[:, 0]


@dataclass(frozen=True)
class RevolutionProfile:
    """Meridian profile (x, y) rotated about the x-axis; ends on the axis."""

    profile: np.ndarray      # (M, 2), y >= 0, y = 0 exactly at both ends
    dim = 2

    def __post_init__(self):
        prof = np.asarray(self.profile, dtype=float)
        if prof.ndim != 2 or prof.shape[1] != 2 or prof.shape[0] < 16:
            raise GeometryError(f"profile needs at least 16 samples, got {prof.shape}")
        if not np.all(np.isfinite(prof)):
            raise GeometryError("profile has non-finite coordinates")
        scale = float(np.abs(prof).max())
        y = prof[:, 1].copy()
        if abs(y[0]) > 1e-9 * scale or abs(y[-1]) > 1e-9 * scale:
            raise GeometryError("profile must start and end on the rotation axis (y = 0)")
        y[0] = y[-1] = 0.0
        interior = y[1:-1]
        if np.any(interior <= 0.0):
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

        The profile is doubled through the poles (axis coordinate even, radius odd)
        so the resampled data keeps the reflection symmetry of the pole stencils.
        """
        prof = self.profile
        s = _arclength(prof)
        length = s[-1]
        mirrored = np.column_stack([prof[-2:0:-1, 0], -prof[-2:0:-1, 1]])
        doubled = np.vstack([prof, mirrored, prof[:1]])
        s_ext = np.concatenate([s, 2.0 * length - s[-2::-1]])
        new = _periodic_spline(s_ext, doubled, np.linspace(0.0, length, self.grid_size))
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

    def min_spacing(self):
        """Shortest meridian segment; the two poles are not joined."""
        return float(_segments(self.profile).min())

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
        lam2 = fm * geom.weingarten[:, 0, 0] ** 2 + fp * geom.weingarten[:, 1, 1] ** 2
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
# uniform-arclength resampling

def _cyclic_tridiagonal_solve(lower, diag, upper, rhs):
    """Solve the cyclic tridiagonal system A x = rhs for the columns of `rhs` (n, k).

    Row i of A is lower[i] x[i-1] + diag[i] x[i] + upper[i] x[i+1], indices
    mod n, so lower[0] and upper[-1] are the two corner entries.  They are
    handled by a Sherman-Morrison correction, so one `dgtsv` call takes every
    column and the correction vector as right-hand sides.
    """
    n = diag.size
    corner_first, corner_last = lower[0], upper[-1]     # entries (0, n-1) and (n-1, 0)
    gamma = -diag[0]
    diag = diag.copy()
    diag[0] -= gamma
    diag[-1] -= corner_first * corner_last / gamma
    b = np.zeros((n, rhs.shape[1] + 1))
    b[:, :-1] = rhs
    b[0, -1] = gamma
    b[-1, -1] = corner_last
    _, _, _, sol, info = dgtsv(lower[1:], diag, upper[:-1], b, overwrite_b=1)
    if info != 0:
        raise GeometryError("singular cyclic tridiagonal system")
    ratio = corner_first / gamma
    correction = (sol[0] + ratio * sol[-1]) / (1.0 + sol[0, -1] + ratio * sol[-1, -1])
    return sol[:, :-1] - sol[:, -1:] * correction[:-1]


def _second_difference(back, fwd):
    """Weights (a, b) of the 3-point second difference a u_{i-1} - (a + b) u_i + b u_{i+1}.

    `back` and `fwd` are the spacings to the previous and the next sample.
    """
    span = back + fwd
    return 2.0 / (back * span), 2.0 / (fwd * span)


def _periodic_spline(knots, values, targets):
    """Periodic C^2 cubic interpolant of `values` over `knots`, evaluated at `targets`.

    `knots` (N + 1,) increase strictly over one period and `values` (N + 1, k)
    repeat their first row at the end; `targets` lie in [knots[0], knots[-1]].
    This is the interpolant of `CubicSpline(knots, values, bc_type="periodic")`:
    the knot slopes solve the cyclic tridiagonal C^2 system.
    """
    h = np.diff(knots)
    if not h.min() > 0.0:
        raise GeometryError("coincident samples: arclength does not increase")
    n = h.size
    hc = h[:, None]
    delta = np.diff(values, axis=0) / hc
    h_prev = np.concatenate((h[-1:], h[:-1]))
    delta_prev = np.concatenate((delta[-1:], delta[:-1]))
    # knot slopes m, row i: h_i m_{i-1} + 2 (h_{i-1} + h_i) m_i + h_{i-1} m_{i+1}
    #                      = 3 (h_i delta_{i-1} + h_{i-1} delta_i), indices mod n
    m0 = _cyclic_tridiagonal_solve(h, 2.0 * (h_prev + h), h_prev,
                                   3.0 * (hc * delta_prev + h_prev[:, None] * delta))
    m1 = np.concatenate((m0[1:], m0[:1]))

    # per-interval power form, then one gather for the targets
    t = (m0 + m1 - 2.0 * delta) / hc
    coef = np.stack((values[:-1], m0, (delta - m0) / hc - t, t / hc), axis=1)
    idx = np.minimum(np.searchsorted(knots, targets, side="right") - 1, n - 1)
    c = coef[idx]
    x = (targets - knots[idx])[:, None]
    return c[:, 0] + x * (c[:, 1] + x * (c[:, 2] + x * c[:, 3]))


def _segments(points):
    return np.linalg.norm(np.diff(points, axis=0), axis=1)


def _arclength(points):
    return np.concatenate([[0.0], np.cumsum(_segments(points))])


# ---------------------------------------------------------------------------
# extracted geometry

@dataclass
class ShapeData:
    """Per-sample geometric state of a hypersurface."""

    dim: int                 # hypersurface dimension n
    position: np.ndarray     # (M, n+1)
    normal: np.ndarray       # (M, n+1) inward unit normals
    metric: np.ndarray       # (M, n, n)
    second_form: np.ndarray  # (M, n, n)
    weingarten: np.ndarray   # (M, n, n)
    lam: np.ndarray          # (M, n) principal curvatures, ascending
    mean: np.ndarray         # (M,) trace of the Weingarten map
    norm_A2: np.ndarray      # (M,) sum of squared principal curvatures
    support: np.ndarray      # (M,) support value about the base point
    weights: np.ndarray      # (M,) measure weights (arclength / area elements)

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


def _require_interior_base(support, what):
    if np.any(support >= 0.0):
        raise GeometryError(f"{what}: base point is not strictly inside the surface "
                            "(support values must be negative with inward normals)")


def _curve_velocity(points):
    """Grid step and 4th-order periodic derivatives (x', y') of a curve grid."""
    h = 2.0 * np.pi / points.shape[0]
    return h, _fd.periodic_d1(points[:, 0], h), _fd.periodic_d1(points[:, 1], h)


def curve_geometry(curve, base_point=None):
    """Extract `ShapeData` from a closed convex plane curve.

    Tangent, normal, and curvature come from 4th-order periodic differences;
    the normal is oriented inward and the signed curvature is positive for
    convex curves.  The support value uses the origin unless `base_point`, a
    pair (x, y), overrides it.
    """
    pts = curve.points
    m = pts.shape[0]
    h, xp, yp = _curve_velocity(pts)
    x, y = pts[:, 0], pts[:, 1]
    w2 = xp * xp + yp * yp
    if np.any(w2 <= 0.0):
        raise GeometryError("degenerate parametrization (zero speed)")
    w = np.sqrt(w2)

    area2 = float(np.sum(x * np.roll(y, -1) - np.roll(x, -1) * y))
    orient = 1.0 if area2 >= 0.0 else -1.0
    # curvature from the turning of the unit tangent: exact on circles and
    # other single-harmonic grids, O(h^4) in general
    tx, ty = xp / w, yp / w
    k = orient * (tx * _fd.periodic_d1(ty, h) - ty * _fd.periodic_d1(tx, h)) / w
    normal = orient * np.column_stack([-ty, tx])

    nonconvex = np.nonzero(k <= 0.0)[0]
    if nonconvex.size:
        raise NonConvexSurfaceError("curve is not convex: curvature <= 0", int(nonconvex[0]))

    angles = np.arctan2(yp, xp)
    turns = np.diff(np.concatenate([angles, angles[:1]]))
    turns = (turns + np.pi) % (2.0 * np.pi) - np.pi
    # +-1 for simple curves depending on traversal; normalize by orientation
    turning_number = orient * float(turns.sum() / (2.0 * np.pi))
    if abs(turning_number - 1.0) > 1e-6:
        raise GeometryError(f"curve is not simple: turning number {turning_number:.6f} != 1")

    rel = pts - _plane_base(base_point)
    support = np.einsum("ij,ij->i", rel, normal)
    rho = np.linalg.norm(rel, axis=1)
    if np.any(rho < 1e-12 * max(1.0, float(np.abs(pts).max()))):
        raise GeometryError("base point lies on the curve; radial direction undefined")

    metric = w2.reshape(m, 1, 1)
    second = (k * w2).reshape(m, 1, 1)
    weingarten = k.reshape(m, 1, 1)
    lam = k.reshape(m, 1)
    return ShapeData(
        dim=1, position=pts.copy(), normal=normal,
        metric=metric, second_form=second, weingarten=weingarten, lam=lam,
        mean=k.copy(), norm_A2=k * k, support=support, weights=w * h,
    )


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
    x, y = prof[:, 0].copy(), prof[:, 1].copy()

    xp = _fd.reflected_d1(x, du, +1)
    yp = _fd.reflected_d1(y, du, -1)
    w2 = xp * xp + yp * yp
    if np.any(w2 <= 0.0):
        raise GeometryError("degenerate profile parametrization (zero speed)")
    w = np.sqrt(w2)

    # orient the planar normal inward: negative y-component at the equator
    ie = int(np.argmax(y))
    orient = 1.0 if -xp[ie] / w[ie] < 0.0 else -1.0
    # meridian curvature from the turning of the unit tangent (tangent x-part
    # is odd through the poles, y-part even)
    tx, ty = xp / w, yp / w
    nu = orient * np.column_stack([ty, -tx])
    lam_m = orient * (ty * _fd.reflected_d1(tx, du, -1)
                      - tx * _fd.reflected_d1(ty, du, +1)) / w

    # pole-angle check: the one-sided slope of the axis coordinate must vanish
    # relative to the profile speed.  The base tolerance is floored by the
    # estimator's own resolution, O((h kappa)^3), on interpolation-grade data
    # (resampled flow states); the reference curvature is the robust bulk
    # median so an irregular pole cannot loosen its own check.
    h_arc = float(_segments(prof).mean())
    kappa_ref = float(np.median(np.abs(lam_m[m // 4: 3 * m // 4]))) or 1.0
    pole_tol = max(_POLE_ANGLE_TOL, (2.0 * h_arc * kappa_ref) ** 3)
    for label, xsl, ysl in (("first", _fd.onesided_d1_start(x, du), _fd.onesided_d1_start(y, du)),
                            ("last", _fd.onesided_d1_end(x, du), _fd.onesided_d1_end(y, du))):
        speed = math.hypot(xsl, ysl)
        if speed <= 0.0 or abs(xsl) > pole_tol * speed:
            raise GeometryError(f"profile does not meet the axis orthogonally at the "
                                f"{label} sample (pole-angle violation)")

    lam_p = np.empty(m)
    lam_p[1:-1] = -nu[1:-1, 1] / y[1:-1]
    lam_p[0] = lam_m[0]          # regular pole limit
    lam_p[-1] = lam_m[-1]

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


def _diagonal(a, b):
    """Stack of the diagonal tensors diag(a_i, b_i), shape (M, 2, 2)."""
    out = np.zeros((a.shape[0], 2, 2))
    out[:, 0, 0] = a
    out[:, 1, 1] = b
    return out


def _meridian_shape_data(f):
    m = f.x.shape[0]
    pos = np.column_stack([f.x, f.y, np.zeros(m)])
    nrm = np.column_stack([f.nu, np.zeros(m)])
    lam = np.sort(np.column_stack([f.lam_m, f.lam_p]), axis=1)
    weights = 2.0 * np.pi * f.y * f.w * f.du
    weights[0] *= 0.5
    weights[-1] *= 0.5
    return ShapeData(
        dim=2, position=pos, normal=nrm, metric=_diagonal(f.E, f.G),
        second_form=_diagonal(f.h_ss, f.h_pp), weingarten=_diagonal(f.lam_m, f.lam_p),
        lam=lam, mean=f.lam_m + f.lam_p, norm_A2=f.lam_m ** 2 + f.lam_p ** 2,
        support=f.support, weights=weights,
    )


def revolution_geometry(profile, base_point=None):
    """Extract `ShapeData` along the meridian of a convex rotation surface.

    The meridian principal curvature is the signed profile curvature; the
    parallel one comes from the normal's axial tilt, with the regular limit
    (equal to the meridian value) at the two poles.  `base_point`, when given,
    must lie on the rotation axis (a single x-coordinate).
    """
    f = _meridian_from_profile(profile, base_point)
    bad = np.nonzero((f.lam_m <= 0.0) | (f.lam_p <= 0.0))[0]
    if bad.size:
        raise NonConvexSurfaceError("rotation surface is not convex", int(bad[0]))
    return _meridian_shape_data(f)


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
        return ShapeData(
            dim=1,
            position=pos[None, :], normal=nu[None, :],
            metric=np.array([[[speed2]]]), second_form=np.array([[[k * speed2]]]),
            weingarten=np.array([[[k]]]), lam=np.array([[k]]),
            mean=np.array([k]), norm_A2=np.array([k * k]), support=np.array([support]),
            weights=np.array([math.sqrt(speed2)]),
        )

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
    weingarten = np.linalg.solve(g, h)
    return ShapeData(
        dim=2,
        position=pos[None, :], normal=nu[None, :],
        metric=g[None, :, :], second_form=h[None, :, :],
        weingarten=weingarten[None, :, :], lam=lam[None, :],
        mean=np.array([float(np.trace(weingarten))]),
        norm_A2=np.array([float(np.sum(lam * lam))]), support=np.array([float(pos @ nu)]),
        weights=np.array([math.sqrt(np.linalg.det(g))]),
    )


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
        h, xp, yp = _curve_velocity(surface.points)
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
    return _diagonal(ppp - ep / (2.0 * f.E) * pp, gp / (2.0 * f.E) * pp)


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
        h, xp, yp = _curve_velocity(surface.points)
        e = geom.metric[:, 0, 0]
        ep = _fd.periodic_d1(e, h)
        z = geom.support
        hess_z = _fd.periodic_d2(z, h) - ep / (2.0 * e) * _fd.periodic_d1(z, h)
        h11 = geom.second_form[:, 0, 0]
        nab_h = _fd.periodic_d1(h11, h) - (ep / e) * h11
        rel = geom.position - _plane_base(base_point)
        tang = np.einsum("ij,ij->i", rel, np.column_stack([xp, yp])) / e
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
    with open(path, "w") as fh:
        json.dump(surface_to_document(surface, metadata), fh, indent=1)
        fh.write("\n")


def load_surface(path):
    with open(path) as fh:
        return surface_from_document(json.load(fh))


def extract_geometry(surface, base_point=None, grid_size=None):
    """Dispatch geometry extraction for any surface snapshot."""
    if isinstance(surface, (PlaneCurve, RevolutionProfile)):
        return surface.geometry(base_point)
    if isinstance(surface, Ellipsoid):
        if surface.dim == 2 and surface.axisymmetric:
            a, _, c = surface.semi_axes
            return spheroid_meridian_geometry(a, c, grid_size or 256, base_point)
        raise GeometryError("general ellipsoids are evaluated pointwise; "
                            "use ellipsoid_geometry(semi_axes, u, v)")
    raise GeometryError(f"unknown surface type {type(surface).__name__}")
