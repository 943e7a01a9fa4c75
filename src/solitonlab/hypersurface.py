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
"""

import json
import math
from dataclasses import dataclass

import numpy as np
import scipy.linalg

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


@dataclass(frozen=True)
class RevolutionProfile:
    """Meridian profile (x, y) rotated about the x-axis; ends on the axis."""

    profile: np.ndarray      # (M, 2), y >= 0, y = 0 exactly at both ends

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
    th = 2.0 * np.pi * np.arange(grid_size) / grid_size
    return PlaneCurve(radius * np.column_stack([np.cos(th), np.sin(th)]))


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
    y[0] = y[-1] = 0.0
    return RevolutionProfile(np.column_stack([x, y]))


# ---------------------------------------------------------------------------
# extracted geometry

@dataclass
class ShapeData:
    """Per-sample geometric state of a hypersurface."""

    variant: str
    dim: int                 # hypersurface dimension n
    position: np.ndarray     # (M, n+1)
    normal: np.ndarray       # (M, n+1) inward unit normals
    metric: np.ndarray       # (M, n, n)
    second_form: np.ndarray  # (M, n, n)
    weingarten: np.ndarray   # (M, n, n)
    lam: np.ndarray          # (M, n) principal curvatures, ascending
    mean: np.ndarray         # (M,) trace of the Weingarten map
    norm_A2: np.ndarray      # (M,) sum of squared principal curvatures
    shape_sq: np.ndarray     # (M, n, n) components of h_i^k h_kj
    support: np.ndarray      # (M,) support value about the base point
    weights: np.ndarray      # (M,) measure weights (arclength / area elements)

    @property
    def sample_count(self):
        return self.lam.shape[0]

    @property
    def measure(self):
        return float(self.weights.sum())


def _require_interior_base(support, what):
    if np.any(support >= 0.0):
        raise GeometryError(f"{what}: base point is not strictly inside the surface "
                            "(support values must be negative with inward normals)")


def curve_geometry(curve, base_point=None):
    """Extract `ShapeData` from a closed convex plane curve.

    Tangent, normal, and curvature come from 4th-order periodic differences;
    the normal is oriented inward and the signed curvature is positive for
    convex curves.  The support value uses the origin unless `base_point`
    overrides it.
    """
    if not isinstance(curve, PlaneCurve):
        raise GeometryError(f"curve_geometry expects a PlaneCurve, got {type(curve).__name__}")
    pts = curve.points
    m = pts.shape[0]
    h = 2.0 * np.pi / m
    x, y = pts[:, 0], pts[:, 1]
    xp = _fd.periodic_d1(x, h)
    yp = _fd.periodic_d1(y, h)
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

    base = np.zeros(2) if base_point is None else np.asarray(base_point, dtype=float)
    rel = pts - base
    support = np.einsum("ij,ij->i", rel, normal)
    rho = np.linalg.norm(rel, axis=1)
    if np.any(rho < 1e-12 * max(1.0, float(np.abs(pts).max()))):
        raise GeometryError("base point lies on the curve; radial direction undefined")

    metric = w2.reshape(m, 1, 1)
    second = (k * w2).reshape(m, 1, 1)
    weingarten = k.reshape(m, 1, 1)
    lam = k.reshape(m, 1)
    shape_sq = (k * k * w2).reshape(m, 1, 1)
    return ShapeData(
        variant="curve", dim=1, position=pts.copy(), normal=normal,
        metric=metric, second_form=second, weingarten=weingarten, lam=lam,
        mean=k.copy(), norm_A2=k * k, shape_sq=shape_sq, support=support,
        weights=w * h,
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
    rel_x: np.ndarray        # x - base_x
    analytic: bool

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


def _meridian_from_profile(profile, base_x=0.0):
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
    h_arc = float(np.linalg.norm(np.diff(prof, axis=0), axis=1).mean())
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

    rel_x = x - base_x
    support = rel_x * nu[:, 0] + y * nu[:, 1]
    return _MeridianFields(du=du, x=x, y=y, xp=xp, yp=yp, w=w, nu=nu,
                           E=w2, G=y * y, lam_m=lam_m, lam_p=lam_p,
                           support=support, rel_x=rel_x, analytic=False)


def _meridian_from_spheroid(equatorial, polar, grid_size, base_x=0.0):
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
    rel_x = x - base_x
    support = rel_x * nu[:, 0] + y * nu[:, 1]
    return _MeridianFields(du=du, x=x, y=y, xp=xp, yp=yp, w=w, nu=nu,
                           E=w * w, G=y * y, lam_m=lam_m, lam_p=lam_p,
                           support=support, rel_x=rel_x, analytic=True)


def _meridian_fields(surface, grid_size=None, base_x=0.0):
    if isinstance(surface, RevolutionProfile):
        return _meridian_from_profile(surface, base_x)
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
        return _meridian_from_spheroid(a, c, grid_size, base_x)
    raise GeometryError(f"unsupported surface type {type(surface).__name__} for grid operations")


def _meridian_shape_data(f):
    m = f.x.shape[0]
    pos = np.column_stack([f.x, f.y, np.zeros(m)])
    nrm = np.column_stack([f.nu, np.zeros(m)])
    metric = np.zeros((m, 2, 2))
    metric[:, 0, 0] = f.E
    metric[:, 1, 1] = f.G
    second = np.zeros((m, 2, 2))
    second[:, 0, 0] = f.h_ss
    second[:, 1, 1] = f.h_pp
    weingarten = np.zeros((m, 2, 2))
    weingarten[:, 0, 0] = f.lam_m
    weingarten[:, 1, 1] = f.lam_p
    lam = np.sort(np.column_stack([f.lam_m, f.lam_p]), axis=1)
    shape_sq = np.zeros((m, 2, 2))
    shape_sq[:, 0, 0] = f.lam_m ** 2 * f.E
    shape_sq[:, 1, 1] = f.lam_p ** 2 * f.G
    weights = 2.0 * np.pi * f.y * f.w * f.du
    weights[0] *= 0.5
    weights[-1] *= 0.5
    return ShapeData(
        variant="revolution", dim=2, position=pos, normal=nrm,
        metric=metric, second_form=second, weingarten=weingarten, lam=lam,
        mean=f.lam_m + f.lam_p, norm_A2=f.lam_m ** 2 + f.lam_p ** 2,
        shape_sq=shape_sq, support=f.support, weights=weights,
    )


def revolution_geometry(profile, base_point=None):
    """Extract `ShapeData` along the meridian of a convex rotation surface.

    The meridian principal curvature is the signed profile curvature; the
    parallel one comes from the normal's axial tilt, with the regular limit
    (equal to the meridian value) at the two poles.  `base_point`, when given,
    must lie on the rotation axis (a single x-coordinate).
    """
    if not isinstance(profile, RevolutionProfile):
        raise GeometryError(f"revolution_geometry expects a RevolutionProfile, "
                            f"got {type(profile).__name__}")
    base_x = 0.0 if base_point is None else float(base_point)
    f = _meridian_from_profile(profile, base_x)
    bad = np.nonzero((f.lam_m <= 0.0) | (f.lam_p <= 0.0))[0]
    if bad.size:
        raise NonConvexSurfaceError("rotation surface is not convex", int(bad[0]))
    return _meridian_shape_data(f)


def spheroid_meridian_geometry(equatorial, polar, grid_size=256, base_point=None):
    """Closed-form `ShapeData` on a meridian grid of an axisymmetric ellipsoid."""
    base_x = 0.0 if base_point is None else float(base_point)
    return _meridian_shape_data(_meridian_from_spheroid(equatorial, polar, grid_size, base_x))


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
            variant="ellipsoid", dim=1,
            position=pos[None, :], normal=nu[None, :],
            metric=np.array([[[speed2]]]), second_form=np.array([[[k * speed2]]]),
            weingarten=np.array([[[k]]]), lam=np.array([[k]]),
            mean=np.array([k]), norm_A2=np.array([k * k]),
            shape_sq=np.array([[[k * k * speed2]]]), support=np.array([support]),
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
    ginv = np.linalg.inv(g)
    shape_sq = h @ ginv @ h
    return ShapeData(
        variant="ellipsoid", dim=2,
        position=pos[None, :], normal=nu[None, :],
        metric=g[None, :, :], second_form=h[None, :, :],
        weingarten=weingarten[None, :, :], lam=lam[None, :],
        mean=np.array([float(np.trace(weingarten))]),
        norm_A2=np.array([float(np.sum(lam * lam))]),
        shape_sq=shape_sq[None, :, :], support=np.array([float(pos @ nu)]),
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
        h = 2.0 * np.pi / m
        x, y = surface.points[:, 0], surface.points[:, 1]
        xp = _fd.periodic_d1(x, h)
        yp = _fd.periodic_d1(y, h)
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
    out = np.zeros((m, 2, 2))
    out[:, 0, 0] = ppp - ep / (2.0 * f.E) * pp
    out[:, 1, 1] = gp / (2.0 * f.E) * pp
    return out


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


def support_hessian_residual(surface, c=0.0, grid_size=None, base_point=None):
    """Max defect of the support-value Hessian identity (flat ambient).

    Checks nabla_i nabla_j Z = -h_ij - <X^T, nabla h_ij> - Z (A^2)_ij
    pointwise on the grid, with the left side from `covariant_hessian` and
    nabla h from 4th-order differences.  The base point must be strictly
    inside the surface.
    """
    if c != 0.0:
        raise ValueError("the support-Hessian residual is implemented for c = 0 only; "
                         "curved ambients are checked on geodesic spheres analytically")
    if isinstance(surface, PlaneCurve):
        geom = curve_geometry(surface, base_point=base_point)
        _require_interior_base(geom.support, "support_hessian_residual")
        m = surface.grid_size
        h = 2.0 * np.pi / m
        e = geom.metric[:, 0, 0]
        ep = _fd.periodic_d1(e, h)
        z = geom.support
        hess_z = _fd.periodic_d2(z, h) - ep / (2.0 * e) * _fd.periodic_d1(z, h)
        h11 = geom.second_form[:, 0, 0]
        nab_h = _fd.periodic_d1(h11, h) - (ep / e) * h11
        rel = geom.position - (np.zeros(2) if base_point is None else np.asarray(base_point))
        tang = np.einsum("ij,ij->i", rel,
                         np.column_stack([_fd.periodic_d1(geom.position[:, 0], h),
                                          _fd.periodic_d1(geom.position[:, 1], h)])) / e
        res = hess_z + h11 + tang * nab_h + z * geom.shape_sq[:, 0, 0]
        return float(np.abs(res).max())

    base_x = 0.0 if base_point is None else float(base_point)
    f = _meridian_fields(surface, grid_size, base_x)
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
    if isinstance(surface, PlaneCurve):
        return curve_geometry(surface, base_point)
    if isinstance(surface, RevolutionProfile):
        return revolution_geometry(surface, base_point)
    if isinstance(surface, Ellipsoid):
        if surface.dim == 2 and surface.axisymmetric:
            a, _, c = surface.semi_axes
            base_x = None if base_point is None else float(base_point)
            return spheroid_meridian_geometry(a, c, grid_size or 256, base_x)
        raise GeometryError("general ellipsoids are evaluated pointwise; "
                            "use ellipsoid_geometry(semi_axes, u, v)")
    raise GeometryError(f"unknown surface type {type(surface).__name__}")
