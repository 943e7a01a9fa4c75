"""Concrete convex hypersurfaces and their extracted geometry.

Three representations:

* `PlaneCurve` -- a closed convex curve in the plane on a uniform periodic
  parameter grid (hypersurface dimension n = 1);
* `RevolutionProfile` -- a meridian profile (x along the rotation axis,
  y >= 0) rotated about the x-axis, closed by the two poles (n = 2);
* `AnalyticSpheroid` -- the spheroid with semi-axes (equatorial, equatorial, polar)
  on a meridian grid, from closed-form fields, computed once and read-only (n = 2).

`ellipsoid_geometry` evaluates one point of a three-axis ellipsoid in closed form.

All derivative extraction uses 4th-order stencils: periodic for curves,
reflection-through-the-poles for meridian grids (scalar geometric fields
extend evenly through a pole, the radial coordinate oddly).  Meridian grids
assume the parametrization speed is symmetric about the poles, which holds
for uniform-arclength grids, for trigonometric meridians, and for either one
moved along its normals by a speed even through the poles, as a flow step moves it.

Normals are inward everywhere, so convex surfaces have positive principal
curvatures.  The support value Z = <X, nu> is taken about the origin, negative
when the origin lies inside; `soliton.fit_tau` solves for the centre itself.

One grid-fields layer serves the three grid kinds: each has `dim`, `grid_size`,
`geometry()` and `grid_fields()`, which `covariant_hessian`, `codazzi_residual` and
`support_hessian_residual` call, so they refuse what extraction refuses.
`codazzi_residual` takes rotation surfaces only.

The two sampled grid types own every operation that depends on their layout, with
the same members: `placed`, `resampled`, `centroid` and `linearized_solver`.  A grid's
`ShapeData` holds the grid's own (M, 2) plane rows, a copy of its samples, and `placed`
builds the grid from such rows: a flow moves a grid by `placed(geom.position + d)`.
`resampled` moves the samples to uniform polygon arclength by a local degree-11
interpolant, with no system to solve, once the grid's longest chord exceeds its
shortest by more than `_RESAMPLE_SPREAD`; below that it returns the grid itself.
"""

import json
import math
from dataclasses import dataclass
from functools import cached_property

import numpy as np
from scipy.linalg.lapack import dgttrf, dgttrs

from . import _fd

FORMAT_VERSION = 1
MIN_SAMPLES = 16             # the fewest samples of a curve, a meridian grid or a residual check

_POLE_MARGIN = 1e-3          # pointwise ellipsoid evaluation keeps away from poles
_POLE_ANGLE_TOL = 1e-6       # profile must meet the axis orthogonally to this
# a grid is resampled once its longest chord exceeds its shortest by more than this factor
_RESAMPLE_SPREAD = 1.05


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
        if pts.ndim != 2 or pts.shape[1] != 2 or pts.shape[0] < MIN_SAMPLES:
            raise GeometryError(f"curve needs at least {MIN_SAMPLES} plane points, "
                                f"got {pts.shape}")
        if not np.isfinite(pts).all():
            raise GeometryError("curve has non-finite coordinates")
        object.__setattr__(self, "points", pts)

    @property
    def grid_size(self):
        return self.points.shape[0]

    def geometry(self):
        return curve_geometry(self)

    def grid_fields(self):
        return _curve_fields(self)

    def resampled(self):
        """Resampled to uniform arclength by the local interpolant in arclength, which
        reads five samples before the first and six after the last across the seam;
        the curve itself while its chords are within `_RESAMPLE_SPREAD` of each other."""
        pts, m = self.points, self.grid_size
        seg = _segments(np.concatenate((pts, pts[:1])))
        if _chords_even(seg):
            return self
        s = _arclength(seg)
        length = s[-1]
        knots = np.concatenate((s[-6:-1] - length, s, s[1:6] + length))
        ext = np.concatenate((pts[-5:], pts, pts[:6]))
        return PlaneCurve(_local_lagrange(knots, ext, length * np.arange(m) / m))

    def placed(self, position):
        """The curve with its samples at `position` (M, 2), as its `ShapeData` holds them."""
        return PlaneCurve(position)

    def centroid(self, weights, measure):
        """Centroid under the length `weights`, whose sum is `measure`."""
        return (weights @ self.points) / measure

    def linearized_solver(self, geom, dfdlam, c):
        """Solver of (I - c J) u = r for the normal speed F of the flow.

        J is the 3-point linearization of F under a normal displacement u,
        F'(k) (d_ss + k^2), with d_ss on the polygon's arclength spacings: a
        cyclic tridiagonal matrix, factored once for every right-hand side.
        `dfdlam` (M, 1) is F' at the samples.
        """
        fwd = _segments(np.concatenate((self.points, self.points[:1])))   # sample i to i + 1
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
        # a C-ordered copy of its own, whose pole radii are snapped below
        prof = np.array(self.profile, dtype=float, order="C")
        if prof.ndim != 2 or prof.shape[1] != 2 or prof.shape[0] < MIN_SAMPLES:
            raise GeometryError(f"profile needs at least {MIN_SAMPLES} samples, got {prof.shape}")
        if not np.isfinite(prof).all():
            raise GeometryError("profile has non-finite coordinates")
        y = prof[:, 1]
        if y[0] or y[-1]:           # ends exactly on the axis pass at any scale
            scale = float(np.abs(prof).max())
            if abs(y[0]) > 1e-9 * scale or abs(y[-1]) > 1e-9 * scale:
                raise GeometryError("profile must start and end on the rotation axis (y = 0)")
        y[0] = y[-1] = 0.0
        interior = y[1:-1]
        if not interior.min() > 0.0:
            bad = 1 + int(np.nonzero(interior <= 0.0)[0][0])
            raise GeometryError(f"profile touches the axis in the interior at sample {bad}")
        object.__setattr__(self, "profile", prof)

    @property
    def grid_size(self):
        return self.profile.shape[0]

    def geometry(self):
        return revolution_geometry(self)

    def grid_fields(self):
        return _profile_fields(self)

    def resampled(self):
        """Resampled to uniform arclength with the poles kept in place; the profile
        itself while its chords are within `_RESAMPLE_SPREAD` of each other.

        The local interpolant reads five samples past each pole: the profile's own,
        mirrored through the pole (axis coordinate even, radius odd), so the resampled
        data keeps the reflection symmetry of the pole stencils.
        """
        prof, m = self.profile, self.grid_size
        seg = _segments(prof)
        if _chords_even(seg):
            return self
        s = _arclength(seg)
        length = s[-1]
        knots = np.concatenate((-s[5:0:-1], s, 2.0 * length - s[-2:-7:-1]))
        ext = np.concatenate((prof[5:0:-1], prof, prof[-2:-7:-1]))
        ext[:5, 1] *= -1.0
        ext[-5:, 1] *= -1.0
        new = _local_lagrange(knots, ext, np.linspace(0.0, length, m))
        new[::m - 1] = prof[::m - 1]       # the two poles
        y = new[:, 1]
        np.abs(y, out=y)                   # guard rounding at the near-pole samples
        return RevolutionProfile(new)

    def placed(self, position):
        """The profile with its samples at `position` (M, 2), as its `ShapeData` holds them.
        A pole's normal lies along the axis; the constructor snaps pole rounding to y = 0."""
        return RevolutionProfile(position)

    def centroid(self, weights, measure):
        """Centroid (x, 0) of the rotation surface, in the meridian plane, under the area
        `weights`, whose sum is `measure`."""
        return np.array([float(weights @ self.profile[:, 0]) / measure, 0.0])

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
        minus_fm, fp_q = -fm[1:-1], fp[1:-1] * q
        np.add(minus_fm * a, fp_q, lower[1:-1])
        np.subtract(minus_fm * b, fp_q, upper[1:-1])
        diag = 1.0 - lam2
        diag[1:-1] += fm[1:-1] * (a + b)
        # d_ss with u_{-1} = u_1 at each pole
        first = 2.0 * (fm[0] + fp[0]) / (seg[0] * seg[0])
        last = 2.0 * (fm[-1] + fp[-1]) / (seg[-1] * seg[-1])
        diag[0] += first
        diag[-1] += last
        upper[0], lower[-1] = -first, -last
        return _tridiagonal_solver(lower[1:], diag, upper[:-1])


@dataclass(frozen=True)
class AnalyticSpheroid:
    """The spheroid with semi-axes (equatorial, equatorial, polar), rotated about the
    x-axis, on `grid_size` meridian samples pole to pole: closed-form fields, uniform
    in the meridian angle."""

    equatorial: float
    polar: float
    grid_size: int
    dim = 2

    def __post_init__(self):
        axes = (float(self.equatorial), float(self.polar))
        if not all(0.0 < a < math.inf for a in axes):
            raise GeometryError(f"semi-axes must be positive finite reals, got {axes}")
        if self.grid_size < MIN_SAMPLES:
            raise GeometryError(f"meridian grid needs at least {MIN_SAMPLES} samples")
        object.__setattr__(self, "equatorial", axes[0])
        object.__setattr__(self, "polar", axes[1])
        object.__setattr__(self, "grid_size", int(self.grid_size))

    def geometry(self):
        return _meridian_shape_data(self.grid_fields())

    def grid_fields(self):
        return self._fields

    @cached_property
    def _fields(self):
        """The closed-form fields, computed once and shared, with their cached metric
        derivatives, by every grid operation; read-only: `geometry()` hands out `lam`, `nu`."""
        return _spheroid_fields(self.equatorial, self.polar, self.grid_size)


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
# tridiagonal solves and uniform-arclength resampling

def _tridiagonal_solver(lower, diag, upper):
    """Solver of A x = r for tridiagonal A: one `dgttrf`, then one `dgttrs` per r."""
    dl, d, du, du2, ipiv, info = dgttrf(lower, diag, upper)
    if info != 0:
        raise GeometryError("singular linearized flow system")
    return lambda r: dgttrs(dl, d, du, du2, ipiv, r)[0]


def _cyclic_tridiagonal_solver(lower, diag, upper):
    """Solver of the cyclic tridiagonal system A x = r, r (n,), over one factorization.

    Row i of A is lower[i] x[i-1] + diag[i] x[i] + upper[i] x[i+1], indices
    mod n.  A is a tridiagonal B plus a rank-one corner term: B is factored
    once and its Sherman-Morrison vector v solved once, z = B^-1 v, so each
    right-hand side costs one tridiagonal solve and an axpy.
    """
    corner_first, corner_last = lower[0], upper[-1]     # entries (0, n-1) and (n-1, 0)
    gamma = -diag[0]
    diag = diag.copy()
    diag[0] -= gamma
    diag[-1] -= corner_first * corner_last / gamma
    v = np.zeros(diag.size)
    v[0] = gamma
    v[-1] = corner_last
    ratio = corner_first / gamma
    solve_b = _tridiagonal_solver(lower[1:], diag, upper[:-1])
    z = solve_b(v)
    denominator = 1.0 + z[0] + ratio * z[-1]

    def solve(r):
        y = solve_b(r)
        return y - z * ((y[0] + ratio * y[-1]) / denominator)
    return solve


def _second_difference(back, fwd):
    """Weights (a, b) of the 3-point second difference a u_{i-1} - (a + b) u_i + b u_{i+1}.

    `back` and `fwd` are the spacings to the previous and the next sample.
    """
    span = back + fwd
    return 2.0 / (back * span), 2.0 / (fwd * span)


_DEGREE = 11
_WINDOW = np.arange(_DEGREE)[:, None]   # a target's first eleven window knots, from its start


def _local_lagrange(knots, values, targets):
    """Local degree-11 interpolant of `values` (N, k) over `knots` (N,), at `targets`.

    The knots increase strictly, and the targets lie in [knots[5], knots[-6]]: a
    target in [knots[i], knots[i + 1]) takes the polynomial through knots i - 5 to
    i + 6 (Lagrange interpolation in Newton form: one divided-difference order per
    pass over the knots, then one product of the coefficients with the Newton basis).
    A lower degree costs less, but its error adds up over a flow's resamples: a
    4-point cubic's final r_max and tau_fit at M = 64, dt_safety 0.1 reach 3x a
    periodic C^2 spline's, and degree 7's tau_fit reaches 1.3x on the under-resolved
    5:1 ellipse with its tips on samples; degree 11's stays below the spline's there,
    on every grid phase and M = 60-96 tried.
    """
    # table[j, c * n + l]: divided difference of order j of column c over knots l, ...,
    # l + j, for l < n - j.  The k columns share one row per order, so that each pass is
    # one subtraction and one division on a flat row.  The j entries of a row that
    # straddle two columns are never read; their knots are distinct, so they divide by
    # no zero.
    n, k = values.shape
    table = np.empty((_DEGREE + 1, k * n))
    table[0].reshape(k, n)[:] = values.T
    if not (knots[1:] - knots[:-1]).min() > 0.0:
        raise GeometryError("coincident samples: arclength does not increase")
    tiled = np.concatenate((knots,) * k)
    lower = table[0]
    for j in range(1, _DEGREE + 1):
        order = table[j, :-j]
        np.subtract(lower[1:], lower[:-1], order)
        order /= tiled[j:] - tiled[:-j]
        lower = order
    # the start of each target's window; a target on knots[-6] takes the last window
    start = knots[:-6].searchsorted(targets, "right") - 6
    # Newton basis at each target: row j is the product of (t - knot) over its first j
    # knots, multiplied up row by row as np.cumprod does along axis 0
    gaps = targets - knots[start + _WINDOW]
    basis = np.empty((_DEGREE + 1, targets.size))
    basis[0] = 1.0
    row = basis[1] = gaps[0]
    for j in range(1, _DEGREE):
        row = np.multiply(row, gaps[j], basis[j + 1])
    coefficients = table[:, start + n * np.arange(k)[:, None]]        # (12, k, M)
    # C order: the gathered coefficients are not, and a sample array's layout can change
    # the bits of a BLAS product with it (the centroid's weights @ points)
    return np.einsum("jkm,jm->mk", coefficients, basis, order="C")


def _norms(v):
    """Lengths of the rows of `v` (N, 2), with the bits of `np.linalg.norm(v, axis=1)`
    at a fraction of its call cost."""
    return np.sqrt(v[:, 0] * v[:, 0] + v[:, 1] * v[:, 1])


def _segments(points):
    return _norms(points[1:] - points[:-1])


def _arclength(seg):
    """Arclength from the first sample along the chords `seg`."""
    s = np.empty(seg.size + 1)
    s[0] = 0.0
    np.add.accumulate(seg, out=s[1:])
    return s


def _chords_even(seg):
    """Whether the longest chord of `seg` is within `_RESAMPLE_SPREAD` of the shortest."""
    return seg.max() <= _RESAMPLE_SPREAD * seg.min()


# ---------------------------------------------------------------------------
# extracted geometry

@dataclass
class ShapeData:
    """Per-sample geometric state of a hypersurface.

    On a grid `position`, a copy of the samples, and `normal` are its (M, 2) plane rows;
    embedded samples are (M, n+1) in flat space, and (M, n+2) in hyperboloid coordinates,
    time first, for the c < 0 samples of `spaceform.sample_geodesic_sphere`.
    `lam` keeps the grid's frame order: k on a curve, (lam_m, lam_p) (meridian,
    parallel) on a rotation surface; a pointwise ellipsoid sample is ascending.
    """

    dim: int                 # hypersurface dimension n
    position: np.ndarray     # (M, 2) on a grid, (M, n+1) embedded, (M, n+2) on the hyperboloid
    normal: np.ndarray       # inward unit normals, shaped as `position`
    lam: np.ndarray          # (M, n) principal curvatures in the grid's frame order
    support: np.ndarray      # (M,) support value <X, nu> about the origin
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


def _read_only(arr):
    arr.flags.writeable = False
    return arr


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

    def d1(self, f):
        if self.dim == 1:
            return _fd.periodic_d1(f, self.du)
        return _fd.reflected_d1(f, self.du)

    def d2(self, f):
        if self.dim == 1:
            return _fd.periodic_d2(f, self.du)
        return _fd.reflected_d2(f, self.du)

    @property
    def support(self):
        """Z = <xy, nu>, the support value about the origin; each extraction reads it once."""
        return self.xy[:, 0] * self.nu[:, 0] + self.xy[:, 1] * self.nu[:, 1]

    @cached_property
    def G(self):
        """Metric g_pp of the rotation angle on a meridian grid, y^2."""
        y = self.xy[:, 1]
        return _read_only(y * y)

    # the metric derivatives, which every Christoffel symbol reads; cached, so read-only
    @cached_property
    def dE(self):
        return _read_only(self.d1(self.E))

    @cached_property
    def dG(self):
        return _read_only(self.d1(self.G))

    @cached_property
    def nabla_h(self):
        """The components of nabla h along s (`_nabla_h_terms`), which both residuals read."""
        return tuple(map(_read_only, _nabla_h_terms(self)))


# parities through a pole: the profile's x is even and y odd, the tangent's the reverse
_PROFILE_PARITY, _TANGENT_PARITY = np.array([1.0, -1.0]), np.array([-1.0, 1.0])


def _turning_frame(vel, d1, du, orient, what):
    """Metric E = |vel|^2, speed, inward normal and curvature of a planar grid curve.

    The curvature is the unit tangent's turning: exact on circles and other
    single-harmonic grids, O(h^4) in general.  `orient` (+-1) turns the normal
    orient * (-ty, tx) inward; `d1(f, du)` is the grid's stencil, applied to the
    (M, 2) tangent.  The tangent is divided by the signed speed orient * w, which
    flips only signs, so the quarter turn (-ty, tx) of orient * t and the turning
    (t x dt) / (orient * w) carry the bits of the normal and curvature built from t.
    """
    xp, yp = vel[:, 0], vel[:, 1]
    w2 = xp * xp + yp * yp
    if _first_nonpositive(w2) is not None:
        raise GeometryError(f"degenerate {what} (zero speed)")
    w = np.sqrt(w2)
    signed = w if orient > 0.0 else -w
    tangent = vel / signed[:, None]
    tx, ty = tangent[:, 0], tangent[:, 1]
    dt = d1(tangent, du)
    normal = np.empty_like(tangent)
    np.negative(ty, normal[:, 0])
    normal[:, 1] = tx
    return w2, w, normal, (tx * dt[:, 1] - ty * dt[:, 0]) / signed


def _curve_fields(curve):
    pts = curve.points
    h = 2.0 * np.pi / pts.shape[0]
    vel = _fd.periodic_d1(pts, h)
    # the tangent's turns, each wrapped to [-pi, pi): their sum is 2 pi times the
    # signed turning number, +-1 on a simple curve, whose sign is the traversal's
    angles = np.arctan2(vel[:, 1], vel[:, 0])
    turns = np.concatenate((angles[1:], angles[:1]))
    turns -= angles
    turns += np.pi
    turns %= 2.0 * np.pi
    turns -= np.pi
    winding = float(np.add.reduce(turns)) / (2.0 * np.pi)
    orient = 1.0 if winding >= 0.0 else -1.0
    w2, w, normal, k = _turning_frame(vel, _fd.periodic_d1, h, orient, "parametrization")

    nonconvex = _first_nonpositive(k)
    if nonconvex is not None:
        raise NonConvexSurfaceError("curve is not convex: curvature <= 0", nonconvex)

    turning_number = orient * winding
    if abs(turning_number - 1.0) > 1e-6:
        raise GeometryError(f"curve is not simple: turning number {turning_number:.6f} != 1")

    return _GridFields(1, h, pts, vel, w2, w, normal, k[:, None])


def _tangent_d1_through_poles(tangent, du):
    return _fd.reflected_d1(tangent, du, _TANGENT_PARITY)


def _profile_fields(profile):
    prof = profile.profile
    m = prof.shape[0]
    du = 1.0 / (m - 1)
    x, y = prof[:, 0], prof[:, 1]

    vel = _fd.reflected_d1(prof, du, _PROFILE_PARITY)
    # the inward normal orient * (-ty, tx) has a negative y-component at the equator
    orient = -1.0 if vel[int(y.argmax()), 0] > 0.0 else 1.0
    w2, w, nu, lam_m = _turning_frame(vel, _tangent_d1_through_poles, du, orient,
                                      "profile parametrization")

    # pole-angle check: the one-sided slope of the axis coordinate must vanish
    # relative to the profile speed.  The base tolerance is floored by the
    # estimator's own resolution, O((h kappa)^3), on interpolation-grade data
    # (resampled flow states), with kappa that pole's own curvature: lam_m[i]
    # reads samples i-4 .. i+4, so lam_m[5] and lam_m[-6] are the nearest that
    # do not read the pole sample, and an irregular pole cannot loosen its own check.
    h_arc = float(_segments(prof).sum() / (m - 1))     # the bits of .mean()
    for label, kappa, xsl, ysl in (
            ("first", lam_m[5], _fd.onesided_d1_start(x, du), _fd.onesided_d1_start(y, du)),
            ("last", lam_m[-6], _fd.onesided_d1_end(x, du), _fd.onesided_d1_end(y, du))):
        pole_tol = max(_POLE_ANGLE_TOL, (2.0 * h_arc * abs(kappa)) ** 3)
        speed = math.hypot(xsl, ysl)
        if speed <= 0.0 or abs(xsl) > pole_tol * speed:
            raise GeometryError(f"profile does not meet the axis orthogonally at the "
                                f"{label} sample (pole-angle violation)")

    lam = np.empty((m, 2))
    lam[:, 0] = lam_m
    lam[1:-1, 1] = -nu[1:-1, 1] / y[1:-1]
    lam[::m - 1, 1] = lam_m[::m - 1]          # regular pole limit
    fields = _GridFields(2, du, prof, vel, w2, w, nu, lam)
    bad = _first_nonpositive(lam)
    if bad is not None:
        raise NonConvexSurfaceError("rotation surface is not convex", bad)
    return fields


def _spheroid_fields(a, c, m):
    u = np.linspace(0.0, np.pi, m)
    sin, cos = np.sin(u), np.cos(u)
    xp, yp = c * sin, a * cos
    w = np.sqrt(xp * xp + yp * yp)
    nu = np.column_stack([yp, -xp]) / w[:, None]
    lam = np.column_stack([a * c / w ** 3, c / (a * w)])
    arrays = (np.array([-c * cos, a * sin]).T, np.array([xp, yp]).T, w * w, w, nu, lam)
    return _GridFields(2, float(u[1] - u[0]), *map(_read_only, arrays))


def curve_geometry(curve):
    """Extract `ShapeData` from a closed convex plane curve.

    Tangent, normal, and curvature come from 4th-order periodic differences;
    the normal is oriented inward and the signed curvature is positive for
    convex curves.
    """
    f = _curve_fields(curve)
    return ShapeData(dim=1, position=f.xy.copy(), normal=f.nu, lam=f.lam,
                     support=f.support, weights=f.w * f.du)


def _meridian_shape_data(f):
    m = f.xy.shape[0]
    weights = 2.0 * np.pi * f.xy[:, 1] * f.w * f.du
    weights[::m - 1] *= 0.5
    return ShapeData(dim=2, position=f.xy.copy(), normal=f.nu, lam=f.lam, support=f.support,
                     weights=weights)


def revolution_geometry(profile):
    """Extract `ShapeData` along the meridian of a convex rotation surface.

    The meridian principal curvature is the signed profile curvature; the
    parallel one comes from the normal's axial tilt, with the regular limit
    (equal to the meridian value) at the two poles.
    """
    return _meridian_shape_data(_profile_fields(profile))


# ---------------------------------------------------------------------------
# pointwise analytic ellipsoid geometry

def _dot(x, y):
    """The dot product of two 3-tuples of floats."""
    return x[0] * y[0] + x[1] * y[1] + x[2] * y[2]


def ellipsoid_geometry(semi_axes, u, v=0.0):
    """Closed-form `ShapeData` (single sample) of one point of an ellipsoid.

    The three semi-axes (a, b, c) are parametrized as
    X = (a sin u cos v, b sin u sin v, c cos u); the point must keep away from
    the coordinate poles (u within 1e-3 of 0 or pi is rejected).  The principal
    curvatures, ascending, are the eigenvalues of the Weingarten map L^-1 h L^-T,
    with g = L L^T the Cholesky factor of the metric: a symmetric 2x2 matrix, whose
    eigenvalues are its mean -+ hypot(half its diagonal difference, its off-diagonal).
    """
    axes = tuple(float(a) for a in semi_axes)
    if len(axes) != 3 or not all(0.0 < a < math.inf for a in axes):
        raise GeometryError(f"semi-axes must be 3 positive finite reals, got {semi_axes}")
    a, b, c = axes
    uu, vv = float(u), float(v)
    if min(uu, math.pi - uu) < _POLE_MARGIN:
        raise GeometryError(f"parameter point too close to a coordinate pole (u={uu:.4g})")
    su, cu = math.sin(uu), math.cos(uu)
    sv, cv = math.sin(vv), math.cos(vv)
    pos = (a * su * cv, b * su * sv, c * cu)
    xu = (a * cu * cv, b * cu * sv, -c * su)
    xv = (-a * su * sv, b * su * cv, 0.0)
    xuu = (-a * su * cv, -b * su * sv, -c * cu)
    xuv = (-a * cu * sv, b * cu * cv, 0.0)
    xvv = (-a * su * cv, -b * su * sv, 0.0)
    raw = (xu[1] * xv[2] - xu[2] * xv[1], xu[2] * xv[0] - xu[0] * xv[2],
           xu[0] * xv[1] - xu[1] * xv[0])
    size = math.sqrt(_dot(raw, raw))
    if _dot(raw, pos) > 0.0:       # inward
        size = -size
    nu = (raw[0] / size, raw[1] / size, raw[2] / size)
    h11, h12, h22 = _dot(xuu, nu), _dot(xuv, nu), _dot(xvv, nu)
    l11 = math.sqrt(_dot(xu, xu))
    l21 = _dot(xu, xv) / l11
    l22 = math.sqrt(_dot(xv, xv) - l21 * l21)
    # W = L^-1 h L^-T by two forward substitutions: M = L^-1 h, then W = L^-1 M^T
    m11, m12 = h11 / l11, h12 / l11
    m21, m22 = (h12 - l21 * m11) / l22, (h22 - l21 * m12) / l22
    w11, w12 = m11 / l11, m21 / l11
    w22 = (m22 - l21 * w12) / l22
    mean, radius = 0.5 * (w11 + w22), math.hypot(0.5 * (w11 - w22), w12)
    return ShapeData(dim=2, position=np.array([pos]), normal=np.array([nu]),
                     lam=np.array([[mean - radius, mean + radius]]),
                     support=np.array([_dot(pos, nu)]), weights=np.array([l11 * l22]))


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


def covariant_hessian(surface, phi):
    """Covariant Hessian (M, n, n) of a scalar sampled on the parameter grid.

    Christoffel symbols come from 4th-order differences of the extracted
    metric fields, so the result is metric-compatible with them to rounding.
    On a meridian grid the field is axisymmetric (a function of the profile
    parameter, even at the poles).
    """
    phi = np.asarray(phi, dtype=float)
    f = surface.grid_fields()
    m = f.E.shape[0]
    if phi.shape != (m,):
        raise GeometryError(f"field shape {phi.shape} does not match grid ({m},)")
    hess = np.zeros((m, f.dim, f.dim))
    for i, term in enumerate(_hessian_terms(f, phi)):
        hess[:, i, i] = term
    return hess


def codazzi_residual(surface):
    """Max defect of total symmetry of the covariant derivative of h.

    Returns max |nabla_k h_ij - nabla_j h_ik| over the samples and index
    triples of a rotation surface's meridian grid.  With h diagonal and
    axisymmetric, the one triple whose symmetry is not built in is
    nabla_s h_pp = nabla_p h_sp = (G'/2)(lam_m - lam_p); the residual converges
    to zero at 4th order under grid refinement.
    """
    f = surface.grid_fields()
    if f.dim != 2:
        raise GeometryError(f"codazzi_residual needs a rotation surface (n = 2); on a "
                            f"curve (n = {f.dim}) nabla h has one component")
    nab_p_sp = 0.5 * f.dG * (f.lam[:, 0] - f.lam[:, 1])
    return float(np.abs(f.nabla_h[1] - nab_p_sp).max())


def support_hessian_residual(surface):
    """Max defect of the support-value Hessian identity (flat ambient).

    Checks nabla_i nabla_j Z = -h_ij - <X^T, nabla h_ij> - Z (A^2)_ij
    pointwise on the grid, with the left side as in `covariant_hessian` and
    nabla h from 4th-order differences.  The origin must be strictly inside
    the surface.
    """
    f = surface.grid_fields()
    z = f.support
    if np.any(z >= 0.0):
        raise GeometryError("support_hessian_residual: the origin is not strictly inside the "
                            "surface (support values must be negative with inward normals)")
    (x, y), (xp, yp) = f.xy.T, f.vel.T
    radial = (x * xp + y * yp) / f.E      # (X^T)^s
    metric = (f.E, f.G) if f.dim == 2 else (f.E,)
    terms = zip(_hessian_terms(f, z), f.nabla_h, f.lam.T, metric)
    res = [hess + lam * g + radial * nab_h + z * lam ** 2 * g for hess, nab_h, lam, g in terms]
    return float(max(np.abs(r).max() for r in res))


# ---------------------------------------------------------------------------
# snapshot documents

# snapshot variant -> (surface type, the (M, 2) array it is written from, the field
# holding that array); the document also holds its length M as grid_size
_SNAPSHOT_VARIANTS = {"curve": (PlaneCurve, "points", "positions"),
                      "revolution": (RevolutionProfile, "profile", "profile")}


def surface_to_document(surface, metadata=None):
    doc = {"format_version": FORMAT_VERSION, "kind": "surface_snapshot",
           "metadata": dict(metadata or {})}
    for variant, (kind, attr, key) in _SNAPSHOT_VARIANTS.items():
        if type(surface) is kind:
            data = getattr(surface, attr)
            doc["variant"] = variant
            doc["grid_size"] = len(data)
            doc[key] = data.tolist()
            return doc
    raise GeometryError(f"cannot serialize {type(surface).__name__}")


def surface_from_document(doc):
    """The surface of a snapshot document; a missing or ill-typed field is refused by name."""
    if not isinstance(doc, dict):
        raise GeometryError(f"a snapshot document is a JSON object, got {type(doc).__name__}")
    if doc.get("format_version") != FORMAT_VERSION:
        raise GeometryError(f"unsupported snapshot format_version {doc.get('format_version')!r}")
    variant = doc.get("variant")
    if variant not in _SNAPSHOT_VARIANTS:
        raise GeometryError(f"unknown snapshot variant {variant!r}")
    build, _, key = _SNAPSHOT_VARIANTS[variant]
    try:
        data = np.asarray(doc[key], dtype=float)
    except (KeyError, TypeError, ValueError) as exc:
        raise GeometryError(f"{variant} snapshot needs {key!r}, an array of numbers "
                            f"({type(exc).__name__}: {exc})") from exc
    if data.ndim != 2:
        raise GeometryError(f"{variant} snapshot: {key!r} must have rank 2, "
                            f"got shape {data.shape}")
    if doc.get("grid_size") != len(data):
        raise GeometryError(f"{variant} snapshot: 'grid_size' must be {len(data)}, the length "
                            f"of {key!r}, got {doc.get('grid_size')!r}")
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

