"""Ambient space-form scalar kit.

`shc`/`chc` generalize sin/cos and sinh/cosh to any finite sectional curvature
c (a non-finite c is refused).  Where |c| t^2 < 1e-8 they return the two-term
series t - c t^3 / 6 and 1 - c t^2 / 2, whose third term lies below half an ulp
there; at c = 0 itself they return t and 1, the bits the series gives.  The
generalized support value of a hypersurface point is

    Z = shc(c, rho) * <d_rho, nu>,

with rho the distance to a fixed base point.  For c = 0 this reduces exactly
to the Euclidean support function <X, nu>; for c < 0 it is evaluated in the
hyperboloid (Minkowski) model, where a unit normal tangent to the hyperboloid
has <d_rho, nu> = nu_0 / sinh(sqrt(-c) rho): its time coordinate over sinh,
exact to rounding however far the point is from the base point (the Minkowski
pairing that defines it cancels terms of size cosh(sqrt(-c) rho)^2).  The sinh
cancels against shc(c, rho), so Z = nu_0 / sqrt(-c), with no rho to recover.
Positive c is accepted only by `shc`/`chc`/`cotc` themselves (periodic;
callers mind the period); everything else requires c <= 0.

Minkowski convention: vectors carry the time coordinate first, and
<<u, v>> = -u0*v0 + u1*v1 + ... .  The hyperboloid of curvature c < 0 is
<<x, x>> = 1/c with x0 > 0, and the base point sits at (1/sqrt(-c), 0, ..., 0).
"""

import math

import numpy as np

from .hypersurface import ShapeData

# below this value of |c| * t^2 the closed forms are replaced by series
_SERIES_CUTOFF = 1e-8


def shc(c, t):
    """Generalized sine: sin(sqrt(c) t)/sqrt(c), t, or sinh(sqrt(-c) t)/sqrt(-c)."""
    c = float(c)
    t = float(t)
    if c == 0.0:
        return t
    u = c * t * t
    if abs(u) < _SERIES_CUTOFF:
        # t - c t^3 / 6; the closed form loses digits once sqrt|c| t goes subnormal
        if t == 0.0:
            return t            # +-0.0 as given, which the sum would turn +0.0 at c > 0
        return t + t * (-u / 6)
    r = math.sqrt(abs(c))
    if not r < math.inf:                # also NaN, which no series branch lets through
        _refuse_non_finite_curvature(c)
    if c > 0:
        return math.sin(r * t) / r
    return math.sinh(r * t) / r


def chc(c, t):
    """Generalized cosine: cos(sqrt(c) t), 1, or cosh(sqrt(-c) t)."""
    c = float(c)
    t = float(t)
    if c == 0.0:
        return 1.0
    u = c * t * t
    if abs(u) < _SERIES_CUTOFF:
        return 1.0 + -u / 2
    r = math.sqrt(abs(c))
    if not r < math.inf:
        _refuse_non_finite_curvature(c)
    if c > 0:
        return math.cos(r * t)
    return math.cosh(r * t)


def cotc(c, t):
    """chc/shc, the geodesic-sphere principal curvature at radius t."""
    return chc(c, t) / shc(c, t)


def _refuse_non_finite_curvature(c):
    raise ValueError(f"ambient curvature must be finite (got c={c})")


def require_nonpositive_curvature(c):
    """Refuse a non-finite c, then any c > 0: the classification is for c <= 0."""
    if not -math.inf < c < math.inf:
        _refuse_non_finite_curvature(c)
    if c > 0:
        raise ValueError(f"ambient curvature must be <= 0 (got c={c})")


def _row_dot(u, v):
    return (u * v).sum(axis=1)


def _minkowski_rows(u, v):
    return _row_dot(u[:, 1:], v[:, 1:]) - u[:, 0] * v[:, 0]


def _pairing_misses(u, v, target, tol):
    """Rows where <<u, v>> misses `target` by more than `tol` or 8 eps times the summed
    magnitudes of its terms: a pairing far from the base point cancels terms of size
    ~cosh(kappa rho)^2, and its rounding grows with them.

    Beyond kappa rho of about 355 those terms overflow, and the pairing checks nothing:
    such a row is refused.
    """
    with np.errstate(over="ignore", invalid="ignore"):
        size = _row_dot(np.abs(u), np.abs(v))
        pairing = _minkowski_rows(u, v)
    _refuse_rows(~np.isfinite(size), "Minkowski pairing overflows the float range: the point "
                                     "is too far from the base point to be checked")
    tol = np.maximum(tol, 8.0 * np.finfo(float).eps * size)
    return np.abs(pairing - target) > tol


def _refuse_rows(bad, problem, values=None):
    """Raise for the first flagged point, naming its row when there are several.

    With `values`, the first point's entry fills the `{}` in `problem`.
    """
    if bad.any():
        i = int(np.argmax(bad))
        where = f" (point {i})" if bad.size > 1 else ""
        raise ValueError((problem if values is None else problem.format(values[i])) + where)


def support_rows(c, positions, normals):
    """Support values Z, a (k,) array, of k points with unit inward normals.

    The base point is the model origin.  c = 0: positions are Euclidean and
    Z = <X, nu>.  c < 0: positions lie on the hyperboloid <<x, x>> = 1/c (time
    coordinate first), with normals unit and tangent there.  Every check, finite
    entries first, runs per row, and a refusal names the first bad point.
    """
    require_nonpositive_curvature(c)
    x = np.asarray(positions, dtype=float)
    nu = np.asarray(normals, dtype=float)
    if x.shape != nu.shape or x.ndim != 2:
        raise ValueError(f"positions and normals must both be (k, d) arrays, "
                         f"got {x.shape} and {nu.shape}")
    _refuse_rows(~(np.isfinite(x).all(axis=1) & np.isfinite(nu).all(axis=1)),
                 "position and normal must be finite")
    if c == 0.0:
        norm = np.sqrt(_row_dot(nu, nu))
        _refuse_rows(np.abs(norm - 1.0) > 1e-10, "normal must be unit length, |nu| = {}", norm)
        _refuse_rows(~x.any(axis=1), "point coincides with the base point; d_rho undefined")
        with np.errstate(over="ignore"):
            support = _row_dot(x, nu)           # shc(0, rho) <d_rho, nu> = <X, nu>
        _refuse_rows(~np.isfinite(support), "support value <X, nu> overflows the float range: "
                                            "the point is too far from the base point")
        return support
    kappa = math.sqrt(-c)
    _refuse_rows(_pairing_misses(x, x, 1.0 / c, 1e-8 * max(1.0, abs(1.0 / c)))
                 | ~(x[:, 0] > 0.0),
                 "position does not lie on the model hyperboloid <<x,x>> = 1/c, x_0 > 0")
    _refuse_rows(_pairing_misses(nu, nu, 1.0, 1e-10),
                 "normal must be unit for the Minkowski pairing")
    _refuse_rows(_pairing_misses(x, nu, 0.0, 1e-8),
                 "normal must be tangent to the hyperboloid")
    # the base point is the one point of the sheet whose spatial part is zero
    _refuse_rows(~x[:, 1:].any(axis=1), "point coincides with the base point; d_rho undefined")
    # d_rho = (cosh(kappa rho) kappa x - kappa * base point) / sinh(kappa rho), so with
    # <<x, nu>> = 0 checked, <<d_rho, nu>> = nu_0 / sinh(kappa rho); shc(c, rho) =
    # sinh(kappa rho) / kappa cancels that sinh, at any rho
    return nu[:, 0] / kappa


def _unit_directions(dim, count):
    """Fixed spread of unit vectors in R^(dim+1): the same for every call."""
    if dim == 1:
        th = 2.0 * np.pi * np.arange(count) / count
        return np.stack([np.cos(th), np.sin(th)], axis=1)
    if dim == 2:
        # Fibonacci spiral on S^2
        i = np.arange(count) + 0.5
        phi = np.pi * (1.0 + math.sqrt(5.0)) * i
        z = 1.0 - 2.0 * i / count
        r = np.sqrt(np.maximum(0.0, 1.0 - z * z))
        return np.stack([r * np.cos(phi), r * np.sin(phi), z], axis=1)
    rng = np.random.default_rng(0)
    v = rng.standard_normal((count, dim + 1))
    return v / np.linalg.norm(v, axis=1, keepdims=True)


def sample_geodesic_sphere(c, radius, dim, count=256):
    """Sample a geodesic sphere of given radius about the base point as `ShapeData`.

    Positions and inward normals are Euclidean for c = 0 and in hyperboloid
    coordinates, time first, for c < 0.  Principal curvatures are the exact
    chc(R)/shc(R); support values come from one checked pass of `support_rows`
    over the points, exercising the model geometry; the weights are uniform.
    """
    require_nonpositive_curvature(c)
    if not 0.0 < radius < math.inf:
        raise ValueError(f"radius must be positive and finite (got radius={radius})")
    try:
        curvature = cotc(c, radius)
    except OverflowError:               # cosh(sqrt(-c) R) overflows above about 710
        raise ValueError(f"radius too large: cosh(sqrt(-c) R) overflows the float range "
                         f"(got radius={radius})") from None
    if not curvature < math.inf:        # 1 / R overflows below about 5.6e-309
        raise ValueError(f"radius too small: its principal curvature cotc(c, R) is not "
                         f"finite (got radius={radius})")
    dirs = _unit_directions(dim, count)
    if c == 0.0:
        positions = radius * dirs
        normals = -dirs
    else:
        kappa = math.sqrt(-c)
        kr = kappa * radius
        positions = np.empty((count, dim + 2))
        positions[:, 0] = math.cosh(kr) / kappa
        positions[:, 1:] = (math.sinh(kr) / kappa) * dirs
        normals = np.empty_like(positions)
        normals[:, 0] = -math.sinh(kr)
        normals[:, 1:] = -math.cosh(kr) * dirs
    support = support_rows(c, positions, normals)
    lam = np.full((count, dim), curvature)
    return ShapeData(dim, positions, normals, lam, support, np.ones(count))
