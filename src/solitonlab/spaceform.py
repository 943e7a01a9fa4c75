"""Ambient space-form scalar kit.

`shc`/`chc` generalize sin/cos and sinh/cosh across all sectional curvatures
c, with a series branch near c = 0 so both functions are smooth in c; at
c = 0 itself they return t and 1, the bits the series gives there.  The
generalized support value of a hypersurface point is

    Z = shc(c, rho) * <d_rho, nu>,

with rho the distance to a fixed base point.  For c = 0 this reduces exactly
to the Euclidean support function <X, nu>; for c < 0 it is evaluated in the
hyperboloid (Minkowski) model, where a unit normal tangent to the hyperboloid
has <d_rho, nu> = nu_0 / sinh(sqrt(-c) rho): its time coordinate over sinh,
exact to rounding however far the point is from the base point (the Minkowski
pairing that defines it cancels terms of size cosh(sqrt(-c) rho)^2).
Flow-facing callers require c <= 0; positive c is accepted only by
`shc`/`chc` themselves (periodic; callers mind the period).

Minkowski convention: vectors carry the time coordinate first, and
<<u, v>> = -u0*v0 + u1*v1 + ... .  The hyperboloid of curvature c < 0 is
<<x, x>> = 1/c with x0 > 0, and the base point sits at (1/sqrt(-c), 0, ..., 0).
"""

import math
from dataclasses import dataclass

import numpy as np

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
        # odd series sum_k (-c)^k t^(2k+1) / (2k+1)!, five terms
        acc = 0.0
        term = t
        for k in range(5):
            acc += term
            term *= -u / ((2 * k + 2) * (2 * k + 3))
        return acc
    r = math.sqrt(abs(c))
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
        acc = 0.0
        term = 1.0
        for k in range(5):
            acc += term
            term *= -u / ((2 * k + 1) * (2 * k + 2))
        return acc
    r = math.sqrt(abs(c))
    if c > 0:
        return math.cos(r * t)
    return math.cosh(r * t)


def cotc(c, t):
    """chc/shc, the geodesic-sphere principal curvature at radius t."""
    return chc(c, t) / shc(c, t)


def require_nonpositive_curvature(c, allow_positive=False):
    if c > 0 and not allow_positive:
        raise ValueError(f"ambient curvature must be <= 0 (got c={c}); "
                         "positive c is only unlocked where explicitly documented")


def _row_dot(u, v):
    return (u * v).sum(axis=1)


def _minkowski_rows(u, v):
    return _row_dot(u[:, 1:], v[:, 1:]) - u[:, 0] * v[:, 0]


def _pairing_misses(u, v, target, tol):
    """Rows where <<u, v>> misses `target` by more than `tol` or 8 eps times the summed
    magnitudes of its terms: a pairing far from the base point cancels terms of size
    ~cosh(kappa rho)^2, and its rounding grows with them."""
    tol = np.maximum(tol, 8.0 * np.finfo(float).eps * _row_dot(np.abs(u), np.abs(v)))
    return np.abs(_minkowski_rows(u, v) - target) > tol


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
    coordinate first), with normals unit and tangent there.  Every check runs
    per row, and a refusal names the first bad point.
    """
    require_nonpositive_curvature(c)
    x = np.asarray(positions, dtype=float)
    nu = np.asarray(normals, dtype=float)
    if x.shape != nu.shape or x.ndim != 2:
        raise ValueError(f"positions and normals must both be (k, d) arrays, "
                         f"got {x.shape} and {nu.shape}")
    if c == 0.0:
        norm = np.sqrt(_row_dot(nu, nu))
        _refuse_rows(np.abs(norm - 1.0) > 1e-10, "normal must be unit length, |nu| = {}", norm)
        rho = np.sqrt(_row_dot(x, x))
        _refuse_rows(rho == 0.0, "point coincides with the base point; d_rho undefined")
        nu_comp = _row_dot(x / rho[:, None], nu)
        z_scale = rho                               # shc(0, rho) = rho
    else:
        kappa = math.sqrt(-c)
        _refuse_rows(_pairing_misses(x, x, 1.0 / c, 1e-8 * max(1.0, abs(1.0 / c))),
                     "position does not lie on the model hyperboloid <<x,x>> = 1/c")
        _refuse_rows(_pairing_misses(nu, nu, 1.0, 1e-10),
                     "normal must be unit for the Minkowski pairing")
        _refuse_rows(_pairing_misses(x, nu, 0.0, 1e-8),
                     "normal must be tangent to the hyperboloid")
        cosh_kr = kappa * x[:, 0]               # -<<kappa x, kappa * base point>>
        _refuse_rows(cosh_kr < 1.0 + 1e-14, "point coincides with the base point; d_rho undefined")
        rho = np.arccosh(cosh_kr) / kappa
        sinh_kr = np.sinh(kappa * rho)
        # d_rho = (cosh_kr kappa x - kappa * base point) / sinh_kr, so <<d_rho, nu>> =
        # (cosh_kr <<kappa x, nu>> + nu_0) / sinh_kr, and <<x, nu>> = 0 is checked: the
        # pairing itself cancels terms of size cosh_kr^2
        nu_comp = nu[:, 0] / sinh_kr
        z_scale = sinh_kr / kappa               # shc(c, rho)
    return z_scale * nu_comp


@dataclass(frozen=True)
class GeodesicSphereSamples:
    """Point samples of a centered geodesic sphere, ready for soliton checks."""

    c: float
    radius: float
    dim: int                # hypersurface dimension n
    positions: np.ndarray
    normals: np.ndarray     # inward unit normals
    lam: np.ndarray         # (M, n) principal curvatures, all chc/shc
    support: np.ndarray     # (M,) support values from `support_rows`
    weights: np.ndarray     # (M,) uniform positive weights


def _unit_directions(dim, count, seed):
    """Deterministic spread of unit vectors in R^(dim+1)."""
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
    rng = np.random.default_rng(seed)
    v = rng.standard_normal((count, dim + 1))
    return v / np.linalg.norm(v, axis=1, keepdims=True)


def sample_geodesic_sphere(c, radius, dim, count=256, seed=0):
    """Sample a geodesic sphere of given radius about the base point.

    Principal curvatures are the exact chc(R)/shc(R); support values come from
    one checked pass of `support_rows` over the points, exercising the model
    geometry.
    """
    require_nonpositive_curvature(c)
    if radius <= 0.0:
        raise ValueError("radius must be positive")
    dirs = _unit_directions(dim, count, seed)
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
    lam = np.full((count, dim), cotc(c, radius))
    weights = np.ones(count)
    return GeodesicSphereSamples(c, radius, dim, positions, normals, lam, support, weights)
