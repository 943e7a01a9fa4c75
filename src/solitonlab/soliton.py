"""The self-similar-solution equation F + tau * Z = 0.

Centered geodesic spheres solve it for every symmetric homogeneous curvature
function, with the closed-form constant

    tau = f(1, ..., 1) * chc(R)^m / shc(R)^(m+1) = f(1, ..., 1) * cotc(R)^m / shc(R)

(inward normals: every principal curvature is cotc(R) = chc(R)/shc(R) and the support
value is -shc(R)).  For sampled flat grid surfaces, `fit_tau` finds the
measure-weighted least-squares tau and centre and reports residual statistics,
and the admissibility calculator evaluates which branch of the umbilical-sphere
classification covers a curvature function (its n, degree and convexity) at a pinching ratio.
"""

import math
import sys
from dataclasses import dataclass

import numpy as np
from scipy.linalg.lapack import dposv

from .hypersurface import MIN_SAMPLES
from .spaceform import cotc, shc, require_nonpositive_curvature


@dataclass(frozen=True)
class SolitonReport:
    """Least-squares fit of tau and the centre, and residual statistics of F + tau * Z."""

    tau_fit: float
    rms_residual: float
    relative_residual: float    # rms(F + tau Z) / rms(F)
    max_residual: float
    sample_count: int
    center: tuple               # Z's centre: (x, y) on a curve, (x,) on a rotation axis


@dataclass(frozen=True)
class PinchingVerdict:
    """Which classification branches cover (n, m, convexity, pinching)."""

    covered_by: tuple           # subset of ("2(i)", "2(ii)", "2(iii)")
    threshold_2iii: float | None
    admissible: bool


def _tau(unit, m, radius, c):
    """unit * cotc(R)^m / shc(R), unchecked: zero or not finite only where tau leaves the
    float range (or `unit` already has).

    At c < 0 the curvature cotc(R) = chc(R)/shc(R) falls towards sqrt(-c) as R grows, so
    its power stays bounded where chc(R)^m, about e^(m sqrt(-c) R), overflows.  Where this
    direct form still overflows or underflows on the way (shc(R) past R ~ 710 / sqrt(-c),
    a power past the float range, a subnormal factor that has lost bits), log |tau| is
    formed instead and exponentiated once.
    """
    r = float(radius)
    try:
        if c == 0.0:
            tau = unit / _normal(r ** (m + 1.0))    # cotc(0, r) ** m / shc(0, r) is r ** -m / r
        else:
            tau = _normal(unit * _normal(cotc(c, r) ** m)) / shc(c, r)
    except (OverflowError, ZeroDivisionError):
        tau = math.inf
    if _in_range(tau) or not _in_range(unit):
        return tau
    try:
        return math.copysign(math.exp(_log_abs_tau(unit, m, r, c)), unit)
    except (OverflowError, ValueError):     # log|tau| > 709.78, or shc(R) underflows to 0
        return math.inf


def _normal(x):
    """x where it is a normal float, else inf, which takes `_tau` to its log form."""
    return x if sys.float_info.min <= abs(x) < math.inf else math.inf


def _log_abs_tau(unit, m, r, c):
    """log |unit| + m log cotc(R) - log shc(R), with no power formed: at c < 0, with
    x = sqrt(-c) R and e = e^(-2x), log shc = x + log(1 - e) - log 2 - log sqrt(-c) and
    log cotc = log sqrt(-c) + log1p(e) - log(1 - e), so no two terms of size x cancel."""
    if c == 0.0:
        return math.log(abs(unit)) - (m + 1.0) * math.log(r)
    log_kappa, x = 0.5 * math.log(-c), math.sqrt(-c) * r
    log_gap = math.log(-math.expm1(-2.0 * x))
    log_cotc = log_kappa + math.log1p(math.exp(-2.0 * x)) - log_gap
    return math.log(abs(unit)) + m * log_cotc - (x + log_gap - math.log(2.0) - log_kappa)


def sphere_tau(f, radius, c=0.0):
    """The unique tau making the centered geodesic sphere of given radius a solution."""
    require_nonpositive_curvature(c)
    if not 0.0 < radius < math.inf:
        raise ValueError(f"sphere radius must be positive and finite (got radius={radius})")
    m = f.degree
    tau = _tau(f.unit_value, m, radius, c)
    if not _in_range(tau):
        raise ValueError(f"sphere tau of f={f.name} (degree m={m:g}) at R={radius:g}, c={c:g} "
                         "is zero or outside the float range")
    return tau


# the radius bracket of `solve_sphere_radius`, its step cap and its tolerance relative to |tau|
_RADIUS_BRACKET = (1e-6, 50.0)
_BISECTION_MAX_ITER = 200
_BISECTION_RTOL = 1e-12
# the finest log-uniform grid, 2^10 intervals, searched for a radius whose tau is in range
# when both ends of the bracket leave it
_RANGE_SCAN_LEVELS = 10


def _in_range(tau):
    """Whether a tau of `_tau` is finite and nonzero."""
    return 0.0 < abs(tau) < math.inf


def _radius_in_range(unit, m, c, lo, hi):
    """A radius in (lo, hi) whose tau is finite and nonzero, or None: the log-uniform grids
    of 2, 4, ... intervals, each point tried once, up to `_RANGE_SCAN_LEVELS`."""
    log_lo, width = math.log(lo), math.log(hi / lo)
    for level in range(1, _RANGE_SCAN_LEVELS + 1):
        count = 2 ** level
        for i in range(1, count, 2):
            r = math.exp(log_lo + width * i / count)
            if _in_range(_tau(unit, m, r, c)):
                return r
    return None


def _clipped_end(unit, m, c, end, inside):
    """The radius nearest `end` whose tau is finite and nonzero, by geometric bisection
    between `end`, whose tau is not, and `inside`, whose tau is."""
    for _ in range(_BISECTION_MAX_ITER):
        mid = math.sqrt(end * inside)
        if mid in (end, inside):
            break
        if _in_range(_tau(unit, m, mid, c)):
            inside = mid
        else:
            end = mid
    return inside


def solve_sphere_radius(f, tau, c=0.0):
    """Invert `sphere_tau` by bisection on the radius bracket `_RADIUS_BRACKET`.

    c is checked once; each step evaluates the closed form alone.  An end of the bracket
    whose tau is zero or not finite is first clipped to the nearest radius where it is
    finite and nonzero (`_clipped_end`, towards the other end, or towards a radius found in
    range when both ends leave it); a radius whose tau still leaves the float range gets
    `sphere_tau`'s refusal.  With both ends in range the bisection is the unclipped one.
    """
    if tau == 0.0 or not -math.inf < tau < math.inf:
        raise ValueError(f"tau must be nonzero and finite (got tau={tau})")
    require_nonpositive_curvature(c)
    lo, hi = _RADIUS_BRACKET
    unit, m = f.unit_value, f.degree
    lo_in, hi_in = (_in_range(_tau(unit, m, r, c)) for r in (lo, hi))
    if not (lo_in and hi_in):
        inside = lo if lo_in else hi if hi_in else _radius_in_range(unit, m, c, lo, hi)
        if inside is not None:
            lo = lo if lo_in else _clipped_end(unit, m, c, lo, inside)
            hi = hi if hi_in else _clipped_end(unit, m, c, hi, inside)

    def defect(r):
        value = _tau(unit, m, r, c)
        if not _in_range(value):
            sphere_tau(f, r, c)     # refuses r by name
        return value - tau

    d_lo, d_hi = defect(lo), defect(hi)
    if d_lo == 0.0 and d_hi == 0.0:
        raise ValueError(f"degenerate inverse problem: sphere_tau of {f.name} is constant "
                         f"over the bracket (every radius solves)")
    if d_lo == 0.0:
        return lo
    if d_hi == 0.0:
        return hi
    if d_lo * d_hi > 0.0:
        raise ValueError(f"no sphere soliton in range [{lo:g}, {hi:g}] for tau={tau:g} "
                         f"(no sign change of the defect)")
    for _ in range(_BISECTION_MAX_ITER):
        mid = 0.5 * (lo + hi)
        d_mid = defect(mid)
        if abs(d_mid) <= _BISECTION_RTOL * abs(tau):
            return mid
        if d_lo * d_mid <= 0.0:
            hi = mid
        else:
            lo, d_lo = mid, d_mid
    raise ValueError(f"bisection did not reach |sphere_tau(R) - tau| <= "
                     f"{_BISECTION_RTOL:g}*|tau| in {_BISECTION_MAX_ITER} iterations")


def _samples_arrays(samples, f, values=None):
    lam = np.asarray(samples.lam, dtype=float)
    support = np.asarray(samples.support, dtype=float)
    weights = np.asarray(samples.weights, dtype=float)
    if lam.shape[0] < MIN_SAMPLES:
        raise ValueError(f"need at least {MIN_SAMPLES} samples, got {lam.shape[0]}")
    if values is None:
        values = f.value(lam)
    return values, support, weights


def residual_field(samples, f, tau):
    """Pointwise F + tau * Z over the samples."""
    values, support, _ = _samples_arrays(samples, f)
    return values + tau * support


def fit_tau(samples, f, values=None):
    """Measure-weighted least squares in (tau, b) of F + tau Z0 + <b, nu> = 0.

    Z0 - <x0, nu> is the support about a centre x0, so tau and x0 = -b / tau solve one
    linear system, unchanged by translations: b is in the plane on a curve, and on the
    axis of a rotation surface.  For the flat grid samples of `hypersurface` only;
    `values`, when given, are F at `samples.lam`, already evaluated.
    """
    values, support, weights = _samples_arrays(samples, f, values)
    axes = samples.normal[:, :2 if samples.dim == 1 else 1].T
    cols = np.empty((len(axes) + 1, support.size))      # the centre's free axes, then Z0
    cols[:-1], cols[-1] = axes, support
    wcols = cols * weights
    gram = wcols @ cols.T
    # gram = U^T U: U[-1, -1]^2 is sum w Z0^2 with Z0 projected off the normals' span
    factor, solution, info = dposv(gram, wcols @ values)
    if info != 0 or not factor[-1, -1] ** 2 > 1e-12 * gram[-1, -1]:
        raise ValueError("degenerate support: sum w Z^2 off the normals vanishes, "
                         "tau is not identifiable")
    coef = -solution
    tau = float(coef[-1])
    res = values + coef @ cols
    total_w = float(weights.sum())
    rms = math.sqrt(float(weights @ (res * res)) / total_w)
    rms_f = math.sqrt(float(weights @ (values * values)) / total_w)
    relative = rms / rms_f if rms_f > 0.0 else (0.0 if rms == 0.0 else math.inf)
    center = tuple((-coef[:-1] / tau).tolist()) if tau else (math.nan,) * (coef.size - 1)
    return SolitonReport(
        tau_fit=tau, rms_residual=rms, relative_residual=relative,
        max_residual=float(np.abs(res).max()), sample_count=int(values.shape[0]), center=center,
    )


# ---------------------------------------------------------------------------
# pinching thresholds

def pinching_quadratics(m, r):
    """The two quadratics in the pinching ratio whose signs gate the n=2 case.

    Returns (2 r^2 + (m-1) r - (m-1), (m-1) r^2 - (m-1) r - 2); the first must
    be >= 0 and the second <= 0 for the maximum-principle argument to close.
    """
    if r < 1.0:
        raise ValueError("pinching ratio r must be >= 1")
    return (2.0 * r * r + (m - 1.0) * r - (m - 1.0),
            (m - 1.0) * r * r - (m - 1.0) * r - 2.0)


def threshold_high(m):
    """Largest admissible pinching ratio for degree m > 1 (n = 2)."""
    if m <= 1.0:
        raise ValueError("threshold_high is defined for m > 1")
    return 0.5 * (1.0 + math.sqrt(1.0 + 8.0 / (m - 1.0)))


def threshold_low(m):
    """Largest admissible pinching ratio for degree m < -7 (n = 2)."""
    if m >= -7.0:
        raise ValueError("threshold_low is defined for m < -7")
    return 2.0 / (1.0 + math.sqrt(1.0 - 8.0 / (1.0 - m)))


_CLASSIFICATIONS = ("convex", "concave", "neither")


def _coverage(n, m, label):
    """The branches covering degree m at every pinching ratio, and the 2(iii) threshold.

    2(i) m >= 1 and 2(ii) m < 0, each with convex or concave f; 2(iii) for n = 2
    at m = 1 or m in [-7, 0), and at m > 1 / m < -7 up to the returned threshold.
    """
    if label not in _CLASSIFICATIONS:
        raise ValueError(f"classification must be one of {_CLASSIFICATIONS}, got {label!r}")
    if n < 1:
        raise ValueError(f"hypersurface dimension n must be at least 1, got {n}")
    if m == 0.0:
        raise ValueError("degree m = 0 is outside the classification (m must be nonzero)")
    shaped = label in ("convex", "concave")
    covered = []
    if m >= 1.0 and shaped:
        covered.append("2(i)")
    if m < 0.0 and shaped:
        covered.append("2(ii)")
    threshold = None
    if n == 2:
        if m == 1.0 or -7.0 <= m < 0.0:
            covered.append("2(iii)")
        elif m > 1.0:
            threshold = threshold_high(m)
        elif m < -7.0:
            threshold = threshold_low(m)
    return covered, threshold


def admissibility(f, r_max):
    """Evaluate the umbilical-sphere classification branches (see `_coverage`) for f, at
    its dimension, degree and `convexity`, and the pinching ratio r_max."""
    if r_max < 1.0:
        raise ValueError("r_max must be >= 1")
    covered, threshold = _coverage(f.n, f.degree, f.convexity)
    if threshold is not None and r_max <= threshold:
        covered.append("2(iii)")
    return PinchingVerdict(covered_by=tuple(covered), threshold_2iii=threshold,
                           admissible=bool(covered))


def sweep_row(m, n=2, classification="neither"):
    """One pinching-sweep record: coverage branch, threshold, and a root check.

    The `quad_residual` cross-validates the closed-form threshold against the
    binding quadratic: at the threshold ratio the gating quadratic must vanish.
    """
    covered, threshold = _coverage(n, m, classification)
    quad_residual = 0.0
    if threshold is not None:
        quad_residual = abs(pinching_quadratics(m, threshold)[1 if m > 1.0 else 0])
    branch = "unconditional" if covered else "uncovered" if threshold is None else "threshold"
    return {"m": m, "branch": branch, "threshold": threshold,
            "quad_residual": quad_residual}
