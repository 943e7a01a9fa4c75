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


def _in_range(tau):
    """Whether a tau of `_tau` is finite and nonzero."""
    return 0.0 < abs(tau) < math.inf


# the logs of the largest and of the smallest positive float
_LOG_MAX = math.log(sys.float_info.max)
_LOG_MIN = math.log(math.ulp(0.0))
# a tau this close in ratio beyond an end of the radii's reach is taken as reached there: at
# c < 0 and the smallest x, the terms of log |tau| are about 700 in size and cancel for m near
# -1, so it is rounded by about 1e-13
_REACH_RTOL = 1e-12


def solve_sphere_radius(f, tau, c=0.0):
    """The radius R of the centered geodesic sphere whose `sphere_tau` is tau, from log |tau|.

    tau has the sign of f(1, ..., 1) at every radius.  At c = 0, log |tau| = log |f(1, ..., 1)|
    - (m + 1) log R is inverted in closed form (m = -1 is degenerate: tau is f(1, ..., 1) at
    every radius).  At c < 0, log |tau| is bisected in log R, down to adjacent floats, over the
    radii whose x = sqrt(-c) R is a normal float.  It falls monotonically in R for m >= -1.
    For m < -1 it rises to a maximum at R* = artanh(sqrt((m + 1) / m)) / sqrt(-c), where
    sinh(x)^2 = -m - 1, and falls after it; the root returned is the one below R*, the branch
    that continues the flat case.  A tau no radius reaches is refused with the |tau| range
    that the radii reach (at c < 0, widened by `_REACH_RTOL`).
    """
    if tau == 0.0 or not -math.inf < tau < math.inf:
        raise ValueError(f"tau must be nonzero and finite (got tau={tau})")
    require_nonpositive_curvature(c)
    unit, m = f.unit_value, f.degree
    if not _in_range(unit):
        sphere_tau(f, 1.0, c)       # refuses f(1, ..., 1) by name, as it would at any radius
    if (tau > 0.0) != (unit > 0.0):
        raise _no_sphere_soliton(f, tau, c, f"tau has the sign of f(1, ..., 1) = {unit:g}")
    target = math.log(abs(tau))
    if c == 0.0:
        if m == -1.0:
            if tau == unit:
                raise ValueError(f"degenerate inverse problem: sphere_tau of {f.name} is "
                                 f"{unit:g} at every radius (every radius solves)")
            raise _no_sphere_soliton(f, tau, c, f"|tau| is {abs(unit):g} at every radius")
        log_unit = math.log(abs(unit))
        log_radius = (log_unit - target) / (m + 1.0)
        if _LOG_MIN <= log_radius < _LOG_MAX:
            return math.exp(log_radius)
        ends = [log_unit - (m + 1.0) * log_r for log_r in (_LOG_MIN, _LOG_MAX)]
        raise _no_sphere_soliton(f, tau, c, f"the radii reach {_reach(ends)}")

    kappa = math.sqrt(-c)
    lo = max(sys.float_info.min / kappa, math.ulp(0.0))
    hi = min(sys.float_info.max / kappa, sys.float_info.max)
    rising = m < -1.0
    if rising:
        hi = math.asinh(math.sqrt(-1.0 - m)) / kappa        # R*, where sinh(x)^2 = -m - 1
    ends = [_log_abs_tau(unit, m, r, c) for r in (lo, hi)]
    if not min(ends) - _REACH_RTOL <= target <= max(ends) + _REACH_RTOL:
        branch = f" up to R*={hi:g}, where |tau| is largest," if rising else ""
        raise _no_sphere_soliton(f, tau, c, f"the radii{branch} reach {_reach(ends)}")
    gap_lo, gap_hi = (end - target for end in ends)
    while True:
        # geometric midpoints while the bracket spans an octave, arithmetic ones after
        mid = math.sqrt(lo) * math.sqrt(hi) if hi > 2.0 * lo else lo + 0.5 * (hi - lo)
        if not lo < mid < hi:
            return lo if abs(gap_lo) <= abs(gap_hi) else hi
        gap = _log_abs_tau(unit, m, mid, c) - target
        if gap == 0.0:
            return mid
        if (gap < 0.0) == rising:
            lo, gap_lo = mid, gap
        else:
            hi, gap_hi = mid, gap


def _no_sphere_soliton(f, tau, c, reason):
    """The refusal of a tau that no sphere of f at c has, with its reason."""
    return ValueError(f"no sphere soliton of {f.name} (degree m={f.degree:g}) at c={c:g} "
                      f"for tau={tau:g}: {reason}")


def _reach(log_ends):
    """'|tau| in [a, b]' for the log |tau| at two radii, inf past the largest float."""
    low, high = (math.exp(v) if v < _LOG_MAX else math.inf for v in sorted(log_ends))
    return f"|tau| in [{low:g}, {high:g}]"


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
