"""The self-similar-solution equation F + tau * Z = 0.

Centered geodesic spheres solve it for every symmetric homogeneous curvature
function, with the closed-form constant

    tau = f(1, ..., 1) * chc(R)^m / shc(R)^(m+1)

(inward normals: every principal curvature is chc(R)/shc(R) and the support
value is -shc(R)).  For general sampled surfaces, `fit_tau` finds the
measure-weighted least-squares tau and reports residual statistics, and the
admissibility calculator evaluates which branch of the umbilical-sphere
classification covers a given degree, convexity class, and pinching ratio.
"""

import math
from dataclasses import dataclass

import numpy as np

from .spaceform import chc, shc, require_nonpositive_curvature


@dataclass(frozen=True)
class SolitonReport:
    """Least-squares fit of tau and residual statistics of F + tau * Z."""

    tau_fit: float
    rms_residual: float
    relative_residual: float    # rms(F + tau Z) / rms(F)
    max_residual: float
    sample_count: int


@dataclass(frozen=True)
class PinchingVerdict:
    """Which classification branches cover (n, m, convexity, pinching)."""

    n: int
    m: float
    f_classification: str
    r_max_observed: float
    covered_by: tuple           # subset of ("2(i)", "2(ii)", "2(iii)")
    threshold_2iii: float | None
    admissible: bool


def sphere_tau(f, radius, c=0.0, allow_positive_c=False):
    """The unique tau making the centered geodesic sphere of given radius a solution."""
    if radius <= 0.0:
        raise ValueError("sphere radius must be positive")
    require_nonpositive_curvature(c, allow_positive=allow_positive_c)
    f_unit = f.unit_value()
    if f_unit == 0.0:
        raise ValueError(f"{f.name}(1,...,1) = 0: no nonzero tau exists for spheres")
    m = f.degree
    return f_unit * chc(c, radius) ** m / shc(c, radius) ** (m + 1.0)


def solve_sphere_radius(f, tau, c=0.0, bracket=(1e-6, 50.0), max_iter=200, rtol=1e-12):
    """Invert `sphere_tau` by bisection on the given radius bracket."""
    if tau == 0.0:
        raise ValueError("tau must be nonzero")
    lo, hi = bracket

    def defect(r):
        return sphere_tau(f, r, c) - tau

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
    for _ in range(max_iter):
        mid = 0.5 * (lo + hi)
        d_mid = defect(mid)
        if abs(d_mid) <= rtol * abs(tau):
            return mid
        if d_lo * d_mid <= 0.0:
            hi = mid
        else:
            lo, d_lo = mid, d_mid
    raise ValueError(f"bisection did not reach |sphere_tau(R) - tau| <= {rtol:g}*|tau| "
                     f"in {max_iter} iterations")


def _samples_arrays(samples, f):
    lam = np.asarray(samples.lam, dtype=float)
    support = np.asarray(samples.support, dtype=float)
    weights = np.asarray(samples.weights, dtype=float)
    if lam.shape[0] < 16:
        raise ValueError(f"need at least 16 samples, got {lam.shape[0]}")
    values = f.value(lam)
    return values, support, weights


def residual_field(samples, f, tau):
    """Pointwise F + tau * Z over the samples."""
    values, support, _ = _samples_arrays(samples, f)
    return values + tau * support


def fit_tau(samples, f):
    """Measure-weighted least-squares tau minimizing sum w (F + tau Z)^2."""
    values, support, weights = _samples_arrays(samples, f)
    denom = float(weights @ (support * support))
    if denom <= 0.0:
        raise ValueError("degenerate support: sum w Z^2 vanishes, tau is not identifiable")
    tau = -float(weights @ (values * support)) / denom
    res = values + tau * support
    total_w = float(weights.sum())
    rms = math.sqrt(float(weights @ (res * res)) / total_w)
    rms_f = math.sqrt(float(weights @ (values * values)) / total_w)
    relative = rms / rms_f if rms_f > 0.0 else (0.0 if rms == 0.0 else math.inf)
    return SolitonReport(
        tau_fit=tau, rms_residual=rms, relative_residual=relative,
        max_residual=float(np.abs(res).max()), sample_count=int(values.shape[0]),
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


def admissibility(n, f, classification, r_max):
    """Evaluate the umbilical-sphere classification branches (see `_coverage`)."""
    label = getattr(classification, "label", classification)
    if label not in _CLASSIFICATIONS:
        raise ValueError(f"classification must be one of {_CLASSIFICATIONS}, got {label!r}")
    if r_max < 1.0:
        raise ValueError("r_max must be >= 1")
    m = f.degree
    covered, threshold = _coverage(n, m, label)
    if threshold is not None and r_max <= threshold:
        covered.append("2(iii)")
    return PinchingVerdict(
        n=n, m=m, f_classification=label, r_max_observed=float(r_max),
        covered_by=tuple(covered), threshold_2iii=threshold,
        admissible=bool(covered),
    )


def sweep_row(m, n=2, classification="neither"):
    """One pinching-sweep record: coverage branch, threshold, and a root check.

    The `quad_residual` cross-validates the closed-form threshold against the
    binding quadratic: at the threshold ratio the gating quadratic must vanish.
    """
    if classification not in _CLASSIFICATIONS:
        raise ValueError(f"classification must be one of {_CLASSIFICATIONS}")
    covered, threshold = _coverage(n, m, classification)
    quad_residual = 0.0
    if threshold is not None:
        quad_residual = abs(pinching_quadratics(m, threshold)[1 if m > 1.0 else 0])
    branch = "unconditional" if covered else "uncovered" if threshold is None else "threshold"
    return {"m": m, "branch": branch, "threshold": threshold,
            "quad_residual": quad_residual}
