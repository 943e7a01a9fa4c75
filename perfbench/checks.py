"""Correctness checks for the outputs of the benchmark's operations.

Each check takes the parsed outputs of one operation and returns the list of
problems it found; an empty list means the output is correct.  The references
are closed forms and properties of the method, computed here without
solitonlab:

* ellipse 2:1 rounding (criterion 7): the fixed-scale flow keeps the length,
  so it stays the ellipse perimeter ``8 E(3/4)``; its isoperimetric ratio
  falls below the ellipse's.  Run to its ``r_tol`` stop, the curve ends near
  the circle of that length, which solves ``k + tau Z = 0`` with
  ``tau = 1/R^2``.
* spheroid 1:1.3 rounding (criterion 7): the fixed-scale flow keeps the area,
  so it stays the prolate-spheroid area; ``|A|^2/H^2`` falls monotonically,
  and at the ``r_tol`` stop it is near 1/2, its value on a round sphere.
* circle shrink (criterion 8): the exact solution ``R(t) = sqrt(1 - 2t)``.

The timed rounds of the two rounding workloads stop at a flow time
(``ELLIPSE_T_END``, ``SPHEROID_T_END``) and are checked with the
``*_start`` checks; the full flows, run once per traced run, with
`check_ellipse_round` and `check_spheroid_round`.
* identity suite: every row's residual is within its tolerance.
"""

import io
import math

import numpy as np
from scipy.special import ellipe

ELLIPSE_AXES = (2.0, 1.0)          # semi-axes of the criterion-7 ellipse
SPHEROID_AXES = (1.0, 1.3)         # equatorial and polar semi-axes (prolate)

ELLIPSE_MEASURE_RTOL = 1e-6        # measured 1.2e-8 at M = 256
TAU_R2_TOL = 1e-3                  # measured 2.7e-5 at the r_tol = 0.02 stop
RESIDUAL_DROP = 0.1                # final rel_residual below this share of the initial
AHH_TOL = 0.005                    # |A|^2/H^2 must end within this of 1/2
AHH_MONOTONE_SLACK = 1e-9
SPHEROID_AREA_RTOL = 1e-4          # measured 1.0e-5 at M = 256
CIRCLE_RADIUS_RTOL = 1e-3          # measured 6.0e-5 at M = 256

# flow time of one timed round, each 175 to 315 steps at M = 256
ELLIPSE_T_END = 0.1
SPHEROID_T_END = 0.01
CIRCLE_T_END = 0.07
CIRCLE_FULL_T_END = 0.25           # criterion 8, run once per traced run
SUITE_SAMPLES = 30

# Rows left out of the identity-suite operations: their finite-difference
# Hessian (step 1e-4) carries a rounding error that reaches the 1e-6
# tolerance, so each fails on about one seed in a hundred (seeds 8, 86 and
# 205 among those tried).  Kept, they would make the failed share depend on
# the seed.
SEED_DEPENDENT_ROWS = frozenset({"sigma2_n3_hessian_fd", "K_n3_hessian_fd"})


def read_trace(text):
    """Columns of a flow trace CSV as float arrays, keyed by the header names."""
    header, _, body = text.partition("\n")
    names = header.strip().split(",")
    data = np.loadtxt(io.StringIO(body), delimiter=",", ndmin=2)
    if data.shape[1] != len(names):
        raise ValueError(f"trace has {data.shape[1]} columns, header names {len(names)}")
    return {name: data[:, i] for i, name in enumerate(names)}


def ellipse_perimeter(a, b):
    """Perimeter ``4 a E(1 - b^2/a^2)`` of the ellipse with semi-axes a >= b."""
    return 4.0 * a * float(ellipe(1.0 - (b / a) ** 2))


def prolate_spheroid_area(a, c):
    """Area of the spheroid with semi-axes (a, a, c), c > a."""
    e = math.sqrt(1.0 - (a / c) ** 2)
    return 2.0 * math.pi * a * a * (1.0 + c / (a * e) * math.asin(e))


def polygon_length_area(points):
    """Perimeter and enclosed area (shoelace formula) of a closed polygon."""
    pts = np.asarray(points, dtype=float)
    nxt = np.roll(pts, -1, axis=0)
    length = float(np.linalg.norm(nxt - pts, axis=1).sum())
    area = 0.5 * abs(float(np.sum(pts[:, 0] * nxt[:, 1] - nxt[:, 0] * pts[:, 1])))
    return length, area


def _stop_reason(snapshot, expected):
    reason = snapshot.get("metadata", {}).get("stop_reason")
    return [] if reason == expected else [f"stop reason {reason!r}, expected {expected!r}"]


def _flow_time(trace, t_end):
    t = trace["t"][-1]
    return [] if t >= t_end else [f"final t {t:.6g} below {t_end:g}"]


def _ellipse_common(trace, snapshot):
    """The length stays the perimeter on every row; the curve is rounder."""
    a, b = ELLIPSE_AXES
    perimeter = ellipse_perimeter(a, b)
    problems = []
    err = float(np.max(np.abs(trace["measure"] - perimeter))) / perimeter
    if not err <= ELLIPSE_MEASURE_RTOL:
        problems.append(f"length off the ellipse perimeter by {err:.2e}")
    length, area = polygon_length_area(snapshot["positions"])
    ratio = length * length / (4.0 * math.pi * area)
    start = perimeter * perimeter / (4.0 * math.pi * math.pi * a * b)
    if not ratio < start:
        problems.append(f"isoperimetric ratio {ratio:.6f} not below the ellipse's {start:.6f}")
    return problems


def check_ellipse_start(trace, snapshot):
    """A timed round: the flow up to ``ELLIPSE_T_END``."""
    problems = _stop_reason(snapshot, "t_max") + _flow_time(trace, ELLIPSE_T_END)
    problems += _ellipse_common(trace, snapshot)
    res = trace["rel_residual"]
    if not res[-1] < res[0]:
        problems.append(f"rel_residual {res[-1]:.3e} not below its start {res[0]:.3e}")
    return problems


def check_ellipse_round(trace, snapshot):
    """The full criterion-7 flow, run to its ``r_tol`` stop."""
    problems = _stop_reason(snapshot, "r_tol") + _ellipse_common(trace, snapshot)
    radius = ellipse_perimeter(*ELLIPSE_AXES) / (2.0 * math.pi)
    err = abs(trace["tau_fit"][-1] * radius * radius - 1.0)
    if not err <= TAU_R2_TOL:
        problems.append(f"tau_fit R^2 off 1 by {err:.2e}")
    res = trace["rel_residual"]
    if not res[-1] < RESIDUAL_DROP * res[0]:
        problems.append(f"rel_residual {res[-1]:.3e} not below {RESIDUAL_DROP:g} x {res[0]:.3e}")
    return problems


def _spheroid_common(trace):
    """The area stays the spheroid's on every row; ``|A|^2/H^2`` never rises."""
    problems = []
    rises = np.nonzero(np.diff(trace["aHH_max"]) > AHH_MONOTONE_SLACK)[0]
    if rises.size:
        problems.append(f"|A|^2/H^2 increases at trace row {int(rises[0]) + 1}")
    area = prolate_spheroid_area(*SPHEROID_AXES)
    err = float(np.max(np.abs(trace["measure"] - area))) / area
    if not err <= SPHEROID_AREA_RTOL:
        problems.append(f"area off the prolate-spheroid area by {err:.2e}")
    return problems


def check_spheroid_start(trace, snapshot):
    """A timed round: the flow up to ``SPHEROID_T_END``."""
    problems = _stop_reason(snapshot, "t_max") + _flow_time(trace, SPHEROID_T_END)
    problems += _spheroid_common(trace)
    ahh = trace["aHH_max"]
    if not ahh[-1] < ahh[0]:
        problems.append(f"|A|^2/H^2 ends at {ahh[-1]:.6f}, not below its start {ahh[0]:.6f}")
    return problems


def check_spheroid_round(trace, snapshot):
    """The full criterion-7 flow, run to its ``r_tol`` stop."""
    problems = _stop_reason(snapshot, "r_tol") + _spheroid_common(trace)
    ahh = trace["aHH_max"]
    if not abs(ahh[-1] - 0.5) < AHH_TOL:
        problems.append(f"|A|^2/H^2 ends at {ahh[-1]:.5f}, not within {AHH_TOL:g} of 1/2")
    return problems


def check_circle_shrink(trace, snapshot, t_end=CIRCLE_T_END):
    problems = _stop_reason(snapshot, "t_max")
    t = trace["t"]
    exact = np.sqrt(1.0 - 2.0 * t)
    err = np.abs(trace["measure"] / (2.0 * math.pi) - exact) / exact
    worst = int(np.argmax(err))
    if not err[worst] <= CIRCLE_RADIUS_RTOL:
        problems.append(f"radius off sqrt(1 - 2t) by {err[worst]:.2e} at t = {t[worst]:.6g}")
    return problems + _flow_time(trace, t_end)


def check_identity_rows(text):
    """One problem list per identity-suite CSV row (each row is an operation).

    The rows in `SEED_DEPENDENT_ROWS` are not operations of the benchmark.
    """
    lines = text.strip().splitlines()
    if not lines or lines[0] != "name,residual,tolerance,pass":
        raise ValueError("identity-suite CSV lacks its header")
    out = []
    for line in lines[1:]:
        # names such as pow(H,-1)_n2_homogeneity carry unquoted commas
        name, residual, tolerance, passed = line.rsplit(",", 3)
        if name in SEED_DEPENDENT_ROWS:
            continue
        problems = []
        if passed != "true":
            problems.append(f"{name}: marked {passed!r}")
        if not float(residual) <= float(tolerance):
            problems.append(f"{name}: residual {residual} above tolerance {tolerance}")
        out.append(problems)
    return out
