"""Linearly implicit integrator for the normal-speed curvature flow dX/dt = F * nu.

The speed F is a symmetric curvature function of the principal curvatures and
nu is the inward unit normal.  Every function of `curvfun` is elliptic on the
positive cone, so the flow of a convex surface is parabolic: degree >= 1
families with positive F contract it while the normalized negative-degree
families (F < 0) expand it.  Each step is the 2-stage Rosenbrock method ROS2
(gamma = 1 + 1/sqrt(2); Verwer, Spee, Blom and Hundsdorfer, SIAM J. Sci.
Comput. 20, 1999) in the normal displacement u along the normals of the
current surface, u' = F:

    W = I - gamma dt J,    k1 = W^-1 F(X),    k2 = W^-1 (F(X + dt k1 nu) - 2 k1),
    X_new = X + dt (3/2 k1 + 1/2 k2) nu,

with J the banded 3-point linearization of F that the surface builds from the
exact gradient of F.  ROS2 is L-stable, and of order 2 for any J, so the step
is not limited by the grid: it is set by accuracy.  The first step is

    dt = dt_safety * 0.05 / max_M sum_i (df/dlam_i) lam_i^2,

and every later one comes from the error estimate of the step before it.  The
embedded first-order solution X + dt k1 nu differs from X_new by
E = dt/2 (k1 + k2); its scale-free size e = max|E| max lam is held to
tol = 0.0044 dt_safety^2, so halving dt_safety halves dt.  A step with e > tol
is rejected, and each step's successor takes dt 0.9 (tol/e)^(1/2), within
0.2 and 2 times its own.  Both quantities scale with the surface as the flow's
clock does.  After every step the
surface is redistributed to uniform arclength once its chords have spread (see
`hypersurface._RESAMPLE_SPREAD`), optionally rescaled to a fixed measure about
the centroid, and monitored for the pinching ratio, the umbilicity defects and
the soliton residual fit.  Flat ambient space only.  The extraction
differentiates in the grid parameter and the linearized solve reads the actual
chords, so neither needs uniform chords, and a resample's interpolation error is
paid only when the spacing has drifted.

Under fixed scale the clock t is the normalized time.  A step dt is taken on
the clock of its starting scale; its rescale by alpha makes the normalized time
of a self-similar step dt q / (1 - e^-q), with q = (m + 1) ln alpha and m the
degree of F, and t advances by that (by dt when nothing is rescaled, q = 0).
The step that reaches t_max is sized so that its increment lands there, with q
predicted from the rate q per unit t of the step before.  A step lands once a
dt `_LAND_STRETCH` times longer would reach t_max, so that no sliver of a step
is left over; that is read from its predicted increment, -ln(1 - rate dt) /
rate, which stays finite where the landing dt of a distant t_max would overflow.

The surfaces (`PlaneCurve`, `RevolutionProfile`) own every operation that
depends on their grid layout, the linearized solve included, so nothing here
branches on the surface type; a step moves one only by its `placed`, at its
`ShapeData` rows plus a normal displacement.  `run` loops over the step that
`step` takes: each accepted step extracts the geometry twice, for the second
stage and to validate the candidate; the fixed-scale rescale updates that
geometry by similarity instead of extracting it again.

`run` evaluates F and its gradient once per state: the gradient builds J (and
sets the first dt), and the values give k1 and the monitors' tau fit.  F is
evaluated on the accepted state, after any rescale, and that is its domain
check.  Each ROS2 stage evaluates F once.
"""

import math
from dataclasses import dataclass, field

import numpy as np

from . import soliton
from .curvfun import DomainError
from .hypersurface import (GeometryError, PlaneCurve, RevolutionProfile, ShapeData,
                           curve_geometry, revolution_geometry)  # noqa: F401
# the geometry names above and these placeholders are unused, but perfbench/tracing.py
# patches them here (ROADMAP item 2 retires that); scipy.interpolate stays unloaded
CubicSpline = _min_spacing = None

_MAX_RETRIES = 20                  # dt halvings and error rejections of one step
_GAMMA = 1.0 + 0.5 ** 0.5          # ROS2's diagonal coefficient, the L-stable choice
_STEP_SCALE = 0.05                 # the first dt * max sum_i (df/dlam_i) lam_i^2 at dt_safety = 1
_TOL_SCALE = 0.0044                # the error tolerance at dt_safety = 1
_DT_FACTOR = (0.2, 2.0)            # bounds of a step's dt over the dt before it
_LAND_STRETCH = 1.05               # the longest landing dt over the dt it replaces

TRACE_HEADER = "t,dt,scale,r_max,F_aniso_max,aHH_max,umb_max,tau_fit,rel_residual,measure"


@dataclass(frozen=True)
class StopRule:
    """Flow termination criteria; at least one must be set.

    Without rescaling every criterion is in the physical frame.  Under fixed
    scale the comments give each frame, with alpha a step's rescale factor and
    m the degree of F.
    """

    t_max: float | None = None                 # on the clock t; under fixed scale t is the
                                               # normalized time: a step dt rescaled by alpha
                                               # adds dt q / (1 - e^-q), q = (m+1) ln alpha
    r_tol: float | None = None                 # stop once r_max - 1 < r_tol (scale-free)
    curvature_cap: float | None = None         # max curvature of the rescaled surface under
                                               # fixed scale: never fires on a shrinking circle
    min_scale_fraction: float | None = None    # on the unscaled (physical) measure

    def __post_init__(self):
        if all(v is None for v in (self.t_max, self.r_tol, self.curvature_cap,
                                   self.min_scale_fraction)):
            raise ValueError("StopRule needs at least one criterion set")
        for name in ("t_max", "r_tol", "curvature_cap"):
            value = getattr(self, name)
            if value is not None and not value > 0.0:      # NaN is refused too
                raise ValueError(f"StopRule {name} must be positive, got {value}")
        fraction = self.min_scale_fraction
        if fraction is not None and not 0.0 < fraction < 1.0:
            raise ValueError(f"StopRule min_scale_fraction must lie in (0, 1), got {fraction}")


@dataclass(frozen=True)
class FlowConfig:
    f: object
    stop: StopRule
    dt_safety: float = 0.4
    rescale_mode: str = "none"        # none | fixed-scale

    def __post_init__(self):
        if not 0.0 < self.dt_safety <= 1.0:
            raise ValueError(f"dt_safety must lie in (0, 1], got {self.dt_safety}")
        if self.rescale_mode not in ("none", "fixed-scale"):
            raise ValueError(f"unknown rescale_mode {self.rescale_mode!r}")


@dataclass(frozen=True)
class FlowMonitors:
    r_max: float
    aniso_max: float          # max of (2|A|^2 - H^2) / H^2
    ahh_max: float            # max of |A|^2 / H^2
    umb_max: float            # max of n |A|^2 - H^2
    soliton: soliton.SolitonReport


@dataclass(frozen=True)
class TraceRow:
    t: float
    dt: float
    scale: float
    r_max: float
    aniso_max: float
    ahh_max: float
    umb_max: float
    tau_fit: float
    rel_residual: float
    measure: float

    def csv(self):
        # the instance dict holds the fields in declaration order; astuple deep-copies each
        return ",".join([f"{v:.17g}" for v in self.__dict__.values()])


@dataclass
class FlowTrace:
    rows: list = field(default_factory=list)
    stop_reason: str = ""
    aborted: bool = False
    final_surface: object = None
    dt_halvings: int = 0               # retries at half the dt over the run, the ones
                                       # before an abort included
    rejected: int = 0                  # retries after an error-estimate rejection, likewise

    def to_csv(self):
        lines = [TRACE_HEADER] + [row.csv() for row in self.rows]
        return "\n".join(lines) + "\n"

    @property
    def final(self):
        return self.rows[-1]


def monitors(geom, f, values=None):
    """Pinching, umbilicity, and soliton monitors of a snapshot's `ShapeData`.

    `values`, when given, are F at the snapshot's principal curvatures.
    """
    lam = geom.lam
    if geom.dim == 1:
        k = lam[:, 0]
        k_min, k_max = float(k.min()), float(k.max())
        r_max = k_max / k_min
        aniso = ((k_max - k_min) / (k_max + k_min)) ** 2
        ahh = 1.0
        umb = 0.0
    else:
        lam_1, lam_2 = lam[:, 0], lam[:, 1]     # n = 2, in the grid's frame order
        r_max = float((np.maximum(lam_1, lam_2) / np.minimum(lam_1, lam_2)).max())
        h = lam_1 + lam_2                       # the bits of geom.mean and geom.norm_A2
        h2, a2 = h * h, lam_1 * lam_1 + lam_2 * lam_2
        aniso = float(((2.0 * a2 - h2) / h2).max())
        ahh = float((a2 / h2).max())
        umb = float((geom.dim * a2 - h2).max())
    return FlowMonitors(r_max=r_max, aniso_max=aniso, ahh_max=ahh, umb_max=umb,
                        soliton=soliton.fit_tau(geom, f, values))


def _extract(surface):
    if not isinstance(surface, (PlaneCurve, RevolutionProfile)):
        raise GeometryError(f"flows run on PlaneCurve or RevolutionProfile snapshots, "
                            f"got {type(surface).__name__}")
    return surface.geometry()


def _advance(surface, geom, f, dt, values=None, dfdlam=None):
    """One ROS2 step along the normals of `surface`; the stage geometry is validated.

    `values` and `dfdlam`, when given, are F and its gradient at `geom.lam`.  Returns
    the stepped surface and max |E|, E = dt/2 (k1 + k2) the step's distance from the
    embedded first-order solution.
    """
    if dfdlam is None:
        dfdlam = f.gradient(geom.lam)
    if values is None:
        values = f.value(geom.lam)
    solve = surface.linearized_solver(geom, dfdlam, _GAMMA * dt)
    position, normal = geom.position, geom.normal
    k1 = solve(values)
    stage = _extract(surface.placed(position + (dt * k1)[:, None] * normal))
    k2 = solve(f.value(stage.lam) - 2.0 * k1)
    stepped = surface.placed(position + (dt * (1.5 * k1 + 0.5 * k2))[:, None] * normal)
    return stepped, 0.5 * dt * float(np.abs(k1 + k2).max())


def _redistribute(surface):
    return surface.resampled()


def _step(surface, geom, f, dt, values, dfdlam):
    """Advance, redistribute and validate; returns the stepped surface, its geometry
    and the step's error estimate max |E| (see `_advance`).

    `values` and `dfdlam` are F and its gradient at `geom.lam`.  Raises
    `GeometryError` (convexity, simplicity) from either stage, or `DomainError`
    when the first leaves the domain of f; the caller checks the candidate's.
    """
    candidate, error = _advance(surface, geom, f, dt, values, dfdlam)
    candidate = _redistribute(candidate)
    return candidate, _extract(candidate), error


def step(surface, f, dt):
    """One linearly implicit ROS2 step, then redistribution to uniform arclength
    if the chords have spread.

    Both stages move the samples along the normals of `surface`, the second
    one after the geometry of the first stage's surface is extracted, and
    the result is resampled, once its longest chord exceeds its shortest by
    more than `hypersurface._RESAMPLE_SPREAD`, and extracted again.  Returns the stepped
    surface.  Raises `GeometryError` when either stage loses convexity or
    validity and `DomainError` when it leaves the domain of f; callers retry
    with a smaller dt.
    """
    if dt <= 0.0:
        raise ValueError("dt must be positive")
    geom = _extract(surface)
    new, new_geom, _ = _step(surface, geom, f, dt, f.value(geom.lam), f.gradient(geom.lam))
    f.value(new_geom.lam)              # the domain check
    return new


def _rescale(surface, geom, target_measure):
    """Scale about the centroid to `target_measure`; returns (surface, geometry, alpha).

    The geometry of the scaled surface follows from `geom` by similarity, on
    the same parameter grid: curvatures scale by 1/alpha, the measure weights
    by alpha^n, and the support about the origin becomes
    alpha Z + (1 - alpha) <c, nu>.  H and |A|^2 follow from the curvatures.
    Scaling keeps convexity, simplicity and the pole angle, so nothing is
    extracted or validated again.
    """
    d = geom.dim
    measure = geom.measure
    alpha = (target_measure / measure) ** (1.0 / d)
    center = surface.centroid(geom.weights, measure)
    position = center + alpha * (geom.position - center)
    scaled_geom = ShapeData(d, position=position, normal=geom.normal, lam=geom.lam / alpha,
                            support=alpha * geom.support + (1.0 - alpha) * (geom.normal @ center),
                            weights=alpha ** d * geom.weights)
    return surface.placed(position), scaled_geom, alpha


def _stop_reason(stop, t, mon, geom, physical_fraction):
    if stop.r_tol is not None and mon.r_max - 1.0 < stop.r_tol:
        return "r_tol"
    if stop.t_max is not None and t >= stop.t_max:
        return "t_max"
    if stop.curvature_cap is not None and float(geom.lam.max()) > stop.curvature_cap:
        return "curvature_cap"
    if stop.min_scale_fraction is not None and physical_fraction < stop.min_scale_fraction:
        return "min_scale_fraction"
    return None


def _dt_factor(error, tol):
    """The next dt over this one for a step of error estimate `error`: 0.9 (tol/e)^(1/2),
    within `_DT_FACTOR`."""
    low, high = _DT_FACTOR
    return min(high, max(low, 0.9 * math.sqrt(tol / error))) if error else high


def _clock(q):
    """Normalized time per unit of a step's starting-scale dt, for a step rescaled by
    alpha = e^(q / (m + 1)): q / (1 - e^-q), and 1 at q = 0."""
    return q / -math.expm1(-q) if q else 1.0


def _span(dt, rate):
    """The normalized time a step dt covers when its q is `rate` times that time:
    -ln(1 - rate dt) / rate, the inverse of dt = span / _clock(rate span).  It is dt
    at rate 0, unbounded once rate dt >= 1, and never overflows."""
    if rate * dt >= 1.0:
        return math.inf
    return -math.log1p(-rate * dt) / rate if rate else dt


def run(config, surface):
    """Integrate the flow until a stop criterion fires; returns the trace.

    In fixed-scale mode every accepted step is rescaled about the centroid so
    the total measure (length or area) stays at its initial value; the applied
    factor is recorded and the accumulated product defines the physical scale
    fraction used by the `min_scale_fraction` stop.  A step that fails
    validation is retried at half the dt, one whose error estimate exceeds the
    tolerance at the dt its estimate asks for, `_MAX_RETRIES` times in all; the
    abort then names how many retries of each kind the step took.
    """
    f, stop = config.f, config.stop
    geom = _extract(surface)
    values = f.value(geom.lam)         # F of the current state; also the domain check up front
    tol = _TOL_SCALE * config.dt_safety ** 2
    measure0 = geom.measure
    trace = FlowTrace()
    t = step_dt = rate = 0.0           # rate: q per unit t over the last accepted step
    dt = None
    alpha = cumulative = 1.0

    while True:
        mon = monitors(geom, f, values)
        measure = geom.measure
        trace.rows.append(TraceRow(t, step_dt, alpha, mon.r_max, mon.aniso_max, mon.ahh_max,
                                   mon.umb_max, mon.soliton.tau_fit,
                                   mon.soliton.relative_residual, measure))
        physical = measure / cumulative ** geom.dim / measure0
        reason = _stop_reason(stop, t, mon, geom, physical)
        if reason is not None:
            return _finish(trace, surface, reason)

        lam = geom.lam
        dfdlam = f.gradient(lam)
        if dt is None:
            dt = config.dt_safety * _STEP_SCALE / float((dfdlam * lam * lam).sum(axis=1).max())
        # the step lands on t_max once a slightly longer one would cover what remains; the
        # landing dt is then no larger than _LAND_STRETCH dt, nor its q larger in size, so
        # _clock cannot overflow
        lands = stop.t_max is not None and _span(_LAND_STRETCH * dt, rate) >= stop.t_max - t
        if lands:
            remaining = stop.t_max - t
            dt = remaining / _clock(rate * remaining)   # the dt whose increment ends there
        lam_max = float(lam.max())

        # dt is floored relative to the accuracy dt by the retry cap; the run
        # stops on underflow only once a step no longer advances the clock
        halvings = rejections = 0          # this step's retries, by what refused the try before
        while True:
            if not t + dt > t:
                return _finish(trace, surface, f"dt underflow (dt = {dt:.3g} at t = {t:.6g})",
                               aborted=True)
            try:
                new, new_geom, error = _step(surface, geom, f, dt, values, dfdlam)
                error *= lam_max               # scale-free: a distance times a curvature
                if error <= tol:
                    if config.rescale_mode == "fixed-scale":
                        new, new_geom, alpha = _rescale(new, new_geom, measure0)
                    values = f.value(new_geom.lam)     # the accepted state's domain check
                    break
                last_error = f"error estimate {error:.3g} above the tolerance {tol:.3g}"
                halve = False
            except (GeometryError, DomainError) as exc:
                last_error, halve = exc, True
            if halvings + rejections == _MAX_RETRIES:
                made = " and ".join(f"{n} {kind}" for n, kind in
                                    ((halvings, "dt halvings"), (rejections, "error rejections"))
                                    if n)
                return _finish(trace, surface, f"no valid step after {made} (last: {last_error})",
                               aborted=True)
            if halve:
                halvings += 1
                trace.dt_halvings += 1
                dt *= 0.5
            else:
                rejections += 1
                trace.rejected += 1
                dt *= _dt_factor(error, tol)
            lands = False

        q = (f.degree + 1.0) * math.log(alpha)
        increment = dt * _clock(q)
        surface, geom = new, new_geom
        t = stop.t_max if lands else t + increment
        rate = q / increment
        cumulative *= alpha
        step_dt = dt
        dt *= _dt_factor(error, tol)


def _finish(trace, surface, reason, aborted=False):
    trace.stop_reason = f"aborted: {reason}" if aborted else reason
    trace.aborted = aborted
    trace.final_surface = surface
    return trace
