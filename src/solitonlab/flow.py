"""Linearly implicit integrator for the normal-speed curvature flow dX/dt = F * nu.

The speed F is a symmetric curvature function of the principal curvatures and
nu is the inward unit normal, so degree >= 1 families with positive F contract
convex surfaces while the normalized negative-degree families (F < 0) expand
them.  Each step is the 2-stage Rosenbrock method ROS2 (gamma = 1 + 1/sqrt(2);
Verwer, Spee, Blom and Hundsdorfer, SIAM J. Sci. Comput. 20, 1999) in the
normal displacement u along the normals of the current surface, u' = F:

    W = I - gamma dt J,    k1 = W^-1 F(X),    k2 = W^-1 (F(X + dt k1 nu) - 2 k1),
    X_new = X + dt (3/2 k1 + 1/2 k2) nu,

with J the banded 3-point linearization of F that the surface builds from the
exact gradient of F.  ROS2 is L-stable, and of order 2 for any J, so the step
is not limited by the grid: it is set by accuracy,

    dt = dt_safety * 0.05 / max_M sum_i (df/dlam_i) lam_i^2,

which scales with the surface as the flow's clock does.  After every step the
surface is redistributed to uniform arclength, optionally rescaled to a fixed
measure about the centroid, and monitored for the pinching ratio, the
umbilicity defects and the soliton residual fit.  Flat ambient space only.

The surfaces (`PlaneCurve`, `RevolutionProfile`) own every operation that
depends on their grid layout, the linearized solve included, so nothing here
branches on the surface type.  `run` loops over the step that `step` takes:
each accepted step extracts the geometry twice, for the second stage and to
validate the candidate; the fixed-scale rescale updates that geometry by
similarity instead of extracting it again.

`run` evaluates F and its gradient once per state: the gradient sets dt and
builds J, and the values give k1 and the monitors' tau fit.  The candidate's
values, computed to check that it lies in the domain of F, are the next
state's; under fixed scale the rescaled state is evaluated once more.  Each
ROS2 stage evaluates F once.
"""

from dataclasses import dataclass, field

import numpy as np

from . import soliton
from .curvfun import DomainError
from .hypersurface import (GeometryError, PlaneCurve, RevolutionProfile, ShapeData,
                           curve_geometry, revolution_geometry)  # noqa: F401
# the geometry names above and these placeholders are unused, but perfbench/tracing.py
# patches them here (ROADMAP item 2 retires that); scipy.interpolate stays unloaded
CubicSpline = _min_spacing = None

_MAX_HALVINGS = 20
_GAMMA = 1.0 + 0.5 ** 0.5          # ROS2's diagonal coefficient, the L-stable choice
_STEP_SCALE = 0.05                 # dt * max sum_i (df/dlam_i) lam_i^2 at dt_safety = 1

TRACE_HEADER = "t,dt,scale,r_max,F_aniso_max,aHH_max,umb_max,tau_fit,rel_residual,measure"


@dataclass(frozen=True)
class StopRule:
    """Flow termination criteria; at least one must be set.

    Without rescaling every criterion is in the physical frame.  Under fixed
    scale the comments give each frame, with C the cumulative scale applied
    so far and m the degree of F.
    """

    t_max: float | None = None                 # on the clock t; under fixed scale t is
                                               # normalized: a step dt is a physical dt * C^-(m+1)
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
        if not self.f.elliptic_on_positive_cone:
            raise ValueError(f"the flow speed must be elliptic (df/dlam_i > 0 on the positive "
                             f"cone); f={self.f.name} is not")
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
    dt_halvings: int = 0               # over the run, the ones before an abort included

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
        lam_1, lam_2 = lam.T            # n = 2, in the grid's frame order
        r_max = float((np.maximum(lam_1, lam_2) / np.minimum(lam_1, lam_2)).max())
        h2, a2 = geom.mean ** 2, geom.norm_A2
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

    `values` and `dfdlam`, when given, are F and its gradient at `geom.lam`.
    """
    if dfdlam is None:
        dfdlam = f.gradient(geom.lam)
    if values is None:
        values = f.value(geom.lam)
    solve = surface.linearized_solver(geom, dfdlam, _GAMMA * dt)
    k1 = solve(values)
    stage = _extract(surface.moved(dt * k1[:, None] * geom.normal))
    k2 = solve(f.value(stage.lam) - 2.0 * k1)
    return surface.moved(dt * (1.5 * k1 + 0.5 * k2)[:, None] * geom.normal)


def _redistribute(surface):
    return surface.resampled()


def _step(surface, geom, f, dt, values, dfdlam):
    """Advance, redistribute and validate; returns the stepped surface, its geometry
    and F at its principal curvatures.

    `values` and `dfdlam` are F and its gradient at `geom.lam`.  Raises
    `GeometryError` (convexity, simplicity) or `DomainError` (domain of f),
    from either stage.
    """
    candidate = _redistribute(_advance(surface, geom, f, dt, values, dfdlam))
    candidate_geom = _extract(candidate)
    return candidate, candidate_geom, f.value(candidate_geom.lam)


def step(surface, f, dt):
    """One linearly implicit ROS2 step, then redistribution to uniform arclength.

    Both stages move the samples along the normals of `surface`, the second
    one after the geometry of the first stage's surface is extracted, and
    the result is resampled and extracted again.  Returns the stepped
    surface.  Raises `GeometryError` when either stage loses convexity or
    validity and `DomainError` when it leaves the domain of f; callers retry
    with a smaller dt.
    """
    if dt <= 0.0:
        raise ValueError("dt must be positive")
    geom = _extract(surface)
    return _step(surface, geom, f, dt, f.value(geom.lam), f.gradient(geom.lam))[0]


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
    alpha = (target_measure / geom.measure) ** (1.0 / d)
    center = surface.centroid(geom.weights)
    scaled_geom = ShapeData(d, position=center + alpha * (geom.position - center),
                            normal=geom.normal, lam=geom.lam / alpha,
                            support=alpha * geom.support + (1.0 - alpha) * (geom.normal @ center),
                            weights=alpha ** d * geom.weights)
    return surface.scaled(alpha, center), scaled_geom, alpha


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


def run(config, surface):
    """Integrate the flow until a stop criterion fires; returns the trace.

    In fixed-scale mode every accepted step is rescaled about the centroid so
    the total measure (length or area) stays at its initial value; the applied
    factor is recorded and the accumulated product defines the physical scale
    fraction used by the `min_scale_fraction` stop.
    """
    f, stop = config.f, config.stop
    geom = _extract(surface)
    values = f.value(geom.lam)         # F of the current state; also the domain check up front
    measure0 = geom.measure
    trace = FlowTrace()
    t = dt = 0.0
    alpha = cumulative = 1.0

    while True:
        mon = monitors(geom, f, values)
        trace.rows.append(TraceRow(t, dt, alpha, mon.r_max, mon.aniso_max, mon.ahh_max,
                                   mon.umb_max, mon.soliton.tau_fit,
                                   mon.soliton.relative_residual, geom.measure))
        physical = geom.measure / cumulative ** geom.dim / measure0
        reason = _stop_reason(stop, t, mon, geom, physical)
        if reason is not None:
            return _finish(trace, surface, reason)

        lam = geom.lam
        dfdlam = f.gradient(lam)
        dt = config.dt_safety * _STEP_SCALE / float((dfdlam * lam * lam).sum(axis=1).max())
        lands = stop.t_max is not None and t + dt >= stop.t_max
        if lands:
            dt = stop.t_max - t        # the step that reaches t_max ends on it

        # dt is floored relative to the accuracy dt by the halving cap; the run
        # stops on underflow only once a step no longer advances the clock
        for halving in range(_MAX_HALVINGS + 1):
            if halving:
                dt *= 0.5
                lands = False
                trace.dt_halvings += 1
            if not t + dt > t:
                return _finish(trace, surface, f"dt underflow (dt = {dt:.3g} at t = {t:.6g})",
                               aborted=True)
            try:
                surface, geom, values = _step(surface, geom, f, dt, values, dfdlam)
                break
            except (GeometryError, DomainError) as exc:
                last_error = exc
        else:
            return _finish(trace, surface, f"convexity or validity lost after {_MAX_HALVINGS} "
                                           f"dt halvings (last: {last_error})", aborted=True)

        t = stop.t_max if lands else t + dt
        if config.rescale_mode == "fixed-scale":
            surface, geom, alpha = _rescale(surface, geom, measure0)
            values = f.value(geom.lam)
            cumulative *= alpha


def _finish(trace, surface, reason, aborted=False):
    trace.stop_reason = f"aborted: {reason}" if aborted else reason
    trace.aborted = aborted
    trace.final_surface = surface
    return trace
