"""Explicit integrator for the normal-speed curvature flow dX/dt = F * nu.

The speed F is a symmetric curvature function of the principal curvatures and
nu is the inward unit normal, so degree >= 1 families with positive F contract
convex surfaces while the normalized negative-degree families (F < 0) expand
them.  Time stepping is explicit Euler under the parabolic restriction

    dt = dt_safety * h_min^2 / max_M sum_i df/dlam_i,

with tangential redistribution to uniform arclength after every step, optional
fixed-measure rescaling about the centroid, and per-step monitors for the
pinching ratio, the umbilicity defects, and the soliton residual fit.  Flat
ambient space only.

The redistribution is the periodic C^2 cubic interpolant of the samples
against arclength, with its slopes solved directly from the cyclic
tridiagonal system (one LAPACK call).  Each accepted step extracts the
geometry once, when the candidate is validated; the fixed-scale rescale
updates that geometry by similarity instead of extracting it again.
"""

from dataclasses import dataclass, field, replace

import numpy as np
from scipy.interpolate import CubicSpline  # noqa: F401  unused; perfbench/tracing.py patches this name
from scipy.linalg.lapack import dgtsv

from . import soliton
from .curvfun import DomainError
from .hypersurface import (GeometryError, PlaneCurve, RevolutionProfile, ShapeData,
                           curve_geometry, revolution_geometry)

_MAX_HALVINGS = 20

TRACE_HEADER = "t,dt,scale,r_max,F_aniso_max,aHH_max,umb_max,tau_fit,rel_residual,measure"


@dataclass(frozen=True)
class StopRule:
    """Flow termination criteria; at least one must be set."""

    t_max: float | None = None
    r_tol: float | None = None                 # stop once r_max - 1 < r_tol
    curvature_cap: float | None = None
    min_scale_fraction: float | None = None    # on the unscaled (physical) measure

    def __post_init__(self):
        if all(v is None for v in (self.t_max, self.r_tol, self.curvature_cap,
                                   self.min_scale_fraction)):
            raise ValueError("StopRule needs at least one criterion set")


@dataclass(frozen=True)
class FlowConfig:
    f: object
    stop: StopRule
    dt_safety: float = 0.4
    rescale_mode: str = "none"        # none | fixed-scale
    grid_size: int = 256
    c: float = 0.0

    def __post_init__(self):
        if not 0.0 < self.dt_safety <= 1.0:
            raise ValueError(f"dt_safety must lie in (0, 1], got {self.dt_safety}")
        if self.rescale_mode not in ("none", "fixed-scale"):
            raise ValueError(f"unknown rescale_mode {self.rescale_mode!r}")
        if self.c != 0.0:
            raise ValueError("flows are integrated in flat ambient space only (c = 0)")


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
        vals = (self.t, self.dt, self.scale, self.r_max, self.aniso_max,
                self.ahh_max, self.umb_max, self.tau_fit, self.rel_residual,
                self.measure)
        return ",".join(f"{v:.17g}" for v in vals)


@dataclass
class FlowTrace:
    rows: list = field(default_factory=list)
    stop_reason: str = ""
    aborted: bool = False
    final_surface: object = None

    def to_csv(self):
        lines = [TRACE_HEADER] + [row.csv() for row in self.rows]
        return "\n".join(lines) + "\n"

    @property
    def final(self):
        return self.rows[-1]


def monitors(surface, f, base_point=None):
    """Pinching, umbilicity, and soliton monitors of a surface snapshot."""
    geom = surface if isinstance(surface, ShapeData) else _extract(surface, base_point)
    lam = geom.lam
    if geom.dim == 1:
        k = lam[:, 0]
        k_min, k_max = float(k.min()), float(k.max())
        r_max = k_max / k_min
        aniso = ((k_max - k_min) / (k_max + k_min)) ** 2
        ahh = 1.0
        umb = 0.0
    else:
        r_max = float((lam[:, -1] / lam[:, 0]).max())
        h2 = geom.mean ** 2
        aniso = float(((2.0 * geom.norm_A2 - h2) / h2).max())
        ahh = float((geom.norm_A2 / h2).max())
        umb = float((geom.dim * geom.norm_A2 - h2).max())
    return FlowMonitors(r_max=r_max, aniso_max=aniso, ahh_max=ahh, umb_max=umb,
                        soliton=soliton.fit_tau(geom, f))


def _extract(surface, base_point=None):
    if isinstance(surface, PlaneCurve):
        return curve_geometry(surface, base_point)
    if isinstance(surface, RevolutionProfile):
        return revolution_geometry(surface, base_point)
    raise GeometryError(f"flows run on PlaneCurve or RevolutionProfile snapshots, "
                        f"got {type(surface).__name__}")


def _advance(surface, geom, f, dt):
    speed = f.value(geom.lam)
    if isinstance(surface, PlaneCurve):
        pts = surface.points + dt * speed[:, None] * geom.normal
        return PlaneCurve(pts)
    prof = surface.profile + dt * speed[:, None] * geom.normal[:, :2]
    prof[0, 1] = prof[-1, 1] = 0.0     # poles move along the axis exactly
    return RevolutionProfile(prof)


def _periodic_spline(knots, values, targets):
    """Periodic C^2 cubic interpolant of `values` over `knots`, evaluated at `targets`.

    `knots` (N + 1,) increase strictly over one period and `values` (N + 1, k)
    repeat their first row at the end; `targets` lie in [knots[0], knots[-1]].
    This is the interpolant of `CubicSpline(knots, values, bc_type="periodic")`:
    the knot slopes solve the cyclic tridiagonal C^2 system, whose two corner
    entries are handled by a Sherman-Morrison correction, so one `dgtsv` call
    takes every coordinate and the correction vector as right-hand sides.
    """
    h = np.diff(knots)
    if not h.min() > 0.0:
        raise GeometryError("coincident samples: arclength does not increase")
    n = h.size
    hc = h[:, None]
    delta = np.diff(values, axis=0) / hc
    h_prev = np.concatenate((h[-1:], h[:-1]))
    delta_prev = np.concatenate((delta[-1:], delta[:-1]))
    # row i: h_i m_{i-1} + 2 (h_{i-1} + h_i) m_i + h_{i-1} m_{i+1}
    #        = 3 (h_i delta_{i-1} + h_{i-1} delta_i), indices mod n
    diag = 2.0 * (h_prev + h)
    corner_first, corner_last = h[0], h_prev[-1]     # entries (0, n-1) and (n-1, 0)
    gamma = -diag[0]
    diag[0] -= gamma
    diag[-1] -= corner_first * corner_last / gamma
    rhs = np.zeros((n, values.shape[1] + 1))
    rhs[:, :-1] = 3.0 * (hc * delta_prev + h_prev[:, None] * delta)
    rhs[0, -1] = gamma
    rhs[-1, -1] = corner_last
    _, _, _, sol, info = dgtsv(h[1:], diag, h_prev[:-1], rhs, overwrite_b=1)
    if info != 0:
        raise GeometryError("singular periodic spline system")
    ratio = corner_first / gamma
    correction = (sol[0] + ratio * sol[-1]) / (1.0 + sol[0, -1] + ratio * sol[-1, -1])
    m0 = sol[:, :-1] - sol[:, -1:] * correction[:-1]      # knot slopes
    m1 = np.concatenate((m0[1:], m0[:1]))

    # per-interval power form, then one gather for the targets
    t = (m0 + m1 - 2.0 * delta) / hc
    coef = np.stack((values[:-1], m0, (delta - m0) / hc - t, t / hc), axis=1)
    idx = np.minimum(np.searchsorted(knots, targets, side="right") - 1, n - 1)
    c = coef[idx]
    x = (targets - knots[idx])[:, None]
    return c[:, 0] + x * (c[:, 1] + x * (c[:, 2] + x * c[:, 3]))


def _arclength(points):
    seg = np.linalg.norm(np.diff(points, axis=0), axis=1)
    return np.concatenate([[0.0], np.cumsum(seg)])


def _redistribute(surface):
    """Resample to uniform arclength with periodic cubic interpolation.

    Profiles are doubled through the poles (meridian continuation: axis
    coordinate even, radius odd) so the resampled data keeps the reflection
    symmetry that the pole stencils rely on.
    """
    if isinstance(surface, PlaneCurve):
        pts = surface.points
        m = pts.shape[0]
        closed = np.vstack([pts, pts[:1]])
        s = _arclength(closed)
        return PlaneCurve(_periodic_spline(s, closed, s[-1] * np.arange(m) / m))

    prof = surface.profile
    m = prof.shape[0]
    s = _arclength(prof)
    length = s[-1]
    mirrored = np.column_stack([prof[-2:0:-1, 0], -prof[-2:0:-1, 1]])
    doubled = np.vstack([prof, mirrored, prof[:1]])
    s_ext = np.concatenate([s, 2.0 * length - s[-2::-1]])
    new = _periodic_spline(s_ext, doubled, np.linspace(0.0, length, m))
    new[0] = prof[0]
    new[-1] = prof[-1]
    new[:, 1] = np.abs(new[:, 1])      # guard rounding at the near-pole samples
    new[0, 1] = new[-1, 1] = 0.0
    return RevolutionProfile(new)


def step(surface, f, dt):
    """One explicit Euler step (move along normals, then redistribute).

    Raises `GeometryError` when the stepped surface loses convexity or
    validity; callers retry with a smaller dt.
    """
    if dt <= 0.0:
        raise ValueError("dt must be positive")
    geom = _extract(surface)
    candidate = _redistribute(_advance(surface, geom, f, dt))
    _extract(candidate)                # validates convexity / simplicity
    return candidate


def _centroid(surface, geom):
    w = geom.weights
    if isinstance(surface, PlaneCurve):
        return (w @ surface.points) / w.sum()
    cx = float(w @ surface.profile[:, 0]) / float(w.sum())
    return np.array([cx, 0.0])


def _rescale(surface, geom, target_measure):
    """Scale about the centroid to `target_measure`; returns (surface, geometry, alpha).

    The geometry of the scaled surface follows from `geom` by similarity, on
    the same parameter grid: curvatures scale by 1/alpha, the metric by
    alpha^2, the second form by alpha, the measure weights by alpha^n, and
    the support about the origin becomes alpha Z + (1 - alpha) <c, nu>.
    Scaling keeps convexity, simplicity and the pole angle, so nothing is
    extracted or validated again.
    """
    d = geom.dim
    alpha = (target_measure / geom.measure) ** (1.0 / d)
    center = _centroid(surface, geom)
    if isinstance(surface, PlaneCurve):
        scaled = PlaneCurve(center + alpha * (surface.points - center))
    else:
        prof = center + alpha * (surface.profile - center)
        prof[0, 1] = prof[-1, 1] = 0.0
        scaled = RevolutionProfile(prof)
        center = np.array([center[0], 0.0, 0.0])
    scaled_geom = replace(
        geom,
        position=center + alpha * (geom.position - center),
        metric=alpha * alpha * geom.metric,
        second_form=alpha * geom.second_form,
        weingarten=geom.weingarten / alpha,
        lam=geom.lam / alpha,
        mean=geom.mean / alpha,
        norm_A2=geom.norm_A2 / (alpha * alpha),
        support=alpha * geom.support + (1.0 - alpha) * (geom.normal @ center),
        weights=alpha ** d * geom.weights,
    )
    return scaled, scaled_geom, alpha


def _min_spacing(surface):
    pts = surface.points if isinstance(surface, PlaneCurve) else surface.profile
    closed = np.vstack([pts, pts[:1]]) if isinstance(surface, PlaneCurve) else pts
    return float(np.linalg.norm(np.diff(closed, axis=0), axis=1).min())


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
    f = config.f
    geom = _extract(surface)
    f.value(geom.lam)                  # domain check up front
    measure0 = geom.measure
    trace = FlowTrace()
    t = 0.0
    cumulative = 1.0
    mon = monitors(geom, f)
    trace.rows.append(_row(t, 0.0, 1.0, mon, geom.measure))

    while True:
        physical = geom.measure / cumulative ** geom.dim / measure0
        reason = _stop_reason(config.stop, t, mon, geom, physical)
        if reason is not None:
            trace.stop_reason = reason
            trace.final_surface = surface
            return trace

        h_min = _min_spacing(surface)
        stiffness = float(f.gradient(geom.lam).sum(axis=1).max())
        dt = config.dt_safety * h_min * h_min / stiffness

        # dt is floored relative to the stable dt by the halving cap; the run
        # stops on underflow only once a step no longer advances the clock
        accepted = None
        for _ in range(_MAX_HALVINGS + 1):
            if not t + dt > t:
                return _abort(trace, surface, f"dt underflow (dt = {dt:.3g} at t = {t:.6g})")
            try:
                candidate = _redistribute(_advance(surface, geom, f, dt))
                candidate_geom = _extract(candidate)
                f.value(candidate_geom.lam)
                accepted = (candidate, candidate_geom)
                break
            except (GeometryError, DomainError) as exc:
                last_error = exc
                dt *= 0.5
        if accepted is None:
            return _abort(trace, surface, f"convexity or validity lost after {_MAX_HALVINGS} "
                                          f"dt halvings (last: {last_error})")

        surface, geom = accepted
        t += dt
        alpha = 1.0
        if config.rescale_mode == "fixed-scale":
            surface, geom, alpha = _rescale(surface, geom, measure0)
            cumulative *= alpha
        mon = monitors(geom, f)
        trace.rows.append(_row(t, dt, alpha, mon, geom.measure))


def _abort(trace, surface, cause):
    trace.stop_reason = f"aborted: {cause}"
    trace.aborted = True
    trace.final_surface = surface
    return trace


def _row(t, dt, scale, mon, measure):
    return TraceRow(t=t, dt=dt, scale=scale, r_max=mon.r_max,
                    aniso_max=mon.aniso_max, ahh_max=mon.ahh_max,
                    umb_max=mon.umb_max, tau_fit=mon.soliton.tau_fit,
                    rel_residual=mon.soliton.relative_residual, measure=measure)
