import dataclasses
import importlib
import math
import sys
from pathlib import Path

import numpy as np
import pytest

from solitonlab import curvfun, flow, hypersurface, soliton
from solitonlab.flow import FlowConfig, StopRule, TRACE_HEADER, monitors, run, step
from solitonlab.hypersurface import circle, ellipse, sphere_profile, spheroid_profile

H1 = curvfun.MeanCurvature(1)
H2 = curvfun.MeanCurvature(2)


def test_config_validation():
    stop = StopRule(t_max=1.0)
    with pytest.raises(ValueError, match="dt_safety"):
        FlowConfig(f=H1, stop=stop, dt_safety=0.0)
    with pytest.raises(ValueError, match="rescale_mode"):
        FlowConfig(f=H1, stop=stop, rescale_mode="both")
    with pytest.raises(ValueError, match="at least one"):
        StopRule()


@pytest.mark.parametrize("field, value", [
    ("t_max", -1.0), ("t_max", 0.0), ("t_max", math.nan),
    ("r_tol", -0.5), ("r_tol", 0.0),
    ("curvature_cap", -1.0), ("curvature_cap", math.nan),
    ("min_scale_fraction", 2.0), ("min_scale_fraction", 1.0), ("min_scale_fraction", 0.0),
    ("min_scale_fraction", math.nan),
])
def test_stop_rule_refuses_a_criterion_outside_its_domain(field, value):
    with pytest.raises(ValueError, match=f"StopRule {field} must"):
        StopRule(**{field: value})
    # alongside a valid criterion too: no criterion is left unchecked
    with pytest.raises(ValueError, match=f"StopRule {field} must"):
        StopRule(**{"r_tol" if field == "t_max" else "t_max": 1.0, field: value})


def test_monitors_sphere():
    mon = monitors(sphere_profile(1.0, 256).geometry(), H2)
    assert mon.r_max == pytest.approx(1.0, abs=1e-6)
    assert mon.aniso_max == pytest.approx(0.0, abs=1e-10)
    assert mon.ahh_max == pytest.approx(0.5, abs=1e-6)
    assert mon.umb_max == pytest.approx(0.0, abs=1e-6)
    assert mon.soliton.relative_residual < 1e-8


def test_monitors_cross_identities():
    geom = hypersurface.revolution_geometry(spheroid_profile(1.0, 1.3, 256))
    mon = monitors(geom, H2)
    lam = geom.lam
    aniso_lam = (((lam[:, 1] - lam[:, 0]) / (lam[:, 1] + lam[:, 0])) ** 2).max()
    assert mon.aniso_max == pytest.approx(float(aniso_lam), abs=1e-10)
    # point values at lam = (1, 2): aniso 1/9, r 2, |A|^2/H^2 5/9, umbilicity gap 1
    assert ((1.0 - 2.0) / 3.0) ** 2 == pytest.approx(1.0 / 9.0)
    assert (1.0 + 4.0) / 9.0 == pytest.approx(5.0 / 9.0)
    assert 2.0 * 5.0 - 9.0 == 1.0


def test_monitors_curve_definitions():
    geom = hypersurface.curve_geometry(ellipse(2.0, 1.0, 256))
    mon = monitors(geom, H1)
    k = geom.lam[:, 0]
    assert mon.r_max == pytest.approx(float(k.max() / k.min()), rel=1e-12)
    assert mon.ahh_max == 1.0
    assert mon.umb_max == 0.0
    expected = ((k.max() - k.min()) / (k.max() + k.min())) ** 2
    assert mon.aniso_max == pytest.approx(float(expected), rel=1e-12)


def test_step_circle_radius():
    dt = 1e-4
    stepped = step(circle(1.0, 256), H1, dt)
    radius = np.linalg.norm(stepped.points, axis=1)
    assert np.abs(radius - (1.0 - dt)).max() < 5.0 * dt * dt


def test_step_sphere_radius():
    dt = 1e-4
    stepped = step(sphere_profile(1.0, 256), H2, dt)
    prof = stepped.profile
    radius = np.hypot(prof[1:-1, 0], prof[1:-1, 1])
    assert np.abs(radius - (1.0 - 2.0 * dt)).max() < 5.0 * dt * dt


def test_step_expanding_family():
    f = curvfun.parse_curvature_function("pow(H,-1)", 1)
    stepped = step(circle(1.0, 256), f, 1e-4)
    radius = np.linalg.norm(stepped.points, axis=1)
    assert np.all(radius > 1.0)       # F < 0 moves outward along the inward normal


def test_step_rejects_bad_dt():
    with pytest.raises(ValueError):
        step(circle(1.0, 64), H1, 0.0)


def test_circle_exact_ode_short():
    config = FlowConfig(f=H1, stop=StopRule(t_max=0.1))
    trace = run(config, circle(1.0, 256))
    assert trace.stop_reason == "t_max"
    for row in trace.rows:
        assert row.measure / (2.0 * math.pi) == pytest.approx(
            math.sqrt(1.0 - 2.0 * row.t), rel=1e-3)


def test_stationary_circle_under_rescale():
    config = FlowConfig(f=H1, stop=StopRule(t_max=0.1), rescale_mode="fixed-scale")
    trace = run(config, circle(1.0, 256))
    assert len(trace.rows) > 2
    for row in trace.rows:
        assert row.r_max - 1.0 < 1e-10
        assert row.aniso_max < 1e-20
        assert abs(row.measure - trace.rows[0].measure) < 1e-10
    assert all(r.scale > 1.0 for r in trace.rows[1:])    # contracting, re-inflated


def test_ellipse_rounding_short():
    config = FlowConfig(f=H1, stop=StopRule(t_max=0.5), rescale_mode="fixed-scale")
    trace = run(config, ellipse(2.0, 1.0, 128))
    rows = trace.rows
    assert rows[-1].r_max < rows[0].r_max
    for a, b in zip(rows, rows[1:]):
        assert b.r_max <= a.r_max + 1e-9
        assert b.aniso_max <= a.aniso_max + 1e-9
        assert abs(b.measure - rows[0].measure) < 1e-10


def test_soliton_sphere_is_preserved():
    radius = soliton.solve_sphere_radius(H2, 1.0, 0.0)
    config = FlowConfig(f=H2, stop=StopRule(t_max=0.25), rescale_mode="fixed-scale")
    trace = run(config, sphere_profile(radius, 256))
    assert len(trace.rows) > 10
    for row in trace.rows:
        assert row.r_max - 1.0 < 1e-6
    assert abs(trace.rows[0].tau_fit - 1.0) < 1e-7


def test_stop_reasons():
    config = FlowConfig(f=H1, stop=StopRule(min_scale_fraction=0.9))
    trace = run(config, circle(1.0, 64))
    assert trace.stop_reason == "min_scale_fraction"
    assert not trace.aborted
    config = FlowConfig(f=H1, stop=StopRule(curvature_cap=1.5))
    trace = run(config, circle(1.0, 64))
    assert trace.stop_reason == "curvature_cap"
    config = FlowConfig(f=H1, stop=StopRule(r_tol=0.5))
    trace = run(config, circle(1.0, 64))
    assert trace.stop_reason == "r_tol"
    assert len(trace.rows) == 1       # already round: stops before stepping


def test_trace_csv_contract():
    config = FlowConfig(f=H1, stop=StopRule(t_max=0.002))
    trace = run(config, circle(1.0, 64))
    text = trace.to_csv()
    lines = text.strip().split("\n")
    assert lines[0] == TRACE_HEADER
    assert lines[0] == "t,dt,scale,r_max,F_aniso_max,aHH_max,umb_max,tau_fit,rel_residual,measure"
    assert len(lines) == len(trace.rows) + 1
    assert len(lines[1].split(",")) == 10
    ts = [float(line.split(",")[0]) for line in lines[1:]]
    assert all(b > a for a, b in zip(ts, ts[1:]))
    assert trace.final_surface is not None


def test_run_validates_initial_surface():
    th = 2.0 * np.pi * np.arange(64) / 64
    r = 1.0 + 0.5 * np.cos(3.0 * th)
    bumpy = hypersurface.PlaneCurve(np.column_stack([r * np.cos(th), r * np.sin(th)]))
    config = FlowConfig(f=H1, stop=StopRule(t_max=1.0))
    with pytest.raises(hypersurface.GeometryError):
        run(config, bumpy)


def test_revolution_flow_keeps_poles_on_axis():
    config = FlowConfig(f=H2, stop=StopRule(t_max=0.005))
    trace = run(config, spheroid_profile(1.0, 1.3, 96))
    prof = trace.final_surface.profile
    assert prof[0, 1] == 0.0 and prof[-1, 1] == 0.0
    assert np.all(prof[1:-1, 1] > 0.0)


@pytest.mark.parametrize("m", [16, 64, 256, 1024])
def test_local_lagrange_reproduces_degree_7_polynomials(m):
    # a target in [knots[i], knots[i + 1]) reads knots i - 3 to i + 4, all samples of
    # the polynomial, so the interpolant is the polynomial itself
    rng = np.random.default_rng(m)
    knots = np.concatenate([[0.0], np.cumsum(rng.uniform(0.2, 1.8, m))])
    knots -= 0.5 * knots[-1]
    coef = rng.standard_normal((8, 2))

    def poly(s):
        u = (s / knots[-1])[:, None]
        out = coef[-1]
        for c in coef[-2::-1]:
            out = c + u * out
        return out

    targets = np.concatenate([rng.uniform(knots[3], knots[-4], 3 * m), knots[3:-4]])
    values = poly(knots)
    got = hypersurface._local_lagrange(knots, values, targets)
    assert np.abs(got - poly(targets)).max() < 1e-12 * np.abs(values).max()


def _resample_errors(m):
    """Max errors at grid size m: the resampled ellipse and spheroid meridian off their
    implicit curves, and the interpolant of a smooth periodic function off the function."""
    j = np.arange(m)
    th = 2.0 * np.pi * (j + 0.3 * np.sin(2.0 * np.pi * j / m + 0.4)) / m
    pts = hypersurface.PlaneCurve(np.column_stack([2.0 * np.cos(th), np.sin(th)])).resampled()
    x, y = pts.points.T
    curve = np.abs(x * x / 4.0 + y * y - 1.0).max()
    v = np.linspace(0.0, 1.0, m)
    u = np.pi * (v + 0.05 * np.sin(2.0 * np.pi * v))
    prof = hypersurface.RevolutionProfile(np.column_stack([-1.3 * np.cos(u), np.sin(u)]))
    x, y = prof.resampled().profile.T
    meridian = np.abs(x * x / 1.69 + y * y - 1.0).max()
    period = 7.0
    j = np.arange(-3, m + 4)
    knots = period * (j + 0.3 * np.sin(2.0 * np.pi * j / m)) / m
    targets = period * (np.arange(m) + 0.37) / m

    def smooth(s):
        return np.column_stack([np.cos(2.0 * np.pi * s / period),
                                np.sin(4.0 * np.pi * s / period + 1.0)])

    direct = np.abs(hypersurface._local_lagrange(knots, smooth(knots), targets)
                    - smooth(targets)).max()
    return np.array([curve, meridian, direct])


def test_local_lagrange_resampling_converges_at_eighth_order():
    # the closed curve wraps the period, the meridian is mirrored through its poles;
    # M = 128 is the finest grid whose errors stay well above rounding (orders 7.3-8.2)
    order = np.log2(_resample_errors(32) / _resample_errors(128)) / 2.0
    assert (order >= 6.5).all(), order


def test_redistribute_pins_the_poles_and_keeps_the_radius_nonnegative():
    rng = np.random.default_rng(11)
    for m in (16, 64, 257):
        u = np.concatenate([[0.0], np.sort(rng.uniform(0.0, np.pi, m - 2)), [np.pi]])
        prof = hypersurface.RevolutionProfile(np.column_stack([-1.3 * np.cos(u), np.sin(u)]))
        new = flow._redistribute(prof).profile
        assert new[[0, -1]].tobytes() == prof.profile[[0, -1]].tobytes()
        assert (new[:, 1] >= 0.0).all()


# The fresh extraction carries its own rounding, which grows like eps / du^2
# (about 2e-12 of the field on the spheroid at M = 256); M = 128 keeps it
# under the 1e-12 bound used here.
@pytest.mark.parametrize("surface,f", [(ellipse(2.0, 1.0, 128), H1),
                                       (spheroid_profile(1.0, 1.3, 128), H2)])
@pytest.mark.parametrize("factor", [0.7, 2.3])
def test_rescale_similarity_matches_extraction(surface, f, factor):
    moved = step(surface, f, 1e-4)
    geom = flow._extract(moved)
    scaled, scaled_geom, alpha = flow._rescale(moved, geom, factor * geom.measure)
    assert alpha == pytest.approx(factor ** (1.0 / geom.dim))
    fresh = flow._extract(scaled)
    for name in [fld.name for fld in dataclasses.fields(fresh)] + ["mean", "norm_A2"]:
        a, b = getattr(scaled_geom, name), getattr(fresh, name)
        if isinstance(b, np.ndarray):
            assert np.abs(a - b).max() <= 1e-12 * np.abs(b).max(), name
        else:
            assert a == b, name


@pytest.mark.parametrize("surface,f", [(ellipse(2.0, 1.0, 64), H1),
                                       (spheroid_profile(1.0, 1.3, 64), H2)])
def test_two_extractions_per_fixed_scale_step(monkeypatch, surface, f):
    counts = {"extract": 0, "spline": 0}

    def counting(fn, key):
        def wrapper(*args, **kwargs):
            counts[key] += 1
            return fn(*args, **kwargs)
        return wrapper

    monkeypatch.setattr(hypersurface, "curve_geometry",
                        counting(hypersurface.curve_geometry, "extract"))
    monkeypatch.setattr(hypersurface, "revolution_geometry",
                        counting(hypersurface.revolution_geometry, "extract"))
    monkeypatch.setattr(flow, "CubicSpline", counting(flow.CubicSpline, "spline"))
    config = FlowConfig(f=f, stop=StopRule(t_max=0.2), rescale_mode="fixed-scale")
    trace = run(config, surface)
    steps = len(trace.rows) - 1
    assert trace.stop_reason == "t_max" and steps > 10
    assert counts == {"extract": 2 * steps + 1, "spline": 0}   # the ROS2 stage, the candidate


@pytest.mark.parametrize("surface,f", [(ellipse(2.0, 1.0, 64), H1),
                                       (spheroid_profile(1.0, 1.3, 64), H2)],
                         ids=["ellipse", "spheroid"])
@pytest.mark.parametrize("rescale_mode", ["none", "fixed-scale"])
def test_f_is_evaluated_once_per_state(monkeypatch, surface, f, rescale_mode):
    counts = {"value": 0, "gradient": 0}

    def counting(fn, key):
        def wrapper(*args, **kwargs):
            counts[key] += 1
            return fn(*args, **kwargs)
        return wrapper

    for key in counts:
        monkeypatch.setattr(curvfun.CurvatureFunction, key,
                            counting(getattr(curvfun.CurvatureFunction, key), key))
    config = FlowConfig(f=f, stop=StopRule(t_max=0.1), rescale_mode=rescale_mode)
    trace = run(config, surface)
    steps = len(trace.rows) - 1
    assert trace.stop_reason == "t_max" and trace.dt_halvings == 0 and steps > 5
    # one value per state and one per ROS2 stage; under fixed scale the candidate
    # is checked before the rescale and the rescaled state is evaluated again
    fixed = rescale_mode == "fixed-scale"
    assert counts == {"value": (steps + 1) + steps + (steps if fixed else 0),
                      "gradient": steps}


def test_circle_dilation_invariance():
    step_counts = set()
    for s in (1e-6, 1.0, 1e3):
        config = FlowConfig(f=H1, stop=StopRule(t_max=0.1 * s * s))
        trace = run(config, circle(s, 256))
        assert trace.stop_reason == "t_max"
        step_counts.add(len(trace.rows))
        for row in trace.rows:
            assert row.measure / (2.0 * math.pi * s) == pytest.approx(
                math.sqrt(1.0 - 2.0 * row.t / (s * s)), rel=1e-3)
    assert len(step_counts) == 1


def _circle_anchor_error(dt_safety):
    config = FlowConfig(f=H1, stop=StopRule(t_max=0.25), dt_safety=dt_safety)
    trace = run(config, circle(1.0, 256))
    return max(abs(row.measure / (2.0 * math.pi) / math.sqrt(1.0 - 2.0 * row.t) - 1.0)
               for row in trace.rows)


def test_ros2_is_second_order_in_time():
    # halving dt divides the error of the exact circle anchor by about 4
    assert _circle_anchor_error(0.4) >= 3.0 * _circle_anchor_error(0.2)


_CRITERION_7 = {
    "ellipse": (lambda m: ellipse(2.0, 1.0, m), H1, StopRule(r_tol=0.02, t_max=50.0), 480),
    "spheroid": (lambda m: spheroid_profile(1.0, 1.3, m), H2, StopRule(r_tol=0.22, t_max=10.0),
                 863),
}


@pytest.mark.parametrize("name", sorted(_CRITERION_7))
def test_criterion_7_step_count_does_not_grow_with_the_grid(name):
    # the explicit Euler step took 9601 (ellipse) and 17277 (spheroid) steps at
    # M = 256, four times more per doubling of M; the bound is 1/20 of those
    make, f, stop, bound = _CRITERION_7[name]
    counts = []
    for m in (64, 256):
        trace = run(FlowConfig(f=f, stop=stop, rescale_mode="fixed-scale"), make(m))
        assert trace.stop_reason == "r_tol"
        counts.append(len(trace.rows) - 1)
    assert abs(counts[0] - counts[1]) <= 2
    assert counts[1] <= bound


# (steps, final r_max, tau_fit, aHH_max) recorded with the local degree-7 resample; a
# change that only removes overhead keeps the arithmetic, and so these values
_CRITERION_7_AT_M64 = {
    "ellipse": (198, 1.0196051361032579, 0.4205936012100993, 1.0),
    "spheroid": (85, 1.219730609478496, 1.6663042512372699, 0.5048994867018842),
}


@pytest.mark.parametrize("name", sorted(_CRITERION_7_AT_M64))
def test_criterion_7_at_m64_keeps_its_recorded_values(name):
    make, f, stop, _ = _CRITERION_7[name]
    trace = run(FlowConfig(f=f, stop=stop, rescale_mode="fixed-scale"), make(64))
    steps, r_max, tau_fit, ahh_max = _CRITERION_7_AT_M64[name]
    last = trace.final
    assert trace.stop_reason == "r_tol" and len(trace.rows) - 1 == steps
    assert last.r_max == pytest.approx(r_max, rel=1e-12, abs=0.0)
    assert last.tau_fit == pytest.approx(tau_fit, rel=1e-12, abs=0.0)
    assert last.ahh_max == pytest.approx(ahh_max, rel=1e-12, abs=0.0)


# Fixed-scale H flows to t_max, against fine references: the same flows at M = 512 and
# dt_safety = 0.02, run with the periodic C^2 spline resample of commit 199729b.  Each
# case is (grid, H, t_max, reference (r_max, tau_fit, aHH_max)); each cell adds the
# grid size, dt_safety and that commit's own (r_max, tau_fit, aHH_max) there.  At
# M = 64 and dt_safety 0.1 a flow resamples most often on its coarsest grid, which is
# where a less accurate resample shows (a 4-point cubic missed the bound there by up
# to 3x).  The 5:1 ellipse is under-resolved at M = 64: its tau_fit error there ranged
# from 0.17x to 3.1x the spline's over local resamples of degree 3, 5, 7 and 11.
_ACCURACY_CASES = {
    "ellipse 2:1, t = 2": (lambda m: ellipse(2.0, 1.0, m), H1, 2.0,
                           (1.4588980536885559, 0.4247320740786839, 1.0)),
    "ellipse 5:1, t = 5": (lambda m: ellipse(5.0, 1.0, m), H1, 5.0,
                           (6.509890590033139, 0.10944388103081205, 1.0)),
    "spheroid 1:1.3, t = 0.3": (lambda m: spheroid_profile(1.0, 1.3, m), H2, 0.3,
                                (1.427287854979527, 1.6805106558605944, 0.5154941778315891)),
    "oblate 3:1, t = 1": (lambda m: spheroid_profile(3.0, 1.0, m), H2, 1.0,
                          (2.881890984137849, 0.4393896287110495, 0.617509305054855)),
}
_ACCURACY_PIN = [
    ("ellipse 2:1, t = 2", 256, 0.4, (1.4509093187573154, 0.42461317762212847, 1.0)),
    ("spheroid 1:1.3, t = 0.3", 256, 0.4,
     (1.4245092925661946, 1.68030025494119, 0.5153283956333413)),
    ("oblate 3:1, t = 1", 256, 0.4,
     (2.8778488204947275, 0.4390384063825043, 0.6172490973306278)),
    ("ellipse 2:1, t = 2", 64, 0.1, (1.4573456923376928, 0.4247092102509089, 1.0)),
    ("ellipse 5:1, t = 5", 64, 0.1, (6.465379117414047, 0.10943466060360407, 1.0)),
    ("spheroid 1:1.3, t = 0.3", 64, 0.1,
     (1.4264358619112893, 1.680345250791831, 0.5154432895026223)),
    ("oblate 3:1, t = 1", 64, 0.1,
     (2.878839745139365, 0.4393916240117827, 0.6173129099754493)),
]


@pytest.mark.parametrize("name,m,dt_safety,spline", _ACCURACY_PIN,
                         ids=[f"{name}, M = {m}, dt_safety {d}"
                              for name, m, d, _ in _ACCURACY_PIN])
def test_fixed_scale_errors_stay_within_5_percent_of_the_spline_resample(name, m, dt_safety,
                                                                         spline):
    make, f, t_max, reference = _ACCURACY_CASES[name]
    config = FlowConfig(f=f, stop=StopRule(t_max=t_max), dt_safety=dt_safety,
                        rescale_mode="fixed-scale")
    trace = run(config, make(m))
    last = trace.final
    assert trace.stop_reason == "t_max" and not trace.dt_halvings
    for got, ref, old in zip((last.r_max, last.tau_fit, last.ahh_max), reference, spline):
        assert abs(got - ref) <= 1.05 * abs(old - ref)


@pytest.mark.parametrize("make,f", [
    (lambda s: hypersurface.PlaneCurve(s * ellipse(2.0, 1.0, 64).points), H1),
    (lambda s: hypersurface.RevolutionProfile(s * spheroid_profile(1.0, 1.3, 64).profile), H2),
], ids=["ellipse", "spheroid"])
@pytest.mark.parametrize("rescale_mode,t_max,rel", [("none", 0.1, 1e-9),
                                                    ("fixed-scale", 0.3, 1e-12)])
def test_dilation_invariance_in_both_clocks(make, f, rescale_mode, t_max, rel):
    # a dilation by s scales dt, and so t, by s^2 for the H flow, and the measure by s^n;
    # under fixed scale t is the normalized clock and the measure stays fixed
    runs = {}
    for s in (1e-3, 1.0, 1e3):
        config = FlowConfig(f=f, stop=StopRule(t_max=t_max * s * s), rescale_mode=rescale_mode)
        trace = run(config, make(s))
        assert trace.stop_reason == "t_max"
        runs[s] = (np.array([row.t for row in trace.rows]) / (s * s),
                   np.array([row.measure for row in trace.rows]) / s ** f.n)
    t_ref, measure_ref = runs[1.0]
    for t, measure in runs.values():
        assert t.shape == t_ref.shape                   # the same step count
        assert t == pytest.approx(t_ref, rel=rel, abs=0.0)
        assert measure == pytest.approx(measure_ref, rel=1e-9, abs=0.0)


def test_dt_underflow_stops_a_run_past_extinction():
    config = FlowConfig(f=H1, stop=StopRule(t_max=1.0))
    trace = run(config, circle(1.0, 16))
    assert trace.aborted
    assert trace.stop_reason.startswith("aborted: dt underflow")
    assert trace.final.t < 1.0


@pytest.fixture(scope="module")
def tracing():
    """The benchmark's span tracer, imported read-only from perfbench/."""
    perfbench = str(Path(__file__).resolve().parent.parent / "perfbench")
    sys.path.insert(0, perfbench)
    try:
        return importlib.import_module("tracing")
    finally:
        sys.path.remove(perfbench)


@pytest.mark.parametrize("surface,f,t_max,geometry_span", [
    (ellipse(2.0, 1.0, 64), H1, 0.1, "hypersurface.curve_geometry"),
    (spheroid_profile(1.0, 1.3, 64), H2, 0.1, "hypersurface.revolution_geometry"),
])
def test_tracer_sees_every_flow_phase(tracing, surface, f, t_max, geometry_span):
    rec = tracing.SpanRecorder()
    config = FlowConfig(f=f, stop=StopRule(t_max=t_max), rescale_mode="fixed-scale")
    with tracing.patched(rec):
        trace = flow.run(config, surface)
    spans = rec.summary()
    steps = len(trace.rows) - 1
    assert trace.stop_reason == "t_max" and steps > 5
    assert spans["flow.run"][0] == 1
    for name in ("flow._advance", "flow._redistribute", "flow._rescale"):
        assert spans[name][0] == steps, name
    assert spans["flow._min_spacing"][0] == 0          # dt no longer depends on the grid
    assert spans["flow.monitors"][0] == steps + 1      # the initial surface is monitored too
    assert spans[geometry_span][0] == 2 * steps + 1    # the ROS2 stage, the candidate, the start


@pytest.mark.parametrize("make,kind,geometry_span", [
    (lambda m: ellipse(2.0, 1.0, m), "curve", "hypersurface.curve_geometry"),
    (lambda m: spheroid_profile(1.0, 1.3, m), "surface", "hypersurface.revolution_geometry"),
])
def test_per_call_sweep_reaches_every_layer_it_times(tracing, monkeypatch, make, kind,
                                                     geometry_span):
    # the sweep calls flow._advance, flow._redistribute and flow.monitors by name and
    # signature; one call per layer on one small grid is enough to see them break
    calls = []

    def once(fn):
        calls.append(fn())
        return 1.0

    monkeypatch.setattr(tracing, "SWEEP_GRIDS", (32,))
    monkeypatch.setattr(tracing, "_us_per_call", once)
    out = tracing.per_call_sweep(make)
    expect = {f"{geometry_span}.us_per_call.M32"} | {
        f"{span}.us_per_call.{kind}.M32" for span in tracing.SWEEP_SPANS}
    assert set(out) == expect and set(out.values()) == {1.0}
    assert len(calls) == 1 + len(tracing.SWEEP_SPANS)
    assert isinstance(calls[0], hypersurface.ShapeData)              # the extraction
    assert type(calls[2]) is type(make(32))                          # _redistribute
    assert isinstance(calls[3], flow.FlowMonitors)                   # monitors
