import dataclasses
import importlib
import math
import sys
from pathlib import Path

import numpy as np
import pytest
from scipy.interpolate import CubicSpline

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


def _polynomial_reproduction_error(m, degree):
    """Max error of the local interpolant over a random polynomial of `degree` sampled on
    m + 1 uneven knots, at random targets and at the knots, relative to the samples."""
    rng = np.random.default_rng(m)
    knots = np.concatenate([[0.0], np.cumsum(rng.uniform(0.2, 1.8, m))])
    knots -= 0.5 * knots[-1]
    coef = rng.standard_normal((degree + 1, 2))

    def poly(s):
        u = (s / knots[-1])[:, None]
        out = coef[-1]
        for c in coef[-2::-1]:
            out = c + u * out
        return out

    targets = np.concatenate([rng.uniform(knots[5], knots[-6], 3 * m), knots[5:-6]])
    values = poly(knots)
    got = hypersurface._local_lagrange(knots, values, targets)
    return np.abs(got - poly(targets)).max() / np.abs(values).max()


# a target in [knots[i], knots[i + 1]) reads knots i - 5 to i + 6, all samples of the
# polynomial, so the interpolant is the polynomial itself up to degree 11
@pytest.mark.parametrize("m", [16, 64, 256, 1024])
def test_local_lagrange_reproduces_degree_7_polynomials(m):
    assert _polynomial_reproduction_error(m, 7) < 1e-12


@pytest.mark.parametrize("m", [16, 64, 256, 1024])
def test_local_lagrange_reproduces_degree_11_polynomials(m):
    assert _polynomial_reproduction_error(m, 11) < 1e-12


def _uneven_ellipse(m):
    """The 2:1 ellipse on an angle grid bunched on one side: chords spread about 2x."""
    j = np.arange(m)
    th = 2.0 * np.pi * (j + 0.3 * np.sin(2.0 * np.pi * j / m + 0.4)) / m
    return hypersurface.PlaneCurve(np.column_stack([2.0 * np.cos(th), np.sin(th)]))


def _uneven_meridian(m):
    """The 1:1.3 spheroid meridian on an angle grid bunched toward one pole."""
    v = np.linspace(0.0, 1.0, m)
    u = np.pi * (v + 0.05 * np.sin(2.0 * np.pi * v))
    return hypersurface.RevolutionProfile(np.column_stack([-1.3 * np.cos(u), np.sin(u)]))


def _resample_errors(m):
    """Max errors at grid size m: the resampled ellipse and spheroid meridian off their
    implicit curves, and the interpolant of a smooth periodic function off the function."""
    x, y = _uneven_ellipse(m).resampled().points.T
    curve = np.abs(x * x / 4.0 + y * y - 1.0).max()
    x, y = _uneven_meridian(m).resampled().profile.T
    meridian = np.abs(x * x / 1.69 + y * y - 1.0).max()
    period = 7.0
    j = np.arange(-5, m + 6)
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


def _chord_spread(surface):
    """Longest over shortest chord of a closed curve or of a meridian, pole to pole."""
    if surface.dim == 1:
        pts = np.concatenate((surface.points, surface.points[:1]))
    else:
        pts = surface.profile
    chords = np.hypot(*np.diff(pts, axis=0).T)
    return chords.max() / chords.min()


def _counting_redistribute(monkeypatch):
    """Patch flow._redistribute to count its calls and the ones that resample."""
    counts = {"calls": 0, "resampled": 0}
    redistribute = flow._redistribute

    def wrapper(surface):
        out = redistribute(surface)
        counts["calls"] += 1
        counts["resampled"] += out is not surface
        return out
    monkeypatch.setattr(flow, "_redistribute", wrapper)
    return counts


@pytest.mark.parametrize("rescale_mode", ["none", "fixed-scale"])
def test_a_uniform_circle_is_never_resampled(monkeypatch, rescale_mode):
    # every sample moves by the same normal speed, so the chords stay equal
    counts = _counting_redistribute(monkeypatch)
    config = FlowConfig(f=H1, stop=StopRule(t_max=0.15), rescale_mode=rescale_mode)
    trace = run(config, circle(1.0, 64))
    assert trace.stop_reason == "t_max" and counts["calls"] == len(trace.rows) - 1 > 5
    assert counts["resampled"] == 0
    assert _chord_spread(trace.final_surface) < 1.0 + 1e-12


@pytest.mark.parametrize("make", [_uneven_ellipse, _uneven_meridian], ids=["curve", "profile"])
@pytest.mark.parametrize("m", [16, 64, 256])
def test_a_grid_whose_chords_spread_is_resampled_within_the_bound(make, m):
    surface = make(m)
    assert _chord_spread(surface) > hypersurface._RESAMPLE_SPREAD
    new = flow._redistribute(surface)
    assert new is not surface
    assert _chord_spread(new) <= hypersurface._RESAMPLE_SPREAD


def test_the_criterion_7_ellipse_resamples_fewer_times_than_it_steps(monkeypatch):
    counts = _counting_redistribute(monkeypatch)
    make, f, stop, _ = _CRITERION_7["ellipse"]
    trace = run(FlowConfig(f=f, stop=stop, rescale_mode="fixed-scale"), make(64))
    steps = len(trace.rows) - 1
    assert trace.stop_reason == "r_tol" and counts["calls"] == steps
    assert 0 < counts["resampled"] < steps


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


# A step moves a grid by `placed(geom.position + d)`, so a grid's record must hold
# its samples themselves: the extracted rows, and the rows a rescale places it at.
@pytest.mark.parametrize("surface,samples", [
    (hypersurface.PlaneCurve(ellipse(2.0, 1.0, 64).points + [0.3, -0.2]), lambda s: s.points),
    (hypersurface.RevolutionProfile(spheroid_profile(1.0, 1.3, 64).profile + [0.4, 0.0]),
     lambda s: s.profile),
    (hypersurface.AnalyticSpheroid(1.0, 1.3, 64), lambda s: s.grid_fields().xy),
], ids=["curve", "profile", "analytic-spheroid"])
def test_a_grid_record_holds_a_copy_of_the_grid_samples(surface, samples):
    geom = surface.geometry()
    assert geom.position.shape == geom.normal.shape == (surface.grid_size, 2)
    assert geom.position.tobytes() == samples(surface).tobytes()
    assert not np.shares_memory(geom.position, samples(surface))
    if hasattr(surface, "placed"):         # the grids a flow moves
        scaled, scaled_geom, _ = flow._rescale(surface, geom, 1.7 * geom.measure)
        assert samples(scaled).tobytes() == scaled_geom.position.tobytes()


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
    # one value per state and one per ROS2 stage in either mode: under fixed scale
    # the accepted state is evaluated once, after the rescale
    assert counts == {"value": (steps + 1) + steps, "gradient": steps}


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
        assert trace.stop_reason == "r_tol" and trace.rejected == 0
        counts.append(len(trace.rows) - 1)
    assert abs(counts[0] - counts[1]) <= 2
    assert counts[1] <= bound


# (steps, final r_max, tau_fit, aHH_max) recorded with the local degree-11 resample, run
# once the chords spread past hypersurface._RESAMPLE_SPREAD; a change that only removes
# overhead keeps the arithmetic, and so these values
_CRITERION_7_AT_M64 = {
    "ellipse": (146, 1.0199450887498736, 0.4205939809739015, 1.0),
    "spheroid": (62, 1.21888851149687, 1.666276798939027, 0.5048656960626532),
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


# each pole's angle tolerance is sized by that pole's own curvature, so the high-curvature
# poles of prolate spheroids pass on these grids and the flows round off
@pytest.mark.parametrize("c, grids", [(2.0, (128, 256)), (3.0, (256, 512))],
                         ids=["1:2", "1:3"])
def test_prolate_spheroids_round_off(c, grids):
    e = math.sqrt(1.0 - 1.0 / (c * c))
    area = 2.0 * math.pi * (1.0 + c * math.asin(e) / e)
    steps = []
    for m in grids:
        trace = run(FlowConfig(f=H2, stop=StopRule(r_tol=0.22, t_max=10.0),
                               rescale_mode="fixed-scale"), spheroid_profile(1.0, c, m))
        assert trace.stop_reason == "r_tol" and trace.dt_halvings == 0
        steps.append(len(trace.rows) - 1)
        assert all(abs(row.measure - area) < 1e-4 * area for row in trace.rows)
        ahh = [row.ahh_max for row in trace.rows]
        assert all(b <= a + 1e-9 for a, b in zip(ahh, ahh[1:]))
        assert abs(ahh[-1] - 0.5) < 0.005
    assert steps[0] == steps[1]


def _spline_resampled(surface):
    """`surface.resampled()` with scipy's periodic C^2 cubic spline in polygon arclength in
    place of the local degree-11 interpolant, on the same trigger; a meridian is doubled
    through its poles (axis coordinate even, radius odd) and keeps its poles."""
    m = surface.grid_size
    if surface.dim == 1:
        closed = np.concatenate((surface.points, surface.points[:1]))
        seg = hypersurface._segments(closed)
        if hypersurface._chords_even(seg):
            return surface
        s = hypersurface._arclength(seg)
        return hypersurface.PlaneCurve(
            CubicSpline(s, closed, bc_type="periodic")(s[-1] * np.arange(m) / m))
    prof = surface.profile
    seg = hypersurface._segments(prof)
    if hypersurface._chords_even(seg):
        return surface
    doubled = np.concatenate((prof, prof[-2:0:-1] * [1.0, -1.0], prof[:1]))
    s = hypersurface._arclength(hypersurface._segments(doubled))
    new = CubicSpline(s, doubled, bc_type="periodic")(np.linspace(0.0, s[m - 1], m))
    new[[0, -1]] = prof[[0, -1]]
    new[:, 1] = np.abs(new[:, 1])
    return hypersurface.RevolutionProfile(new)


# Fixed-scale H flows to t_max, against fine references: the same flows at M = 512 and
# dt_safety = 0.02.  Each case is (grid, H, t_max, reference (r_max, tau_fit, aHH_max));
# each cell is a grid size and a dt_safety, at which the flow's errors must stay within
# 5% of those of the same flow resampled by the periodic C^2 spline (`_spline_resampled`),
# run alongside: both run the same integrator on the same clock, so the cell compares the
# resamples.  At M = 64 and dt_safety 0.1 a flow resamples most often on its coarsest
# grid, which is where a less accurate resample shows (a 4-point cubic missed the bound
# there by up to 3x).  The 5:1 ellipse is under-resolved at M = 64: its tau_fit error
# there depends on where its tips fall on the grid, and with its tips on samples, as
# here, it was 1.3x the spline's under a degree-7 resample; it is 0.78x under degree 11.
_ACCURACY_CASES = {
    "ellipse 2:1, t = 2": (lambda m: ellipse(2.0, 1.0, m), H1, 2.0,
                           (1.4593544692217069, 0.42473892237103283, 1.0)),
    "ellipse 5:1, t = 5": (lambda m: ellipse(5.0, 1.0, m), H1, 5.0,
                           (6.512416913784731, 0.10945153856583946, 1.0)),
    "spheroid 1:1.3, t = 0.3": (lambda m: spheroid_profile(1.0, 1.3, m), H2, 0.3,
                                (1.4274245356953885, 1.6805217124149465, 0.5155023460381629)),
    "oblate 3:1, t = 1": (lambda m: spheroid_profile(3.0, 1.0, m), H2, 1.0,
                          (2.882242724480478, 0.4394089053032741, 0.6175319357655861)),
}
_ACCURACY_PIN = [
    ("ellipse 2:1, t = 2", 256, 0.4),
    ("spheroid 1:1.3, t = 0.3", 256, 0.4),
    ("oblate 3:1, t = 1", 256, 0.4),
    ("ellipse 2:1, t = 2", 64, 0.1),
    ("ellipse 5:1, t = 5", 64, 0.1),
    ("spheroid 1:1.3, t = 0.3", 64, 0.1),
    ("oblate 3:1, t = 1", 64, 0.1),
]


@pytest.mark.parametrize("name,m,dt_safety", _ACCURACY_PIN,
                         ids=[f"{name}, M = {m}, dt_safety {d}" for name, m, d in _ACCURACY_PIN])
def test_fixed_scale_errors_stay_within_5_percent_of_the_spline_resample(monkeypatch, name, m,
                                                                         dt_safety):
    make, f, t_max, reference = _ACCURACY_CASES[name]
    config = FlowConfig(f=f, stop=StopRule(t_max=t_max), dt_safety=dt_safety,
                        rescale_mode="fixed-scale")
    finals = []
    for redistribute in (flow._redistribute, _spline_resampled):
        monkeypatch.setattr(flow, "_redistribute", redistribute)
        trace = run(config, make(m))
        assert trace.stop_reason == "t_max" and not trace.dt_halvings
        last = trace.final
        finals.append((last.r_max, last.tau_fit, last.ahh_max))
    for got, spline, ref in zip(*finals, reference):
        assert abs(got - ref) <= 1.05 * abs(spline - ref)


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


@pytest.mark.parametrize("make,n,attr", [
    (lambda s: hypersurface.PlaneCurve(s * ellipse(2.0, 1.0, 64).points), 1, "points"),
    (lambda s: hypersurface.RevolutionProfile(s * spheroid_profile(1.0, 1.3, 64).profile), 2,
     "profile"),
], ids=["ellipse", "spheroid"])
@pytest.mark.parametrize("spec", ["H", "K", "pow(H,2)"])
@pytest.mark.parametrize("rescale_mode", ["none", "fixed-scale"])
def test_dilation_by_a_power_of_two_is_bit_exact(make, n, attr, spec, rescale_mode):
    # X -> s X takes lam to lam / s, F to s^-m F, Z to s Z and time to s^(m+1) t; with s = 2^k
    # every one of these scalings is exact in floating point, so each run is the unscaled run
    # with its columns scaled, bit for bit
    f = curvfun.parse_curvature_function(spec, n)
    runs = {}
    for s in (2.0 ** -40, 1.0, 2.0 ** 40):
        config = FlowConfig(f=f, stop=StopRule(t_max=0.05 * s ** (f.degree + 1.0)),
                            rescale_mode=rescale_mode)
        runs[s] = run(config, make(s))
    ref = runs.pop(1.0)
    assert ref.stop_reason == "t_max" and len(ref.rows) > 4
    for s, trace in runs.items():
        assert trace.stop_reason == ref.stop_reason
        assert np.array_equal(getattr(trace.final_surface, attr),
                              s * getattr(ref.final_surface, attr))
        lift = s ** (f.degree + 1.0)
        unscaled = [dataclasses.replace(row, t=row.t / lift, dt=row.dt / lift,
                                        tau_fit=row.tau_fit * lift, umb_max=row.umb_max * s * s,
                                        measure=row.measure / s ** n)
                    for row in trace.rows]
        assert unscaled == ref.rows


def _ellipse_tau_fit_at_t1(dt_safety):
    config = FlowConfig(f=H1, stop=StopRule(t_max=1.0), dt_safety=dt_safety,
                        rescale_mode="fixed-scale")
    trace = run(config, ellipse(2.0, 1.0, 256))
    assert trace.stop_reason == "t_max" and trace.final.t == 1.0
    return trace.final.tau_fit


def test_the_fixed_scale_clock_is_second_order():
    # the 2:1 ellipse under H at t = 1 against a run at dt_safety 0.0125: halving dt_safety
    # divides the tau_fit error by about 4 (3.8 to 4.2 measured), where adding the starting-
    # scale dt to the normalized clock divided it by 2.  r_max is a maximum over the samples
    # and carries a grid-phase error, so it reads a lower order
    fine = _ellipse_tau_fit_at_t1(0.0125)
    errors = [abs(_ellipse_tau_fit_at_t1(d) - fine) for d in (0.4, 0.2, 0.1, 0.05)]
    ratios = [a / b for a, b in zip(errors, errors[1:])]
    assert min(ratios) >= 3.5, ratios


@pytest.mark.parametrize("surface,f", [(circle(1.0, 64), H1),
                                       (sphere_profile(1.0, 64), curvfun.GaussCurvature(2))],
                         ids=["circle-H", "sphere-K"])
def test_the_cumulative_scale_of_a_round_flow_tracks_its_closed_form(surface, f):
    # under fixed scale a sphere stays round and its physical radius shrinks by the
    # cumulative scale C, which is exp(f(1, ..., 1) t) on the normalized clock; a fourth of
    # the dt divides the error by about 16 (15.5 measured), where it divided it by 4 when the
    # clock added each step's starting-scale dt
    unit = f.unit_value

    def error(dt_safety):
        config = FlowConfig(f=f, stop=StopRule(t_max=1.0), dt_safety=dt_safety,
                            rescale_mode="fixed-scale")
        rows = run(config, surface).rows
        cumulative = np.cumprod([row.scale for row in rows])
        return max(abs(c / math.exp(unit * row.t) - 1.0) for c, row in zip(cumulative, rows))

    assert error(0.4) >= 12.0 * error(0.1)


@pytest.mark.parametrize("surface,f", [(ellipse(2.0, 1.0, 64), H1),
                                       (spheroid_profile(1.0, 1.3, 64), H2)],
                         ids=["ellipse", "spheroid"])
def test_a_fixed_scale_run_lands_on_t_max(surface, f):
    # the last step is sized so that its normalized increment dt q / (1 - e^-q) reaches
    # t_max, with q predicted from the step before: it misses by 8e-6 dt or less, where
    # ending the starting-scale dt on t_max missed by up to 1.3e-2 dt
    config = FlowConfig(f=f, stop=StopRule(t_max=0.3), rescale_mode="fixed-scale")
    trace = run(config, surface)
    assert trace.stop_reason == "t_max" and trace.final.t == 0.3
    assert all(a.t < b.t < 0.3 for a, b in zip(trace.rows, trace.rows[1:-1]))
    before, last = trace.rows[-2:]
    increment = last.dt * flow._clock((f.degree + 1.0) * math.log(last.scale))
    assert abs(before.t + increment - 0.3) <= 1e-4 * last.dt


def test_a_run_leaves_no_sliver_of_a_step_before_t_max():
    # the eighth step of pow(H,2) on the 2:1 ellipse stopped 6.6e-5 short of t_max, a
    # sixtieth of a step, and a ninth step covered it; a step that a dt 5% longer would
    # land is now stretched to land
    f = curvfun.parse_curvature_function("pow(H,2)", 1)
    config = FlowConfig(f=f, stop=StopRule(t_max=0.02), rescale_mode="fixed-scale")
    trace = run(config, ellipse(2.0, 1.0, 64))
    assert trace.stop_reason == "t_max" and trace.final.t == 0.02
    assert len(trace.rows) - 1 == 8 and trace.rejected == 0


def test_a_step_above_the_error_tolerance_is_rejected_and_retried(monkeypatch):
    # a first step 8x the usual one is refused on its error estimate and retried at the
    # dt that estimate asks for, with no halving
    monkeypatch.setattr(flow, "_STEP_SCALE", 8.0 * flow._STEP_SCALE)
    surface = ellipse(2.0, 1.0, 64)
    lam = flow._extract(surface).lam
    tried = 0.4 * flow._STEP_SCALE / float((H1.gradient(lam) * lam * lam).sum(axis=1).max())
    config = FlowConfig(f=H1, stop=StopRule(t_max=0.3), rescale_mode="fixed-scale")
    trace = run(config, surface)
    assert trace.stop_reason == "t_max" and trace.final.t == 0.3
    assert trace.rejected >= 1 and trace.dt_halvings == 0
    assert trace.rows[1].dt < 0.9 * tried


def test_the_retry_cap_names_the_error_tolerance(monkeypatch):
    monkeypatch.setattr(flow, "_TOL_SCALE", 1e-300)
    trace = run(FlowConfig(f=H1, stop=StopRule(t_max=0.3)), circle(1.0, 64))
    assert trace.aborted and len(trace.rows) == 1
    assert trace.stop_reason.startswith(
        f"aborted: no valid step after {flow._MAX_RETRIES} error rejections "
        f"(last: error estimate ")
    assert trace.rejected == flow._MAX_RETRIES and trace.dt_halvings == 0


def test_the_retry_cap_counts_both_kinds_of_retry(monkeypatch):
    # a step refused in turn on its geometry and on its error estimate names both counts
    tries, real_step = [], flow._step

    def refused(surface, geom, f, dt, values, dfdlam):
        tries.append(dt)
        if len(tries) % 2:
            raise hypersurface.GeometryError("refused on its geometry")
        new, new_geom, _ = real_step(surface, geom, f, dt, values, dfdlam)
        return new, new_geom, 1e300

    monkeypatch.setattr(flow, "_step", refused)
    trace = run(FlowConfig(f=H1, stop=StopRule(t_max=0.3)), circle(1.0, 64))
    assert trace.aborted and len(trace.rows) == 1 and len(tries) == flow._MAX_RETRIES + 1
    assert trace.stop_reason == ("aborted: no valid step after 10 dt halvings and 10 error "
                                 "rejections (last: refused on its geometry)")
    assert trace.dt_halvings == 10 and trace.rejected == 10
    assert all(b == pytest.approx(a * (0.5 if i % 2 == 0 else flow._DT_FACTOR[0]), rel=1e-15)
               for i, (a, b) in enumerate(zip(tries, tries[1:])))


@pytest.mark.parametrize("surface,spec", [(ellipse(1.2, 1.0, 32), "pow(H,-0.5)"),
                                          (spheroid_profile(1.0, 1.2, 32), "pow(K,-0.25)")],
                         ids=["ellipse", "spheroid"])
def test_an_expanding_fixed_scale_flow_may_stop_long_before_t_max(surface, spec):
    # an expanding flow's rescale has q < 0, and the landing dt for a t_max 2000 ahead
    # would take e^-q of about e^1000; a distant t_max beside r_tol is only a cap
    f = curvfun.parse_curvature_function(spec, surface.dim)
    trace = run(FlowConfig(f=f, stop=StopRule(t_max=2000.0, r_tol=0.02),
                           rescale_mode="fixed-scale"), surface)
    assert trace.stop_reason == "r_tol" and len(trace.rows) > 10
    assert all(math.log(row.scale) < 0.0 for row in trace.rows[1:])


def test_span_inverts_the_clock():
    for rate in (-0.5, -1e-9, 0.0, 1e-9, 0.7):
        for span in (1e-3, 0.4, 3.0):
            dt = span / flow._clock(rate * span)
            assert flow._span(dt, rate) == pytest.approx(span, rel=1e-12)
    assert flow._span(2.0, 0.5) == math.inf
    assert flow._span(1.0, -0.5) == pytest.approx(2.0 * math.log(1.5), rel=1e-15)
    assert flow._span(1e300, -0.5) == pytest.approx(1380.2, rel=1e-4)   # e^1380 overflows


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


def test_the_isoperimetric_ratio_never_rises_along_the_ellipse_under_h():
    # Gage (Duke Math. J. 50, 1983): under the curve-shortening flow L^2 / (4 pi A) does
    # not increase.  L is the polygon's length and A its shoelace area; over 272 steps the
    # ratio falls from 1.17 to within 4e-8 of the regular 64-gon's, by at least 3e-9 a
    # step, far above its rounding
    def ratio(pts):
        nxt = np.roll(pts, -1, axis=0)
        length = np.sqrt(((nxt - pts) ** 2).sum(axis=1)).sum()
        area = 0.5 * (pts[:, 0] * nxt[:, 1] - nxt[:, 0] * pts[:, 1]).sum()
        return length * length / (4.0 * math.pi * area)

    dt_safety = FlowConfig(f=H1, stop=StopRule(t_max=1.0)).dt_safety     # the default
    surface = ellipse(2.0, 1.0, 64)
    ratios = [ratio(surface.points)]
    for _ in range(272):
        lam = flow._extract(surface).lam          # run's rule for its first dt
        dt = dt_safety * flow._STEP_SCALE / float((H1.gradient(lam) * lam * lam).sum(axis=1).max())
        surface = step(surface, H1, dt)
        ratios.append(ratio(surface.points))
    assert ratios[0] > 1.17 and ratios[-1] < 1.0009
    assert (np.diff(ratios) <= 0.0).all()
