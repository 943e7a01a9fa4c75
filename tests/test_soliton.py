import math
import sys
from dataclasses import dataclass

import numpy as np
import pytest
import scipy.optimize
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from solitonlab import curvfun, hypersurface, soliton, spaceform
from solitonlab.curvfun import (CurvatureFunction, GaussCurvature, MeanCurvature,
                                builtin_functions, parse_curvature_function)
from solitonlab.soliton import (admissibility, fit_tau, pinching_quadratics,
                                residual_field, solve_sphere_radius, sphere_tau,
                                sweep_row, threshold_high, threshold_low)


# ---------------------------------------------------------------------------
# sphere solutions

def test_sphere_tau_mean_curvature_normalization():
    # H + <X, nu> = 0 on the sphere of radius sqrt(n): tau = 1
    for n in (1, 2, 3):
        f = MeanCurvature(n)
        assert sphere_tau(f, math.sqrt(n), 0.0) == pytest.approx(1.0, rel=1e-14)
        assert sphere_tau(f, 1.0, 0.0) == pytest.approx(n, rel=1e-14)


def test_sphere_tau_gauss_unit():
    assert sphere_tau(GaussCurvature(2), 1.0, 0.0) == pytest.approx(1.0, rel=1e-15)


def test_sphere_tau_hyperbolic():
    f = MeanCurvature(2)
    expected = 2.0 * math.cosh(1.0) / math.sinh(1.0) ** 2
    tau = sphere_tau(f, 1.0, -1.0)
    assert tau == pytest.approx(expected, rel=1e-14)
    sphere = spaceform.sample_geodesic_sphere(-1.0, 1.0, 2, 64)
    assert np.abs(residual_field(sphere, f, tau)).max() < 1e-10


def test_sphere_tau_rejections():
    with pytest.raises(ValueError):
        sphere_tau(MeanCurvature(2), -1.0, 0.0)
    with pytest.raises(ValueError, match="<= 0"):
        sphere_tau(MeanCurvature(2), 1.0, 0.5)


@pytest.mark.parametrize("c", [math.nan, math.inf])
def test_sphere_tau_refuses_a_non_finite_curvature(c):
    with pytest.raises(ValueError, match=f"got c={c}"):
        sphere_tau(MeanCurvature(2), 1.0, c)


@pytest.mark.parametrize("radius", [math.nan, math.inf])
def test_sphere_tau_refuses_a_non_finite_radius(radius):
    with pytest.raises(ValueError, match=f"got radius={radius}"):
        sphere_tau(MeanCurvature(2), radius)


@pytest.mark.parametrize("tau", [math.nan, math.inf, -math.inf])
def test_solve_sphere_radius_refuses_a_non_finite_tau(tau):
    # NaN once ran every bisection step and then blamed the bisection
    with pytest.raises(ValueError, match=f"got tau={tau}"):
        solve_sphere_radius(MeanCurvature(2), tau)


def test_sphere_tau_scaling_covariance():
    for f in (MeanCurvature(2), GaussCurvature(2), parse_curvature_function("pow(H,-1)", 2)):
        base = sphere_tau(f, 1.7, 0.0)
        for s in (0.5, 2.0, 7.0):
            expected = s ** (-(f.degree + 1.0)) * base
            assert sphere_tau(f, s * 1.7, 0.0) == pytest.approx(expected, rel=1e-12)


def test_negative_degree_sign_contract(rng):
    # elliptic degree < 0 families are negative on the positive cone, so
    # sphere_tau carries the sign of f(1, ..., 1)
    for spec in ("pow(H,-1)", "pow(K,-0.5)", "pow(geomean,-2)"):
        f = parse_curvature_function(spec, 2)
        assert f.degree < 0.0
        values = f.value(rng.uniform(0.05, 5.0, (1000, 2)))
        assert np.all(values < 0.0)
        assert sphere_tau(f, 1.3, 0.0) < 0.0


def test_solve_sphere_radius_anchors():
    assert solve_sphere_radius(MeanCurvature(2), 1.0, 0.0) == pytest.approx(
        math.sqrt(2.0), abs=1e-10)
    assert solve_sphere_radius(GaussCurvature(2), 1.0, 0.0) == pytest.approx(1.0, abs=1e-10)
    for radius in soliton._RADIUS_BRACKET:      # a tau solved exactly at an end returns it
        assert solve_sphere_radius(MeanCurvature(2), sphere_tau(MeanCurvature(2), radius, 0.0),
                                   0.0) == radius


def _bisect_calling_sphere_tau(f, tau, c, lo=1e-6, hi=50.0):
    """The bisection of `solve_sphere_radius`, evaluating `sphere_tau` on every step."""
    d_lo = sphere_tau(f, lo, c) - tau
    for _ in range(200):
        mid = 0.5 * (lo + hi)
        d_mid = sphere_tau(f, mid, c) - tau
        if abs(d_mid) <= 1e-12 * abs(tau):
            return mid
        if d_lo * d_mid <= 0.0:
            hi = mid
        else:
            lo, d_lo = mid, d_mid
    raise AssertionError("reference bisection did not converge")


def test_solve_sphere_radius_round_trip(rng, monkeypatch):
    # f(1,...,1) is evaluated once per function, however many solves use it, and the
    # radius is bit for bit the one a bisection evaluating `sphere_tau` on every step finds
    calls = []
    value = CurvatureFunction.value
    monkeypatch.setattr(CurvatureFunction, "value",
                        lambda self, lam: calls.append(self.name) or value(self, lam))
    for f in (MeanCurvature(2), GaussCurvature(3), parse_curvature_function("pow(H,-1)", 2)):
        calls.clear()
        for radius in rng.uniform(0.1, 10.0, 20):
            c = -1.0 if f.degree < 0 else 0.0   # m = -1 at c = 0 is degenerate
            tau = sphere_tau(f, radius, c)
            expect = _bisect_calling_sphere_tau(f, tau, c)
            found = solve_sphere_radius(f, tau, c)
            assert abs(found - radius) < 1e-10
            assert found == expect
        assert calls == [f.name]


def test_solve_sphere_radius_diagnostics():
    with pytest.raises(ValueError, match="no sphere soliton in range"):
        solve_sphere_radius(MeanCurvature(2), -1.0, 0.0)
    with pytest.raises(ValueError, match="nonzero"):
        solve_sphere_radius(MeanCurvature(2), 0.0, 0.0)
    inverse = parse_curvature_function("pow(H,-1)", 2)
    with pytest.raises(ValueError, match="degenerate"):
        solve_sphere_radius(inverse, inverse.unit_value, 0.0)
    with pytest.raises(ValueError, match="no sphere soliton"):
        solve_sphere_radius(inverse, -0.7, 0.0)


def _log_abs_tau(f, r, c):
    """log |tau| of the sphere of radius r with no power of the closed form formed:
    log |f(1,..,1)| + m log cotc(R) - log shc(R), where at c < 0, with x = sqrt(-c) R,
    log sinh x = x + log(-expm1(-2x)) - log 2 and log coth x = log1p(e^-2x) - log(-expm1(-2x)),
    so that no two terms of size x cancel."""
    log_unit = math.log(abs(f.unit_value))
    if c == 0.0:
        return log_unit - (f.degree + 1.0) * math.log(r)
    kappa = math.sqrt(-c)
    x = kappa * r
    log_sinh = x + math.log(-math.expm1(-2.0 * x)) - math.log(2.0)
    log_coth = math.log1p(math.exp(-2.0 * x)) - math.log(-math.expm1(-2.0 * x))
    return log_unit + f.degree * (math.log(kappa) + log_coth) - (log_sinh - math.log(kappa))


def _radius_reference(spec, c):
    """The radius whose sphere tau is 1, by brentq on `_log_abs_tau`."""
    f = parse_curvature_function(spec, 2)
    return scipy.optimize.brentq(lambda r: _log_abs_tau(f, r, c), 1e-3, 40.0,
                                 xtol=1e-15, rtol=1e-15)


@pytest.mark.parametrize("spec, radius", [
    ("H", 1.0), ("pow(H,20)", 50.0), ("pow(H,20)", 300.0), ("pow(H,-300)", 100.0),
    ("K", 30.0), ("pow(H,-1)", 0.2), ("pow(geomean,7.5)", 120.0)])
def test_sphere_tau_at_negative_c_matches_a_stable_log_tau(spec, radius):
    # chc(R)^m leaves the float range at each radius from 50 on, while tau does not
    f = parse_curvature_function(spec, 2)
    tau = sphere_tau(f, radius, -1.0)
    assert math.copysign(1.0, tau) == math.copysign(1.0, f.unit_value)
    assert math.log(abs(tau)) == pytest.approx(_log_abs_tau(f, radius, -1.0), rel=1e-13, abs=1e-13)


@pytest.mark.parametrize("spec, c", [
    ("pow(H,300)", 0.0),      # shc(R)^301 underflows at 1e-6 and overflows at 50
    ("pow(H,20)", -1.0),      # chc(R)^20 overflowed at 50 while tau was formed from it
    ("pow(H,20)", -400.0),    # cosh(20 R) overflows at 50; the root is near R = 3.87
], ids=["c0-lower-end", "c-1-upper-end", "c-400-upper-end"])
def test_solve_sphere_radius_clips_a_bracket_end_outside_the_float_range(spec, c):
    # each refused an end of the bracket by name, a radius the caller never passed
    found = solve_sphere_radius(parse_curvature_function(spec, 2), 1.0, c)
    assert found == pytest.approx(_radius_reference(spec, c), rel=1e-12)
    if c == 0.0:
        assert found == pytest.approx(2.0 ** (300.0 / 301.0), rel=1e-12)


def test_solve_sphere_radius_refuses_a_function_whose_unit_value_overflows():
    # f(1, 1) = 2^3000 reads inf without a numpy overflow warning, and tau is refused by name
    with pytest.raises(ValueError, match=r"pow\(H,3000\) .* zero or outside the float range"):
        solve_sphere_radius(parse_curvature_function("pow(H,3000)", 2), 1.0, 0.0)


def test_solve_sphere_radius_refuses_an_end_when_no_radius_is_in_range():
    # pow(H,300) at c = -400: cotc(R)^300 > 20^300 overflows at every radius, but tau is in
    # range from R = 20.0285 up (log tau(50) = 110.35); the root, R = 55.52, is beyond the
    # bracket, so the clipped bracket holds no sign change
    with pytest.raises(ValueError, match=r"^no sphere soliton in range \[20\.0285, 50\] for "
                                         r"tau=1 \(no sign change of the defect\)$"):
        solve_sphere_radius(parse_curvature_function("pow(H,300)", 2), 1.0, -400.0)


@pytest.mark.parametrize("spec, radius, c, expect", [
    ("pow(H,300)", 50.0, -400.0, 8.43e47),   # 20^300 overflows, and so does sinh(1000)
    ("H", 720.0, -1.0, 8.13e-313),           # sinh(720) overflows; tau is subnormal
    ("pow(H,300)", 20.0, 0.0, 5.0e-302),     # 20^301 overflows
], ids=["c-400", "c-1-subnormal", "c0"])
def test_sphere_tau_is_formed_from_its_log_where_the_direct_form_leaves_the_float_range(
        spec, radius, c, expect):
    # each was refused as "zero or outside the float range"
    f = parse_curvature_function(spec, 2)
    tau = sphere_tau(f, radius, c)
    assert tau == pytest.approx(expect, rel=1e-3)
    assert tau == pytest.approx(math.exp(_log_abs_tau(f, radius, c)), rel=1e-12, abs=0.0)


# the float range in log space: log of the largest float, of the smallest normal and of the
# smallest subnormal float
_LOG_MAX = math.log(sys.float_info.max)
_LOG_NORMAL = math.log(sys.float_info.min)
_LOG_MIN = math.log(math.ulp(0.0))


def _switch_radius(f, c):
    """A radius where the direct form of tau starts to overflow on the way: sinh(sqrt(-c) R)
    at sqrt(-c) R = 710.5 for c < 0, R^(m+1) at (m+1) log R = 709.78 for c = 0."""
    if c < 0.0:
        return 710.5 / math.sqrt(-c)
    return math.exp(_LOG_MAX / abs(f.degree + 1.0))


@settings(max_examples=300, deadline=None, derandomize=True, database=None)
@given(spec=st.sampled_from(["H", "K", "pow(H,20)", "pow(H,300)", "pow(H,-1)", "pow(H,-300)",
                             "pow(geomean,7.5)", "pow(K,-40)"]),
       c=st.sampled_from([0.0, -1.0, -400.0]) | st.floats(-1e4, -1e-4),
       near_switch=st.booleans(), log_radius=st.floats(math.log(1e-6), math.log(1e3)),
       log_scale=st.floats(-0.1, 0.1))
def test_sphere_tau_agrees_with_the_log_tau_reference(spec, c, near_switch, log_radius,
                                                      log_scale):
    # radii spread over [1e-6, 1e3], or within 10% of where the direct form starts to
    # overflow, so that they run across the switch to the log form at every c
    f = parse_curvature_function(spec, 2)
    if near_switch and (c < 0.0 or f.degree != -1.0):
        radius = _switch_radius(f, c) * math.exp(log_scale)
    else:
        radius = math.exp(log_radius)
    log_tau = _log_abs_tau(f, radius, c)
    # away from the log limits of the float range, so rounding cannot flip the outcome
    assume(abs(log_tau - _LOG_MAX) > 1.0 and abs(log_tau - _LOG_MIN) > 1.0)
    if not _LOG_MIN < log_tau < _LOG_MAX:
        with pytest.raises(ValueError, match=r"is zero or outside the float range"):
            sphere_tau(f, radius, c)
        return
    tau = sphere_tau(f, radius, c)
    assert tau != 0.0 and math.copysign(1.0, tau) == math.copysign(1.0, f.unit_value)
    if log_tau > _LOG_NORMAL:
        assert abs(tau / (math.copysign(math.exp(log_tau), tau)) - 1.0) <= 1e-12


def test_solve_sphere_radius_refuses_a_bisection_out_of_steps(monkeypatch):
    monkeypatch.setattr(soliton, "_BISECTION_MAX_ITER", 2)
    with pytest.raises(ValueError, match=r"bisection did not reach .* in 2 iterations"):
        solve_sphere_radius(MeanCurvature(2), 1.0, 0.0)


# ---------------------------------------------------------------------------
# residual field and tau fitting

def test_residual_field_sphere_families():
    for n in (1, 2, 3):
        for f in builtin_functions(n):
            for c in (0.0, -1.0):
                tau = sphere_tau(f, 1.3, c)
                sphere = spaceform.sample_geodesic_sphere(c, 1.3, n, 64)
                assert np.abs(residual_field(sphere, f, tau)).max() < 1e-10


def test_residual_field_wrong_tau_is_constant():
    f = MeanCurvature(2)
    tau = sphere_tau(f, 1.3, 0.0)
    sphere = spaceform.sample_geodesic_sphere(0.0, 1.3, 2, 64)
    res = residual_field(sphere, f, 2.0 * tau)
    expected = tau * sphere.support   # linear in tau: the extra tau * Z survives
    np.testing.assert_allclose(res, expected, atol=1e-12)
    assert np.abs(np.abs(res) - tau * spaceform.shc(0.0, 1.3)).max() < 1e-10
    assert np.abs(res - res.mean()).max() < 1e-10


def test_fit_tau_unit_circle():
    geom = hypersurface.curve_geometry(hypersurface.circle(1.0, 256))
    rep = fit_tau(geom, MeanCurvature(1))
    assert rep.tau_fit == pytest.approx(1.0, abs=1e-10)
    assert rep.relative_residual < 1e-10
    assert rep.sample_count == 256


def test_fit_tau_sphere_matches_closed_form():
    geom = hypersurface.revolution_geometry(hypersurface.sphere_profile(math.sqrt(2.0), 256))
    rep = fit_tau(geom, MeanCurvature(2))
    assert abs(rep.tau_fit - 1.0) < 1e-8
    assert rep.relative_residual < 1e-8


def test_fit_tau_ellipse_regression():
    # the ellipse is not a self-similar solution; frozen regression baseline
    geom = hypersurface.curve_geometry(hypersurface.ellipse(2.0, 1.0, 256))
    rep = fit_tau(geom, MeanCurvature(1))
    assert rep.relative_residual > 0.1
    assert rep.relative_residual == pytest.approx(0.424388414233, rel=1e-6)
    assert rep.tau_fit == pytest.approx(0.561579772133, rel=1e-6)
    assert np.abs(rep.center).max() < 1e-12       # the centred ellipse is its own centre
    # normal equation of the weighted least squares
    res = geom.mean + rep.tau_fit * geom.support
    normal_eq = abs(float(geom.weights @ (geom.support * res)))
    assert normal_eq <= 1e-10 * float(geom.weights @ (geom.support ** 2))
    assert rep.max_residual >= rep.rms_residual >= 0.0


def test_ellipse_residual_sign_structure():
    # tau = 1 on the (2,1) ellipse: k(0) = 2 = -Z(0) exactly, so the residual
    # is nonpositive and only touches zero at the two tips (no crossings);
    # the fitted tau must change sign by the normal equation (4 crossings)
    geom = hypersurface.curve_geometry(hypersurface.ellipse(2.0, 1.0, 256))
    f = MeanCurvature(1)
    res = residual_field(geom, f, 1.0)
    assert np.all(res <= 0.0)
    assert res.max() > -1e-4
    signs = np.sign(res)
    assert int(np.sum(signs != np.roll(signs, 1))) == 0
    fitted = residual_field(geom, f, fit_tau(geom, f).tau_fit)
    signs = np.sign(fitted)
    assert int(np.sum(signs != np.roll(signs, 1))) == 4


@dataclass
class _FakeSamples:
    lam: np.ndarray
    support: np.ndarray
    weights: np.ndarray
    normal: np.ndarray
    dim: int = 2


def _axial_normals(m):
    """Unit normals whose axis components vary, as on a closed rotation surface."""
    angle = np.linspace(0.0, np.pi, m)
    return np.column_stack([np.cos(angle), -np.sin(angle), np.zeros(m)])


def test_fit_tau_rejections():
    lam = np.full((8, 2), 1.0)
    with pytest.raises(ValueError, match="16"):
        fit_tau(_FakeSamples(lam, -np.ones(8), np.ones(8), _axial_normals(8)), MeanCurvature(2))
    lam = np.full((32, 2), 1.0)
    normal = _axial_normals(32)
    # Z vanishes, or lies along the normals' axis components: either way tau is not identifiable
    for support in (np.zeros(32), 0.7 * normal[:, 0]):
        with pytest.raises(ValueError, match="degenerate support"):
            fit_tau(_FakeSamples(lam, support, np.ones(32), normal), MeanCurvature(2))


# ---------------------------------------------------------------------------
# admissibility and pinching thresholds

def test_admissibility_gauss_threshold():
    assert GaussCurvature(2).convexity == "neither"
    verdict = admissibility(GaussCurvature(2), 1.9)
    assert verdict.admissible
    assert verdict.covered_by == ("2(iii)",)
    assert verdict.threshold_2iii == pytest.approx(2.0, abs=1e-14)
    blocked = admissibility(GaussCurvature(2), 2.1)
    assert not blocked.admissible


def test_admissibility_threshold_anchor_m3():
    f = parse_curvature_function("pow(K,1.5)", 2)
    assert f.degree == 3.0
    verdict = admissibility(f, 1.0)
    assert verdict.threshold_2iii == pytest.approx((1.0 + math.sqrt(5.0)) / 2.0, abs=1e-12)


def test_admissibility_unconditional_negative_band():
    f = parse_curvature_function("pow(H,-5)", 2)
    verdict = admissibility(f, 1e6)
    assert verdict.admissible
    assert verdict.covered_by == ("2(ii)", "2(iii)")
    assert verdict.threshold_2iii is None


def test_admissibility_uncovered_fractional_degree():
    # no power of degree 1/2 is convex; a convex label at m = 1/2 is checked by sweep_row
    for spec, label in (("pow(H,0.5)", "concave"), ("pow(norm,0.5)", "neither")):
        f = parse_curvature_function(spec, 3)
        assert f.convexity == label
        verdict = admissibility(f, 1.0)
        assert not verdict.admissible
        assert verdict.covered_by == ()


def test_admissibility_shape_branches():
    assert admissibility(MeanCurvature(3), 5.0).covered_by == ("2(i)",)
    f = parse_curvature_function("pow(H,-1)", 3)
    assert admissibility(f, 5.0).covered_by == ("2(ii)",)
    assert admissibility(MeanCurvature(2), 5.0).covered_by == ("2(i)", "2(iii)")
    # negative powers of norm are neither convex nor concave: only 2(iii) at n = 2 is left
    for n, covered in ((3, ()), (2, ("2(iii)",))):
        f = parse_curvature_function("pow(norm,-1)", n)
        assert admissibility(f, 5.0).covered_by == covered


def test_admissibility_threshold_presence_invariant():
    for m, present in ((2.0, True), (1.0, False), (0.5, False), (-3.0, False),
                       (-7.0, False), (-8.0, True)):
        f = parse_curvature_function(f"pow(H,{m:g})", 2)
        verdict = admissibility(f, 1.0)
        assert (verdict.threshold_2iii is not None) == present


def test_admissibility_rejections():
    # the label and n come from f, so only r_max is left to refuse; a bad label is sweep_row's
    with pytest.raises(ValueError, match="r_max"):
        admissibility(MeanCurvature(2), 0.5)
    with pytest.raises(TypeError):
        admissibility(2, MeanCurvature(2), "convex", 1.5)


@pytest.mark.parametrize("n", [0, -3])
def test_a_dimension_below_one_is_refused(n):
    with pytest.raises(ValueError, match="dimension n must be at least 1"):
        sweep_row(2.0, n=n)


def test_pinching_quadratics_anchors():
    # m = -7: the first quadratic is the perfect square 2 (r - 2)^2
    for r in (1.0, 1.5, 2.0, 3.7):
        q1, _ = pinching_quadratics(-7.0, r)
        assert q1 == pytest.approx(2.0 * (r - 2.0) ** 2, rel=1e-13, abs=1e-13)
    # m = 2: the printed bound r = 2 is a root of the second quadratic
    assert pinching_quadratics(2.0, 2.0)[1] == pytest.approx(0.0, abs=1e-14)
    # m = 1: both quadratics degenerate to (2 r^2, -2)
    for r in (1.0, 4.0):
        q1, q2 = pinching_quadratics(1.0, r)
        assert q1 == 2.0 * r * r and q2 == -2.0
    with pytest.raises(ValueError):
        pinching_quadratics(2.0, 0.3)


def test_threshold_quadratic_coherence():
    for m in np.linspace(1.02, 100.0, 50):
        t = threshold_high(m)
        q = pinching_quadratics(m, t)[1]
        assert abs(q) <= 1e-12 * ((m - 1.0) * (t * t + t) + 2.0)
    for m in np.linspace(-100.0, -7.02, 50):
        t = threshold_low(m)
        q = pinching_quadratics(m, t)[0]
        assert abs(q) <= 1e-12 * (2.0 * t * t + abs(m - 1.0) * (t + 1.0))


def test_threshold_anchors_and_monotonicity():
    assert threshold_high(3.0) == pytest.approx(1.6180340, abs=1e-7)
    assert threshold_high(9.0) == pytest.approx(0.5 * (1.0 + math.sqrt(2.0)), rel=1e-14)
    values = [threshold_high(m) for m in np.linspace(1.1, 200.0, 100)]
    assert all(b <= a + 1e-12 for a, b in zip(values, values[1:]))
    assert values[-1] > 1.0


def test_threshold_branch_boundary():
    # unconditional at m = -7; threshold approaches 2 from below as m -> -7-
    assert sweep_row(-7.0)["branch"] == "unconditional"
    row = sweep_row(-7.0 - 1e-9)
    assert row["branch"] == "threshold"
    assert abs(row["threshold"] - 2.0) < 1e-3
    assert abs(sweep_row(-7.0 - 1e-12)["threshold"] - 2.0) < 1e-5
    with pytest.raises(ValueError):
        threshold_low(-7.0)
    with pytest.raises(ValueError):
        threshold_high(1.0)


def test_sweep_row_branches():
    assert sweep_row(3.0)["threshold"] == pytest.approx(1.6180340, abs=1e-7)
    assert sweep_row(1.0)["branch"] == "unconditional"
    assert sweep_row(-3.0)["branch"] == "unconditional"
    assert sweep_row(0.5)["branch"] == "uncovered"
    assert sweep_row(0.5, classification="convex")["branch"] == "uncovered"
    assert sweep_row(2.0, classification="convex")["branch"] == "unconditional"
    assert sweep_row(2.0, n=3)["branch"] == "uncovered"
    assert sweep_row(-9.0, n=3, classification="concave")["branch"] == "unconditional"
    with pytest.raises(ValueError, match="m must be nonzero"):
        sweep_row(0.0)
    with pytest.raises(ValueError, match="classification must be one of"):
        sweep_row(2.0, classification="wobbly")
