import dataclasses
import json
import math

import numpy as np
import pytest
import scipy.linalg
from scipy.linalg.lapack import dgtsv

from solitonlab import curvfun
from solitonlab import hypersurface as hs
from solitonlab.hypersurface import (AnalyticSpheroid, GeometryError, NonConvexSurfaceError,
                                     PlaneCurve, RevolutionProfile, circle,
                                     codazzi_residual, covariant_hessian,
                                     curve_geometry, ellipse, ellipsoid_geometry,
                                     revolution_geometry,
                                     sphere_profile, spheroid_profile,
                                     support_hessian_residual,
                                     surface_from_document, surface_to_document)
from solitonlab.soliton import fit_tau


def ellipse_curvature(a, b, th):
    return a * b / (a * a * np.sin(th) ** 2 + b * b * np.cos(th) ** 2) ** 1.5


# ---------------------------------------------------------------------------
# plane curves

def test_unit_circle_geometry():
    geom = curve_geometry(circle(1.0, 256))
    assert np.abs(geom.lam - 1.0).max() < 1e-8
    assert np.abs(geom.support + 1.0).max() < 1e-10
    assert geom.measure == pytest.approx(2.0 * np.pi, rel=1e-7)


def test_circle_radius_three():
    geom = curve_geometry(circle(3.0, 256))
    assert np.abs(geom.lam - 1.0 / 3.0).max() < 1e-9
    assert np.abs(geom.mean - 1.0 / 3.0).max() < 1e-9
    assert np.abs(geom.norm_A2 - 1.0 / 9.0).max() < 1e-9
    assert np.abs(geom.support + 3.0).max() < 1e-9


def test_ellipse_max_curvature():
    geom = curve_geometry(ellipse(2.0, 1.0, 512))
    assert abs(float(geom.lam.max()) - 2.0) < 1e-5


def test_curvature_refinement_order():
    def err(m):
        geom = curve_geometry(ellipse(2.0, 1.0, m))
        th = 2.0 * np.pi * np.arange(m) / m
        return np.abs(geom.lam[:, 0] - ellipse_curvature(2.0, 1.0, th)).max()

    assert err(128) / err(256) >= 10.0


def test_curve_orientation_and_normals():
    geom = curve_geometry(ellipse(2.0, 1.0, 128))
    centroid = geom.weights @ geom.position / geom.weights.sum()
    inward = np.einsum("ij,ij->i", geom.normal, centroid - geom.position)
    assert np.all(inward > 0.0)
    # clockwise input is normalized to the same inward convention
    pts = ellipse(2.0, 1.0, 128).points[::-1]
    geom_cw = curve_geometry(PlaneCurve(pts))
    assert np.all(geom_cw.lam > 0.0)
    assert np.abs(geom_cw.support - geom.support[::-1]).max() < 1e-12


def test_nonconvex_curve_rejected():
    th = 2.0 * np.pi * np.arange(256) / 256
    r = 1.0 + 0.5 * np.cos(3.0 * th)
    pts = np.column_stack([r * np.cos(th), r * np.sin(th)])
    with pytest.raises(NonConvexSurfaceError):
        curve_geometry(PlaneCurve(pts))


def test_doubly_wound_circle_rejected():
    th = 4.0 * np.pi * np.arange(256) / 256
    pts = np.column_stack([np.cos(th), np.sin(th)])
    with pytest.raises(GeometryError, match="turning number|speed|convex"):
        curve_geometry(PlaneCurve(pts))


# clockwise traversal: the orientation comes from the sign of the turning sum, and
# these refusals keep the type and message they had when the shoelace area set it
def test_nonconvex_curve_rejected_clockwise():
    th = 2.0 * np.pi * np.arange(256) / 256
    r = 1.0 + 0.5 * np.cos(3.0 * th)
    pts = np.column_stack([r * np.cos(th), r * np.sin(th)])[::-1]
    with pytest.raises(NonConvexSurfaceError) as info:
        curve_geometry(PlaneCurve(pts))
    assert str(info.value) == ("curve is not convex: curvature <= 0 "
                               "(first offending sample index 33)")


def test_doubly_wound_circle_rejected_clockwise():
    th = 4.0 * np.pi * np.arange(256) / 256
    pts = np.column_stack([np.cos(th), -np.sin(th)])
    with pytest.raises(GeometryError) as info:
        curve_geometry(PlaneCurve(pts))
    assert type(info.value) is GeometryError
    assert str(info.value) == "curve is not simple: turning number 2.000000 != 1"


# first offending samples as the full `(lam <= 0).nonzero()` scan found them: each
# dent spans several samples, so the first one is not where the curvature is least
@pytest.mark.parametrize("m,index", [(64, 9), (256, 34)])
def test_nonconvex_curve_names_its_first_offending_sample(m, index):
    th = 2.0 * np.pi * np.arange(m) / m
    r = 1.0 + 0.5 * np.cos(3.0 * th)
    with pytest.raises(NonConvexSurfaceError) as info:
        curve_geometry(PlaneCurve(np.column_stack([r * np.cos(th), r * np.sin(th)])))
    assert info.value.index == index
    assert str(info.value) == ("curve is not convex: curvature <= 0 "
                               f"(first offending sample index {index})")


@pytest.mark.parametrize("m,index", [(64, 12), (256, 48)])
def test_nonconvex_meridian_names_its_first_offending_sample(m, index):
    u = np.linspace(0.0, np.pi, m)
    r = 1.0 + 0.4 * np.cos(4.0 * u)
    with pytest.raises(NonConvexSurfaceError) as info:
        revolution_geometry(RevolutionProfile(np.column_stack([-r * np.cos(u), r * np.sin(u)])))
    assert info.value.index == index
    assert str(info.value) == ("rotation surface is not convex "
                               f"(first offending sample index {index})")


@pytest.mark.parametrize("points,message", [
    (np.zeros((32, 2)), "degenerate parametrization (zero speed)"),
    (np.column_stack([np.cos(4.0 * np.pi * np.arange(64) / 64),
                      np.sin(4.0 * np.pi * np.arange(64) / 64)]),
     "curve is not simple: turning number 2.000000 != 1"),
], ids=["zero-speed", "doubly-wound"])
def test_curve_refusals_keep_their_messages(points, message):
    with pytest.raises(GeometryError) as info:
        curve_geometry(PlaneCurve(points))
    assert type(info.value) is GeometryError and str(info.value) == message


@pytest.mark.parametrize("through", [0, 17], ids=["sample-0", "sample-17"])
def test_circle_through_the_origin_extracts_and_fits_like_the_centred_one(through):
    # nothing in flat space reads a direction from the origin: the origin may lie on the curve
    centred = circle(3.0, 64)
    moved = PlaneCurve(centred.points - centred.points[through])
    geom, geom_moved = curve_geometry(centred), curve_geometry(moved)
    H1 = curvfun.MeanCurvature(1)
    assert geom_moved.support[through] == 0.0
    assert np.abs(geom_moved.lam - geom.lam).max() < 1e-12
    fit, fit_moved = fit_tau(geom, H1), fit_tau(geom_moved, H1)
    assert fit_moved.tau_fit == pytest.approx(fit.tau_fit, rel=1e-12)
    assert fit_moved.relative_residual < 1e-12
    assert np.allclose(fit_moved.center, -centred.points[through], rtol=0.0, atol=1e-12)


def test_curve_validation():
    with pytest.raises(GeometryError, match="16"):
        PlaneCurve(np.zeros((4, 2)))
    with pytest.raises(GeometryError, match="non-finite"):
        PlaneCurve(np.full((32, 2), np.nan))


def test_translated_circle_support_is_about_the_origin():
    geom = curve_geometry(PlaneCurve(circle(1.0, 128).points - np.array([0.5, 0.0])))
    th = 2.0 * np.pi * np.arange(128) / 128
    expected = -(1.0 - 0.5 * np.cos(th))
    assert np.abs(geom.support - expected).max() < 1e-10


# ---------------------------------------------------------------------------
# rotation surfaces

def test_revolution_sphere():
    geom = revolution_geometry(sphere_profile(1.0, 256))
    assert np.abs(geom.lam - 1.0).max() < 1e-6
    assert np.abs(geom.support + 1.0).max() < 1e-10
    assert np.abs(geom.mean - 2.0).max() < 1e-6
    assert np.abs(geom.norm_A2 - 2.0).max() < 1e-6
    assert np.abs(2.0 * geom.norm_A2 - geom.mean ** 2).max() < 1e-10
    assert geom.measure == pytest.approx(4.0 * np.pi, rel=1e-4)


def test_revolution_sphere_radius_two():
    geom = revolution_geometry(sphere_profile(2.0, 256))
    assert np.abs(geom.lam - 0.5).max() < 1e-6
    assert np.abs(geom.support + 2.0).max() < 1e-10


def test_spheroid_equator_cross_oracle():
    # (equatorial, equatorial, polar) = (2, 2, 1): meridian curvature 2 and
    # parallel curvature 1/2 at the equator, from the analytic ellipsoid path
    rev = revolution_geometry(spheroid_profile(2.0, 1.0, 257))
    exact = ellipsoid_geometry((2.0, 2.0, 1.0), math.pi / 2.0, 0.0)
    np.testing.assert_allclose(exact.lam[0], [0.5, 2.0], rtol=1e-12)
    assert np.abs(np.sort(rev.lam[128]) - exact.lam[0]).max() < 1e-6


def test_principal_curvatures_keep_the_grid_frame_order():
    assert [fld.name for fld in dataclasses.fields(hs.ShapeData)] == [
        "dim", "position", "normal", "lam", "support", "weights"]
    # (meridian, parallel) on both rotation paths, not sorted: (2, 1/2) at the
    # equator of the (2, 2, 1) spheroid
    for geom in (revolution_geometry(spheroid_profile(2.0, 1.0, 257)),
                 AnalyticSpheroid(2.0, 1.0, 257).geometry()):
        np.testing.assert_allclose(geom.lam[128], [2.0, 0.5], rtol=1e-6)
        assert np.array_equal(geom.mean, geom.lam.sum(axis=1))
        assert np.array_equal(geom.norm_A2, (geom.lam ** 2).sum(axis=1))


def test_revolution_two_path_consistency():
    rev = revolution_geometry(spheroid_profile(1.0, 1.3, 256))
    analytic = AnalyticSpheroid(1.0, 1.3, 256).geometry()
    assert np.abs(rev.lam - analytic.lam).max() < 1e-6
    # |A|^2 = H^2 - 2K
    assert np.abs(rev.mean ** 2 - 2.0 * rev.lam.prod(axis=1) - rev.norm_A2).max() < 1e-10


def test_revolution_orientation():
    geom = revolution_geometry(spheroid_profile(1.0, 1.3, 128))
    centroid = np.array([float(geom.weights @ geom.position[:, 0] / geom.weights.sum()), 0.0])
    inward = np.einsum("ij,ij->i", geom.normal, centroid - geom.position)
    assert np.all(inward[1:-1] > 0.0)
    assert np.all(geom.lam > 0.0)


def test_pole_regularity_enforced():
    u = np.linspace(0.0, np.pi, 64)
    # meets the axis at an angle; then tips that meet it at slope eps, at M = 64, 256 and
    # 1024: each pole's tolerance reads a curvature whose stencils do not reach the pole
    # sample, so a slight tilt cannot loosen its own check
    profiles = [(u, -np.cos(u) - 0.2 * u)]
    for eps in (1e-3, 1e-2):
        for m in (64, 256, 1024):
            v = np.linspace(0.0, np.pi, m)
            profiles.append((v, -np.cos(v) + eps * np.sin(v) * np.cos(v)))
    for v, x in profiles:
        y = np.sin(v)
        y[0] = y[-1] = 0.0
        with pytest.raises(GeometryError, match="orthogonal"):
            revolution_geometry(RevolutionProfile(np.column_stack([x, y])))


def test_interior_axis_touch_rejected():
    u = np.linspace(0.0, np.pi, 65)
    y = np.abs(np.sin(2.0 * u))       # touches the axis mid-profile
    y[0] = y[-1] = 0.0
    y[32] = 0.0
    with pytest.raises(GeometryError, match="axis"):
        RevolutionProfile(np.column_stack([-np.cos(u), y]))


@pytest.mark.parametrize("profile, message", [
    (spheroid_profile(1.0, 1.3, 16).profile[:15], r"at least 16 samples, got \(15, 2\)"),
    (np.full((32, 2), np.nan), "non-finite"),
], ids=["short", "non-finite"])
def test_profile_validation(profile, message):
    with pytest.raises(GeometryError, match=message):
        RevolutionProfile(profile)


def test_resampling_refuses_a_repeated_point():
    points = circle(1.0, 64).points.copy()
    points[6] = points[5]
    with pytest.raises(GeometryError, match="coincident samples"):
        PlaneCurve(points).resampled()


def test_profile_must_end_on_axis():
    u = np.linspace(0.0, np.pi, 64)
    with pytest.raises(GeometryError, match="axis"):
        RevolutionProfile(np.column_stack([-np.cos(u), np.sin(u) + 0.1]))


# ---------------------------------------------------------------------------
# analytic ellipsoids

def test_ellipsoid_sphere_point():
    geom = ellipsoid_geometry((1.5, 1.5, 1.5), 0.9, 2.0)
    np.testing.assert_allclose(geom.lam[0], [1.0 / 1.5, 1.0 / 1.5], rtol=1e-12)
    assert geom.support[0] == pytest.approx(-1.5, rel=1e-12)


def test_ellipsoid_equator_pinching():
    geom = ellipsoid_geometry((1.0, 1.0, 1.5), math.pi / 2.0, 0.3)
    lam = geom.lam[0]
    assert lam[0] != lam[1]
    assert np.all(lam > 0.0)
    assert lam[1] / lam[0] > 1.0


def test_ellipsoid_trace_consistency():
    # H = (a^2 + b^2 + c^2 - |X|^2) p^3 / (a b c)^2, with p^-2 = sum X_i^2 / a_i^4
    axes = np.array([1.0, 1.2, 1.5])
    geom = ellipsoid_geometry(tuple(axes), 1.1, 0.7)
    x = geom.position[0]
    p = float(np.sum(x ** 2 / axes ** 4)) ** -0.5
    exact = float(np.sum(axes ** 2) - x @ x) * p ** 3 / float(np.prod(axes ** 2))
    assert abs(float(geom.mean[0]) - exact) < 1e-12


def _generalized_eigenvalues(axes, u, v):
    """The principal curvatures at one ellipsoid point as `scipy.linalg.eigh(h, g)` gives them."""
    a, b, c = axes
    su, cu, sv, cv = math.sin(u), math.cos(u), math.sin(v), math.cos(v)
    pos = np.array([a * su * cv, b * su * sv, c * cu])
    xu = np.array([a * cu * cv, b * cu * sv, -c * su])
    xv = np.array([-a * su * sv, b * su * cv, 0.0])
    xuv = np.array([-a * cu * sv, b * cu * cv, 0.0])
    xvv = np.array([-a * su * cv, -b * su * sv, 0.0])
    nu = np.cross(xu, xv)
    nu /= -np.linalg.norm(nu) if nu @ pos > 0.0 else np.linalg.norm(nu)
    g = np.array([[xu @ xu, xu @ xv], [xu @ xv, xv @ xv]])
    h = np.array([[-pos @ nu, xuv @ nu], [xuv @ nu, xvv @ nu]])
    return scipy.linalg.eigh(h, g, eigvals_only=True)


@pytest.mark.parametrize("axes", [(1.0, 1.0, 1.0), (1.5, 1.5, 1.5), (1.0, 1.0, 1.5),
                                  (2.0, 2.0, 1.0), (1.0, 1.2, 1.5), (3.0, 1.0, 0.5),
                                  (0.5, 2.0, 1.3)])
def test_ellipsoid_principal_curvatures_match_the_generalized_eigenproblem(axes):
    # the closed-form eigenvalues of the 2x2 Weingarten map, against LAPACK's h v = lam g v,
    # ascending, near the poles and at umbilic sphere points included
    for u in np.linspace(1.001e-3, math.pi - 1.001e-3, 15):
        for v in np.linspace(-3.0, 6.0, 11):
            lam = ellipsoid_geometry(axes, u, v).lam[0]
            expect = _generalized_eigenvalues(axes, u, v)
            assert lam[0] <= lam[1]
            assert np.all(np.abs(lam - expect) <= 1e-14 * np.abs(expect)), (axes, u, v)


def test_ellipsoid_pole_proximity_rejected():
    with pytest.raises(GeometryError, match="pole"):
        ellipsoid_geometry((1.0, 1.0, 1.5), 1e-4, 0.0)


@pytest.mark.parametrize("axes", [(1.0, 1.0), (1.0, 0.0, 1.0), (1.0, math.nan, 1.0),
                                  (1.0, 1.0, math.inf)])
def test_ellipsoid_geometry_refuses_bad_semi_axes(axes):
    with pytest.raises(GeometryError, match="semi-axes must be 3 positive finite reals"):
        ellipsoid_geometry(axes, 1.0)


def test_ellipse_point_matches_curve_path():
    curve_g = curve_geometry(ellipse(2.0, 1.0, 512))
    idx = int(round(0.8 / (2.0 * np.pi / 512)))
    assert abs(curve_g.lam[idx, 0] - ellipse_curvature(2.0, 1.0, 2.0 * np.pi * idx / 512)) < 1e-6


# ---------------------------------------------------------------------------
# covariant calculus on grids

def test_covariant_hessian_constant_field():
    out = covariant_hessian(AnalyticSpheroid(1.0, 1.3, 128), np.ones(128))
    assert np.abs(out).max() < 1e-12


def test_covariant_hessian_sphere_height():
    # height along the axis restricted to the unit sphere: hess = -height * g,
    # with g = diag(1, y^2) the round metric in (arclength, rotation angle)
    sphere = AnalyticSpheroid(1.0, 1.0, 256)
    geom = sphere.geometry()
    height, y = geom.position[:, 0], geom.position[:, 1]
    hess = covariant_hessian(sphere, height)
    metric = np.zeros((256, 2, 2))
    metric[:, 0, 0], metric[:, 1, 1] = 1.0, y * y
    defect = hess + height[:, None, None] * metric
    assert np.abs(defect).max() < 1e-6
    assert np.abs(hess[:, 0, 1]).max() == 0.0      # symmetric by construction


def test_covariant_hessian_curve_reduction():
    # phi = x on the unit circle, parametrized by angle so the metric is 1:
    # the second arclength derivative is -x
    surf = circle(1.0, 256)
    phi = surf.points[:, 0]
    hess = covariant_hessian(surf, phi)
    assert np.abs(hess[:, 0, 0] + phi).max() < 1e-7


def test_covariant_hessian_shape_validation():
    with pytest.raises(GeometryError, match="does not match"):
        covariant_hessian(circle(1.0, 128), np.ones(64))


# grids whose metric E = |X_u|^2 is not constant, so the Christoffel term counts:
# each returns, at M samples, max |nabla^2 <X, e> - h_ij <nu, e>| over the components
# against the closed forms of h and nu (the Gauss formula with inward normals)
def _ellipse_height_defect(m):
    a, b = 2.0, 1.0
    th = 2.0 * np.pi * np.arange(m) / m
    e = np.array([0.6, 0.8])
    curve = ellipse(a, b, m)
    metric = a * a * np.sin(th) ** 2 + b * b * np.cos(th) ** 2
    nu = -np.column_stack([b * np.cos(th), a * np.sin(th)]) / np.sqrt(metric)[:, None]
    hess = covariant_hessian(curve, curve.points @ e)
    return np.abs(hess[:, 0, 0] - a * b / np.sqrt(metric) * (nu @ e)).max()


def _spheroid_height_defect(m, analytic):
    # e is the axis; on spheroid_profile the grid parameter is u / pi, so h_ss = pi^2 h_uu
    a, c = 1.0, 1.3
    u = np.linspace(0.0, np.pi, m)
    speed = np.sqrt((c * np.sin(u)) ** 2 + (a * np.cos(u)) ** 2)
    nu_x = a * np.cos(u) / speed
    h_uu, h_pp = a * c / speed, c / (a * speed) * (a * np.sin(u)) ** 2
    if analytic:
        hess, scale = covariant_hessian(AnalyticSpheroid(a, c, m), -c * np.cos(u)), 1.0
    else:
        profile = spheroid_profile(a, c, m)
        hess, scale = covariant_hessian(profile, profile.profile[:, 0]), np.pi ** 2
    return max(np.abs(hess[:, 0, 0] - scale * h_uu * nu_x).max(),
               np.abs(hess[:, 1, 1] - h_pp * nu_x).max())


@pytest.mark.parametrize("defect", [
    _ellipse_height_defect,
    lambda m: _spheroid_height_defect(m, analytic=True),
    lambda m: _spheroid_height_defect(m, analytic=False),
], ids=["ellipse-2:1", "ellipsoid-1:1:1.3", "spheroid-profile-1:1.3"])
def test_covariant_hessian_of_a_height_is_h_times_the_normal_height(defect):
    assert defect(128) / defect(256) >= 10.0


def _polar_points(r, theta):
    return np.column_stack([r * np.cos(theta), r * np.sin(theta)])


def test_covariant_hessian_refuses_a_nonconvex_curve():
    th = 2.0 * np.pi * np.arange(128) / 128
    curve = PlaneCurve(_polar_points(1.0 + 0.6 * np.cos(2.0 * th), th))
    with pytest.raises(NonConvexSurfaceError, match="curve is not convex"):
        covariant_hessian(curve, np.ones(128))


@pytest.mark.parametrize("call", [
    lambda s: covariant_hessian(s, np.ones(s.grid_size)),
    codazzi_residual,
    support_hessian_residual,
], ids=["covariant_hessian", "codazzi_residual", "support_hessian_residual"])
def test_grid_functions_refuse_a_nonconvex_profile(call):
    u = np.linspace(0.0, np.pi, 128)
    r = 1.0 + 0.4 * np.cos(2.0 * u)
    profile = RevolutionProfile(np.column_stack([-r * np.cos(u), r * np.sin(u)]))
    with pytest.raises(NonConvexSurfaceError, match="rotation surface is not convex"):
        call(profile)


def test_codazzi_residual_refuses_a_curve_and_names_its_dimension():
    with pytest.raises(GeometryError, match=r"n = 1"):
        codazzi_residual(ellipse(2.0, 1.0, 64))


def test_codazzi_sphere_exact():
    assert codazzi_residual(AnalyticSpheroid(1.0, 1.0, 128)) < 1e-10


def test_codazzi_spheroid_refinement():
    r128 = codazzi_residual(AnalyticSpheroid(1.0, 1.3, 128))
    r256 = codazzi_residual(AnalyticSpheroid(1.0, 1.3, 256))
    assert r128 / r256 >= 8.0
    assert r256 < 1e-7


def test_codazzi_discrete_profile():
    r128 = codazzi_residual(spheroid_profile(1.0, 1.3, 128))
    r256 = codazzi_residual(spheroid_profile(1.0, 1.3, 256))
    assert r128 / r256 >= 8.0


def test_support_hessian_circle():
    assert support_hessian_residual(circle(1.0, 256)) < 1e-10


def test_support_hessian_sphere():
    assert support_hessian_residual(AnalyticSpheroid(1.0, 1.0, 128)) < 1e-8


def test_support_hessian_spheroid_refinement():
    r128 = support_hessian_residual(AnalyticSpheroid(1.0, 1.3, 128))
    r256 = support_hessian_residual(AnalyticSpheroid(1.0, 1.3, 256))
    assert r128 / r256 >= 8.0


def test_support_hessian_ellipse_converges():
    r128 = support_hessian_residual(ellipse(1.5, 1.0, 128))
    r256 = support_hessian_residual(ellipse(1.5, 1.0, 256))
    assert r128 / r256 >= 8.0


def test_support_hessian_base_outside_rejected():
    moved = PlaneCurve(circle(1.0, 128).points - np.array([5.0, 0.0]))
    with pytest.raises(GeometryError, match="the origin is not strictly inside"):
        support_hessian_residual(moved)


# ---------------------------------------------------------------------------
# snapshots

def _surface_bits(surface):
    data = {PlaneCurve: "points", RevolutionProfile: "profile"}
    return getattr(surface, data[type(surface)]).tobytes()


def test_snapshot_round_trip(tmp_path):
    rng = np.random.default_rng(11)
    wobbly = PlaneCurve(circle(1.0, 32).points * (1.0 + 0.01 * rng.random((32, 1))))
    surfaces = [circle(1.0, 32), wobbly, spheroid_profile(1.0, 1.3, 40)]
    metadata = {"note": "x", "seed": 3, "t_final": 0.1 + 0.2, "ratio": 1.0 / 3.0,
                "tiny": 5e-324, "stop_reason": "aborted: dt underflow"}
    for surf in surfaces:
        doc = surface_to_document(surf, metadata={"note": "x"})
        assert doc["format_version"] == 1
        back = surface_from_document(doc)
        assert type(back) is type(surf)
        path = tmp_path / "snap.json"
        hs.save_surface(surf, path, metadata=metadata)
        loaded = hs.load_surface(path)
        assert type(loaded) is type(surf)
        assert _surface_bits(loaded) == _surface_bits(surf)       # every float bit-exact
        text = path.read_text()
        assert text.count("\n") == 1 and text.endswith("\n")      # one line of JSON
        assert json.loads(text)["metadata"] == metadata
    # the exact text written: key order, float reprs
    for surf, variant, field, data in (
            (circle(1.0, 16), "curve", "positions", circle(1.0, 16).points),
            (sphere_profile(1.0, 16), "revolution", "profile", sphere_profile(1.0, 16).profile)):
        expected = {"format_version": 1, "kind": "surface_snapshot", "metadata": {"seed": 3},
                    "variant": variant, "grid_size": 16,
                    field: [[float(x), float(y)] for x, y in data]}
        path = tmp_path / f"{variant}.json"
        hs.save_surface(surf, path, metadata={"seed": 3})
        assert path.read_text() == json.dumps(expected) + "\n"
    with pytest.raises(GeometryError, match="format_version"):
        surface_from_document({"format_version": 2, "variant": "curve"})
    for variant in ("blob", "ellipsoid"):
        with pytest.raises(GeometryError, match=f"unknown snapshot variant '{variant}'"):
            surface_from_document({"format_version": 1, "variant": variant})
    with pytest.raises(GeometryError, match="JSON object, got list"):
        surface_from_document([1, 2])
    with pytest.raises(GeometryError, match="curve snapshot needs 'positions'"):
        surface_from_document({"format_version": 1, "variant": "curve"})
    with pytest.raises(GeometryError, match=r"'positions' must have rank 2, got shape \(\)"):
        surface_from_document({"format_version": 1, "variant": "curve", "positions": 3})
    with pytest.raises(GeometryError, match="revolution snapshot needs 'profile', an array of numbers"):
        surface_from_document({"format_version": 1, "variant": "revolution",
                               "profile": [[0.0, "y"]]})
    points = circle(1.0, 64).points.tolist()
    for grid_size in (999, None, 64.5, "64"):
        doc = {"format_version": 1, "variant": "curve", "grid_size": grid_size,
               "positions": points}
        with pytest.raises(GeometryError, match=f"'grid_size' must be 64, the length of "
                                                f"'positions', got {grid_size!r}"):
            surface_from_document(doc)
    with pytest.raises(GeometryError, match="cannot serialize ShapeData"):
        surface_to_document(curve_geometry(circle(1.0, 32)))


@pytest.mark.parametrize("surface,f,u", [
    (ellipse(2.0, 1.0, 256), "H", lambda s: 1.0 + 0.3 * s.points[:, 0]),
    (spheroid_profile(1.0, 1.3, 256), "H", lambda s: 1.0 + 0.3 * s.profile[:, 0]),
    (spheroid_profile(1.0, 1.3, 256), "K", lambda s: 1.0 + 0.3 * s.profile[:, 0] ** 2),
], ids=["ellipse-H", "spheroid-H", "spheroid-K"])
def test_linearized_solver_matches_the_linearization_of_f(surface, f, u):
    # J u from the solver, (I - c J)^-1 u = u + c J u + O(c^2), against the central
    # difference of F under the normal displacement +-eps u; an axisymmetric u that
    # is smooth in x is even through the poles
    f = curvfun.parse_curvature_function(f, surface.dim)
    geom = surface.geometry()
    u = u(surface)
    c = 1e-8
    ju = (surface.linearized_solver(geom, f.gradient(geom.lam), c)(u) - u) / c
    eps = 1e-6
    speed = [f.value(surface.placed(geom.position + e * u[:, None] * geom.normal).geometry().lam)
             for e in (eps, -eps)]
    ju_fd = (speed[0] - speed[1]) / (2.0 * eps)
    assert np.abs(ju - ju_fd).max() < 1e-3 * np.abs(ju_fd).max()


def _dgtsv(lower, diag, upper, r):
    """One-shot tridiagonal solve, `dgtsv` on copies of the bands."""
    return dgtsv(lower.copy(), diag.copy(), upper.copy(), r.copy())[3]


def _sherman_morrison_dgtsv(lower, diag, upper, r):
    """The cyclic solve as two `dgtsv` solves of the tridiagonal part and their
    Sherman-Morrison sum, built from the bands at every call."""
    corner_first, corner_last = lower[0], upper[-1]
    gamma = -diag[0]
    b_diag = diag.copy()
    b_diag[0] -= gamma
    b_diag[-1] -= corner_first * corner_last / gamma
    v = np.zeros(diag.size)
    v[[0, -1]] = gamma, corner_last
    ratio = corner_first / gamma
    y = _dgtsv(lower[1:], b_diag, upper[:-1], r)
    z = _dgtsv(lower[1:], b_diag, upper[:-1], v)
    return y - z * ((y[0] + ratio * y[-1]) / (1.0 + z[0] + ratio * z[-1]))


def test_cyclic_tridiagonal_solver_has_the_bits_of_the_one_shot_solve():
    # one factorization serves every right-hand side; rows with a small diagonal
    # make dgttrf pivot.  Both solvers keep the bits of one-shot dgtsv solves.
    rng = np.random.default_rng(5)
    for n in (16, 64, 257):
        lower, upper = rng.normal(size=n), rng.normal(size=n)
        diag = rng.normal(size=n) * rng.uniform(0.0, 3.0, size=n)
        dense = np.diag(diag) + np.diag(lower[1:], -1) + np.diag(upper[:-1], 1)
        dense[0, -1], dense[-1, 0] = lower[0], upper[-1]
        solve = hs._cyclic_tridiagonal_solver(lower, diag, upper)
        solve_open = hs._tridiagonal_solver(lower[1:], diag, upper[:-1])
        for _ in range(3):
            r = rng.normal(size=n)
            x = solve(r)
            assert np.abs(dense @ x - r).max() < 1e-8 * np.abs(x).max()
            assert np.array_equal(x, _sherman_morrison_dgtsv(lower, diag, upper, r))
            assert np.array_equal(solve_open(r), _dgtsv(lower[1:], diag, upper[:-1], r))


def test_a_singular_linearized_system_is_refused():
    with pytest.raises(GeometryError, match="singular linearized flow system"):
        hs._tridiagonal_solver(np.zeros(7), np.zeros(8), np.zeros(7))


def test_each_linearized_solver_factors_once(monkeypatch):
    # both grids: one dgttrf per solver and one dgttrs per solve, plus one for the
    # curve's Sherman-Morrison vector
    calls = {"dgttrf": 0, "dgttrs": 0}
    for name in calls:
        def counted(*args, name=name, lapack=getattr(hs, name)):
            calls[name] += 1
            return lapack(*args)
        monkeypatch.setattr(hs, name, counted)
    for surface, correction in ((ellipse(2.0, 1.0, 64), 1), (spheroid_profile(1.0, 1.3, 64), 0)):
        f = curvfun.parse_curvature_function("H", surface.dim)
        geom = surface.geometry()
        calls.update(dgttrf=0, dgttrs=0)
        solve = surface.linearized_solver(geom, f.gradient(geom.lam), 1e-3)
        for _ in range(2):
            solve(np.ones(surface.grid_size))
        assert calls == {"dgttrf": 1, "dgttrs": 2 + correction}


@pytest.mark.parametrize("surface", [circle(1.0, 64), sphere_profile(1.0, 64),
                                     AnalyticSpheroid(1.0, 1.0, 64)],
                         ids=["curve", "profile", "analytic-spheroid"])
def test_each_grid_kind_serves_every_grid_operation(surface):
    # the unit circle or sphere: each operation reads the surface's own grid fields
    m, n = surface.grid_size, surface.dim
    geom = surface.geometry()
    assert geom.dim == n and geom.lam.shape == (m, n)
    assert np.abs(geom.lam - 1.0).max() < 1e-8
    hess = covariant_hessian(surface, np.ones(m))
    assert hess.shape == (m, n, n) and np.abs(hess).max() < 1e-11
    with pytest.raises(GeometryError, match=f"does not match grid \\({m},\\)"):
        covariant_hessian(surface, np.ones(2 * m))
    assert support_hessian_residual(surface) < 1e-10
    if n == 2:
        assert codazzi_residual(surface) < 1e-12


@pytest.mark.parametrize("call, message", [
    (lambda: AnalyticSpheroid(1.0, 1.2, 8), "meridian grid needs at least 16 samples"),
    (lambda: AnalyticSpheroid(0.0, 1.2, 64), r"positive finite reals, got \(0\.0, 1\.2\)"),
    (lambda: AnalyticSpheroid(1.0, -1.2, 64), r"positive finite reals, got \(1\.0, -1\.2\)"),
    (lambda: AnalyticSpheroid(math.nan, 1.2, 64), r"positive finite reals, got \(nan, 1\.2\)"),
    (lambda: AnalyticSpheroid(1.0, math.inf, 64), r"positive finite reals, got \(1\.0, inf\)"),
], ids=["ellipsoid-grid-8", "zero-axis", "negative-axis", "nan-axis", "inf-axis"])
def test_grid_operations_refuse_what_they_cannot_grid(call, message):
    with pytest.raises(GeometryError, match=message):
        call()
