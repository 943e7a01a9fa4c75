import math

import numpy as np
import pytest

from solitonlab import curvfun
from solitonlab import hypersurface as hs
from solitonlab.hypersurface import (Ellipsoid, GeometryError, NonConvexSurfaceError,
                                     PlaneCurve, RevolutionProfile, circle,
                                     codazzi_residual, covariant_hessian,
                                     curve_geometry, ellipse, ellipsoid_geometry,
                                     extract_geometry, revolution_geometry,
                                     sphere_profile, spheroid_meridian_geometry,
                                     spheroid_profile, support_hessian_residual,
                                     surface_from_document, surface_to_document)


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


def test_curve_validation():
    with pytest.raises(GeometryError, match="16"):
        PlaneCurve(np.zeros((4, 2)))
    with pytest.raises(GeometryError, match="non-finite"):
        PlaneCurve(np.full((32, 2), np.nan))


def test_base_point_override():
    geom = curve_geometry(circle(1.0, 128), base_point=(0.5, 0.0))
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
    assert np.abs(rev.lam[128] - exact.lam[0]).max() < 1e-6


def test_revolution_two_path_consistency():
    rev = revolution_geometry(spheroid_profile(1.0, 1.3, 256))
    analytic = spheroid_meridian_geometry(1.0, 1.3, 256)
    assert np.abs(rev.lam - analytic.lam).max() < 1e-6
    w = rev.weingarten
    assert np.abs(np.einsum("kij,kji->k", w, w) - rev.norm_A2).max() < 1e-10


def test_revolution_orientation():
    geom = revolution_geometry(spheroid_profile(1.0, 1.3, 128))
    centroid = np.array([float(geom.weights @ geom.position[:, 0] / geom.weights.sum()), 0.0, 0.0])
    inward = np.einsum("ij,ij->i", geom.normal, centroid - geom.position)
    assert np.all(inward[1:-1] > 0.0)
    assert np.all(geom.lam > 0.0)


def test_pole_regularity_enforced():
    u = np.linspace(0.0, np.pi, 64)
    x = -np.cos(u) - 0.2 * u          # meets the axis at an angle
    y = np.sin(u)
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
    geom = ellipsoid_geometry((1.0, 1.2, 1.5), 1.1, 0.7)
    trace_w = float(np.trace(geom.weingarten[0]))
    trace_gh = float(np.sum(np.linalg.inv(geom.metric[0]) * geom.second_form[0]))
    assert abs(trace_w - trace_gh) < 1e-12
    assert trace_w == pytest.approx(float(geom.mean[0]), abs=1e-12)


def test_ellipsoid_pole_proximity_rejected():
    with pytest.raises(GeometryError, match="pole"):
        ellipsoid_geometry((1.0, 1.0, 1.5), 1e-4, 0.0)


def test_ellipse_point_matches_curve_path():
    geom = ellipsoid_geometry((2.0, 1.0), 0.8)
    assert geom.lam[0, 0] == pytest.approx(ellipse_curvature(2.0, 1.0, 0.8), rel=1e-12)
    curve_g = curve_geometry(ellipse(2.0, 1.0, 512))
    idx = int(round(0.8 / (2.0 * np.pi / 512)))
    assert abs(curve_g.lam[idx, 0] - ellipse_curvature(2.0, 1.0, 2.0 * np.pi * idx / 512)) < 1e-6


# ---------------------------------------------------------------------------
# covariant calculus on grids

def test_covariant_hessian_constant_field():
    out = covariant_hessian(Ellipsoid((1.0, 1.0, 1.3)), np.ones(128), 128)
    assert np.abs(out).max() < 1e-12


def test_covariant_hessian_sphere_height():
    # height along the axis restricted to the unit sphere: hess = -height * g
    geom = spheroid_meridian_geometry(1.0, 1.0, 256)
    height = geom.position[:, 0]
    hess = covariant_hessian(Ellipsoid((1.0, 1.0, 1.0)), height, 256)
    defect = hess + height[:, None, None] * geom.metric
    assert np.abs(defect).max() < 1e-6
    assert np.abs(hess[:, 0, 1]).max() == 0.0      # symmetric by construction


def test_covariant_hessian_curve_reduction():
    # phi = x on the unit circle: second arclength derivative is -x
    surf = circle(1.0, 256)
    phi = surf.points[:, 0]
    hess = covariant_hessian(surf, phi)
    geom = curve_geometry(surf)
    assert np.abs(hess[:, 0, 0] + phi * geom.metric[:, 0, 0]).max() < 1e-7


def test_covariant_hessian_shape_validation():
    with pytest.raises(GeometryError, match="does not match"):
        covariant_hessian(Ellipsoid((1.0, 1.0, 1.3)), np.ones(64), 128)


def test_codazzi_sphere_exact():
    assert codazzi_residual(Ellipsoid((1.0, 1.0, 1.0)), 128) < 1e-10


def test_codazzi_spheroid_refinement():
    spheroid = Ellipsoid((1.0, 1.0, 1.3))
    r128 = codazzi_residual(spheroid, 128)
    r256 = codazzi_residual(spheroid, 256)
    assert r128 / r256 >= 8.0
    assert r256 < 1e-7


def test_codazzi_discrete_profile():
    r128 = codazzi_residual(spheroid_profile(1.0, 1.3, 128))
    r256 = codazzi_residual(spheroid_profile(1.0, 1.3, 256))
    assert r128 / r256 >= 8.0


def test_codazzi_triaxial_rejected():
    with pytest.raises(GeometryError, match="axisymmetric"):
        codazzi_residual(Ellipsoid((1.0, 1.2, 1.5)), 128)


def test_support_hessian_circle():
    assert support_hessian_residual(circle(1.0, 256)) < 1e-10


def test_support_hessian_sphere():
    assert support_hessian_residual(Ellipsoid((1.0, 1.0, 1.0)), grid_size=128) < 1e-8


def test_support_hessian_spheroid_refinement():
    spheroid = Ellipsoid((1.0, 1.0, 1.3))
    r128 = support_hessian_residual(spheroid, grid_size=128)
    r256 = support_hessian_residual(spheroid, grid_size=256)
    assert r128 / r256 >= 8.0


def test_support_hessian_ellipse_converges():
    r128 = support_hessian_residual(ellipse(1.5, 1.0, 128))
    r256 = support_hessian_residual(ellipse(1.5, 1.0, 256))
    assert r128 / r256 >= 8.0


def test_support_hessian_base_outside_rejected():
    with pytest.raises(GeometryError, match="inside"):
        support_hessian_residual(circle(1.0, 128), base_point=(5.0, 0.0))


def test_curve_base_point_must_be_a_pair():
    curve = ellipse(2.0, 1.0, 64)
    assert curve_geometry(curve, base_point=(0.3, 0.1)).support.shape == (64,)
    for bad in (0.3, [0.3], (0.3, 0.1, 0.0), [], [[0.3, 0.1]]):
        with pytest.raises(GeometryError, match=r"pair \(x, y\)"):
            curve_geometry(curve, base_point=bad)
        with pytest.raises(GeometryError, match=r"pair \(x, y\)"):
            support_hessian_residual(curve, base_point=bad)


def test_rotation_base_point_must_be_one_number():
    profile = spheroid_profile(1.0, 1.3, 64)
    shifted = revolution_geometry(profile, base_point=np.float64(0.1))
    assert np.array_equal(shifted.support, revolution_geometry(profile, base_point=0.1).support)
    for bad in ((0.3, 0.1), [0.3], np.array(0.3), "0.3", 1j):
        with pytest.raises(GeometryError, match="one real number"):
            revolution_geometry(profile, base_point=bad)
        with pytest.raises(GeometryError, match="one real number"):
            spheroid_meridian_geometry(1.0, 1.3, 64, base_point=bad)
        with pytest.raises(GeometryError, match="one real number"):
            support_hessian_residual(profile, base_point=bad)


# ---------------------------------------------------------------------------
# snapshots

def test_snapshot_round_trip(tmp_path):
    surfaces = [circle(1.0, 32), spheroid_profile(1.0, 1.3, 40), Ellipsoid((1.0, 1.0, 1.5))]
    for surf in surfaces:
        doc = surface_to_document(surf, metadata={"note": "x"})
        assert doc["format_version"] == 1
        back = surface_from_document(doc)
        assert type(back) is type(surf)
        path = tmp_path / "snap.json"
        hs.save_surface(surf, path)
        loaded = hs.load_surface(path)
        assert type(loaded) is type(surf)
    with pytest.raises(GeometryError, match="format_version"):
        surface_from_document({"format_version": 2, "variant": "curve"})
    with pytest.raises(GeometryError, match="variant"):
        surface_from_document({"format_version": 1, "variant": "blob"})


def test_min_spacing_counts_the_closing_segment_but_not_the_pole_chord():
    th = 2.0 * np.pi * np.linspace(0.0, 0.999, 32)      # last sample just short of the first
    curve = PlaneCurve(np.column_stack([np.cos(th), np.sin(th)]))
    closing = float(np.linalg.norm(curve.points[0] - curve.points[-1]))
    assert closing < 0.01
    assert curve.min_spacing() == closing

    s = np.linspace(-1.0, 1.0, 17)                       # a thin tent; poles 0.02 apart
    flat = RevolutionProfile(np.column_stack([0.01 * s, 1.0 - np.abs(s)]))
    chord = float(np.linalg.norm(flat.profile[0] - flat.profile[-1]))
    segments = np.linalg.norm(np.diff(flat.profile, axis=0), axis=1)
    assert chord < segments.min()
    assert flat.min_spacing() == float(segments.min())


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
    lam = np.diagonal(geom.weingarten, axis1=1, axis2=2)
    u = u(surface)
    c = 1e-8
    ju = (surface.linearized_solver(geom, f.gradient(lam), c)(u) - u) / c
    eps = 1e-6
    speed = [f.value(surface.moved(e * u[:, None] * geom.normal).geometry().lam)
             for e in (eps, -eps)]
    ju_fd = (speed[0] - speed[1]) / (2.0 * eps)
    assert np.abs(ju - ju_fd).max() < 1e-3 * np.abs(ju_fd).max()


def test_extract_geometry_dispatch():
    assert extract_geometry(circle(1.0, 64)).dim == 1
    assert extract_geometry(spheroid_profile(1.0, 1.2, 64)).dim == 2
    assert extract_geometry(Ellipsoid((1.0, 1.0, 1.2)), grid_size=64).dim == 2
    with pytest.raises(GeometryError, match="pointwise"):
        extract_geometry(Ellipsoid((1.0, 1.1, 1.2)))
