import dataclasses
import json
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
                                     sphere_profile, spheroid_profile,
                                     support_hessian_residual,
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


_ON_CURVE = "base point lies on the curve; radial direction undefined"


@pytest.mark.parametrize("points,base_point,message", [
    (np.zeros((32, 2)), None, "degenerate parametrization (zero speed)"),
    (circle(1.0, 64).points, (1.0, 0.0), _ON_CURVE),
    (circle(3.0, 64).points, tuple(circle(3.0, 64).points[17]), _ON_CURVE),
    (np.column_stack([np.cos(4.0 * np.pi * np.arange(64) / 64),
                      np.sin(4.0 * np.pi * np.arange(64) / 64)]), None,
     "curve is not simple: turning number 2.000000 != 1"),
], ids=["zero-speed", "base-on-curve", "base-on-sample-17", "doubly-wound"])
def test_curve_refusals_keep_their_messages(points, base_point, message):
    with pytest.raises(GeometryError) as info:
        curve_geometry(PlaneCurve(points), base_point)
    assert type(info.value) is GeometryError and str(info.value) == message


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
    assert np.abs(np.sort(rev.lam[128]) - exact.lam[0]).max() < 1e-6


def test_principal_curvatures_keep_the_grid_frame_order():
    assert [fld.name for fld in dataclasses.fields(hs.ShapeData)] == [
        "dim", "position", "normal", "lam", "support", "weights"]
    # (meridian, parallel) on both rotation paths, not sorted: (2, 1/2) at the
    # equator of the (2, 2, 1) spheroid
    for geom in (revolution_geometry(spheroid_profile(2.0, 1.0, 257)),
                 extract_geometry(Ellipsoid((2.0, 2.0, 1.0)), grid_size=257)):
        np.testing.assert_allclose(geom.lam[128], [2.0, 0.5], rtol=1e-6)
        assert np.array_equal(geom.mean, geom.lam.sum(axis=1))
        assert np.array_equal(geom.norm_A2, (geom.lam ** 2).sum(axis=1))


def test_revolution_two_path_consistency():
    rev = revolution_geometry(spheroid_profile(1.0, 1.3, 256))
    analytic = extract_geometry(Ellipsoid((1.0, 1.0, 1.3)), grid_size=256)
    assert np.abs(rev.lam - analytic.lam).max() < 1e-6
    # |A|^2 = H^2 - 2K
    assert np.abs(rev.mean ** 2 - 2.0 * rev.lam.prod(axis=1) - rev.norm_A2).max() < 1e-10


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
    # H = (a^2 + b^2 + c^2 - |X|^2) p^3 / (a b c)^2, with p^-2 = sum X_i^2 / a_i^4
    axes = np.array([1.0, 1.2, 1.5])
    geom = ellipsoid_geometry(tuple(axes), 1.1, 0.7)
    x = geom.position[0]
    p = float(np.sum(x ** 2 / axes ** 4)) ** -0.5
    exact = float(np.sum(axes ** 2) - x @ x) * p ** 3 / float(np.prod(axes ** 2))
    assert abs(float(geom.mean[0]) - exact) < 1e-12


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
    # height along the axis restricted to the unit sphere: hess = -height * g,
    # with g = diag(1, y^2) the round metric in (arclength, rotation angle)
    geom = extract_geometry(Ellipsoid((1.0, 1.0, 1.0)), grid_size=256)
    height, y = geom.position[:, 0], geom.position[:, 1]
    hess = covariant_hessian(Ellipsoid((1.0, 1.0, 1.0)), height, 256)
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
        covariant_hessian(Ellipsoid((1.0, 1.0, 1.3)), np.ones(64), 128)


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
        hess, scale = covariant_hessian(Ellipsoid((a, a, c)), -c * np.cos(u), m), 1.0
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
            extract_geometry(Ellipsoid((1.0, 1.0, 1.3)), base_point=bad, grid_size=64)
        with pytest.raises(GeometryError, match="one real number"):
            support_hessian_residual(profile, base_point=bad)


# ---------------------------------------------------------------------------
# snapshots

def _surface_bits(surface):
    data = {PlaneCurve: "points", RevolutionProfile: "profile", Ellipsoid: "semi_axes"}
    return np.asarray(getattr(surface, data[type(surface)]), dtype=float).tobytes()


def test_snapshot_round_trip(tmp_path):
    rng = np.random.default_rng(11)
    wobbly = PlaneCurve(circle(1.0, 32).points * (1.0 + 0.01 * rng.random((32, 1))))
    surfaces = [circle(1.0, 32), wobbly, spheroid_profile(1.0, 1.3, 40),
                Ellipsoid((1.0, 1.0, 1.5)), Ellipsoid((math.pi, 1.0 / 3.0))]
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
    with pytest.raises(GeometryError, match="format_version"):
        surface_from_document({"format_version": 2, "variant": "curve"})
    with pytest.raises(GeometryError, match="variant"):
        surface_from_document({"format_version": 1, "variant": "blob"})
    with pytest.raises(GeometryError, match="JSON object, got list"):
        surface_from_document([1, 2])
    with pytest.raises(GeometryError, match="curve snapshot needs 'positions'"):
        surface_from_document({"format_version": 1, "variant": "curve"})
    with pytest.raises(GeometryError, match=r"'semi_axes' must have rank 1, got shape \(\)"):
        surface_from_document({"format_version": 1, "variant": "ellipsoid", "semi_axes": 3})
    with pytest.raises(GeometryError, match="revolution snapshot needs 'profile', an array of numbers"):
        surface_from_document({"format_version": 1, "variant": "revolution",
                               "profile": [[0.0, "y"]]})
    with pytest.raises(GeometryError, match="positive finite reals"):
        surface_from_document({"format_version": 1, "variant": "ellipsoid",
                               "semi_axes": [1.0, 1.0, math.nan]})


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
    speed = [f.value(surface.moved(e * u[:, None] * geom.normal).geometry().lam)
             for e in (eps, -eps)]
    ju_fd = (speed[0] - speed[1]) / (2.0 * eps)
    assert np.abs(ju - ju_fd).max() < 1e-3 * np.abs(ju_fd).max()


def test_cyclic_tridiagonal_solver_has_the_bits_of_the_one_shot_solve():
    # one factorization serves every right-hand side; rows with a small diagonal
    # make dgttrf pivot
    rng = np.random.default_rng(5)
    for n in (16, 64, 257):
        lower, upper = rng.normal(size=n), rng.normal(size=n)
        diag = rng.normal(size=n) * rng.uniform(0.0, 3.0, size=n)
        dense = np.diag(diag) + np.diag(lower[1:], -1) + np.diag(upper[:-1], 1)
        dense[0, -1], dense[-1, 0] = lower[0], upper[-1]
        solve = hs._cyclic_tridiagonal_solver(lower, diag, upper)
        for _ in range(3):
            r = rng.normal(size=n)
            x = solve(r)
            assert np.abs(dense @ x - r).max() < 1e-8 * np.abs(x).max()


def test_extract_geometry_dispatch():
    assert extract_geometry(circle(1.0, 64)).dim == 1
    assert extract_geometry(spheroid_profile(1.0, 1.2, 64)).dim == 2
    assert extract_geometry(Ellipsoid((1.0, 1.0, 1.2)), grid_size=64).dim == 2
    with pytest.raises(GeometryError, match="pointwise"):
        extract_geometry(Ellipsoid((1.0, 1.1, 1.2)))
