import math

import numpy as np
import pytest

from solitonlab import spaceform
from solitonlab.spaceform import chc, cotc, sample_geodesic_sphere, shc, support_rows


def test_flat_values():
    assert shc(0.0, 2.5) == 2.5
    assert chc(0.0, 7.0) == 1.0


def test_hyperbolic_values():
    assert shc(-1.0, 1.0) == pytest.approx(math.sinh(1.0), rel=1e-15)
    assert chc(-1.0, 1.0) == pytest.approx(math.cosh(1.0), rel=1e-15)


def test_spherical_values():
    assert shc(4.0, 0.5) == pytest.approx(math.sin(1.0) / 2.0, rel=1e-14)
    assert chc(4.0, 0.5) == pytest.approx(math.cos(1.0), rel=1e-14)


def test_continuity_across_zero():
    assert abs(shc(-1e-12, 1.0) - shc(0.0, 1.0)) < 1e-12
    assert abs(chc(1e-12, 1.0) - chc(0.0, 1.0)) < 1e-12
    # |shc(c,t) - t| <= K |c| with K ~ t^3/6 on t in [0, 10]
    for c in (1e-6, -1e-6, 1e-9, -1e-9):
        for t in np.linspace(0.0, 10.0, 21):
            assert abs(shc(c, t) - shc(0.0, t)) <= 170.0 * abs(c)


def test_derivative_identities():
    e = 1e-5
    for c in np.linspace(-4.0, 4.0, 17):
        for t in np.linspace(0.1, 3.0, 7):
            sh, ch = shc(c, t), chc(c, t)
            dsh = (shc(c, t + e) - shc(c, t - e)) / (2.0 * e)
            dch = (chc(c, t + e) - chc(c, t - e)) / (2.0 * e)
            assert abs(dsh - ch) <= 1e-8 * max(1.0, abs(ch))
            assert abs(dch + c * sh) <= 1e-8 * max(1.0, abs(c * sh))
            assert abs(ch * ch + c * sh * sh - 1.0) <= 1e-12 * max(1.0, ch * ch + abs(c) * sh * sh)


def test_support_flat_circle():
    th = np.linspace(0.0, 2.0 * np.pi, 13)
    x = np.column_stack([np.cos(th), np.sin(th)])
    np.testing.assert_allclose(support_rows(0.0, x, -x), -1.0, rtol=0.0, atol=1e-15)


def test_support_flat_sphere_radius():
    x = 3.5 * np.array([0.6, 0.0, 0.8])
    assert support_rows(0.0, x[None, :], -x[None, :] / 3.5)[0] == pytest.approx(-3.5, rel=1e-15)


def test_support_reduces_to_euclidean():
    rng = np.random.default_rng(7)
    for _ in range(50):
        x = rng.standard_normal(3)
        x /= np.linalg.norm(x) / rng.uniform(0.5, 3.0)
        nu = rng.standard_normal(3)
        nu /= np.linalg.norm(nu)
        assert support_rows(0.0, x[None, :], nu[None, :])[0] == pytest.approx(float(x @ nu),
                                                                             abs=1e-13)


def test_support_hyperbolic_sphere():
    rho0 = 0.8
    for c in (-1.0, -2.5):
        kappa = math.sqrt(-c)
        u = np.array([0.6, 0.8])
        x = np.array([math.cosh(kappa * rho0) / kappa,
                      math.sinh(kappa * rho0) / kappa * u[0],
                      math.sinh(kappa * rho0) / kappa * u[1]])
        nu = np.array([-math.sinh(kappa * rho0),
                       -math.cosh(kappa * rho0) * u[0],
                       -math.cosh(kappa * rho0) * u[1]])
        z = support_rows(c, x[None, :], nu[None, :])[0]
        assert z == pytest.approx(-shc(c, rho0), rel=1e-12)


def test_support_rejections():
    with pytest.raises(ValueError, match="base point"):
        support_rows(0.0, [[0.0, 0.0]], [[1.0, 0.0]])
    with pytest.raises(ValueError, match="unit"):
        support_rows(0.0, [[1.0, 0.0]], [[2.0, 0.0]])
    with pytest.raises(ValueError, match="<= 0"):
        support_rows(1.0, [[1.0, 0.0]], [[0.0, 1.0]])
    with pytest.raises(ValueError, match="hyperboloid"):
        support_rows(-1.0, [[1.0, 0.5, 0.0]], [[0.0, 0.0, 1.0]])
    with pytest.raises(ValueError, match=r"\(k, d\) arrays"):
        support_rows(0.0, [1.0, 0.0], [0.0, 1.0])


def test_sample_geodesic_sphere():
    for c in (0.0, -1.0):
        for dim in (1, 2, 3):
            s = sample_geodesic_sphere(c, 1.3, dim, 40)
            assert s.lam.shape == (40, dim)
            np.testing.assert_allclose(s.lam, cotc(c, 1.3), rtol=1e-14)
            np.testing.assert_allclose(s.support, -shc(c, 1.3), atol=1e-12)
    with pytest.raises(ValueError):
        sample_geodesic_sphere(0.5, 1.0, 2)
    with pytest.raises(ValueError):
        sample_geodesic_sphere(0.0, -1.0, 2)


def test_sample_support_matches_single_points():
    # the sampler's support is the bits of a one-row call at each sampled point
    for c in (0.0, -1.0, -400.0):
        for dim in (1, 2, 3):
            s = sample_geodesic_sphere(c, 1.3, dim, 40, seed=5)
            single = [support_rows(c, p[None, :], nu[None, :])[0]
                      for p, nu in zip(s.positions, s.normals)]
            assert np.array_equal(s.support, single)


def test_support_rows_match_single_points():
    # each row of a batch gets the bits of a one-row call: random flat rows, and
    # geodesic spheres at c = 0, -1 and -400
    rng = np.random.default_rng(11)
    nu = rng.standard_normal((30, 3))
    batches = [(0.0, rng.standard_normal((30, 3)), nu / np.linalg.norm(nu, axis=1, keepdims=True))]
    for c in (0.0, -1.0, -400.0):
        for dim in (1, 2, 3):
            s = sample_geodesic_sphere(c, 1.3, dim, 40, seed=5)
            batches.append((c, s.positions, s.normals))
    for c, x, nu in batches:
        rows = support_rows(c, x, nu)
        assert rows.shape == (len(x),)
        for i in range(len(x)):
            assert support_rows(c, x[i:i + 1], nu[i:i + 1]).tobytes() == rows[i:i + 1].tobytes()


@pytest.mark.parametrize("dim", [1, 2, 3])
@pytest.mark.parametrize("c", [-49.0, -64.0, -144.0])
def test_far_geodesic_spheres_pass_their_own_model_checks(c, dim):
    # kappa R = 7, 8 and 12: each pairing cancels terms of size cosh(kappa R)^2, whose
    # rounding the absolute tolerances 1e-10 and 1e-8 no longer covered; the support
    # keeps that rounding, relative to its size
    sphere = sample_geodesic_sphere(c, 1.0, dim, 64, seed=3)
    rounding = 16.0 * np.finfo(float).eps * math.cosh(math.sqrt(-c)) ** 2
    np.testing.assert_allclose(sphere.support, -shc(c, 1.0), rtol=rounding)


@pytest.mark.parametrize("dim", [1, 2, 3])
@pytest.mark.parametrize("c", [-400.0, -1e4])
def test_far_geodesic_sphere_supports_keep_their_digits(c, dim):
    # kappa R = 20 and 100: <<d_rho, nu>> = nu_0 / sinh(kappa rho) cancels nothing, so
    # Z = -shc(c, R) holds to rounding; the pairing lost every digit at kappa R = 20
    sphere = sample_geodesic_sphere(c, 1.0, dim, 64, seed=3)
    np.testing.assert_allclose(sphere.support, -shc(c, 1.0), rtol=1e-14)


@pytest.mark.parametrize("scale", [1.0 + 1e-8, 1.0 - 1e-8])
def test_a_normal_off_unit_by_1e_8_is_still_refused_at_kappa_r_7(scale):
    sphere = sample_geodesic_sphere(-49.0, 1.0, 2, 8)
    with pytest.raises(ValueError, match="normal must be unit"):
        support_rows(-49.0, sphere.positions, scale * sphere.normals)


@pytest.mark.parametrize("c, bad_position, bad_normal, message", [
    (0.0, [0.0, 0.0], [1.0, 0.0], "base point"),
    (0.0, [1.0, 0.0], [2.0, 0.0], "unit"),
    (1.0, [1.0, 0.0], [0.0, 1.0], "<= 0"),
    (-1.0, [1.0, 0.5, 0.0], [0.0, 0.0, 1.0], "hyperboloid"),
    (-1.0, [1.0, 0.0, 0.0], [0.0, 1.0, 0.0], "base point"),
    (-1.0, [math.cosh(0.5), math.sinh(0.5), 0.0], [0.0, 0.0, 2.0], "unit"),
    (-1.0, [math.cosh(0.5), math.sinh(0.5), 0.0], [0.0, 1.0, 0.0], "tangent"),
])
def test_support_refusals_fire_inside_a_batch(c, bad_position, bad_normal, message):
    with pytest.raises(ValueError, match=message):
        support_rows(c, [bad_position], [bad_normal])
    dim = len(bad_position) - (2 if c < 0.0 else 1)
    good = sample_geodesic_sphere(min(c, 0.0), 0.8, dim, 6)
    positions, normals = good.positions.copy(), good.normals.copy()
    positions[3], normals[3] = bad_position, bad_normal
    expect = message if c > 0.0 else rf"{message}.*\(point 3\)"
    with pytest.raises(ValueError, match=expect):
        support_rows(c, positions, normals)


def _shc_series(c, t):
    """The five-term series that `shc` sums for small |c| t^2."""
    u = c * t * t
    acc, term = 0.0, t
    for k in range(5):
        acc += term
        term *= -u / ((2 * k + 2) * (2 * k + 3))
    return acc


def _chc_series(c, t):
    """The five-term series that `chc` sums for small |c| t^2."""
    u = c * t * t
    acc, term = 0.0, 1.0
    for k in range(5):
        acc += term
        term *= -u / ((2 * k + 1) * (2 * k + 2))
    return acc


@pytest.mark.parametrize("t", [0.0, 1e-300, -1e-300, 0.3, 1.3, 50.0])
def test_flat_values_are_the_series_bits(t):
    for c in (0.0, -0.0):
        assert shc(c, t).hex() == _shc_series(c, t).hex()
        assert chc(c, t).hex() == _chc_series(c, t).hex()
