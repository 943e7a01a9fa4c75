"""The identity suite: one (name, residual, tolerance) row per identity check.

The layers are called through their modules (`curvfun.pair_sign_gaps`, not a
name imported from it), so a wrapper put on a module function sees each call.
"""

import itertools

import numpy as np

from . import curvfun, hypersurface, soliton, spaceform


def _random_rotation(rng, n):
    q, r = np.linalg.qr(rng.standard_normal((n, n)))
    return q * np.sign(np.diag(r))


def _random_spd(rng, n):
    q = _random_rotation(rng, n)
    eig = rng.uniform(0.2, 3.0, n)
    a = (q * eig) @ q.T
    return 0.5 * (a + a.T)


def _central_differences(fn, lam, step=1e-5):
    """Central differences of `fn` along each eigenvalue axis, stacked on axis 1."""
    steps = step * np.eye(lam.shape[1])
    return np.stack([(fn(lam + e) - fn(lam - e)) / (2.0 * step) for e in steps], axis=1)


def _eigenvalue_checks(rows, rng, sample_count, n, f):
    tag = f"{f.name}_n{n}"
    lam = rng.uniform(0.2, 3.0, size=(sample_count, n))
    values = f.value(lam)
    scale = np.maximum(1.0, np.abs(values))

    worst = 0.0
    for perm in itertools.permutations(range(n)):
        worst = max(worst, float((np.abs(f.value(lam[:, perm]) - values) / scale).max()))
    rows.append((f"{tag}_permutation_symmetry", worst, 1e-14))

    worst = 0.0
    for t in (0.5, 2.0, 10.0):
        expect = t ** f.degree * values
        worst = max(worst, float((np.abs(f.value(t * lam) - expect)
                                  / np.maximum(1.0, np.abs(expect))).max()))
    rows.append((f"{tag}_homogeneity", worst, 1e-12))

    fd_n = min(sample_count, 50)
    grad = f.gradient(lam[:fd_n])
    gerr = np.abs(_central_differences(f.value, lam[:fd_n]) - grad)
    rows.append((f"{tag}_gradient_fd", float((gerr / np.maximum(1.0, np.abs(grad))).max()), 1e-6))
    # differencing the analytic gradient rather than taking second differences
    # of the value keeps the rounding error near eps / step, not eps / step^2
    fd_hess = _central_differences(f.gradient, lam[:fd_n])
    hess = f.hessian(lam[:fd_n])
    herr = np.abs(0.5 * (fd_hess + fd_hess.transpose(0, 2, 1)) - hess)
    rows.append((f"{tag}_hessian_fd", float((herr / np.maximum(1.0, np.abs(hess))).max()), 1e-6))

    worst = 0.0
    for _ in range(fd_n):
        eig = np.sort(rng.uniform(0.2, 3.0, n))
        while np.diff(eig).min() < 1e-3:
            eig = np.sort(rng.uniform(0.2, 3.0, n))
        a = np.diag(eig)
        b = _random_spd(rng, n) - np.diag(rng.uniform(0.0, 1.0, n))
        form = curvfun.matrix_second_form(f, a, b)
        s = 1e-4
        plus, mid, minus = f.value(np.linalg.eigvalsh(np.stack([a + s * b, a, a - s * b])))
        fd = (plus - 2.0 * mid + minus) / s ** 2
        worst = max(worst, abs(form - fd) / max(1.0, abs(form)))
    rows.append((f"{tag}_second_form_fd", worst, 1e-5))

    worst_basis = worst_e1 = worst_e2 = 0.0
    for _ in range(sample_count):
        a = _random_spd(rng, n)
        q = _random_rotation(rng, n)
        d_here = curvfun.matrix_first_derivative(f, a)
        d_rot = curvfun.matrix_first_derivative(f, q @ a @ q.T)
        worst_basis = max(worst_basis, float(np.abs(d_rot - q @ d_here @ q.T).max())
                          / max(1.0, float(np.abs(d_here).max())))
        fval = f.value(np.linalg.eigvalsh(a))
        r1, r2 = curvfun.euler_residuals(f, a)
        worst_e1 = max(worst_e1, r1 / max(1.0, abs(fval)))
        worst_e2 = max(worst_e2, r2 / max(1.0, abs(fval)))
    rows.append((f"{tag}_basis_invariance", worst_basis, 1e-10))
    rows.append((f"{tag}_euler_first", worst_e1, 1e-10))
    rows.append((f"{tag}_euler_second", worst_e2, 1e-10))


def _pair_gap_checks(rows, rng, n):
    convex = curvfun.EuclideanNorm(n)
    concave = curvfun.GeometricMean(n)
    lam = rng.uniform(0.05, 4.0, size=(1000, n))
    # per row, the size of the terms that each gap cancels (both functions have degree 1)
    value_f, value_g = convex.value(lam), concave.value(lam)
    grad_f, grad_g = convex.gradient(lam), concave.gradient(lam)
    lam_sq = lam * lam
    s1 = (np.abs(value_g * curvfun._row_dot(grad_f, lam_sq))
          + np.abs(value_f * curvfun._row_dot(grad_g, lam_sq)))
    s2 = np.abs(value_f * grad_g.sum(axis=1)) + np.abs(value_g * grad_f.sum(axis=1))
    for name, f, g, sign in (("convex_concave", convex, concave, -1.0),
                             ("swapped", concave, convex, 1.0)):
        g1, g2 = curvfun.pair_sign_gaps(f, g, lam)
        shortfall = max(0.0, (sign * g1 / s1).max(), (sign * g2 / s2).max())
        rows.append((f"pair_gaps_{name}_n{n}", float(shortfall), 1e-12))


def _ellipse_curvature_error(a, b, m):
    geom = hypersurface.curve_geometry(hypersurface.ellipse(a, b, m))
    th = 2.0 * np.pi * np.arange(m) / m
    exact = a * b / (a * a * np.sin(th) ** 2 + b * b * np.cos(th) ** 2) ** 1.5
    return float(np.abs(geom.lam[:, 0] - exact).max())


def _geometry_checks(rows):
    geom = hypersurface.curve_geometry(hypersurface.circle(1.0, 256))
    rows.append(("circle_curvature_m256", float(np.abs(geom.lam - 1.0).max()), 1e-8))
    rows.append(("circle_support_m256", float(np.abs(geom.support + 1.0).max()), 1e-10))

    geom = hypersurface.curve_geometry(hypersurface.ellipse(2.0, 1.0, 512))
    rows.append(("ellipse_max_curvature_m512", abs(float(geom.lam.max()) - 2.0), 1e-5))
    factor = _ellipse_curvature_error(2.0, 1.0, 128) / _ellipse_curvature_error(2.0, 1.0, 256)
    rows.append(("ellipse_curvature_refinement_shortfall", max(0.0, 10.0 - factor), 0.0))

    sphere = hypersurface.Ellipsoid((1.0, 1.0, 1.0))
    spheroid = hypersurface.Ellipsoid((1.0, 1.0, 1.3))
    rows.append(("codazzi_sphere_m128", hypersurface.codazzi_residual(sphere, 128), 1e-10))
    factor = (hypersurface.codazzi_residual(spheroid, 128)
              / hypersurface.codazzi_residual(spheroid, 256))
    rows.append(("codazzi_spheroid_refinement_shortfall", max(0.0, 8.0 - factor), 0.0))
    rows.append(("support_hessian_sphere_m128",
                 hypersurface.support_hessian_residual(sphere, grid_size=128), 1e-8))
    factor = (hypersurface.support_hessian_residual(spheroid, grid_size=128)
              / hypersurface.support_hessian_residual(spheroid, grid_size=256))
    rows.append(("support_hessian_spheroid_refinement_shortfall", max(0.0, 8.0 - factor), 0.0))

    sph_geom = hypersurface.spheroid_meridian_geometry(1.0, 1.0, 256)
    height = sph_geom.position[:, 0]
    hess = hypersurface.covariant_hessian(sphere, height, 256)
    defect = hess + height[:, None, None] * sph_geom.metric
    rows.append(("covariant_hessian_sphere_height_m256", float(np.abs(defect).max()), 1e-6))
    const = hypersurface.covariant_hessian(sphere, np.ones(256), 256)
    rows.append(("covariant_hessian_constant", float(np.abs(const).max()), 1e-12))

    rev = hypersurface.revolution_geometry(hypersurface.spheroid_profile(2.0, 1.0, 257))
    exact = hypersurface.ellipsoid_geometry((2.0, 2.0, 1.0), np.pi / 2.0, 0.0)
    rows.append(("spheroid_equator_cross_oracle",
                 float(np.abs(rev.lam[128] - exact.lam[0]).max()), 1e-6))
    rows.append(("umbilic_sphere_defect",
                 float(np.abs(2.0 * sph_geom.norm_A2 - sph_geom.mean ** 2).max()), 1e-10))

    point = hypersurface.ellipsoid_geometry((1.0, 1.0, 1.5), 0.9, 0.7)
    trace_w = float(np.trace(point.weingarten[0]))
    trace_gh = float(np.sum(np.linalg.inv(point.metric[0]) * point.second_form[0]))
    rows.append(("weingarten_trace_consistency", abs(trace_w - trace_gh), 1e-12))
    w = rev.weingarten
    two_path = np.abs(np.einsum("kij,kji->k", w, w) - rev.norm_A2)
    rows.append(("norm_A2_two_path", float(two_path.max()), 1e-10))


def _spaceform_checks(rows):
    cs = np.linspace(-4.0, 4.0, 17)
    ts = np.linspace(0.1, 3.0, 7)
    e = 1e-5
    worst_sh = worst_ch = worst_py = 0.0
    for c in cs:
        for t in ts:
            sh, ch = spaceform.shc(c, t), spaceform.chc(c, t)
            dsh = (spaceform.shc(c, t + e) - spaceform.shc(c, t - e)) / (2.0 * e)
            dch = (spaceform.chc(c, t + e) - spaceform.chc(c, t - e)) / (2.0 * e)
            worst_sh = max(worst_sh, abs(dsh - ch) / max(1.0, abs(ch)))
            worst_ch = max(worst_ch, abs(dch + c * sh) / max(1.0, abs(c * sh)))
            worst_py = max(worst_py, abs(ch ** 2 + c * sh ** 2 - 1.0)
                           / max(1.0, ch ** 2 + abs(c) * sh ** 2))
    rows.append(("shc_derivative_grid", worst_sh, 1e-8))
    rows.append(("chc_derivative_grid", worst_ch, 1e-8))
    rows.append(("shc_chc_pythagoras", worst_py, 1e-12))

    worst = 0.0
    for c in (1e-12, 1e-9, 1e-6, -1e-12, -1e-9, -1e-6):
        for t in np.linspace(0.0, 10.0, 21):
            worst = max(worst, abs(spaceform.shc(c, t) - spaceform.shc(0.0, t)) / abs(c))
    rows.append(("shc_continuity_at_c0", worst, 170.0))


def _soliton_checks(rows, rng):
    worst = {0.0: 0.0, -1.0: 0.0}
    for n in (2, 3):
        for f in curvfun.builtin_functions(n, include_anisotropy=False):
            for c in worst:
                tau = soliton.sphere_tau(f, 1.3, c)
                samples = spaceform.sample_geodesic_sphere(c, 1.3, n, 64, seed=0)
                res = float(np.abs(soliton.residual_field(samples, f, tau)).max())
                worst[c] = max(worst[c], res)
    rows.append(("sphere_residual_builtins_c0", worst[0.0], 1e-10))
    rows.append(("sphere_residual_builtins_cm1", worst[-1.0], 1e-10))

    f = curvfun.MeanCurvature(2)
    worst = 0.0
    for radius in rng.uniform(0.1, 10.0, 20):
        tau = soliton.sphere_tau(f, radius, 0.0)
        worst = max(worst, abs(soliton.solve_sphere_radius(f, tau, 0.0) - radius))
    rows.append(("sphere_radius_roundtrip", worst, 1e-10))

    worst = 0.0
    for f in (curvfun.MeanCurvature(2), curvfun.GaussCurvature(2), curvfun.EuclideanNorm(3)):
        for s in (0.5, 2.0, 7.0):
            lhs = soliton.sphere_tau(f, s * 1.7, 0.0)
            rhs = s ** (-(f.degree + 1.0)) * soliton.sphere_tau(f, 1.7, 0.0)
            worst = max(worst, abs(lhs - rhs) / abs(rhs))
    rows.append(("sphere_tau_scaling_covariance", worst, 1e-12))

    worst = 0.0
    for m in np.linspace(1.02, 100.0, 50):
        t = soliton.threshold_high(m)
        q = soliton.pinching_quadratics(m, t)[1]
        worst = max(worst, abs(q) / ((m - 1.0) * (t * t + t) + 2.0))
    rows.append(("threshold_root_check_high", worst, 1e-12))
    worst = 0.0
    for m in np.linspace(-100.0, -7.02, 50):
        t = soliton.threshold_low(m)
        q = soliton.pinching_quadratics(m, t)[0]
        worst = max(worst, abs(q) / (2.0 * t * t + abs(m - 1.0) * (t + 1.0)))
    rows.append(("threshold_root_check_low", worst, 1e-12))

    geom = hypersurface.curve_geometry(hypersurface.ellipse(2.0, 1.0, 256))
    report = soliton.fit_tau(geom, curvfun.MeanCurvature(1))
    res = geom.mean + report.tau_fit * geom.support
    normal_eq = abs(float(geom.weights @ (geom.support * res)))
    rows.append(("fit_tau_normal_equation", normal_eq / max(1.0, float(
        geom.weights @ (geom.support ** 2))), 1e-10))

    sphere_geom = hypersurface.revolution_geometry(hypersurface.sphere_profile(1.4142135623730951, 256))
    rep = soliton.fit_tau(sphere_geom, curvfun.MeanCurvature(2))
    rows.append(("fit_tau_sphere_matches_closed_form",
                 abs(rep.tau_fit - soliton.sphere_tau(curvfun.MeanCurvature(2),
                                                      1.4142135623730951, 0.0)), 1e-8))
    rows.append(("fit_tau_sphere_relative_residual", rep.relative_residual, 1e-8))


def identity_suite_checks(sample_count, seed):
    """All identity/residual checks; returns (name, residual, tolerance) rows."""
    if sample_count <= 0:
        raise ValueError("identity-suite needs a positive --samples count")
    rng = np.random.default_rng(seed)
    rows = []
    for n in (2, 3):
        for f in curvfun.builtin_functions(n):
            _eigenvalue_checks(rows, rng, sample_count, n, f)
    for n in (2, 3):
        _pair_gap_checks(rows, rng, n)
    _geometry_checks(rows)
    _spaceform_checks(rows)
    _soliton_checks(rows, rng)
    return rows
