"""The identity suite: one (name, residual, tolerance) row per identity check.

The curvature-function checks draw their samples in bulk, one generator call per
array, and evaluate each function once per pass: every eigenvalue row of a pass goes
to one `value` call and every row that needs a gradient to one `gradient` call.
The layers are called through their modules (`curvfun.pair_sign_gaps`, not a
name imported from it), so a wrapper put on a module function sees each call.
Worst residuals are numpy maxima, which keep a NaN where Python's `max` can drop it.
"""

import itertools

import numpy as np

from . import curvfun, hypersurface, soliton, spaceform


def _rotations(gauss):
    """Rotations from a (k, n, n) stack of standard normal draws, one stacked QR."""
    q, r = np.linalg.qr(gauss)
    return q * np.sign(np.diagonal(r, axis1=1, axis2=2))[:, None, :]


def _spd(q, eig):
    """Symmetric matrices with eigenvalue rows `eig` in the frames `q`."""
    a = (q * eig[:, None, :]) @ q.transpose(0, 2, 1)
    return 0.5 * (a + a.transpose(0, 2, 1))


def _step_rows(lam, step):
    """`lam` moved by +step and by -step along each eigenvalue axis: a (2, n, k, n) stack."""
    steps = step * np.eye(lam.shape[1])[:, None, :]
    return np.stack([lam + steps, lam - steps])


def _central_differences(moved, step):
    """Central differences from a function's results on `_step_rows(lam, step)`.

    The axis of differentiation is axis 1, so values give (k, n) and gradients (k, n, n).
    """
    return np.moveaxis((moved[0] - moved[1]) / (2.0 * step), 0, 1)


def _stacked(fn, blocks):
    """`fn` of every block of (..., n) eigenvalue rows in one call, split back by block."""
    flat = [block.reshape(-1, block.shape[-1]) for block in blocks]
    out = fn(np.concatenate(flat))
    parts = np.split(out, np.cumsum([len(rows) for rows in flat])[:-1])
    return [part.reshape(block.shape[:-1] + part.shape[1:]) for part, block in zip(parts, blocks)]


def _distinct_eigenvalues(rng, k, n, gap=1e-3):
    """k sorted uniform(0.2, 3) rows; a row with two entries closer than `gap` is redrawn."""
    eig = np.sort(rng.uniform(0.2, 3.0, (k, n)), axis=1)
    redraw = np.diff(eig, axis=1).min(axis=1) < gap
    while redraw.any():
        eig[redraw] = np.sort(rng.uniform(0.2, 3.0, (int(redraw.sum()), n)), axis=1)
        redraw = np.diff(eig, axis=1).min(axis=1) < gap
    return eig


def _eigenvalue_checks(rows, rng, sample_count, n, f):
    tag = f"{f.name}_n{n}"
    fd_n = min(sample_count, 50)
    lam = rng.uniform(0.2, 3.0, size=(sample_count, n))
    eig = _distinct_eigenvalues(rng, fd_n, n)
    form_gauss = rng.standard_normal((fd_n, n, n))
    form_eig = rng.uniform(0.2, 3.0, (fd_n, n))
    shift = rng.uniform(0.0, 1.0, (fd_n, n))
    spd_gauss = rng.standard_normal((sample_count, n, n))
    spd_eig = rng.uniform(0.2, 3.0, (sample_count, n))
    rot_gauss = rng.standard_normal((sample_count, n, n))

    q_form, q_spd, q = np.split(_rotations(np.concatenate([form_gauss, spd_gauss, rot_gauss])),
                                [fd_n, fd_n + sample_count])
    eye = np.eye(n)
    a = eig[:, :, None] * eye
    b = _spd(q_form, form_eig) - shift[:, :, None] * eye
    s = 1e-4
    spd = _spd(q_spd, spd_eig)
    q_t = q.transpose(0, 2, 1)

    # one f.value call for every eigenvalue row of the pass, one f.gradient call for every
    # row that needs a gradient: a row's result does not depend on the rows batched with it
    # (tests/test_curvfun.py pins this for the builtins)
    dilations = (0.5, 2.0, 10.0)
    step = 1e-5
    moved = _step_rows(lam[:fd_n], step)
    form_lam, spd_lam = np.split(
        np.linalg.eigvalsh(np.concatenate([a + s * b, a, a - s * b, spd])), [3 * fd_n])
    values, permuted, dilated, moved_values, form_values, spd_values = _stacked(f.value, [
        lam,
        lam[:, list(itertools.permutations(range(n)))].transpose(1, 0, 2),
        np.array(dilations)[:, None, None] * lam,
        moved,
        form_lam.reshape(3, fd_n, n),
        spd_lam])
    grad, moved_grad = _stacked(f.gradient, [lam[:fd_n], moved])

    scale = np.maximum(1.0, np.abs(values))
    rows.append((f"{tag}_permutation_symmetry",
                 float((np.abs(permuted - values) / scale).max()), 1e-14))
    expect = np.array([t ** f.degree for t in dilations])[:, None] * values
    rows.append((f"{tag}_homogeneity",
                 float((np.abs(dilated - expect) / np.maximum(1.0, np.abs(expect))).max()), 1e-12))

    gerr = np.abs(_central_differences(moved_values, step) - grad)
    rows.append((f"{tag}_gradient_fd", float((gerr / np.maximum(1.0, np.abs(grad))).max()), 1e-6))
    # differencing the analytic gradient rather than taking second differences
    # of the value keeps the rounding error near eps / step, not eps / step^2
    fd_hess = _central_differences(moved_grad, step)
    hess = f.hessian(lam[:fd_n])
    herr = np.abs(0.5 * (fd_hess + fd_hess.transpose(0, 2, 1)) - hess)
    rows.append((f"{tag}_hessian_fd", float((herr / np.maximum(1.0, np.abs(hess))).max()), 1e-6))

    form = curvfun.matrix_second_form(f, a, b)
    plus, mid, minus = form_values
    fd = (plus - 2.0 * mid + minus) / s ** 2
    rows.append((f"{tag}_second_form_fd",
                 float((np.abs(form - fd) / np.maximum(1.0, np.abs(form))).max()), 1e-5))

    d_here, d_rot = curvfun.matrix_first_derivative(
        f, np.concatenate([spd, q @ spd @ q_t])).reshape(2, sample_count, n, n)
    basis = (np.abs(d_rot - q @ d_here @ q_t).max(axis=(1, 2))
             / np.maximum(1.0, np.abs(d_here).max(axis=(1, 2))))
    fscale = np.maximum(1.0, np.abs(spd_values))
    r1, r2 = curvfun.euler_residuals(f, spd)
    rows.append((f"{tag}_basis_invariance", float(basis.max()), 1e-10))
    rows.append((f"{tag}_euler_first", float((r1 / fscale).max()), 1e-10))
    rows.append((f"{tag}_euler_second", float((r2 / fscale).max()), 1e-10))


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
        shortfall = np.max([0.0, (sign * g1 / s1).max(), (sign * g2 / s2).max()])
        rows.append((f"pair_gaps_{name}_n{n}", float(shortfall), 1e-12))


def _shortfall(target, factor):
    """How far a refinement factor falls short of `target`; NaN stays NaN."""
    return float(np.maximum(0.0, target - factor))


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
    rows.append(("ellipse_curvature_refinement_shortfall", _shortfall(10.0, factor), 0.0))

    sphere = hypersurface.Ellipsoid((1.0, 1.0, 1.0))
    spheroid = hypersurface.Ellipsoid((1.0, 1.0, 1.3))
    rows.append(("codazzi_sphere_m128", hypersurface.codazzi_residual(sphere, 128), 1e-10))
    factor = (hypersurface.codazzi_residual(spheroid, 128)
              / hypersurface.codazzi_residual(spheroid, 256))
    rows.append(("codazzi_spheroid_refinement_shortfall", _shortfall(8.0, factor), 0.0))
    rows.append(("support_hessian_sphere_m128",
                 hypersurface.support_hessian_residual(sphere, grid_size=128), 1e-8))
    factor = (hypersurface.support_hessian_residual(spheroid, grid_size=128)
              / hypersurface.support_hessian_residual(spheroid, grid_size=256))
    rows.append(("support_hessian_spheroid_refinement_shortfall", _shortfall(8.0, factor), 0.0))

    sph_geom = hypersurface.extract_geometry(sphere, grid_size=256)
    height, y = sph_geom.position[:, 0], sph_geom.position[:, 1]
    hess = hypersurface.covariant_hessian(sphere, height, 256)
    round_metric = np.column_stack([np.ones_like(y), y * y])[:, :, None] * np.eye(2)
    defect = hess + height[:, None, None] * round_metric
    rows.append(("covariant_hessian_sphere_height_m256", float(np.abs(defect).max()), 1e-6))
    const = hypersurface.covariant_hessian(sphere, np.ones(256), 256)
    rows.append(("covariant_hessian_constant", float(np.abs(const).max()), 1e-12))

    rev = hypersurface.revolution_geometry(hypersurface.spheroid_profile(2.0, 1.0, 257))
    exact = hypersurface.ellipsoid_geometry((2.0, 2.0, 1.0), np.pi / 2.0, 0.0)
    rows.append(("spheroid_equator_cross_oracle",
                 float(np.abs(np.sort(rev.lam[128]) - exact.lam[0]).max()), 1e-6))
    rows.append(("umbilic_sphere_defect",
                 float(np.abs(2.0 * sph_geom.norm_A2 - sph_geom.mean ** 2).max()), 1e-10))

    axes = np.array([1.0, 1.2, 1.5])
    point = hypersurface.ellipsoid_geometry(axes, 0.9, 0.7)
    x = point.position[0]
    # closed form H = (a^2 + b^2 + c^2 - |X|^2) p^3 / (a b c)^2, with p^-2 = sum X_i^2 / a_i^4
    p = float(np.sum(x * x / axes ** 4)) ** -0.5
    exact_h = float(np.sum(axes ** 2) - x @ x) * p ** 3 / float(np.prod(axes ** 2))
    rows.append(("weingarten_trace_consistency", abs(float(point.mean[0]) - exact_h), 1e-12))
    two_path = np.abs(rev.mean ** 2 - 2.0 * rev.lam.prod(axis=1) - rev.norm_A2)
    rows.append(("norm_A2_two_path", float(two_path.max()), 1e-10))


def _spaceform_checks(rows):
    cs = np.linspace(-4.0, 4.0, 17)
    ts = np.linspace(0.1, 3.0, 7)
    e = 1e-5
    err_sh, err_ch, err_py = [], [], []
    for c in cs:
        for t in ts:
            sh, ch = spaceform.shc(c, t), spaceform.chc(c, t)
            dsh = (spaceform.shc(c, t + e) - spaceform.shc(c, t - e)) / (2.0 * e)
            dch = (spaceform.chc(c, t + e) - spaceform.chc(c, t - e)) / (2.0 * e)
            err_sh.append(abs(dsh - ch) / max(1.0, abs(ch)))
            err_ch.append(abs(dch + c * sh) / max(1.0, abs(c * sh)))
            err_py.append(abs(ch ** 2 + c * sh ** 2 - 1.0) / max(1.0, ch ** 2 + abs(c) * sh ** 2))
    rows.append(("shc_derivative_grid", float(np.max(err_sh)), 1e-8))
    rows.append(("chc_derivative_grid", float(np.max(err_ch)), 1e-8))
    rows.append(("shc_chc_pythagoras", float(np.max(err_py)), 1e-12))

    err = [abs(spaceform.shc(c, t) - spaceform.shc(0.0, t)) / abs(c)
           for c in (1e-12, 1e-9, 1e-6, -1e-12, -1e-9, -1e-6) for t in np.linspace(0.0, 10.0, 21)]
    rows.append(("shc_continuity_at_c0", float(np.max(err)), 170.0))


def _soliton_checks(rows, rng):
    err = {0.0: [], -1.0: []}
    for n in (2, 3):
        spheres = {c: spaceform.sample_geodesic_sphere(c, 1.3, n, 64, seed=0) for c in err}
        for f in curvfun.builtin_functions(n, include_anisotropy=False):
            for c, samples in spheres.items():
                tau = soliton.sphere_tau(f, 1.3, c)
                err[c].append(np.abs(soliton.residual_field(samples, f, tau)).max())
    rows.append(("sphere_residual_builtins_c0", float(np.max(err[0.0])), 1e-10))
    rows.append(("sphere_residual_builtins_cm1", float(np.max(err[-1.0])), 1e-10))

    f = curvfun.MeanCurvature(2)
    err = []
    for radius in rng.uniform(0.1, 10.0, 20):
        tau = soliton.sphere_tau(f, radius, 0.0)
        err.append(abs(soliton.solve_sphere_radius(f, tau, 0.0) - radius))
    rows.append(("sphere_radius_roundtrip", float(np.max(err)), 1e-10))

    err = []
    for f in (curvfun.MeanCurvature(2), curvfun.GaussCurvature(2), curvfun.EuclideanNorm(3)):
        for s in (0.5, 2.0, 7.0):
            lhs = soliton.sphere_tau(f, s * 1.7, 0.0)
            rhs = s ** (-(f.degree + 1.0)) * soliton.sphere_tau(f, 1.7, 0.0)
            err.append(abs(lhs - rhs) / abs(rhs))
    rows.append(("sphere_tau_scaling_covariance", float(np.max(err)), 1e-12))

    err = []
    for m in np.linspace(1.02, 100.0, 50):
        t = soliton.threshold_high(m)
        q = soliton.pinching_quadratics(m, t)[1]
        err.append(abs(q) / ((m - 1.0) * (t * t + t) + 2.0))
    rows.append(("threshold_root_check_high", float(np.max(err)), 1e-12))
    err = []
    for m in np.linspace(-100.0, -7.02, 50):
        t = soliton.threshold_low(m)
        q = soliton.pinching_quadratics(m, t)[0]
        err.append(abs(q) / (2.0 * t * t + abs(m - 1.0) * (t + 1.0)))
    rows.append(("threshold_root_check_low", float(np.max(err)), 1e-12))

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
