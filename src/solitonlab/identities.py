"""The identity suite: one (name, residual, tolerance) row per identity check.

The curvature-function checks draw their samples in bulk, one generator call per
array, once per dimension: the draw, its QR, its eigenvalues, its checked second-form
pair, the checked eigen-decompositions of its SPD matrices and every row stack are shared
by that dimension's functions.  Each function is evaluated once per pass over
them: every eigenvalue row goes to one `value` call, every row that needs a
gradient to one `gradient` call and every row that needs a Hessian to one `hessian`
call, the rows of the matrix calculus included.  The functions' results are stacked,
so each fold of a pass (scales, differences, worst residuals) runs once per dimension,
and so does each matrix-calculus identity: `matrix_first_derivative`,
`matrix_second_form` and `euler_residuals` are called once, in their one entry form,
with the dimension's checked records, the list of its functions and their stacked
results.  Those `value`, `gradient` and `hessian` calls run every function's domain
check of a round; the matrix calculus and the pair gaps repeat none of them.
The layers are called through their modules (`curvfun.pair_sign_gaps`, not a
name imported from it), so a wrapper put on a module function sees each call.
Worst residuals are numpy maxima, which keep a NaN where Python's `max` can drop it.
"""

import itertools
from dataclasses import dataclass

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
    """Central differences from functions' stacked results on `_step_rows(lam, step)`.

    The axis of differentiation follows the rows, so values give (F, k, n) and gradients
    (F, k, n, n) for F functions.
    """
    return ((moved[:, 0] - moved[:, 1]) / (2.0 * step)).swapaxes(1, 2)


class _Stack:
    """Blocks of (..., n) eigenvalue rows joined once, for one call per function.

    Calling it with F functions gives their results, stacked on a leading axis of
    length F, sliced back by block.
    """

    def __init__(self, blocks):
        flat = [block.reshape(-1, block.shape[-1]) for block in blocks]
        self._rows = np.concatenate(flat)
        ends = list(itertools.accumulate(len(rows) for rows in flat))
        self._blocks = [(slice(end - len(rows), end), block.shape[:-1])
                        for rows, end, block in zip(flat, ends, blocks)]

    def __call__(self, fns):
        out = np.stack([fn(self._rows) for fn in fns])
        lead, tail = out.shape[:1], out.shape[2:]
        return [out[:, rows].reshape(lead + shape + tail) for rows, shape in self._blocks]


def _distinct_eigenvalues(rng, k, n, gap=1e-3):
    """k sorted uniform(0.2, 3) rows; a row with two entries closer than `gap` is redrawn."""
    eig = np.sort(rng.uniform(0.2, 3.0, (k, n)), axis=1)
    redraw = np.diff(eig, axis=1).min(axis=1) < gap
    while redraw.any():
        eig[redraw] = np.sort(rng.uniform(0.2, 3.0, (int(redraw.sum()), n)), axis=1)
        redraw = np.diff(eig, axis=1).min(axis=1) < gap
    return eig


# the dilations of the homogeneity row, the gradient and Hessian difference step, and the
# step along B of the second-form row
_DILATIONS = (0.5, 2.0, 10.0)
_FD_STEP = 1e-5
_FORM_STEP = 1e-4


@dataclass(frozen=True)
class _EigenvalueSamples:
    """One dimension's samples, and every array built from them that no function enters.

    `values` stacks every row a pass evaluates (base, permuted, dilated, +-step, the
    eigenvalues of A + sB, A, A - sB and of the SPD matrices, both as `eigvalsh` and as
    `eigh` gives them), `gradients` every row whose gradient it needs (the first rows and
    their +-step rows, the second-form diagonals and the SPD pair's eigenvalues) and
    `hessians` every row whose Hessian it needs (the first rows, the second-form
    diagonals and the SPD eigenvalues).
    """

    lam_fd: np.ndarray      # (fd_n, n): the rows that are differenced
    values: _Stack
    gradients: _Stack
    hessians: _Stack
    form: curvfun.SecondFormPair      # (fd_n, n, n) diagonal A, symmetric direction B
    spd: curvfun.SymmetricStack       # (k, n, n), the first half of spd_pair
    spd_pair: curvfun.SymmetricStack  # (2k, n, n): spd, then q spd q^T, decomposed
    q: np.ndarray           # (k, n, n) rotations


def _eigenvalue_samples(rng, sample_count, n):
    """Draw one dimension's samples and decompose them, once for all of its functions."""
    fd_n = min(sample_count, 50)
    lam = rng.uniform(0.2, 3.0, size=(sample_count, n))
    eig = _distinct_eigenvalues(rng, fd_n, n)
    form_gauss = rng.standard_normal((fd_n, n, n))
    form_eig = rng.uniform(0.2, 3.0, (fd_n, n))
    shift = rng.uniform(0.0, 1.0, (fd_n, n))
    spd_gauss = rng.standard_normal((sample_count, n, n))
    spd_eig = rng.uniform(0.2, 3.0, (sample_count, n))
    rot_gauss = rng.standard_normal((sample_count, n, n))

    rotations = _rotations(np.concatenate([form_gauss, spd_gauss, rot_gauss]))
    q_form, q_spd, q = (rotations[:fd_n], rotations[fd_n:fd_n + sample_count],
                        rotations[fd_n + sample_count:])
    eye = np.eye(n)
    a = eig[:, :, None] * eye
    b = _spd(q_form, form_eig) - shift[:, :, None] * eye
    spd = _spd(q_spd, spd_eig)
    q_t = q.transpose(0, 2, 1)

    # one eigh for both records: LAPACK decomposes each matrix of a stack on its own,
    # so the first half of the pair's decomposition is that of spd, bit for bit
    spd_pair = curvfun.symmetric_stack(np.concatenate([spd, q @ spd @ q_t]))
    spd_record = curvfun.SymmetricStack(spd_pair.lam[:sample_count], spd_pair.u[:sample_count])
    form = curvfun.second_form_pair(a, b)

    # one f.value, one f.gradient and one f.hessian call for every row of a pass that
    # needs one, the matrix calculus's rows included: a row's result does not depend on
    # the rows batched with it (tests/test_curvfun.py pins this for the builtins)
    moved = _step_rows(lam[:fd_n], _FD_STEP)
    all_lam = np.linalg.eigvalsh(np.concatenate([a + _FORM_STEP * b, a, a - _FORM_STEP * b, spd]))
    form_lam, spd_lam = all_lam[:3 * fd_n], all_lam[3 * fd_n:]
    values = _Stack([
        lam,
        lam[:, list(itertools.permutations(range(n)))].transpose(1, 0, 2),
        np.array(_DILATIONS)[:, None, None] * lam,
        moved,
        form_lam.reshape(3, fd_n, n),
        spd_lam,
        spd_record.lam])
    gradients = _Stack([lam[:fd_n], moved, form.lam, spd_pair.lam])
    hessians = _Stack([lam[:fd_n], form.lam, spd_record.lam])
    return _EigenvalueSamples(lam[:fd_n], values, gradients, hessians, form, spd_record,
                              spd_pair, q)


# the row suffixes and tolerances of each function's pass, in the order the rows are emitted
_EIGENVALUE_ROWS = (("permutation_symmetry", 1e-14), ("homogeneity", 1e-12),
                    ("gradient_fd", 1e-6), ("hessian_fd", 1e-6), ("second_form_fd", 1e-5),
                    ("basis_invariance", 1e-10), ("euler_first", 1e-10), ("euler_second", 1e-10))


def _eigenvalue_checks(rows, samples, fs):
    """One pass of the functions `fs` over their dimension's shared samples.

    Their results are stacked on a leading axis, so each fold runs once for all of them,
    the matrix calculus included (one call per identity, given the stacked results);
    a maximum is exact, so each function's residual has the bits of a fold of its own.
    """
    values, permuted, dilated, moved_values, form_values, spd_values, eigh_values = (
        samples.values([f.value for f in fs]))
    grad, moved_grad, form_grad, pair_grad = samples.gradients([f.gradient for f in fs])
    hess, form_hess, eigh_hess = samples.hessians([f.hessian for f in fs])

    def worst(err):
        """Each function's largest entry of its (F, ...) slice of `err`; NaN stays NaN."""
        return err.reshape(len(fs), -1).max(axis=1)

    scale = np.maximum(1.0, np.abs(values))
    permutation = worst(np.abs(permuted - values[:, None]) / scale[:, None])
    powers = np.array([[t ** f.degree for t in _DILATIONS] for f in fs])
    expect = powers[:, :, None] * values[:, None]
    homogeneity = worst(np.abs(dilated - expect) / np.maximum(1.0, np.abs(expect)))

    gerr = np.abs(_central_differences(moved_values, _FD_STEP) - grad)
    gradient_fd = worst(gerr / np.maximum(1.0, np.abs(grad)))
    # differencing the analytic gradient rather than taking second differences
    # of the value keeps the rounding error near eps / step, not eps / step^2
    fd_hess = _central_differences(moved_grad, _FD_STEP)
    herr = np.abs(0.5 * (fd_hess + fd_hess.swapaxes(2, 3)) - hess)
    hessian_fd = worst(herr / np.maximum(1.0, np.abs(hess)))

    form = curvfun.matrix_second_form(fs, samples.form, evaluated=(form_grad, form_hess))
    plus, mid, minus = form_values.swapaxes(0, 1)
    fd = (plus - 2.0 * mid + minus) / _FORM_STEP ** 2
    second_form_fd = worst(np.abs(form - fd) / np.maximum(1.0, np.abs(form)))

    q = samples.q
    k = len(q)
    q_t = q.transpose(0, 2, 1)
    derivative = curvfun.matrix_first_derivative(fs, samples.spd_pair, evaluated=(pair_grad,))
    d_here, d_rot = derivative[:, :k], derivative[:, k:]
    rotated = np.stack([q @ d @ q_t for d in d_here])
    # maxima over each matrix's n*n entries, then over the k matrices
    basis = worst(np.abs(d_rot - rotated).reshape(len(fs), k, -1).max(axis=2)
                  / np.maximum(1.0, np.abs(d_here).reshape(len(fs), k, -1).max(axis=2)))
    fscale = np.maximum(1.0, np.abs(spd_values))
    # the SPD records are the first k of the pair's, so their gradients are too
    r1, r2 = curvfun.euler_residuals(fs, samples.spd,
                                     evaluated=(eigh_values, pair_grad[:, :k], eigh_hess))
    euler_first, euler_second = worst(r1 / fscale), worst(r2 / fscale)

    folds = (permutation, homogeneity, gradient_fd, hessian_fd, second_form_fd, basis,
             euler_first, euler_second)
    for f, residuals in zip(fs, zip(*(fold.tolist() for fold in folds))):
        rows.extend((f"{f.name}_n{f.n}_{suffix}", residual, tol)
                    for (suffix, tol), residual in zip(_EIGENVALUE_ROWS, residuals))


def _pair_gap_checks(rows, rng, n):
    convex = curvfun.EuclideanNorm(n)
    concave = curvfun.GeometricMean(n)
    lam = rng.uniform(0.05, 4.0, size=(1000, n))
    # each function evaluated once, for the scales and for both orderings of the pair
    value_f, value_g = convex.value(lam), concave.value(lam)
    grad_f, grad_g = convex.gradient(lam), concave.gradient(lam)
    # per row, the size of the terms that each gap cancels (both functions have degree 1)
    lam_sq = lam * lam
    s1 = (np.abs(value_g * curvfun._row_dot(grad_f, lam_sq))
          + np.abs(value_f * curvfun._row_dot(grad_g, lam_sq)))
    s2 = (np.abs(value_f * curvfun._row_sum(grad_g))
          + np.abs(value_g * curvfun._row_sum(grad_f)))
    for name, f, g, evaluated, sign in (
            ("convex_concave", convex, concave, (value_f, value_g, grad_f, grad_g), -1.0),
            ("swapped", concave, convex, (value_g, value_f, grad_g, grad_f), 1.0)):
        g1, g2 = curvfun.pair_sign_gaps(f, g, lam, evaluated)
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

    sphere, sphere_256 = (hypersurface.AnalyticSpheroid(1.0, 1.0, m) for m in (128, 256))
    spheroid, spheroid_256 = (hypersurface.AnalyticSpheroid(1.0, 1.3, m) for m in (128, 256))
    rows.append(("codazzi_sphere_m128", hypersurface.codazzi_residual(sphere), 1e-10))
    factor = (hypersurface.codazzi_residual(spheroid)
              / hypersurface.codazzi_residual(spheroid_256))
    rows.append(("codazzi_spheroid_refinement_shortfall", _shortfall(8.0, factor), 0.0))
    rows.append(("support_hessian_sphere_m128",
                 hypersurface.support_hessian_residual(sphere), 1e-8))
    factor = (hypersurface.support_hessian_residual(spheroid)
              / hypersurface.support_hessian_residual(spheroid_256))
    rows.append(("support_hessian_spheroid_refinement_shortfall", _shortfall(8.0, factor), 0.0))

    sph_geom = sphere_256.geometry()
    height, y = sph_geom.position[:, 0], sph_geom.position[:, 1]
    hess = hypersurface.covariant_hessian(sphere_256, height)
    round_metric = np.column_stack([np.ones_like(y), y * y])[:, :, None] * np.eye(2)
    defect = hess + height[:, None, None] * round_metric
    rows.append(("covariant_hessian_sphere_height_m256", float(np.abs(defect).max()), 1e-6))
    const = hypersurface.covariant_hessian(sphere_256, np.ones(256))
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
    # the grids as Python floats: an operation on a numpy scalar costs about 4x, same bits
    cs = np.linspace(-4.0, 4.0, 17).tolist()
    ts = np.linspace(0.1, 3.0, 7).tolist()
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
           for c in (1e-12, 1e-9, 1e-6, -1e-12, -1e-9, -1e-6)
           for t in np.linspace(0.0, 10.0, 21).tolist()]
    rows.append(("shc_continuity_at_c0", float(np.max(err)), 170.0))


def _soliton_checks(rows, rng):
    err = {0.0: [], -1.0: []}
    for n in (2, 3):
        spheres = {c: spaceform.sample_geodesic_sphere(c, 1.3, n, 64) for c in err}
        for f in curvfun.builtin_functions(n):
            for c, samples in spheres.items():
                tau = soliton.sphere_tau(f, 1.3, c)
                err[c].append(np.abs(soliton.residual_field(samples, f, tau)).max())
    rows.append(("sphere_residual_builtins_c0", float(np.max(err[0.0])), 1e-10))
    rows.append(("sphere_residual_builtins_cm1", float(np.max(err[-1.0])), 1e-10))

    f = curvfun.MeanCurvature(2)
    err = []
    for radius in rng.uniform(0.1, 10.0, 20).tolist():
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
    for m in np.linspace(1.02, 100.0, 50).tolist():
        t = soliton.threshold_high(m)
        q = soliton.pinching_quadratics(m, t)[1]
        err.append(abs(q) / ((m - 1.0) * (t * t + t) + 2.0))
    rows.append(("threshold_root_check_high", float(np.max(err)), 1e-12))
    err = []
    for m in np.linspace(-100.0, -7.02, 50).tolist():
        t = soliton.threshold_low(m)
        q = soliton.pinching_quadratics(m, t)[0]
        err.append(abs(q) / (2.0 * t * t + abs(m - 1.0) * (t + 1.0)))
    rows.append(("threshold_root_check_low", float(np.max(err)), 1e-12))

    # the joint fit's normal equations, on an ellipse off the origin
    moved = hypersurface.PlaneCurve(hypersurface.ellipse(2.0, 1.0, 256).points + [0.3, -0.2])
    geom = hypersurface.curve_geometry(moved)
    report = soliton.fit_tau(geom, curvfun.MeanCurvature(1))
    z = geom.support - geom.normal @ report.center      # the support about the fitted centre
    res = geom.mean + report.tau_fit * z
    normal_eq = np.abs((geom.weights * res) @ np.column_stack((z, geom.normal))).max()
    rows.append(("fit_tau_normal_equation", float(normal_eq / max(1.0, geom.weights @ z ** 2)),
                 1e-10))

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
    # one stream per drawing layer, so that one layer's draws never move another's rows;
    # default_rng(SeedSequence(seed)) draws the bits of default_rng(seed)
    sequence = np.random.SeedSequence(seed)
    eigen_rng = np.random.default_rng(sequence)
    pair_rng, soliton_rng = (np.random.default_rng(s) for s in sequence.spawn(2))
    rows = []
    for n in (2, 3):
        samples = _eigenvalue_samples(eigen_rng, sample_count, n)
        _eigenvalue_checks(rows, samples, curvfun.builtin_functions(n))
    for n in (2, 3):
        _pair_gap_checks(rows, pair_rng, n)
    _geometry_checks(rows)
    _spaceform_checks(rows)
    _soliton_checks(rows, soliton_rng)
    return rows
