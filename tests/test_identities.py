"""The identity suite's rows: the benchmark counts them as operations."""

import math

import numpy as np
import pytest

from solitonlab import curvfun, hypersurface, identities, soliton, spaceform
from solitonlab.identities import identity_suite_checks

from conftest import evaluated_at

# (name, tolerance) of every row of identity_suite_checks(30, 0), in order
SUITE_ROWS = [
    ("H_n2_permutation_symmetry", 1e-14),
    ("H_n2_homogeneity", 1e-12),
    ("H_n2_gradient_fd", 1e-06),
    ("H_n2_hessian_fd", 1e-06),
    ("H_n2_second_form_fd", 1e-05),
    ("H_n2_basis_invariance", 1e-10),
    ("H_n2_euler_first", 1e-10),
    ("H_n2_euler_second", 1e-10),
    ("K_n2_permutation_symmetry", 1e-14),
    ("K_n2_homogeneity", 1e-12),
    ("K_n2_gradient_fd", 1e-06),
    ("K_n2_hessian_fd", 1e-06),
    ("K_n2_second_form_fd", 1e-05),
    ("K_n2_basis_invariance", 1e-10),
    ("K_n2_euler_first", 1e-10),
    ("K_n2_euler_second", 1e-10),
    ("sigma2_n2_permutation_symmetry", 1e-14),
    ("sigma2_n2_homogeneity", 1e-12),
    ("sigma2_n2_gradient_fd", 1e-06),
    ("sigma2_n2_hessian_fd", 1e-06),
    ("sigma2_n2_second_form_fd", 1e-05),
    ("sigma2_n2_basis_invariance", 1e-10),
    ("sigma2_n2_euler_first", 1e-10),
    ("sigma2_n2_euler_second", 1e-10),
    ("norm_n2_permutation_symmetry", 1e-14),
    ("norm_n2_homogeneity", 1e-12),
    ("norm_n2_gradient_fd", 1e-06),
    ("norm_n2_hessian_fd", 1e-06),
    ("norm_n2_second_form_fd", 1e-05),
    ("norm_n2_basis_invariance", 1e-10),
    ("norm_n2_euler_first", 1e-10),
    ("norm_n2_euler_second", 1e-10),
    ("geomean_n2_permutation_symmetry", 1e-14),
    ("geomean_n2_homogeneity", 1e-12),
    ("geomean_n2_gradient_fd", 1e-06),
    ("geomean_n2_hessian_fd", 1e-06),
    ("geomean_n2_second_form_fd", 1e-05),
    ("geomean_n2_basis_invariance", 1e-10),
    ("geomean_n2_euler_first", 1e-10),
    ("geomean_n2_euler_second", 1e-10),
    ("pow(H,-1)_n2_permutation_symmetry", 1e-14),
    ("pow(H,-1)_n2_homogeneity", 1e-12),
    ("pow(H,-1)_n2_gradient_fd", 1e-06),
    ("pow(H,-1)_n2_hessian_fd", 1e-06),
    ("pow(H,-1)_n2_second_form_fd", 1e-05),
    ("pow(H,-1)_n2_basis_invariance", 1e-10),
    ("pow(H,-1)_n2_euler_first", 1e-10),
    ("pow(H,-1)_n2_euler_second", 1e-10),
    ("H_n3_permutation_symmetry", 1e-14),
    ("H_n3_homogeneity", 1e-12),
    ("H_n3_gradient_fd", 1e-06),
    ("H_n3_hessian_fd", 1e-06),
    ("H_n3_second_form_fd", 1e-05),
    ("H_n3_basis_invariance", 1e-10),
    ("H_n3_euler_first", 1e-10),
    ("H_n3_euler_second", 1e-10),
    ("K_n3_permutation_symmetry", 1e-14),
    ("K_n3_homogeneity", 1e-12),
    ("K_n3_gradient_fd", 1e-06),
    ("K_n3_hessian_fd", 1e-06),
    ("K_n3_second_form_fd", 1e-05),
    ("K_n3_basis_invariance", 1e-10),
    ("K_n3_euler_first", 1e-10),
    ("K_n3_euler_second", 1e-10),
    ("sigma2_n3_permutation_symmetry", 1e-14),
    ("sigma2_n3_homogeneity", 1e-12),
    ("sigma2_n3_gradient_fd", 1e-06),
    ("sigma2_n3_hessian_fd", 1e-06),
    ("sigma2_n3_second_form_fd", 1e-05),
    ("sigma2_n3_basis_invariance", 1e-10),
    ("sigma2_n3_euler_first", 1e-10),
    ("sigma2_n3_euler_second", 1e-10),
    ("norm_n3_permutation_symmetry", 1e-14),
    ("norm_n3_homogeneity", 1e-12),
    ("norm_n3_gradient_fd", 1e-06),
    ("norm_n3_hessian_fd", 1e-06),
    ("norm_n3_second_form_fd", 1e-05),
    ("norm_n3_basis_invariance", 1e-10),
    ("norm_n3_euler_first", 1e-10),
    ("norm_n3_euler_second", 1e-10),
    ("geomean_n3_permutation_symmetry", 1e-14),
    ("geomean_n3_homogeneity", 1e-12),
    ("geomean_n3_gradient_fd", 1e-06),
    ("geomean_n3_hessian_fd", 1e-06),
    ("geomean_n3_second_form_fd", 1e-05),
    ("geomean_n3_basis_invariance", 1e-10),
    ("geomean_n3_euler_first", 1e-10),
    ("geomean_n3_euler_second", 1e-10),
    ("pow(H,-1)_n3_permutation_symmetry", 1e-14),
    ("pow(H,-1)_n3_homogeneity", 1e-12),
    ("pow(H,-1)_n3_gradient_fd", 1e-06),
    ("pow(H,-1)_n3_hessian_fd", 1e-06),
    ("pow(H,-1)_n3_second_form_fd", 1e-05),
    ("pow(H,-1)_n3_basis_invariance", 1e-10),
    ("pow(H,-1)_n3_euler_first", 1e-10),
    ("pow(H,-1)_n3_euler_second", 1e-10),
    ("pair_gaps_convex_concave_n2", 1e-12),
    ("pair_gaps_swapped_n2", 1e-12),
    ("pair_gaps_convex_concave_n3", 1e-12),
    ("pair_gaps_swapped_n3", 1e-12),
    ("circle_curvature_m256", 1e-08),
    ("circle_support_m256", 1e-10),
    ("ellipse_max_curvature_m512", 1e-05),
    ("ellipse_curvature_refinement_shortfall", 0.0),
    ("codazzi_sphere_m128", 1e-10),
    ("codazzi_spheroid_refinement_shortfall", 0.0),
    ("support_hessian_sphere_m128", 1e-08),
    ("support_hessian_spheroid_refinement_shortfall", 0.0),
    ("covariant_hessian_sphere_height_m256", 1e-06),
    ("covariant_hessian_constant", 1e-12),
    ("spheroid_equator_cross_oracle", 1e-06),
    ("umbilic_sphere_defect", 1e-10),
    ("weingarten_trace_consistency", 1e-12),
    ("norm_A2_two_path", 1e-10),
    ("shc_derivative_grid", 1e-08),
    ("chc_derivative_grid", 1e-08),
    ("shc_chc_pythagoras", 1e-12),
    ("shc_continuity_at_c0", 170.0),
    ("sphere_residual_builtins_c0", 1e-10),
    ("sphere_residual_builtins_cm1", 1e-10),
    ("sphere_radius_roundtrip", 1e-10),
    ("sphere_tau_scaling_covariance", 1e-12),
    ("threshold_root_check_high", 1e-12),
    ("threshold_root_check_low", 1e-12),
    ("fit_tau_normal_equation", 1e-10),
    ("fit_tau_sphere_matches_closed_form", 1e-08),
    ("fit_tau_sphere_relative_residual", 1e-08),
]


def test_suite_rows_are_pinned():
    rows = identity_suite_checks(30, 0)
    assert [(name, tol) for name, _, tol in rows] == SUITE_ROWS
    assert all(np.isfinite(res) and res <= tol for _, res, tol in rows)


# 8, 86 and 205 are the seeds on which the hessian_fd rows once failed
@pytest.mark.parametrize("seed", [0, 1, 2, 3, 4, 5, 6, 7, 8, 9, 86, 205])
def test_every_row_passes_at_100_samples(seed):
    failing = [row for row in identity_suite_checks(100, seed) if not row[1] <= row[2]]
    assert failing == []


def test_extra_eigenvalue_draws_leave_every_later_row_bit_identical(monkeypatch):
    rows = identity_suite_checks(30, 0)
    distinct = identities._distinct_eigenvalues

    def drawing_more(rng, *args, **kwargs):
        rng.uniform(size=7)
        return distinct(rng, *args, **kwargs)

    monkeypatch.setattr(identities, "_distinct_eigenvalues", drawing_more)
    moved = identity_suite_checks(30, 0)
    first_later = [name for name, _ in SUITE_ROWS].index("pair_gaps_convex_concave_n2")
    assert moved[:first_later] != rows[:first_later]
    assert moved[first_later:] == rows[first_later:]


@pytest.mark.parametrize("n", [2, 3])
def test_a_row_stack_gives_each_block_the_bits_of_its_own_call(n):
    rng = np.random.default_rng(3)
    lam = rng.uniform(0.2, 3.0, (11, n))
    blocks = [lam, np.array([0.5, 2.0, 10.0])[:, None, None] * lam,
              identities._step_rows(lam[:4], 1e-5), rng.uniform(0.2, 3.0, (1, n))]
    stack = identities._Stack(blocks)
    functions = curvfun.builtin_functions(n)
    for name in ("value", "gradient", "hessian"):
        methods = [getattr(f, name) for f in functions]
        parts = stack(methods)
        assert len(parts) == len(blocks)
        for part, block in zip(parts, blocks):
            assert len(part) == len(functions)
            for method, stacked in zip(methods, part):
                alone = method(block.reshape(-1, n))
                alone = alone.reshape(block.shape[:-1] + alone.shape[1:])
                assert stacked.shape == alone.shape, (method.__self__.name, name)
                assert stacked.tobytes() == alone.tobytes(), (method.__self__.name, name)


_MATRIX_CALCULUS = ("matrix_first_derivative", "matrix_second_form", "euler_residuals")


@pytest.mark.parametrize("n", [2, 3])
def test_eigenvalue_checks_evaluate_each_function_once_per_pass(monkeypatch, n):
    # calls made inside the matrix calculus are that layer's own, and not counted
    inside = []
    for name in _MATRIX_CALCULUS:
        def nested(*args, _inner=getattr(curvfun, name), **kwargs):
            inside.append(True)
            try:
                return _inner(*args, **kwargs)
            finally:
                inside.pop()
        monkeypatch.setattr(curvfun, name, nested)
    calls = []
    for method in ("value", "gradient"):
        def counted(self, lam, _inner=getattr(curvfun.CurvatureFunction, method), _name=method):
            if not inside:
                calls.append(_name)
            return _inner(self, lam)
        monkeypatch.setattr(curvfun.CurvatureFunction, method, counted)
    samples = identities._eigenvalue_samples(np.random.default_rng(0), 30, n)
    for f in curvfun.builtin_functions(n):
        calls.clear()
        identities._eigenvalue_checks([], samples, [f])
        assert sorted(calls) == ["gradient", "value"], f.name


@pytest.mark.parametrize("n", [2, 3])
def test_a_pass_evaluates_each_function_once_and_runs_each_identity_once(monkeypatch, n):
    # every call counts, the matrix calculus's own included: it is handed the stacked
    # results, and each identity runs once for all of a dimension's functions
    calls = []
    for name in _MATRIX_CALCULUS:
        monkeypatch.setattr(curvfun, name,
                            lambda *args, _inner=getattr(curvfun, name), _name=name, **kwargs:
                            calls.append(("curvfun", _name)) or _inner(*args, **kwargs))
    for method in ("value", "gradient", "hessian"):
        def counted(self, lam, _inner=getattr(curvfun.CurvatureFunction, method), _name=method):
            calls.append((self.name, _name))
            return _inner(self, lam)
        monkeypatch.setattr(curvfun.CurvatureFunction, method, counted)
    samples = identities._eigenvalue_samples(np.random.default_rng(0), 30, n)
    functions = curvfun.builtin_functions(n)
    identities._eigenvalue_checks([], samples, functions)
    expect = [("curvfun", name) for name in _MATRIX_CALCULUS]
    expect += [(f.name, method) for f in functions for method in ("value", "gradient", "hessian")]
    assert sorted(calls) == sorted(expect)


def test_a_round_checks_domains_only_where_it_evaluates(monkeypatch):
    # every domain check of a round runs inside a value, gradient or hessian call; the
    # matrix calculus and the pair gaps take those results and check nothing again
    checks, inside = [], []
    coerce = curvfun.CurvatureFunction._coerce
    monkeypatch.setattr(curvfun.CurvatureFunction, "_coerce", lambda self, lam: (
        checks.append(inside[-1] if inside else "outside") or coerce(self, lam)))
    for method in ("value", "gradient", "hessian"):
        def entered(self, lam, _inner=getattr(curvfun.CurvatureFunction, method), _name=method):
            inside.append(_name)
            try:
                return _inner(self, lam)
            finally:
                inside.pop()
        monkeypatch.setattr(curvfun.CurvatureFunction, method, entered)
    identity_suite_checks(30, 0)
    assert {name: checks.count(name) for name in set(checks)} == {
        "value": 59, "gradient": 16, "hessian": 12}


def _per_function_rows(samples, f):
    """One function's eigenvalue rows, folded on its own: the reference for the stacked pass."""
    tag = f"{f.name}_n{f.n}"
    values, permuted, dilated, moved_values, form_values, spd_values, _ = (
        part[0] for part in samples.values([f.value]))
    grad, moved_grad, _, _ = (part[0] for part in samples.gradients([f.gradient]))
    step, form_step = identities._FD_STEP, identities._FORM_STEP
    rows = []
    scale = np.maximum(1.0, np.abs(values))
    rows.append((f"{tag}_permutation_symmetry",
                 float((np.abs(permuted - values) / scale).max()), 1e-14))
    expect = np.array([t ** f.degree for t in identities._DILATIONS])[:, None] * values
    rows.append((f"{tag}_homogeneity",
                 float((np.abs(dilated - expect) / np.maximum(1.0, np.abs(expect))).max()), 1e-12))
    fd_grad = ((moved_values[0] - moved_values[1]) / (2.0 * step)).swapaxes(0, 1)
    gerr = np.abs(fd_grad - grad)
    rows.append((f"{tag}_gradient_fd", float((gerr / np.maximum(1.0, np.abs(grad))).max()), 1e-6))
    fd_hess = ((moved_grad[0] - moved_grad[1]) / (2.0 * step)).swapaxes(0, 1)
    hess = f.hessian(samples.lam_fd)
    herr = np.abs(0.5 * (fd_hess + fd_hess.transpose(0, 2, 1)) - hess)
    rows.append((f"{tag}_hessian_fd", float((herr / np.maximum(1.0, np.abs(hess))).max()), 1e-6))
    form = curvfun.matrix_second_form(
        [f], samples.form, evaluated_at([f], samples.form.lam, "gradient", "hessian"))[0]
    plus, mid, minus = form_values
    fd = (plus - 2.0 * mid + minus) / form_step ** 2
    rows.append((f"{tag}_second_form_fd",
                 float((np.abs(form - fd) / np.maximum(1.0, np.abs(form))).max()), 1e-5))
    q = samples.q
    k = len(q)
    derivative = curvfun.matrix_first_derivative(
        [f], samples.spd_pair, evaluated_at([f], samples.spd_pair.lam, "gradient"))[0]
    d_here, d_rot = derivative[:k], derivative[k:]
    basis = (np.abs(d_rot - q @ d_here @ q.transpose(0, 2, 1)).max(axis=(1, 2))
             / np.maximum(1.0, np.abs(d_here).max(axis=(1, 2))))
    fscale = np.maximum(1.0, np.abs(spd_values))
    r1, r2 = (r[0] for r in curvfun.euler_residuals(
        [f], samples.spd, evaluated_at([f], samples.spd.lam, "value", "gradient", "hessian")))
    rows.append((f"{tag}_basis_invariance", float(basis.max()), 1e-10))
    rows.append((f"{tag}_euler_first", float((r1 / fscale).max()), 1e-10))
    rows.append((f"{tag}_euler_second", float((r2 / fscale).max()), 1e-10))
    return rows


@pytest.mark.parametrize("seed", [0, 1, 7, 86])
@pytest.mark.parametrize("sample_count", [30, 100])
@pytest.mark.parametrize("n", [2, 3])
def test_the_stacked_pass_gives_each_function_the_rows_of_its_own_folds(seed, sample_count, n):
    samples = identities._eigenvalue_samples(np.random.default_rng(seed), sample_count, n)
    functions = curvfun.builtin_functions(n)
    rows = []
    identities._eigenvalue_checks(rows, samples, functions)
    expect = [row for f in functions for row in _per_function_rows(samples, f)]
    assert [name for name, _, _ in rows] == [name for name, _, _ in expect]
    assert ([np.float64(res).tobytes() for _, res, _ in rows]
            == [np.float64(res).tobytes() for _, res, _ in expect])
    assert [tol for _, _, tol in rows] == [tol for _, _, tol in expect]


@pytest.mark.parametrize("n", [2, 3])
def test_pair_gap_checks_evaluate_each_function_once(monkeypatch, n):
    # the scales and both orderings of the pair read one value and one gradient call each
    calls = []
    for method in ("value", "gradient"):
        def counted(self, lam, _inner=getattr(curvfun.CurvatureFunction, method), _name=method):
            calls.append((self.name, _name))
            return _inner(self, lam)
        monkeypatch.setattr(curvfun.CurvatureFunction, method, counted)
    identities._pair_gap_checks([], np.random.default_rng(0), n)
    assert sorted(calls) == [("geomean", "gradient"), ("geomean", "value"),
                             ("norm", "gradient"), ("norm", "value")]


def test_geometry_checks_take_nabla_h_once_per_spheroid_grid(monkeypatch):
    # codazzi_residual and support_hessian_residual share each grid's cached nabla h
    calls = []
    terms = hypersurface._nabla_h_terms
    monkeypatch.setattr(hypersurface, "_nabla_h_terms",
                        lambda f: calls.append(f.xy.shape[0]) or terms(f))
    identities._geometry_checks([])
    assert sorted(calls) == [128, 128, 256]


def test_each_dimension_draws_and_decomposes_its_samples_once(monkeypatch):
    # every function of a dimension shares one stacked QR, one eigvalsh and one eigh
    # (of its SPD records); a call is recorded with the dimension of its matrices
    calls = []
    for name in ("qr", "eigvalsh", "eigh"):
        def counted(a, *args, _inner=getattr(np.linalg, name), _name=name, **kwargs):
            calls.append((_name, np.shape(a)[-1]))
            return _inner(a, *args, **kwargs)
        monkeypatch.setattr(np.linalg, name, counted)
    identity_suite_checks(30, 0)
    assert sorted(calls) == [("eigh", 2), ("eigh", 3), ("eigvalsh", 2), ("eigvalsh", 3),
                             ("qr", 2), ("qr", 3)]


def test_soliton_checks_sample_each_sphere_once(monkeypatch):
    calls = []
    sample = spaceform.sample_geodesic_sphere
    monkeypatch.setattr(spaceform, "sample_geodesic_sphere",
                        lambda *args, **kwargs: calls.append(args) or sample(*args, **kwargs))
    identities._soliton_checks([], np.random.default_rng(0))
    assert sorted(calls) == [(-1.0, 1.3, 2, 64), (-1.0, 1.3, 3, 64),
                             (0.0, 1.3, 2, 64), (0.0, 1.3, 3, 64)]


def test_geometry_checks_compute_each_spheroid_grid_once(monkeypatch):
    # four spheroids serve nine grid operations; each computes its closed-form fields once
    calls = []
    fields = hypersurface._spheroid_fields
    monkeypatch.setattr(hypersurface, "_spheroid_fields",
                        lambda *args: calls.append(args) or fields(*args))
    identities._geometry_checks([])
    assert sorted(calls) == [(1.0, 1.0, 128), (1.0, 1.0, 256), (1.0, 1.3, 128), (1.0, 1.3, 256)]


def test_a_spheroid_grid_refuses_writes_into_its_cached_fields():
    spheroid = hypersurface.AnalyticSpheroid(1.0, 1.3, 64)
    hypersurface.codazzi_residual(spheroid)            # caches the metric derivatives
    f = spheroid.grid_fields()
    assert spheroid.grid_fields() is f
    for arr in (f.xy, f.vel, f.E, f.w, f.nu, f.lam, f.G, f.dE, f.dG, spheroid.geometry().lam):
        with pytest.raises(ValueError, match="read-only"):
            arr[0] = 1.0


def test_a_spheroid_grid_caches_nabla_h_read_only():
    spheroid = hypersurface.AnalyticSpheroid(1.0, 1.3, 64)
    f = spheroid.grid_fields()
    assert f.nabla_h is spheroid.grid_fields().nabla_h
    fresh = hypersurface._nabla_h_terms(f)
    assert [arr.tobytes() for arr in f.nabla_h] == [arr.tobytes() for arr in fresh]
    for arr in f.nabla_h:
        with pytest.raises(ValueError, match="read-only"):
            arr[0] = 1.0


# ---------------------------------------------------------------------------
# a NaN residual fails its row: Python's max(0.0, nan) is 0.0, so every fold
# of a worst residual must keep the NaN

NAN = float("nan")


class _NaNFirstValue(curvfun.MeanCurvature):
    """H with a NaN value in the first row of every batch."""

    def _value(self, arr):
        out = super()._value(arr).copy()
        out[0] = np.nan
        return out


def test_a_nan_value_fails_the_eigenvalue_fold_rows():
    rows = []
    samples = identities._eigenvalue_samples(np.random.default_rng(0), 10, 2)
    identities._eigenvalue_checks(rows, samples, [_NaNFirstValue(2)])
    residual = {name: res for name, res, _ in rows}
    assert math.isnan(residual["H_n2_permutation_symmetry"])
    assert math.isnan(residual["H_n2_homogeneity"])


def _nan_at(fn, hit):
    """`fn`, but NaN where `hit(*args)` holds."""
    return lambda *args, **kwargs: NAN if hit(*args) else fn(*args, **kwargs)


def _soliton_layer(rows):
    identities._soliton_checks(rows, np.random.default_rng(0))


# (module, name, replacement, layer, rows that must read NaN)
_NAN_CASES = [
    (hypersurface, "codazzi_residual", lambda *a: NAN, identities._geometry_checks,
     ["codazzi_spheroid_refinement_shortfall"]),
    (hypersurface, "support_hessian_residual", lambda *a, **k: NAN, identities._geometry_checks,
     ["support_hessian_spheroid_refinement_shortfall"]),
    (identities, "_ellipse_curvature_error", lambda *a: NAN, identities._geometry_checks,
     ["ellipse_curvature_refinement_shortfall"]),
    (curvfun, "pair_sign_gaps", lambda f, g, lam, evaluated: (np.full(len(lam), NAN),) * 2,
     lambda rows: identities._pair_gap_checks(rows, np.random.default_rng(0), 2),
     ["pair_gaps_convex_concave_n2", "pair_gaps_swapped_n2"]),
    # c = 0 is mid-grid, so each fold already holds a positive worst when the NaN comes
    (spaceform, "shc", _nan_at(spaceform.shc, lambda c, t: c == 0.0), identities._spaceform_checks,
     ["shc_derivative_grid", "chc_derivative_grid", "shc_chc_pythagoras", "shc_continuity_at_c0"]),
    (soliton, "residual_field", lambda samples, f, tau: np.full(4, NAN), _soliton_layer,
     ["sphere_residual_builtins_c0", "sphere_residual_builtins_cm1"]),
    (soliton, "solve_sphere_radius", lambda *a: NAN, _soliton_layer, ["sphere_radius_roundtrip"]),
    (soliton, "sphere_tau", _nan_at(soliton.sphere_tau, lambda f, radius, c: radius == 2.0 * 1.7),
     _soliton_layer, ["sphere_tau_scaling_covariance"]),
    (soliton, "pinching_quadratics", lambda m, t: (NAN, NAN), _soliton_layer,
     ["threshold_root_check_high", "threshold_root_check_low"]),
]


@pytest.mark.parametrize("module,name,replacement,layer,nan_rows", _NAN_CASES,
                         ids=[case[1] for case in _NAN_CASES])
def test_a_nan_residual_fails_its_row(monkeypatch, module, name, replacement, layer, nan_rows):
    monkeypatch.setattr(module, name, replacement)
    rows = []
    layer(rows)
    residual = {row: res for row, res, _ in rows}
    assert all(math.isnan(residual[row]) for row in nan_rows), residual
