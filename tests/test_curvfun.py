import itertools
import math

import numpy as np
import pytest

from solitonlab import curvfun
from solitonlab.curvfun import (AnisotropyRatio, DegreeMismatchError, DomainError,
                                ElementarySymmetric, EuclideanNorm, GaussCurvature,
                                GeometricMean, MeanCurvature, Power, builtin_functions,
                                convexity_classify, euler_residuals,
                                matrix_first_derivative, matrix_second_form,
                                pair_sign_gaps, parse_curvature_function)

from conftest import fd_gradient, fd_hessian, random_rotation, random_spd


# ---------------------------------------------------------------------------
# values, gradients, Hessians

def test_eval_examples():
    assert MeanCurvature(2).value([1.0, 1.0]) == 2.0
    assert GaussCurvature(2).value([2.0, 3.0]) == 6.0
    assert AnisotropyRatio().value([1.0, 1.0]) == 0.0


def test_grad_examples():
    np.testing.assert_allclose(GaussCurvature(2).gradient([2.0, 3.0]), [3.0, 2.0])
    np.testing.assert_allclose(MeanCurvature(3).gradient([0.3, 1.0, 2.5]), np.ones(3))
    # homogeneity pairing: <grad, lam> = m * f
    k = GaussCurvature(2)
    lam = np.array([2.0, 3.0])
    assert float(k.gradient(lam) @ lam) == pytest.approx(12.0, abs=1e-14)
    assert 12.0 == k.degree * k.value(lam)


def test_hess_examples():
    np.testing.assert_array_equal(MeanCurvature(2).hessian([1.0, 5.0]), np.zeros((2, 2)))
    np.testing.assert_allclose(GaussCurvature(2).hessian([1.0, 2.0]), [[0.0, 1.0], [1.0, 0.0]])
    f = EuclideanNorm(2)
    lam = np.array([3.0, 4.0])
    err = np.abs(f.hessian(lam) - fd_hessian(f, lam, step=1e-4))
    assert err.max() / max(1.0, np.abs(f.hessian(lam)).max()) < 1e-6
    grad_step = np.abs(fd_gradient(f, lam, step=1e-5) - f.gradient(lam))
    assert grad_step.max() < 1e-6


def test_sigma2_n3():
    f = ElementarySymmetric(3, 2)
    lam = np.array([1.0, 2.0, 3.0])
    assert f.value(lam) == pytest.approx(2.0 + 3.0 + 6.0)
    np.testing.assert_allclose(f.gradient(lam), [5.0, 4.0, 3.0])
    assert f.degree == 2.0


def test_batch_shapes():
    f = GeometricMean(2)
    lam = np.array([[1.0, 4.0], [2.0, 2.0]])
    np.testing.assert_allclose(f.value(lam), [4.0, 4.0])
    assert f.gradient(lam).shape == (2, 2)
    assert f.hessian(lam).shape == (2, 2, 2)


def test_anisotropy_closed_form():
    f = AnisotropyRatio()
    lam = np.array([1.0, 2.0])
    assert f.value(lam) == pytest.approx(1.0 / 9.0, rel=1e-14)
    np.testing.assert_allclose(f.gradient(lam), fd_gradient(f, lam), atol=1e-9)
    np.testing.assert_allclose(f.hessian(lam), fd_hessian(f, lam), atol=1e-7)


# ---------------------------------------------------------------------------
# domain handling

def test_domain_rejections():
    with pytest.raises(DomainError, match="positive cone"):
        GeometricMean(2).value([1.0, -0.5])
    with pytest.raises(DomainError, match="positive cone"):
        Power(MeanCurvature(2), -1.0).value([1.0, 0.0])
    with pytest.raises(DomainError):
        EuclideanNorm(2).value([0.0, 0.0])
    with pytest.raises(DomainError, match="lam1 \\+ lam2"):
        AnisotropyRatio().value([1.0, -1.0])
    with pytest.raises(DomainError, match="non-finite"):
        MeanCurvature(2).value([np.nan, 1.0])


def test_dimension_validation():
    with pytest.raises(ValueError):
        MeanCurvature(4)
    with pytest.raises(ValueError):
        AnisotropyRatio(3)
    with pytest.raises(ValueError):
        ElementarySymmetric(1, 2)
    with pytest.raises(ValueError):
        MeanCurvature(2).value([1.0, 2.0, 3.0])


# ---------------------------------------------------------------------------
# parser

def test_parse_grammar():
    assert parse_curvature_function("H", 2).name == "H"
    assert parse_curvature_function("K", 3).degree == 3.0
    assert parse_curvature_function("sigma2", 3).degree == 2.0
    assert parse_curvature_function("norm", 2).name == "norm"
    assert parse_curvature_function("geomean", 2).name == "geomean"
    assert parse_curvature_function("anisotropy", 2).degree == 0.0
    p = parse_curvature_function("pow(H,-1)", 2)
    assert p.degree == -1.0
    assert parse_curvature_function("pow(K,0.5)", 2).degree == 1.0


def test_parse_rejections():
    with pytest.raises(ValueError, match="unknown curvature function"):
        parse_curvature_function("Q", 2)
    with pytest.raises(ValueError, match="unknown curvature function"):
        parse_curvature_function("h", 2)           # case-sensitive
    with pytest.raises(ValueError, match="unknown curvature function"):
        parse_curvature_function("pow(anisotropy,2)", 2)
    with pytest.raises(ValueError):
        parse_curvature_function("pow(H,0)", 2)


def test_negative_power_normalization():
    # negative powers carry a minus sign: elliptic with F < 0 on the cone
    p = parse_curvature_function("pow(H,-1)", 2)
    lam = np.array([1.0, 1.0])
    assert p.value(lam) == pytest.approx(-0.5)
    assert np.all(p.gradient(lam) > 0.0)
    assert p.elliptic_on_positive_cone


# ---------------------------------------------------------------------------
# matrix calculus

def test_matrix_first_derivative_examples(rng):
    h = MeanCurvature(2)
    a = random_spd(rng, 2)
    np.testing.assert_allclose(matrix_first_derivative(h, a), np.eye(2), atol=1e-14)

    k = GaussCurvature(2)
    np.testing.assert_allclose(matrix_first_derivative(k, np.diag([2.0, 3.0])),
                               np.diag([3.0, 2.0]), atol=1e-14)

    # <dF, B> against the finite difference of det(A + sB)
    a = np.array([[2.0, 0.5], [0.5, 3.0]])
    b = np.array([[0.0, 1.0], [1.0, 0.0]])
    d = matrix_first_derivative(k, a)
    s = 1e-5
    fd = (np.linalg.det(a + s * b) - np.linalg.det(a - s * b)) / (2.0 * s)
    assert abs(float(np.sum(d * b)) - fd) / abs(fd) < 1e-8


def test_matrix_second_form_examples(rng):
    h = MeanCurvature(3)
    a = np.diag([1.0, 2.0, 3.0])
    b = random_spd(rng, 3)
    assert matrix_second_form(h, a, b) == pytest.approx(0.0, abs=1e-14)

    # analytic oracle: det(diag(1,2) + s*offdiag(1)) = 2 - s^2, second derivative -2
    k = GaussCurvature(2)
    a = np.diag([1.0, 2.0])
    b = np.array([[0.0, 1.0], [1.0, 0.0]])
    assert matrix_second_form(k, a, b) == pytest.approx(-2.0, abs=1e-12)
    # diagonal direction reduces to the eigenvalue Hessian: 2 * hess_12
    assert matrix_second_form(k, a, np.eye(2)) == pytest.approx(2.0, abs=1e-12)


def test_matrix_second_form_validation():
    k = GaussCurvature(2)
    with pytest.raises(ValueError, match="diagonal"):
        matrix_second_form(k, np.array([[1.0, 0.3], [0.3, 2.0]]), np.eye(2))
    with pytest.raises(ValueError, match="symmetric"):
        matrix_second_form(k, np.diag([1.0, 2.0]), np.array([[0.0, 1.0], [0.0, 0.0]]))


def test_second_form_is_quadratic(rng):
    f = GaussCurvature(3)
    a = np.diag([0.7, 1.4, 2.6])
    b = random_spd(rng, 3) - 0.5 * np.eye(3)
    base = matrix_second_form(f, a, b)
    for t in (0.5, 2.0, -3.0):
        assert matrix_second_form(f, a, t * b) == pytest.approx(t * t * base, rel=1e-12)


def test_second_form_coincident_eigenvalues():
    # the divided difference switches to its limit without blowing up
    f = EuclideanNorm(2)
    b = np.array([[0.3, 1.0], [1.0, -0.2]])
    exact = matrix_second_form(f, np.diag([2.0, 2.0 + 1e-12]), b)
    nearby = matrix_second_form(f, np.diag([2.0, 2.0 + 1e-5]), b)
    assert np.isfinite(exact)
    assert exact == pytest.approx(nearby, rel=1e-4)


def test_euler_residual_examples(rng):
    r1, r2 = euler_residuals(MeanCurvature(3), np.diag([1.0, 2.0, 3.0]))
    assert r1 < 1e-12 and r2 < 1e-12
    r1, r2 = euler_residuals(GaussCurvature(2), np.diag([2.0, 3.0]))
    assert r1 < 1e-10 and r2 < 1e-10
    p = Power(MeanCurvature(2), -1.0)
    for _ in range(20):
        a = random_spd(rng, 2)
        fval = p.value(np.linalg.eigvalsh(a))
        r1, r2 = euler_residuals(p, a)
        assert r1 <= 1e-10 * max(1.0, abs(fval))
        assert r2 <= 1e-10 * max(1.0, abs(fval))


# ---------------------------------------------------------------------------
# convexity classification

def test_classify_linear_reports_both(rng):
    samples = list(rng.uniform(0.2, 3.0, (50, 2)))
    verdict = convexity_classify(MeanCurvature(2), samples)
    assert verdict.label == "convex"
    assert verdict.is_convex and verdict.is_concave


def test_classify_known_families(rng):
    samples2 = list(rng.uniform(0.2, 3.0, (100, 2)))
    samples3 = list(rng.uniform(0.2, 3.0, (100, 3)))
    assert convexity_classify(GeometricMean(2), samples2).label == "concave"
    assert convexity_classify(GeometricMean(3), samples3).label == "concave"
    assert convexity_classify(EuclideanNorm(2), samples2).label == "convex"
    assert convexity_classify(Power(MeanCurvature(2), -1.0), samples2).label == "concave"
    near = [np.array([1.0, 2.0]) + 0.01 * d for d in rng.standard_normal((30, 2))]
    assert convexity_classify(GaussCurvature(2), near).label == "neither"


def test_classify_edge_cases(rng):
    with pytest.raises(ValueError, match="empty"):
        convexity_classify(MeanCurvature(2), [])
    few = list(rng.uniform(0.5, 2.0, (5, 2)))
    assert convexity_classify(MeanCurvature(2), few).label == "indeterminate"


# ---------------------------------------------------------------------------
# convex/concave pairing gaps

def test_pair_gaps_identical_functions():
    h = MeanCurvature(2)
    g1, g2 = pair_sign_gaps(h, h, [0.7, 2.2])
    assert g1 == pytest.approx(0.0, abs=1e-14)
    assert g2 == pytest.approx(0.0, abs=1e-14)


def test_pair_gaps_anchor():
    # norm (convex) against 2*sqrt(lam1 lam2) (concave) at lam = (1, 2):
    # independent arithmetic: F = sqrt(5), sum dg = 3/sqrt(2), G = 2 sqrt(2),
    # sum df = 3/sqrt(5), so gap2 = sqrt(5)*3/sqrt(2) - 2 sqrt(2)*3/sqrt(5).
    expected = math.sqrt(5.0) * 3.0 / math.sqrt(2.0) - 2.0 * math.sqrt(2.0) * 3.0 / math.sqrt(5.0)
    assert expected == pytest.approx(3.0 / math.sqrt(10.0), rel=1e-15)
    _, g2 = pair_sign_gaps(EuclideanNorm(2), GeometricMean(2), [1.0, 2.0])
    assert g2 == pytest.approx(expected, rel=1e-12)
    assert g2 >= 0.0


def test_pair_gaps_sign_property(rng):
    convex = EuclideanNorm(2)
    concave = GeometricMean(2)
    for lam in rng.uniform(0.05, 4.0, (1000, 2)):
        g1, g2 = pair_sign_gaps(convex, concave, lam)
        assert g1 >= -1e-12 * max(1.0, abs(g1))
        assert g2 >= -1e-12 * max(1.0, abs(g2))
        s1, s2 = pair_sign_gaps(concave, convex, lam)
        assert s1 <= 1e-12 * max(1.0, abs(s1))
        assert s2 <= 1e-12 * max(1.0, abs(s2))


def test_pair_gaps_rejections():
    with pytest.raises(DegreeMismatchError):
        pair_sign_gaps(MeanCurvature(2), GaussCurvature(2), [1.0, 2.0])
    with pytest.raises(ValueError, match="elliptic"):
        pair_sign_gaps(AnisotropyRatio(), AnisotropyRatio(), [1.0, 2.0])
    with pytest.raises(DomainError, match="nonnegative"):
        pair_sign_gaps(EuclideanNorm(2), GeometricMean(2), [-1.0, 2.0])


# ---------------------------------------------------------------------------
# the batch convention: (k, n) eigenvalue rows in one call

@pytest.mark.parametrize("n", [1, 2, 3])
def test_pair_gaps_batch_matches_rows(n):
    lam = np.random.default_rng(100 + n).uniform(0.05, 4.0, (300, n))
    for f, g in ((EuclideanNorm(n), GeometricMean(n)), (GeometricMean(n), EuclideanNorm(n))):
        batch = np.column_stack(pair_sign_gaps(f, g, lam))
        rows = np.array([pair_sign_gaps(f, g, row) for row in lam])
        assert batch.shape == rows.shape == (300, 2)
        assert np.all(np.abs(batch - rows) <= 1e-15 * np.abs(rows))
        assert all(type(x) is float for x in pair_sign_gaps(f, g, lam[0]))


def _classify_sets(n):
    """Seeded sample sets: plain, with coincident rows, clustered, and too few."""
    rng = np.random.default_rng(7 + n)
    coincident = rng.uniform(0.2, 3.0, (40, n))
    coincident[::2] = coincident[::2, :1]
    return [rng.uniform(0.2, 3.0, (60, n)), coincident,
            np.repeat(rng.uniform(0.2, 3.0, (20, 1)), n, axis=1),
            np.array([1.0, 2.0, 1.5][:n]) + 0.01 * rng.standard_normal((30, n)),
            rng.uniform(0.2, 3.0, (5, n))]


@pytest.mark.parametrize("n", [1, 2, 3])
def test_classify_array_matches_list(n):
    labels = set()
    for f in builtin_functions(n, include_anisotropy=False) + [Power(GaussCurvature(n), 0.3)]:
        for samples in _classify_sets(n):
            verdict = convexity_classify(f, samples)
            assert verdict == convexity_classify(f, list(samples))
            assert verdict.samples_used == len(samples)
            labels.add(verdict.label)
    assert "indeterminate" in labels and len(labels) >= 3


def test_batch_refusals():
    for n in (1, 2, 3):
        with pytest.raises(ValueError, match="empty"):
            pair_sign_gaps(EuclideanNorm(n), GeometricMean(n), np.zeros((0, n)))
        with pytest.raises(ValueError, match="empty"):
            convexity_classify(MeanCurvature(n), np.zeros((0, n)))
        with pytest.raises(ValueError):
            convexity_classify(MeanCurvature(n), np.ones(n))
    with pytest.raises(ValueError):
        pair_sign_gaps(EuclideanNorm(2), GeometricMean(2), np.ones((4, 3)))
    with pytest.raises(DomainError, match="nonnegative"):
        pair_sign_gaps(EuclideanNorm(2), GeometricMean(2), [[1.0, 2.0], [0.5, -1.0]])


# ---------------------------------------------------------------------------
# sampled invariants over every built-in family

@pytest.mark.parametrize("n", [2, 3])
def test_permutation_and_homogeneity(n, rng):
    lam = rng.uniform(0.2, 3.0, (100, n))
    for f in builtin_functions(n):
        values = f.value(lam)
        scale = np.maximum(1.0, np.abs(values))
        for perm in itertools.permutations(range(n)):
            assert (np.abs(f.value(lam[:, perm]) - values) / scale).max() < 1e-14
        for t in (0.5, 2.0, 10.0):
            expect = t ** f.degree * values
            rel = np.abs(f.value(t * lam) - expect) / np.maximum(1.0, np.abs(expect))
            assert rel.max() < 1e-12


@pytest.mark.parametrize("n", [1, 2, 3])
def test_gradient_hessian_fd(n, rng):
    for f in builtin_functions(n):
        for lam in rng.uniform(0.3, 2.5, (50, n)):
            g = f.gradient(lam)
            h = f.hessian(lam)
            assert np.abs(fd_gradient(f, lam) - g).max() / max(1.0, np.abs(g).max()) < 1e-6
            assert np.abs(fd_hessian(f, lam) - h).max() / max(1.0, np.abs(h).max()) < 1e-6


@pytest.mark.parametrize("n", [2, 3])
def test_second_form_matches_fd(n, rng):
    for f in builtin_functions(n):
        for _ in range(25):
            eig = np.sort(rng.uniform(0.2, 3.0, n))
            while np.diff(eig).min() < 1e-3:
                eig = np.sort(rng.uniform(0.2, 3.0, n))
            a = np.diag(eig)
            b = random_spd(rng, n) - np.diag(rng.uniform(0.0, 1.0, n))
            b = 0.5 * (b + b.T)
            form = matrix_second_form(f, a, b)
            s = 1e-4

            def feval(mat):
                return f.value(np.linalg.eigvalsh(mat))

            fd = (feval(a + s * b) - 2.0 * feval(a) + feval(a - s * b)) / s ** 2
            assert abs(form - fd) / max(1.0, abs(form)) < 1e-5


@pytest.mark.parametrize("n", [2, 3])
def test_basis_invariance(n, rng):
    for f in builtin_functions(n):
        for _ in range(20):
            a = random_spd(rng, n)
            q = random_rotation(rng, n)
            d = matrix_first_derivative(f, a)
            d_rot = matrix_first_derivative(f, q @ a @ q.T)
            assert np.abs(d_rot - q @ d @ q.T).max() <= 1e-10 * max(1.0, np.abs(d).max())


@pytest.mark.parametrize("n", [2, 3])
def test_euler_residuals_all_families(n, rng):
    for f in builtin_functions(n):
        for _ in range(100):
            a = random_spd(rng, n)
            fval = f.value(np.linalg.eigvalsh(a))
            r1, r2 = euler_residuals(f, a)
            bound = 1e-10 * max(1.0, abs(fval))
            assert r1 <= bound and r2 <= bound


def test_ellipticity_flags(rng):
    for n in (2, 3):
        for f in builtin_functions(n):
            if not f.elliptic_on_positive_cone:
                assert f.name == "anisotropy"
                continue
            grads = f.gradient(rng.uniform(0.1, 4.0, (200, n)))
            assert np.all(grads > 0.0)


# ---------------------------------------------------------------------------
# the matrix calculus on (k, n, n) stacks

def _calculus_stacks(rng, n, k=7):
    """SPD matrices, diagonal matrices (one with coincident eigenvalues) and directions."""
    spd = np.array([random_spd(rng, n) for _ in range(k)])
    diag = np.array([np.diag(rng.uniform(0.2, 3.0, n)) for _ in range(k)])
    diag[2] = 2.0 * np.eye(n)
    direction = np.array([random_spd(rng, n) - 0.5 * np.eye(n) for _ in range(k)])
    return spd, diag, direction


def _close(stacked, single):
    return np.abs(stacked - single).max() <= 1e-15 * max(1.0, np.abs(single).max())


@pytest.mark.parametrize("n", [1, 2, 3])
def test_stacked_calculus_matches_single_matrices(n, rng):
    spd, diag, direction = _calculus_stacks(rng, n)
    for f in builtin_functions(n):
        first = matrix_first_derivative(f, spd)
        form = matrix_second_form(f, diag, direction)
        r1, r2 = euler_residuals(f, spd)
        assert first.shape == (len(spd), n, n)
        assert form.shape == r1.shape == r2.shape == (len(spd),)
        for i in range(len(spd)):
            single = matrix_first_derivative(f, spd[i])
            assert single.shape == (n, n) and _close(first[i], single)
            single = matrix_second_form(f, diag[i], direction[i])
            assert isinstance(single, float) and _close(form[i], single)
            single = euler_residuals(f, spd[i])
            assert all(isinstance(r, float) for r in single)
            assert _close(r1[i], single[0]) and _close(r2[i], single[1])


@pytest.mark.parametrize("n", [1, 2, 3])
def test_stacked_calculus_names_the_bad_member(n, rng):
    spd, diag, direction = _calculus_stacks(rng, n)
    for f in builtin_functions(n):
        bad = spd.copy()
        bad[4, 0, n - 1] = np.nan
        with pytest.raises(DomainError, match=r"A\[4\] has non-finite"):
            matrix_first_derivative(f, bad)
        with pytest.raises(DomainError, match=r"A\[4\] has non-finite"):
            euler_residuals(f, bad)
        bad = diag.copy()
        bad[4, 0, 0] = np.inf
        with pytest.raises(DomainError, match=r"A\[4\] has non-finite"):
            matrix_second_form(f, bad, direction)
        bad = direction.copy()
        bad[5, n - 1, 0] = np.nan
        with pytest.raises(DomainError, match=r"B\[5\] has non-finite"):
            matrix_second_form(f, diag, bad)
        if n > 1:
            bad = spd.copy()
            bad[3, 0, 1] += 0.1
            with pytest.raises(ValueError, match=r"A\[3\] is not symmetric"):
                matrix_first_derivative(f, bad)
            with pytest.raises(ValueError, match=r"A\[3\] is not symmetric"):
                euler_residuals(f, bad)
            bad = direction.copy()
            bad[6, 1, 0] += 0.1
            with pytest.raises(ValueError, match=r"B\[6\] is not symmetric"):
                matrix_second_form(f, diag, bad)
            bad = diag.copy()
            bad[1, 0, 1] = bad[1, 1, 0] = 0.3
            with pytest.raises(ValueError, match=r"A\[1\] must be diagonal"):
                matrix_second_form(f, bad, direction)
        for calc in (matrix_first_derivative, euler_residuals):
            with pytest.raises(ValueError, match="empty"):
                calc(f, np.zeros((0, n, n)))
        with pytest.raises(ValueError, match="empty"):
            matrix_second_form(f, np.zeros((0, n, n)), np.zeros((0, n, n)))
        with pytest.raises(ValueError, match="same shape"):
            matrix_second_form(f, diag, direction[:-1])


@pytest.mark.parametrize("n", [2, 3])
def test_stacked_value_and_gradient_equal_separate_calls_bit_for_bit(n, rng):
    # the identity suite evaluates each function once per pass on all its rows
    # stacked, which is only sound while a row's result ignores its neighbours
    blocks = [rng.uniform(0.2, 3.0, (k, n)) for k in (1, 2, 7, 30, 97)]
    stacked = np.concatenate(blocks)
    for f in builtin_functions(n):
        for method in (f.value, f.gradient):
            separate = np.concatenate([method(block) for block in blocks])
            assert method(stacked).tobytes() == separate.tobytes(), (f.name, method.__name__)
