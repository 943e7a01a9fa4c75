import itertools
import math

import numpy as np
import pytest

from solitonlab import curvfun
from solitonlab.curvfun import (DegreeMismatchError, DomainError, ElementarySymmetric,
                                EuclideanNorm, GaussCurvature, GeometricMean,
                                MeanCurvature, Power, builtin_functions, euler_residuals,
                                matrix_first_derivative, matrix_second_form,
                                pair_sign_gaps, parse_curvature_function, second_form_pair,
                                symmetric_stack)

from conftest import fd_gradient, fd_hessian, random_rotation, random_spd


# ---------------------------------------------------------------------------
# values, gradients, Hessians

def test_eval_examples():
    assert MeanCurvature(2).value([1.0, 1.0]) == 2.0
    assert GaussCurvature(2).value([2.0, 3.0]) == 6.0


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


@pytest.mark.parametrize("n", [2, 3])
def test_sigma1_has_zero_hessian_and_its_calculus_runs(n, rng):
    f = ElementarySymmetric(n, 1)
    lam = rng.uniform(0.2, 3.0, (50, n))
    assert np.array_equal(f.hessian(lam), np.zeros((50, n, n)))
    a = random_spd(rng, n)
    r1, r2 = euler_residuals(f, a)
    assert r1 < 1e-12 and r2 < 1e-12
    assert matrix_second_form(f, np.diag(lam[0]), np.eye(n)) == 0.0
    assert _sampled_convexity(f, lam) == "convex" == f.convexity


def test_batch_shapes():
    f = GeometricMean(2)
    lam = np.array([[1.0, 4.0], [2.0, 2.0]])
    np.testing.assert_allclose(f.value(lam), [4.0, 4.0])
    assert f.gradient(lam).shape == (2, 2)
    assert f.hessian(lam).shape == (2, 2, 2)


# ---------------------------------------------------------------------------
# domain handling

def test_domain_rejections():
    with pytest.raises(DomainError, match="positive cone"):
        GeometricMean(2).value([1.0, -0.5])
    with pytest.raises(DomainError, match="positive cone"):
        Power(MeanCurvature(2), -1.0).value([1.0, 0.0])
    with pytest.raises(DomainError):
        EuclideanNorm(2).value([0.0, 0.0])
    with pytest.raises(DomainError, match="non-finite"):
        MeanCurvature(2).value([np.nan, 1.0])


def _cone_message(name, row):
    return (f"{name}: requires eigenvalues in the positive cone (all entries > 0); "
            f"got {row.tolist()}")


# the functions with a domain check, and the message that refuses a row of each
_DOMAIN_CHECKED = [
    (GeometricMean, _cone_message),
    (lambda n: Power(MeanCurvature(n), -1.0), _cone_message),
    (lambda n: Power(EuclideanNorm(n), 0.5), _cone_message),
    (EuclideanNorm, lambda name, row: f"{name}: undefined (not differentiable) at the zero vector"),
]


@pytest.mark.parametrize("make, message", _DOMAIN_CHECKED,
                         ids=["geomean", "pow(H,-1)", "pow(norm,0.5)", "norm"])
@pytest.mark.parametrize("n", [1, 2, 3])
@pytest.mark.parametrize("where", [0, 23, 49], ids=["first", "mid", "last"])
@pytest.mark.parametrize("entry", [0.0, -0.0, -0.7], ids=["zero", "minus-zero", "negative"])
def test_entry_checks_name_the_first_bad_row(make, message, n, where, entry, rng):
    # the cone is refused by any entry <= 0 in a row; norm only by a row of zeros, so its
    # "negative" case is a row of zeros of both signs
    f = make(n)
    lam = rng.uniform(0.2, 3.0, (50, n))
    bad = lam[where]
    if f.name != "norm":
        bad[n // 2] = entry
    else:
        bad[:] = entry if entry == 0.0 else [0.0, -0.0, 0.0][:n]
    if where < 49:
        lam[where + 1] = 0.0                  # a second bad row, which is not the one named
    for method in (f.value, f.gradient, f.hessian):
        with pytest.raises(DomainError) as refused:
            method(lam)
        assert str(refused.value) == message(f.name, bad)
        with pytest.raises(DomainError) as refused:
            method(bad)
        assert str(refused.value) == message(f.name, bad)


@pytest.mark.parametrize("make", [m for m, _ in _DOMAIN_CHECKED] + [MeanCurvature, GaussCurvature],
                         ids=["geomean", "pow(H,-1)", "pow(norm,0.5)", "norm", "H", "K"])
@pytest.mark.parametrize("n", [1, 2, 3])
@pytest.mark.parametrize("entry", [np.nan, np.inf, -np.inf])
def test_non_finite_rows_are_refused_before_the_domain(make, n, entry, rng):
    f = make(n)
    lam = rng.uniform(0.2, 3.0, (50, n))
    lam[3] = 0.0                              # outside every domain, ahead of the non-finite row
    lam[30, n - 1] = entry
    for method in (f.value, f.gradient, f.hessian):
        with pytest.raises(DomainError) as refused:
            method(lam)
        assert str(refused.value) == f"{f.name}: non-finite eigenvalue entries"


@pytest.mark.parametrize("n", [1, 2, 3])
def test_an_empty_batch_gives_empty_results(n):
    for f in builtin_functions(n) + [Power(EuclideanNorm(n), 0.5)]:
        empty = np.zeros((0, n))
        assert f.value(empty).shape == (0,)
        assert f.gradient(empty).shape == (0, n)
        assert f.hessian(empty).shape == (0, n, n)


def test_dimension_validation():
    with pytest.raises(ValueError):
        MeanCurvature(4)
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
    p = parse_curvature_function("pow(H,-1)", 2)
    assert p.degree == -1.0
    assert parse_curvature_function("pow(K,0.5)", 2).degree == 1.0


def test_parse_rejections():
    with pytest.raises(ValueError, match=r"expected H, K, sigma2, norm, geomean, or pow\("):
        parse_curvature_function("Q", 2)
    with pytest.raises(ValueError, match="unknown curvature function"):
        parse_curvature_function("h", 2)           # case-sensitive
    for spec in ("anisotropy", "pow(anisotropy,2)", "pow(Q,2)"):
        with pytest.raises(ValueError, match="unknown curvature function"):
            parse_curvature_function(spec, 2)
    with pytest.raises(ValueError, match="finite and nonzero"):
        parse_curvature_function("pow(H,0)", 2)
    with pytest.raises(ValueError, match="finite and nonzero"):
        parse_curvature_function("pow(H,1e999)", 2)


def test_builtin_functions_keep_their_order_and_names():
    names = ["H", "K", "sigma2", "norm", "geomean", "pow(H,-1)"]
    assert [f.name for f in builtin_functions(1)] == [name for name in names if name != "sigma2"]
    for n in (2, 3):
        assert [f.name for f in builtin_functions(n)] == names


# 0.3333333 and 0.33333333 were both named pow(H,0.333333), which reads back as neither
_EXPONENTS = [1.0 / 3.0, 0.3333333, 0.33333333, 2.0, -1.0, 1e-5, 123456789.0]


@pytest.mark.parametrize("p", _EXPONENTS)
def test_power_names_read_back_as_their_exponent(p):
    f = Power(MeanCurvature(2), p)
    assert parse_curvature_function(f.name, 2).p == p


def test_distinct_exponents_have_distinct_names():
    assert len({Power(MeanCurvature(2), p).name for p in _EXPONENTS}) == len(_EXPONENTS)


def test_power_names_keep_the_g_form_of_exact_exponents():
    for p, text in ((-1.0, "-1"), (0.5, "0.5"), (2.0, "2"), (1e-5, "1e-05"), (1e6, "1e+06"),
                    (0.3333333, "0.3333333")):
        assert Power(GaussCurvature(2), p).name == f"pow(K,{text})"
    assert Power(MeanCurvature(2), 1.0 / 3.0).name == "pow(H,0.3333333333333333)"


def test_negative_power_normalization():
    # negative powers carry a minus sign: elliptic with F < 0 on the cone
    p = parse_curvature_function("pow(H,-1)", 2)
    lam = np.array([1.0, 1.0])
    assert p.value(lam) == pytest.approx(-0.5)
    assert np.all(p.gradient(lam) > 0.0)


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
# convexity: the exact label against a sampled reference

def _sampled_convexity(f, lam):
    """The sampled reference for `f.convexity` on (k, n) eigenvalue rows `lam`.

    "convex" when every row has a positive semidefinite eigenvalue Hessian and nonnegative
    gradient divided differences, "concave" dually (a linear f, both, is "convex"), else
    "neither".  Each sign is tested with a slack of 1e-9 relative to what it tests; two
    eigenvalues closer than 1e-8 max(1, |lam|) coincide and give no divided difference.
    """
    hess = f.hessian(lam)
    eigs = np.linalg.eigvalsh(hess)
    eig_tol = 1e-9 * np.maximum(1.0, np.abs(hess).max(axis=(1, 2)))
    g = f.gradient(lam)
    i, j = np.triu_indices(f.n, 1)
    gap = lam[:, i] - lam[:, j]
    distinct = np.abs(gap) >= 1e-8 * np.maximum(1.0, np.linalg.norm(lam, axis=1))[:, None]
    dd = (g[:, i] - g[:, j])[distinct] / gap[distinct]
    dd_tol = 1e-9 * np.maximum(1.0, np.abs(dd))
    if not (np.any(eigs.min(axis=1) < -eig_tol) or np.any(dd < -dd_tol)):
        return "convex"
    if not (np.any(eigs.max(axis=1) > eig_tol) or np.any(dd > dd_tol)):
        return "concave"
    return "neither"


def test_classify_linear_is_convex(rng):
    samples = rng.uniform(0.2, 3.0, (50, 2))
    assert _sampled_convexity(MeanCurvature(2), samples) == "convex"


def test_classify_known_families(rng):
    samples2 = rng.uniform(0.2, 3.0, (100, 2))
    samples3 = rng.uniform(0.2, 3.0, (100, 3))
    assert _sampled_convexity(GeometricMean(2), samples2) == "concave"
    assert _sampled_convexity(GeometricMean(3), samples3) == "concave"
    assert _sampled_convexity(EuclideanNorm(2), samples2) == "convex"
    assert _sampled_convexity(Power(MeanCurvature(2), -1.0), samples2) == "concave"
    near = np.array([1.0, 2.0]) + 0.01 * rng.standard_normal((30, 2))
    assert _sampled_convexity(GaussCurvature(2), near) == "neither"


# the exponents the exact label is checked at: a spread of powers, and both sides of every
# range bound a family can have for n <= 3 (1/k for sigma_k and K, 1 for the others)
_LABEL_EXPONENTS = sorted({-2.0, -0.5, 0.25, 1 / 3, 0.5, 0.75, 1.0, 1.5, 2.0, 3.0}
                          | {b + d for b in (1.0, 0.5, 1 / 3) for d in (-1e-5, 1e-5)})


@pytest.mark.parametrize("name, n", [(name, n) for name in curvfun._FAMILIES for n in (1, 2, 3)
                                     if n >= 2 or name != "sigma2"])
def test_exact_convexity_agrees_with_the_sampled_classifier(name, n):
    # every row of the family table, so a new row with no `power_range` fails here
    make = curvfun._FAMILIES[name]
    functions = [make(n)] + [Power(make(n), p) for p in _LABEL_EXPONENTS if p != 1.0]
    for seed in range(5):
        rows = np.random.default_rng(seed).uniform(0.2, 3.0, (200, n))
        for f in functions:
            assert f.convexity == _sampled_convexity(f, rows), (f.name, seed)


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


@pytest.mark.parametrize("n", [1, 2, 3])
def test_pair_gaps_with_evaluated_functions_keep_their_bits(n):
    # F, G, dF and dG handed in as f.value and f.gradient return them give the bytes of the
    # call that evaluates them itself, for one row and for a batch, in both orderings
    lam = np.random.default_rng(200 + n).uniform(0.05, 4.0, (50, n))
    for f, g in ((EuclideanNorm(n), GeometricMean(n)), (GeometricMean(n), EuclideanNorm(n))):
        for rows in (lam, lam[0]):
            evaluated = (f.value(rows), g.value(rows), f.gradient(rows), g.gradient(rows))
            given = pair_sign_gaps(f, g, rows, evaluated)
            alone = pair_sign_gaps(f, g, rows)
            assert [type(x) for x in given] == [type(x) for x in alone]
            assert [np.asarray(x).tobytes() for x in given] == [
                np.asarray(x).tobytes() for x in alone], (f.name, np.ndim(rows))


def test_batch_refusals():
    for n in (1, 2, 3):
        with pytest.raises(ValueError, match="empty"):
            pair_sign_gaps(EuclideanNorm(n), GeometricMean(n), np.zeros((0, n)))
    with pytest.raises(ValueError):
        pair_sign_gaps(EuclideanNorm(2), GeometricMean(2), np.ones((4, 3)))
    with pytest.raises(ValueError, match=r"A must be square .* got shape \(3, 2, 3\)"):
        matrix_first_derivative(MeanCurvature(2), np.ones((3, 2, 3)))
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


def test_every_builtin_is_elliptic_on_the_positive_cone(rng):
    for n in (1, 2, 3):
        for f in builtin_functions(n):
            grads = f.gradient(rng.uniform(0.1, 4.0, (200, n)))
            assert np.all(grads > 0.0), f.name


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


def _same_bits(x, y):
    return np.asarray(x).tobytes() == np.asarray(y).tobytes()


@pytest.mark.parametrize("n", [1, 2, 3])
def test_stacked_calculus_matches_single_matrices(n, rng):
    # a symmetric_stack record gives the bits of the matrices it decomposed
    spd, diag, direction = _calculus_stacks(rng, n)
    decomposed = symmetric_stack(spd)
    singles = [symmetric_stack(a) for a in spd]
    for f in builtin_functions(n):
        first = matrix_first_derivative(f, spd)
        form = matrix_second_form(f, diag, direction)
        r1, r2 = euler_residuals(f, spd)
        assert first.shape == (len(spd), n, n)
        assert form.shape == r1.shape == r2.shape == (len(spd),)
        assert _same_bits(matrix_first_derivative(f, decomposed), first)
        assert all(map(_same_bits, euler_residuals(f, decomposed), (r1, r2)))
        for i in range(len(spd)):
            single = matrix_first_derivative(f, spd[i])
            assert single.shape == (n, n) and _close(first[i], single)
            assert _same_bits(matrix_first_derivative(f, singles[i]), single)
            single = matrix_second_form(f, diag[i], direction[i])
            assert isinstance(single, float) and _close(form[i], single)
            single = euler_residuals(f, spd[i])
            assert all(isinstance(r, float) for r in single)
            assert _close(r1[i], single[0]) and _close(r2[i], single[1])
            from_record = euler_residuals(f, singles[i])
            assert all(isinstance(r, float) for r in from_record)
            assert all(map(_same_bits, from_record, single))


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
        with pytest.raises(DomainError, match=r"A\[4\] has non-finite"):
            symmetric_stack(bad)
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
            with pytest.raises(ValueError, match=r"A\[3\] is not symmetric"):
                symmetric_stack(bad)
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
            symmetric_stack(np.zeros((0, n, n)))
        with pytest.raises(ValueError, match="empty"):
            matrix_second_form(f, np.zeros((0, n, n)), np.zeros((0, n, n)))
        with pytest.raises(ValueError, match="same shape"):
            matrix_second_form(f, diag, direction[:-1])


@pytest.mark.parametrize("n", [2, 3])
def test_a_second_form_pair_gives_the_bits_of_its_matrices(n, rng):
    _, diag, direction = _calculus_stacks(rng, n)
    pair = second_form_pair(diag, direction)
    singles = [second_form_pair(a, b) for a, b in zip(diag, direction)]
    for f in builtin_functions(n):
        assert _same_bits(matrix_second_form(f, pair), matrix_second_form(f, diag, direction))
        for i, single in enumerate(singles):
            form = matrix_second_form(f, single)
            assert isinstance(form, float)
            assert _same_bits(form, matrix_second_form(f, diag[i], direction[i]))
    for arr in (pair.lam, pair.b):
        with pytest.raises(ValueError, match="read-only"):
            arr[0] = 1.0


@pytest.mark.parametrize("n", [2, 3])
def test_a_second_form_pair_refuses_as_the_two_matrix_call(n, rng):
    _, diag, direction = _calculus_stacks(rng, n)
    f = GaussCurvature(n)
    refusals = []
    bad = diag.copy()
    bad[4, 0, 0] = np.inf
    refusals.append(((bad, direction), DomainError, "A[4] has non-finite entries"))
    bad = direction.copy()
    bad[5, n - 1, 0] = np.nan
    refusals.append(((diag, bad), DomainError, "B[5] has non-finite entries"))
    bad = diag.copy()
    bad[1, 0, 1] = bad[1, 1, 0] = 0.3
    refusals.append(((bad, direction), ValueError,
                     "A[1] must be diagonal for the second-derivative form"))
    refusals.append(((bad[1], direction[1]), ValueError,
                     "A must be diagonal for the second-derivative form"))
    bad = direction.copy()
    bad[6, 1, 0] += 0.1
    refusals.append(((diag, bad), ValueError, "B[6] is not symmetric"))
    refusals.append(((diag, direction[:-1]), ValueError,
                     f"A and B must have the same shape, got {diag.shape} and "
                     f"{direction[:-1].shape}"))
    for (a, b), error, message in refusals:
        for call in (lambda: matrix_second_form(f, a, b), lambda: second_form_pair(a, b)):
            with pytest.raises(error) as refused:
                call()
            assert str(refused.value) == message


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


@pytest.mark.parametrize("n", [1, 2, 3])
def test_the_matrix_calculus_checks_its_eigenvalue_rows_once(monkeypatch, n, rng):
    spd, diag, direction = _calculus_stacks(rng, n)
    decomposed, pair = symmetric_stack(spd), second_form_pair(diag, direction)
    checked = []

    def counted(self, lam, _inner=curvfun.CurvatureFunction._coerce):
        checked.append(np.shape(lam))
        return _inner(self, lam)

    monkeypatch.setattr(curvfun.CurvatureFunction, "_coerce", counted)
    calls = [lambda f: matrix_first_derivative(f, spd),
             lambda f: matrix_first_derivative(f, spd[0]),
             lambda f: matrix_first_derivative(f, decomposed),
             lambda f: matrix_second_form(f, diag, direction),
             lambda f: matrix_second_form(f, diag[0], direction[0]),
             lambda f: matrix_second_form(f, pair),
             lambda f: euler_residuals(f, spd),
             lambda f: euler_residuals(f, spd[0]),
             lambda f: euler_residuals(f, decomposed)]
    for f in builtin_functions(n):
        for i, call in enumerate(calls):
            checked.clear()
            call(f)
            assert len(checked) == 1, (f.name, i)


@pytest.mark.parametrize("make", [GeometricMean, lambda n: Power(MeanCurvature(n), -1.0)],
                         ids=["geomean", "pow(H,-1)"])
def test_the_matrix_calculus_refuses_eigenvalues_as_value_does(make):
    f = make(2)
    direction = np.array([[0.5, 0.2], [0.2, -0.3]])
    bad = np.diag([1.0, -1.0])
    for a in (bad, np.array([np.eye(2), np.diag([2.0, 0.5]), bad])):
        # the first derivative and the Euler identities see A's ascending eigenvalues,
        # the second form A's diagonal
        directions = np.broadcast_to(direction, a.shape)
        cases = [(lambda: matrix_first_derivative(f, a), np.linalg.eigvalsh(a)),
                 (lambda: euler_residuals(f, a), np.linalg.eigvalsh(a)),
                 (lambda: matrix_second_form(f, a, directions), np.diagonal(a, axis1=-2, axis2=-1))]
        for call, lam in cases:
            with pytest.raises(DomainError) as expected:
                f.value(lam)
            with pytest.raises(DomainError) as refused:
                call()
            assert str(refused.value) == str(expected.value)


# ---------------------------------------------------------------------------
# the matrix calculus on results already evaluated, for one function or a list of them

def _public_results(functions, rows, kinds):
    """Each function's public `kinds` results at `rows`, one tuple per function."""
    return [tuple(getattr(f, kind)(rows) for kind in kinds) for f in functions]


def _stacked(results):
    """Per-function result tuples as one tuple of arrays with a leading function axis."""
    return tuple(np.stack(arrays) for arrays in zip(*results))


def _same_array(x, y):
    return np.shape(x) == np.shape(y) and _same_bits(x, y)


@pytest.mark.parametrize("n", [2, 3])
@pytest.mark.parametrize("single", [False, True], ids=["stack", "one-matrix"])
def test_the_matrix_calculus_on_evaluated_results_keeps_the_bits_of_its_own_calls(n, single,
                                                                                  rng):
    spd, diag, direction = _calculus_stacks(rng, n)
    if single:
        spd, diag, direction = spd[0], diag[0], direction[0]
    record, pair = symmetric_stack(spd), second_form_pair(diag, direction)
    functions = builtin_functions(n)
    at_record = _public_results(functions, record.lam, ("value", "gradient", "hessian"))
    at_pair = _public_results(functions, pair.lam, ("gradient", "hessian"))
    alone = [(matrix_first_derivative(f, spd), matrix_second_form(f, diag, direction),
              euler_residuals(f, spd)) for f in functions]
    for f, (value, grad, hess), form_rows, (first, form, euler) in zip(
            functions, at_record, at_pair, alone):
        for a in (spd, record):
            assert _same_array(matrix_first_derivative(f, a, evaluated=grad), first), f.name
            given = euler_residuals(f, a, evaluated=(value, grad, hess))
            assert [type(r) for r in given] == [type(r) for r in euler], f.name
            assert all(map(_same_array, given, euler)), f.name
        for args in ((diag, direction), (pair,)):
            given = matrix_second_form(f, *args, evaluated=form_rows)
            assert type(given) is type(form) and _same_array(given, form), f.name
    values, grads, hessians = _stacked(at_record)
    first = matrix_first_derivative(functions, record, evaluated=grads)
    assert _same_array(first, np.stack([calls[0] for calls in alone]))
    form = matrix_second_form(functions, pair, evaluated=_stacked(at_pair))
    assert _same_array(form, np.array([calls[1] for calls in alone]))
    r1, r2 = euler_residuals(functions, spd, evaluated=(values, grads, hessians))
    assert _same_array(r1, np.array([calls[2][0] for calls in alone]))
    assert _same_array(r2, np.array([calls[2][1] for calls in alone]))


@pytest.mark.parametrize("n", [2, 3])
def test_the_matrix_calculus_on_evaluated_results_evaluates_nothing(monkeypatch, n, rng):
    spd, diag, direction = _calculus_stacks(rng, n)
    record, pair = symmetric_stack(spd), second_form_pair(diag, direction)
    functions = builtin_functions(n)
    values, grads, hessians = _stacked(
        _public_results(functions, record.lam, ("value", "gradient", "hessian")))
    form_rows = _stacked(_public_results(functions, pair.lam, ("gradient", "hessian")))
    calls, checked = [], []
    for name in ("value", "gradient", "hessian"):
        monkeypatch.setattr(curvfun.CurvatureFunction, name,
                            lambda self, lam, _name=name: calls.append(_name))
    for f in functions:
        for name in ("_value", "_gradient", "_hessian"):
            monkeypatch.setattr(f, name, lambda lam, _name=name: calls.append(_name))
    coerce = curvfun.CurvatureFunction._coerce
    monkeypatch.setattr(curvfun.CurvatureFunction, "_coerce",
                        lambda self, lam: checked.append(self.name) or coerce(self, lam))
    names = [f.name for f in functions]
    for call in (lambda: matrix_first_derivative(functions, record, evaluated=grads),
                 lambda: matrix_second_form(functions, pair, evaluated=form_rows),
                 lambda: euler_residuals(functions, record, evaluated=(values, grads, hessians))):
        checked.clear()
        call()
        assert calls == []
        assert checked == names         # each function's domain check, once
    for i, f in enumerate(functions):
        checked.clear()
        matrix_first_derivative(f, record, evaluated=grads[i])
        matrix_second_form(f, pair, evaluated=(form_rows[0][i], form_rows[1][i]))
        euler_residuals(f, record, evaluated=(values[i], grads[i], hessians[i]))
        assert calls == [] and checked == [f.name] * 3


@pytest.mark.parametrize("n", [2, 3])
def test_the_matrix_calculus_on_evaluated_results_still_checks_its_inputs(n, rng):
    spd, diag, direction = _calculus_stacks(rng, n)
    k = len(spd)
    functions = [GeometricMean(n), GaussCurvature(n)]
    values, grads, hessians = np.ones((2, k)), np.ones((2, k, n)), np.zeros((2, k, n, n))

    def first(a, g=grads):
        return matrix_first_derivative(functions, a, evaluated=g)

    def euler(a, fs=functions, evaluated=(values, grads, hessians)):
        return euler_residuals(fs, a, evaluated=evaluated)

    def form(a, b, evaluated=(grads, hessians)):
        return matrix_second_form(functions, a, b, evaluated=evaluated)

    bad = spd.copy()
    bad[4, 0, n - 1] = np.nan
    for call in (first, euler):
        with pytest.raises(DomainError, match=r"^A\[4\] has non-finite entries$"):
            call(bad)
    bad = spd.copy()
    bad[3, 0, 1] += 0.1
    for call in (first, euler):
        with pytest.raises(ValueError, match=r"^A\[3\] is not symmetric$"):
            call(bad)
    bad = diag.copy()
    bad[1, 0, 1] = bad[1, 1, 0] = 0.3
    with pytest.raises(ValueError, match=r"^A\[1\] must be diagonal"):
        form(bad, direction)
    bad = direction.copy()
    bad[5, n - 1, 0] = np.nan
    with pytest.raises(DomainError, match=r"^B\[5\] has non-finite entries$"):
        form(diag, bad)
    # a row outside a function's domain is refused as f.value refuses it
    outside = diag.copy()
    outside[2, 0, 0] = -1.0
    with pytest.raises(DomainError) as expected:
        GeometricMean(n).value(np.diagonal(outside, axis1=1, axis2=2))
    with pytest.raises(DomainError) as refused:
        form(outside, direction)
    assert str(refused.value) == str(expected.value)
    # results of the wrong shape, or a list of functions with nothing evaluated
    with pytest.raises(ValueError, match=r"evaluated gradient must have shape \(2, 7, "):
        first(spd, g=grads[:, :-1])
    with pytest.raises(ValueError, match=r"evaluated hessian must have shape \(7, "):
        euler(spd, fs=functions[0], evaluated=(values[0], grads[0], hessians))
    with pytest.raises(ValueError, match="evaluated must hold gradient, hessian"):
        form(diag, direction, evaluated=(grads,))
    for call in (lambda: matrix_first_derivative(functions, spd),
                 lambda: matrix_second_form(functions, diag, direction),
                 lambda: euler_residuals(functions, spd)):
        with pytest.raises(ValueError, match="a list of functions needs their evaluated"):
            call()


# ---------------------------------------------------------------------------
# sigma_k keeps the bits of its products

def _seeded_esym(lam2d, k, skip=()):
    """sigma_k with each product formed from a seed array of ones, the reference for `_esym`."""
    idx = [i for i in range(lam2d.shape[1]) if i not in skip]
    if k == 0:
        return np.ones(lam2d.shape[0])
    if k < 0:
        return np.zeros(lam2d.shape[0])
    total = np.zeros(lam2d.shape[0])
    for comb in itertools.combinations(idx, k):
        term = np.ones(lam2d.shape[0])
        for i in comb:
            term = term * lam2d[:, i]
        total += term
    return total


def _seeded_sigma(rows, k):
    """Value, gradient and Hessian of sigma_k from `_seeded_esym`."""
    n = rows.shape[1]
    grad = np.stack([_seeded_esym(rows, k - 1, skip=(i,)) for i in range(n)], axis=1)
    hess = np.zeros((len(rows), n, n))
    for i in range(n):
        for j in range(i + 1, n):
            hess[:, i, j] = hess[:, j, i] = _seeded_esym(rows, k - 2, skip=(i, j))
    return _seeded_esym(rows, k), grad, hess


@pytest.mark.parametrize("n, k", [(n, k) for n in (1, 2, 3) for k in range(1, n + 1)])
def test_sigma_k_keeps_the_bits_of_seeded_products(n, k, rng):
    # every row of negative entries, exact zeros and -0.0, then random signed rows
    rows = np.array(list(itertools.product((-2.5, -1.0, -0.0, 0.0, 0.7, 3.0), repeat=n)))
    rows = np.concatenate([rows, rng.uniform(-3.0, 3.0, (50, n))])
    functions = [ElementarySymmetric(n, k)] + ([GaussCurvature(n)] if k == n else [])
    for f in functions:
        got = (f.value(rows), f.gradient(rows), f.hessian(rows))
        for name, mine, ref in zip(("value", "gradient", "hessian"), got, _seeded_sigma(rows, k)):
            assert np.array_equal(mine, ref), (f.name, name)
            assert np.array_equal(np.signbit(mine), np.signbit(ref)), (f.name, name)


# ---------------------------------------------------------------------------
# row sums and products keep numpy's bits

def _loop_rows(arr, start, op):
    """`op` folded over each row from `start`, one Python float at a time."""
    out = []
    for row in arr.tolist():
        acc = start
        for x in row:
            acc = op(acc, x)
        out.append(acc)
    return np.array(out)


def _assert_same_bits(mine, ref, what):
    assert np.array_equal(mine, ref, equal_nan=True), what
    assert np.array_equal(np.signbit(mine), np.signbit(ref)), what


@pytest.mark.parametrize("n", (1, 2, 3))
@pytest.mark.parametrize("k", (1, 2, 7, 256, 1000))
def test_row_sum_and_product_keep_the_bits_of_a_row_loop(n, k, rng):
    # signed zeros, infinities, NaN and a sum that 1e16 + 1 rounds, among random rows
    special = [(1e16, 1.0, -1e16)[:n]] + list(
        itertools.product((0.0, -0.0, math.inf, -math.inf, math.nan, 1.0, -1e16), repeat=n))
    pool = np.concatenate([np.array(special), rng.uniform(-3.0, 3.0, (100, n))])
    rows = pool[np.concatenate([np.arange(min(k, len(special))),
                                rng.integers(0, len(pool), max(0, k - len(special)))])]
    for arr in (np.ascontiguousarray(rows), np.asfortranarray(rows)):
        with np.errstate(invalid="ignore"):     # inf - inf and 0 * inf
            row_sum, row_prod = curvfun._row_sum(arr), curvfun._row_prod(arr)
        _assert_same_bits(row_sum, _loop_rows(arr, 0.0, lambda s, x: s + x), "sum")
        _assert_same_bits(row_prod, _loop_rows(arr, 1.0, lambda p, x: p * x), "product")


@pytest.mark.parametrize("n", (1, 2, 3))
def test_families_keep_the_bits_of_axis_reductions(n, rng, monkeypatch):
    # `arr.sum(axis=1)` and `np.prod(arr, axis=1)`, the forms the row helpers replaced,
    # patched back in as the reference
    signed = np.concatenate([
        np.array(list(itertools.product((-1e16, -1.0, -0.0, 0.0, 1.0, 1e16), repeat=n))),
        rng.uniform(-3.0, 3.0, (100, n))])
    positive = np.concatenate([rng.uniform(0.05, 4.0, (200, n)),
                               10.0 ** rng.uniform(-100.0, 100.0, (200, n))])
    cases = [(MeanCurvature(n), signed),
             (EuclideanNorm(n), signed[signed.any(axis=1)]),
             (GeometricMean(n), positive),
             (Power(MeanCurvature(n), -1.0), positive)]

    def evaluate():
        return [(f.value(rows), f.gradient(rows), f.hessian(rows)) for f, rows in cases]

    mine = evaluate()
    monkeypatch.setattr(curvfun, "_row_sum", lambda arr: arr.sum(axis=1))
    monkeypatch.setattr(curvfun, "_row_prod", lambda arr: np.prod(arr, axis=1))
    for (f, _), got, ref in zip(cases, mine, evaluate()):
        for name, a, b in zip(("value", "gradient", "hessian"), got, ref):
            _assert_same_bits(a, b, (f.name, name))
