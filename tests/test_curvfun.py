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

from conftest import (evaluated_at, fd_gradient, fd_hessian, random_rotation, random_spd,
                      reference_euler_residuals, reference_first_derivative,
                      reference_pair_sign_gaps, reference_second_form)


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
    r1, r2 = _euler(f, [random_spd(rng, n)])
    assert r1[0] < 1e-12 and r2[0] < 1e-12
    assert _form(f, [np.diag(lam[0])], [np.eye(n)])[0] == 0.0
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

def _first(f, a):
    """`matrix_first_derivative` of one function at a (k, n, n) stack, through its record."""
    record = symmetric_stack(a)
    return matrix_first_derivative([f], record, evaluated_at([f], record.lam, "gradient"))[0]


def _form(f, a, b):
    """`matrix_second_form` of one function at (k, n, n) stacks A and B, through their pair."""
    pair = second_form_pair(a, b)
    return matrix_second_form([f], pair, evaluated_at([f], pair.lam, "gradient", "hessian"))[0]


def _euler(f, a):
    """`euler_residuals` of one function at a (k, n, n) stack, through its record."""
    record = symmetric_stack(a)
    r1, r2 = euler_residuals([f], record,
                             evaluated_at([f], record.lam, "value", "gradient", "hessian"))
    return r1[0], r2[0]


def test_matrix_first_derivative_examples(rng):
    h = MeanCurvature(2)
    np.testing.assert_allclose(_first(h, [random_spd(rng, 2)])[0], np.eye(2), atol=1e-14)

    k = GaussCurvature(2)
    np.testing.assert_allclose(_first(k, [np.diag([2.0, 3.0])])[0], np.diag([3.0, 2.0]),
                               atol=1e-14)

    # <dF, B> against the finite difference of det(A + sB)
    a = np.array([[2.0, 0.5], [0.5, 3.0]])
    b = np.array([[0.0, 1.0], [1.0, 0.0]])
    d = _first(k, [a])[0]
    s = 1e-5
    fd = (np.linalg.det(a + s * b) - np.linalg.det(a - s * b)) / (2.0 * s)
    assert abs(float(np.sum(d * b)) - fd) / abs(fd) < 1e-8


def test_matrix_second_form_examples(rng):
    h = MeanCurvature(3)
    assert _form(h, [np.diag([1.0, 2.0, 3.0])], [random_spd(rng, 3)])[0] == pytest.approx(
        0.0, abs=1e-14)

    # analytic oracle: det(diag(1,2) + s*offdiag(1)) = 2 - s^2, second derivative -2;
    # a diagonal direction reduces to the eigenvalue Hessian: 2 * hess_12
    k = GaussCurvature(2)
    a = np.diag([1.0, 2.0])
    offdiag, diagonal = _form(k, [a, a], [[[0.0, 1.0], [1.0, 0.0]], np.eye(2)])
    assert offdiag == pytest.approx(-2.0, abs=1e-12)
    assert diagonal == pytest.approx(2.0, abs=1e-12)


def test_matrix_second_form_validation():
    with pytest.raises(ValueError, match="diagonal"):
        second_form_pair([[[1.0, 0.3], [0.3, 2.0]]], [np.eye(2)])
    with pytest.raises(ValueError, match="symmetric"):
        second_form_pair([np.diag([1.0, 2.0])], [[[0.0, 1.0], [0.0, 0.0]]])
    # one pair of matrices is not a stack
    with pytest.raises(ValueError, match=r"A must be a \(k, n, n\) stack .* got shape \(2, 2\)"):
        second_form_pair(np.diag([1.0, 2.0]), np.eye(2))


def test_second_form_is_quadratic(rng):
    f = GaussCurvature(3)
    a = np.diag([0.7, 1.4, 2.6])
    b = random_spd(rng, 3) - 0.5 * np.eye(3)
    scales = (1.0, 0.5, 2.0, -3.0)
    base, *scaled = _form(f, [a] * len(scales), [t * b for t in scales])
    for t, form in zip(scales[1:], scaled):
        assert form == pytest.approx(t * t * base, rel=1e-12)


def test_second_form_coincident_eigenvalues():
    # the divided difference switches to its limit without blowing up
    f = EuclideanNorm(2)
    b = np.array([[0.3, 1.0], [1.0, -0.2]])
    exact, nearby = _form(f, [np.diag([2.0, 2.0 + 1e-12]), np.diag([2.0, 2.0 + 1e-5])], [b, b])
    assert np.isfinite(exact)
    assert exact == pytest.approx(nearby, rel=1e-4)


def test_euler_residual_examples(rng):
    r1, r2 = _euler(MeanCurvature(3), [np.diag([1.0, 2.0, 3.0])])
    assert r1[0] < 1e-12 and r2[0] < 1e-12
    r1, r2 = _euler(GaussCurvature(2), [np.diag([2.0, 3.0])])
    assert r1[0] < 1e-10 and r2[0] < 1e-10
    p = Power(MeanCurvature(2), -1.0)
    a = np.array([random_spd(rng, 2) for _ in range(20)])
    bound = 1e-10 * np.maximum(1.0, np.abs(p.value(np.linalg.eigvalsh(a))))
    r1, r2 = _euler(p, a)
    assert np.all(r1 <= bound) and np.all(r2 <= bound)


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

def _gaps(f, g, lam):
    """`pair_sign_gaps` at (k, n) rows, with f and g evaluated there."""
    lam = np.asarray(lam, dtype=float)
    return pair_sign_gaps(f, g, lam, (f.value(lam), g.value(lam), f.gradient(lam),
                                      g.gradient(lam)))


def test_pair_gaps_identical_functions():
    h = MeanCurvature(2)
    g1, g2 = _gaps(h, h, [[0.7, 2.2]])
    assert g1[0] == pytest.approx(0.0, abs=1e-14)
    assert g2[0] == pytest.approx(0.0, abs=1e-14)


def test_pair_gaps_anchor():
    # norm (convex) against 2*sqrt(lam1 lam2) (concave) at lam = (1, 2):
    # independent arithmetic: F = sqrt(5), sum dg = 3/sqrt(2), G = 2 sqrt(2),
    # sum df = 3/sqrt(5), so gap2 = sqrt(5)*3/sqrt(2) - 2 sqrt(2)*3/sqrt(5).
    expected = math.sqrt(5.0) * 3.0 / math.sqrt(2.0) - 2.0 * math.sqrt(2.0) * 3.0 / math.sqrt(5.0)
    assert expected == pytest.approx(3.0 / math.sqrt(10.0), rel=1e-15)
    _, g2 = _gaps(EuclideanNorm(2), GeometricMean(2), [[1.0, 2.0]])
    assert g2[0] == pytest.approx(expected, rel=1e-12)
    assert g2[0] >= 0.0


def test_pair_gaps_sign_property(rng):
    convex = EuclideanNorm(2)
    concave = GeometricMean(2)
    lam = rng.uniform(0.05, 4.0, (1000, 2))
    g1, g2 = _gaps(convex, concave, lam)
    assert np.all(g1 >= -1e-12 * np.maximum(1.0, np.abs(g1)))
    assert np.all(g2 >= -1e-12 * np.maximum(1.0, np.abs(g2)))
    s1, s2 = _gaps(concave, convex, lam)
    assert np.all(s1 <= 1e-12 * np.maximum(1.0, np.abs(s1)))
    assert np.all(s2 <= 1e-12 * np.maximum(1.0, np.abs(s2)))


# the gaps refuse these rows before they read the evaluated results
_UNREAD = None


def test_pair_gaps_rejections():
    with pytest.raises(DegreeMismatchError):
        pair_sign_gaps(MeanCurvature(2), GaussCurvature(2), [[1.0, 2.0]], _UNREAD)
    with pytest.raises(DomainError, match="nonnegative"):
        pair_sign_gaps(EuclideanNorm(2), GeometricMean(2), [[-1.0, 2.0]], _UNREAD)


# ---------------------------------------------------------------------------
# the batch convention: (k, n) eigenvalue rows in one call

@pytest.mark.parametrize("n", [1, 2, 3])
def test_pair_gaps_batch_matches_rows(n):
    lam = np.random.default_rng(100 + n).uniform(0.05, 4.0, (300, n))
    for f, g in ((EuclideanNorm(n), GeometricMean(n)), (GeometricMean(n), EuclideanNorm(n))):
        batch = np.column_stack(_gaps(f, g, lam))
        rows = np.array([np.concatenate(_gaps(f, g, lam[i:i + 1])) for i in range(len(lam))])
        assert batch.shape == rows.shape == (300, 2)
        assert np.all(np.abs(batch - rows) <= 1e-15 * np.abs(rows))


@pytest.mark.parametrize("n", [1, 2, 3])
def test_pair_gaps_with_evaluated_functions_keep_their_bits(n):
    # F, G, dF and dG handed in as f.value and f.gradient return them give the bytes of the
    # reference that evaluates them itself, for one row and for a batch, in both orderings
    lam = np.random.default_rng(200 + n).uniform(0.05, 4.0, (50, n))
    for f, g in ((EuclideanNorm(n), GeometricMean(n)), (GeometricMean(n), EuclideanNorm(n))):
        for rows in (lam, lam[:1]):
            given = _gaps(f, g, rows)
            alone = reference_pair_sign_gaps(f, g, rows)
            assert all(map(_same_array, given, alone)), (f.name, len(rows))


def test_batch_refusals():
    for n in (1, 2, 3):
        with pytest.raises(ValueError, match="empty"):
            pair_sign_gaps(EuclideanNorm(n), GeometricMean(n), np.zeros((0, n)), _UNREAD)
    for lam in (np.ones((4, 3)), [1.0, 2.0]):        # rows of the wrong length; one bare row
        with pytest.raises(ValueError, match=r"expected \(k, 2\) eigenvalue rows, got shape"):
            pair_sign_gaps(EuclideanNorm(2), GeometricMean(2), lam, _UNREAD)
    for a in (np.ones((3, 2, 3)), np.eye(2)):
        with pytest.raises(ValueError, match=r"A must be a \(k, n, n\) stack .* got shape"):
            symmetric_stack(a)
    with pytest.raises(DomainError, match="nonnegative"):
        pair_sign_gaps(EuclideanNorm(2), GeometricMean(2), [[1.0, 2.0], [0.5, -1.0]], _UNREAD)


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
        pairs = []
        for _ in range(25):
            eig = np.sort(rng.uniform(0.2, 3.0, n))
            while np.diff(eig).min() < 1e-3:
                eig = np.sort(rng.uniform(0.2, 3.0, n))
            b = random_spd(rng, n) - np.diag(rng.uniform(0.0, 1.0, n))
            pairs.append((np.diag(eig), 0.5 * (b + b.T)))
        a, b = (np.array(stack) for stack in zip(*pairs))
        forms = _form(f, a, b)
        s = 1e-4
        plus, mid, minus = (f.value(np.linalg.eigvalsh(m)) for m in (a + s * b, a, a - s * b))
        fd = (plus - 2.0 * mid + minus) / s ** 2
        assert np.all(np.abs(forms - fd) / np.maximum(1.0, np.abs(forms)) < 1e-5), f.name


@pytest.mark.parametrize("n", [2, 3])
def test_basis_invariance(n, rng):
    for f in builtin_functions(n):
        a, q = (np.array(stack) for stack in zip(
            *[(random_spd(rng, n), random_rotation(rng, n)) for _ in range(20)]))
        q_t = q.transpose(0, 2, 1)
        d = _first(f, a)
        d_rot = _first(f, q @ a @ q_t)
        err = np.abs(d_rot - q @ d @ q_t).max(axis=(1, 2))
        assert np.all(err <= 1e-10 * np.maximum(1.0, np.abs(d).max(axis=(1, 2)))), f.name


@pytest.mark.parametrize("n", [2, 3])
def test_euler_residuals_all_families(n, rng):
    for f in builtin_functions(n):
        a = np.array([random_spd(rng, n) for _ in range(100)])
        bound = 1e-10 * np.maximum(1.0, np.abs(f.value(np.linalg.eigvalsh(a))))
        r1, r2 = _euler(f, a)
        assert np.all(r1 <= bound) and np.all(r2 <= bound), f.name


def test_every_builtin_is_elliptic_on_the_positive_cone(rng):
    for n in (1, 2, 3):
        for f in builtin_functions(n):
            grads = f.gradient(rng.uniform(0.1, 4.0, (200, n)))
            assert np.all(grads > 0.0), f.name


# ---------------------------------------------------------------------------
# the matrix calculus on (k, n, n) stacks

def _calculus_stacks(rng, n, k=7):
    """SPD matrices, diagonal matrices and directions; member 2 of the SPD and of the
    diagonal stack has coincident eigenvalues."""
    spd = np.array([random_spd(rng, n) for _ in range(k)])
    diag = np.array([np.diag(rng.uniform(0.2, 3.0, n)) for _ in range(k)])
    spd[2] = diag[2] = 2.0 * np.eye(n)
    direction = np.array([random_spd(rng, n) - 0.5 * np.eye(n) for _ in range(k)])
    return spd, diag, direction


def _close(stacked, single):
    return np.abs(stacked - single).max() <= 1e-15 * max(1.0, np.abs(single).max())


def _same_bits(x, y):
    return np.asarray(x).tobytes() == np.asarray(y).tobytes()


def _same_array(x, y):
    return np.shape(x) == np.shape(y) and _same_bits(x, y)


@pytest.mark.parametrize("n", [1, 2, 3])
def test_stacked_calculus_matches_single_matrices(n, rng):
    # each member of a stack gets the bits of a stack of that member alone, and agrees with
    # the reference on the one (n, n) matrix, a form the library does not take
    spd, diag, direction = _calculus_stacks(rng, n)
    for f in builtin_functions(n):
        first, form, (r1, r2) = _first(f, spd), _form(f, diag, direction), _euler(f, spd)
        assert first.shape == (len(spd), n, n)
        assert form.shape == r1.shape == r2.shape == (len(spd),)
        for i in range(len(spd)):
            one = slice(i, i + 1)
            assert _same_array(_first(f, spd[one]), first[one]), (f.name, i)
            assert _same_array(_form(f, diag[one], direction[one]), form[one]), (f.name, i)
            assert all(map(_same_array, _euler(f, spd[one]), (r1[one], r2[one]))), (f.name, i)
            assert _close(first[i], reference_first_derivative(f, spd[i]))
            assert _close(form[i], reference_second_form(f, diag[i], direction[i]))
            single = reference_euler_residuals(f, spd[i])
            assert _close(r1[i], single[0]) and _close(r2[i], single[1])


@pytest.mark.parametrize("n", [1, 2, 3])
def test_stacked_calculus_names_the_bad_member(n, rng):
    spd, diag, direction = _calculus_stacks(rng, n)
    bad = spd.copy()
    bad[4, 0, n - 1] = np.nan
    with pytest.raises(DomainError, match=r"A\[4\] has non-finite"):
        symmetric_stack(bad)
    bad = diag.copy()
    bad[4, 0, 0] = np.inf
    with pytest.raises(DomainError, match=r"A\[4\] has non-finite"):
        second_form_pair(bad, direction)
    bad = direction.copy()
    bad[5, n - 1, 0] = np.nan
    with pytest.raises(DomainError, match=r"B\[5\] has non-finite"):
        second_form_pair(diag, bad)
    if n > 1:
        bad = spd.copy()
        bad[3, 0, 1] += 0.1
        with pytest.raises(ValueError, match=r"A\[3\] is not symmetric"):
            symmetric_stack(bad)
        bad = direction.copy()
        bad[6, 1, 0] += 0.1
        with pytest.raises(ValueError, match=r"B\[6\] is not symmetric"):
            second_form_pair(diag, bad)
        bad = diag.copy()
        bad[1, 0, 1] = bad[1, 1, 0] = 0.3
        with pytest.raises(ValueError, match=r"A\[1\] must be diagonal"):
            second_form_pair(bad, direction)
    with pytest.raises(ValueError, match="empty"):
        symmetric_stack(np.zeros((0, n, n)))
    with pytest.raises(ValueError, match="empty"):
        second_form_pair(np.zeros((0, n, n)), np.zeros((0, n, n)))
    with pytest.raises(ValueError, match="same shape"):
        second_form_pair(diag, direction[:-1])


@pytest.mark.parametrize("n", [2, 3])
def test_a_second_form_pair_gives_the_bits_of_its_matrices(n, rng):
    # a pair over a stack gives each member the bits of a pair of that member alone
    _, diag, direction = _calculus_stacks(rng, n)
    for f in builtin_functions(n):
        form = _form(f, diag, direction)
        for i in range(len(diag)):
            assert _same_array(_form(f, diag[i:i + 1], direction[i:i + 1]), form[i:i + 1])
    pair = second_form_pair(diag, direction)
    for arr in (pair.lam, pair.b):
        with pytest.raises(ValueError, match="read-only"):
            arr[0] = 1.0


@pytest.mark.parametrize("n", [2, 3])
def test_a_second_form_pair_refuses_as_the_two_matrix_call(n, rng):
    # `second_form_pair(A, B)`, the one call that checks A and B, refuses with these messages
    _, diag, direction = _calculus_stacks(rng, n)
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
                     f"A must be a (k, n, n) stack of square matrices, got shape {(n, n)}"))
    bad = direction.copy()
    bad[6, 1, 0] += 0.1
    refusals.append(((diag, bad), ValueError, "B[6] is not symmetric"))
    refusals.append(((diag, direction[:-1]), ValueError,
                     f"A and B must have the same shape, got {diag.shape} and "
                     f"{direction[:-1].shape}"))
    for (a, b), error, message in refusals:
        with pytest.raises(error) as refused:
            second_form_pair(a, b)
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


@pytest.mark.parametrize("make", [GeometricMean, lambda n: Power(MeanCurvature(n), -1.0)],
                         ids=["geomean", "pow(H,-1)"])
def test_the_matrix_calculus_refuses_eigenvalues_as_value_does(make):
    # the calculus takes results evaluated at its record's rows, so the evaluation refuses
    # a matrix outside f's domain: the first derivative and the Euler identities read A's
    # ascending eigenvalues, the second form A's diagonal, as f.value refuses them
    f = make(2)
    direction = np.array([[0.5, 0.2], [0.2, -0.3]])
    bad = np.diag([1.0, -1.0])
    for a in (bad[None], np.array([np.eye(2), np.diag([2.0, 0.5]), bad])):
        directions = np.broadcast_to(direction, a.shape)
        cases = [(symmetric_stack(a).lam, np.linalg.eigvalsh(a)),
                 (second_form_pair(a, directions).lam, np.diagonal(a, axis1=1, axis2=2))]
        for rows, lam in cases:
            with pytest.raises(DomainError) as expected:
                f.value(lam)
            for kind in ("value", "gradient", "hessian"):
                with pytest.raises(DomainError) as refused:
                    evaluated_at([f], rows, kind)
                assert str(refused.value) == str(expected.value)


# ---------------------------------------------------------------------------
# the matrix calculus on results already evaluated, for a list of functions

@pytest.mark.parametrize("n", [1, 2, 3])
@pytest.mark.parametrize("single", [False, True], ids=["stack", "one-matrix"])
def test_the_matrix_calculus_on_evaluated_results_keeps_the_bits_of_its_own_calls(n, single,
                                                                                  rng):
    # one call for all the builtins gives each one the bytes of the reference, which
    # decomposes the raw matrices and evaluates the function itself; "one-matrix" is a
    # stack of one, the member with coincident eigenvalues
    spd, diag, direction = _calculus_stacks(rng, n)
    if single:
        spd, diag, direction = spd[2:3], diag[2:3], direction[2:3]
    record, pair = symmetric_stack(spd), second_form_pair(diag, direction)
    functions = builtin_functions(n)
    first = matrix_first_derivative(functions, record,
                                    evaluated_at(functions, record.lam, "gradient"))
    form = matrix_second_form(functions, pair,
                              evaluated_at(functions, pair.lam, "gradient", "hessian"))
    r1, r2 = euler_residuals(functions, record,
                             evaluated_at(functions, record.lam, "value", "gradient", "hessian"))
    for i, f in enumerate(functions):
        assert _same_array(first[i], reference_first_derivative(f, spd)), f.name
        assert _same_array(form[i], reference_second_form(f, diag, direction)), f.name
        ref1, ref2 = reference_euler_residuals(f, spd)
        assert _same_array(r1[i], ref1) and _same_array(r2[i], ref2), f.name


@pytest.mark.parametrize("n", [1, 2, 3])
def test_the_matrix_calculus_on_evaluated_results_evaluates_nothing(monkeypatch, n, rng):
    # nor does it check the rows again: the caller's evaluation ran each domain check
    spd, diag, direction = _calculus_stacks(rng, n)
    record, pair = symmetric_stack(spd), second_form_pair(diag, direction)
    functions = builtin_functions(n)
    at_record = evaluated_at(functions, record.lam, "value", "gradient", "hessian")
    at_pair = evaluated_at(functions, pair.lam, "gradient", "hessian")
    calls = []
    for name in ("value", "gradient", "hessian", "_coerce"):
        monkeypatch.setattr(curvfun.CurvatureFunction, name,
                            lambda self, lam, _name=name: calls.append(_name))
    for f in functions:
        for name in ("_value", "_gradient", "_hessian"):
            monkeypatch.setattr(f, name, lambda lam, _name=name: calls.append(_name))
    matrix_first_derivative(functions, record, at_record[1:2])
    matrix_second_form(functions, pair, at_pair)
    euler_residuals(functions, record, at_record)
    assert calls == []


@pytest.mark.parametrize("n", [2, 3])
def test_the_matrix_calculus_on_evaluated_results_still_checks_its_inputs(n, rng):
    # results of the wrong shape, or of the wrong kinds, are refused
    spd, diag, direction = _calculus_stacks(rng, n)
    record, pair = symmetric_stack(spd), second_form_pair(diag, direction)
    k = len(spd)
    functions = [GeometricMean(n), GaussCurvature(n)]
    values, grads, hessians = np.ones((2, k)), np.ones((2, k, n)), np.zeros((2, k, n, n))
    with pytest.raises(ValueError, match=r"evaluated gradient must have shape \(2, 7, "):
        matrix_first_derivative(functions, record, (grads[:, :-1],))
    with pytest.raises(ValueError, match=r"evaluated value must have shape \(1, 7\)"):
        euler_residuals(functions[:1], record, (values[0], grads[:1], hessians[:1]))
    with pytest.raises(ValueError, match=r"evaluated hessian must have shape \(2, 7, "):
        matrix_second_form(functions, pair, (grads, hessians[:, :, 0]))
    with pytest.raises(ValueError, match="evaluated must hold gradient, hessian; got 1"):
        matrix_second_form(functions, pair, (grads,))
    with pytest.raises(ValueError, match="evaluated must hold gradient; got 2"):
        matrix_first_derivative(functions, record, grads)     # the array, not a tuple of it


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
