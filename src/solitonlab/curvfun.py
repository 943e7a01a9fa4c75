"""Symmetric curvature functions of principal curvatures.

Every function here is a smooth symmetric ``f(lam_1, ..., lam_n)`` that is
positively homogeneous of some exact degree ``m``.  Values, gradients, and
Hessians are closed-form, and the induced matrix function ``F(A) = f(eig(A))``
gets its first derivative and its second-order quadratic form through the
eigenvalue calculus (divided differences of the gradient for off-diagonal
directions, with the standard continuous extension at coincident eigenvalues).

Supported dimensions are n in {1, 2, 3}.  Batch evaluation accepts arrays of
shape (k, n) and is used heavily by the flow integrator.  The matrix calculus
(`matrix_first_derivative`, `matrix_second_form`, `euler_residuals`) follows
the same convention: one (n, n) matrix, or a (k, n, n) stack checked member by
member, with one implementation for both.
"""

import itertools
import re
from dataclasses import dataclass

import numpy as np

SUPPORTED_DIMS = (1, 2, 3)
_COINCIDENCE_GAP = 1e-8      # eigenvalues closer than this times max(1, |lam|) coincide
_CONVEXITY_TOL = 1e-9        # convexity_classify's sign slack, relative to what it tests,
_CONVEXITY_MIN_SAMPLES = 10  # and the fewest samples it gives a verdict on


class DomainError(ValueError):
    """Input eigenvalues lie outside the admissible cone of the function."""


class DegreeMismatchError(ValueError):
    """Two curvature functions were paired that do not share a degree."""


# ---------------------------------------------------------------------------
# elementary symmetric sums on tiny eigenvalue tuples

def _esym(lam2d, k, skip=()):
    """sigma_k over the index set minus `skip`, batched over axis 0."""
    idx = [i for i in range(lam2d.shape[1]) if i not in skip]
    if k == 0:
        return np.ones(lam2d.shape[0])
    if k > len(idx):
        return np.zeros(lam2d.shape[0])
    total = np.zeros(lam2d.shape[0])
    for comb in itertools.combinations(idx, k):
        term = np.ones(lam2d.shape[0])
        for i in comb:
            term = term * lam2d[:, i]
        total += term
    return total


# ---------------------------------------------------------------------------
# function families

class CurvatureFunction:
    """Base class: a symmetric, positively homogeneous eigenvalue function.

    Subclasses provide `_value`, `_gradient`, `_hessian` on (k, n) batches and
    a `_domain_violation` hook returning a diagnostic string for the first
    offending row, or None.
    """

    #: True when df/dlam_i > 0 holds throughout the positive cone.
    elliptic_on_positive_cone = True

    def __init__(self, n):
        if n not in SUPPORTED_DIMS:
            raise ValueError(f"unsupported dimension n={n}; expected one of {SUPPORTED_DIMS}")
        self.n = n

    # -- public, shape-polymorphic entry points ----------------------------

    def value(self, lam):
        arr, single = self._coerce(lam)
        out = self._value(arr)
        return float(out[0]) if single else out

    def gradient(self, lam):
        arr, single = self._coerce(lam)
        out = self._gradient(arr)
        return out[0] if single else out

    def hessian(self, lam):
        arr, single = self._coerce(lam)
        out = self._hessian(arr)
        return out[0] if single else out

    def unit_value(self):
        """f(1, ..., 1); fixes the geodesic-sphere normalization."""
        return self.value(np.ones(self.n))

    # -- helpers ------------------------------------------------------------

    def _coerce(self, lam):
        arr = np.asarray(lam, dtype=float)
        single = arr.ndim == 1
        if single:
            arr = arr[None, :]
        if arr.ndim != 2 or arr.shape[1] != self.n:
            raise ValueError(f"{self.name}: expected eigenvalue vectors of length {self.n}, "
                             f"got shape {np.shape(lam)}")
        if not np.isfinite(arr).all():
            raise DomainError(f"{self.name}: non-finite eigenvalue entries")
        msg = self._domain_violation(arr)
        if msg is not None:
            raise DomainError(f"{self.name}: {msg}")
        return arr, single

    def _domain_violation(self, arr):
        return None

    def _positive_cone_violation(self, arr):
        bad = np.nonzero(~np.all(arr > 0.0, axis=1))[0]
        if bad.size:
            row = arr[bad[0]]
            return (f"requires eigenvalues in the positive cone (all entries > 0); "
                    f"got {row.tolist()}")
        return None

    def __repr__(self):
        return f"<{type(self).__name__} {self.name} n={self.n} degree={self.degree:g}>"


class MeanCurvature(CurvatureFunction):
    """f = sum(lam); degree 1, linear, elliptic everywhere."""

    name = "H"
    degree = 1.0

    def _value(self, arr):
        return arr.sum(axis=1)

    def _gradient(self, arr):
        return np.ones_like(arr)

    def _hessian(self, arr):
        k, n = arr.shape
        return np.zeros((k, n, n))


class ElementarySymmetric(CurvatureFunction):
    """f = sigma_k(lam), the k-th elementary symmetric polynomial."""

    def __init__(self, n, k):
        super().__init__(n)
        if not 1 <= k <= n:
            raise ValueError(f"sigma_{k} undefined for n={n}")
        self.k = k
        self.name = f"sigma{k}"
        self.degree = float(k)

    def _value(self, arr):
        return _esym(arr, self.k)

    def _gradient(self, arr):
        cols = [_esym(arr, self.k - 1, skip=(i,)) for i in range(self.n)]
        return np.stack(cols, axis=1)

    def _hessian(self, arr):
        k, n = arr.shape
        out = np.zeros((k, n, n))
        for i in range(n):
            for j in range(i + 1, n):
                out[:, i, j] = out[:, j, i] = _esym(arr, self.k - 2, skip=(i, j))
        return out


class GaussCurvature(ElementarySymmetric):
    """f = prod(lam); degree n."""

    def __init__(self, n):
        super().__init__(n, n)
        self.name = "K"


class EuclideanNorm(CurvatureFunction):
    """f = sqrt(sum(lam_i^2)); degree 1, convex, elliptic on the positive cone."""

    name = "norm"
    degree = 1.0

    def _domain_violation(self, arr):
        if np.any(np.all(arr == 0.0, axis=1)):
            return "undefined (not differentiable) at the zero vector"
        return None

    def _value(self, arr):
        return np.sqrt((arr * arr).sum(axis=1))

    def _gradient(self, arr):
        r = self._value(arr)
        return arr / r[:, None]

    def _hessian(self, arr):
        r = self._value(arr)
        k, n = arr.shape
        eye = np.broadcast_to(np.eye(n), (k, n, n))
        outer = arr[:, :, None] * arr[:, None, :]
        return (eye - outer / (r * r)[:, None, None]) / r[:, None, None]


class GeometricMean(CurvatureFunction):
    """f = n * (prod lam)^(1/n); degree 1, concave, elliptic on the positive cone."""

    name = "geomean"
    degree = 1.0

    def _domain_violation(self, arr):
        return self._positive_cone_violation(arr)

    def _root(self, arr):
        return np.prod(arr, axis=1) ** (1.0 / self.n)

    def _value(self, arr):
        return self.n * self._root(arr)

    def _gradient(self, arr):
        return self._root(arr)[:, None] / arr

    def _hessian(self, arr):
        k, n = arr.shape
        g = self._root(arr)
        out = g[:, None, None] / (n * arr[:, :, None] * arr[:, None, :])
        diag = (g * (1.0 - n) / n)[:, None] / arr ** 2
        for i in range(n):
            out[:, i, i] = diag[:, i]
        return out


class Power(CurvatureFunction):
    """f = sign * base^p on the positive cone; degree p * deg(base).

    Negative powers carry a leading minus sign so that the family stays
    elliptic (df/dlam_i > 0): with p < 0 the raw power base^p is monotone
    decreasing in every eigenvalue, and the normalized function is negative
    throughout the positive cone, which is the expected sign for a negative
    homogeneity degree.
    """

    def __init__(self, base, p):
        super().__init__(base.n)
        p = float(p)
        if p == 0.0:
            raise ValueError("power exponent must be nonzero")
        if isinstance(base, AnisotropyRatio):
            raise ValueError("anisotropy is not a valid power base (not positive)")
        self.base = base
        self.p = p
        self.sign = -1.0 if p < 0 else 1.0
        self.name = f"pow({base.name},{p:g})"
        self.degree = p * base.degree

    def _domain_violation(self, arr):
        return self._positive_cone_violation(arr)

    def _value(self, arr):
        return self.sign * self.base._value(arr) ** self.p

    def _gradient(self, arr):
        v = self.base._value(arr)
        g = self.base._gradient(arr)
        return self.sign * self.p * (v ** (self.p - 1.0))[:, None] * g

    def _hessian(self, arr):
        v = self.base._value(arr)
        g = self.base._gradient(arr)
        h = self.base._hessian(arr)
        outer = g[:, :, None] * g[:, None, :]
        term1 = self.p * (self.p - 1.0) * (v ** (self.p - 2.0))[:, None, None] * outer
        term2 = self.p * (v ** (self.p - 1.0))[:, None, None] * h
        return self.sign * (term1 + term2)


class AnisotropyRatio(CurvatureFunction):
    """f = (2|A|^2 - H^2) / H^2 = ((lam1 - lam2) / (lam1 + lam2))^2, n = 2 only.

    Degree 0, vanishes exactly at umbilic points, and is not elliptic; it is
    the quantity monitored along flows to measure distance from roundness.
    """

    name = "anisotropy"
    degree = 0.0
    elliptic_on_positive_cone = False

    def __init__(self, n=2):
        if n != 2:
            raise ValueError("anisotropy is defined for n=2 only")
        super().__init__(2)

    def _domain_violation(self, arr):
        if np.any(arr.sum(axis=1) == 0.0):
            return "requires lam1 + lam2 != 0 (vanishing trace)"
        return None

    def _value(self, arr):
        s = arr.sum(axis=1)
        d = arr[:, 0] - arr[:, 1]
        return (d / s) ** 2

    def _gradient(self, arr):
        s = arr.sum(axis=1)
        d = arr[:, 0] - arr[:, 1]
        g1 = 4.0 * arr[:, 1] * d / s ** 3
        g2 = -4.0 * arr[:, 0] * d / s ** 3
        return np.stack([g1, g2], axis=1)

    def _hessian(self, arr):
        s = arr.sum(axis=1)
        d = arr[:, 0] - arr[:, 1]
        h11 = 2.0 / s ** 2 - 8.0 * d / s ** 3 + 6.0 * d ** 2 / s ** 4
        h22 = 2.0 / s ** 2 + 8.0 * d / s ** 3 + 6.0 * d ** 2 / s ** 4
        h12 = -2.0 / s ** 2 + 6.0 * d ** 2 / s ** 4
        out = np.empty((arr.shape[0], 2, 2))
        out[:, 0, 0] = h11
        out[:, 1, 1] = h22
        out[:, 0, 1] = out[:, 1, 0] = h12
        return out


def builtin_functions(n, include_anisotropy=True):
    """The canonical family list exercised by the identity suite."""
    fams = [MeanCurvature(n), GaussCurvature(n)]
    if n >= 2:
        fams.append(ElementarySymmetric(n, 2))
    fams += [EuclideanNorm(n), GeometricMean(n), Power(MeanCurvature(n), -1.0)]
    if n == 2 and include_anisotropy:
        fams.append(AnisotropyRatio())
    return fams


_POW_RE = re.compile(r"^pow\((H|K|sigma2|norm|geomean),([-+]?[0-9]*\.?[0-9]+(?:[eE][-+]?[0-9]+)?)\)$")


def parse_curvature_function(spec, n):
    """Parse a curvature-function spec string (case-sensitive).

    Grammar: ``H`` | ``K`` | ``sigma2`` | ``norm`` | ``geomean`` |
    ``anisotropy`` | ``pow(BASE,P)`` with BASE one of the first five and P a
    nonzero real.  Negative powers are normalized with a leading minus sign
    (see `Power`).
    """
    spec = spec.strip()
    simple = {
        "H": lambda: MeanCurvature(n),
        "K": lambda: GaussCurvature(n),
        "sigma2": lambda: ElementarySymmetric(n, 2),
        "norm": lambda: EuclideanNorm(n),
        "geomean": lambda: GeometricMean(n),
        "anisotropy": lambda: AnisotropyRatio(n),
    }
    if spec in simple:
        return simple[spec]()
    m = _POW_RE.match(spec)
    if m:
        base = simple[m.group(1)]()
        return Power(base, float(m.group(2)))
    raise ValueError(f"unknown curvature function spec {spec!r}; expected H, K, sigma2, "
                     f"norm, geomean, anisotropy, or pow(BASE,P)")


# ---------------------------------------------------------------------------
# matrix calculus

def _refuse_member(bad, what, single, problem, error=ValueError):
    """Raise `error` naming the first member of a stack flagged in `bad`."""
    if bad.any():
        name = what if single else f"{what}[{int(np.argmax(bad))}]"
        raise error(f"{name} {problem}")


def _finite_stack(a, what):
    """`a` as a (k, n, n) stack of finite square matrices, and whether it was one (n, n)."""
    a = np.asarray(a, dtype=float)
    single = a.ndim == 2
    stack = a[None] if single else a
    if stack.ndim != 3 or stack.shape[1] != stack.shape[2]:
        raise ValueError(f"{what} must be square (n, n) or a (k, n, n) stack, got shape {a.shape}")
    if stack.shape[0] == 0:
        raise ValueError(f"{what} is an empty stack, shape {a.shape}")
    _refuse_member(~np.isfinite(stack).all(axis=(1, 2)), what, single,
                   "has non-finite entries", DomainError)
    return stack, single


def _scale(stack):
    return np.maximum(1.0, np.abs(stack).max(axis=(1, 2)))


def _check_symmetric(a, what):
    """The symmetrized (k, n, n) stack of `a`, and whether `a` was one matrix."""
    stack, single = _finite_stack(a, what)
    transpose = stack.transpose(0, 2, 1)
    asym = np.abs(stack - transpose).max(axis=(1, 2))
    _refuse_member(asym > 1e-12 * _scale(stack), what, single, "is not symmetric")
    return 0.5 * (stack + transpose), single


def matrix_first_derivative(f, a):
    """dF at A as a symmetric matrix: <dF, B> = d/ds F(A + sB) at s=0.

    Built from an eigen-decomposition A = U diag(lam) U^T as
    U diag(grad f(lam)) U^T, which also satisfies <dF, A> = m F(A).
    One (n, n) matrix gives an (n, n) matrix; a (k, n, n) stack gives a stack.
    """
    a, single = _check_symmetric(a, "A")
    lam, u = np.linalg.eigh(a)
    g = f.gradient(lam)
    out = (u * g[:, None, :]) @ u.transpose(0, 2, 1)
    return out[0] if single else out


def matrix_second_form(f, a, b):
    """Second derivative of F at diagonal A in direction B: d^2/ds^2 F(A+sB)|0.

    Uses the eigenvalue Hessian on the diagonal part of B and gradient divided
    differences on the off-diagonal part; divided differences switch to their
    continuous limit (hess_kk - hess_kl) when eigenvalues nearly coincide,
    decided per member.  One pair of (n, n) matrices gives a float; (k, n, n)
    stacks of matching shape give a (k,) array.
    """
    if np.shape(a) != np.shape(b):
        raise ValueError(f"A and B must have the same shape, got {np.shape(a)} and {np.shape(b)}")
    a, single = _finite_stack(a, "A")
    lam = np.diagonal(a, axis1=1, axis2=2)
    offdiag = np.abs(a - lam[:, :, None] * np.eye(a.shape[1])).max(axis=(1, 2))
    _refuse_member(offdiag > 1e-12 * _scale(a), "A", single,
                   "must be diagonal for the second-derivative form")
    b, _ = _check_symmetric(b, "B")
    g = f.gradient(lam)
    hess = f.hessian(lam)
    bd = np.diagonal(b, axis1=1, axis2=2)
    total = _row_quadratic(bd, hess)
    gap_tol = _COINCIDENCE_GAP * np.maximum(1.0, np.linalg.norm(lam, axis=1))
    n = lam.shape[1]
    for k in range(n):
        for l in range(k + 1, n):
            gap = lam[:, k] - lam[:, l]
            near = np.abs(gap) < gap_tol
            divided = (g[:, k] - g[:, l]) / np.where(near, 1.0, gap)
            coeff = np.where(near, hess[:, k, k] - hess[:, k, l], divided)
            total = total + 2.0 * coeff * b[:, k, l] ** 2
    return float(total[0]) if single else total


def euler_residuals(f, a):
    """Absolute defects of the two homogeneity identities at A.

    Returns (|<dF, A> - m F|, |d2F(A, A) - (m - 1) <dF, A>|); both vanish for
    exactly homogeneous functions up to rounding.  One (n, n) matrix gives two
    floats; a (k, n, n) stack gives two (k,) arrays.
    """
    a, single = _check_symmetric(a, "A")
    lam, _ = np.linalg.eigh(a)
    value = f.value(lam)
    g = f.gradient(lam)
    hess = f.hessian(lam)
    m = f.degree
    first = _row_dot(g, lam)
    second = _row_quadratic(lam, hess)  # A is diagonal in its own eigenbasis
    r1, r2 = np.abs(first - m * value), np.abs(second - (m - 1.0) * first)
    return (float(r1[0]), float(r2[0])) if single else (r1, r2)


@dataclass(frozen=True)
class ConvexityVerdict:
    """Sampled convexity classification of an eigenvalue function."""

    label: str              # convex | concave | neither | indeterminate
    is_convex: bool
    is_concave: bool
    samples_used: int


def convexity_classify(f, samples):
    """Classify f as convex/concave/neither from sampled second-order data.

    `samples` holds eigenvalue rows: a (k, n) array or a list of (n,) rows.
    Convex requires, at every sample, a positive semidefinite eigenvalue
    Hessian and nonnegative gradient divided differences (dually for concave).
    Linear functions report both flags and the label "convex".
    """
    lam = np.asarray(samples, dtype=float)
    if lam.size == 0:
        raise ValueError("convexity_classify: empty sample list")
    if lam.ndim != 2:
        raise ValueError(f"convexity_classify: expected (k, n) rows, got shape {lam.shape}")
    k = lam.shape[0]
    hess = f.hessian(lam)
    eigs = np.linalg.eigvalsh(hess)
    eig_tol = _CONVEXITY_TOL * np.maximum(1.0, np.abs(hess).max(axis=(1, 2)))
    convex_ok = not np.any(eigs.min(axis=1) < -eig_tol)
    concave_ok = not np.any(eigs.max(axis=1) > eig_tol)
    g = f.gradient(lam)
    i, j = np.triu_indices(f.n, 1)
    gap = lam[:, i] - lam[:, j]
    scale = np.maximum(1.0, np.linalg.norm(lam, axis=1))[:, None]
    distinct = np.abs(gap) >= _COINCIDENCE_GAP * scale
    dd = (g[:, i] - g[:, j])[distinct] / gap[distinct]
    bound = _CONVEXITY_TOL * np.maximum(1.0, np.abs(dd))
    convex_ok = convex_ok and not np.any(dd < -bound)
    concave_ok = concave_ok and not np.any(dd > bound)
    if k < _CONVEXITY_MIN_SAMPLES or (f.n > 1 and not distinct.any()):
        return ConvexityVerdict("indeterminate", False, False, k)
    label = "convex" if convex_ok else "concave" if concave_ok else "neither"
    return ConvexityVerdict(label, convex_ok, concave_ok, k)


def _row_dot(a, b):
    """Dot products of matching rows of two (k, n) arrays, bit for bit `a[i] @ b[i]`."""
    return (a[:, None, :] @ b[:, :, None])[:, 0, 0]


def _row_quadratic(v, m):
    """`v[i] @ m[i] @ v[i]` for (k, n) rows `v` and (k, n, n) matrices `m`."""
    return _row_dot((v[:, None, :] @ m)[:, 0, :], v)


def pair_sign_gaps(f, g, lam):
    """Two comparison gaps between same-degree elliptic functions f and g.

    With F = f(lam), G = g(lam) and gradients df, dg, returns

        ( m * (G * sum_i df_i lam_i^2  -  F * sum_i dg_i lam_i^2),
          m * sum_j (F * dg_j - G * df_j) )

    Both are nonnegative whenever f is convex and g is concave on nonnegative
    eigenvalues (and nonpositive with the roles swapped).  One (n,) row gives
    two floats; (k, n) rows give two (k,) arrays.
    """
    if not (f.elliptic_on_positive_cone and g.elliptic_on_positive_cone):
        raise ValueError("pair_sign_gaps requires two elliptic functions")
    if abs(f.degree - g.degree) > 1e-14:
        raise DegreeMismatchError(
            f"degree mismatch: {f.name} has degree {f.degree:g}, {g.name} has {g.degree:g}")
    lam = np.asarray(lam, dtype=float)
    if lam.size == 0:
        raise ValueError("pair_sign_gaps: empty eigenvalue array")
    if np.any(lam < 0.0):
        raise DomainError("pair_sign_gaps requires nonnegative eigenvalues")
    single = lam.ndim == 1
    rows = lam[None, :] if single else lam
    m = f.degree
    value_f, value_g = f.value(rows), g.value(rows)
    grad_f, grad_g = f.gradient(rows), g.gradient(rows)
    lam_sq = rows * rows
    gap1 = m * (value_g * _row_dot(grad_f, lam_sq) - value_f * _row_dot(grad_g, lam_sq))
    gap2 = m * (value_f[:, None] * grad_g - value_g[:, None] * grad_f).sum(axis=1)
    if single:
        return float(gap1[0]), float(gap2[0])
    return gap1, gap2
