"""Symmetric curvature functions of principal curvatures.

Every function here is a smooth symmetric ``f(lam_1, ..., lam_n)`` that is
positively homogeneous of some exact nonzero degree ``m`` and elliptic
(``df/dlam_i > 0``) on the positive cone, so each one is a speed of a parabolic
flow ``dX/dt = F nu``.  The families a spec can name are one table,
`_FAMILIES`, read by `parse_curvature_function` and listed by
`builtin_functions`.  Values, gradients, and Hessians are closed-form, and the
induced matrix function ``F(A) = f(eig(A))`` gets its first derivative and its
second-order quadratic form through the eigenvalue calculus (divided
differences of the gradient for off-diagonal directions, with the standard
continuous extension at coincident eigenvalues).

Supported dimensions are n in {1, 2, 3}.  Batch evaluation accepts arrays of
shape (k, n) and is used heavily by the flow integrator.  The matrix calculus
(`matrix_first_derivative`, `matrix_second_form`, `euler_residuals`) has one entry
form: a checked record of (k, n, n) stacks (`symmetric_stack(A)`, or
`second_form_pair(A, B)` for the second form), a list of F functions, and their
results already evaluated at the record's rows, stacked on a leading axis of length
F.  Building the record and evaluating the functions are the caller's, so one call
serves many functions and the functions' domain checks run in those evaluations.
`pair_sign_gaps` likewise takes (k, n) rows and its two functions' evaluated results.
The raw-matrix form that evaluates one function itself is the byte-level reference in
the tests.
"""

import functools
import itertools
import math
import re
from dataclasses import dataclass

import numpy as np

SUPPORTED_DIMS = (1, 2, 3)
_COINCIDENCE_GAP = 1e-8      # eigenvalues closer than this times max(1, |lam|) coincide


class DomainError(ValueError):
    """Input eigenvalues lie outside the admissible cone of the function."""


class DegreeMismatchError(ValueError):
    """Two curvature functions were paired that do not share a degree."""


# ---------------------------------------------------------------------------
# row sums, products and elementary symmetric sums on tiny eigenvalue tuples

def _row_sum(arr):
    """`arr.sum(axis=1)` of a (k, n) array, bit for bit, by adding its columns in turn.

    Over n <= 3 entries numpy's row reduction adds them in order, from +0.0 (a row of -0.0
    sums to +0.0); adding columns costs a fraction of a reduction call at these n.
    """
    out = 0.0 + arr[:, 0]
    for j in range(1, arr.shape[1]):
        out += arr[:, j]
    return out


def _row_prod(arr):
    """`np.prod(arr, axis=1)` of a (k, n) array, bit for bit, by multiplying its columns."""
    out = 1.0 * arr[:, 0]
    for j in range(1, arr.shape[1]):
        out *= arr[:, j]
    return out


def _esym(lam2d, k, skip=()):
    """sigma_k over the index set minus `skip`, batched over axis 0; sigma_k = 0 for k < 0."""
    idx = [i for i in range(lam2d.shape[1]) if i not in skip]
    if k == 0:
        return np.ones(lam2d.shape[0])
    if k < 0:
        return np.zeros(lam2d.shape[0])
    # a product starts from its first factor: 1.0 * x has the bits of x
    total = np.zeros(lam2d.shape[0])
    for first, *rest in itertools.combinations(idx, k):
        term = lam2d[:, first]
        for i in rest:
            term = term * lam2d[:, i]
        total += term
    return total


# ---------------------------------------------------------------------------
# function families

class CurvatureFunction:
    """Base class: a symmetric, positively homogeneous eigenvalue function.

    Subclasses provide `_value`, `_gradient`, `_hessian` on (k, n) batches, a `_domain_violation`
    hook returning a diagnostic string for the first offending row, or None, and a `power_range`
    (a, b): for n > 1, on the positive cone, `Power(f, p)` is convex at p >= a, concave at p <= b.
    """

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

    @functools.cached_property
    def unit_value(self):
        """f(1, ..., 1), a constant of f; fixes the geodesic-sphere normalization.

        Beyond the float range it reads inf or 0.0, silently: its callers refuse such a
        constant by name (`soliton.sphere_tau`).
        """
        with np.errstate(over="ignore", under="ignore"):
            return self.value(np.ones(self.n))

    def _power_convexity(self, p=1.0):
        """`Power(f, p)` "convex", "concave" or "neither", exact from `power_range`:
        at n = 1 every family is lam, so a = b = 1, and a linear power is "convex"."""
        a, b = self.power_range if self.n > 1 else (1.0, 1.0)
        return "convex" if p >= a else "concave" if p <= b else "neither"

    convexity = property(_power_convexity)

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
        # one reduction passes the common case; the bad row is searched for only on failure
        if not arr.size or arr.min() > 0.0:
            return None
        row = arr[np.nonzero(~np.all(arr > 0.0, axis=1))[0][0]]
        return f"requires eigenvalues in the positive cone (all entries > 0); got {row.tolist()}"

    def __repr__(self):
        return f"<{type(self).__name__} {self.name} n={self.n} degree={self.degree:g}>"


class MeanCurvature(CurvatureFunction):
    """f = sum(lam); degree 1, linear, elliptic everywhere."""

    name = "H"
    degree = 1.0
    power_range = (1.0, 1.0)

    def _value(self, arr):
        return _row_sum(arr)

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
        self.power_range = (1.0 if k == 1 else math.inf, 1.0 / k)   # sigma_k^(1/k) is concave

    def _value(self, arr):
        return _esym(arr, self.k)

    def _gradient(self, arr):
        out = np.empty(arr.shape)
        for i in range(self.n):
            out[:, i] = _esym(arr, self.k - 1, skip=(i,))
        return out

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
    power_range = (1.0, -math.inf)

    def _domain_violation(self, arr):
        if not arr.all() and np.any(np.all(arr == 0.0, axis=1)):
            return "undefined (not differentiable) at the zero vector"
        return None

    def _value(self, arr):
        return np.sqrt(_row_sum(arr * arr))

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
    power_range = (math.inf, 1.0)

    def _domain_violation(self, arr):
        return self._positive_cone_violation(arr)

    def _root(self, arr):
        return _row_prod(arr) ** (1.0 / self.n)

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
        if p == 0.0 or not math.isfinite(p):
            raise ValueError(f"power exponent must be finite and nonzero, got {p}")
        self.base = base
        self.p = p
        self.sign = -1.0 if p < 0 else 1.0
        # the fewest significant digits, from :g's 6 up, that read back as p, so the name parses
        # back to this function
        digits = next(k for k in range(6, 18) if float(f"{p:.{k}g}") == p)
        self.name = f"pow({base.name},{p:.{digits}g})"
        self.degree = p * base.degree

    convexity = property(lambda self: self.base._power_convexity(self.p))

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


# spec name -> constructor(n): every family a spec can name, and every BASE of pow(BASE,P)
_FAMILIES = {
    "H": MeanCurvature,
    "K": GaussCurvature,
    "sigma2": lambda n: ElementarySymmetric(n, 2),
    "norm": EuclideanNorm,
    "geomean": GeometricMean,
}


def builtin_functions(n):
    """The canonical family list exercised by the identity suite: `_FAMILIES` and pow(H,-1).

    sigma2 needs n >= 2.
    """
    fams = [make(n) for name, make in _FAMILIES.items() if n >= 2 or name != "sigma2"]
    return fams + [Power(MeanCurvature(n), -1.0)]


_POW_RE = re.compile(r"^pow\((\w+),([-+]?[0-9]*\.?[0-9]+(?:[eE][-+]?[0-9]+)?)\)$")


def parse_curvature_function(spec, n):
    """Parse a curvature-function spec string (case-sensitive).

    Grammar: ``NAME`` | ``pow(NAME,P)`` with NAME a key of `_FAMILIES` and P a
    nonzero real.  Negative powers are normalized with a leading minus sign
    (see `Power`).
    """
    spec = spec.strip()
    if spec in _FAMILIES:
        return _FAMILIES[spec](n)
    m = _POW_RE.match(spec)
    if m and m.group(1) in _FAMILIES:
        return Power(_FAMILIES[m.group(1)](n), float(m.group(2)))
    raise ValueError(f"unknown curvature function spec {spec!r}; expected "
                     f"{', '.join(_FAMILIES)}, or pow(BASE,P) with BASE one of them")


# ---------------------------------------------------------------------------
# matrix calculus

def _refuse_member(bad, what, problem, error=ValueError):
    """Raise `error` naming the first member of a stack flagged in `bad`."""
    if bad.any():
        raise error(f"{what}[{int(np.argmax(bad))}] {problem}")


def _finite_stack(a, what):
    """`a` as a non-empty (k, n, n) stack of finite square matrices."""
    a = np.asarray(a, dtype=float)
    if a.ndim != 3 or a.shape[1] != a.shape[2]:
        raise ValueError(f"{what} must be a (k, n, n) stack of square matrices, "
                         f"got shape {a.shape}")
    if a.shape[0] == 0:
        raise ValueError(f"{what} is an empty stack, shape {a.shape}")
    _refuse_member(~np.isfinite(a).all(axis=(1, 2)), what, "has non-finite entries", DomainError)
    return a


def _scale(stack):
    return np.maximum(1.0, np.abs(stack).max(axis=(1, 2)))


def _check_symmetric(a, what):
    """The symmetrized (k, n, n) stack of `a`."""
    stack = _finite_stack(a, what)
    transpose = stack.transpose(0, 2, 1)
    asym = np.abs(stack - transpose).max(axis=(1, 2))
    _refuse_member(asym > 1e-12 * _scale(stack), what, "is not symmetric")
    return 0.5 * (stack + transpose)


@dataclass(frozen=True)
class SymmetricStack:
    """A checked symmetric (k, n, n) stack and its eigen-decomposition U diag(lam) U^T.

    Built by `symmetric_stack`, or sliced from one member by member; the arrays are read-only.
    """

    lam: np.ndarray   # (k, n) ascending eigenvalues
    u: np.ndarray     # (k, n, n) orthonormal eigenvectors, one per column


def symmetric_stack(a):
    """`a`, a (k, n, n) stack, checked (finite, symmetric, non-empty) and decomposed by one
    `eigh`.  A refusal names the bad member, e.g. `A[3] is not symmetric`."""
    lam, u = np.linalg.eigh(_check_symmetric(a, "A"))
    lam.flags.writeable = u.flags.writeable = False
    return SymmetricStack(lam, u)


@dataclass(frozen=True)
class SecondFormPair:
    """A checked pair for `matrix_second_form`: diagonal A as its (k, n) diagonal, and the
    symmetrized direction B.  Built by `second_form_pair`; the arrays are read-only."""

    lam: np.ndarray   # (k, n) the diagonal of A
    b: np.ndarray     # (k, n, n) B, symmetrized


def second_form_pair(a, b):
    """A and B, (k, n, n) stacks, checked (matching shapes, finite, A diagonal, B symmetric).
    A refusal names the bad member, e.g. `B[3] is not symmetric`."""
    if np.shape(a) != np.shape(b):
        raise ValueError(f"A and B must have the same shape, got {np.shape(a)} and {np.shape(b)}")
    a = _finite_stack(a, "A")
    lam = np.diagonal(a, axis1=1, axis2=2).copy()
    offdiag = np.abs(a - lam[:, :, None] * np.eye(a.shape[1])).max(axis=(1, 2))
    _refuse_member(offdiag > 1e-12 * _scale(a), "A",
                   "must be diagonal for the second-derivative form")
    b = _check_symmetric(b, "B")
    lam.flags.writeable = b.flags.writeable = False
    return SecondFormPair(lam, b)


def _evaluated(fs, lam, evaluated, kinds):
    """The functions' results at a record's rows `lam`, as given: one array per name in
    `kinds` ("value", "gradient", "hessian"), each checked for its shape.

    They are the caller's `f.value(lam)`, `f.gradient(lam)` and `f.hessian(lam)` for each
    function of the list `fs`, stacked on a leading axis of length F.  Those calls ran each
    function's domain check on `lam`, so none runs here.
    """
    if len(evaluated) != len(kinds):
        raise ValueError(f"evaluated must hold {', '.join(kinds)}; got {len(evaluated)} arrays")
    tails = {"value": lam.shape[:1], "gradient": lam.shape, "hessian": lam.shape + lam.shape[1:]}
    arrays = [np.asarray(arr, dtype=float) for arr in evaluated]
    for kind, arr in zip(kinds, arrays):
        if arr.shape != (len(fs),) + tails[kind]:
            raise ValueError(f"evaluated {kind} must have shape {(len(fs),) + tails[kind]}, "
                             f"got {arr.shape}")
    return arrays


def matrix_first_derivative(fs, a, evaluated):
    """dF at each matrix A of the `symmetric_stack` `a`: <dF, B> = d/ds F(A + sB) at s=0.

    Built from the eigen-decomposition A = U diag(lam) U^T as U diag(grad f(lam)) U^T,
    which also satisfies <dF, A> = m F(A).  `evaluated` is the gradients of the functions
    `fs` at `a.lam`, a one-array tuple (gradient,) stacked (F, k, n) (see `_evaluated`); the
    result is (F, k, n, n).
    """
    (g,) = _evaluated(fs, a.lam, evaluated, ("gradient",))
    return (a.u * g[..., None, :]) @ a.u.transpose(0, 2, 1)


def matrix_second_form(fs, pair, evaluated):
    """Second derivative of F at diagonal A in direction B: d^2/ds^2 F(A+sB)|0, for each
    member of the `second_form_pair` `pair`.

    Uses the eigenvalue Hessian on the diagonal part of B and gradient divided
    differences on the off-diagonal part; divided differences switch to their
    continuous limit (hess_kk - hess_kl) when eigenvalues nearly coincide,
    decided per member.  `evaluated` is (gradient, Hessian) of the functions `fs` at
    `pair.lam`, stacked on a leading axis of length F (see `_evaluated`); the forms are (F, k).
    """
    lam, b = pair.lam, pair.b
    g, hess = _evaluated(fs, lam, evaluated, ("gradient", "hessian"))
    bd = np.diagonal(b, axis1=1, axis2=2)
    total = _row_quadratic(bd, hess)
    # the row norms, by the operations np.linalg.norm(lam, axis=1) runs
    gap_tol = _COINCIDENCE_GAP * np.maximum(1.0, np.sqrt(_row_sum(lam * lam)))
    n = lam.shape[1]
    for k in range(n):
        for l in range(k + 1, n):
            gap = lam[:, k] - lam[:, l]
            near = np.abs(gap) < gap_tol
            divided = (g[..., k] - g[..., l]) / np.where(near, 1.0, gap)
            coeff = np.where(near, hess[..., k, k] - hess[..., k, l], divided)
            total = total + 2.0 * coeff * b[:, k, l] ** 2
    return total


def euler_residuals(fs, a, evaluated):
    """Absolute defects of the two homogeneity identities at each matrix A of the
    `symmetric_stack` `a`.

    Returns (|<dF, A> - m F|, |d2F(A, A) - (m - 1) <dF, A>|), two (F, k) arrays; both vanish
    for exactly homogeneous functions up to rounding.  `evaluated` is (value, gradient,
    Hessian) of the functions `fs` at `a.lam`, stacked on a leading axis of length F (see
    `_evaluated`); m is each one's degree.
    """
    lam = a.lam
    value, g, hess = _evaluated(fs, lam, evaluated, ("value", "gradient", "hessian"))
    m = np.array([f.degree for f in fs])[:, None]
    first = _row_dot(g, lam)
    second = _row_quadratic(lam, hess)  # A is diagonal in its own eigenbasis
    return np.abs(first - m * value), np.abs(second - (m - 1.0) * first)


def _row_dot(a, b):
    """Dot products of matching rows of (..., k, n) arrays, bit for bit `a[i] @ b[i]`, one
    matmul over any leading axes."""
    return (a[..., None, :] @ b[..., :, None])[..., 0, 0]


def _row_quadratic(v, m):
    """`v[i] @ m[i] @ v[i]` for (k, n) rows `v` and (..., k, n, n) matrices `m`."""
    return _row_dot((v[..., None, :] @ m)[..., 0, :], v)


def pair_sign_gaps(f, g, lam, evaluated):
    """Two comparison gaps between same-degree elliptic functions f and g.

    With F = f(lam), G = g(lam) and gradients df, dg, returns

        ( m * (G * sum_i df_i lam_i^2  -  F * sum_i dg_i lam_i^2),
          m * sum_j (F * dg_j - G * df_j) )

    Both are nonnegative whenever f is convex and g is concave on nonnegative
    eigenvalues (and nonpositive with the roles swapped).  `lam` holds (k, n) rows and
    `evaluated` is (F, G, df, dg) at them, as `f.value` and `f.gradient` return them
    (those calls ran both domain checks); the gaps are two (k,) arrays.
    """
    if abs(f.degree - g.degree) > 1e-14:
        raise DegreeMismatchError(
            f"degree mismatch: {f.name} has degree {f.degree:g}, {g.name} has {g.degree:g}")
    lam = np.asarray(lam, dtype=float)
    if lam.ndim != 2 or lam.shape[1] != f.n:
        raise ValueError(f"pair_sign_gaps: expected (k, {f.n}) eigenvalue rows, got shape "
                         f"{lam.shape}")
    if lam.size == 0:
        raise ValueError("pair_sign_gaps: empty eigenvalue array")
    if np.any(lam < 0.0):
        raise DomainError("pair_sign_gaps requires nonnegative eigenvalues")
    value_f, value_g, grad_f, grad_g = evaluated
    m = f.degree
    lam_sq = lam * lam
    gap1 = m * (value_g * _row_dot(grad_f, lam_sq) - value_f * _row_dot(grad_g, lam_sq))
    gap2 = m * _row_sum(value_f[:, None] * grad_g - value_g[:, None] * grad_f)
    return gap1, gap2
