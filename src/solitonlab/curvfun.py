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
(`matrix_first_derivative`, `matrix_second_form`, `euler_residuals`) follows
the same convention: one (n, n) matrix, or a (k, n, n) stack checked member by
member, with one implementation for both.  `matrix_first_derivative` and
`euler_residuals` also take a `symmetric_stack(A)`: the matrices checked and
eigen-decomposed once, so that many functions share that work; `matrix_second_form`
likewise takes a `second_form_pair(A, B)`.  All three take f's results already
evaluated at the record's rows (`evaluated=`), for one function or for a list of them
stacked on a leading axis, so that one call serves many functions.
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


@dataclass(frozen=True)
class SymmetricStack:
    """A checked symmetric (k, n, n) stack and its eigen-decomposition U diag(lam) U^T.

    Built by `symmetric_stack`, or sliced from one member by member; the matrix
    calculus takes it in place of the matrices, so that many curvature functions
    share one check and one `eigh`.  The arrays are read-only.
    """

    lam: np.ndarray   # (k, n) ascending eigenvalues
    u: np.ndarray     # (k, n, n) orthonormal eigenvectors, one per column
    single: bool      # built from one (n, n) matrix: results come back unbatched


def symmetric_stack(a):
    """`a` checked (square, finite, symmetric, non-empty) and decomposed by one `eigh`.

    A refusal names the bad member, e.g. `A[3] is not symmetric`.  A `SymmetricStack`
    is returned as it is.
    """
    if isinstance(a, SymmetricStack):
        return a
    stack, single = _check_symmetric(a, "A")
    lam, u = np.linalg.eigh(stack)
    lam.flags.writeable = False
    u.flags.writeable = False
    return SymmetricStack(lam, u, single)


def _calculus_inputs(f, lam, evaluated, kinds):
    """f's results at a record's checked eigenvalue rows `lam`, one array per name in `kinds`
    ("value", "gradient", "hessian"), and f's degree.

    Each function's domain check runs on `lam`.  Without `evaluated`, f is one function,
    evaluated here.  With it, the arrays are `evaluated` as given: f's results at `lam`, as
    `f.value(lam)`, `f.gradient(lam)` and `f.hessian(lam)` return them, each with a leading
    axis of length F when f is a list of F functions; the degree then is an (F, 1) column.
    """
    single = isinstance(f, CurvatureFunction)
    fs = [f] if single else list(f)
    if evaluated is None and not single:
        raise ValueError("a list of functions needs their evaluated results")
    for fn in fs:
        fn._coerce(lam)
    if evaluated is None:
        return [getattr(f, f"_{kind}")(lam) for kind in kinds], f.degree
    if len(evaluated) != len(kinds):
        raise ValueError(f"evaluated must hold {', '.join(kinds)}; got {len(evaluated)} arrays")
    lead = () if single else (len(fs),)
    tails = {"value": lam.shape[:1], "gradient": lam.shape, "hessian": lam.shape + lam.shape[1:]}
    arrays = [np.asarray(arr, dtype=float) for arr in evaluated]
    for kind, arr in zip(kinds, arrays):
        if arr.shape != lead + tails[kind]:
            raise ValueError(f"evaluated {kind} must have shape {lead + tails[kind]}, "
                             f"got {arr.shape}")
    degree = f.degree if single else np.array([fn.degree for fn in fs])[:, None]
    return arrays, degree


def matrix_first_derivative(f, a, evaluated=None):
    """dF at A as a symmetric matrix: <dF, B> = d/ds F(A + sB) at s=0.

    Built from an eigen-decomposition A = U diag(lam) U^T as
    U diag(grad f(lam)) U^T, which also satisfies <dF, A> = m F(A).
    One (n, n) matrix gives an (n, n) matrix; a (k, n, n) stack gives a stack.
    `a` may also be a `symmetric_stack`, decomposed once for many functions.
    `evaluated`, when given, is f's gradient at the record's rows (see `_calculus_inputs`);
    with a list of F functions the results carry a leading axis of length F.
    """
    a = symmetric_stack(a)
    (g,), _ = _calculus_inputs(f, a.lam, None if evaluated is None else (evaluated,),
                               ("gradient",))
    out = (a.u * g[..., None, :]) @ a.u.transpose(0, 2, 1)
    return out[..., 0, :, :] if a.single else out


@dataclass(frozen=True)
class SecondFormPair:
    """A checked pair for `matrix_second_form`: diagonal A as its (k, n) diagonal, and the
    symmetrized direction B.  Built by `second_form_pair`; the arrays are read-only."""

    lam: np.ndarray   # (k, n) the diagonal of A
    b: np.ndarray     # (k, n, n) B, symmetrized
    single: bool      # built from one pair of (n, n) matrices: the form comes back a float


def second_form_pair(a, b):
    """A and B checked once (matching shapes, finite, A diagonal, B symmetric), so that many
    functions share the check.  A refusal names the bad member, e.g. `B[3] is not symmetric`."""
    if np.shape(a) != np.shape(b):
        raise ValueError(f"A and B must have the same shape, got {np.shape(a)} and {np.shape(b)}")
    a, single = _finite_stack(a, "A")
    lam = np.diagonal(a, axis1=1, axis2=2).copy()
    offdiag = np.abs(a - lam[:, :, None] * np.eye(a.shape[1])).max(axis=(1, 2))
    _refuse_member(offdiag > 1e-12 * _scale(a), "A", single,
                   "must be diagonal for the second-derivative form")
    b, _ = _check_symmetric(b, "B")
    lam.flags.writeable = b.flags.writeable = False
    return SecondFormPair(lam, b, single)


def matrix_second_form(f, a, b=None, evaluated=None):
    """Second derivative of F at diagonal A in direction B: d^2/ds^2 F(A+sB)|0.

    Uses the eigenvalue Hessian on the diagonal part of B and gradient divided
    differences on the off-diagonal part; divided differences switch to their
    continuous limit (hess_kk - hess_kl) when eigenvalues nearly coincide,
    decided per member.  One pair of (n, n) matrices gives a float; (k, n, n)
    stacks of matching shape give a (k,) array.  `a` may also be a
    `second_form_pair(A, B)`, checked once for many functions, with `b` left out.
    `evaluated`, when given, is (gradient, Hessian) of f at the pair's rows (see
    `_calculus_inputs`); with a list of F functions the forms carry a leading axis of length F.
    """
    pair = a if isinstance(a, SecondFormPair) and b is None else second_form_pair(a, b)
    b, single, lam = pair.b, pair.single, pair.lam
    (g, hess), _ = _calculus_inputs(f, lam, evaluated, ("gradient", "hessian"))
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
    if not single:
        return total
    return float(total[0]) if total.ndim == 1 else total[:, 0]


def euler_residuals(f, a, evaluated=None):
    """Absolute defects of the two homogeneity identities at A.

    Returns (|<dF, A> - m F|, |d2F(A, A) - (m - 1) <dF, A>|); both vanish for
    exactly homogeneous functions up to rounding.  One (n, n) matrix gives two
    floats; a (k, n, n) stack gives two (k,) arrays.  `a` may also be a
    `symmetric_stack`.  `evaluated`, when given, is (value, gradient, Hessian) of f at
    the record's rows (see `_calculus_inputs`); with a list of F functions, each of
    their degrees, the defects carry a leading axis of length F.
    """
    a = symmetric_stack(a)
    lam = a.lam
    (value, g, hess), m = _calculus_inputs(f, lam, evaluated, ("value", "gradient", "hessian"))
    first = _row_dot(g, lam)
    second = _row_quadratic(lam, hess)  # A is diagonal in its own eigenbasis
    r1, r2 = np.abs(first - m * value), np.abs(second - (m - 1.0) * first)
    if not a.single:
        return r1, r2
    return (float(r1[0]), float(r2[0])) if r1.ndim == 1 else (r1[:, 0], r2[:, 0])


def _row_dot(a, b):
    """Dot products of matching rows of (..., k, n) arrays, bit for bit `a[i] @ b[i]`, one
    matmul over any leading axes."""
    return (a[..., None, :] @ b[..., :, None])[..., 0, 0]


def _row_quadratic(v, m):
    """`v[i] @ m[i] @ v[i]` for (k, n) rows `v` and (..., k, n, n) matrices `m`."""
    return _row_dot((v[..., None, :] @ m)[..., 0, :], v)


def pair_sign_gaps(f, g, lam, evaluated=None):
    """Two comparison gaps between same-degree elliptic functions f and g.

    With F = f(lam), G = g(lam) and gradients df, dg, returns

        ( m * (G * sum_i df_i lam_i^2  -  F * sum_i dg_i lam_i^2),
          m * sum_j (F * dg_j - G * df_j) )

    Both are nonnegative whenever f is convex and g is concave on nonnegative
    eigenvalues (and nonpositive with the roles swapped).  One (n,) row gives
    two floats; (k, n) rows give two (k,) arrays.  `evaluated`, when given, is
    (F, G, df, dg) already evaluated at `lam`, as `f.value` and `f.gradient` return them.
    """
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
    if evaluated is None:
        value_f, value_g = f.value(rows), g.value(rows)
        grad_f, grad_g = f.gradient(rows), g.gradient(rows)
    elif single:
        value_f, value_g = np.atleast_1d(*evaluated[:2])
        grad_f, grad_g = np.atleast_2d(*evaluated[2:])
    else:
        value_f, value_g, grad_f, grad_g = evaluated
    lam_sq = rows * rows
    gap1 = m * (value_g * _row_dot(grad_f, lam_sq) - value_f * _row_dot(grad_g, lam_sq))
    gap2 = m * _row_sum(value_f[:, None] * grad_g - value_g[:, None] * grad_f)
    if single:
        return float(gap1[0]), float(gap2[0])
    return gap1, gap2
