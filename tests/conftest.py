import itertools

import numpy as np
import pytest


def random_rotation(rng, n):
    q, r = np.linalg.qr(rng.standard_normal((n, n)))
    return q * np.sign(np.diag(r))


def random_spd(rng, n, low=0.2, high=3.0):
    q = random_rotation(rng, n)
    a = (q * rng.uniform(low, high, n)) @ q.T
    return 0.5 * (a + a.T)


def fd_gradient(f, lam, step=1e-5):
    lam = np.asarray(lam, dtype=float)
    out = np.zeros_like(lam)
    for i in range(lam.size):
        e = np.zeros(lam.size)
        e[i] = step
        out[i] = (f.value(lam + e) - f.value(lam - e)) / (2.0 * step)
    return out


def fd_hessian(f, lam, step=1e-4):
    lam = np.asarray(lam, dtype=float)
    n = lam.size
    out = np.zeros((n, n))
    base = f.value(lam)
    for i in range(n):
        ei = np.zeros(n)
        ei[i] = step
        out[i, i] = (f.value(lam + ei) - 2.0 * base + f.value(lam - ei)) / step ** 2
        for j in range(i + 1, n):
            ej = np.zeros(n)
            ej[j] = step
            out[i, j] = out[j, i] = (
                f.value(lam + ei + ej) - f.value(lam + ei - ej)
                - f.value(lam - ei + ej) + f.value(lam - ei - ej)) / (4.0 * step ** 2)
    return out


def evaluated_at(functions, lam, *kinds):
    """Each function's `kinds` results ("value", "gradient", "hessian") at the rows `lam`,
    stacked on a leading axis: the `evaluated` tuple of the matrix calculus."""
    return tuple(np.stack([getattr(f, kind)(lam) for f in functions]) for kind in kinds)


# ---------------------------------------------------------------------------
# the matrix calculus and the pair gaps from raw matrices and rows, one function at a time,
# each evaluating f itself: the byte-level reference for the library's one entry form (a
# checked record, a list of functions and their results evaluated by the caller).  Each
# takes one (n, n) matrix or (n,) row, or a (k, n, n) stack or (k, n) rows.

def _symmetrized(a):
    a = np.asarray(a, dtype=float)
    return 0.5 * (a + np.swapaxes(a, -1, -2))


def _row_dot(a, b):
    return (a[..., None, :] @ b[..., :, None])[..., 0, 0]


def _row_quadratic(v, m):
    return _row_dot((v[..., None, :] @ m)[..., 0, :], v)


def reference_first_derivative(f, a):
    """dF at symmetric A: U diag(grad f(lam)) U^T from A's own eigen-decomposition."""
    lam, u = np.linalg.eigh(_symmetrized(a))
    return (u * f.gradient(lam)[..., None, :]) @ np.swapaxes(u, -1, -2)


def reference_second_form(f, a, b):
    """d^2/ds^2 F(A + sB) at s = 0 for diagonal A and symmetric B: the eigenvalue Hessian on
    B's diagonal, and on each off-diagonal entry the gradient divided difference, or its
    limit hess_kk - hess_kl where two eigenvalues are closer than 1e-8 max(1, |lam|)."""
    lam = np.diagonal(a, axis1=-2, axis2=-1).astype(float)
    b = _symmetrized(b)
    g, hess = f.gradient(lam), f.hessian(lam)
    total = _row_quadratic(np.diagonal(b, axis1=-2, axis2=-1), hess)
    gap_tol = 1e-8 * np.maximum(1.0, np.linalg.norm(lam, axis=-1))
    for k, l in itertools.combinations(range(lam.shape[-1]), 2):
        gap = lam[..., k] - lam[..., l]
        near = np.abs(gap) < gap_tol
        divided = (g[..., k] - g[..., l]) / np.where(near, 1.0, gap)
        coeff = np.where(near, hess[..., k, k] - hess[..., k, l], divided)
        total = total + 2.0 * coeff * b[..., k, l] ** 2
    return total


def reference_euler_residuals(f, a):
    """(|<dF, A> - m F|, |d2F(A, A) - (m - 1) <dF, A>|) at symmetric A, in A's eigenbasis."""
    lam = np.linalg.eigh(_symmetrized(a))[0]
    value, g, hess = f.value(lam), f.gradient(lam), f.hessian(lam)
    first = _row_dot(g, lam)
    second = _row_quadratic(lam, hess)
    return np.abs(first - f.degree * value), np.abs(second - (f.degree - 1.0) * first)


def reference_pair_sign_gaps(f, g, lam):
    """The two gaps of `curvfun.pair_sign_gaps`, with f and g evaluated here."""
    lam = np.asarray(lam, dtype=float)
    value_f, value_g = np.asarray(f.value(lam)), np.asarray(g.value(lam))
    grad_f, grad_g = f.gradient(lam), g.gradient(lam)
    lam_sq = lam * lam
    gap1 = f.degree * (value_g * _row_dot(grad_f, lam_sq) - value_f * _row_dot(grad_g, lam_sq))
    gap2 = f.degree * (value_f[..., None] * grad_g - value_g[..., None] * grad_f).sum(axis=-1)
    return gap1, gap2


@pytest.fixture
def rng():
    return np.random.default_rng(20240831)
