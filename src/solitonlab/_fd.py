"""Fourth-order finite-difference stencils on uniform grids.

Two grid topologies are supported: periodic (closed curves) and reflected
(meridian grids of rotation surfaces, where every smooth field extends through
the two poles with a definite parity: even for scalars like metric
coefficients, odd for the radial profile coordinate).

The stencils act along axis 0, on an (M,) array or on the k columns of an
(M, k) array at once; each column gets the same operations, in the same
order, as a call on that column alone, so the results are bit-identical.
"""

import numpy as np

# classic 5-point central stencils, O(h^4), as their nonzero (offset, coefficient)
# terms; the coefficients are Python floats, since a numpy scalar times an array
# costs more than a float times it, for the same product
_D1 = tuple((k, c / 12.0) for k, c in ((0, 1.0), (1, -8.0), (3, 8.0), (4, -1.0)))
_D2 = tuple((k, c / 12.0) for k, c in enumerate((-1.0, 16.0, -30.0, 16.0, -1.0)))

# one-sided 5-point first derivative at the first node, O(h^4); used only for
# raw boundary checks where a symmetric stencil would be vacuous
_D1_ONESIDED = np.array([-25.0, 48.0, -36.0, 16.0, -3.0]) / 12.0


def _apply(ext, terms, scale):
    # the sum starts from its first term: 0 + x is x, so it adds what a sum onto zeros adds
    m = len(ext) - 4
    (k, c), *rest = terms
    out = c * ext[k:k + m]
    for k, c in rest:
        out += c * ext[k:k + m]
    out /= scale
    return out


def periodic_d1(f, h):
    """First derivative of a periodic sample array."""
    ext = np.concatenate([f[-2:], f, f[:2]])
    return _apply(ext, _D1, h)


def periodic_d2(f, h):
    """Second derivative of a periodic sample array."""
    ext = np.concatenate([f[-2:], f, f[:2]])
    return _apply(ext, _D2, h * h)


def _reflect(f, parity):
    # ghost nodes mirror interior ones about both end nodes; `parity` is +-1 or
    # one sign per column
    parity = np.asarray(parity)
    left = parity * f[2:0:-1]
    right = parity * f[-2:-4:-1]
    return np.concatenate([left, f, right])


def reflected_d1(f, h, parity=1):
    """First derivative on a grid whose ends are reflection points.

    parity +1: field extends evenly through both ends (derivative is then
    exactly zero at the end nodes); parity -1: odd extension, which requires
    the end values themselves to vanish.  On an (M, k) array `parity` is one
    sign for every column or a sequence of k signs, one per column.
    """
    return _apply(_reflect(f, parity), _D1, h)


def reflected_d2(f, h, parity=1):
    """Second derivative with reflection ghost nodes, as `reflected_d1`."""
    return _apply(_reflect(f, parity), _D2, h * h)


def onesided_d1_start(f, h):
    """Raw one-sided derivative at the first node (no reflection assumption)."""
    return float(np.dot(_D1_ONESIDED, f[:5]) / h)


def onesided_d1_end(f, h):
    """Raw one-sided derivative at the last node, oriented with the grid."""
    return float(-np.dot(_D1_ONESIDED, f[-1:-6:-1]) / h)
