import numpy as np
import pytest

from solitonlab import _fd

_D1 = [1.0, -8.0, 0.0, 8.0, -1.0]
_D2 = [-1.0, 16.0, -30.0, 16.0, -1.0]


def _stencil(ext, weights, scale):
    # the 1-D stencil as first written: numpy coefficients, summed onto zeros
    m = len(ext) - 4
    out = np.zeros(m)
    for k, c in enumerate(np.array(weights) / 12.0):
        if c != 0.0:
            out += c * ext[k:k + m]
    return out / scale


def _bits(a):
    return np.ascontiguousarray(a).tobytes()


@pytest.fixture
def columns():
    rng = np.random.default_rng(7)
    return rng.standard_normal((64, 2))


@pytest.mark.parametrize("name", ["periodic_d1", "periodic_d2"])
def test_stacked_periodic_stencil_equals_per_column_calls(columns, name):
    stencil = getattr(_fd, name)
    both = stencil(columns, 0.1)
    assert both.shape == columns.shape
    for j in range(2):
        assert _bits(both[:, j]) == _bits(stencil(columns[:, j].copy(), 0.1))


@pytest.mark.parametrize("name", ["reflected_d1", "reflected_d2"])
def test_stacked_reflected_stencil_takes_a_parity_per_column(columns, name):
    stencil = getattr(_fd, name)
    columns[[0, -1], 1] = 0.0              # an odd field vanishes at the reflection points
    both = stencil(columns, 0.1, (+1, -1))
    assert _bits(both[:, 0]) == _bits(stencil(columns[:, 0].copy(), 0.1, +1))
    assert _bits(both[:, 1]) == _bits(stencil(columns[:, 1].copy(), 0.1, -1))
    assert _bits(stencil(columns, 0.1, -1)[:, 0]) == _bits(stencil(columns[:, 0].copy(), 0.1, -1))


def test_one_dimensional_calls_are_unchanged(columns):
    f, h = columns[:, 0].copy(), 0.1
    periodic = np.concatenate([f[-2:], f, f[:2]])
    assert _bits(_fd.periodic_d1(f, h)) == _bits(_stencil(periodic, _D1, h))
    assert _bits(_fd.periodic_d2(f, h)) == _bits(_stencil(periodic, _D2, h * h))
    for parity in (+1, -1):
        mirrored = np.concatenate([parity * f[2:0:-1], f, parity * f[-2:-4:-1]])
        assert _bits(_fd.reflected_d1(f, h, parity)) == _bits(_stencil(mirrored, _D1, h))
        assert _bits(_fd.reflected_d2(f, h, parity)) == _bits(_stencil(mirrored, _D2, h * h))


def test_periodic_stencils_are_fourth_order():
    errors = []
    for m in (32, 64):
        u = 2.0 * np.pi * np.arange(m) / m
        h = u[1] - u[0]
        f = np.column_stack([np.sin(u), np.cos(2.0 * u)])
        exact = np.column_stack([np.cos(u), -2.0 * np.sin(2.0 * u)])
        errors.append(np.abs(_fd.periodic_d1(f, h) - exact).max())
    assert errors[0] / errors[1] > 14.0
