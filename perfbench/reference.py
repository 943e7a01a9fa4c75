"""A fixed reference computation, timed beside every round of a timed run.

The host this benchmark was built on changes speed by up to 2x over minutes,
and every kind of work slows together: wall times of the same code spread by
30% between runs.  ``run.py`` divides each round's time by the time of this
block, run right after it, so the host's speed cancels and the program's
speed remains.

The block does the three kinds of work solitonlab does, in about equal
shares: interpreted Python, periodic splines and array arithmetic on a
256-point closed curve, and many numpy calls on tiny arrays.  It does not
call solitonlab, so no change to the program changes it.

    python3 perfbench/reference.py      # time a few blocks
"""

import time

import numpy as np
from scipy.interpolate import CubicSpline

_THETA = np.linspace(0.0, 2.0 * np.pi, 257)
_CURVE = np.column_stack([2.0 * np.cos(_THETA), np.sin(_THETA)])
_CURVE[-1] = _CURVE[0]
_SAMPLES = np.linspace(0.0, 2.0 * np.pi, 256, endpoint=False)
_MATRICES = [m + m.T for m in np.random.default_rng(0).standard_normal((1000, 3, 3))]


def _interpreted(n=200_000):
    acc = 0
    for i in range(n):
        acc += i * i
    return float(acc % 1000)


def _splines(n=40):
    acc = 0.0
    for _ in range(n):
        spline = CubicSpline(_THETA, _CURVE, bc_type="periodic")
        pts, tangent = spline(_SAMPLES), spline(_SAMPLES, 1)
        seg = np.linalg.norm(np.diff(pts, axis=0), axis=1)
        turn = tangent[:-1, 0] * tangent[1:, 1] - tangent[:-1, 1] * tangent[1:, 0]
        acc += float(np.sum(turn / (seg + 1.0)))
    return acc


def _tiny_arrays():
    acc = 0.0
    for m in _MATRICES:
        lam = np.linalg.eigvalsh(m)
        acc += float(np.prod(lam) + np.sum(lam) ** 2)
    return acc


def block():
    """One reference block; returns its wall time in seconds."""
    t0 = time.perf_counter()
    _interpreted()
    _splines()
    _tiny_arrays()
    return time.perf_counter() - t0


if __name__ == "__main__":
    times = [block() for _ in range(10)]
    print(f"reference block: fastest {min(times) * 1e3:.1f} ms, "
          f"slowest {max(times) * 1e3:.1f} ms over {len(times)}")
