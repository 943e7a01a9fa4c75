"""Per-layer spans recorded from outside the program.

`patched` replaces the module-level functions of each solitonlab layer (and
the ``CubicSpline`` that ``flow._redistribute`` builds) with wrappers that
record a span per call: its name, start, end and the span that caused it.
Spans stay in memory and are written out once the run is done.  Nothing in
``src/`` changes; the originals are restored on exit.

`per_call_sweep` times single layer calls directly, with tracing off, on a
workload's initial shape at several grid sizes.
"""

import contextlib
import functools
import pathlib
import time
from array import array

import numpy as np
from scipy.interpolate import CubicSpline

import workloads  # noqa: F401  (imports solitonlab from the checkout's src/)
from solitonlab import _fd, cli, curvfun, flow, hypersurface, soliton, spaceform

SPANS = (
    "cli.main", "cli.identity_suite_checks", "cli.write",
    "flow.run", "flow._advance", "flow._redistribute", "scipy.CubicSpline",
    "flow._rescale", "flow._min_spacing", "flow.monitors", "soliton.fit_tau",
    "hypersurface.curve_geometry", "hypersurface.revolution_geometry", "fd",
    "curvfun.value", "curvfun.gradient", "curvfun.hessian",
    "curvfun.matrix_second_form", "curvfun.pair_sign_gaps",
    "spaceform.sample_geodesic_sphere",
)

SWEEP_GRIDS = (64, 128, 256, 1024)
SWEEP_SPANS = ("flow._advance", "flow._redistribute", "flow.monitors",
               "curvfun.value", "curvfun.gradient")
GEOMETRY_SPAN = {hypersurface.PlaneCurve: "hypersurface.curve_geometry",
                 hypersurface.RevolutionProfile: "hypersurface.revolution_geometry"}
SURFACE_KIND = {hypersurface.PlaneCurve: "curve", hypersurface.RevolutionProfile: "surface"}


def _rows(lam):
    return int(np.shape(lam)[0]) if np.ndim(lam) == 2 else 1


class SpanRecorder:
    """Spans as parallel arrays; ``parent`` is the index of the causing span or -1."""

    def __init__(self):
        self.names = list(SPANS)
        self.name_id = array("i")
        self.parent = array("i")
        self.nested = array("b")        # 1 when inside a span of the same name
        self.start = array("d")
        self.end = array("d")
        self.rows = 0                    # eigenvalue rows passed to value/gradient
        self._stack = []
        self._depth = [0] * len(self.names)

    def wrap(self, name, fn, count_rows=False):
        nid = self.names.index(name)
        stack, depth = self._stack, self._depth

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = len(self.start)
            self.name_id.append(nid)
            self.parent.append(stack[-1] if stack else -1)
            self.nested.append(depth[nid] > 0)
            self.start.append(0.0)
            self.end.append(0.0)
            if count_rows:
                self.rows += _rows(args[1])
            stack.append(idx)
            depth[nid] += 1
            t0 = time.perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                self.end[idx] = time.perf_counter()
                self.start[idx] = t0
                depth[nid] -= 1
                stack.pop()

        return traced

    def arrays(self):
        return {"name_id": np.frombuffer(self.name_id, dtype=np.int32),
                "parent": np.frombuffer(self.parent, dtype=np.int32),
                "nested": np.frombuffer(self.nested, dtype=np.int8).astype(bool),
                "start": np.frombuffer(self.start),
                "end": np.frombuffer(self.end)}

    def summary(self):
        """{span: (calls, self seconds, microseconds per call)} over every span name.

        Self time is a span's duration minus that of its child spans.  Time
        per call is the time inside the outermost spans of the name over its
        calls, so a span nested in one of its own name is not counted twice.
        """
        a = self.arrays()
        k = len(self.names)
        dur = a["end"] - a["start"]
        has_parent = a["parent"] >= 0
        child = np.bincount(a["parent"][has_parent], weights=dur[has_parent],
                            minlength=dur.size)
        calls = np.bincount(a["name_id"], minlength=k)
        self_s = np.bincount(a["name_id"], weights=dur - child, minlength=k)
        outer = ~a["nested"]
        inside = np.bincount(a["name_id"][outer], weights=dur[outer], minlength=k)
        return {name: (int(calls[i]), float(self_s[i]),
                       float(inside[i] / calls[i] * 1e6) if calls[i] else 0.0)
                for i, name in enumerate(self.names)}

    def save(self, path):
        a = self.arrays()
        t0 = a["start"].min() if a["start"].size else 0.0
        np.savez(path, names=np.array(self.names), name_id=a["name_id"], parent=a["parent"],
                 start_s=a["start"] - t0, end_s=a["end"] - t0)


@contextlib.contextmanager
def patched(rec):
    """Route every layer call through ``rec`` for the duration of the block."""

    class TracedSpline(CubicSpline):
        pass

    TracedSpline.__init__ = rec.wrap("scipy.CubicSpline", CubicSpline.__init__)
    TracedSpline.__call__ = rec.wrap("scipy.CubicSpline", CubicSpline.__call__)

    curve = rec.wrap("hypersurface.curve_geometry", hypersurface.curve_geometry)
    revolution = rec.wrap("hypersurface.revolution_geometry", hypersurface.revolution_geometry)
    writer = functools.partial(rec.wrap, "cli.write")
    targets = [
        (cli, "identity_suite_checks", rec.wrap("cli.identity_suite_checks",
                                                 cli.identity_suite_checks)),
        (cli, "_suite_csv", writer(cli._suite_csv)),
        (flow.FlowTrace, "to_csv", writer(flow.FlowTrace.to_csv)),
        (hypersurface, "save_surface", writer(hypersurface.save_surface)),
        (pathlib.Path, "write_text", writer(pathlib.Path.write_text)),
        (flow, "CubicSpline", TracedSpline),
        (flow, "curve_geometry", curve), (hypersurface, "curve_geometry", curve),
        (flow, "revolution_geometry", revolution),
        (hypersurface, "revolution_geometry", revolution),
        (soliton, "fit_tau", rec.wrap("soliton.fit_tau", soliton.fit_tau)),
        (spaceform, "sample_geodesic_sphere",
         rec.wrap("spaceform.sample_geodesic_sphere", spaceform.sample_geodesic_sphere)),
        (curvfun, "matrix_second_form",
         rec.wrap("curvfun.matrix_second_form", curvfun.matrix_second_form)),
        (curvfun, "pair_sign_gaps", rec.wrap("curvfun.pair_sign_gaps", curvfun.pair_sign_gaps)),
        (curvfun.CurvatureFunction, "value",
         rec.wrap("curvfun.value", curvfun.CurvatureFunction.value, count_rows=True)),
        (curvfun.CurvatureFunction, "gradient",
         rec.wrap("curvfun.gradient", curvfun.CurvatureFunction.gradient, count_rows=True)),
        (curvfun.CurvatureFunction, "hessian",
         rec.wrap("curvfun.hessian", curvfun.CurvatureFunction.hessian)),
    ]
    for name in ("run", "_advance", "_redistribute", "_rescale", "_min_spacing", "monitors"):
        targets.append((flow, name, rec.wrap(f"flow.{name}", getattr(flow, name))))
    for name in ("periodic_d1", "periodic_d2", "reflected_d1", "reflected_d2",
                 "onesided_d1_start", "onesided_d1_end"):
        targets.append((_fd, name, rec.wrap("fd", getattr(_fd, name))))

    saved = [(owner, attr, owner.__dict__[attr]) for owner, attr, _ in targets]
    try:
        for owner, attr, replacement in targets:
            setattr(owner, attr, replacement)
        yield rec
    finally:
        for owner, attr, original in saved:
            setattr(owner, attr, original)


def _us_per_call(fn, calls=30, batches=7):
    """Fastest batch: the least disturbed by other work on the machine."""
    best = float("inf")
    for _ in range(batches):
        t0 = time.perf_counter()
        for _ in range(calls):
            fn()
        best = min(best, (time.perf_counter() - t0) / calls)
    return best * 1e6


def sweep_names():
    names = [f"{span}.us_per_call.M{m}" for span in GEOMETRY_SPAN.values() for m in SWEEP_GRIDS]
    return names + [f"{span}.us_per_call.{kind}.M{m}" for kind in SURFACE_KIND.values()
                    for span in SWEEP_SPANS for m in SWEEP_GRIDS]


def per_call_sweep(make_surface):
    """Times of single calls of the H flow on ``make_surface(M)``, in microseconds.

    The geometry extraction is ``<span>.us_per_call.M<M>``; the other spans,
    which both kinds of surface enter, ``<span>.us_per_call.<kind>.M<M>``.
    """
    out = {}
    for m in SWEEP_GRIDS:
        surface = make_surface(m)
        kind = SURFACE_KIND[type(surface)]
        geom = flow._extract(surface)
        f = curvfun.MeanCurvature(geom.dim)
        calls = {
            "flow._advance": lambda: flow._advance(surface, geom, f, 1e-6),
            "flow._redistribute": lambda: flow._redistribute(surface),
            "flow.monitors": lambda: flow.monitors(geom, f),
            "curvfun.value": lambda: f.value(geom.lam),
            "curvfun.gradient": lambda: f.gradient(geom.lam),
        }
        out[f"{GEOMETRY_SPAN[type(surface)]}.us_per_call.M{m}"] = _us_per_call(
            lambda: flow._extract(surface))
        for span, call in calls.items():
            out[f"{span}.us_per_call.{kind}.M{m}"] = _us_per_call(call)
    return out
