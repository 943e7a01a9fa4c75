"""Acceptance gate: every exit criterion at its stated tolerance.

Each test prints one pass/fail line (visible with `pytest -s` or on failure).
"""

import math
import time

import numpy as np
import pytest

from solitonlab import curvfun, flow, hypersurface, soliton, spaceform
from solitonlab.cli import main
from solitonlab.curvfun import builtin_functions, matrix_second_form
from solitonlab.flow import FlowConfig, StopRule
from solitonlab.hypersurface import Ellipsoid, circle, ellipse, spheroid_profile

from conftest import random_spd


def _report(num, label, ok, detail):
    status = "PASS" if ok else "FAIL"
    print(f"[acceptance] criterion {num} ({label}): {status} -- {detail}")
    assert ok, f"criterion {num} ({label}): {detail}"


def test_criterion_1_euler_identities():
    rng = np.random.default_rng(1)
    start = time.perf_counter()
    worst = 0.0
    count = 0
    for n in (2, 3):
        for f in builtin_functions(n):
            for _ in range(100):
                a = random_spd(rng, n)
                fval = f.value(np.linalg.eigvalsh(a))
                r1, r2 = curvfun.euler_residuals(f, a)
                worst = max(worst, max(r1, r2) / max(1.0, abs(fval)))
                count += 1
    elapsed = time.perf_counter() - start
    _report(1, "Euler identities", worst < 1e-10 and elapsed < 5.0,
            f"worst normalized residual {worst:.2e} < 1e-10 over {count} matrices, "
            f"{elapsed:.2f}s < 5s")


def test_criterion_2_second_derivative_formula():
    rng = np.random.default_rng(2)
    worst = 0.0
    pairs = 0
    for n in (2, 3):
        for f in builtin_functions(n):
            for _ in range(50):
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
                worst = max(worst, abs(form - fd) / max(1.0, abs(form)))
                pairs += 1
    # analytic anchor: det(diag(1,2) + s*offdiag(1)) = 2 - s^2, so d2/ds2 = -2
    anchor = matrix_second_form(curvfun.GaussCurvature(2), np.diag([1.0, 2.0]),
                                np.array([[0.0, 1.0], [1.0, 0.0]]))
    ok = worst < 1e-5 and abs(anchor + 2.0) < 1e-12
    _report(2, "second-derivative formula", ok,
            f"worst FD mismatch {worst:.2e} < 1e-5 over {pairs} pairs, "
            f"anchor {anchor:.12g} = -2")


def test_criterion_3_pair_sign_property():
    rng = np.random.default_rng(3)
    start = time.perf_counter()
    convex = curvfun.EuclideanNorm(2)
    concave = curvfun.GeometricMean(2)
    worst = 0.0
    for lam in rng.uniform(0.05, 4.0, (1000, 2)):
        g1, g2 = curvfun.pair_sign_gaps(convex, concave, lam)
        worst = max(worst, -g1 / max(1.0, abs(g1)), -g2 / max(1.0, abs(g2)))
        s1, s2 = curvfun.pair_sign_gaps(concave, convex, lam)
        worst = max(worst, s1 / max(1.0, abs(s1)), s2 / max(1.0, abs(s2)))
    elapsed = time.perf_counter() - start
    _report(3, "convex/concave sign gaps", worst <= 1e-12 and elapsed < 2.0,
            f"max normalized violation {worst:.2e} <= 1e-12 over 1000 samples x 2 "
            f"orders, {elapsed:.2f}s < 2s")


def test_criterion_4_codazzi_and_support_hessian():
    spheroid = Ellipsoid((1.0, 1.0, 1.3))
    sphere = Ellipsoid((1.0, 1.0, 1.0))
    cod = [hypersurface.codazzi_residual(spheroid, m) for m in (128, 256)]
    sup = [hypersurface.support_hessian_residual(spheroid, grid_size=m) for m in (128, 256)]
    cod_sphere = hypersurface.codazzi_residual(sphere, 128)
    sup_sphere = hypersurface.support_hessian_residual(sphere, grid_size=128)
    ok = (cod[0] / cod[1] >= 8.0 and sup[0] / sup[1] >= 8.0
          and cod_sphere < 1e-8 and sup_sphere < 1e-8)
    _report(4, "Codazzi and support-Hessian residuals", ok,
            f"spheroid refinement factors {cod[0] / cod[1]:.1f}, {sup[0] / sup[1]:.1f} "
            f">= 8; sphere residuals {cod_sphere:.1e}, {sup_sphere:.1e} < 1e-8")


def test_criterion_5_sphere_solitons():
    rng = np.random.default_rng(5)
    worst = 0.0
    for n in (1, 2, 3):
        for f in builtin_functions(n, include_anisotropy=False):
            for c in (0.0, -1.0):
                tau = soliton.sphere_tau(f, 1.3, c)
                sphere = spaceform.sample_geodesic_sphere(c, 1.3, n, 64)
                worst = max(worst, float(np.abs(
                    soliton.residual_field(sphere, f, tau)).max()))
    roundtrip = 0.0
    f2 = curvfun.MeanCurvature(2)
    for radius in rng.uniform(0.1, 10.0, 20):
        tau = soliton.sphere_tau(f2, radius, 0.0)
        roundtrip = max(roundtrip, abs(soliton.solve_sphere_radius(f2, tau, 0.0) - radius))
    radii_ok = all(
        abs(soliton.solve_sphere_radius(curvfun.MeanCurvature(n), 1.0, 0.0) - math.sqrt(n))
        < 1e-10 for n in (1, 2, 3))
    ok = worst < 1e-10 and roundtrip < 1e-10 and radii_ok
    _report(5, "sphere solitons", ok,
            f"max sphere residual {worst:.1e} < 1e-10 (all families, c in {{0,-1}}), "
            f"radius round-trip {roundtrip:.1e} < 1e-10, tau=1 spheres at sqrt(n)")


def test_criterion_6_pinching_thresholds():
    worst = 0.0
    for m in np.linspace(1.02, 100.0, 50):
        t = soliton.threshold_high(m)
        q = soliton.pinching_quadratics(m, t)[1]
        worst = max(worst, abs(q) / ((m - 1.0) * (t * t + t) + 2.0))
    for m in np.linspace(-100.0, -7.02, 50):
        t = soliton.threshold_low(m)
        q = soliton.pinching_quadratics(m, t)[0]
        worst = max(worst, abs(q) / (2.0 * t * t + abs(m - 1.0) * (t + 1.0)))
    boundary = (soliton.sweep_row(-7.0)["branch"] == "unconditional"
                and abs(soliton.threshold_low(-7.0 - 1e-9) - 2.0) < 1e-3
                and abs(soliton.threshold_low(-7.0 - 1e-12) - 2.0) < 1e-5)
    anchors = (abs(soliton.threshold_high(3.0) - (1.0 + math.sqrt(5.0)) / 2.0) < 1e-12
               and abs(soliton.threshold_high(2.0) - 2.0) < 1e-12)
    ok = worst <= 1e-12 and boundary and anchors
    _report(6, "pinching thresholds", ok,
            f"max root defect {worst:.2e} <= 1e-12 over both branches; boundary at "
            f"m=-7 and anchors m=3 -> golden ratio, m=2 -> 2 verified")


def test_criterion_7_flow_rounding():
    f1 = curvfun.MeanCurvature(1)
    start = time.perf_counter()
    config = FlowConfig(f=f1, stop=StopRule(r_tol=0.02, t_max=50.0),
                        rescale_mode="fixed-scale")
    trace = flow.run(config, ellipse(2.0, 1.0, 256))
    ellipse_time = time.perf_counter() - start
    rows = trace.rows
    ellipse_ok = (trace.stop_reason == "r_tol"
                  and rows[-1].r_max - 1.0 < 0.02
                  and rows[-1].rel_residual < 0.1 * rows[0].rel_residual
                  and ellipse_time < 120.0)

    f2 = curvfun.MeanCurvature(2)
    start = time.perf_counter()
    config = FlowConfig(f=f2, stop=StopRule(r_tol=0.22, t_max=10.0),
                        rescale_mode="fixed-scale")
    trace2 = flow.run(config, spheroid_profile(1.0, 1.3, 256))
    spheroid_time = time.perf_counter() - start
    rows2 = trace2.rows
    monotone = all(b.ahh_max <= a.ahh_max + 1e-9 for a, b in zip(rows2, rows2[1:]))
    spheroid_ok = (rows2[-1].ahh_max - 0.5 < 0.005 and monotone
                   and spheroid_time < 120.0)
    _report(7, "flow rounding", ellipse_ok and spheroid_ok,
            f"ellipse: r_max-1 = {rows[-1].r_max - 1.0:.4f} < 0.02, residual "
            f"{rows[-1].rel_residual / rows[0].rel_residual:.1%} of initial, "
            f"{ellipse_time:.0f}s; spheroid: |A|^2/H^2 -> {rows2[-1].ahh_max:.4f} "
            f"(monotone={monotone}), {spheroid_time:.0f}s")


def test_criterion_8_exact_ode_anchor():
    f1 = curvfun.MeanCurvature(1)
    config = FlowConfig(f=f1, stop=StopRule(t_max=0.25), dt_safety=0.4)
    trace = flow.run(config, circle(1.0, 256))
    worst = 0.0
    for row in trace.rows:
        exact = math.sqrt(1.0 - 2.0 * row.t)
        worst = max(worst, abs(row.measure / (2.0 * math.pi) - exact) / exact)
    ok = worst < 1e-3 and trace.rows[-1].t >= 0.25
    _report(8, "exact shrinking-circle anchor", ok,
            f"worst relative radius error {worst:.2e} < 1e-3 over the first "
            f"half-life ({len(trace.rows)} steps)")


def test_criterion_9_determinism(tmp_path):
    for sub in ("a", "b"):
        assert main(["--out", str(tmp_path / sub), "--seed", "42",
                     "identity-suite", "--samples", "40"]) == 0
        assert main(["--out", str(tmp_path / sub), "--seed", "42", "sweep-pinching",
                     "--m-start", "1.5", "--m-stop", "30", "--count", "40"]) == 0
    suite_same = ((tmp_path / "a" / "identity_suite.csv").read_bytes()
                  == (tmp_path / "b" / "identity_suite.csv").read_bytes())
    sweep_same = ((tmp_path / "a" / "sweep_pinching.csv").read_bytes()
                  == (tmp_path / "b" / "sweep_pinching.csv").read_bytes())
    _report(9, "determinism", suite_same and sweep_same,
            "identity-suite and sweep-pinching byte-identical across two seeded runs")
