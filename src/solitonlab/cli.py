"""Command-line front end: experiment orchestration and CSV/JSON emission.

Each command is declared once, in `_COMMANDS`: its help, its handler and its
options, from which the parser, the config allowlist and the defaults are built.
All randomness flows from the single ``--seed``; identical configuration and
seed give byte-identical outputs.  Config files are flat key/value INI text
with one section per command plus a ``[config]`` section carrying
``format_version: 1``; a key is its flag without ``--`` and with ``_`` for
``-``, and unknown sections or keys are rejected.
"""

import argparse
import configparser
import itertools
import json
import sys
from pathlib import Path
from typing import NamedTuple

import numpy as np

from . import curvfun, flow, hypersurface, soliton, spaceform

CONFIG_FORMAT_VERSION = 1


class UsageError(ValueError):
    """Configuration or argument rejection; maps to exit code 2."""


# ---------------------------------------------------------------------------
# config documents

def parse_config_text(text):
    """Strictly parse a config document into {section: {key: value}}."""
    cp = configparser.ConfigParser(interpolation=None)
    cp.optionxform = str        # keys are case-sensitive, as flags are (--R)
    try:
        cp.read_string(text)
    except configparser.Error as exc:
        raise UsageError(f"malformed config: {exc}") from exc
    if "config" not in cp:
        raise UsageError("config documents need a [config] section with format_version")
    meta = dict(cp["config"])
    if set(meta) != {"format_version"}:
        raise UsageError(f"[config] carries exactly format_version, got {sorted(meta)}")
    if meta["format_version"] != str(CONFIG_FORMAT_VERSION):
        raise UsageError(f"unsupported config format_version {meta['format_version']!r}")
    out = {"config": {"format_version": str(CONFIG_FORMAT_VERSION)}}
    for section in cp.sections():
        if section == "config":
            continue
        if section not in _COMMANDS:
            raise UsageError(f"unknown config section [{section}]")
        body = dict(cp[section])
        unknown = sorted(set(body) - {opt.key for opt in _COMMANDS[section].options})
        if unknown:
            raise UsageError(f"unknown keys in [{section}]: {', '.join(unknown)}")
        out[section] = body
    return out


def serialize_config(cfg):
    """Canonical text form of a parsed config (round-trips through parsing)."""
    lines = ["[config]", f"format_version: {cfg['config']['format_version']}", ""]
    for section, command in _COMMANDS.items():
        if section not in cfg:
            continue
        lines.append(f"[{section}]")
        for opt in command.options:
            if opt.key in cfg[section]:
                lines.append(f"{opt.key}: {cfg[section][opt.key]}")
        lines.append("")
    return "\n".join(lines)


# ---------------------------------------------------------------------------
# identity suite

def _random_rotation(rng, n):
    q, r = np.linalg.qr(rng.standard_normal((n, n)))
    return q * np.sign(np.diag(r))


def _random_spd(rng, n):
    q = _random_rotation(rng, n)
    eig = rng.uniform(0.2, 3.0, n)
    a = (q * eig) @ q.T
    return 0.5 * (a + a.T)


def _central_differences(fn, lam, step=1e-5):
    """Central differences of `fn` along each eigenvalue axis, stacked on axis 1."""
    n = lam.shape[1]
    columns = []
    for i in range(n):
        e = np.zeros(n)
        e[i] = step
        columns.append((fn(lam + e) - fn(lam - e)) / (2.0 * step))
    return np.stack(columns, axis=1)


def _gap_scales(f, g, lam):
    m = f.degree
    value_f, value_g = f.value(lam), g.value(lam)
    grad_f, grad_g = f.gradient(lam), g.gradient(lam)
    lam_sq = lam * lam
    s1 = abs(m) * (abs(value_g * float(grad_f @ lam_sq)) + abs(value_f * float(grad_g @ lam_sq)))
    s2 = abs(m) * (abs(value_f * float(grad_g.sum())) + abs(value_g * float(grad_f.sum())))
    return max(s1, 1e-300), max(s2, 1e-300)


def _eigenvalue_checks(rows, rng, sample_count, n, f):
    tag = f"{f.name}_n{n}"
    lam = rng.uniform(0.2, 3.0, size=(sample_count, n))
    values = f.value(lam)
    scale = np.maximum(1.0, np.abs(values))

    worst = 0.0
    for perm in itertools.permutations(range(n)):
        worst = max(worst, float((np.abs(f.value(lam[:, perm]) - values) / scale).max()))
    rows.append((f"{tag}_permutation_symmetry", worst, 1e-14))

    worst = 0.0
    for t in (0.5, 2.0, 10.0):
        expect = t ** f.degree * values
        worst = max(worst, float((np.abs(f.value(t * lam) - expect)
                                  / np.maximum(1.0, np.abs(expect))).max()))
    rows.append((f"{tag}_homogeneity", worst, 1e-12))

    fd_n = min(sample_count, 50)
    grad = f.gradient(lam[:fd_n])
    gerr = np.abs(_central_differences(f.value, lam[:fd_n]) - grad)
    rows.append((f"{tag}_gradient_fd", float((gerr / np.maximum(1.0, np.abs(grad))).max()), 1e-6))
    # differencing the analytic gradient rather than taking second differences
    # of the value keeps the rounding error near eps / step, not eps / step^2
    fd_hess = _central_differences(f.gradient, lam[:fd_n])
    hess = f.hessian(lam[:fd_n])
    herr = np.abs(0.5 * (fd_hess + fd_hess.transpose(0, 2, 1)) - hess)
    rows.append((f"{tag}_hessian_fd", float((herr / np.maximum(1.0, np.abs(hess))).max()), 1e-6))

    worst = 0.0
    for _ in range(fd_n):
        eig = np.sort(rng.uniform(0.2, 3.0, n))
        while np.diff(eig).min() < 1e-3:
            eig = np.sort(rng.uniform(0.2, 3.0, n))
        a = np.diag(eig)
        b = _random_spd(rng, n) - np.diag(rng.uniform(0.0, 1.0, n))
        form = curvfun.matrix_second_form(f, a, b)
        s = 1e-4
        plus, mid, minus = f.value(np.linalg.eigvalsh(np.stack([a + s * b, a, a - s * b])))
        fd = (plus - 2.0 * mid + minus) / s ** 2
        worst = max(worst, abs(form - fd) / max(1.0, abs(form)))
    rows.append((f"{tag}_second_form_fd", worst, 1e-5))

    worst_basis = worst_e1 = worst_e2 = 0.0
    for _ in range(sample_count):
        a = _random_spd(rng, n)
        q = _random_rotation(rng, n)
        d_here = curvfun.matrix_first_derivative(f, a)
        d_rot = curvfun.matrix_first_derivative(f, q @ a @ q.T)
        worst_basis = max(worst_basis, float(np.abs(d_rot - q @ d_here @ q.T).max())
                          / max(1.0, float(np.abs(d_here).max())))
        fval = f.value(np.linalg.eigvalsh(a))
        r1, r2 = curvfun.euler_residuals(f, a)
        worst_e1 = max(worst_e1, r1 / max(1.0, abs(fval)))
        worst_e2 = max(worst_e2, r2 / max(1.0, abs(fval)))
    rows.append((f"{tag}_basis_invariance", worst_basis, 1e-10))
    rows.append((f"{tag}_euler_first", worst_e1, 1e-10))
    rows.append((f"{tag}_euler_second", worst_e2, 1e-10))


def _pair_gap_checks(rows, rng, n):
    convex = curvfun.EuclideanNorm(n)
    concave = curvfun.GeometricMean(n)
    lam = rng.uniform(0.05, 4.0, size=(1000, n))
    fwd_short = swp_short = 0.0
    for row in lam:
        g1, g2 = curvfun.pair_sign_gaps(convex, concave, row)
        s1, s2 = _gap_scales(convex, concave, row)
        fwd_short = max(fwd_short, -g1 / s1, -g2 / s2)
        g1, g2 = curvfun.pair_sign_gaps(concave, convex, row)
        swp_short = max(swp_short, g1 / s1, g2 / s2)
    rows.append((f"pair_gaps_convex_concave_n{n}", max(0.0, fwd_short), 1e-12))
    rows.append((f"pair_gaps_swapped_n{n}", max(0.0, swp_short), 1e-12))


def _ellipse_curvature_error(a, b, m):
    geom = hypersurface.curve_geometry(hypersurface.ellipse(a, b, m))
    th = 2.0 * np.pi * np.arange(m) / m
    exact = a * b / (a * a * np.sin(th) ** 2 + b * b * np.cos(th) ** 2) ** 1.5
    return float(np.abs(geom.lam[:, 0] - exact).max())


def _geometry_checks(rows):
    geom = hypersurface.curve_geometry(hypersurface.circle(1.0, 256))
    rows.append(("circle_curvature_m256", float(np.abs(geom.lam - 1.0).max()), 1e-8))
    rows.append(("circle_support_m256", float(np.abs(geom.support + 1.0).max()), 1e-10))

    geom = hypersurface.curve_geometry(hypersurface.ellipse(2.0, 1.0, 512))
    rows.append(("ellipse_max_curvature_m512", abs(float(geom.lam.max()) - 2.0), 1e-5))
    factor = _ellipse_curvature_error(2.0, 1.0, 128) / _ellipse_curvature_error(2.0, 1.0, 256)
    rows.append(("ellipse_curvature_refinement_shortfall", max(0.0, 10.0 - factor), 0.0))

    sphere = hypersurface.Ellipsoid((1.0, 1.0, 1.0))
    spheroid = hypersurface.Ellipsoid((1.0, 1.0, 1.3))
    rows.append(("codazzi_sphere_m128", hypersurface.codazzi_residual(sphere, 128), 1e-10))
    factor = (hypersurface.codazzi_residual(spheroid, 128)
              / hypersurface.codazzi_residual(spheroid, 256))
    rows.append(("codazzi_spheroid_refinement_shortfall", max(0.0, 8.0 - factor), 0.0))
    rows.append(("support_hessian_sphere_m128",
                 hypersurface.support_hessian_residual(sphere, grid_size=128), 1e-8))
    factor = (hypersurface.support_hessian_residual(spheroid, grid_size=128)
              / hypersurface.support_hessian_residual(spheroid, grid_size=256))
    rows.append(("support_hessian_spheroid_refinement_shortfall", max(0.0, 8.0 - factor), 0.0))

    sph_geom = hypersurface.spheroid_meridian_geometry(1.0, 1.0, 256)
    height = sph_geom.position[:, 0]
    hess = hypersurface.covariant_hessian(sphere, height, 256)
    defect = hess + height[:, None, None] * sph_geom.metric
    rows.append(("covariant_hessian_sphere_height_m256", float(np.abs(defect).max()), 1e-6))
    const = hypersurface.covariant_hessian(sphere, np.ones(256), 256)
    rows.append(("covariant_hessian_constant", float(np.abs(const).max()), 1e-12))

    rev = hypersurface.revolution_geometry(hypersurface.spheroid_profile(2.0, 1.0, 257))
    exact = hypersurface.ellipsoid_geometry((2.0, 2.0, 1.0), np.pi / 2.0, 0.0)
    rows.append(("spheroid_equator_cross_oracle",
                 float(np.abs(rev.lam[128] - exact.lam[0]).max()), 1e-6))
    rows.append(("umbilic_sphere_defect",
                 float(np.abs(2.0 * sph_geom.norm_A2 - sph_geom.mean ** 2).max()), 1e-10))

    point = hypersurface.ellipsoid_geometry((1.0, 1.0, 1.5), 0.9, 0.7)
    trace_w = float(np.trace(point.weingarten[0]))
    trace_gh = float(np.sum(np.linalg.inv(point.metric[0]) * point.second_form[0]))
    rows.append(("weingarten_trace_consistency", abs(trace_w - trace_gh), 1e-12))
    w = rev.weingarten
    two_path = np.abs(np.einsum("kij,kji->k", w, w) - rev.norm_A2)
    rows.append(("norm_A2_two_path", float(two_path.max()), 1e-10))


def _spaceform_checks(rows):
    cs = np.linspace(-4.0, 4.0, 17)
    ts = np.linspace(0.1, 3.0, 7)
    e = 1e-5
    worst_sh = worst_ch = worst_py = 0.0
    for c in cs:
        for t in ts:
            sh, ch = spaceform.shc(c, t), spaceform.chc(c, t)
            dsh = (spaceform.shc(c, t + e) - spaceform.shc(c, t - e)) / (2.0 * e)
            dch = (spaceform.chc(c, t + e) - spaceform.chc(c, t - e)) / (2.0 * e)
            worst_sh = max(worst_sh, abs(dsh - ch) / max(1.0, abs(ch)))
            worst_ch = max(worst_ch, abs(dch + c * sh) / max(1.0, abs(c * sh)))
            worst_py = max(worst_py, abs(ch ** 2 + c * sh ** 2 - 1.0)
                           / max(1.0, ch ** 2 + abs(c) * sh ** 2))
    rows.append(("shc_derivative_grid", worst_sh, 1e-8))
    rows.append(("chc_derivative_grid", worst_ch, 1e-8))
    rows.append(("shc_chc_pythagoras", worst_py, 1e-12))

    worst = 0.0
    for c in (1e-12, 1e-9, 1e-6, -1e-12, -1e-9, -1e-6):
        for t in np.linspace(0.0, 10.0, 21):
            worst = max(worst, abs(spaceform.shc(c, t) - spaceform.shc(0.0, t)) / abs(c))
    rows.append(("shc_continuity_at_c0", worst, 170.0))


def _soliton_checks(rows, rng):
    worst = {0.0: 0.0, -1.0: 0.0}
    for n in (2, 3):
        for f in curvfun.builtin_functions(n, include_anisotropy=False):
            for c in worst:
                tau = soliton.sphere_tau(f, 1.3, c)
                samples = spaceform.sample_geodesic_sphere(c, 1.3, n, 64, seed=0)
                res = float(np.abs(soliton.residual_field(samples, f, tau)).max())
                worst[c] = max(worst[c], res)
    rows.append(("sphere_residual_builtins_c0", worst[0.0], 1e-10))
    rows.append(("sphere_residual_builtins_cm1", worst[-1.0], 1e-10))

    f = curvfun.MeanCurvature(2)
    worst = 0.0
    for radius in rng.uniform(0.1, 10.0, 20):
        tau = soliton.sphere_tau(f, radius, 0.0)
        worst = max(worst, abs(soliton.solve_sphere_radius(f, tau, 0.0) - radius))
    rows.append(("sphere_radius_roundtrip", worst, 1e-10))

    worst = 0.0
    for f in (curvfun.MeanCurvature(2), curvfun.GaussCurvature(2), curvfun.EuclideanNorm(3)):
        for s in (0.5, 2.0, 7.0):
            lhs = soliton.sphere_tau(f, s * 1.7, 0.0)
            rhs = s ** (-(f.degree + 1.0)) * soliton.sphere_tau(f, 1.7, 0.0)
            worst = max(worst, abs(lhs - rhs) / abs(rhs))
    rows.append(("sphere_tau_scaling_covariance", worst, 1e-12))

    worst = 0.0
    for m in np.linspace(1.02, 100.0, 50):
        t = soliton.threshold_high(m)
        q = soliton.pinching_quadratics(m, t)[1]
        worst = max(worst, abs(q) / ((m - 1.0) * (t * t + t) + 2.0))
    rows.append(("threshold_root_check_high", worst, 1e-12))
    worst = 0.0
    for m in np.linspace(-100.0, -7.02, 50):
        t = soliton.threshold_low(m)
        q = soliton.pinching_quadratics(m, t)[0]
        worst = max(worst, abs(q) / (2.0 * t * t + abs(m - 1.0) * (t + 1.0)))
    rows.append(("threshold_root_check_low", worst, 1e-12))

    geom = hypersurface.curve_geometry(hypersurface.ellipse(2.0, 1.0, 256))
    report = soliton.fit_tau(geom, curvfun.MeanCurvature(1))
    res = geom.mean + report.tau_fit * geom.support
    normal_eq = abs(float(geom.weights @ (geom.support * res)))
    rows.append(("fit_tau_normal_equation", normal_eq / max(1.0, float(
        geom.weights @ (geom.support ** 2))), 1e-10))

    sphere_geom = hypersurface.revolution_geometry(hypersurface.sphere_profile(1.4142135623730951, 256))
    rep = soliton.fit_tau(sphere_geom, curvfun.MeanCurvature(2))
    rows.append(("fit_tau_sphere_matches_closed_form",
                 abs(rep.tau_fit - soliton.sphere_tau(curvfun.MeanCurvature(2),
                                                      1.4142135623730951, 0.0)), 1e-8))
    rows.append(("fit_tau_sphere_relative_residual", rep.relative_residual, 1e-8))


def identity_suite_checks(sample_count, seed):
    """All identity/residual checks; returns (name, residual, tolerance) rows."""
    if sample_count <= 0:
        raise UsageError("identity-suite needs a positive --samples count")
    rng = np.random.default_rng(seed)
    rows = []
    for n in (2, 3):
        for f in curvfun.builtin_functions(n):
            _eigenvalue_checks(rows, rng, sample_count, n, f)
    for n in (2, 3):
        _pair_gap_checks(rows, rng, n)
    _geometry_checks(rows)
    _spaceform_checks(rows)
    _soliton_checks(rows, rng)
    return rows


def _suite_csv(rows):
    lines = [f"{name},{res:.12e},{tol:.12e},{str(res <= tol).lower()}\n" for name, res, tol in rows]
    return "name,residual,tolerance,pass\n" + "".join(lines)


# ---------------------------------------------------------------------------
# commands

def _cmd_sphere_check(args, out_dir):
    f = curvfun.parse_curvature_function(args.f, args.n)
    tau = soliton.sphere_tau(f, args.R, args.c, allow_positive_c=args.allow_positive_c)
    print(f"sphere-check: f={f.name} n={args.n} R={args.R:g} c={args.c:g}")
    print(f"tau = {tau:.10g}")
    if args.c > 0.0:
        print("residual check skipped: positive ambient curvature is unlocked for "
              "shc/chc and sphere_tau only")
        return 0
    sphere = spaceform.sample_geodesic_sphere(args.c, args.R, args.n, args.samples, seed=args.seed)
    residual = float(np.abs(soliton.residual_field(sphere, f, tau)).max())
    ok = residual < 1e-8
    print(f"max |F + tau Z| over {args.samples} samples = {residual:.3e}")
    print(f"result: {'pass' if ok else 'FAIL'} (tolerance 1e-08)")
    return 0 if ok else 1


def _cmd_identity_suite(args, out_dir):
    rows = identity_suite_checks(args.samples, args.seed)
    path = out_dir / args.csv
    path.write_text(_suite_csv(rows))
    failures = [(name, res, tol) for name, res, tol in rows if res > tol]
    print(f"identity-suite: {len(rows)} checks, seed={args.seed}, samples={args.samples}")
    print(f"wrote {path}")
    if failures:
        print(f"{len(failures)} FAILING checks:")
        for name, res, tol in failures:
            print(f"  {name}: residual {res:.3e} > tolerance {tol:.3e}")
        return 1
    print("all checks pass")
    return 0


def _build_surface(spec, grid):
    tokens = spec.split()
    try:
        kind = tokens[0]
        if kind == "circle":
            return hypersurface.circle(float(tokens[1]), grid)
        if kind == "ellipse":
            return hypersurface.ellipse(float(tokens[1]), float(tokens[2]), grid)
        if kind == "sphere":
            return hypersurface.sphere_profile(float(tokens[1]), grid)
        if kind == "spheroid":
            return hypersurface.spheroid_profile(float(tokens[1]), float(tokens[2]), grid)
        if kind == "profile":
            return hypersurface.load_surface(tokens[1])
    except (IndexError, ValueError) as exc:
        raise UsageError(f"bad surface spec {spec!r}: {exc}") from exc
    raise UsageError(f"unknown surface kind {tokens[0]!r}; expected circle | ellipse | "
                     f"sphere | spheroid | profile")


def _cmd_flow(args, out_dir):
    surface = _build_surface(args.surface, args.grid)
    f = curvfun.parse_curvature_function(args.f, surface.dim)
    stop = flow.StopRule(t_max=args.t_max, r_tol=args.r_tol, curvature_cap=args.curvature_cap,
                         min_scale_fraction=args.min_scale_fraction)
    config = flow.FlowConfig(f=f, stop=stop, dt_safety=args.dt_safety,
                             rescale_mode=args.rescale)

    trace = flow.run(config, surface)
    trace_path = out_dir / args.trace
    trace_path.write_text(trace.to_csv())

    last = trace.final
    print(f"flow: surface='{args.surface}' f={f.name} rescale={args.rescale} grid={args.grid}")
    print(f"steps={len(trace.rows) - 1} t_final={last.t:.6g} stop={trace.stop_reason}")
    print(f"final r_max={last.r_max:.8g} F_aniso_max={last.aniso_max:.4e} "
          f"rel_residual={last.rel_residual:.4e}")
    print(f"wrote {trace_path}")
    snapshot_path = out_dir / args.snapshot
    hypersurface.save_surface(trace.final_surface, snapshot_path,
                              metadata={"seed": args.seed, "f": f.name,
                                        "stop_reason": trace.stop_reason,
                                        "t_final": last.t})
    print(f"wrote {snapshot_path}")
    return 1 if trace.aborted else 0


def _cmd_sweep_pinching(args, out_dir):
    if args.m_start > args.m_stop:
        raise UsageError("m_start must not exceed m_stop")
    if args.m_start <= 0.0 <= args.m_stop:
        raise UsageError("the degree range must exclude 0 (m = 0 is outside the "
                         "classification)")
    lines = ["m,branch,threshold,quad_residual,monotone_ok"]
    prev_high = None
    for m in np.linspace(args.m_start, args.m_stop, args.count):
        row = soliton.sweep_row(float(m), args.n, args.classification)
        threshold = row["threshold"]
        monotone = ""
        if threshold is not None and row["m"] > 1.0:
            monotone = "true" if (prev_high is None or threshold <= prev_high + 1e-12) else "false"
            prev_high = threshold
        thr_text = "" if threshold is None else f"{threshold:.17g}"
        lines.append(f"{row['m']:.17g},{row['branch']},{thr_text},"
                     f"{row['quad_residual']:.12e},{monotone}")
    path = out_dir / args.csv
    path.write_text("\n".join(lines) + "\n")
    print(f"sweep-pinching: {args.count} degrees in [{args.m_start:g}, {args.m_stop:g}], "
          f"n={args.n}, classification={args.classification}")
    print(f"wrote {path}")
    return 0


def _cmd_soliton_fit(args, out_dir):
    surface = hypersurface.load_surface(args.snapshot)
    base_point = None
    if args.base_point is not None:
        coords = [float(tok) for tok in args.base_point.split()]
        if not coords:
            raise UsageError(f"--base-point needs {_BASE_POINT_FORMS}")
        base_point = coords[0] if len(coords) == 1 else coords
    geom = hypersurface.extract_geometry(surface, base_point=base_point, grid_size=args.grid)
    f = curvfun.parse_curvature_function(args.f, geom.dim)
    mon = flow.monitors(geom, f)
    report = mon.soliton
    rng = np.random.default_rng(args.seed)
    verdict_samples = rng.uniform(0.2, 3.0, size=(args.classify_samples, geom.dim))
    classification = curvfun.convexity_classify(f, list(verdict_samples))
    verdict = soliton.admissibility(geom.dim, f, classification, mon.r_max)

    doc = {
        "format_version": CONFIG_FORMAT_VERSION,
        "kind": "soliton_fit_report",
        "tau_fit": report.tau_fit,
        "rms_residual": report.rms_residual,
        "relative_residual": report.relative_residual,
        "max_residual": report.max_residual,
        "admissible": verdict.admissible,
        "covered_by": list(verdict.covered_by),
        "threshold_2iii": verdict.threshold_2iii,
        "metadata": {"seed": args.seed, "f": f.name, "snapshot": str(args.snapshot),
                     "sample_count": report.sample_count,
                     "classification": verdict.f_classification,
                     "r_max_observed": verdict.r_max_observed},
    }
    path = out_dir / args.json
    path.write_text(json.dumps(doc, indent=1) + "\n")
    print(f"soliton-fit: f={f.name} snapshot={args.snapshot}")
    print(f"tau_fit={report.tau_fit:.10g} relative_residual={report.relative_residual:.4e} "
          f"admissible={verdict.admissible}")
    print(f"wrote {path}")
    return 0


# ---------------------------------------------------------------------------
# the command table: parser, config allowlist and key order, defaults, dispatch

_REQUIRED = object()     # the default of an option that must be given
_BASE_POINT_FORMS = "'x' on the axis for rotation surfaces, 'x y' for curves"


class _Option(NamedTuple):
    key: str            # config key; the flag is --key with '_' as '-'
    type: type
    default: object = None
    choices: tuple | None = None
    help: str | None = None


class _Command(NamedTuple):
    help: str
    handler: object     # handler(args, out_dir) -> exit code
    options: tuple      # _Option entries in flag order


_COMMANDS = {
    "sphere-check": _Command("closed-form tau and sphere residual", _cmd_sphere_check, (
        _Option("f", str, _REQUIRED),
        _Option("R", float, _REQUIRED),
        _Option("c", float, 0.0),
        _Option("n", int, 2),
        _Option("samples", int, 256),
    )),
    "identity-suite": _Command("run every identity/residual check", _cmd_identity_suite, (
        _Option("samples", int, 100),
        _Option("csv", str, "identity_suite.csv"),
    )),
    "flow": _Command("integrate a curvature flow", _cmd_flow, (
        _Option("surface", str, _REQUIRED),
        _Option("f", str, _REQUIRED),
        _Option("rescale", str, "none", choices=("none", "fixed-scale")),
        _Option("dt_safety", float, 0.4),
        _Option("grid", int, 256),
        _Option("t_max", float),
        _Option("r_tol", float),
        _Option("curvature_cap", float),
        _Option("min_scale_fraction", float),
        _Option("trace", str, "flow_trace.csv"),
        _Option("snapshot", str, "flow_final.json"),
    )),
    "sweep-pinching": _Command("pinching thresholds over a degree range", _cmd_sweep_pinching, (
        _Option("m_start", float, _REQUIRED),
        _Option("m_stop", float, _REQUIRED),
        _Option("count", int, 50),
        _Option("n", int, 2),
        _Option("classification", str, "neither", choices=("convex", "concave", "neither")),
        _Option("csv", str, "sweep_pinching.csv"),
    )),
    "soliton-fit": _Command("fit tau on a surface snapshot", _cmd_soliton_fit, (
        _Option("snapshot", str, _REQUIRED),
        _Option("f", str, _REQUIRED),
        _Option("grid", int, 256),
        _Option("classify_samples", int, 200),
        _Option("json", str, "soliton_fit.json"),
        _Option("base_point", str,
                help=f"override the support base point: {_BASE_POINT_FORMS}"),
    )),
}


def _flag(key):
    return "--" + key.replace("_", "-")


def _fill_options(args, cfg):
    """Set each option of the command that no flag set: the config value, else the default."""
    section = cfg.get(args.command, {})
    for opt in _COMMANDS[args.command].options:
        if getattr(args, opt.key) is not None:
            continue
        if opt.key in section:
            try:
                setattr(args, opt.key, opt.type(section[opt.key]))
            except ValueError as exc:
                raise UsageError(f"bad config value {section[opt.key]!r} "
                                 f"for [{args.command}] {opt.key}") from exc
        elif opt.default is _REQUIRED:
            raise UsageError(f"missing required option {_flag(opt.key)} "
                             f"(or [{args.command}] {opt.key} in the config)")
        else:
            setattr(args, opt.key, opt.default)


# ---------------------------------------------------------------------------
# entry point

def _build_parser():
    parser = argparse.ArgumentParser(
        prog="solitonlab",
        description="Numerical laboratory for curvature functions, support geometry, "
                    "and self-similar solutions of convex curvature flows.")
    parser.add_argument("--config", type=str, default=None, help="config file (INI)")
    parser.add_argument("--seed", type=int, default=0, help="seed for all randomness")
    parser.add_argument("--out", type=str, default=".", help="output directory")
    parser.add_argument("--allow-positive-c", action="store_true",
                        help="unlock c > 0 for shc/chc and sphere_tau only")
    sub = parser.add_subparsers(dest="command", required=True)
    for name, command in _COMMANDS.items():
        p = sub.add_parser(name, help=command.help)
        for opt in command.options:
            p.add_argument(_flag(opt.key), type=opt.type, choices=opt.choices, help=opt.help)
    return parser


def main(argv=None):
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        cfg = {}
        if args.config is not None:
            cfg = parse_config_text(Path(args.config).read_text())
        out_dir = Path(args.out)
        out_dir.mkdir(parents=True, exist_ok=True)
        _fill_options(args, cfg)
        return _COMMANDS[args.command].handler(args, out_dir)
    except (UsageError, ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
