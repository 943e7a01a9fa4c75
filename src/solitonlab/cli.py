"""Command-line front end: experiment orchestration and CSV/JSON emission.

Commands: ``sphere-check`` (closed-form tau and residual on a sampled geodesic
sphere), ``identity-suite`` (every library identity/residual check, one CSV row
each), ``flow`` (integrate a configured flow, trace CSV plus final snapshot),
``sweep-pinching`` (threshold table over a degree range), and ``soliton-fit``
(least-squares tau plus admissibility verdict for a snapshot file).

All randomness flows from the single ``--seed``; identical configuration and
seed give byte-identical outputs.  Config files are flat key/value INI text
with one section per command plus a ``[config]`` section carrying
``format_version: 1``; unknown sections or keys are rejected.
"""

import argparse
import configparser
import io
import itertools
import json
import sys
from concurrent.futures import ThreadPoolExecutor
from pathlib import Path

import numpy as np

from . import curvfun, flow, hypersurface, soliton, spaceform

CONFIG_FORMAT_VERSION = 1

_COMMAND_KEYS = {
    "sphere-check": ("f", "R", "c", "n", "samples"),
    "identity-suite": ("samples", "csv"),
    "flow": ("surface", "f", "rescale", "dt_safety", "grid", "t_max", "r_tol",
             "curvature_cap", "min_scale_fraction", "trace", "snapshot"),
    "sweep-pinching": ("m_start", "m_stop", "count", "n", "classification", "csv"),
    "soliton-fit": ("snapshot", "f", "grid", "classify_samples", "json", "base_point"),
}


class UsageError(ValueError):
    """Configuration or argument rejection; maps to exit code 2."""


# ---------------------------------------------------------------------------
# config documents

def parse_config_text(text):
    """Strictly parse a config document into {section: {key: value}}."""
    cp = configparser.ConfigParser(interpolation=None)
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
        if section not in _COMMAND_KEYS:
            raise UsageError(f"unknown config section [{section}]")
        allowed = set(_COMMAND_KEYS[section])
        body = dict(cp[section])
        unknown = sorted(set(body) - allowed)
        if unknown:
            raise UsageError(f"unknown keys in [{section}]: {', '.join(unknown)}")
        out[section] = body
    return out


def serialize_config(cfg):
    """Canonical text form of a parsed config (round-trips through parsing)."""
    lines = ["[config]", f"format_version: {cfg['config']['format_version']}", ""]
    for section in _COMMAND_KEYS:
        if section not in cfg:
            continue
        lines.append(f"[{section}]")
        for key in _COMMAND_KEYS[section]:
            if key in cfg[section]:
                lines.append(f"{key}: {cfg[section][key]}")
        lines.append("")
    return "\n".join(lines)


def _resolve(args, cfg, command, key, cast, default=None, required=False):
    cli_value = getattr(args, key, None)
    if cli_value is not None:
        return cli_value
    section = cfg.get(command, {})
    if key in section:
        try:
            return cast(section[key])
        except ValueError as exc:
            raise UsageError(f"bad config value {section[key]!r} for [{command}] {key}") from exc
    if required:
        raise UsageError(f"missing required option --{key.replace('_', '-')} "
                         f"(or [{command}] {key} in the config)")
    return default


# ---------------------------------------------------------------------------
# identity suite

def _random_rotation(rng, n):
    q, r = np.linalg.qr(rng.standard_normal((n, n)))
    return q * np.sign(np.diag(r))


def _random_spd(rng, n, low=0.2, high=3.0):
    q = _random_rotation(rng, n)
    eig = rng.uniform(low, high, n)
    a = (q * eig) @ q.T
    return 0.5 * (a + a.T)


def _fd_gradient(f, lam, step=1e-5):
    out = np.zeros_like(lam)
    for i in range(lam.shape[1]):
        e = np.zeros(lam.shape[1])
        e[i] = step
        out[:, i] = (f.value(lam + e) - f.value(lam - e)) / (2.0 * step)
    return out


def _fd_hessian(f, lam, step=1e-5):
    """Central differences of the analytic gradient, symmetrized.

    Differencing the gradient rather than taking second differences of the
    value keeps the rounding error near eps / step instead of eps / step^2.
    """
    n = lam.shape[1]
    out = np.zeros((lam.shape[0], n, n))
    for i in range(n):
        e = np.zeros(n)
        e[i] = step
        out[:, i, :] = (f.gradient(lam + e) - f.gradient(lam - e)) / (2.0 * step)
    return 0.5 * (out + out.transpose(0, 2, 1))


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
    gerr = np.abs(_fd_gradient(f, lam[:fd_n]) - grad)
    rows.append((f"{tag}_gradient_fd", float((gerr / np.maximum(1.0, np.abs(grad))).max()), 1e-6))
    hess = f.hessian(lam[:fd_n])
    herr = np.abs(_fd_hessian(f, lam[:fd_n]) - hess)
    rows.append((f"{tag}_hessian_fd", float((herr / np.maximum(1.0, np.abs(hess))).max()), 1e-6))

    worst = 0.0
    for _ in range(fd_n):
        eig = np.sort(rng.uniform(0.2, 3.0, n))
        while np.diff(eig).min() < 1e-3:
            eig = np.sort(rng.uniform(0.2, 3.0, n))
        a = np.diag(eig)
        b = _random_spd(rng, n) - np.diag(rng.uniform(0.0, 1.0, n))
        b = 0.5 * (b + b.T)
        form = curvfun.matrix_second_form(f, a, b)
        s = 1e-4

        def feval(mat):
            return f.value(np.linalg.eigvalsh(mat))

        fd = (feval(a + s * b) - 2.0 * feval(a) + feval(a - s * b)) / s ** 2
        worst = max(worst, abs(form - fd) / max(1.0, abs(form)))
    rows.append((f"{tag}_second_form_fd", worst, 1e-5))

    worst_basis = 0.0
    worst_e1 = 0.0
    worst_e2 = 0.0
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
    fwd_short = 0.0
    swp_short = 0.0
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
    equator = 128
    exact = hypersurface.ellipsoid_geometry((2.0, 2.0, 1.0), np.pi / 2.0, 0.0)
    rows.append(("spheroid_equator_cross_oracle",
                 float(np.abs(rev.lam[equator] - exact.lam[0]).max()), 1e-6))
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
    worst0 = worst1 = 0.0
    for n in (2, 3):
        for f in curvfun.builtin_functions(n, include_anisotropy=False):
            for c, store in ((0.0, 0), (-1.0, 1)):
                tau = soliton.sphere_tau(f, 1.3, c)
                samples = spaceform.sample_geodesic_sphere(c, 1.3, n, 64, seed=0)
                res = float(np.abs(soliton.residual_field(samples, f, tau)).max())
                if store == 0:
                    worst0 = max(worst0, res)
                else:
                    worst1 = max(worst1, res)
    rows.append(("sphere_residual_builtins_c0", worst0, 1e-10))
    rows.append(("sphere_residual_builtins_cm1", worst1, 1e-10))

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
    f1 = curvfun.MeanCurvature(1)
    report = soliton.fit_tau(geom, f1)
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
    buf = io.StringIO()
    buf.write("name,residual,tolerance,pass\n")
    for name, residual, tol in rows:
        ok = residual <= tol
        buf.write(f"{name},{residual:.12e},{tol:.12e},{str(ok).lower()}\n")
    return buf.getvalue()


# ---------------------------------------------------------------------------
# commands

def _cmd_sphere_check(args, cfg, out_dir, seed, allow_positive_c):
    command = "sphere-check"
    f_spec = _resolve(args, cfg, command, "f", str, required=True)
    radius = _resolve(args, cfg, command, "R", float, required=True)
    c = _resolve(args, cfg, command, "c", float, default=0.0)
    n = _resolve(args, cfg, command, "n", int, default=2)
    samples = _resolve(args, cfg, command, "samples", int, default=256)
    f = curvfun.parse_curvature_function(f_spec, n)
    tau = soliton.sphere_tau(f, radius, c, allow_positive_c=allow_positive_c)
    print(f"sphere-check: f={f.name} n={n} R={radius:g} c={c:g}")
    print(f"tau = {tau:.10g}")
    if c > 0.0:
        print("residual check skipped: positive ambient curvature is unlocked for "
              "shc/chc and sphere_tau only")
        return 0
    sphere = spaceform.sample_geodesic_sphere(c, radius, n, samples, seed=seed)
    residual = float(np.abs(soliton.residual_field(sphere, f, tau)).max())
    ok = residual < 1e-8
    print(f"max |F + tau Z| over {samples} samples = {residual:.3e}")
    print(f"result: {'pass' if ok else 'FAIL'} (tolerance 1e-08)")
    return 0 if ok else 1


def _cmd_identity_suite(args, cfg, out_dir, seed):
    command = "identity-suite"
    samples = _resolve(args, cfg, command, "samples", int, default=100)
    csv_name = _resolve(args, cfg, command, "csv", str, default="identity_suite.csv")
    rows = identity_suite_checks(samples, seed)
    text = _suite_csv(rows)
    path = out_dir / csv_name
    path.write_text(text)
    failures = [(name, res, tol) for name, res, tol in rows if res > tol]
    print(f"identity-suite: {len(rows)} checks, seed={seed}, samples={samples}")
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


def _cmd_flow(args, cfg, out_dir, seed):
    command = "flow"
    surface_spec = _resolve(args, cfg, command, "surface", str, required=True)
    f_spec = _resolve(args, cfg, command, "f", str, required=True)
    rescale = _resolve(args, cfg, command, "rescale", str, default="none")
    dt_safety = _resolve(args, cfg, command, "dt_safety", float, default=0.4)
    grid = _resolve(args, cfg, command, "grid", int, default=256)
    trace_name = _resolve(args, cfg, command, "trace", str, default="flow_trace.csv")
    snapshot_name = _resolve(args, cfg, command, "snapshot", str, default="flow_final.json")

    surface = _build_surface(surface_spec, grid)
    dim = 1 if isinstance(surface, hypersurface.PlaneCurve) else 2
    f = curvfun.parse_curvature_function(f_spec, dim)
    stop = flow.StopRule(
        t_max=_resolve(args, cfg, command, "t_max", float),
        r_tol=_resolve(args, cfg, command, "r_tol", float),
        curvature_cap=_resolve(args, cfg, command, "curvature_cap", float),
        min_scale_fraction=_resolve(args, cfg, command, "min_scale_fraction", float),
    )
    config = flow.FlowConfig(f=f, stop=stop, dt_safety=dt_safety,
                             rescale_mode=rescale, grid_size=grid)

    trace = flow.run(config, surface)
    trace_path = out_dir / trace_name
    trace_path.write_text(trace.to_csv())

    final_surface = trace.final_surface if trace.final_surface is not None else surface
    last = trace.final
    print(f"flow: surface='{surface_spec}' f={f.name} rescale={rescale} grid={grid}")
    print(f"steps={len(trace.rows) - 1} t_final={last.t:.6g} stop={trace.stop_reason}")
    print(f"final r_max={last.r_max:.8g} F_aniso_max={last.aniso_max:.4e} "
          f"rel_residual={last.rel_residual:.4e}")
    print(f"wrote {trace_path}")
    snapshot_path = out_dir / snapshot_name
    hypersurface.save_surface(final_surface, snapshot_path,
                              metadata={"seed": seed, "f": f.name,
                                        "stop_reason": trace.stop_reason,
                                        "t_final": last.t})
    print(f"wrote {snapshot_path}")
    return 1 if trace.aborted else 0


def _cmd_sweep_pinching(args, cfg, out_dir, seed):
    command = "sweep-pinching"
    m_start = _resolve(args, cfg, command, "m_start", float, required=True)
    m_stop = _resolve(args, cfg, command, "m_stop", float, required=True)
    count = _resolve(args, cfg, command, "count", int, default=50)
    n = _resolve(args, cfg, command, "n", int, default=2)
    classification = _resolve(args, cfg, command, "classification", str, default="neither")
    csv_name = _resolve(args, cfg, command, "csv", str, default="sweep_pinching.csv")
    if m_start > m_stop:
        raise UsageError("m_start must not exceed m_stop")
    if m_start <= 0.0 <= m_stop:
        raise UsageError("the degree range must exclude 0 (m = 0 is outside the "
                         "classification)")
    ms = np.linspace(m_start, m_stop, count)
    with ThreadPoolExecutor(max_workers=4) as pool:
        rows = list(pool.map(lambda m: soliton.sweep_row(float(m), n, classification), ms))
    rows.sort(key=lambda r: r["m"])

    lines = ["m,branch,threshold,quad_residual,monotone_ok"]
    prev_high = None
    for row in rows:
        threshold = row["threshold"]
        monotone = ""
        if threshold is not None and row["m"] > 1.0:
            monotone = "true" if (prev_high is None or threshold <= prev_high + 1e-12) else "false"
            prev_high = threshold
        thr_text = "" if threshold is None else f"{threshold:.17g}"
        lines.append(f"{row['m']:.17g},{row['branch']},{thr_text},"
                     f"{row['quad_residual']:.12e},{monotone}")
    path = out_dir / csv_name
    path.write_text("\n".join(lines) + "\n")
    print(f"sweep-pinching: {count} degrees in [{m_start:g}, {m_stop:g}], n={n}, "
          f"classification={classification}")
    print(f"wrote {path}")
    return 0


def _cmd_soliton_fit(args, cfg, out_dir, seed):
    command = "soliton-fit"
    snapshot = _resolve(args, cfg, command, "snapshot", str, required=True)
    f_spec = _resolve(args, cfg, command, "f", str, required=True)
    grid = _resolve(args, cfg, command, "grid", int, default=256)
    classify_samples = _resolve(args, cfg, command, "classify_samples", int, default=200)
    json_name = _resolve(args, cfg, command, "json", str, default="soliton_fit.json")
    base_spec = _resolve(args, cfg, command, "base_point", str)

    surface = hypersurface.load_surface(snapshot)
    base_point = None
    if base_spec is not None:
        coords = [float(tok) for tok in base_spec.split()]
        base_point = coords if len(coords) > 1 else coords[0]
    geom = hypersurface.extract_geometry(surface, base_point=base_point, grid_size=grid)
    f = curvfun.parse_curvature_function(f_spec, geom.dim)
    report = soliton.fit_tau(geom, f)
    rng = np.random.default_rng(seed)
    verdict_samples = rng.uniform(0.2, 3.0, size=(classify_samples, geom.dim))
    classification = curvfun.convexity_classify(f, list(verdict_samples))
    if geom.dim == 1:
        k = geom.lam[:, 0]
        r_max = float(k.max() / k.min())
    else:
        r_max = float((geom.lam[:, -1] / geom.lam[:, 0]).max())
    verdict = soliton.admissibility(geom.dim, f, classification, r_max)

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
        "metadata": {"seed": seed, "f": f.name, "snapshot": str(snapshot),
                     "sample_count": report.sample_count,
                     "classification": verdict.f_classification,
                     "r_max_observed": verdict.r_max_observed},
    }
    path = out_dir / json_name
    path.write_text(json.dumps(doc, indent=1) + "\n")
    print(f"soliton-fit: f={f.name} snapshot={snapshot}")
    print(f"tau_fit={report.tau_fit:.10g} relative_residual={report.relative_residual:.4e} "
          f"admissible={verdict.admissible}")
    print(f"wrote {path}")
    return 0


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

    p = sub.add_parser("sphere-check", help="closed-form tau and sphere residual")
    p.add_argument("--f", type=str)
    p.add_argument("--R", type=float)
    p.add_argument("--c", type=float)
    p.add_argument("--n", type=int)
    p.add_argument("--samples", type=int)

    p = sub.add_parser("identity-suite", help="run every identity/residual check")
    p.add_argument("--samples", type=int)
    p.add_argument("--csv", type=str)

    p = sub.add_parser("flow", help="integrate a curvature flow")
    p.add_argument("--surface", type=str)
    p.add_argument("--f", type=str)
    p.add_argument("--rescale", type=str, choices=("none", "fixed-scale"))
    p.add_argument("--dt-safety", dest="dt_safety", type=float)
    p.add_argument("--grid", type=int)
    p.add_argument("--t-max", dest="t_max", type=float)
    p.add_argument("--r-tol", dest="r_tol", type=float)
    p.add_argument("--curvature-cap", dest="curvature_cap", type=float)
    p.add_argument("--min-scale-fraction", dest="min_scale_fraction", type=float)
    p.add_argument("--trace", type=str)
    p.add_argument("--snapshot", type=str)

    p = sub.add_parser("sweep-pinching", help="pinching thresholds over a degree range")
    p.add_argument("--m-start", dest="m_start", type=float)
    p.add_argument("--m-stop", dest="m_stop", type=float)
    p.add_argument("--count", type=int)
    p.add_argument("--n", type=int)
    p.add_argument("--classification", type=str, choices=("convex", "concave", "neither"))
    p.add_argument("--csv", type=str)

    p = sub.add_parser("soliton-fit", help="fit tau on a surface snapshot")
    p.add_argument("--snapshot", type=str)
    p.add_argument("--f", type=str)
    p.add_argument("--grid", type=int)
    p.add_argument("--classify-samples", dest="classify_samples", type=int)
    p.add_argument("--json", type=str)
    p.add_argument("--base-point", dest="base_point", type=str,
                   help="override the support base point: 'x' on the axis for "
                        "rotation surfaces, 'x y' for curves")

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
        if args.command == "sphere-check":
            return _cmd_sphere_check(args, cfg, out_dir, args.seed, args.allow_positive_c)
        if args.command == "identity-suite":
            return _cmd_identity_suite(args, cfg, out_dir, args.seed)
        if args.command == "flow":
            return _cmd_flow(args, cfg, out_dir, args.seed)
        if args.command == "sweep-pinching":
            return _cmd_sweep_pinching(args, cfg, out_dir, args.seed)
        if args.command == "soliton-fit":
            return _cmd_soliton_fit(args, cfg, out_dir, args.seed)
        parser.error(f"unknown command {args.command!r}")
    except (UsageError, ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
