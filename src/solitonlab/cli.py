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
import dataclasses
import functools
import json
import math
import re
import sys
from pathlib import Path
from typing import NamedTuple

import numpy as np

from . import curvfun, flow, hypersurface, soliton, spaceform
from .hypersurface import MIN_SAMPLES
from .identities import identity_suite_checks  # called by this name, so it can be patched here

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


# ---------------------------------------------------------------------------
# commands

def _normal_floats(values):
    """Whether every entry is a normal float: finite, and neither zero nor subnormal."""
    return bool((np.abs(values) >= np.finfo(float).tiny).all() and np.isfinite(values).all())


def _cmd_sphere_check(args, out_dir):
    _require_at_least(args, "samples", MIN_SAMPLES,
                      f"F + tau Z is checked on at least {MIN_SAMPLES} samples")
    f = curvfun.parse_curvature_function(args.f, args.n)
    tau = soliton.sphere_tau(f, args.R, args.c)
    print(f"sphere-check: f={f.name} n={args.n} R={args.R:g} c={args.c:g}")
    print(f"tau = {tau:.10g}")
    sphere = spaceform.sample_geodesic_sphere(args.c, args.R, args.n, args.samples)
    with np.errstate(all="ignore"):
        values = f.value(sphere.lam)
        if not _normal_floats(values):
            # F may be in range while an intermediate, such as K in pow(K, 1/4), is not,
            # or F itself may underflow where its true value is a normal float:
            # F at lam / s, scaled back by s^m, with s the power of two at or below max lam
            # (a numpy s^m beyond the float range reads inf, where a float's would raise)
            s = math.ldexp(1.0, math.frexp(sphere.lam.max())[1] - 1)
            values = f.value(sphere.lam / s) * np.float64(s) ** f.degree
    if not np.isfinite(values).all():
        raise ValueError(f"F of f={f.name} at the principal curvature {sphere.lam[0, 0]:g} "
                         f"(R={args.R:g}, c={args.c:g}) overflows the float range in its "
                         "evaluation")
    if not _normal_floats(values):
        raise ValueError(f"F of f={f.name} at the principal curvature {sphere.lam[0, 0]:g} "
                         f"(R={args.R:g}, c={args.c:g}) underflows below the normal floats "
                         "in its evaluation")
    if not _normal_floats(tau):
        raise ValueError(f"sphere tau of f={f.name} at R={args.R:g}, c={args.c:g} is the "
                         f"subnormal float {tau:g}, too coarse for the residual's tolerance")
    # relative to the size of the two terms that cancel; a zero F was refused above
    tau_z = tau * sphere.support
    size = max(np.abs(values).max(), np.abs(tau_z).max())
    residual = float(np.abs(values + tau_z).max() / size)
    tol = 1e-8
    ok = residual < tol
    print(f"max |F + tau Z| / max(max |F|, max |tau Z|) over {args.samples} samples = "
          f"{residual:.3e}")
    print(f"result: {'pass' if ok else 'FAIL'} (tolerance {tol:.3g})")
    return 0 if ok else 1


def _suite_csv(rows):
    lines = [f"{name},{res:.12e},{tol:.12e},{str(res <= tol).lower()}\n" for name, res, tol in rows]
    return "name,residual,tolerance,pass\n" + "".join(lines)


def _cmd_identity_suite(args, out_dir):
    rows = identity_suite_checks(args.samples, args.seed)
    path = out_dir / args.csv
    path.write_text(_suite_csv(rows))
    failures = [(name, res, tol) for name, res, tol in rows if not res <= tol]   # NaN fails
    print(f"identity-suite: {len(rows)} checks, seed={args.seed}, samples={args.samples}")
    print(f"wrote {path}")
    if failures:
        print(f"{len(failures)} FAILING checks:")
        for name, res, tol in failures:
            print(f"  {name}: residual {res:.3e} is not within tolerance {tol:.3e}")
        return 1
    print("all checks pass")
    return 0


# surface kind -> (its parameters, builder(grid size, *parameter tokens))
_SURFACES = {
    "circle": ("R", lambda m, r: hypersurface.circle(float(r), m)),
    "ellipse": ("A B", lambda m, a, b: hypersurface.ellipse(float(a), float(b), m)),
    "sphere": ("R", lambda m, r: hypersurface.sphere_profile(float(r), m)),
    "spheroid": ("A C", lambda m, a, c: hypersurface.spheroid_profile(float(a), float(c), m)),
    "profile": ("FILE", lambda m, path: hypersurface.load_surface(path)),
}


def _build_surface(spec, grid):
    kind, *tokens = spec.split() or [""]
    if kind not in _SURFACES:
        raise UsageError(f"unknown surface kind {kind!r}; expected {' | '.join(_SURFACES)}")
    params, build = _SURFACES[kind]
    if len(tokens) != len(params.split()):
        raise UsageError(f"bad surface spec {spec!r}: expected '{kind} {params}'")
    try:
        return build(grid, *tokens)
    except ValueError as exc:
        raise UsageError(f"bad surface spec {spec!r}: {exc}") from exc


def _require_at_least(args, key, least, why):
    """Refuse a count option below `least` by its flag, before the command prints anything."""
    value = getattr(args, key)
    if value < least:
        raise UsageError(f"{_flag(key)} {value} is below {least}: {why}")


def _cmd_flow(args, out_dir):
    # refused whatever the surface, though a `profile` surface keeps its own grid
    _require_at_least(args, "grid", MIN_SAMPLES,
                      f"a curve or meridian grid needs at least {MIN_SAMPLES} samples")
    surface = _build_surface(args.surface, args.grid)
    f = curvfun.parse_curvature_function(args.f, surface.dim)
    criteria = {field.name: getattr(args, field.name)
                for field in dataclasses.fields(flow.StopRule)}
    if all(value is None for value in criteria.values()):
        raise UsageError(f"flow needs a stop criterion: set at least one of "
                         f"{', '.join(map(_flag, criteria))} (or its [flow] key in the config)")
    stop = flow.StopRule(**criteria)
    config = flow.FlowConfig(f=f, stop=stop, dt_safety=args.dt_safety,
                             rescale_mode=args.rescale)

    trace = flow.run(config, surface)
    trace_path = out_dir / args.trace
    trace_path.write_text(trace.to_csv())

    last = trace.final
    print(f"flow: surface='{args.surface}' f={f.name} rescale={args.rescale} "
          f"grid={surface.grid_size}")
    print(f"steps={len(trace.rows) - 1} t_final={last.t:.6g} stop={trace.stop_reason} "
          f"dt_halvings={trace.dt_halvings} rejected={trace.rejected}")
    print(f"final r_max={last.r_max:.8g} F_aniso_max={last.aniso_max:.4e} "
          f"rel_residual={last.rel_residual:.4e}")
    print(f"wrote {trace_path}")
    snapshot_path = out_dir / args.snapshot
    hypersurface.save_surface(trace.final_surface, snapshot_path,
                              metadata={"seed": args.seed, "f": f.name,
                                        "stop_reason": trace.stop_reason,
                                        "t_final": last.t, "dt_halvings": trace.dt_halvings,
                                        "rejected": trace.rejected})
    print(f"wrote {snapshot_path}")
    return 1 if trace.aborted else 0


def _cmd_sweep_pinching(args, out_dir):
    if args.count < 1:
        raise UsageError("sweep-pinching needs --count >= 1")
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
    geom = hypersurface.load_surface(args.snapshot).geometry()
    f = curvfun.parse_curvature_function(args.f, geom.dim)
    mon = flow.monitors(geom, f)
    report = mon.soliton
    verdict = soliton.admissibility(f, mon.r_max)

    doc = {
        "format_version": CONFIG_FORMAT_VERSION,
        "kind": "soliton_fit_report",
        "tau_fit": report.tau_fit,
        "center": list(report.center),
        "rms_residual": report.rms_residual,
        "relative_residual": report.relative_residual,
        "max_residual": report.max_residual,
        "admissible": verdict.admissible,
        "covered_by": list(verdict.covered_by),
        "threshold_2iii": verdict.threshold_2iii,
        "metadata": {"seed": args.seed, "f": f.name, "snapshot": str(args.snapshot),
                     "sample_count": report.sample_count,
                     "classification": f.convexity, "r_max_observed": mon.r_max},
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


def _finite_float(text):
    """A float option's type: NaN and the infinities are refused, naming the flag."""
    value = float(text)
    if not math.isfinite(value):
        raise argparse.ArgumentTypeError(f"{text!r} is not a finite number")
    return value


class _Option(NamedTuple):
    key: str            # config key; the flag is --key with '_' as '-'
    type: object        # converts the text of a flag or config value: int, str or _finite_float
    default: object = None
    choices: tuple | None = None


class _Command(NamedTuple):
    help: str
    handler: object     # handler(args, out_dir) -> exit code
    options: tuple      # _Option entries in flag order


_COMMANDS = {
    "sphere-check": _Command("closed-form tau and sphere residual", _cmd_sphere_check, (
        _Option("f", str, _REQUIRED),
        _Option("R", _finite_float, _REQUIRED),
        _Option("c", _finite_float, 0.0),
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
        _Option("dt_safety", _finite_float, 0.4),
        _Option("grid", int, 256),
        _Option("t_max", _finite_float),
        _Option("r_tol", _finite_float),
        _Option("curvature_cap", _finite_float),
        _Option("min_scale_fraction", _finite_float),
        _Option("trace", str, "flow_trace.csv"),
        _Option("snapshot", str, "flow_final.json"),
    )),
    "sweep-pinching": _Command("pinching thresholds over a degree range", _cmd_sweep_pinching, (
        _Option("m_start", _finite_float, _REQUIRED),
        _Option("m_stop", _finite_float, _REQUIRED),
        _Option("count", int, 50),
        _Option("n", int, 2),
        _Option("classification", str, "neither", choices=("convex", "concave", "neither")),
        _Option("csv", str, "sweep_pinching.csv"),
    )),
    "soliton-fit": _Command("fit tau on a surface snapshot", _cmd_soliton_fit, (
        _Option("snapshot", str, _REQUIRED),
        _Option("f", str, _REQUIRED),
        _Option("json", str, "soliton_fit.json"),
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
            except (ValueError, argparse.ArgumentTypeError) as exc:
                raise UsageError(f"bad config value {section[opt.key]!r} "
                                 f"for [{args.command}] {opt.key}") from exc
        elif opt.default is _REQUIRED:
            raise UsageError(f"missing required option {_flag(opt.key)} "
                             f"(or [{args.command}] {opt.key} in the config)")
        else:
            setattr(args, opt.key, opt.default)


# ---------------------------------------------------------------------------
# entry point

# the negative numbers `float` reads; argparse's own pattern knows only the -1 and -.5
# forms, so it takes -1e-3 or -inf for a flag and leaves the option before it without a value
_NEGATIVE_NUMBER = re.compile(r"^-(?:(?:\d+\.?\d*|\.\d+)(?:e[-+]?\d+)?|inf|infinity|nan)$",
                              re.IGNORECASE)


class _Parser(argparse.ArgumentParser):
    """An argument parser that takes any negative number after an option for its value.

    `add_subparsers` builds the sub-parsers from the same class.
    """

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        self._negative_number_matcher = _NEGATIVE_NUMBER


@functools.cache
def _build_parser():
    """The parser, built on its first use and shared by every later `main` call."""
    parser = _Parser(
        prog="solitonlab",
        description="Numerical laboratory for curvature functions, support geometry, "
                    "and self-similar solutions of convex curvature flows.")
    parser.add_argument("--config", type=str, default=None, help="config file (INI)")
    parser.add_argument("--seed", type=int, default=0, help="seed for all randomness")
    parser.add_argument("--out", type=str, default=".", help="output directory")
    sub = parser.add_subparsers(dest="command", required=True)
    for name, command in _COMMANDS.items():
        p = sub.add_parser(name, help=command.help)
        for opt in command.options:
            p.add_argument(_flag(opt.key), type=opt.type, choices=opt.choices)
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
