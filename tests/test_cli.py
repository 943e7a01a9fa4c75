import json
import math
import os
import subprocess
import sys
from pathlib import Path

import pytest

from solitonlab import cli, hypersurface, identities
from solitonlab.cli import main, parse_config_text, serialize_config


def test_sphere_check_flat(tmp_path, capsys):
    code = main(["--out", str(tmp_path), "sphere-check", "--f", "H",
                 "--R", "1.4142135623730951", "--c", "0", "--n", "2"])
    out = capsys.readouterr().out
    assert code == 0
    assert "tau = 1" in out
    assert "pass" in out


def test_sphere_check_gauss(tmp_path, capsys):
    code = main(["--out", str(tmp_path), "sphere-check", "--f", "K",
                 "--R", "1", "--c", "0", "--n", "2"])
    assert code == 0
    assert "tau = 1" in capsys.readouterr().out


def test_sphere_check_hyperbolic(tmp_path, capsys):
    code = main(["--out", str(tmp_path), "sphere-check", "--f", "H",
                 "--R", "1", "--c", "-1", "--n", "2"])
    out = capsys.readouterr().out
    assert code == 0
    expected = 2.0 * math.cosh(1.0) / math.sinh(1.0) ** 2
    assert f"tau = {expected:.10g}" in out


def test_sphere_check_positive_c_locked(tmp_path, capsys):
    assert main(["--out", str(tmp_path), "sphere-check", "--f", "H",
                 "--R", "1", "--c", "0.5", "--n", "2"]) == 2
    code = main(["--out", str(tmp_path), "--allow-positive-c", "sphere-check",
                 "--f", "H", "--R", "1", "--c", "0.5", "--n", "2"])
    assert code == 0
    assert "skipped" in capsys.readouterr().out


def test_invalid_f_spec_is_usage_error(tmp_path, capsys):
    code = main(["--out", str(tmp_path), "flow", "--surface", "circle 1",
                 "--f", "Q", "--t-max", "1"])
    assert code == 2
    assert "unknown curvature function" in capsys.readouterr().err


def test_identity_suite_rejects_zero_samples(tmp_path):
    assert main(["--out", str(tmp_path), "identity-suite", "--samples", "0"]) == 2


def test_identity_suite_command_calls_the_cli_name(tmp_path, monkeypatch):
    # wrappers put on cli.identity_suite_checks must see the command's call
    assert cli.identity_suite_checks is identities.identity_suite_checks
    calls = []
    monkeypatch.setattr(cli, "identity_suite_checks",
                        lambda samples, seed: calls.append((samples, seed)) or [("x", 0.0, 1.0)])
    assert main(["--out", str(tmp_path), "--seed", "4", "identity-suite", "--samples", "7"]) == 0
    assert calls == [(7, 4)]


def test_cli_import_leaves_scipy_interpolate_unloaded():
    src = str(Path(cli.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([src, os.environ.get("PYTHONPATH", "")]))
    probe = ("import sys, solitonlab.cli; "
             "print(sorted(m for m in sys.modules if m.startswith('scipy.interpolate')))")
    out = subprocess.run([sys.executable, "-c", probe], env=env, capture_output=True,
                         text=True, check=True).stdout
    assert out.strip() == "[]"


def test_identity_suite_small_passes(tmp_path):
    code = main(["--out", str(tmp_path), "--seed", "3", "identity-suite",
                 "--samples", "20"])
    assert code == 0
    text = (tmp_path / "identity_suite.csv").read_text()
    lines = text.strip().split("\n")
    assert lines[0] == "name,residual,tolerance,pass"
    assert all(line.endswith(",true") for line in lines[1:])


@pytest.mark.parametrize("seed", [8, 86, 205])
def test_identity_suite_hessian_fd_rows_pass(seed):
    rows = cli.identity_suite_checks(100, seed)
    hessian_rows = [(name, res, tol) for name, res, tol in rows if name.endswith("_hessian_fd")]
    assert hessian_rows
    assert all(res <= tol for _, res, tol in hessian_rows), hessian_rows


def test_identity_suite_deterministic(tmp_path):
    for sub in ("a", "b"):
        assert main(["--out", str(tmp_path / sub), "--seed", "11",
                     "identity-suite", "--samples", "15"]) == 0
    a = (tmp_path / "a" / "identity_suite.csv").read_bytes()
    b = (tmp_path / "b" / "identity_suite.csv").read_bytes()
    assert a == b
    assert main(["--out", str(tmp_path / "c"), "--seed", "12",
                 "identity-suite", "--samples", "15"]) == 0
    assert a != (tmp_path / "c" / "identity_suite.csv").read_bytes()


def test_flow_circle_extinction_guard(tmp_path, capsys):
    code = main(["--out", str(tmp_path), "flow", "--surface", "circle 1", "--f", "H",
                 "--min-scale-fraction", "0.5", "--grid", "256"])
    assert code == 0
    assert "stop=min_scale_fraction" in capsys.readouterr().out
    lines = (tmp_path / "flow_trace.csv").read_text().strip().split("\n")
    assert lines[0] == "t,dt,scale,r_max,F_aniso_max,aHH_max,umb_max,tau_fit,rel_residual,measure"
    for line in lines[1:]:
        cells = line.split(",")
        t, measure = float(cells[0]), float(cells[9])
        assert measure / (2.0 * math.pi) == pytest.approx(math.sqrt(1.0 - 2.0 * t), rel=1e-3)
    snap = json.loads((tmp_path / "flow_final.json").read_text())
    assert snap["format_version"] == 1
    assert snap["variant"] == "curve"
    assert snap["metadata"]["stop_reason"] == "min_scale_fraction"


def test_flow_abort_names_the_geometry_error(tmp_path, capsys):
    code = main(["--out", str(tmp_path), "flow", "--surface", "spheroid 1 3", "--f", "H",
                 "--rescale", "fixed-scale", "--r-tol", "0.22", "--t-max", "10"])
    assert code == 1
    out = capsys.readouterr().out
    assert "steps=0 " in out
    assert "after 20 dt halvings (last: " in out and "pole-angle violation" in out
    snap = json.loads((tmp_path / "flow_final.json").read_text())
    assert "pole-angle violation" in snap["metadata"]["stop_reason"]


def test_flow_abort_after_rescale_writes_outputs(tmp_path, capsys):
    code = main(["--out", str(tmp_path), "flow", "--surface", "spheroid 1 2", "--f", "H",
                 "--rescale", "fixed-scale", "--r-tol", "0.22", "--t-max", "10"])
    assert code == 1
    assert "stop=aborted: " in capsys.readouterr().out
    lines = (tmp_path / "flow_trace.csv").read_text().strip().split("\n")
    assert len(lines) > 50
    snap = json.loads((tmp_path / "flow_final.json").read_text())
    assert snap["metadata"]["stop_reason"].startswith("aborted: ")


def test_flow_reports_its_dt_halvings(tmp_path, capsys):
    # the 1:2 spheroid loses its pole angle to the resampling, so steps keep being retried
    code = main(["--out", str(tmp_path), "flow", "--surface", "spheroid 1 2", "--f", "H",
                 "--grid", "256", "--rescale", "fixed-scale", "--r-tol", "0.22",
                 "--t-max", "10"])
    assert code == 1
    steps_line = next(line for line in capsys.readouterr().out.splitlines()
                      if line.startswith("steps="))
    halvings = int(steps_line.rsplit(" dt_halvings=", 1)[1])
    assert halvings >= 20
    snap = json.loads((tmp_path / "flow_final.json").read_text())
    assert snap["metadata"]["dt_halvings"] == halvings


def test_flow_refuses_an_ellipsoid_snapshot(tmp_path, capsys):
    snap = tmp_path / "ellipsoid.json"
    hypersurface.save_surface(hypersurface.Ellipsoid((1.0, 1.0, 1.3)), snap)
    code = main(["--out", str(tmp_path), "flow", "--surface", f"profile {snap}",
                 "--f", "H", "--t-max", "0.01"])
    assert code == 2
    assert ("flows run on PlaneCurve or RevolutionProfile snapshots, got Ellipsoid"
            in capsys.readouterr().err)


def test_flow_last_step_lands_on_t_max(tmp_path, capsys):
    # the accuracy dt of a circle of radius 1e6 is 0.4 * 0.05 * 1e12 = 2e10
    code = main(["--out", str(tmp_path), "flow", "--surface", "circle 1e6", "--grid", "64",
                 "--f", "H", "--t-max", "1e9"])
    assert code == 0
    assert "steps=1 t_final=1e+09 stop=t_max" in capsys.readouterr().out
    lines = (tmp_path / "flow_trace.csv").read_text().strip().split("\n")
    assert float(lines[-1].split(",")[0]) == 1e9
    snap = json.loads((tmp_path / "flow_final.json").read_text())
    assert snap["metadata"]["t_final"] == 1e9


def test_flow_missing_stop_is_usage_error(tmp_path):
    assert main(["--out", str(tmp_path), "flow", "--surface", "circle 1",
                 "--f", "H"]) == 2


def test_sweep_pinching_anchors(tmp_path):
    code = main(["--out", str(tmp_path), "sweep-pinching", "--m-start", "3",
                 "--m-stop", "9", "--count", "4"])
    assert code == 0
    lines = (tmp_path / "sweep_pinching.csv").read_text().strip().split("\n")
    assert lines[0] == "m,branch,threshold,quad_residual,monotone_ok"
    first = lines[1].split(",")
    last = lines[-1].split(",")
    assert float(first[2]) == pytest.approx(1.6180340, abs=1e-7)
    assert float(last[2]) == pytest.approx(0.5 * (1.0 + math.sqrt(2.0)), rel=1e-12)
    assert all(line.split(",")[4] == "true" for line in lines[1:])


def test_sweep_pinching_branch_boundary(tmp_path):
    code = main(["--out", str(tmp_path), "sweep-pinching", "--m-start", "-7.000000001",
                 "--m-stop", "-7", "--count", "2", "--csv", "boundary.csv"])
    assert code == 0
    lines = (tmp_path / "boundary.csv").read_text().strip().split("\n")
    low = lines[1].split(",")
    high = lines[2].split(",")
    assert low[1] == "threshold"
    assert float(low[2]) == pytest.approx(2.0, abs=1e-3)
    assert high[1] == "unconditional" and high[2] == ""


@pytest.mark.parametrize("count", ["0", "-3"])
def test_sweep_pinching_count_below_one_is_usage_error(tmp_path, capsys, count):
    assert main(["--out", str(tmp_path), "sweep-pinching", "--m-start", "1",
                 "--m-stop", "2", "--count", count]) == 2
    assert "--count >= 1" in capsys.readouterr().err
    assert not (tmp_path / "sweep_pinching.csv").exists()


@pytest.mark.parametrize("spec, form", [("ellipse 2 1 5", "'ellipse A B'"),
                                        ("ellipse 2", "'ellipse A B'"),
                                        ("circle", "'circle R'"),
                                        ("circle 1 1", "'circle R'"),
                                        ("sphere 1 2", "'sphere R'"),
                                        ("spheroid 1 1.3 2", "'spheroid A C'"),
                                        ("profile a.json b.json", "'profile FILE'")])
def test_flow_surface_token_count_is_usage_error(tmp_path, capsys, spec, form):
    assert main(["--out", str(tmp_path), "flow", "--surface", spec, "--f", "H",
                 "--grid", "64", "--t-max", "0.001"]) == 2
    assert f"expected {form}" in capsys.readouterr().err
    assert not (tmp_path / "flow_trace.csv").exists()


@pytest.mark.parametrize("spec, message", [("torus 1 2", "unknown surface kind 'torus'"),
                                           ("", "unknown surface kind ''"),
                                           ("circle one", "bad surface spec 'circle one'")])
def test_flow_bad_surface_spec_is_usage_error(tmp_path, capsys, spec, message):
    assert main(["--out", str(tmp_path), "flow", "--surface", spec, "--f", "H",
                 "--t-max", "0.001"]) == 2
    assert message in capsys.readouterr().err


def test_sweep_rejects_zero_in_range(tmp_path):
    assert main(["--out", str(tmp_path), "sweep-pinching", "--m-start", "-1",
                 "--m-stop", "1"]) == 2


def test_sweep_deterministic(tmp_path):
    args = ["sweep-pinching", "--m-start", "1.5", "--m-stop", "40", "--count", "25"]
    for sub in ("a", "b"):
        assert main(["--out", str(tmp_path / sub), "--seed", "5"] + args) == 0
    assert (tmp_path / "a" / "sweep_pinching.csv").read_bytes() == \
        (tmp_path / "b" / "sweep_pinching.csv").read_bytes()


def test_soliton_fit_report_fields(tmp_path):
    snap = tmp_path / "sphere.json"
    hypersurface.save_surface(hypersurface.sphere_profile(math.sqrt(2.0), 128), snap)
    code = main(["--out", str(tmp_path), "soliton-fit", "--snapshot", str(snap),
                 "--f", "H"])
    assert code == 0
    doc = json.loads((tmp_path / "soliton_fit.json").read_text())
    for key in ("tau_fit", "rms_residual", "relative_residual", "max_residual",
                "admissible", "covered_by", "threshold_2iii"):
        assert key in doc
    assert doc["tau_fit"] == pytest.approx(1.0, abs=1e-6)
    assert doc["admissible"] is True
    assert doc["covered_by"] == ["2(i)", "2(iii)"]
    assert doc["threshold_2iii"] is None
    assert doc["metadata"]["classification"] == "convex"


def test_soliton_fit_base_point_override(tmp_path):
    snap = tmp_path / "sphere.json"
    hypersurface.save_surface(hypersurface.sphere_profile(1.0, 128), snap)
    assert main(["--out", str(tmp_path), "soliton-fit", "--snapshot", str(snap),
                 "--f", "H", "--base-point", "0.3", "--json", "shifted.json"]) == 0
    shifted = json.loads((tmp_path / "shifted.json").read_text())
    centered = main(["--out", str(tmp_path), "soliton-fit", "--snapshot", str(snap),
                     "--f", "H", "--json", "centered.json"])
    assert centered == 0
    centered_doc = json.loads((tmp_path / "centered.json").read_text())
    assert shifted["relative_residual"] > centered_doc["relative_residual"]


# ---------------------------------------------------------------------------
# config documents

CONFIG_TEXT = """\
[config]
format_version: 1

[flow]
surface: ellipse 2 1
f: H
rescale: fixed-scale
grid: 64
t_max: 0.05
"""


def test_config_round_trip():
    cfg = parse_config_text(CONFIG_TEXT)
    assert cfg["flow"]["surface"] == "ellipse 2 1"
    again = parse_config_text(serialize_config(cfg))
    assert again == cfg


def test_config_drives_flow(tmp_path, capsys):
    path = tmp_path / "exp.ini"
    path.write_text(CONFIG_TEXT)
    code = main(["--config", str(path), "--out", str(tmp_path), "flow"])
    assert code == 0
    assert "stop=t_max" in capsys.readouterr().out
    assert (tmp_path / "flow_trace.csv").exists()


def test_config_flag_override(tmp_path, capsys):
    path = tmp_path / "exp.ini"
    path.write_text(CONFIG_TEXT)
    code = main(["--config", str(path), "--out", str(tmp_path), "flow",
                 "--t-max", "0.01"])
    assert code == 0
    lines = (tmp_path / "flow_trace.csv").read_text().strip().split("\n")
    assert float(lines[-1].split(",")[0]) < 0.02


def test_config_rejections(tmp_path):
    bad_key = CONFIG_TEXT + "wobble: 3\n"
    with pytest.raises(cli.UsageError, match="unknown keys"):
        parse_config_text(bad_key)
    with pytest.raises(cli.UsageError, match="format_version"):
        parse_config_text("[flow]\nf: H\n")
    with pytest.raises(cli.UsageError, match="format_version"):
        parse_config_text("[config]\nformat_version: 9\n")
    with pytest.raises(cli.UsageError, match="unknown config section"):
        parse_config_text("[config]\nformat_version: 1\n\n[warp]\nx: 1\n")
    path = tmp_path / "bad.ini"
    path.write_text(bad_key)
    assert main(["--config", str(path), "--out", str(tmp_path), "flow"]) == 2


def test_soliton_fit_base_point_misuse_is_usage_error(tmp_path, capsys):
    curve, rotation = tmp_path / "curve.json", tmp_path / "rotation.json"
    hypersurface.save_surface(hypersurface.ellipse(2.0, 1.0, 64), curve)
    hypersurface.save_surface(hypersurface.sphere_profile(1.0, 64), rotation)
    cases = ((curve, "0.3", "pair (x, y)"), (rotation, "0.3 0.1", "one real number"),
             (curve, "", "--base-point needs"), (rotation, " ", "--base-point needs"))
    for snap, spec, message in cases:
        code = main(["--out", str(tmp_path), "soliton-fit", "--snapshot", str(snap),
                     "--f", "H", "--base-point", spec])
        assert code == 2
        assert message in capsys.readouterr().err


# ---------------------------------------------------------------------------
# the command table

def _sample_values(opt, pick):
    """A valid command-line text for an option; `pick` selects among variants."""
    if opt.choices:
        return opt.choices[pick % len(opt.choices)]
    return {int: ("7", "9"), float: ("1.5", "2.25"), str: ("alpha beta", "gamma")}[opt.type][pick]


def _flags(name, pick):
    argv = [name]
    for opt in cli._COMMANDS[name].options:
        argv += [cli._flag(opt.key), _sample_values(opt, pick)]
    return argv


def _config_text(names, pick):
    lines = ["[config]", "format_version: 1", ""]
    for name in names:
        lines.append(f"[{name}]")
        lines += [f"{opt.key}: {_sample_values(opt, pick)}" for opt in cli._COMMANDS[name].options]
        lines.append("")
    return "\n".join(lines)


def _filled(argv, cfg):
    args = cli._build_parser().parse_args(argv)
    cli._fill_options(args, cfg)
    return {opt.key: getattr(args, opt.key) for opt in cli._COMMANDS[args.command].options}


@pytest.mark.parametrize("name", list(cli._COMMANDS))
def test_config_value_and_flag_resolve_equal(name):
    from_flags = _filled(_flags(name, 0), {})
    from_config = _filled([name], parse_config_text(_config_text([name], 0)))
    assert from_config == from_flags
    assert all(value is not None for value in from_flags.values())
    # a flag wins over the config
    both = _filled(_flags(name, 1), parse_config_text(_config_text([name], 0)))
    assert both == _filled(_flags(name, 1), {})
    assert both != from_config


def test_an_option_left_unset_takes_its_default_or_is_refused():
    for name, command in cli._COMMANDS.items():
        for opt in command.options:
            cfg = parse_config_text(_config_text([name], 0))
            del cfg[name][opt.key]
            if opt.default is cli._REQUIRED:
                with pytest.raises(cli.UsageError,
                                   match=f"missing required option {cli._flag(opt.key)} "):
                    _filled([name], cfg)
            else:
                assert _filled([name], cfg)[opt.key] == opt.default


def test_serialize_config_round_trips_every_key():
    text = _config_text(list(cli._COMMANDS), 0)
    cfg = parse_config_text(text)
    assert sum(len(cfg[name]) for name in cli._COMMANDS) == sum(
        len(command.options) for command in cli._COMMANDS.values())
    assert serialize_config(cfg) == text
    assert parse_config_text(serialize_config(cfg)) == cfg
