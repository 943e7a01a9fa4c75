import argparse
import contextlib
import io
import json
import math
import os
import re
import subprocess
import sys
import warnings
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from solitonlab import cli, curvfun, flow, hypersurface, identities
from solitonlab.cli import main, parse_config_text


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


@pytest.mark.parametrize("c,n", [("-49", 1), ("-49", 2), ("-64", 1), ("-64", 2)])
def test_sphere_check_passes_far_from_the_base_point(tmp_path, capsys, c, n):
    # kappa R = 7 and 8: the hyperboloid samples were refused as "normal must be unit",
    # and at c = -64, n = 2 the residual's rounding (1.5e-8) exceeded a fixed 1e-8
    code = main(["--out", str(tmp_path), "sphere-check", "--f", "H", "--R", "1",
                 f"--c={c}", "--n", str(n)])
    assert code == 0
    assert "result: pass" in capsys.readouterr().out


@pytest.mark.parametrize("c", ["0", "-1"])
def test_sphere_check_tolerance_stays_1e_8_near_the_base_point(tmp_path, capsys, c):
    # the rounding-scaled tolerance only grows where cosh(2 kappa R) makes it exceed 1e-8
    assert main(["--out", str(tmp_path), "sphere-check", "--f", "H", "--R", "1",
                 f"--c={c}"]) == 0
    assert "result: pass (tolerance 1e-08)" in capsys.readouterr().out


@pytest.mark.parametrize("n", [1, 2, 3])
def test_sphere_check_passes_at_c_minus_400_with_a_fixed_tolerance(tmp_path, capsys, n):
    # kappa R = 20: Z formed by the Minkowski pairing <<d_rho, nu>> read a residual of
    # 1.0e3 at n = 2, passed only by a tolerance scaled with cosh(2 kappa R)
    code = main(["--out", str(tmp_path), "sphere-check", "--f", "H", "--R", "1",
                 "--c=-400", "--n", str(n)])
    assert code == 0
    assert "result: pass (tolerance 1e-08)" in capsys.readouterr().out


def test_sphere_check_fails_a_tau_1_percent_off_at_c_minus_400(tmp_path, capsys, monkeypatch):
    exact = cli.soliton.sphere_tau
    monkeypatch.setattr(cli.soliton, "sphere_tau", lambda *a, **k: 1.01 * exact(*a, **k))
    code = main(["--out", str(tmp_path), "sphere-check", "--f", "H", "--R", "1", "--c=-400"])
    assert code == 1
    assert "result: FAIL" in capsys.readouterr().out


def test_sphere_check_positive_c_locked(tmp_path, capsys):
    assert main(["--out", str(tmp_path), "sphere-check", "--f", "H",
                 "--R", "1", "--c", "0.5", "--n", "2"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "ambient curvature must be <= 0 (got c=0.5)" in captured.err
    with pytest.raises(SystemExit) as exc:
        main(["--out", str(tmp_path), "--allow-positive-c", "sphere-check",
              "--f", "H", "--R", "1", "--c", "0.5", "--n", "2"])
    assert exc.value.code == 2
    assert "unrecognized arguments: --allow-positive-c" in capsys.readouterr().err


@pytest.mark.parametrize("argv", [
    ["--f", "pow(H,300)", "--R", "0.01"],
    ["--f", "pow(H,1e+06)", "--R", "1.3", "--n", "1"],
    # tau = -2^-300 tanh(R)^300 / sinh(R), about -1e-688 at R = 0.01
    ["--f", "pow(H,-300)", "--R", "0.01", "--c", "-1"],
    ["--f", "H", "--R", "800", "--c", "-1"],
    ["--f", "K", "--n", "3", "--R", "1e-120"],
], ids=["m-300-small-R", "m-1e6-n1", "m-minus-300-c-1", "cosh-overflow", "K-tiny-R"])
def test_sphere_check_refuses_a_tau_outside_the_float_range(tmp_path, capsys, argv):
    # each tau is zero or beyond the largest float in exact arithmetic too
    assert main(["--out", str(tmp_path), "sphere-check"] + argv) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "is zero or outside the float range" in captured.err


def test_sphere_check_passes_where_chc_to_the_m_overflows(tmp_path, capsys):
    # tau = 2^20 coth(50)^20 / sinh(50) = 4.04e-16, while cosh(50)^20 is beyond the floats
    assert main(["--out", str(tmp_path), "sphere-check", "--f", "pow(H,20)", "--R", "50",
                 "--c=-1"]) == 0
    out = capsys.readouterr().out
    expect = 2.0 ** 20 / math.tanh(50.0) ** 20 / math.sinh(50.0)
    assert f"tau = {expect:.10g}" in out
    assert "result: pass (tolerance 1e-08)" in out


def test_sphere_check_passes_where_r_to_the_m_plus_1_overflows(tmp_path, capsys):
    # tau = 2^300 / 20^301 = 5e-302, while 20^301 is beyond the floats: tau was refused
    assert main(["--out", str(tmp_path), "sphere-check", "--f", "pow(H,300)", "--n", "2",
                 "--R", "20"]) == 0
    out = capsys.readouterr().out
    assert "tau = 5e-302" in out
    assert "result: pass (tolerance 1e-08)" in out


def test_sphere_check_refuses_a_subnormal_tau(tmp_path, capsys):
    # tau = 1 / R^2 = 1e-316 keeps about 25 of its 53 bits, and the exact sphere soliton
    # would read a residual of 1.6e-8 against the tolerance 1e-8
    assert main(["--out", str(tmp_path), "sphere-check", "--f", "H", "--n", "1",
                 "--R", "1e158"]) == 2
    assert ("sphere tau of f=H at R=1e+158, c=0 is the subnormal float 1e-316, too coarse "
            "for the residual's tolerance") in capsys.readouterr().err


def test_sphere_check_refuses_an_overflowing_unit_value_with_no_warning(tmp_path, capsys):
    # f(1, 1) = 2^3000: the refusal by name is all that is printed
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert main(["--out", str(tmp_path), "sphere-check", "--f", "pow(H,3000)",
                     "--R", "1"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == ("error: sphere tau of f=pow(H,3000) (degree m=3000) at R=1, c=0 "
                            "is zero or outside the float range\n")


@pytest.mark.parametrize("argv", [
    ["--f", "K", "--n", "3", "--R", "0.001"],
    ["--f", "pow(H,400)", "--R", "0.5"],
], ids=["K-F-1e9", "pow-H-400"])
def test_sphere_check_judges_the_residual_relative_to_a_large_F(tmp_path, capsys, argv):
    # F = 1e9 for K at R = 0.001: an absolute 1e-8 failed on a residual of 4.8e-7
    assert main(["--out", str(tmp_path), "sphere-check"] + argv) == 0
    assert "result: pass (tolerance 1e-08)" in capsys.readouterr().out


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


def test_identity_suite_fails_a_nan_row(tmp_path, monkeypatch, capsys):
    monkeypatch.setattr(cli, "identity_suite_checks",
                        lambda samples, seed: [("ok", 0.0, 1.0), ("broken", float("nan"), 1.0)])
    assert main(["--out", str(tmp_path), "identity-suite"]) == 1
    out = capsys.readouterr().out
    assert "1 FAILING checks:" in out and "broken" in out and "all checks pass" not in out
    lines = (tmp_path / "identity_suite.csv").read_text().splitlines()
    assert lines[2] == "broken,nan,1.000000000000e+00,false"


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
    # at M = 64 the 1:5 spheroid's pole is too coarse (h kappa_pole about 0.3 or more) for its
    # pole angle to pass, so the first step is refused
    code = main(["--out", str(tmp_path), "flow", "--surface", "spheroid 1 5", "--f", "H",
                 "--grid", "64", "--rescale", "fixed-scale", "--r-tol", "0.22",
                 "--t-max", "10"])
    assert code == 1
    out = capsys.readouterr().out
    assert "steps=0 " in out
    assert "after 20 dt halvings (last: " in out and "pole-angle violation" in out
    snap = json.loads((tmp_path / "flow_final.json").read_text())
    assert "pole-angle violation" in snap["metadata"]["stop_reason"]


def test_flow_abort_after_rescale_writes_outputs(tmp_path, capsys):
    # under pow(H,0.55) the 1:2 spheroid, longer than the 1.347-aspect soliton, elongates
    # until its poles break down, hundreds of rescaled steps in
    code = main(["--out", str(tmp_path), "flow", "--surface", "spheroid 1 2",
                 "--f", "pow(H,0.55)", "--grid", "128", "--rescale", "fixed-scale",
                 "--r-tol", "0.22", "--t-max", "10"])
    assert code == 1
    assert "stop=aborted: " in capsys.readouterr().out
    lines = (tmp_path / "flow_trace.csv").read_text().strip().split("\n")
    assert len(lines) > 50
    snap = json.loads((tmp_path / "flow_final.json").read_text())
    assert snap["metadata"]["stop_reason"].startswith("aborted: ")


def test_flow_reports_its_dt_halvings(tmp_path, capsys):
    # the 1:2 spheroid elongating under pow(H,0.55) loses its pole angle step after step,
    # so steps keep being retried at half the dt
    code = main(["--out", str(tmp_path), "flow", "--surface", "spheroid 1 2",
                 "--f", "pow(H,0.55)", "--grid", "128", "--rescale", "fixed-scale",
                 "--r-tol", "0.22", "--t-max", "10"])
    assert code == 1
    steps_line = next(line for line in capsys.readouterr().out.splitlines()
                      if line.startswith("steps="))
    halvings = int(steps_line.split(" dt_halvings=", 1)[1].split()[0])
    assert halvings >= 20
    snap = json.loads((tmp_path / "flow_final.json").read_text())
    assert snap["metadata"]["dt_halvings"] == halvings


def test_flow_reports_its_rejected_steps(tmp_path, capsys, monkeypatch):
    # a first step 8x the usual one is refused on its error estimate
    monkeypatch.setattr(flow, "_STEP_SCALE", 8.0 * flow._STEP_SCALE)
    code = main(["--out", str(tmp_path), "flow", "--surface", "ellipse 2 1", "--f", "H",
                 "--grid", "64", "--rescale", "fixed-scale", "--t-max", "0.3"])
    assert code == 0
    steps_line = next(line for line in capsys.readouterr().out.splitlines()
                      if line.startswith("steps="))
    assert re.fullmatch(r"steps=\d+ t_final=0\.3 stop=t_max dt_halvings=0 rejected=\d+",
                        steps_line)
    rejected = int(steps_line.rsplit(" rejected=", 1)[1])
    assert rejected >= 1
    snap = json.loads((tmp_path / "flow_final.json").read_text())
    assert snap["metadata"]["rejected"] == rejected and snap["metadata"]["dt_halvings"] == 0


def test_flow_refuses_an_ellipsoid_snapshot(tmp_path, capsys):
    # no snapshot variant holds an analytic surface
    snap = tmp_path / "ellipsoid.json"
    snap.write_text(json.dumps({"format_version": 1, "variant": "ellipsoid",
                                "semi_axes": [1.0, 1.0, 1.3]}))
    code = main(["--out", str(tmp_path), "flow", "--surface", f"profile {snap}",
                 "--f", "H", "--t-max", "0.01"])
    assert code == 2
    assert "unknown snapshot variant 'ellipsoid'" in capsys.readouterr().err
    # and the flow itself runs on the two sampled grid kinds only
    config = flow.FlowConfig(f=curvfun.parse_curvature_function("H", 2),
                             stop=flow.StopRule(t_max=0.01))
    with pytest.raises(hypersurface.GeometryError, match="flows run on PlaneCurve or "
                       "RevolutionProfile snapshots, got AnalyticSpheroid"):
        flow.run(config, hypersurface.AnalyticSpheroid(1.0, 1.3, 64))


@pytest.mark.parametrize("command, output", [
    (["flow", "--surface", "profile {snap}", "--f", "H", "--t-max", "0.01"], "flow_trace.csv"),
    (["soliton-fit", "--snapshot", "{snap}", "--f", "H"], "soliton_fit.json"),
], ids=["flow", "soliton-fit"])
def test_a_malformed_snapshot_exits_2_and_names_its_field(tmp_path, capsys, command, output):
    snap = tmp_path / "bad.json"
    for doc, message in (([1, 2], "JSON object, got list"),
                         ({"format_version": 1, "variant": "curve"}, "needs 'positions'"),
                         ({"format_version": 1, "variant": "curve", "positions": 3},
                          "'positions' must have rank 2"),
                         ({"format_version": 1, "variant": "curve", "grid_size": 999,
                           "positions": hypersurface.circle(1.0, 64).points.tolist()},
                          "'grid_size' must be 64, the length of 'positions', got 999")):
        snap.write_text(json.dumps(doc))
        assert main(["--out", str(tmp_path)] + [arg.format(snap=snap) for arg in command]) == 2
        assert message in capsys.readouterr().err
        assert not (tmp_path / output).exists()


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


def test_flow_refuses_an_unknown_speed_spec(tmp_path, capsys):
    code = main(["--out", str(tmp_path), "flow", "--surface", "sphere 1", "--grid", "64",
                 "--f", "anisotropy", "--t-max", "0.1"])
    assert code == 2
    assert "unknown curvature function spec 'anisotropy'" in capsys.readouterr().err
    assert not (tmp_path / "flow_trace.csv").exists()


def test_flow_missing_stop_is_usage_error(tmp_path, capsys):
    assert main(["--out", str(tmp_path), "flow", "--surface", "circle 1",
                 "--f", "H"]) == 2
    err = capsys.readouterr().err
    assert "--t-max" in err and "StopRule" not in err


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


@pytest.mark.parametrize("n", ["0", "-3"])
def test_sweep_pinching_dimension_below_one_is_usage_error(tmp_path, capsys, n):
    assert main(["--out", str(tmp_path), "sweep-pinching", "--m-start", "1",
                 "--m-stop", "2", "--count", "3", "--n", n]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert f"dimension n must be at least 1, got {n}" in captured.err
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


_NON_FINITE_CASES = [
    (["sphere-check", "--f", "H", "--R", "nan"], "--R", "nan"),
    (["sphere-check", "--f", "H", "--R", "1", "--c=-inf"], "--c", "-inf"),
    (["flow", "--surface", "circle 1", "--f", "H", "--grid", "64", "--t-max", "nan"],
     "--t-max", "nan"),
    (["flow", "--surface", "circle 1", "--f", "H", "--grid", "64", "--t-max", "1",
      "--dt-safety", "inf"], "--dt-safety", "inf"),
    (["sweep-pinching", "--m-start", "nan", "--m-stop", "1", "--count", "3"],
     "--m-start", "nan"),
    (["sweep-pinching", "--m-start", "1", "--m-stop", "1e400", "--count", "3"],
     "--m-stop", "1e400"),
]


@pytest.mark.parametrize("argv, flag, text", _NON_FINITE_CASES,
                         ids=[f"{argv[0]}{flag}" for argv, flag, _ in _NON_FINITE_CASES])
def test_a_non_finite_float_option_is_refused_naming_its_flag(tmp_path, capsys, argv, flag,
                                                              text):
    with pytest.raises(SystemExit) as exc:
        main(["--out", str(tmp_path)] + argv)
    assert exc.value.code == 2
    assert f"argument {flag}: {text!r} is not a finite number" in capsys.readouterr().err
    assert list(tmp_path.iterdir()) == []


_EXPONENT_CASES = [
    (["sphere-check", "--f", "H", "--R", "1"], "--c", "-1e-3"),
    (["sphere-check", "--f", "H", "--R", "1"], "--c", "-2.5E-1"),
    (["sphere-check", "--f", "H", "--R", "1"], "--c", "-.5e+1"),
    (["sweep-pinching", "--m-stop", "-7.5", "--count", "3"], "--m-start", "-1e2"),
]


@pytest.mark.parametrize("argv, flag, value", _EXPONENT_CASES,
                         ids=[f"{argv[0]}{flag}{value}" for argv, flag, value in _EXPONENT_CASES])
def test_a_negative_number_in_exponent_form_is_read_as_the_value(tmp_path, capsys, argv, flag,
                                                                  value):
    # argparse alone takes "-1e-3" for a flag and leaves the option before it empty
    runs = []
    for form, option in (("split", [flag, value]), ("joined", [f"{flag}={value}"])):
        out = tmp_path / form
        assert main(["--out", str(out)] + argv + option) == 0
        runs.append((capsys.readouterr().out.replace(str(out), "OUT"),
                     {path.name: path.read_bytes() for path in out.iterdir()}))
    assert runs[0] == runs[1]


@pytest.mark.parametrize("text", ["-inf", "-Infinity", "-nan"])
def test_a_negative_non_finite_value_after_its_flag_is_refused_as_non_finite(tmp_path, capsys,
                                                                            text):
    with pytest.raises(SystemExit) as exc:
        main(["--out", str(tmp_path), "sphere-check", "--f", "H", "--R", "1", "--c", text])
    assert exc.value.code == 2
    assert f"argument --c: {text!r} is not a finite number" in capsys.readouterr().err


def test_a_non_finite_float_config_value_is_refused_naming_its_key(tmp_path, capsys):
    path = tmp_path / "exp.ini"
    path.write_text(CONFIG_TEXT.replace("t_max: 0.05", "t_max: nan"))
    assert main(["--config", str(path), "--out", str(tmp_path), "flow"]) == 2
    assert "bad config value 'nan' for [flow] t_max" in capsys.readouterr().err
    assert not (tmp_path / "flow_trace.csv").exists()


@pytest.mark.parametrize("flag, value, field", [("--t-max", "-1", "t_max"),
                                                ("--r-tol", "-0.5", "r_tol"),
                                                ("--curvature-cap", "-1", "curvature_cap"),
                                                ("--min-scale-fraction", "2",
                                                 "min_scale_fraction")])
def test_flow_refuses_a_stop_criterion_outside_its_domain(tmp_path, capsys, flag, value,
                                                          field):
    assert main(["--out", str(tmp_path), "flow", "--surface", "circle 1", "--f", "H",
                 "--grid", "64", flag, value]) == 2
    assert f"StopRule {field} must" in capsys.readouterr().err
    assert not (tmp_path / "flow_trace.csv").exists()


def test_main_builds_its_parser_once_per_process(tmp_path, monkeypatch, capsys):
    cli._build_parser.cache_clear()
    built = []
    construct = argparse.ArgumentParser.__init__

    def counting_init(self, *args, **kwargs):
        built.append(kwargs.get("prog"))
        construct(self, *args, **kwargs)
    monkeypatch.setattr(argparse.ArgumentParser, "__init__", counting_init)

    flow_dir = tmp_path / "flow"
    flow_argv = ["--out", str(flow_dir), "flow", "--surface", "ellipse 2 1", "--f", "H",
                 "--rescale", "fixed-scale", "--grid", "64", "--t-max", "0.05"]
    assert main(flow_argv) == 0
    first = (capsys.readouterr().out,
             {path.name: path.read_bytes() for path in flow_dir.iterdir()})
    assert len(built) == 1 + len(cli._COMMANDS)       # the parser and its sub-commands
    built.clear()

    assert main(["--out", str(tmp_path / "sphere"), "sphere-check", "--f", "H",
                 "--R", "2", "--samples", "16"]) == 0
    with pytest.raises(SystemExit) as exc:
        main(["flow", "--grid", "many"])
    assert exc.value.code == 2
    config = tmp_path / "suite.ini"
    config.write_text("[config]\nformat_version: 1\n\n[identity-suite]\nsamples: 5\n")
    assert main(["--config", str(config), "--out", str(tmp_path / "suite"),
                 "identity-suite"]) == 0
    capsys.readouterr()
    assert main(flow_argv) == 0
    again = (capsys.readouterr().out,
             {path.name: path.read_bytes() for path in flow_dir.iterdir()})
    assert built == []
    assert again == first


def test_sweep_rejects_zero_in_range(tmp_path):
    assert main(["--out", str(tmp_path), "sweep-pinching", "--m-start", "-1",
                 "--m-stop", "1"]) == 2


def test_sweep_refuses_a_reversed_range(tmp_path, capsys):
    assert main(["--out", str(tmp_path), "sweep-pinching", "--m-start", "3",
                 "--m-stop", "2"]) == 2
    assert "m_start must not exceed m_stop" in capsys.readouterr().err


@pytest.mark.parametrize("argv, code, stream, text", [
    (["--help"], 0, "stdout", "usage: solitonlab"),
    (["sphere-check", "--f", "wobble", "--R", "1"], 2, "stderr", "error: "),
], ids=["help", "usage-error"])
def test_the_module_entry_point_exits_with_main_s_code(tmp_path, argv, code, stream, text):
    src = str(Path(cli.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([src, os.environ.get("PYTHONPATH", "")]))
    run = subprocess.run([sys.executable, "-m", "solitonlab.cli", "--out", str(tmp_path)] + argv,
                         env=env, capture_output=True, text=True)
    assert run.returncode == code
    assert text in getattr(run, stream)


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
    for key in ("tau_fit", "center", "rms_residual", "relative_residual", "max_residual",
                "admissible", "covered_by", "threshold_2iii"):
        assert key in doc
    assert doc["tau_fit"] == pytest.approx(1.0, abs=1e-6)
    assert doc["admissible"] is True
    assert doc["covered_by"] == ["2(i)", "2(iii)"]
    assert doc["threshold_2iii"] is None
    assert doc["metadata"]["classification"] == "convex"


def _grid_cases(tmp_path):
    curve = tmp_path / "curve.json"
    hypersurface.save_surface(hypersurface.ellipse(2.0, 1.0, 64), curve)
    run_flow = ["flow", "--f", "H", "--t-max", "0.001", "--surface"]
    return {
        "flow-ellipse": run_flow + ["ellipse 2 1"],
        "flow-spheroid": run_flow + ["spheroid 1 1.3"],
        "flow-profile": run_flow + [f"profile {curve}"],
    }


@pytest.mark.parametrize("case", ["flow-ellipse", "flow-spheroid", "flow-profile"])
@pytest.mark.parametrize("grid", ["-5", "0", "15"])
def test_grid_below_16_is_refused_whatever_the_surface(tmp_path, capsys, case, grid):
    # a profile surface keeps its own grid; --grid is checked anyway
    out = tmp_path / "out"
    assert main(["--out", str(out)] + _grid_cases(tmp_path)[case] + ["--grid", grid]) == 2
    assert f"--grid {grid} is below 16" in capsys.readouterr().err
    assert not out.exists() or not any(out.iterdir())


def test_soliton_fit_reports_the_centre_of_a_moved_snapshot(tmp_path):
    docs = {}
    for name, shift in (("centred", 0.0), ("shifted", 0.3)):
        snap = tmp_path / f"{name}.json"
        profile = hypersurface.spheroid_profile(1.0, 1.3, 128).profile + np.array([shift, 0.0])
        hypersurface.save_surface(hypersurface.RevolutionProfile(profile), snap)
        assert main(["--out", str(tmp_path), "soliton-fit", "--snapshot", str(snap),
                     "--f", "H", "--json", f"{name}.fit.json"]) == 0
        docs[name] = json.loads((tmp_path / f"{name}.fit.json").read_text())
    assert docs["shifted"]["center"] == pytest.approx([0.3], abs=1e-12)
    assert abs(docs["centred"]["center"][0]) < 1e-12
    for key in ("tau_fit", "relative_residual"):
        assert docs["shifted"][key] == pytest.approx(docs["centred"][key], rel=1e-10)


@pytest.mark.parametrize("argv, message", [
    (["sphere-check", "--f", "H", "--R", "1", "--samples", "-3"], "--samples -3 is below 16"),
    (["sphere-check", "--f", "H", "--R", "1", "--samples", "5"], "--samples 5 is below 16"),
    (["sphere-check", "--f", "H", "--R", "1", "--c", "1", "--samples", "0"],
     "--samples 0 is below 16"),
], ids=["samples-negative", "samples-5", "samples-0-positive-c"])
def test_a_count_below_its_floor_is_refused_by_its_flag(tmp_path, capsys, argv, message):
    out = tmp_path / "out"
    assert main(["--out", str(out)] + argv) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert message in captured.err
    assert not any(out.iterdir())


def test_soliton_fit_has_no_classify_samples_option(tmp_path, capsys):
    # the convexity label is exact, from the family table, so no samples are drawn for it
    fit = ["soliton-fit", "--snapshot", "x.json", "--f", "H"]
    with pytest.raises(SystemExit) as exc:
        main(["--out", str(tmp_path)] + fit + ["--classify-samples", "200"])
    assert exc.value.code == 2
    assert "unrecognized arguments: --classify-samples 200" in capsys.readouterr().err
    config = tmp_path / "fit.ini"
    config.write_text("[config]\nformat_version: 1\n\n[soliton-fit]\nclassify_samples: 200\n")
    assert main(["--config", str(config), "--out", str(tmp_path)] + fit) == 2
    assert "unknown keys in [soliton-fit]: classify_samples" in capsys.readouterr().err


@pytest.mark.parametrize("surface, labels", [
    (hypersurface.ellipse(2.0, 1.0, 64), ("convex", "concave", "convex")),
    (hypersurface.spheroid_profile(1.0, 1.3, 64), ("convex", "concave", "neither")),
], ids=["curve", "meridian"])
def test_soliton_fit_does_not_depend_on_the_seed(tmp_path, surface, labels):
    snap = tmp_path / "snap.json"
    hypersurface.save_surface(surface, snap)
    for spec, label in zip(("H", "pow(K,0.3)", "K"), labels):
        docs = []
        for seed in ("0", "7"):
            assert main(["--seed", seed, "--out", str(tmp_path), "soliton-fit",
                         "--snapshot", str(snap), "--f", spec]) == 0
            docs.append(json.loads((tmp_path / "soliton_fit.json").read_text()))
        assert [doc["metadata"].pop("seed") for doc in docs] == [0, 7]
        assert docs[0] == docs[1]
        assert docs[0]["metadata"]["classification"] == label


def test_flow_summary_prints_the_grid_of_a_profile_surface(tmp_path, capsys):
    # a profile surface keeps its own grid; --grid (256 by default) is not read
    snap = tmp_path / "curve.json"
    hypersurface.save_surface(hypersurface.ellipse(2.0, 1.0, 64), snap)
    assert main(["--out", str(tmp_path), "flow", "--surface", f"profile {snap}",
                 "--f", "H", "--t-max", "0.001"]) == 0
    assert " grid=64\n" in capsys.readouterr().out


def test_soliton_fit_has_no_grid_option(tmp_path, capsys):
    # a snapshot carries its own grid, so neither the flag nor the config key exists
    fit = ["soliton-fit", "--snapshot", "x.json", "--f", "H"]
    with pytest.raises(SystemExit) as exc:
        main(["--out", str(tmp_path)] + fit + ["--grid", "64"])
    assert exc.value.code == 2
    assert "unrecognized arguments: --grid 64" in capsys.readouterr().err
    config = tmp_path / "fit.ini"
    config.write_text("[config]\nformat_version: 1\n\n[soliton-fit]\ngrid: 64\n")
    assert main(["--config", str(config), "--out", str(tmp_path)] + fit) == 2
    assert "unknown keys in [soliton-fit]: grid" in capsys.readouterr().err


def test_a_base_point_config_key_is_refused(tmp_path, capsys):
    config = tmp_path / "fit.ini"
    config.write_text("[config]\nformat_version: 1\n\n[soliton-fit]\nbase_point: 0.3\n")
    assert main(["--config", str(config), "--out", str(tmp_path), "soliton-fit",
                 "--snapshot", "x.json", "--f", "H"]) == 2
    assert "unknown keys in [soliton-fit]: base_point" in capsys.readouterr().err


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
    with pytest.raises(cli.UsageError, match="malformed config"):
        parse_config_text("format_version: 1\n")
    with pytest.raises(cli.UsageError,
                       match=r"exactly format_version, got \['format_version', 'seed'\]"):
        parse_config_text("[config]\nformat_version: 1\nseed: 3\n")
    with pytest.raises(cli.UsageError, match="format_version"):
        parse_config_text("[flow]\nf: H\n")
    with pytest.raises(cli.UsageError, match="format_version"):
        parse_config_text("[config]\nformat_version: 9\n")
    with pytest.raises(cli.UsageError, match="unknown config section"):
        parse_config_text("[config]\nformat_version: 1\n\n[warp]\nx: 1\n")
    path = tmp_path / "bad.ini"
    path.write_text(bad_key)
    assert main(["--config", str(path), "--out", str(tmp_path), "flow"]) == 2


# ---------------------------------------------------------------------------
# the command table

def _sample_values(opt, pick):
    """A valid command-line text for an option; `pick` selects among variants."""
    if opt.choices:
        return opt.choices[pick % len(opt.choices)]
    return {int: ("7", "9"), cli._finite_float: ("1.5", "2.25"),
            str: ("alpha beta", "gamma")}[opt.type][pick]


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


def test_parse_config_reads_every_key():
    text = _config_text(list(cli._COMMANDS), 0)
    cfg = parse_config_text(text)
    assert sum(len(cfg[name]) for name in cli._COMMANDS) == sum(
        len(command.options) for command in cli._COMMANDS.values())


def test_sphere_check_refuses_a_sphere_whose_pairings_overflow(tmp_path, capsys):
    # kappa R = 600: the pairings overflowed to NaN, three RuntimeWarnings went by, and
    # the check reported a pass on points it never checked
    code = main(["--out", str(tmp_path), "sphere-check", "--f", "pow(H,-1)", "--R", "600",
                 "--c=-1"])
    assert code == 2
    assert "overflows the float range" in capsys.readouterr().err


def test_sphere_check_passes_a_tiny_hyperbolic_sphere(tmp_path, capsys):
    # rho recovered from arccosh(kappa x_0) lost its digits below kappa rho ~ 1.4e-7, and
    # the sphere was refused as sitting on the base point
    code = main(["--out", str(tmp_path), "sphere-check", "--f", "H", "--R", "1e-7", "--c=-1"])
    assert code == 0
    assert "result: pass" in capsys.readouterr().out


@pytest.mark.parametrize("argv", [
    ["--f", "pow(K,0.25)", "--n", "2", "--R", "1e-200"],
    ["--f", "pow(K,-0.25)", "--n", "2", "--R", "1e200"],
    ["--f", "pow(norm,0.5)", "--n", "3", "--R", "1e-200"],
], ids=["K-overflows", "K-underflows", "norm-squares-overflow"])
def test_sphere_check_passes_an_f_whose_direct_evaluation_leaves_the_float_range(
        tmp_path, capsys, argv):
    # F = K^(1/4) = 1e100 is in range but K = 1e400 is not: the residual read nan, and
    # the sphere was refused; F at lam / s, scaled back by s^m, is in range
    assert main(["--out", str(tmp_path), "sphere-check"] + argv) == 0
    out = capsys.readouterr().out
    assert float(re.search(r"samples = (\S+)", out).group(1)) < 1e-8
    assert "result: pass" in out


def test_sphere_check_passes_a_tiny_flat_sphere(tmp_path, capsys):
    # R = 1e-200 was refused as "point coincides with the base point", while 1e-160 passed;
    # F = -1/H = -1e-200 is a normal float (pow(H,-2) has F = -1e-400, refused below)
    code = main(["--out", str(tmp_path), "sphere-check", "--f", "pow(H,-1)", "--R", "1e-200",
                 "--n", "1"])
    assert code == 0
    assert "result: pass" in capsys.readouterr().out


def _residual(out):
    return float(re.search(r"samples = (\S+)", out).group(1))


def test_sphere_check_passes_an_f_that_underflows_with_its_relative_residual(tmp_path, capsys):
    # K = 1e-360 underflowed to 0, every F read 0, and the residual 1e-180 relative to
    # max(1, max |F|) passed whatever tau was; F at lam / s, scaled back by s^m, is 1e-180
    assert main(["--out", str(tmp_path), "sphere-check", "--f", "pow(K,0.5)", "--n", "3",
                 "--R", "1e120"]) == 0
    out = capsys.readouterr().out
    assert "max |F + tau Z| / max(max |F|, max |tau Z|) over 256 samples" in out
    assert _residual(out) < 1e-8
    assert "result: pass" in out


@pytest.mark.parametrize("argv", [
    ["--f", "pow(K,0.5)", "--n", "3", "--R", "1e120"],
    ["--f", "pow(H,-2)", "--n", "1", "--R", "1e-150"],
], ids=["K-underflows", "F-1e-300"])
def test_sphere_check_fails_a_tau_1_percent_off_where_F_is_tiny(tmp_path, capsys, monkeypatch,
                                                               argv):
    # |F| far below 1 passed against the absolute floor of max(1, max |F|) that tau Z itself
    # lies under: the residual 1e-182 and 1e-302 of a tau 1% off read "pass"
    exact = cli.soliton.sphere_tau
    monkeypatch.setattr(cli.soliton, "sphere_tau", lambda *a, **k: 1.01 * exact(*a, **k))
    assert main(["--out", str(tmp_path), "sphere-check"] + argv) == 1
    out = capsys.readouterr().out
    assert _residual(out) == pytest.approx(0.01 / 1.01, rel=1e-6)
    assert "result: FAIL" in out


def test_sphere_check_refuses_an_f_below_the_normal_floats(tmp_path, capsys):
    # F = -1/H^2 = -1e-400 reads -0.0, directly and at the scaled sphere, and passed
    code = main(["--out", str(tmp_path), "sphere-check", "--f", "pow(H,-2)", "--R", "1e-200",
                 "--n", "1"])
    assert code == 2
    assert ("F of f=pow(H,-2) at the principal curvature 1e+200 (R=1e-200, c=0) underflows "
            "below the normal floats") in capsys.readouterr().err


def test_sphere_check_passes_a_huge_flat_sphere(tmp_path, capsys):
    # rho = sqrt(<x, x>) overflowed above R ~ 1.3e154: the residual read nan, with two
    # RuntimeWarnings, and the exact sphere soliton was reported as a FAIL
    code = main(["--out", str(tmp_path), "sphere-check", "--f", "pow(H,-1)", "--n", "2",
                 "--R", "1e200"])
    assert code == 0
    assert "result: pass" in capsys.readouterr().out


def test_sphere_check_refuses_an_f_whose_base_underflows_without_a_warning(tmp_path, capsys):
    # norm = 1e-200 * sqrt(2) squares to 0, and F = norm^-2 warned "divide by zero"
    # before the refusal; the suite turns that warning into an error
    code = main(["--out", str(tmp_path), "sphere-check", "--f", "pow(norm,-2)", "--n", "2",
                 "--R", "1e200"])
    assert code == 2
    assert "F of f=pow(norm,-2) at the principal curvature 1e-200" in capsys.readouterr().err


def test_sphere_check_does_not_depend_on_the_seed(tmp_path, capsys):
    # the n = 3 sphere was drawn from --seed, and its residual read 6.2e-16 at seed 0 and
    # 4.1e-16 at seed 7
    outputs = []
    for seed in ("0", "7"):
        assert main(["--seed", seed, "--out", str(tmp_path), "sphere-check", "--f", "H",
                     "--n", "3", "--R", "0.7"]) == 0
        outputs.append(capsys.readouterr().out)
    assert outputs[0] == outputs[1]


_BUILTIN_SPECS = [(n, f.name) for n in (1, 2, 3) for f in curvfun.builtin_functions(n)]


@settings(max_examples=600, deadline=None, derandomize=True, database=None)
@given(spec=st.sampled_from(_BUILTIN_SPECS), c=st.sampled_from(["0", "-1"]),
       exponent=st.floats(-300.0, 300.0))
@example(spec=(2, "pow(H,-1)"), c="0", exponent=200.0)
@example(spec=(3, "pow(H,-1)"), c="0", exponent=160.0)
def test_sphere_check_passes_or_refuses_over_the_float_range(tmp_path_factory, spec, c,
                                                            exponent):
    # every builtin family, R log-uniform in [1e-300, 1e300]: a pass, or a refusal by
    # name, never a nan or a warning; the examples read nan at c = 0 once <x, x> overflowed
    n, name = spec
    argv = ["--out", str(tmp_path_factory.getbasetemp()), "sphere-check", "--f", name,
            "--n", str(n), "--R", repr(10.0 ** exponent), f"--c={c}", "--samples", "32"]
    out, err = io.StringIO(), io.StringIO()
    with warnings.catch_warnings(), contextlib.redirect_stdout(out), \
            contextlib.redirect_stderr(err):
        warnings.simplefilter("error")
        code = main(argv)
    assert code in (0, 2), out.getvalue() + err.getvalue()
    assert "nan" not in out.getvalue() + err.getvalue()
