import json
import math

import pytest

from solitonlab import cli, hypersurface
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
