"""Each benchmark check passes a correct output and fails a deliberately wrong one.

    python3 -m pytest perfbench/test_checks.py
"""

import math

import numpy as np
import pytest

import checks
import run

HEADER = "t,dt,scale,r_max,F_aniso_max,aHH_max,umb_max,tau_fit,rel_residual,measure"
ROWS = 50


def trace_text(**columns):
    """A trace CSV with the program's header; unspecified columns are ones."""
    names = HEADER.split(",")
    data = np.ones((ROWS, len(names)))
    for name, values in columns.items():
        data[:, names.index(name)] = values
    lines = [HEADER] + [",".join(f"{v:.17g}" for v in row) for row in data]
    return "\n".join(lines) + "\n"


def circle_points(radius, m=256):
    th = 2.0 * np.pi * np.arange(m) / m
    return (radius * np.column_stack([np.cos(th), np.sin(th)])).tolist()


def snapshot(stop_reason, positions=None):
    doc = {"metadata": {"stop_reason": stop_reason}}
    if positions is not None:
        doc["positions"] = positions
    return doc


# -- ellipse_round -------------------------------------------------------------

PERIMETER = checks.ellipse_perimeter(*checks.ELLIPSE_AXES)
RADIUS = PERIMETER / (2.0 * math.pi)


def ellipse_outputs(measure=PERIMETER, tau=1.0 / RADIUS ** 2, final_residual=1e-3,
                    stop="r_tol", positions=None):
    residual = np.geomspace(1e-1, final_residual, ROWS)
    trace = checks.read_trace(trace_text(measure=measure, tau_fit=tau, rel_residual=residual))
    return trace, snapshot(stop, positions or circle_points(RADIUS))


def test_ellipse_perimeter_closed_form():
    assert PERIMETER == pytest.approx(8.0 * 1.2110560275684594, rel=1e-14)   # 8 E(3/4)


def test_ellipse_correct_output_passes():
    assert checks.check_ellipse_round(*ellipse_outputs()) == []


@pytest.mark.parametrize("wrong", [
    {"measure": PERIMETER * 1.01},
    {"tau": 1.0 / (1.01 * RADIUS) ** 2},
    {"final_residual": 0.02},
    {"stop": "t_max"},
    {"positions": np.column_stack([2.0 * np.cos(np.linspace(0, 2 * np.pi, 256, endpoint=False)),
                                   np.sin(np.linspace(0, 2 * np.pi, 256, endpoint=False))]
                                  ).tolist()},
])
def test_ellipse_wrong_output_fails(wrong):
    assert checks.check_ellipse_round(*ellipse_outputs(**wrong))


def ellipse_start_outputs(measure=PERIMETER, t_end=checks.ELLIPSE_T_END + 1e-4,
                          final_residual=0.38, stop="t_max", positions=None):
    t = np.linspace(0.0, t_end, ROWS)
    residual = np.linspace(0.42, final_residual, ROWS)
    trace = checks.read_trace(trace_text(t=t, measure=measure, rel_residual=residual))
    return trace, snapshot(stop, positions or circle_points(RADIUS))


def test_ellipse_start_correct_output_passes():
    assert checks.check_ellipse_start(*ellipse_start_outputs()) == []


def test_ellipse_start_drifting_length_fails():
    measure = np.full(ROWS, PERIMETER)
    measure[ROWS // 2] *= 1.001
    assert checks.check_ellipse_start(*ellipse_start_outputs(measure=measure))


@pytest.mark.parametrize("wrong", [
    {"measure": PERIMETER * 1.01},
    {"t_end": checks.ELLIPSE_T_END * 0.9},
    {"final_residual": 0.43},
    {"stop": "r_tol"},
    {"positions": np.column_stack([2.0 * np.cos(np.linspace(0, 2 * np.pi, 256, endpoint=False)),
                                   np.sin(np.linspace(0, 2 * np.pi, 256, endpoint=False))]
                                  ).tolist()},
])
def test_ellipse_start_wrong_output_fails(wrong):
    assert checks.check_ellipse_start(*ellipse_start_outputs(**wrong))


# -- spheroid_round ------------------------------------------------------------

AREA = checks.prolate_spheroid_area(*checks.SPHEROID_AXES)


def spheroid_outputs(ahh=None, measure=AREA, stop="r_tol"):
    ahh = np.linspace(0.56, 0.501, ROWS) if ahh is None else ahh
    return checks.read_trace(trace_text(aHH_max=ahh, measure=measure)), snapshot(stop)


def test_spheroid_area_reduces_to_sphere():
    assert checks.prolate_spheroid_area(1.0, 1.0 + 1e-9) == pytest.approx(4.0 * math.pi)


def test_spheroid_correct_output_passes():
    assert checks.check_spheroid_round(*spheroid_outputs()) == []


def test_spheroid_non_monotone_column_fails():
    ahh = np.linspace(0.56, 0.501, ROWS)
    ahh[20] = ahh[18]
    assert checks.check_spheroid_round(*spheroid_outputs(ahh=ahh))


@pytest.mark.parametrize("wrong", [
    {"ahh": np.linspace(0.56, 0.51, ROWS)},
    {"measure": AREA * 1.01},
    {"stop": "t_max"},
])
def test_spheroid_wrong_output_fails(wrong):
    assert checks.check_spheroid_round(*spheroid_outputs(**wrong))


def spheroid_start_outputs(ahh=None, measure=AREA, t_end=checks.SPHEROID_T_END + 1e-6,
                           stop="t_max"):
    ahh = np.linspace(0.5329, 0.5328, ROWS) if ahh is None else ahh
    t = np.linspace(0.0, t_end, ROWS)
    return checks.read_trace(trace_text(t=t, aHH_max=ahh, measure=measure)), snapshot(stop)


def test_spheroid_start_correct_output_passes():
    assert checks.check_spheroid_start(*spheroid_start_outputs()) == []


def test_spheroid_start_non_monotone_column_fails():
    ahh = np.linspace(0.5329, 0.5328, ROWS)
    ahh[20] = ahh[18]
    assert checks.check_spheroid_start(*spheroid_start_outputs(ahh=ahh))


@pytest.mark.parametrize("wrong", [
    {"ahh": np.full(ROWS, 0.5329)},
    {"measure": AREA * 1.01},
    {"t_end": checks.SPHEROID_T_END * 0.9},
    {"stop": "r_tol"},
])
def test_spheroid_start_wrong_output_fails(wrong):
    assert checks.check_spheroid_start(*spheroid_start_outputs(**wrong))


# -- circle_shrink -------------------------------------------------------------

def circle_outputs(scale=1.0, t_end=checks.CIRCLE_T_END + 2e-5, stop="t_max"):
    t = np.linspace(0.0, t_end, ROWS)
    measure = scale * 2.0 * math.pi * np.sqrt(1.0 - 2.0 * t)
    return checks.read_trace(trace_text(t=t, measure=measure)), snapshot(stop)


def test_circle_correct_output_passes():
    assert checks.check_circle_shrink(*circle_outputs()) == []


@pytest.mark.parametrize("wrong", [{"scale": 1.01}, {"t_end": checks.CIRCLE_T_END * 0.9},
                                   {"stop": "r_tol"}])
def test_circle_wrong_output_fails(wrong):
    assert checks.check_circle_shrink(*circle_outputs(**wrong))


def test_full_circle_needs_its_own_end_time():
    end = checks.CIRCLE_FULL_T_END
    assert checks.check_circle_shrink(*circle_outputs(t_end=end + 4e-6), t_end=end) == []
    assert checks.check_circle_shrink(*circle_outputs(), t_end=end)


# -- identity_suite ------------------------------------------------------------

SUITE = ("name,residual,tolerance,pass\n"
         "H_n2_homogeneity,1.0e-16,1.0e-12,true\n"
         "pow(H,-1)_n2_homogeneity,2.0e-17,1.0e-12,true\n")


def test_identity_rows_pass():
    assert checks.check_identity_rows(SUITE) == [[], []]


def test_identity_flipped_pass_fails():
    text = SUITE.replace("1.0e-12,true\npow", "1.0e-12,false\npow")
    assert [bool(p) for p in checks.check_identity_rows(text)] == [True, False]


def test_identity_seed_dependent_rows_are_not_operations():
    text = SUITE + "sigma2_n3_hessian_fd,1.07e-06,1.0e-06,false\n"
    assert checks.check_identity_rows(text) == [[], []]


def test_identity_residual_above_tolerance_fails():
    text = SUITE.replace("2.0e-17", "2.0e-11")
    assert [bool(p) for p in checks.check_identity_rows(text)] == [False, True]


# -- counting ------------------------------------------------------------------

def test_wrong_output_counts_as_failed_and_incorrect():
    tally = run.Tally()
    tally.add_checked([[], ["radius off"], []])
    assert (tally.attempted, tally.failed, tally.wrong) == (3, 1, 1)


def test_program_error_counts_as_failed_only():
    tally = run.Tally()
    tally.add_error("exited 1")
    assert (tally.attempted, tally.failed, tally.wrong) == (1, 1, 0)
