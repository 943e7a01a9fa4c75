"""Property tests: extracted curvatures and the fitted tau respect the symmetries
of the equation F + tau Z = 0.

Rigid motions and reparametrizations leave every principal curvature and tau
unchanged; a dilation by s scales the curvatures by 1/s and, since F has
degree m and Z degree 1, tau by s^-(m+1).  The examples are drawn from a fixed
seed so the suite is deterministic.
"""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from solitonlab.curvfun import GaussCurvature, MeanCurvature
from solitonlab.hypersurface import (PlaneCurve, RevolutionProfile, ellipse,
                                     spheroid_profile)
from solitonlab.soliton import fit_tau

TOL = 1e-10
M = 128
ELLIPSE = ellipse(2.0, 1.0, M)
SPHEROID = spheroid_profile(1.0, 1.3, M)

examples = settings(max_examples=8, deadline=None, derandomize=True, database=None)


def rel_err(got, want):
    return float(np.abs(np.asarray(got) - want).max() / np.abs(want).max())


def lam_and_tau(surface, f, base_point=None):
    geom = surface.geometry(base_point)
    return geom.lam, fit_tau(geom, f).tau_fit


@examples
@given(angle=st.floats(0.0, 2.0 * np.pi), shift=st.integers(0, M - 1))
def test_rotation_and_cyclic_shift_leave_lam_and_tau(angle, shift):
    c, s = np.cos(angle), np.sin(angle)
    rotated = np.roll(ELLIPSE.points @ np.array([[c, s], [-s, c]]), -shift, axis=0)
    f = MeanCurvature(1)
    lam, tau = lam_and_tau(ELLIPSE, f)
    lam_moved, tau_moved = lam_and_tau(PlaneCurve(rotated), f)
    assert rel_err(lam_moved, np.roll(lam, -shift, axis=0)) < TOL
    assert rel_err(tau_moved, tau) < TOL


@examples
@given(log_s=st.floats(-2.0, 2.0), surface_kind=st.sampled_from(["ellipse", "spheroid"]),
       f_kind=st.sampled_from(["H", "K"]))
def test_dilation_scales_lam_and_tau(log_s, surface_kind, f_kind):
    s = 10.0 ** log_s
    if surface_kind == "ellipse":
        surface, dilated = ELLIPSE, PlaneCurve(s * ELLIPSE.points)
    else:
        surface, dilated = SPHEROID, RevolutionProfile(s * SPHEROID.profile)
    f = MeanCurvature(surface.dim) if f_kind == "H" else GaussCurvature(surface.dim)
    lam, tau = lam_and_tau(surface, f)
    lam_dilated, tau_dilated = lam_and_tau(dilated, f)
    assert rel_err(lam_dilated, lam / s) < TOL
    assert rel_err(tau_dilated, tau * s ** -(f.degree + 1.0)) < TOL


@examples
@given(d=st.floats(-1.0, 1.0))
def test_axial_shift_with_moved_base_point_leaves_lam_and_tau(d):
    shifted = RevolutionProfile(SPHEROID.profile + np.array([d, 0.0]))
    f = MeanCurvature(2)
    lam, tau = lam_and_tau(SPHEROID, f)
    lam_shifted, tau_shifted = lam_and_tau(shifted, f, base_point=d)
    assert rel_err(lam_shifted, lam) < TOL
    assert rel_err(tau_shifted, tau) < TOL
