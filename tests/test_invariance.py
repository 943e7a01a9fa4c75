"""Property tests: extracted curvatures and the fitted tau respect the symmetries
of the equation F + tau Z = 0.

Rigid motions and reparametrizations leave every principal curvature, tau and
the relative residual unchanged: the fit solves for the centre, so a translation
only moves it.  A dilation by s scales the curvatures by 1/s and, since F has
degree m and Z degree 1, tau by s^-(m+1).  The examples are drawn from a fixed
seed so the suite is deterministic.
"""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from solitonlab.curvfun import GaussCurvature, MeanCurvature, Power
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


def lam_and_tau(surface, f):
    geom = surface.geometry()
    return geom.lam, fit_tau(geom, f).tau_fit


def assert_translation_invariant(surface, moved, f, shift):
    """`moved` is `surface` translated by `shift`: same lam, tau and rel_residual,
    and the centre moved by `shift`."""
    geom, geom_moved = surface.geometry(), moved.geometry()
    fit, fit_moved = fit_tau(geom, f), fit_tau(geom_moved, f)
    assert rel_err(geom_moved.lam, geom.lam) < TOL
    assert rel_err(fit_moved.tau_fit, fit.tau_fit) < TOL
    assert rel_err(fit_moved.relative_residual, fit.relative_residual) < TOL
    assert np.abs(np.subtract(fit_moved.center, fit.center) - shift).max() < TOL


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
@given(x=st.floats(-1.0, 1.0), y=st.floats(-1.0, 1.0), f_kind=st.sampled_from(["H", "K"]))
def test_translation_leaves_lam_tau_and_residual(x, y, f_kind):
    f = MeanCurvature(1) if f_kind == "H" else GaussCurvature(1)
    assert_translation_invariant(ELLIPSE, PlaneCurve(ELLIPSE.points + np.array([x, y])), f,
                                 [x, y])


@examples
@given(d=st.floats(-1.0, 1.0), f_kind=st.sampled_from(["H", "K"]))
def test_axial_shift_leaves_lam_tau_and_residual(d, f_kind):
    f = MeanCurvature(2) if f_kind == "H" else GaussCurvature(2)
    shifted = RevolutionProfile(SPHEROID.profile + np.array([d, 0.0]))
    assert_translation_invariant(SPHEROID, shifted, f, [d])


@examples
@given(x=st.floats(-1.0, 1.0), y=st.floats(-1.0, 1.0))
def test_translated_affine_soliton_recovers_tau_and_centre(x, y):
    # the 2:1 ellipse solves k^(1/3) + tau Z = 0 about its centre with tau = 2^(-2/3)
    curve = PlaneCurve(ellipse(2.0, 1.0, 256).points + np.array([x, y]))
    fit = fit_tau(curve.geometry(), Power(MeanCurvature(1), 1.0 / 3.0))
    assert fit.relative_residual < 1e-6
    assert abs(fit.tau_fit - 2.0 ** (-2.0 / 3.0)) < 1e-6
    assert np.abs(np.subtract(fit.center, [x, y])).max() < 1e-6
