"""solitonlab: a numerical laboratory for convex curvature flow geometry.

Curvature functions of principal curvatures with exact derivative calculus,
space-form support geometry, discrete convex hypersurfaces, the self-similar
solution equation F + tau * Z = 0, and a linearly implicit flow integrator
with pinching monitors.
"""

from .curvfun import (AnisotropyRatio, ConvexityVerdict, CurvatureFunction,
                      DegreeMismatchError, DomainError, ElementarySymmetric,
                      EuclideanNorm, GaussCurvature, GeometricMean, MeanCurvature,
                      Power, builtin_functions, convexity_classify, euler_residuals,
                      matrix_first_derivative, matrix_second_form, pair_sign_gaps,
                      parse_curvature_function)
from .flow import FlowConfig, FlowMonitors, FlowTrace, StopRule, monitors, run, step
from .hypersurface import (Ellipsoid, GeometryError, NonConvexSurfaceError, PlaneCurve,
                           RevolutionProfile, ShapeData, circle, codazzi_residual,
                           covariant_hessian, curve_geometry, ellipse,
                           ellipsoid_geometry, extract_geometry, load_surface,
                           revolution_geometry, save_surface, sphere_profile,
                           spheroid_profile, support_hessian_residual,
                           surface_from_document, surface_to_document)
from .soliton import (PinchingVerdict, SolitonReport, admissibility, fit_tau,
                      pinching_quadratics, residual_field, solve_sphere_radius,
                      sphere_tau, sweep_row, threshold_high, threshold_low)
from .spaceform import GeodesicSphereSamples, chc, cotc, sample_geodesic_sphere, shc, support_rows

__version__ = "0.1.0"
