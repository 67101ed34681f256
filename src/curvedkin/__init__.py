"""Convex-body geometry and integral-geometric verification on constant-
curvature surfaces (sphere, plane, hyperbolic plane)."""

from .surface import (EPS, Curvature, CurvatureMismatch, GeometryError,
                      Isometry, RandomStream, SurfacePoint,
                      base_point, disc_area, disc_perimeter, exp_at_base,
                      form_dot, gen_asin, gen_cos, gen_sin, geodesic_distance,
                      normalize_to_surface, point_polar, support_area,
                      translation_by_polar, translation_to)
from .convex import (GeodesicPolygon, area, contains_point, convex_hull,
                     euler_intersection, intersect_convex, perimeter,
                     point_body, polygons_close, regular_ngon, segment_body)
from .radii import (BodyMetrics, circumradius, inradius, metrics,
                    smallest_enclosing_disc)
from .kinematics import (KinematicEstimate, body_contains,
                         containment_criterion, find_containment,
                         kinematic_lhs, kinematic_rhs, monotonicity_probe)
from .bonnesen import (Bound, BoundName, DeficitReport, QuadraticWitness,
                       SweepRow, body_from_polar, deficit, deficit_report,
                       euclid_bonnesen_rhs, hyperbolic_bounds,
                       kappa_limit_sweep, quadratic_witness,
                       random_convex_body, sharp_bound, sphere_bounds)

__version__ = "0.1.0"
