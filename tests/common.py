"""Curvature lists and small fixed bodies shared by the module test files."""

import numpy as np

from curvedkin.convex import convex_hull
from curvedkin.surface import Curvature, SurfacePoint

REGIME_KAPPAS = [1.0, 0.0, -1.0]
ALL_KAPPAS = [2.0, 1.0, 0.25, 0.0, -0.25, -1.0, -2.0]


def flat_point(x, y):
    return SurfacePoint(np.array([x, y, 1.0]), Curvature(0.0))


def unit_square():
    return convex_hull([flat_point(x, y)
                        for x in (0.0, 1.0) for y in (0.0, 1.0)])


def octant_triangle():
    c = Curvature(1.0)
    return convex_hull([SurfacePoint(np.array(v, dtype=float), c) for v in
                        [(1, 0, 0), (0, 1, 0), (0, 0, 1)]])
