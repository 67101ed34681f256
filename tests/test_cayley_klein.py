"""The Cayley-Klein embedding near kappa = 0 and far out on the hyperboloid.

Every check compares against a 50-digit mpmath closed form, or measures the
library's own output in 50 digits.
"""

import math

import mpmath as mp
import numpy as np
import pytest

from curvedkin.convex import area, regular_ngon
from curvedkin.radii import _disc_from_support, metrics
from curvedkin.surface import (Curvature, GeometryError, SurfacePoint,
                               exp_at_base)

mp.mp.dps = 50  # this module's closed forms; tests/exact.py has its own

SMALL_KAPPAS = [s * 10.0 ** -e for e in (2, 4, 6, 8, 10, 12) for s in (1, -1)]


def regular_ngon_exact(kappa, R, n):
    """Area and perimeter of the regular n-gon of circumradius R, kappa != 0.

    Its n center triangles have the angle 2 pi/n at the center and beta at
    each base vertex, where cot beta = gen_cos(R) tan(pi/n) (the right
    triangle's cos c = cot A cot B); the area is the angle excess over
    kappa.  Half a side is gen_asin(gen_sin(R) sin(pi/n)).
    """
    k, R = mp.mpf(kappa), mp.mpf(R)
    s = mp.sqrt(abs(k))
    if k > 0:
        C, S = mp.cos(s * R), mp.sin(s * R) / s
        half = mp.asin(s * S * mp.sin(mp.pi / n)) / s
    else:
        C, S = mp.cosh(s * R), mp.sinh(s * R) / s
        half = mp.asinh(s * S * mp.sin(mp.pi / n)) / s
    beta = mp.atan(1 / (C * mp.tan(mp.pi / n)))
    return n * (2 * mp.pi / n + 2 * beta - mp.pi) / k, 2 * n * half


def mp_distance(kappa, p, q):
    """Distance of two embedded points, from their form product in 50 digits.

    The points are taken as given, then scaled onto the quadric.
    """
    k = mp.mpf(kappa)
    p, q = [mp.mpf(x) for x in p], [mp.mpf(x) for x in q]

    def form(u, v):
        return k * (u[0] * v[0] + u[1] * v[1]) + u[2] * v[2]

    c = form(p, q) / mp.sqrt(form(p, p) * form(q, q))
    s = mp.sqrt(abs(k))
    return mp.acos(c) / s if k > 0 else mp.acosh(c) / s


def relative(x, exact):
    return float(abs(mp.mpf(x) - exact) / abs(exact))


class TestSmallKappa:
    """A square of circumradius 0.5: the flat limit keeps its digits."""

    def test_square_area_perimeter_circumradius(self):
        errs = {}
        for k in SMALL_KAPPAS:
            A, P = regular_ngon_exact(k, 0.5, 4)
            m = metrics(regular_ngon(Curvature(k), 0.5, 4))
            errs[k] = (relative(m.A, A), relative(m.P, P),
                       relative(m.R_circ, mp.mpf(0.5)))
        assert max(max(e) for e in errs.values()) <= 1e-14, errs

    @pytest.mark.parametrize("kappa", [1e-9, -1e-9])
    def test_three_point_circumcenter_equidistant(self, kappa):
        curv = Curvature(kappa)
        pts = np.array([exp_at_base(curv, r, t).coords
                        for r, t in ((0.3, 0.1), (0.7, 2.0), (0.5, 4.0))])
        center, _ = _disc_from_support(curv, pts)
        d = [mp_distance(kappa, center, p) for p in pts]
        assert float(max(d) - min(d)) <= 1e-14, d


class TestLargeHyperbolicRadius:
    """Regular hexagons on the hyperbolic plane out to radius 18."""

    def test_hexagon_area_at_radius_8(self):
        A, _ = regular_ngon_exact(-1.0, 8.0, 6)
        assert relative(area(regular_ngon(Curvature(-1.0), 8.0, 6)), A) <= 1e-14

    @pytest.mark.parametrize("r", [9.0, 12.0, 15.0, 18.0])
    def test_hexagon_builds(self, r):
        # Far out, z^2 and |xy|^2 are about 1.6e7 at r = 9 and round their
        # difference, 1, by 4e-9: the quadric test is relative to their size.
        m = metrics(regular_ngon(Curvature(-1.0), r, 6))
        A, _ = regular_ngon_exact(-1.0, r, 6)
        assert abs(m.R_circ - r) <= 1e-10 * r
        assert relative(m.A, A) <= 1e-14

    def test_quadric_tolerance_is_relative(self):
        curv = Curvature(-1.0)
        x = math.sinh(9.0)
        # z off by 1e-10 relative: within 1e-9 of the terms' size.
        SurfacePoint(np.array([x, 0.0, math.cosh(9.0) * (1.0 + 1e-10)]), curv)
        with pytest.raises(GeometryError, match="quadric"):
            SurfacePoint(np.array([x, 0.0, math.cosh(9.0) * (1.0 + 1e-8)]),
                         curv)
