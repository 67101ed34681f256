"""Tests for convex polygons: hulls, area, perimeter, intersections."""

import math
import re
import tracemalloc
from itertools import combinations
from typing import Optional

import numpy as np
import pytest

from curvedkin.bonnesen import random_convex_body
from curvedkin.convex import (GeodesicPolygon, area, contains_point,
                              convex_hull, euler_intersection,
                              intersect_convex,
                              next_rows, perimeter, point_body,
                              polygons_close, regular_ngon, segment_body,
                              triple_indices)
from curvedkin.radii import metrics
from curvedkin.surface import (EPS, Curvature, GeometryError, Isometry,
                               RandomStream, SurfacePoint, base_point,
                               disc_area, exp_at_base, motion_matrices,
                               normalize_to_surface, polar_rows,
                               translation_by_polar, translation_to)

from common import (ALL_KAPPAS, REGIME_KAPPAS, flat_point, octant_triangle,
                    unit_square)
import exact
from parent import (DegeneratePosition, MatrixValidatedPolygon,
                    ParentPolygon, _J, _canonical_rotation,
                    _segment_intersections, boundary_crossings, form_dot,
                    geodesic_distance, normals_from_parent, sample_isometry,
                    sample_positions, segment_contains_point)


def random_body(curv, rng, n_points=6, rho=0.8):
    pts = [exp_at_base(curv, float(rng.uniform(0, rho)),
                       float(rng.uniform(0, 2 * math.pi)))
           for _ in range(n_points)]
    return convex_hull(pts)


def flat_polygon(*xy):
    return GeodesicPolygon([flat_point(x, y) for x, y in xy])


def unchecked_point(coords, curv):
    """A SurfacePoint with coordinates its constructor would reject."""
    p = object.__new__(SurfacePoint)
    object.__setattr__(p, "coords", np.array(coords, dtype=float))
    object.__setattr__(p, "curvature", curv)
    return p


def raises_exactly(message):
    return pytest.raises(GeometryError, match=f"^{re.escape(message)}$")


class TestConstruction:
    def test_point_and_segment_bodies(self):
        p = exp_at_base(Curvature(-1.0), 0.5, 1.0)
        q = exp_at_base(Curvature(-1.0), 0.7, 2.0)
        assert point_body(p).dim == 0
        assert segment_body(p, q).dim == 1

    def test_pickled_copy_stays_read_only(self):
        # As the campaign sends a body file's bodies to its workers.
        import pickle

        body = random_convex_body(Curvature(1.0), RandomStream(3))
        body.edge_normals  # a cached value travels with the body
        copy = pickle.loads(pickle.dumps(body))
        assert np.array_equal(copy.vertex_array, body.vertex_array)
        assert np.array_equal(copy.edge_normals, body.edge_normals)
        assert not copy.vertex_array.flags.writeable

    def test_repeated_adjacent_vertices_rejected(self):
        p = flat_point(0.0, 0.0)
        with raises_exactly("repeated adjacent vertices 0, 1"):
            GeodesicPolygon([p, p])

    @pytest.mark.parametrize("xy, message", [
        ([(0, 0), (1, 0), (1, 0), (0, 1)], "repeated adjacent vertices 1, 2"),
        ([(0, 0), (1, 0), (0, 1), (0, 0)], "repeated adjacent vertices 3, 0"),
        ([(0, 0), (1, 0), (1, 0), (0, 1), (0, 1)],
         "repeated adjacent vertices 1, 2"),
    ])
    def test_repeated_vertex_named(self, xy, message):
        # The first repeated pair is named, from 0, wrapping at the end.
        with raises_exactly(message):
            flat_polygon(*xy)

    @pytest.mark.parametrize("xy, message", [
        ([(0, 0), (1, 0), (2, 0), (1, 1)],
         "vertex 1 is collinear with neighbours"),
        ([(0, 0), (2, 0), (2, 2), (0, 2), (0, 1)],
         "vertex 4 is collinear with neighbours"),
        ([(0, 0), (1, 0), (2, 0), (2, 1), (2, 2), (0, 2)],
         "vertex 1 is collinear with neighbours"),
    ])
    def test_collinear_vertex_named(self, xy, message):
        # The first collinear middle vertex, counted from 0 as in the
        # repeated-vertex message.
        with raises_exactly(message):
            flat_polygon(*xy)

    def test_clockwise_cycle_named(self):
        with raises_exactly("vertex cycle is not convex/counterclockwise "
                            "(worst signed distance -1)"):
            flat_polygon((0, 0), (0, 1), (1, 0))

    def test_edge_without_geodesic(self):
        # Points of the hyperboloid always span a geodesic; two spacelike
        # vertices, planted past SurfacePoint's own check, do not.
        curv = Curvature(-1.0)
        pts = [unchecked_point(c, curv)
               for c in ([1.0, 0.0, 0.0], [0.0, 1.0, 0.0], [0.0, 0.0, 1.0])]
        with raises_exactly("edge does not support a geodesic"):
            GeodesicPolygon(pts)

    @pytest.mark.parametrize("n", [2, 3])
    def test_sphere_body_off_the_hemisphere(self, n):
        # Antipodes, or three equator points summing to zero.
        c = Curvature(1.0)
        pts = [SurfacePoint(np.array([math.cos(t), math.sin(t), 0.0]), c)
               for t in 2 * math.pi * np.arange(n) / n]
        with raises_exactly("points do not fit in an open hemisphere"):
            GeodesicPolygon(pts)
        with raises_exactly("points do not fit in an open hemisphere"):
            convex_hull(pts)

    def test_nonconvex_cycle_rejected(self):
        pts = [flat_point(*xy) for xy in
               [(0, 0), (2, 0), (1, 0.2), (0, 2)]]  # reflex at (1, 0.2)
        with pytest.raises(GeometryError):
            GeodesicPolygon(pts)

    def test_clockwise_cycle_rejected(self):
        pts = [flat_point(*xy) for xy in [(0, 0), (0, 1), (1, 0)]]
        with pytest.raises(GeometryError):
            GeodesicPolygon(pts)

    def test_collinear_middle_vertex_rejected(self):
        pts = [flat_point(*xy) for xy in [(0, 0), (1, 0), (2, 0), (1, 1)]]
        with pytest.raises(GeometryError):
            GeodesicPolygon(pts)

    def test_hemisphere_violation_rejected(self):
        c = Curvature(1.0)
        pts = [SurfacePoint(np.array(v, dtype=float), c) for v in
               [(1, 0, 0), (-1, 0, 0)]]
        with pytest.raises(GeometryError):
            GeodesicPolygon(pts)

    def test_mixed_curvature_rejected(self):
        with pytest.raises(GeometryError):
            GeodesicPolygon([flat_point(0, 0),
                             exp_at_base(Curvature(1.0), 0.1, 0.0)])


class TestConvexHull:
    def test_single_point(self):
        p = flat_point(1.0, 2.0)
        assert convex_hull([p]).n_vertices == 1

    def test_unit_square_corners(self):
        hull = convex_hull([flat_point(x, y)
                            for x in (-1.0, 1.0) for y in (-1.0, 1.0)])
        assert hull.n_vertices == 4
        assert abs(area(hull) - 4.0) < 1e-12

    def test_interior_points_dropped(self):
        pts = [flat_point(x, y) for x in (-1.0, 1.0) for y in (-1.0, 1.0)]
        pts.append(flat_point(0.0, 0.0))
        assert convex_hull(pts).n_vertices == 4

    @pytest.mark.parametrize("kappa", REGIME_KAPPAS)
    def test_idempotent(self, kappa):
        curv = Curvature(kappa)
        rng = RandomStream(23)
        for _ in range(100):
            h1 = random_body(curv, rng, n_points=8)
            h2 = convex_hull(h1.vertices)
            assert polygons_close(h1, h2)

    @pytest.mark.parametrize("kappa", REGIME_KAPPAS)
    def test_vertices_are_inputs(self, kappa):
        curv = Curvature(kappa)
        rng = RandomStream(29)
        pts = [exp_at_base(curv, float(rng.uniform(0, 1.0)),
                           float(rng.uniform(0, 2 * math.pi)))
               for _ in range(10)]
        hull = convex_hull(pts)
        originals = {tuple(p.coords) for p in pts}
        for v in hull.vertices:
            assert tuple(v.coords) in originals

    def test_wide_spherical_set(self):
        # Points spanning almost a full hemisphere still hull correctly.
        c = Curvature(1.0)
        pts = [exp_at_base(c, 1.45, 2 * math.pi * i / 7) for i in range(7)]
        hull = convex_hull(pts)
        assert hull.n_vertices == 7


class TestAreaPerimeter:
    def test_unit_square(self):
        sq = unit_square()
        assert abs(area(sq) - 1.0) < 1e-12
        assert abs(perimeter(sq) - 4.0) < 1e-12

    def test_octant_triangle(self):
        tri = octant_triangle()
        assert abs(area(tri) - math.pi / 2) < 1e-12
        assert abs(perimeter(tri) - 3 * math.pi / 2) < 1e-12

    def test_octant_area_against_mc(self):
        # Monte Carlo point-in-polygon area over the sphere.
        tri = octant_triangle()
        rng = RandomStream(31).generator
        n = 10 ** 6
        v = rng.normal(size=(n, 3))
        v /= np.linalg.norm(v, axis=1, keepdims=True)
        inside = np.all(tri.signed_edge_distances(v) >= 0.0, axis=(0,))
        frac = np.count_nonzero(np.all(
            tri.signed_edge_distances(v)[:, :] >= 0, axis=0)) / n
        est = frac * 4 * math.pi
        sigma = 4 * math.pi * math.sqrt(frac * (1 - frac) / n)
        assert abs(est - math.pi / 2) < 3 * sigma

    def test_segment_perimeter_doubles(self):
        for kappa in REGIME_KAPPAS:
            c = Curvature(kappa)
            a = exp_at_base(c, 0.0, 0.0)
            b = exp_at_base(c, 0.8, 0.0)
            seg = segment_body(a, b)
            assert area(seg) == 0.0
            assert abs(perimeter(seg) - 1.6) < 1e-12

    def test_point_body_zero(self):
        p = point_body(flat_point(3.0, 4.0))
        assert area(p) == 0.0 and perimeter(p) == 0.0

    @pytest.mark.parametrize("kappa", [1.0, -1.0])
    def test_small_body_area_matches_flat(self, kappa):
        # Angle formula agrees with the flat shoelace in the small limit, up
        # to the genuine O(kappa r^2) curvature correction.
        c = Curvature(kappa)
        r = 0.01
        tri = convex_hull([exp_at_base(c, r, th) for th in (0.0, 2.1, 4.2)])
        flat_tri = convex_hull([
            flat_point(*exp_at_base(Curvature(0.0), r, th).coords[:2])
            for th in (0.0, 2.1, 4.2)])
        rel = abs(area(tri) - area(flat_tri)) / area(flat_tri)
        assert rel < 5.0 * abs(kappa) * r * r

    @pytest.mark.parametrize("kappa", REGIME_KAPPAS)
    def test_ngon_area_converges_quadratically(self, kappa):
        c = Curvature(kappa)
        errs = [abs(area(regular_ngon(c, 0.8, n)) - disc_area(c, 0.8))
                for n in (32, 64)]
        ratio = errs[0] / errs[1]
        assert 0.8 * 4 <= ratio <= 1.2 * 4

    def test_spherical_perimeter_bound(self):
        c = Curvature(2.0)
        rng = RandomStream(37)
        bound = 2 * math.pi / c.scale
        for _ in range(50):
            body = random_body(c, rng, rho=0.9 * c.hemisphere_limit)
            assert perimeter(body) <= bound + 1e-9

    @pytest.mark.parametrize("kappa", REGIME_KAPPAS)
    def test_area_nonnegative_random(self, kappa):
        rng = RandomStream(41)
        for _ in range(100):
            assert area(random_body(Curvature(kappa), rng)) >= 0.0


class TestContainsPoint:
    def test_vertices_contained(self):
        sq = unit_square()
        for v in sq.vertices:
            assert contains_point(sq, v)

    def test_inside_outside(self):
        sq = unit_square()
        assert contains_point(sq, flat_point(0.5, 0.5))
        assert not contains_point(sq, flat_point(3.0, 0.0))

    @pytest.mark.parametrize("kappa", REGIME_KAPPAS)
    def test_agreement_with_angle_sum_oracle(self, kappa):
        # Interior points subtend total angle 2 pi over the vertex cycle.
        c = Curvature(kappa)
        rng = RandomStream(43)
        body = random_body(c, rng, n_points=8)
        hits = misses = 0
        for _ in range(2000):
            p = exp_at_base(c, float(rng.uniform(0, 1.0)),
                            float(rng.uniform(0, 2 * math.pi)))
            claimed = contains_point(body, p)
            xy = np.array([v.coords[:2] / v.coords[2] for v in body.vertices])
            pt = p.coords[:2] / p.coords[2]
            vecs = xy - pt
            angs = np.arctan2(vecs[:, 1], vecs[:, 0])
            d = np.diff(np.concatenate([angs, angs[:1]]))
            d = (d + math.pi) % (2 * math.pi) - math.pi
            winding = abs(float(np.sum(d))) > math.pi
            if abs(np.min(body.signed_edge_distances(p.coords))) < 1e-6:
                continue  # boundary-grazing: oracle and test both fragile
            assert claimed == winding
            hits += claimed
            misses += not claimed
        assert hits > 100 and misses > 100

    def test_segment_betweenness(self):
        c = Curvature(-1.0)
        a, b = exp_at_base(c, 0.5, 0.0), exp_at_base(c, 0.5, math.pi)
        seg = segment_body(a, b)
        assert contains_point(seg, base_point(c))
        assert not contains_point(seg, exp_at_base(c, 0.2, math.pi / 2))


class TestIntersection:
    @pytest.mark.parametrize("kappa", REGIME_KAPPAS)
    def test_self_intersection_identity(self, kappa):
        rng = RandomStream(47)
        body = random_body(Curvature(kappa), rng)
        out = intersect_convex(body, body)
        assert out is not None and polygons_close(body, out, tol=1e-9)

    def test_disjoint_translates_empty(self):
        sq = unit_square()
        far = sq.transformed(translation_by_polar(Curvature(0.0), 10.0, 0.0))
        assert intersect_convex(sq, far) is None
        assert euler_intersection(sq, far) == 0

    def test_euler_one_on_overlap(self):
        sq = unit_square()
        shifted = sq.transformed(
            translation_by_polar(Curvature(0.0), 0.5, 0.0))
        assert euler_intersection(sq, shifted) == 1

    @pytest.mark.parametrize("kappa", REGIME_KAPPAS)
    def test_two_disc_distance_oracle(self, kappa):
        c = Curvature(kappa)
        a = regular_ngon(c, 0.3, 32)
        rng = RandomStream(53)
        for _ in range(50):
            d = float(rng.uniform(0, 1.2))
            b = a.transformed(translation_by_polar(c, d, 1.0))
            expected = d <= 2 * 0.3 * math.cos(math.pi / 32) + 1e-9
            if abs(d - 0.6) < 0.01:
                continue  # tangency band: n-gon vs disc differ here
            assert euler_intersection(a, b) == int(expected)

    @pytest.mark.parametrize("kappa", REGIME_KAPPAS)
    def test_intersection_area_against_mc(self, kappa):
        c = Curvature(kappa)
        rng = RandomStream(59)
        for _ in range(10):
            ka = random_body(c, rng)
            kb = random_body(c, rng)
            out = intersect_convex(ka, kb)
            target = area(out) if out is not None and out.dim == 2 else 0.0
            # MC over a disc covering both bodies.
            n = 20000
            r, th = sample_positions(c, 1.0, n, rng)
            from curvedkin.surface import support_area
            w = support_area(c, 1.0)
            pts = np.stack([np.cos(th), np.sin(th), np.zeros(n)], axis=1)
            emb = np.array([exp_at_base(c, float(r[i]), float(th[i])).coords
                            for i in range(0, n, 1)])
            ina = np.all(ka.signed_edge_distances(emb) >= 0, axis=0)
            inb = np.all(kb.signed_edge_distances(emb) >= 0, axis=0)
            frac = np.count_nonzero(ina & inb) / n
            sigma = w * math.sqrt(max(frac * (1 - frac), 1e-9) / n)
            assert abs(w * frac - target) < 4 * sigma + 1e-3

    def test_segment_clipped_by_polygon(self):
        sq = unit_square()
        c = Curvature(0.0)
        seg = segment_body(flat_point(-1.0, 0.5), flat_point(2.0, 0.5))
        out = intersect_convex(sq, seg)
        assert out is not None and out.dim == 1
        assert abs(perimeter(out) - 2.0) < 1e-9  # clipped to length 1

    def test_point_in_polygon_intersection(self):
        sq = unit_square()
        inside = point_body(flat_point(0.5, 0.5))
        outside = point_body(flat_point(5.0, 0.5))
        assert intersect_convex(sq, inside) is not None
        assert intersect_convex(sq, outside) is None

    @pytest.mark.parametrize("kappa", REGIME_KAPPAS)
    def test_two_points(self, kappa):
        curv = Curvature(kappa)
        p = point_body(exp_at_base(curv, 0.3, 1.0))
        assert intersect_convex(p, p) is p
        q = point_body(exp_at_base(curv, 0.3 + 1e-3, 1.0))
        assert intersect_convex(p, q) is None

    @pytest.mark.parametrize("kappa", REGIME_KAPPAS)
    def test_points_meet_only_where_they_coincide(self, kappa):
        # No band: points 5e-10 apart do not meet and a point and a copy of
        # it built apart do, with the same verdicts under (x, y, z; kappa)
        # -> (lx, ly, z; kappa / l^2) for l = 2^k, which is exact in floats.
        for k in (0, -20, -10, 10, 20):
            lam = 2.0 ** k
            curv = Curvature(kappa / lam ** 2)

            def point(r):
                row = exp_at_base(Curvature(kappa), r, 1.0).coords
                return SurfacePoint(row * np.array([lam, lam, 1.0]), curv)
            p, same, near = point(0.3), point(0.3), point(0.3 + 5e-10)
            assert same is not p and np.array_equal(same.coords, p.coords)
            assert intersect_convex(point_body(p), point_body(same))
            assert euler_intersection(point_body(p), point_body(same)) == 1
            assert contains_point(point_body(p), same)
            assert intersect_convex(point_body(p), point_body(near)) is None
            assert euler_intersection(point_body(p), point_body(near)) == 0
            assert not contains_point(point_body(p), near)


class TestBoundaryCrossings:
    def test_disjoint_zero(self):
        sq = unit_square()
        far = sq.transformed(translation_by_polar(Curvature(0.0), 10.0, 0.0))
        assert boundary_crossings(sq, far) == 0

    def test_nested_zero(self):
        outer = convex_hull([flat_point(x, y)
                             for x in (-2.0, 2.0) for y in (-2.0, 2.0)])
        inner = convex_hull([flat_point(x, y)
                             for x in (-1.0, 1.0) for y in (-1.0, 1.0)])
        assert boundary_crossings(outer, inner) == 0

    def test_offset_squares_even_and_positive(self):
        sq = unit_square()
        shifted = sq.transformed(
            translation_by_polar(Curvature(0.0), 0.5, 0.7))
        n = boundary_crossings(sq, shifted)
        assert n >= 2 and n % 2 == 0

    def test_shared_edge_flagged(self):
        sq = unit_square()
        mirrored = convex_hull([flat_point(x, y)
                                for x in (0.0, -1.0) for y in (0.0, 1.0)])
        with pytest.raises(DegeneratePosition):
            boundary_crossings(sq, mirrored)

    @pytest.mark.parametrize("kappa", REGIME_KAPPAS)
    def test_random_counts_even(self, kappa):
        c = Curvature(kappa)
        rng = RandomStream(61)
        for _ in range(100):
            ka = random_body(c, rng)
            kb = random_body(c, rng)
            try:
                n = boundary_crossings(ka, kb)
            except DegeneratePosition:
                continue
            assert n % 2 == 0


# The per-pair boundary-crossing loop as it was before it called the shared
# arc-crossing kernel; kept verbatim as a differential oracle.

def _old_arc_coefficients(p, q, d):
    """Solve d = alpha p + beta q in the plane span(p, q) (least squares)."""
    g11, g12, g22 = p @ p, p @ q, q @ q
    b1, b2 = p @ d, q @ d
    det = g11 * g22 - g12 * g12
    alpha = (b1 * g22 - b2 * g12) / det
    beta = (b2 * g11 - b1 * g12) / det
    return float(alpha), float(beta)


def _old_arcs_overlap(p, q, a, b):
    for u in (a, b, 0.5 * (a + b)):
        al, be = _old_arc_coefficients(p, q, u)
        if al > 1e-9 and be > 1e-9:
            return True
    for u in (p, q, 0.5 * (p + q)):
        al, be = _old_arc_coefficients(a, b, u)
        if al > 1e-9 and be > 1e-9:
            return True
    return False


def old_segment_intersections(K, L, tol):
    curv = K.curvature
    out = []
    va, vb = K.vertex_array, L.vertex_array
    for i, j in K.edges:
        p = va[i] / np.linalg.norm(va[i])
        q = va[j] / np.linalg.norm(va[j])
        nk = np.cross(p, q)
        for a_i, b_i in L.edges:
            a = vb[a_i] / np.linalg.norm(vb[a_i])
            b = vb[b_i] / np.linalg.norm(vb[b_i])
            nl = np.cross(a, b)
            d = np.cross(nk, nl)
            nd = np.linalg.norm(d)
            if nd < 1e-12 * np.linalg.norm(nk) * np.linalg.norm(nl):
                # Parallel supporting geodesics; overlap is degenerate.
                if (abs(nl @ p) < tol and abs(nl @ q) < tol
                        and _old_arcs_overlap(p, q, a, b)):
                    raise DegeneratePosition(
                        "edges share a supporting geodesic segment")
                continue
            d = d / nd
            alpha, beta = _old_arc_coefficients(p, q, d)
            gamma, delta = _old_arc_coefficients(a, b, d)
            vals = np.array([alpha, beta, gamma, delta])
            if np.all(vals > 1e-12) or np.all(vals < -1e-12):
                sgn = 1.0 if vals[0] > 0 else -1.0
                out.append(normalize_to_surface(curv, sgn * d))
    return out


def same_crossings(K, L) -> str:
    """Assert the kernel and the oracle agree; name the outcome."""
    scale = float(max(np.max(np.abs(K.vertex_array)),
                      np.max(np.abs(L.vertex_array)))) + 1.0
    tol = EPS * scale
    try:
        old = old_segment_intersections(K, L, tol)
    except DegeneratePosition:
        with pytest.raises(DegeneratePosition):
            _segment_intersections(K, L, tol)
        with pytest.raises(DegeneratePosition):
            boundary_crossings(K, L)
        return "degenerate"
    new = _segment_intersections(K, L, tol)
    assert len(new) == len(old) == boundary_crossings(K, L)
    for x, y in zip(new, old):
        assert np.max(np.abs(x - y)) <= 1e-12
    return "crossing" if old else "none"


def random_segment(curv, rng, rho=0.8):
    a, b = (exp_at_base(curv, float(rng.uniform(0, rho)),
                        float(rng.uniform(0, 2 * math.pi))) for _ in range(2))
    return segment_body(a, b)


def half_turn_about(p: SurfacePoint):
    t = translation_to(p)
    spin = Isometry(motion_matrices(p.curvature, 0.0, 0.0, math.pi)[0],
                    p.curvature)
    return t @ spin @ t.inverse()


class TestCrossingOracle:
    @pytest.mark.parametrize("kappa", REGIME_KAPPAS)
    def test_point_bodies_cross_nothing(self, kappa):
        curv = Curvature(kappa)
        rng = RandomStream(79)
        K = random_body(curv, rng)
        dot = point_body(exp_at_base(curv, 0.1, 0.2))
        for A, B in ((K, dot), (dot, K), (dot, dot)):
            assert same_crossings(A, B) == "none"

    @pytest.mark.parametrize("kappa", REGIME_KAPPAS)
    def test_random_pairs(self, kappa):
        curv = Curvature(kappa)
        rng = RandomStream(83)
        seen = set()
        for i in range(400):
            K = random_body(curv, rng) if i % 4 else random_segment(curv, rng)
            L = random_body(curv, rng) if i % 3 else random_segment(curv, rng)
            seen.add(same_crossings(K, L))
        assert {"crossing", "none"} <= seen

    @pytest.mark.parametrize("kappa", REGIME_KAPPAS)
    @pytest.mark.parametrize("size", [1e-6, 1e-7])
    def test_tiny_bodies(self, kappa, size):
        # Arcs this short have plane normals of length ~size, so a
        # threshold on coefficients of their raw cross product misses
        # these crossings.
        curv = Curvature(kappa)
        sq = regular_ngon(curv, size, 4)
        moved = sq.transformed(translation_by_polar(curv, size, 0.3))
        cross = [segment_body(exp_at_base(curv, size, t),
                              exp_at_base(curv, size, t + math.pi))
                 for t in (0.0, math.pi / 2)]
        for K, L in ((sq, moved), cross):
            assert same_crossings(K, L) == "crossing"
        assert boundary_crossings(sq, moved) == 2
        assert boundary_crossings(*cross) == 1

    @pytest.mark.parametrize("kappa", REGIME_KAPPAS)
    def test_shared_edge_pairs(self, kappa):
        # A half-turn about a point of an edge maps that edge onto its own
        # geodesic, reversed: about the midpoint exactly onto itself,
        # elsewhere onto an overlapping shifted copy.
        curv = Curvature(kappa)
        rng = RandomStream(89)
        outcomes = []
        for _ in range(30):
            K = random_body(curv, rng)
            i, j = K.edges[int(rng.uniform(0, len(K.edges)))]
            for t in (0.5, 0.3, 0.8):
                c = normalize_to_surface(
                    curv, (1 - t) * K.vertex_array[i] + t * K.vertex_array[j])
                L = K.transformed(half_turn_about(SurfacePoint(c, curv)))
                outcomes.append(same_crossings(K, L))
                outcomes.append(same_crossings(L, K))
        assert set(outcomes) == {"degenerate"}


def tiny_crossing_segments(curv, size):
    return [segment_body(exp_at_base(curv, size, t),
                         exp_at_base(curv, size, t + math.pi))
            for t in (0.0, math.pi / 2)]


class TestHalfSpaces:
    """One clip loop on Lambda-unit half-spaces decides every intersection,
    against the arc kernel, the distance-sum containment it replaced for
    segments, and exact cone signs."""

    @pytest.mark.parametrize("kappa", REGIME_KAPPAS)
    @pytest.mark.parametrize("size", [1e-6, 1e-7])
    @pytest.mark.parametrize("f", [1.5, 2.5, 10.0, 1000.0])
    def test_tiny_squares_apart(self, kappa, size, f):
        # Unnormalized edge planes have length ~size: against the absolute
        # EPS * scale tolerance they would let squares this small meet at
        # any distance.
        curv = Curvature(kappa)
        sq = regular_ngon(curv, size, 4)
        g = translation_by_polar(curv, f * size, 0.3)
        meet = exact.cones_meet(sq.vertex_array, g.matrix, sq.vertex_array)
        assert meet == (f < 2.0)
        assert euler_intersection(sq, sq.transformed(g)) == int(meet)

    @pytest.mark.parametrize("kappa", REGIME_KAPPAS)
    def test_segment_pairs_match_arc_oracle(self, kappa):
        curv = Curvature(kappa)
        rng = RandomStream(97)
        pairs = [(random_segment(curv, rng), random_segment(curv, rng))
                 for _ in range(400)]
        pairs += [tiny_crossing_segments(curv, s) for s in (1e-6, 1e-7)]
        crossed = 0
        for K, L in pairs:
            scale = float(max(np.max(np.abs(K.vertex_array)),
                              np.max(np.abs(L.vertex_array)))) + 1.0
            hits = _segment_intersections(K, L, EPS * scale)
            for A, B in ((K, L), (L, K)):
                out = intersect_convex(A, B)
                if not hits:
                    assert out is None
                    continue
                assert out.n_vertices == 1
                assert np.max(np.abs(out.vertex_array[0] - hits[0])) <= 1e-12
            crossed += bool(hits)
        assert 50 < crossed < len(pairs) - 50

    @pytest.mark.parametrize("kappa", REGIME_KAPPAS)
    def test_collinear_overlaps(self, kappa):
        # A half-turn about a point c of K maps K onto its own geodesic,
        # reversed: the overlap runs from K's near end to that end's image.
        curv = Curvature(kappa)
        rng = RandomStream(101)
        for _ in range(30):
            K = random_segment(curv, rng)
            a, b = K.vertices
            for t in (0.3, 0.5, 0.8):
                c = normalize_to_surface(curv, (1 - t) * a.coords + t * b.coords)
                L = K.transformed(half_turn_about(SurfacePoint(c, curv)))
                ha, hb = L.vertices
                want = (segment_body(a, ha) if t < 0.5 else K if t == 0.5
                        else segment_body(hb, b))
                for A, B in ((K, L), (L, K)):
                    assert polygons_close(intersect_convex(A, B), want,
                                          tol=1e-12)

    @pytest.mark.parametrize("kappa", REGIME_KAPPAS)
    def test_segment_containment_matches_distance_sum(self, kappa):
        # In the base frame the segment runs along direction theta, from
        # +r1 to -r2; a point is placed at signed foot position u and
        # offset h across the line, then everything is moved by g.
        curv = Curvature(kappa)
        rng = RandomStream(103)
        checked = inside = 0
        for _ in range(60):
            r1, r2 = (float(x) for x in rng.uniform(0.05, 0.6, 2))
            th = float(rng.uniform(0, 2 * math.pi))
            g = sample_isometry(curv, 0.5, rng)
            S = segment_body(exp_at_base(curv, r1, th),
                             exp_at_base(curv, r2, th + math.pi)
                             ).transformed(g)
            tol = EPS * (float(np.max(np.abs(S.vertex_array))) + 1.0)
            # The sum of distances grows with the square of the offset, so
            # it accepts points up to about sqrt(tol * length) off the line.
            reach = math.sqrt(tol * (r1 + r2))
            for _ in range(30):
                u = float(rng.uniform(-r2 - 0.3, r1 + 0.3))
                h = (0.0 if rng.uniform() < 0.5 else
                     math.copysign(10 ** float(rng.uniform(-8, -1)),
                                   float(rng.uniform(-1, 1))))
                if min(abs(u - r1), abs(u + r2)) < 1e-6 or 0 < abs(h) < reach:
                    continue
                foot = translation_by_polar(curv, abs(u),
                                            th if u >= 0 else th + math.pi)
                p = g.apply(foot.apply(exp_at_base(curv, abs(h),
                                                   th + math.pi / 2)))
                claimed = contains_point(S, p)
                assert claimed == segment_contains_point(S, p)
                assert claimed == (h == 0.0 and -r2 <= u <= r1)
                checked += 1
                inside += claimed
        assert inside > 200 and checked - inside > 200

    @pytest.mark.parametrize("kappa", REGIME_KAPPAS)
    def test_segment_containment_is_a_distance(self, kappa):
        # 1e-6 off the midpoint of a unit segment the sum of distances
        # exceeds the segment's length by ~2e-12, inside EPS * scale.
        curv = Curvature(kappa)
        S = segment_body(exp_at_base(curv, 0.5, 0.0),
                         exp_at_base(curv, 0.5, math.pi))
        for h, inside in ((1e-10, True), (1e-6, False), (1e-4, False)):
            p = exp_at_base(curv, h, math.pi / 2)
            assert contains_point(S, p) == inside
            assert segment_contains_point(S, p) == (h < 1e-4)


class TestInclusionExclusion:
    @pytest.mark.parametrize("kappa", REGIME_KAPPAS)
    def test_chi_union_identity_on_overlapping_pairs(self, kappa):
        # chi_{K u L} + chi_{K n L} = chi_K + chi_L, with chi_{K u L} = 1
        # whenever the convex bodies overlap.
        c = Curvature(kappa)
        rng = RandomStream(67)
        checked = 0
        for _ in range(200):
            ka = random_body(c, rng)
            kb = random_body(c, rng)
            inter = euler_intersection(ka, kb)
            if inter == 1:
                assert 1 + inter == 1 + 1
                checked += 1
        assert checked > 20


class TestIsometryInvariance:
    @pytest.mark.parametrize("kappa", REGIME_KAPPAS)
    def test_area_perimeter_invariant(self, kappa):
        c = Curvature(kappa)
        rng = RandomStream(71)
        body = random_body(c, rng)
        for _ in range(20):
            g = sample_isometry(c, 1.5, rng)
            moved = body.transformed(g)
            assert abs(area(moved) - area(body)) < 1e-8
            assert abs(perimeter(moved) - perimeter(body)) < 1e-8


# ---------------------------------------------------------------------------
# The per-vertex loops that the array kernels replaced, kept verbatim (bar
# self -> K) as differential oracles.
# ---------------------------------------------------------------------------

def old_edge_normals(K):
    k = K.curvature.kappa
    va = K.vertex_array
    normals = []
    for i, j in K.edges:
        nu = np.cross(va[i], va[j])
        if k < 0:
            norm2 = nu[0] ** 2 + nu[1] ** 2 - nu[2] ** 2
            if norm2 <= 0:
                raise GeometryError("edge does not support a geodesic")
            normals.append(nu * _J
                           / math.sqrt(norm2))
        elif k > 0:
            normals.append(nu / np.linalg.norm(nu))
        else:
            normals.append(nu / math.hypot(nu[0], nu[1]))
    return np.array(normals)


def old_perimeter(K):
    """Boundary length; twice the length for a segment body, 0 for a point."""
    n = K.n_vertices
    if n == 1:
        return 0.0
    if n == 2:
        return 2.0 * geodesic_distance(K.vertices[0], K.vertices[1])
    return sum(geodesic_distance(K.vertices[i], K.vertices[j])
               for i, j in K.edges)


def _old_interior_angle(curv, a, b, c):
    """Angle at b between the geodesics toward a and c (form metric)."""
    bb = form_dot(curv, b, b)
    u = a - (form_dot(curv, a, b) / bb) * b
    v = c - (form_dot(curv, c, b) / bb) * b
    uu = form_dot(curv, u, u)
    vv = form_dot(curv, v, v)
    cosang = form_dot(curv, u, v) / math.sqrt(uu * vv)
    return math.acos(min(1.0, max(-1.0, float(cosang))))


def old_area(K):
    """Area via the shoelace formula (flat) or angle excess over kappa."""
    if K.dim < 2:
        return 0.0
    va = K.vertex_array
    n = K.n_vertices
    k = K.curvature.kappa
    if k == 0.0:
        x, y = va[:, 0], va[:, 1]
        return 0.5 * float(np.sum(x * np.roll(y, -1) - np.roll(x, -1) * y))
    total = sum(_old_interior_angle(K.curvature, va[i - 1], va[i],
                                    va[(i + 1) % n])
                for i in range(n))
    return (total - (n - 2) * math.pi) / k


# The chart hull and the hemisphere search that the edge-plane hull and
# construction's hemisphere test replaced, kept verbatim.

def hemisphere_direction(curvature: Curvature,
                         coords: np.ndarray) -> np.ndarray:
    """A unit direction u with <u, v> > 0 for every point, or raise.

    The direction maximizing the worst margin over unit points is supported
    by at most three of them: it is a point itself, the bisector of a pair,
    or the circumcenter direction of a triple.  Enumerating those candidates
    makes the search exact at polygon sizes.
    """
    coords = np.atleast_2d(coords)
    scale = np.max(np.linalg.norm(coords, axis=1))
    unit = coords / np.linalg.norm(coords, axis=1, keepdims=True)
    n = len(unit)

    def best_of(candidates: np.ndarray):
        norms = np.linalg.norm(candidates, axis=1)
        ok = norms > EPS
        if not np.any(ok):
            return None, 0.0
        cand = candidates[ok] / norms[ok, None]
        margins = np.min(coords @ cand.T, axis=0)
        i = int(np.argmax(margins))
        return cand[i], float(margins[i])

    # Cheap first pass: mean, the points, pair bisectors.
    ii, jj = np.triu_indices(n, 1)
    best, best_margin = best_of(np.concatenate(
        [unit.sum(axis=0, keepdims=True), unit, unit[ii] + unit[jj]]))
    if best is not None and best_margin > EPS * scale:
        return best
    # Exact pass: circumcenter directions of triples, both signs.
    ii, jj, kk = triple_indices(n)
    tri = np.cross(unit[ii] - unit[jj], unit[jj] - unit[kk])
    cand, margin = best_of(np.concatenate([tri, -tri]))
    if cand is not None and margin > best_margin:
        best, best_margin = cand, margin
    if best is None or best_margin <= EPS * scale:
        raise GeometryError("points do not fit in an open hemisphere")
    return best


def _chart(curvature: Curvature, coords: np.ndarray,
           u: Optional[np.ndarray] = None) -> np.ndarray:
    """Project to a chart where geodesics are straight lines.

    Gnomonic for the sphere (about the hemisphere direction u), Klein for
    the hyperbolic plane, identity for the flat plane.
    """
    k = curvature.kappa
    coords = np.atleast_2d(coords)
    if k == 0.0:
        return coords[:, :2].copy()
    if k < 0:
        return coords[:, :2] / coords[:, 2:3]
    if u is None:
        u = hemisphere_direction(curvature, coords)
    # Right-handed basis (e1, e2, u) so chart orientation matches det sign.
    a = np.array([1.0, 0.0, 0.0])
    if abs(u @ a) > 0.9:
        a = np.array([0.0, 1.0, 0.0])
    e1 = a - (a @ u) * u
    e1 /= np.linalg.norm(e1)
    e2 = np.cross(u, e1)
    denom = coords @ u
    return np.stack([coords @ e1 / denom, coords @ e2 / denom], axis=1)


def _hull_indices(xy: np.ndarray) -> list[int]:
    """Andrew monotone chain; returns CCW indices, strict turns only."""
    n = len(xy)
    scale = max(1.0, float(np.max(np.abs(xy))))
    tol = 1e-12 * scale * scale
    order = sorted(range(n), key=lambda i: (xy[i, 0], xy[i, 1]))

    def cross(o, a, b):
        return ((xy[a, 0] - xy[o, 0]) * (xy[b, 1] - xy[o, 1])
                - (xy[a, 1] - xy[o, 1]) * (xy[b, 0] - xy[o, 0]))

    def build(seq):
        h: list[int] = []
        for i in seq:
            while len(h) >= 2 and cross(h[-2], h[-1], i) <= tol:
                h.pop()
            h.append(i)
        return h

    lower = build(order)
    upper = build(reversed(order))
    hull = lower[:-1] + upper[:-1]
    if len(hull) == 0:
        hull = [order[0]]
    return hull


def old_convex_hull(points):
    """Minimal convex polygon containing the points; vertices are inputs."""
    pts = list(points)
    if not pts:
        raise GeometryError("empty point set")
    curv = pts[0].curvature
    for p in pts:
        curv.require_same(p.curvature)
    coords = np.array([p.coords for p in pts])
    scale = float(np.max(np.abs(coords))) + 1.0
    # Drop duplicates, keeping first occurrences.
    keep = []
    for i in range(len(pts)):
        if all(np.max(np.abs(coords[i] - coords[j])) > EPS * scale
               for j in keep):
            keep.append(i)
    if len(keep) == 1:
        return GeodesicPolygon([pts[keep[0]]], curv)
    u = hemisphere_direction(curv, coords) if curv.kappa > 0 else None
    xy = _chart(curv, coords[keep], u)
    hull = _hull_indices(xy)
    chosen = _canonical_rotation([pts[keep[i]] for i in hull])
    return GeodesicPolygon(chosen, curv)


def chart_convex_hull(points):
    """convex_hull before the edge-plane hull: the same duplicate mask, then
    the hemisphere search, the chart and the monotone chain."""
    pts = list(points)
    if not pts:
        raise GeometryError("empty point set")
    curv = pts[0].curvature
    for p in pts:
        curv.require_same(p.curvature)
    coords = np.array([p.coords for p in pts])
    # Drop points within tolerance of an earlier one.
    tol = EPS * (float(np.max(np.abs(coords))) + 1.0)
    near = np.max(np.abs(coords[:, None] - coords[None]), axis=2) <= tol
    keep = np.flatnonzero(~np.tril(near, -1).any(axis=1))
    if len(keep) == 1:
        return GeodesicPolygon([pts[keep[0]]], curv)
    u = hemisphere_direction(curv, coords) if curv.kappa > 0 else None
    xy = _chart(curv, coords[keep], u)
    hull = _hull_indices(xy)
    chosen = _canonical_rotation([pts[keep[i]] for i in hull])
    return GeodesicPolygon(chosen, curv)


def old_triples(n):
    """hemisphere_direction's exact-pass triple loop."""
    return [(i, j, k) for i in range(n) for j in range(i + 1, n)
            for k in range(j + 1, n)]


def body_limit(curv):
    if curv.kappa > 0:
        return 0.9 * curv.hemisphere_limit
    return 2.0 / max(1.0, curv.scale)


def random_point_set(curv, rng):
    """1 to 12 points in a random disc; a fifth get planted duplicates.

    Duplicates are exact copies, or points 1e-11 rad round the circle,
    which the hull's 1e-9 coordinate tolerance merges.
    """
    m = int(rng.generator.choice([1, 2] + list(range(3, 13))))
    rho = float(rng.uniform(0.05, body_limit(curv)))
    polar = [(float(rng.uniform(0.0, rho)), float(rng.uniform(0, 2 * math.pi)))
             for _ in range(m)]
    if rng.uniform() < 0.2:
        for _ in range(int(rng.integers(1, 4))):
            r, t = polar[int(rng.integers(m))]
            polar.insert(int(rng.integers(len(polar) + 1)),
                         (r, t + float(rng.generator.choice([0.0, 1e-11]))))
    return [exp_at_base(curv, r, t) for r, t in polar]


def same_hull(pts, oracle=old_convex_hull):
    """The hull, after asserting it is the old hull, or raises as it did."""
    try:
        old = oracle(pts)
    except GeometryError as e:
        with raises_exactly(str(e)):
            convex_hull(pts)
        return None
    new = convex_hull(pts)
    assert np.array_equal(new.vertex_array, old.vertex_array)
    return new


class Replaced:
    """Values of the new formulas, the scalar loops' and 60-digit ones.

    Edge normals, area and perimeter are new formulas, so their bits may
    move; collected over a test's bodies, they may not lose accuracy
    against mpmath (see exact.no_worse).
    """

    def __init__(self):
        self.columns = {name: ([], [], [], []) for name in
                        ("normal", "area", "perimeter")}

    def add(self, name, new, old, ref, unit):
        for column, values in zip(self.columns[name], (new, old, ref, unit)):
            column.extend(values)

    def check(self, K):
        curv, kappa = K.curvature, K.curvature.kappa
        va, P = K.vertex_array, ParentPolygon(K)
        if K.dim > 0:
            new, old = K.edge_normals, normals_from_parent(
                curv, old_edge_normals(P))
            for row, (i, j) in enumerate(K.edges):
                if not np.array_equal(new[row], old[row]):
                    # A short edge's cross product carries the rounding of
                    # its endpoints, scaled up by |p| |q| / |p x q|, and the
                    # normalization the ratio of its terms' size to 1.
                    nu = np.cross(va[i], va[j])
                    cond = (np.linalg.norm(va[i]) * np.linalg.norm(va[j])
                            / np.linalg.norm(nu))
                    cond += ((nu * nu) @ [1.0, 1.0, abs(kappa)]
                             / ((nu * nu) @ [1.0, 1.0, kappa]))
                    unit = np.spacing(np.abs(new[row]).max()) * (1.0 + cond)
                    self.add("normal", new[row], old[row],
                             exact.unit_normal(kappa, va[i], va[j]),
                             [unit] * 3)
        if area(K) != old_area(P):
            # A thin polygon's area is a small sum of products of its
            # edges from a vertex: their size sets the rounding unit.
            edges = np.linalg.norm(va[1:] - va[0], axis=1)
            unit = np.spacing(max(area(K), float(edges[:-1] @ edges[1:])))
            self.add("area", [area(K)], [old_area(P)],
                     [exact.area(kappa, va)], [unit])
        if perimeter(K) != old_perimeter(P):
            # A sum of n distances: their rounding units, and an ulp of the
            # sum for each term and each addition.
            unit = (len(K.edges) * np.spacing(perimeter(K))
                    + sum(exact.distance_ulp(kappa, va[i], va[j])
                          for i, j in K.edges))
            self.add("perimeter", [perimeter(K)], [old_perimeter(P)],
                     [exact.perimeter(kappa, va)], [unit])

    def assert_no_worse(self):
        for name, column in self.columns.items():
            assert exact.no_worse(*column[:3], units=column[3]), name


class TestArrayKernels:
    """Construction, area and perimeter agree with the loops they replaced."""

    BODIES = 2000

    @pytest.mark.parametrize("kappa", ALL_KAPPAS)
    def test_random_bodies_match_scalar_loops(self, kappa):
        curv = Curvature(kappa)
        rng = RandomStream(151)
        dims = set()
        replaced = Replaced()
        for _ in range(self.BODIES):
            K = same_hull(random_point_set(curv, rng))
            if K is None:
                continue
            dims.add(K.dim)
            replaced.check(K)
        assert dims == {0, 1, 2}
        replaced.assert_no_worse()

    @pytest.mark.parametrize("kappa", REGIME_KAPPAS)
    def test_large_cyclic_polygons(self, kappa):
        curv = Curvature(kappa)
        replaced = Replaced()
        for n in (50, 200):
            replaced.check(regular_ngon(curv, 0.6, n, phase=0.1))
        replaced.assert_no_worse()

    @pytest.mark.parametrize("kappa", REGIME_KAPPAS)
    def test_regular_10k_gon(self, kappa):
        # Construction is O(n) in memory; the n x n table would take 3 GB.
        n, R = 10_000, 0.6
        tracemalloc.start()
        try:
            K = regular_ngon(Curvature(kappa), R, n, phase=0.1)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 16 * 2 ** 20, peak
        m = metrics(K)
        assert abs(m.R_circ - R) <= 1e-9
        # gen_tan r = gen_tan R cos(pi / n), gen_tan t = tan(sqrt(k) t) /
        # sqrt(k), t at k = 0 and tanh(sqrt(-k) t) / sqrt(-k) below.
        tan, atan = {1.0: (math.tan, math.atan), 0.0: (float, float),
                     -1.0: (math.tanh, math.atanh)}[kappa]
        assert abs(m.r_in - atan(tan(R) * math.cos(math.pi / n))) <= 1e-9

    def test_duplicate_chain_drops_every_later_point(self):
        # a, b, c 0.6 tol apart in x: b is near a and c near b only.  The
        # hull drops every point near an earlier one, so c goes with b.
        tol = EPS * 3.0
        pts = [flat_point(2.0 + 0.6 * tol * i, 0.0) for i in range(3)]
        pts += [flat_point(0.0, 0.0), flat_point(0.0, 1.0)]
        hull = convex_hull(pts)
        assert hull.n_vertices == 3
        assert pts[0] in hull.vertices

    def test_duplicate_chain_across_row_blocks(self):
        # The same chain among 600 hull vertices, with its links in
        # different blocks of the rows the duplicate test compares.
        c = Curvature(0.0)
        rows = regular_ngon(c, 1.0, 600).vertex_array
        step = np.array([1.2 * EPS, 0.0, 0.0])  # 0.6 tol, outward
        pts = np.concatenate([rows[:300], [rows[0] + step], rows[300:],
                              [rows[0] + 2.0 * step]])
        assert np.array_equal(convex_hull(pts, c).vertex_array,
                              convex_hull(rows, c).vertex_array)

    def test_triple_indices_in_loop_order(self):
        for n in range(9):
            got = list(zip(*(t.tolist() for t in triple_indices(n))))
            assert got == old_triples(n) == list(combinations(range(n), 3))

    def test_segment_and_point_edge_normals(self):
        # On the unit sphere the line form is the identity, so a segment's
        # one normal is its endpoints' cross product over its length.
        p = exp_at_base(Curvature(1.0), 0.3, 0.1)
        q = exp_at_base(Curvature(1.0), 0.5, 2.0)
        assert point_body(p).edge_normals.shape == (0, 3)
        nu = np.cross(p.coords, q.coords)
        assert np.array_equal(segment_body(p, q).edge_normals,
                              [nu / np.sqrt((nu * nu).sum())])


def chart_rows(curv: Curvature, xy) -> np.ndarray:
    """Surface rows over chart points (x, y), where geodesics are lines:
    (x, y, 1) scaled onto the surface."""
    xy = np.asarray(xy, dtype=float)
    v = np.column_stack([xy, np.ones(len(xy))])
    return v / np.sqrt(1.0 + curv.kappa * (xy * xy).sum(axis=1))[:, None]


def construction_error(cls, rows, curv) -> Optional[str]:
    try:
        cls(rows, curv)
    except GeometryError as e:
        return str(e)
    return None


def same_verdict(rows, curv) -> Optional[str]:
    """The library's construction message, None for a body, asserted equal
    to the n x n check's."""
    got = construction_error(GeodesicPolygon, rows, curv)
    assert got == construction_error(MatrixValidatedPolygon, rows, curv)
    return got


class TestBlockedValidation:
    """Construction checks the n x n table of signed edge distances a block
    of vertex columns at a time.  Verdicts and messages are the whole
    table's, on bodies, slightly concave chains and single moved vertices
    in every block."""

    NOT_CONVEX = "vertex cycle is not convex/counterclockwise"

    @pytest.mark.parametrize("kappa", ALL_KAPPAS)
    def test_random_bodies_and_images(self, kappa):
        curv = Curvature(kappa)
        rng = RandomStream(181)
        for _ in range(100):
            K = random_convex_body(curv, rng)
            image = K.transformed(sample_isometry(curv, 1.0, rng))
            for body in (K, image):
                assert same_verdict(body.vertex_array, curv) is None

    @pytest.mark.parametrize("kappa", REGIME_KAPPAS)
    @pytest.mark.parametrize("m", [50, 200, 1000])
    @pytest.mark.parametrize("turn", [-5e-10, -3e-10])
    def test_concave_chains(self, kappa, m, turn):
        # A rectangle whose top is a chain of m vertices turning right by
        # about |turn| each: every turn is above -EPS * scale, but the chain
        # sags about |turn| m^2 / 8 below its chord, and its ends lie about
        # |turn| m^2 / 2 outside each other's edges.
        curv = Curvature(kappa)
        x = np.linspace(0.5, -0.5, m)
        sag = turn * (m - 1) ** 2 / 2.0
        chain = np.column_stack([x, 0.3 + sag * (0.25 - x * x)])
        xy = np.concatenate([[(-0.5, -0.5), (0.5, -0.5)], chain])
        message = same_verdict(chart_rows(curv, xy), curv)
        assert message.startswith(self.NOT_CONVEX)

    @pytest.mark.parametrize("kappa", REGIME_KAPPAS)
    @pytest.mark.parametrize("depth", [0.0, 1e-6])
    def test_moved_vertex_in_every_block(self, kappa, depth):
        # A regular 600-gon, 109 vertex columns a block, with vertex k moved
        # to its neighbours' chord (collinear, named k) or depth inside it
        # (reflex), for k on both sides of a block edge (vertex 108's turn
        # is in column 109) and at the cycle's ends.
        curv = Curvature(kappa)
        n = 600
        t = 2.0 * math.pi * np.arange(n) / n
        xy = 0.5 * np.column_stack([np.cos(t), np.sin(t)])
        for k in (0, 1, 107, 108, 109, 300, 598, 599):
            moved = xy.copy()
            moved[k] = (1.0 - depth) * (xy[k - 1] + xy[(k + 1) % n]) / 2.0
            message = same_verdict(chart_rows(curv, moved), curv)
            if depth:
                assert message.startswith(self.NOT_CONVEX), k
            else:
                assert message == f"vertex {k} is collinear with neighbours"


def sphere_points(coords):
    return [SurfacePoint(np.asarray(v, dtype=float), Curvature(1.0))
            for v in coords]


def hard_sphere_set(rng):
    """3 to 29 points in a randomly rotated cap of radius up to 1.9.

    Caps past pi/2 give sets that fit in no open hemisphere, and sets that
    fit with little margin.
    """
    m = int(rng.integers(3, 30))
    rho = float(rng.uniform(0.05, 1.9))
    z = 1.0 - rng.uniform(0.0, 1.0 - math.cos(rho), m)
    t = rng.uniform(0.0, 2.0 * math.pi, m)
    s = np.sqrt(1.0 - z * z)
    g = sample_isometry(Curvature(1.0), 1.0, rng).matrix
    return sphere_points(np.stack([s * np.cos(t), s * np.sin(t), z], 1) @ g.T)


def normal_sum_margin(K):
    """The worst vertex margin of the unit edge normals' sum."""
    u = K.edge_normals.sum(axis=0)
    return float(np.min(K.vertex_array @ u) / np.linalg.norm(u))


def lens(length, width, lower, upper):
    """A thin spherical lens along the x0-x2 great circle.

    Its ends lie at -+length/2; vertices at arclengths lower (rising) and
    upper (falling) sit off the axis by a parabola of the given width.
    """
    def at(t, h):
        return [math.sin(t) * math.cos(h), math.sin(h),
                math.cos(t) * math.cos(h)]

    def h(t):
        return 0.5 * width * (1.0 - (2.0 * t / length) ** 2)

    return sphere_points([at(-length / 2, 0.0)]
                         + [at(t, -h(t)) for t in lower]
                         + [at(length / 2, 0.0)]
                         + [at(t, h(t)) for t in upper])


class TestEdgePlaneHull:
    """The edge-plane hull and hemisphere test against the chart code."""

    def test_hard_sphere_sets(self):
        rng = RandomStream(157)
        misfits = 0
        for _ in range(20_000):
            misfits += same_hull(hard_sphere_set(rng),
                                 oracle=chart_convex_hull) is None
        assert 500 < misfits < 5000

    @pytest.mark.parametrize("kappa", REGIME_KAPPAS)
    def test_grid_sets_with_collinear_runs(self, kappa):
        # Points on a polar grid share geodesics through the base point, so
        # later points extend earlier hull edges.  On the sphere the chart
        # hull got one of these sets wrong: gnomonic rounding made it keep
        # an inner point of a run and leave the far end outside.  There the
        # hull must contain every point.
        curv = Curvature(kappa)
        rng = RandomStream(163)
        for _ in range(1000):
            m = int(rng.integers(3, 13))
            pts = [exp_at_base(curv, 0.2 * int(rng.integers(0, 5)),
                               0.25 * math.pi * int(rng.integers(0, 8)))
                   for _ in range(m)]
            if kappa > 0:
                K = convex_hull(pts)
                assert all(contains_point(K, p) for p in pts)
            else:
                same_hull(pts)

    def test_thin_triangle_accepted(self):
        # Side 1 rad, height 1e-10: the normal sum has a margin of 1e-10,
        # the minidisc center one of cos 0.5.
        c = Curvature(1.0)
        pts = [exp_at_base(c, 0.5, 0.0), exp_at_base(c, 1e-10, math.pi / 2),
               exp_at_base(c, 0.5, math.pi)]
        K = GeodesicPolygon(pts)
        assert normal_sum_margin(K) <= EPS
        assert same_hull(pts).n_vertices == 3

    def test_long_lens_accepted(self):
        # 3.1 rad long and 1e-8 wide, six vertices a side toward opposite
        # ends: the normal sum leans off the hemisphere.
        pts = lens(3.1, 1e-8, [-0.988, -0.561, -0.444, -0.37, 0.737, 1.366],
                   [-0.13, -0.485, -0.945, -0.966, -1.215, -1.382])
        K = GeodesicPolygon(pts)
        assert normal_sum_margin(K) <= EPS
        best = np.min(K.vertex_array
                      @ hemisphere_direction(K.curvature, K.vertex_array))
        assert best > 0.02
        assert same_hull(pts) is not None

    @pytest.mark.parametrize("coords", [
        [(1, 0, 0), (-1, 0, 0), (0, 1, 0)],
        [(0, 0, 1), (0.6, 0.8, 0), (0, 0, -1)],
    ], ids=["a,-a,b", "a,b,-a"])
    def test_antipodal_vertices(self, coords):
        # The antipodal edge has a 0/0 normal.
        pts = sphere_points(coords)
        with raises_exactly("points do not fit in an open hemisphere"):
            GeodesicPolygon(pts)
        with raises_exactly("points do not fit in an open hemisphere"):
            convex_hull(pts)

    @pytest.mark.parametrize("n", [3, 8, 64])
    def test_regular_ngons_at_the_hemisphere(self, n):
        c = Curvature(1.0)
        verdicts = set()
        for delta in 10.0 ** -np.arange(3, 11):
            verts = [exp_at_base(c, math.pi / 2 - delta, 2 * math.pi * i / n)
                     for i in range(n)]
            try:
                hemisphere_direction(c, np.array([v.coords for v in verts]))
                fits = True
            except GeometryError:
                fits = False
            try:
                GeodesicPolygon(verts)
                built = True
            except GeometryError as e:
                assert str(e) == "points do not fit in an open hemisphere"
                built = False
            assert built == fits, delta
            same_hull(verts)
            verdicts.add(fits)
        assert verdicts == {True, False}

    def test_spherical_1100_gon(self):
        R = 1.2
        K = regular_ngon(Curvature(1.0), R, 1100, phase=0.1)
        assert abs(metrics(K).R_circ - R) <= 1e-9


def error_of(make) -> str:
    with pytest.raises(GeometryError) as e:
        make()
    return str(e.value)


class TestArrayHull:
    """convex_hull on a coordinate array: the hull of the same SurfacePoints,
    and every row checked as SurfacePoint checks a point, as GeodesicPolygon
    checks its rows."""

    @pytest.mark.parametrize("kappa", ALL_KAPPAS)
    def test_same_hull_as_points(self, kappa):
        c = Curvature(kappa)
        rng = RandomStream(23)
        for _ in range(50):
            n = int(rng.integers(1, 10))
            r = 0.8 * rng.uniform(0.0, 1.0, n)
            coords = polar_rows(c, r, rng.uniform(0.0, 2 * math.pi, n))
            K = convex_hull(coords, c)
            L = convex_hull([SurfacePoint(row, c) for row in coords])
            assert np.array_equal(K.vertex_array, L.vertex_array)
            assert all(v.curvature == c for v in K.vertices)

    @pytest.mark.parametrize("kappa,row", [
        (1.0, [math.nan, 0.0, 1.0]), (0.0, [0.0, math.inf, 1.0]),
        (-1.0, [0.0, 0.0, -math.inf]),
        (1.0, [0.1, 0.0, 1.1]), (0.0, [0.2, 0.1, 1.5]),
        (-1.0, [0.3, 0.0, 1.0]),
        (0.0, [0.2, 0.1, -1.0]), (-1.0, [0.0, 0.0, -1.0]),
        (-0.25, [2.0, 0.0, -math.sqrt(2.0)])])
    def test_bad_row_raises_as_a_point_does(self, kappa, row):
        c = Curvature(kappa)
        message = error_of(lambda: SurfacePoint(np.array(row), c))
        coords = np.array([exp_at_base(c, 0.3, th).coords
                           for th in (0.0, 2.0, 4.0)] + [row])
        assert error_of(lambda: convex_hull(coords, c)) == message
        assert error_of(lambda: GeodesicPolygon(coords, c)) == message

    def test_shape_and_empty(self):
        c = Curvature(0.0)
        with pytest.raises(GeometryError, match="expected"):
            convex_hull(np.zeros((2, 2)), c)
        with pytest.raises(GeometryError, match="empty point set"):
            convex_hull(np.empty((0, 3)), c)
        with pytest.raises(GeometryError, match="empty point set"):
            convex_hull([])


class TestOneArrayBody:
    """A body is one read-only array, built alike from points and from rows
    given their curvature, and moved by one stacked product that rounds as
    Isometry.apply does each vertex."""

    @pytest.mark.parametrize("kappa", ALL_KAPPAS)
    def test_points_and_rows_build_equal_bodies(self, kappa):
        c = Curvature(kappa)
        rng = RandomStream(31)
        for _ in range(50):
            n = int(rng.integers(1, 10))
            rows = convex_hull(polar_rows(
                c, 0.8 * rng.uniform(0.0, 1.0, n),
                rng.uniform(0.0, 2 * math.pi, n)), c).vertex_array.copy()
            K = GeodesicPolygon([SurfacePoint(row, c) for row in rows])
            L = GeodesicPolygon(rows, c)
            assert np.array_equal(K.vertex_array, rows)
            assert np.array_equal(L.vertex_array, rows)
            assert K.curvature == L.curvature == c
            assert K.vertices == L.vertices == tuple(
                SurfacePoint(row, c) for row in rows)

    @pytest.mark.parametrize("kappa, xyz, message", [
        (0.0, [(0, 0, 1), (1, 0, 1), (1, 0, 1), (0, 1, 1)],
         "repeated adjacent vertices 1, 2"),
        (0.0, [(0, 0, 1), (1, 0, 1), (2, 0, 1), (1, 1, 1)],
         "vertex 1 is collinear with neighbours"),
        (0.0, [(0, 0, 1), (0, 1, 1), (1, 0, 1)],
         "vertex cycle is not convex/counterclockwise "
         "(worst signed distance -1)"),
        (1.0, [(1, 0, 0), (-1, 0, 0)],
         "points do not fit in an open hemisphere"),
        (1.0, [(1, 0, 0), (1, 0, 0)], "repeated adjacent vertices 0, 1"),
    ])
    def test_points_and_rows_raise_alike(self, kappa, xyz, message):
        c = Curvature(kappa)
        rows = np.array(xyz, dtype=float)
        with raises_exactly(message):
            GeodesicPolygon([SurfacePoint(row, c) for row in rows])
        with raises_exactly(message):
            GeodesicPolygon(rows, c)

    def test_empty_and_curvatureless_input(self):
        c = Curvature(0.0)
        for empty in ([], np.empty((0, 3))):
            with raises_exactly("polygon needs at least one vertex"):
                GeodesicPolygon(empty, c)
        with raises_exactly("polygon needs at least one vertex"):
            GeodesicPolygon([])
        rows = polar_rows(c, [0.5] * 3, [0.0, 2.0, 4.0])
        for build in (GeodesicPolygon, convex_hull):
            with raises_exactly("coordinate rows need their curvature"):
                build(rows)

    def test_array_is_read_only_and_owned(self):
        c = Curvature(-1.0)
        rows = polar_rows(c, [0.5] * 3, [0.0, 2.0, 4.0])
        K = GeodesicPolygon(rows, c)
        assert not K.vertex_array.flags.writeable
        with pytest.raises(ValueError):
            K.vertex_array[0, 0] = 0.0
        before = K.vertex_array.copy()
        rows[0] = rows[1]
        assert rows.flags.writeable
        assert np.array_equal(K.vertex_array, before)

    @pytest.mark.parametrize("kappa", REGIME_KAPPAS)
    def test_transformed_is_apply_bit_for_bit(self, kappa):
        # One stacked (3, 3) @ (3, 1) product per vertex rounds as the
        # matrix-vector product of Isometry.apply; va @ M.T does not.
        c = Curvature(kappa)
        rng = RandomStream(47)
        for _ in range(300):
            K = random_convex_body(c, rng)
            g = sample_isometry(c, 2.0, rng)
            expected = np.array([g.apply(v).coords for v in K.vertices])
            assert np.array_equal(K.transformed(g).vertex_array, expected)


class TestPolarRows:
    @pytest.mark.parametrize("kappa", ALL_KAPPAS + [1e-9, -1e-9])
    def test_rows_are_exp_at_base(self, kappa):
        c = Curvature(kappa)
        rng = RandomStream(29)
        r, th = rng.uniform(0.0, 1.5, 40), rng.uniform(0.0, 2 * math.pi, 40)
        expected = [exp_at_base(c, a, b).coords
                    for a, b in zip(r.tolist(), th.tolist())]
        assert np.array_equal(polar_rows(c, r, th), np.array(expected))

    @pytest.mark.parametrize("kappa,r,theta", [
        (1.0, math.nan, 0.1), (0.0, math.inf, 0.1), (-1.0, 0.5, math.nan),
        (0.0, -0.5, 1.0), (1.0, math.pi, 0.0), (4.0, 1.6, 2.0)])
    def test_errors_as_exp_at_base(self, kappa, r, theta):
        c = Curvature(kappa)
        message = error_of(lambda: exp_at_base(c, r, theta))
        assert error_of(lambda: polar_rows(
            c, np.array([0.2, r, 0.3]), np.array([0.0, theta, 1.0]))) \
            == message


@pytest.mark.parametrize("shape", [(1, 3), (2, 3), (5, 3), (4,), (0, 3)])
def test_next_rows_is_roll(shape):
    a = np.arange(float(np.prod(shape))).reshape(shape)
    assert np.array_equal(next_rows(a), np.roll(a, -1, axis=0))
