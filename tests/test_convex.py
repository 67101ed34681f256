"""Tests for convex polygons: hulls, area, perimeter, intersections."""

import math
import re
from itertools import combinations

import numpy as np
import pytest

from curvedkin.convex import (DegeneratePosition, GeodesicPolygon,
                              _canonical_rotation, _chart, _hull_indices,
                              _segment_intersections, area,
                              boundary_crossings, contains_point, convex_hull,
                              euler_intersection, hemisphere_direction,
                              intersect_convex, perimeter, point_body,
                              polygons_close, regular_ngon, segment_body,
                              triple_indices)
from curvedkin.surface import (EPS, Curvature, GeometryError, RandomStream,
                               SurfacePoint, base_point, disc_area,
                               exp_at_base, form_dot, geodesic_distance,
                               normalize_to_surface, rotation_about_base,
                               sample_isometry, translation_by_polar,
                               translation_to)

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
         "vertex 2 is collinear with neighbours"),
        ([(0, 0), (2, 0), (2, 2), (0, 2), (0, 1)],
         "vertex 5 is collinear with neighbours"),
        ([(0, 0), (1, 0), (2, 0), (2, 1), (2, 2), (0, 2)],
         "vertex 2 is collinear with neighbours"),
    ])
    def test_collinear_vertex_named(self, xy, message):
        # The first collinear middle vertex, counted from 1 (unlike the
        # repeated-vertex message, which counts from 0).
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
            rr = np.arccos if kappa > 0 else None
            from curvedkin.surface import sample_positions
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
    return t @ rotation_about_base(p.curvature, math.pi) @ t.inverse()


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
            normals.append(nu * K.curvature.form_signs
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


def old_triples(n):
    """hemisphere_direction's exact-pass triple loop."""
    return [(i, j, k) for i in range(n) for j in range(i + 1, n)
            for k in range(j + 1, n)]


def assert_agree(new, old, ulps=0):
    """Within ulps units in the last place of old; 0 asks for the same bits.

    The array kernels keep the scalar arithmetic, libm calls included, so
    they reproduce its bits.  Only spherical edge norms go through BLAS,
    whose builds may round a dot product differently; they get 4 ulp.
    """
    new, old = np.asarray(new, dtype=float), np.asarray(old, dtype=float)
    assert new.shape == old.shape
    assert np.all(np.abs(new - old) <= ulps * np.spacing(np.abs(old))), \
        (new, old)


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


def same_hull(pts):
    """The hull, after asserting it is the old hull, or raises as it did."""
    try:
        old = old_convex_hull(pts)
    except GeometryError as e:
        with raises_exactly(str(e)):
            convex_hull(pts)
        return None
    new = convex_hull(pts)
    assert np.array_equal(new.vertex_array, old.vertex_array)
    return new


class TestArrayKernels:
    """Construction, area and perimeter agree with the loops they replaced."""

    BODIES = 2000

    @pytest.mark.parametrize("kappa", ALL_KAPPAS)
    def test_random_bodies_match_scalar_loops(self, kappa):
        curv = Curvature(kappa)
        rng = RandomStream(151)
        dims = set()
        for _ in range(self.BODIES):
            K = same_hull(random_point_set(curv, rng))
            if K is None:
                continue
            dims.add(K.dim)
            if K.dim > 0:
                assert_agree(K.edge_normals, old_edge_normals(K),
                             ulps=4 if kappa > 0 else 0)
            assert_agree(area(K), old_area(K))
            assert_agree(perimeter(K), old_perimeter(K))
        assert dims == {0, 1, 2}

    @pytest.mark.parametrize("kappa", REGIME_KAPPAS)
    def test_large_cyclic_polygons(self, kappa):
        curv = Curvature(kappa)
        for n in (50, 200):
            K = regular_ngon(curv, 0.6, n, phase=0.1)
            assert_agree(K.edge_normals, old_edge_normals(K),
                         ulps=4 if kappa > 0 else 0)
            assert_agree(area(K), old_area(K))
            assert_agree(perimeter(K), old_perimeter(K))

    def test_duplicate_chain_drops_every_later_point(self):
        # a, b, c 0.6 tol apart in x: b is near a and c near b only.  The
        # hull drops every point near an earlier one, so c goes with b.
        tol = EPS * 3.0
        pts = [flat_point(2.0 + 0.6 * tol * i, 0.0) for i in range(3)]
        pts += [flat_point(0.0, 0.0), flat_point(0.0, 1.0)]
        hull = convex_hull(pts)
        assert hull.n_vertices == 3
        assert pts[0] in hull.vertices

    def test_triple_indices_in_loop_order(self):
        for n in range(9):
            got = list(zip(*(t.tolist() for t in triple_indices(n))))
            assert got == old_triples(n) == list(combinations(range(n), 3))

    def test_segment_and_point_edge_planes(self):
        p = exp_at_base(Curvature(1.0), 0.3, 0.1)
        q = exp_at_base(Curvature(1.0), 0.5, 2.0)
        assert point_body(p).edge_planes.shape == (0, 3)
        seg = segment_body(p, q)
        assert np.array_equal(seg.edge_planes, [np.cross(p.coords, q.coords)])
