"""Tests for inradius/circumradius against independent brute-force oracles."""

import math
import time
from itertools import combinations
from types import SimpleNamespace

import numpy as np
import pytest

from curvedkin import radii
from curvedkin.bonnesen import random_convex_body
from curvedkin.convex import (GeodesicPolygon, contains_point, convex_hull,
                              point_body, regular_ngon, segment_body,
                              triple_indices)
from curvedkin.radii import (circumradius, inradius, metrics,
                             smallest_enclosing_disc)
from curvedkin.surface import (Curvature, GeometryError, RandomStream,
                               SurfacePoint, base_point, disc_area,
                               disc_perimeter, exp_at_base, form_dot, gen_asin,
                               geodesic_distance, row_distances)

from common import ALL_KAPPAS, REGIME_KAPPAS, flat_point
import exact
from parent import (ParentPolygon, _circumcenter3, _disc_from_support,
                    _midpoint, _normalize_rows, from_parent,
                    old_disc_from_support, recursive_enclosing_disc,
                    sample_isometry, to_parent, welzl_enclosing_disc)
# The chart and hemisphere search the library no longer has.
from test_convex import _chart, hemisphere_direction

# The Minkowski signs as the enumeration oracle below spells them.
_J = np.array([1.0, 1.0, -1.0])


def random_body(curv, rng, n_points=7, rho=0.8):
    while True:
        pts = [exp_at_base(curv, float(rng.uniform(0, rho)),
                           float(rng.uniform(0, 2 * math.pi)))
               for _ in range(n_points)]
        hull = convex_hull(pts)
        if hull.dim == 2:
            return hull


# ---------------------------------------------------------------------------
# Oracles
# ---------------------------------------------------------------------------

def enumeration_inradius(K):
    """The exact O(n^3) candidate enumeration that ``inradius`` replaced.

    Kept verbatim as the differential oracle for the working-set solver.
    """
    curv = K.curvature
    if K.dim == 0:
        return 0.0, K.vertices[0]
    if K.dim == 1:
        mid = _midpoint(curv, *K.vertex_array)
        return 0.0, SurfacePoint(mid, curv)
    normals = K.edge_normals
    n = len(normals)
    k = curv.kappa
    candidate_sets = []
    idx = np.array(list(combinations(range(n), 3)))
    d1 = normals[idx[:, 0]] - normals[idx[:, 1]]
    d2 = normals[idx[:, 1]] - normals[idx[:, 2]]
    if k == 0.0:
        det = d1[:, 0] * d2[:, 1] - d1[:, 1] * d2[:, 0]
        ok = np.abs(det) > 1e-14
        x = (-d1[ok, 2] * d2[ok, 1] + d2[ok, 2] * d1[ok, 1]) / det[ok]
        y = (-d1[ok, 0] * d2[ok, 2] + d2[ok, 0] * d1[ok, 2]) / det[ok]
        candidate_sets.append(
            np.stack([x, y, np.ones(len(x))], axis=1))
    else:
        v = np.cross(d1, d2)
        if k < 0:
            v = v * _J
        candidate_sets.append(_normalize_rows(curv, v))
        # Two-edge stationary points: maximize <n_i, x> on the bisector
        # plane <n_i - n_j, x> = 0 by form-projecting the normal sum.
        ii, jj = np.triu_indices(n, 1)
        d = normals[ii] - normals[jj]
        s = normals[ii] + normals[jj]
        signs = _J if k < 0 else np.ones(3)
        dd = np.sum(d * d * signs, axis=1)
        ok = np.abs(dd) > 1e-20
        sd = np.sum(s[ok] * d[ok] * signs, axis=1)
        candidate_sets.append(_normalize_rows(
            curv, s[ok] - (sd / dd[ok])[:, None] * d[ok]))
        if k > 0:
            # Poles of the edge geodesics (single active edge at pi/2).
            candidate_sets.append(_normalize_rows(curv, normals.copy()))
    cand = np.concatenate([c for c in candidate_sets if len(c)])
    if len(cand) == 0:
        raise GeometryError("incenter search failed")
    normals_flat = normals * _J if k < 0 else normals
    best_val = -math.inf
    best = None
    chunk = max(1, 20_000_000 // max(1, n))
    for lo in range(0, len(cand), chunk):
        vals = np.min(cand[lo:lo + chunk] @ normals_flat.T, axis=1)
        i = int(np.argmax(vals))
        if float(vals[i]) > best_val:
            best_val = float(vals[i])
            best = cand[lo + i]
    if best is None or best_val < 0:
        raise GeometryError("incenter search failed")
    return gen_asin(curv, best_val), SurfacePoint(best, curv)


def circumdisc_oracle(K):
    """Min over all vertex pair/triple circumdiscs that enclose everything."""
    curv = K.curvature
    va = K.vertex_array
    pts = list(K.vertices)
    best = None
    candidates = []
    for i, j in combinations(range(len(va)), 2):
        candidates.append(_midpoint(curv, va[i], va[j]))
    for i, j, k in combinations(range(len(va)), 3):
        candidates.extend(_circumcenter3(curv, va[i], va[j], va[k]))
    for c in candidates:
        cp = SurfacePoint(c, curv)
        r = max(geodesic_distance(cp, p) for p in pts)
        if best is None or r < best:
            best = r
    return best


def inradius_grid_oracle(K, steps=500):
    """Grid search maximizing min geodesic distance to the edge geodesics."""
    curv = K.curvature
    r_c, center = circumradius(K)
    diam = 2.0 * r_c
    step = diam / steps
    # Chart grid over the circumdisc's bounding box, mapped back.
    u = (hemisphere_direction(curv, K.vertex_array)
         if curv.kappa > 0 else None)
    xy = _chart(curv, K.vertex_array, u)
    lo, hi = xy.min(axis=0), xy.max(axis=0)
    n = 120  # chart resolution; converted to arclength below
    gx = np.linspace(lo[0], hi[0], n)
    gy = np.linspace(lo[1], hi[1], n)
    X, Y = np.meshgrid(gx, gy)
    if curv.kappa == 0.0:
        emb = np.stack([X.ravel(), Y.ravel(), np.ones(X.size)], axis=1)
    elif curv.kappa < 0:
        z2 = 1.0 / (-curv.kappa) + X.ravel() ** 2 + Y.ravel() ** 2
        emb = np.stack([X.ravel(), Y.ravel(), np.sqrt(z2)], axis=1)
    else:
        a = np.array([1.0, 0.0, 0.0])
        if abs(u @ a) > 0.9:
            a = np.array([0.0, 1.0, 0.0])
        e1 = a - (a @ u) * u
        e1 /= np.linalg.norm(e1)
        e2 = np.cross(u, e1)
        raw = (np.outer(X.ravel(), e1) + np.outer(Y.ravel(), e2)
               + u[None, :])
        nrm = np.linalg.norm(raw, axis=1, keepdims=True)
        emb = raw / (nrm * curv.scale)
    sines = K.signed_edge_distances(emb)
    worst = np.min(sines, axis=0)
    best = float(np.max(worst))
    if best <= 0:
        return 0.0
    return gen_asin(curv, best)


class TestCircumradius:
    def test_unit_square(self):
        sq = convex_hull([flat_point(x, y)
                          for x in (0.0, 1.0) for y in (0.0, 1.0)])
        R, center = circumradius(sq)
        assert abs(R - math.sqrt(0.5)) < 1e-12
        assert np.allclose(center.coords[:2], [0.5, 0.5], atol=1e-12)

    def test_point_body(self):
        R, _ = circumradius(point_body(flat_point(2.0, 3.0)))
        assert R == 0.0

    def test_segment_body(self):
        c = Curvature(-1.0)
        seg = segment_body(exp_at_base(c, 0.5, 0.0),
                           exp_at_base(c, 0.5, math.pi))
        R, center = circumradius(seg)
        assert abs(R - 0.5) < 1e-9

    @pytest.mark.parametrize("kappa", REGIME_KAPPAS)
    def test_matches_pair_triple_oracle(self, kappa):
        curv = Curvature(kappa)
        rng = RandomStream(83)
        for _ in range(200):
            body = random_body(curv, rng,
                               n_points=int(rng.integers(3, 9)))
            R, center = circumradius(body)
            oracle = circumdisc_oracle(body)
            assert abs(R - oracle) < 1e-7

    @pytest.mark.parametrize("kappa", REGIME_KAPPAS)
    def test_all_vertices_inside(self, kappa):
        curv = Curvature(kappa)
        rng = RandomStream(89)
        for _ in range(50):
            body = random_body(curv, rng)
            R, center = circumradius(body)
            for v in body.vertices:
                assert geodesic_distance(center, v) <= R + 1e-9


class TestInradius:
    def test_square_side_two(self):
        sq = convex_hull([flat_point(x, y)
                          for x in (-1.0, 1.0) for y in (-1.0, 1.0)])
        r, center = inradius(sq)
        assert abs(r - 1.0) < 1e-12
        assert np.allclose(center.coords[:2], [0.0, 0.0], atol=1e-12)

    def test_segment_zero(self):
        c = Curvature(1.0)
        seg = segment_body(exp_at_base(c, 0.3, 0.0),
                           exp_at_base(c, 0.3, 2.0))
        r, _ = inradius(seg)
        assert r == 0.0

    @pytest.mark.parametrize("kappa", REGIME_KAPPAS)
    def test_matches_grid_oracle(self, kappa):
        curv = Curvature(kappa)
        rng = RandomStream(97)
        for _ in range(40):
            body = random_body(curv, rng,
                               n_points=int(rng.integers(3, 9)))
            r, center = inradius(body)
            oracle = inradius_grid_oracle(body)
            R, _ = circumradius(body)
            grid_step = 2.0 * R / 120.0
            assert r >= oracle - 1e-9
            assert abs(r - oracle) < 2.0 * grid_step

    @pytest.mark.parametrize("kappa", REGIME_KAPPAS)
    def test_incenter_realizes_radius(self, kappa):
        curv = Curvature(kappa)
        rng = RandomStream(101)
        for _ in range(50):
            body = random_body(curv, rng)
            r, center = inradius(body)
            sines = body.signed_edge_distances(center.coords)
            dmin = gen_asin(curv, float(np.min(sines)))
            assert abs(dmin - r) < 1e-9
            assert contains_point(body, center)


# Bodies per regime in the differential test; each has more than 12 edges,
# so the working-set solver takes several rounds on it.
DIFFERENTIAL_BODIES = 2000


def largest_radius(curv):
    """Hyperbolic bodies reach radius 5, spherical ones the hemisphere."""
    if curv.kappa > 0:
        return curv.hemisphere_limit - 1e-3
    return 5.0 if curv.kappa < 0 else 1.0


def many_edged_body(curv, rng, cyclic):
    """A cyclic polygon, or the hull of points near a circle; > 12 edges."""
    while True:
        rho = float(rng.uniform(0.05, largest_radius(curv)))
        if cyclic:
            m = int(rng.integers(13, 41))
            dist = np.full(m, rho)
        else:
            m = int(rng.integers(16, 41))
            dist = rho * (1.0 - 0.2 * rng.uniform(0.0, 1.0, m) ** 2)
        theta = np.sort(rng.uniform(0.0, 2 * math.pi, m))
        pts = [exp_at_base(curv, float(r), float(t))
               for r, t in zip(dist, theta)]
        try:
            body = GeodesicPolygon(pts) if cyclic else convex_hull(pts)
        except GeometryError:
            continue
        if body.n_vertices > 12:
            return body


def closed_form_inradius(curv, R, n):
    """Regular n-gon of circumradius R: gen_tan(r) = gen_tan(R) cos(pi/n)."""
    c = math.cos(math.pi / n)
    s = curv.scale
    if curv.kappa > 0:
        return math.atan(math.tan(s * R) * c) / s
    if curv.kappa < 0:
        return math.atanh(math.tanh(s * R) * c) / s
    return R * c


def assert_same_incircle(K):
    r, center = inradius(K)
    r0, center0 = enumeration_inradius(ParentPolygon(K))
    center0 = SurfacePoint(from_parent(K.curvature, center0.coords),
                           K.curvature)
    scale = 1.0 + float(np.max(np.abs(center0.coords)))
    assert abs(r - r0) <= 1e-12, (K, r, r0)
    assert np.max(np.abs(center.coords - center0.coords)) <= 1e-12 * scale, K


def workload_polygon(curv, n, rng, radius=0.6):
    """A cyclic polygon as bench's large-polygons workload builds one: angle
    i in the middle half of the i-th of n sectors, turned at random."""
    u = rng.uniform(0.25, 0.75, n)
    theta = (np.arange(n) + u) * (2.0 * math.pi / n) + rng.uniform(0.0, 1.0)
    return GeodesicPolygon([exp_at_base(curv, radius, float(t))
                            for t in theta], curv)


def gapped_polygon(curv, rho, gaps):
    """Vertices on the circle of radius rho about the base point, the i-th
    and the next gaps[i] radians apart; the gaps sum to 2 pi."""
    theta = 0.3 + np.concatenate([[0.0], np.cumsum(gaps)[:-1]])
    return GeodesicPolygon([exp_at_base(curv, rho, float(t)) for t in theta],
                           curv)


@pytest.fixture
def incenter_rounds(monkeypatch):
    """The working-set sizes of inradius's rounds; clear between solves."""
    sizes = []
    enumerate_candidates = radii._incenter_candidates

    def counted(curv, normals):
        sizes.append(len(normals))
        return enumerate_candidates(curv, normals)

    monkeypatch.setattr(radii, "_incenter_candidates", counted)
    return sizes


@pytest.fixture
def closures(monkeypatch):
    """(size before, size after) of each _close_working_set call."""
    calls = []
    close = radii._close_working_set

    def recorded(curv, normals, work):
        out = close(curv, normals, work)
        calls.append((len(work), len(out)))
        return out

    monkeypatch.setattr(radii, "_close_working_set", recorded)
    return calls


class TestWorkingSetInradius:
    @pytest.mark.parametrize("kappa", REGIME_KAPPAS)
    def test_matches_enumeration(self, kappa):
        curv = Curvature(kappa)
        rng = RandomStream(127)
        for i in range(DIFFERENTIAL_BODIES):
            assert_same_incircle(many_edged_body(curv, rng, cyclic=i % 2 == 0))

    @pytest.mark.parametrize("kappa", REGIME_KAPPAS)
    def test_random_bodies_match_enumeration(self, kappa):
        # Up to 12 edges the first working set is the whole edge set.
        curv = Curvature(kappa)
        rng = RandomStream(131)
        news, olds, refs = [], [], []
        for _ in range(200):
            K = random_body(curv, rng, n_points=int(rng.integers(3, 20)))
            r, center = inradius(K)
            r0, center0 = enumeration_inradius(ParentPolygon(K))
            center0 = SurfacePoint(from_parent(curv, center0.coords), curv)
            if K.n_vertices > 12:
                assert_same_incircle(K)
            elif r != r0 or not np.array_equal(center.coords, center0.coords):
                # The edge normals' norm is a new formula on the sphere and
                # the flat plane: the same incircle, its last bits against
                # a 60-digit one from the same active edges.
                sines = K.signed_edge_distances(center.coords)
                active = np.flatnonzero(sines <= sines.min() + 1e-9)
                assert len(active) in (2, 3)
                ref, value = exact.incenter(kappa, K.vertex_array, active)
                news.append([*center.coords, r])
                olds.append([*center0.coords, r0])
                refs.append([*ref, exact.to_float(value)[0]])
        for col in range(4):
            column = [[x[col] for x in rows] for rows in (news, olds, refs)]
            if col == 3:  # the radius, from the exact gen_sin value
                column[2] = [gen_asin(curv, v) for v in column[2]]
            assert exact.no_worse(*column, units=[
                np.spacing(np.abs(x[:3]).max()) for x in news]), col

    @pytest.mark.parametrize("kappa", REGIME_KAPPAS)
    @pytest.mark.parametrize("n", [13, 200, 1000])
    def test_regular_ngon_closed_form(self, kappa, n):
        curv = Curvature(kappa)
        for R in (0.6, largest_radius(curv) if kappa > 0 else 1.2):
            r, center = inradius(regular_ngon(curv, R, n))
            assert abs(r - closed_form_inradius(curv, R, n)) <= 1e-12 * (1 + R)
            assert geodesic_distance(center, base_point(curv)) <= 1e-6

    def test_hyperbolic_ultraparallel_first_working_set(self):
        # At R = 5 the tangent lines of the 64-gon's incircle meet only for
        # neighbouring edges, so any 12 edges bound an unbounded region.
        curv = Curvature(-1.0)
        R, n = 5.0, 64
        r, _ = inradius(regular_ngon(curv, R, n))
        assert abs(r - closed_form_inradius(curv, R, n)) <= 1e-12 * (1 + R)

    @pytest.mark.parametrize("kappa, rho, reach", [(0.0, 1.0, 20.0),
                                                   (-1.0, 0.3, 0.62)])
    def test_unbounded_first_working_set(self, kappa, rho, reach):
        # A cup: a 170-degree arc of 60 vertices below two long sides that
        # diverge upward.  Arc edges alone bound no compact region, and their
        # best candidate, the arc's center, lies nearer no other edge.  On
        # the flat plane the first working set holds arc edges and one side,
        # and only closing it reveals the larger disc higher up; the
        # hyperbolic cup's first set already holds the top edge.
        curv = Curvature(kappa)
        phi = np.radians(np.linspace(-175.0, -5.0, 60))
        chart = list(rho * np.stack([np.cos(phi), np.sin(phi)], axis=1))
        beta = np.radians(85.0 - 170.0 / 59 / 4)
        side = reach * np.array([np.cos(beta), np.sin(beta)])
        chart.append(chart[-1] + side)
        chart.append(chart[0] + side * [-1.0, 1.0])
        # Beltrami-Klein chart: geodesics are straight in (x, y).
        body = GeodesicPolygon([
            SurfacePoint(np.array([x, y, 1.0])
                         / math.sqrt(1.0 + kappa * (x * x + y * y)), curv)
            for x, y in chart])
        at_center = np.min(body.signed_edge_distances(
            base_point(curv).coords))
        r, _ = inradius(body)
        assert r > 1.1 * gen_asin(curv, float(at_center))
        assert_same_incircle(body)

    def test_ultraparallel_working_pair(self):
        # A 190-degree arc of 40 vertices about the Klein chart's origin,
        # closed above by two sides that converge upward and a top edge.
        # The first working set holds arc edges and the right side, which
        # with the first arc edge lean inward, so their lines meet ahead of
        # both (w_z > 0), but beyond the ideal boundary (G(w, w) < 0): they
        # are ultraparallel, and only the hyperbolic half of the closing
        # rule brings in the edges between them.  Without it the arc's
        # center is certified, with a radius 16% short.
        curv = Curvature(-1.0)
        rho, half, top, n_arc = 0.4, 95.0, 0.9, 40
        phi = np.radians(np.linspace(-90.0 - half, -90.0 + half, n_arc))
        chart = list(rho * np.stack([np.cos(phi), np.sin(phi)], axis=1))
        turn = half / (n_arc - 1) / 2  # a quarter of the arc's step
        right = np.radians(half + turn)
        left = np.radians(-half - turn)
        up = chart[-1] + ((top - chart[-1][1]) / math.sin(right)
                          * np.array([math.cos(right), math.sin(right)]))
        down = chart[0] + ((top - chart[0][1]) / math.sin(left)
                           * np.array([math.cos(left), math.sin(left)]))
        chart += [up, down]
        body = GeodesicPolygon([
            SurfacePoint(np.array([x, y, 1.0]) / math.sqrt(1.0 - x * x - y * y),
                         curv) for x, y in chart])
        normals = body.edge_normals
        work = radii._first_edges(curv, body.vertex_array)
        assert work[-1] == n_arc - 1
        w = np.cross(normals[work[-1]], normals[work[0]])
        assert w[2] > 0 and form_dot(curv, w, w) < 0
        at_center = np.min(body.signed_edge_distances(
            base_point(curv).coords))
        r, _ = inradius(body)
        assert r > 1.1 * gen_asin(curv, float(at_center))
        assert_same_incircle(body)

    def test_workload_polygons_in_one_round(self, incenter_rounds):
        # Near a circle the longest edges are the ones nearest the incenter,
        # so the first working set mostly holds the incircle's edges.  The
        # evenly spaced start took 2-6 rounds on each of these.  Seeds
        # 200-229 give at most 2 rounds a solve and 15-17 for 15 shapes.
        shapes = [(seed, n, kappa) for seed in (200, 201)
                  for n in (32, 64, 128, 160, 200) for kappa in REGIME_KAPPAS]
        per_solve = []
        for i, (seed, n, kappa) in enumerate(shapes):
            body = workload_polygon(Curvature(kappa), n,
                                    RandomStream([seed, i % 15]))
            incenter_rounds.clear()
            inradius(body)
            per_solve.append(len(incenter_rounds))
        assert max(per_solve) <= 2, per_solve
        assert sum(per_solve) <= 1.25 * len(shapes), per_solve

    @pytest.mark.parametrize("kappa", REGIME_KAPPAS)
    def test_regular_ngons_as_from_evenly_spaced_edges(self, kappa,
                                                       monkeypatch):
        # Every edge touches the incircle, so every start finds it in one
        # round, and r_in keeps its bits.  Tied candidates are met in
        # another order, so the incenter may move within rounding.
        curv = Curvature(kappa)
        bodies = [regular_ngon(curv, R, n) for n in (13, 24, 31, 64, 200)
                  for R in (0.6, largest_radius(curv) if kappa > 0 else 1.2)]
        for K in bodies:
            if K.n_vertices <= 64:
                assert_same_incircle(K)
        solved = [inradius(K) for K in bodies]
        monkeypatch.setattr(radii, "_first_edges",
                            lambda curv, va: radii._first_working_set(len(va)))
        for K, (r, center) in zip(bodies, solved):
            r0, center0 = inradius(K)
            assert r == r0, (K, r, r0)
            assert np.max(np.abs(center.coords - center0.coords)) <= 1e-12, K

    @pytest.mark.parametrize("kappa", REGIME_KAPPAS)
    def test_longest_edges_in_one_run(self, kappa, incenter_rounds):
        # The four long edges nearest the center are run 0 of a 48-gon, so
        # the first set holds one of them and the loop adds the others.
        curv = Curvature(kappa)
        n = 48
        gaps = np.concatenate([np.full(4, 0.5),
                               np.full(n - 4, (2 * math.pi - 2.0) / (n - 4))])
        for rho in (0.6, largest_radius(curv)):
            K = gapped_polygon(curv, rho, gaps)
            first = radii._first_edges(curv, K.vertex_array)
            assert len(np.intersect1d(first, np.arange(4))) == 1
            incenter_rounds.clear()
            assert_same_incircle(K)
            assert len(incenter_rounds) > 1 or incenter_rounds == [n]

    @pytest.mark.parametrize("kappa", REGIME_KAPPAS)
    def test_one_large_gap(self, kappa):
        # 40 vertices on a circle with a gap of 3 radians, whose edge passes
        # nearest the center and is the longest by far.
        curv = Curvature(kappa)
        n = 40
        gaps = np.concatenate([np.full(n - 1, (2 * math.pi - 3.0) / (n - 1)),
                               [3.0]])
        for rho in (0.6, largest_radius(curv)):
            K = gapped_polygon(curv, rho, gaps)
            assert n - 1 in radii._first_edges(curv, K.vertex_array)
            assert_same_incircle(K)

    def test_hyperbolic_closure_adds_edges(self, closures):
        # Far out on the hyperbolic plane, or with long edges in one run,
        # the longest edge of each run still leaves an unbounded region, and
        # only the closure rule makes the first round's bound hold.
        curv = Curvature(-1.0)
        rng = RandomStream(7)
        n = 48
        gaps = np.concatenate([np.full(4, 0.5),
                               np.full(n - 4, (2 * math.pi - 2.0) / (n - 4))])
        bodies = [gapped_polygon(curv, 0.6, gaps), regular_ngon(curv, 5.0, 64)]
        bodies += [workload_polygon(curv, n, rng, radius=R)
                   for R in (3.0, 5.0) for n in (16, 40)]
        for K in bodies:
            closures.clear()
            assert_same_incircle(K)
            before, after = closures[0]
            assert after > before, (K, closures)

    @pytest.mark.parametrize("kappa", REGIME_KAPPAS)
    def test_200_gon_under_10_ms(self, kappa):
        body = regular_ngon(Curvature(kappa), 0.6, 200)
        times = []
        for _ in range(5):
            t0 = time.perf_counter()
            inradius(body)
            times.append(time.perf_counter() - t0)
        assert min(times) < 0.010, times


class TestMetrics:
    def test_unit_square_all_fields(self):
        sq = convex_hull([flat_point(x, y)
                          for x in (0.0, 1.0) for y in (0.0, 1.0)])
        m = metrics(sq)
        assert abs(m.A - 1.0) < 1e-12
        assert abs(m.P - 4.0) < 1e-12
        assert abs(m.r_in - 0.5) < 1e-12
        assert abs(m.R_circ - math.sqrt(0.5)) < 1e-12

    def test_point_body_all_zero(self):
        m = metrics(point_body(flat_point(1.0, 1.0)))
        assert m.A == m.P == m.r_in == m.R_circ == 0.0

    @pytest.mark.parametrize("kappa", REGIME_KAPPAS)
    def test_disc_ngon_within_one_percent(self, kappa):
        curv = Curvature(kappa)
        rho = 0.5
        body = regular_ngon(curv, rho, 64)
        m = metrics(body)
        assert abs(m.A - disc_area(curv, rho)) < 0.01 * disc_area(curv, rho)
        assert abs(m.P - disc_perimeter(curv, rho)) < 0.01 * disc_perimeter(
            curv, rho)
        assert abs(m.r_in - rho) < 0.01 * rho
        assert abs(m.R_circ - rho) < 0.01 * rho

    @pytest.mark.parametrize("kappa", REGIME_KAPPAS)
    def test_radius_ordering(self, kappa):
        curv = Curvature(kappa)
        rng = RandomStream(103)
        for _ in range(100):
            m = metrics(random_body(curv, rng))
            assert 0.0 <= m.r_in <= m.R_circ + 1e-9
            if kappa > 0:
                assert m.R_circ < curv.hemisphere_limit

    @pytest.mark.parametrize("kappa", REGIME_KAPPAS)
    def test_sandwich(self, kappa):
        # Inscribed disc inside K inside circumscribed disc, by sampling
        # boundary points of the inscribed disc and checking edge distances.
        curv = Curvature(kappa)
        rng = RandomStream(107)
        for _ in range(25):
            body = random_body(curv, rng)
            m = metrics(body)
            from curvedkin.surface import translation_to
            t = translation_to(m.incenter)
            for th in np.linspace(0.0, 2 * math.pi, 24, endpoint=False):
                p = t.apply(exp_at_base(curv, max(m.r_in - 1e-10, 0.0), th))
                assert contains_point(body, p)
            for v in body.vertices:
                assert geodesic_distance(m.circumcenter, v) <= m.R_circ + 1e-8

    @pytest.mark.parametrize("kappa", REGIME_KAPPAS)
    def test_isometry_invariance(self, kappa):
        curv = Curvature(kappa)
        rng = RandomStream(109)
        body = random_body(curv, rng)
        m0 = metrics(body)
        for _ in range(10):
            g = sample_isometry(curv, 1.0, rng)
            m1 = metrics(body.transformed(g))
            assert abs(m1.A - m0.A) < 1e-8
            assert abs(m1.P - m0.P) < 1e-8
            assert abs(m1.r_in - m0.r_in) < 1e-8
            assert abs(m1.R_circ - m0.R_circ) < 1e-8


class TestWelzlDeterminism:
    """The iterative Welzl, now an oracle, and the library's determinism."""

    @pytest.mark.parametrize("kappa", REGIME_KAPPAS)
    def test_matches_recursive_form_bitwise(self, kappa):
        curv = Curvature(kappa)
        rng = RandomStream(137)
        for _ in range(100):
            coords = random_body(
                curv, rng, n_points=int(rng.integers(3, 30))).vertex_array
            c, r = welzl_enclosing_disc(curv, coords)
            c0, r0 = recursive_enclosing_disc(curv, coords)
            assert np.array_equal(c, c0) and r == r0

    @pytest.mark.parametrize("kappa", [0.0, -1.0])
    def test_past_the_recursion_limit(self, kappa):
        curv = Curvature(kappa)
        R, _ = circumradius(regular_ngon(curv, 0.6, 1100))
        assert abs(R - 0.6) < 1e-9

    def test_same_input_same_support(self):
        curv = Curvature(0.0)
        rng = RandomStream(113)
        body = random_body(curv, rng, n_points=9)
        c1, r1 = smallest_enclosing_disc(curv, body.vertex_array)
        c2, r2 = smallest_enclosing_disc(curv, body.vertex_array)
        assert np.array_equal(c1, c2) and r1 == r2


class TestDiscFromSupport:
    """The array form agrees with the per-point one it replaced."""

    @pytest.mark.parametrize("kappa", ALL_KAPPAS)
    def test_matches_scalar_form(self, kappa):
        curv = Curvature(kappa)
        rng = RandomStream(173)
        reach = (0.9 * curv.hemisphere_limit if kappa > 0
                 else 3.0 / max(1.0, curv.scale))
        sizes = set()
        news, olds, refs, units = [], [], [], []
        for _ in range(2000):
            m = int(rng.integers(1, 4))
            support = np.array([
                exp_at_base(curv, float(rng.uniform(0.0, reach)),
                            float(rng.uniform(0, 2 * math.pi))).coords
                for _ in range(m)])
            old = old_disc_from_support(curv, list(to_parent(curv, support)))
            new = _disc_from_support(curv, support)
            if old is None:
                assert new is None
                continue
            sizes.add(m)
            center = exact.circumcenter(kappa, support)
            news.append([*new[0], new[1]])
            olds.append([*from_parent(curv, old[0]), old[1]])
            refs.append([*center, exact.distance(kappa, exact.to_float(center),
                                                 support[0])])
            units.append([exact.center_unit(kappa, support, center)] * 3 + [
                exact.distance_ulp(kappa, exact.to_float(center), support[0])])
        assert sizes == {1, 2, 3}
        # The bisector circumcenter and the quadric chord replace the old
        # formulas: no worse against 60-digit centers and radii.
        for col in range(4):
            assert exact.no_worse([x[col] for x in news], [x[col] for x in olds],
                                  [x[col] for x in refs],
                                  [x[col] for x in units]), col

    @pytest.mark.parametrize("kappa", ALL_KAPPAS)
    def test_welzl_matches_scalar_form(self, kappa):
        curv = Curvature(kappa)
        rng = RandomStream(179)
        news, olds, refs, units = [], [], [], []
        for _ in range(200):
            coords = random_body(
                curv, rng, n_points=int(rng.integers(3, 30))).vertex_array
            c, r = welzl_enclosing_disc(curv, coords)
            c0, r0 = recursive_enclosing_disc(curv, to_parent(curv, coords),
                                              old_disc_from_support)
            c0 = from_parent(curv, c0)
            # The same support: the points on each disc's rim.
            rim = row_distances(curv, c, coords) >= r - 1e-9 * (1.0 + r)
            rim0 = row_distances(curv, c0, coords) >= r0 - 1e-9 * (1.0 + r0)
            assert np.array_equal(rim, rim0)
            center = exact.circumcenter(kappa, coords[rim])
            news.append([*c, r])
            olds.append([*c0, r0])
            far = coords[np.flatnonzero(rim)[0]]
            refs.append([*center, exact.distance(kappa, exact.to_float(center),
                                                 far)])
            units.append([exact.center_unit(kappa, coords[rim], center)] * 3 + [
                exact.distance_ulp(kappa, exact.to_float(center), far)])
        for col in range(4):
            assert exact.no_worse([x[col] for x in news], [x[col] for x in olds],
                                  [x[col] for x in refs],
                                  [x[col] for x in units]), col


# R of the support enumeration against Welzl's, in units of R's ulp.  At
# most 9 was seen, on the clouds of radius 3 at kappa = -2.
WELZL_ULPS = 16


def point_cloud(curv, rng, m):
    """m points in a disc about the base point, not in convex position, so
    that clouds of more than 12 points take the solver several rounds."""
    reach = (0.9 * curv.hemisphere_limit if curv.kappa > 0
             else 3.0 / max(1.0, curv.scale))
    return np.array([exp_at_base(curv, float(rng.uniform(0.0, reach)),
                                 float(rng.uniform(0, 2 * math.pi))).coords
                     for _ in range(m)])


@pytest.fixture
def rounds(monkeypatch):
    """The working-set sizes of smallest_enclosing_disc's rounds, in order.

    A round on a working set no larger than the last one's would repeat it
    forever, so that fails at once; clear the list between solves.
    """
    sizes = []
    enumerate_supports = radii._disc_candidates

    def counted(curv, pts):
        assert not sizes or len(pts) > sizes[-1], sizes
        sizes.append(len(pts))
        return enumerate_supports(curv, pts)

    monkeypatch.setattr(radii, "_disc_candidates", counted)
    return sizes


class TestSupportEnumeration:
    """The working-set enumeration against the Welzl minidisc it replaced."""

    @pytest.mark.parametrize("kappa", ALL_KAPPAS)
    def test_matches_welzl(self, kappa, rounds):
        curv = Curvature(kappa)
        rng = RandomStream(191)
        news, olds, refs, units = [], [], [], []
        most = 0
        for _ in range(200):
            coords = point_cloud(curv, rng, int(rng.integers(3, 31)))
            rounds.clear()
            c, r = smallest_enclosing_disc(curv, coords)
            most = max(most, len(rounds))
            c0, r0 = welzl_enclosing_disc(curv, coords)
            # The same support: the points on each disc's rim.
            rim = row_distances(curv, c, coords) >= r - 1e-9 * (1.0 + r)
            rim0 = row_distances(curv, c0, coords) >= r0 - 1e-9 * (1.0 + r0)
            assert np.array_equal(rim, rim0)
            assert abs(r - r0) <= WELZL_ULPS * np.spacing(r0), (r, r0)
            center = exact.circumcenter(kappa, coords[rim])
            news.append([*c, r])
            olds.append([*c0, r0])
            near = exact.to_float(center)
            refs.append([*center, exact.distance(kappa, near, coords[rim][0])])
            # Both radii are the largest rounded distance to a rim point, so
            # their unit is the largest of those distances' units.
            units.append([exact.center_unit(kappa, coords[rim], center)] * 3 + [
                max(exact.distance_ulp(kappa, near, p) for p in coords[rim])])
        # The certificate sent some clouds past the first working set.
        assert most > 1
        # No worse than Welzl against 60-digit centers and radii.  Either
        # radius takes a unit or two from whichever rim distance rounds up
        # most; the worst seen is 2.46 units, at kappa = 1, against Welzl's
        # 2.10.
        for col, ulps in enumerate([2, 2, 2, 3]):
            assert exact.no_worse([x[col] for x in news], [x[col] for x in olds],
                                  [x[col] for x in refs],
                                  [x[col] for x in units], ulps), col

    @pytest.mark.parametrize("kappa", ALL_KAPPAS)
    def test_regular_ngons(self, kappa):
        # Every vertex is on the rim, so many supports give the one disc.
        curv = Curvature(kappa)
        for n in (3, 4, 6, 12, 13, 64):
            va = regular_ngon(curv, 0.6, n).vertex_array
            c, r = smallest_enclosing_disc(curv, va)
            _, r0 = welzl_enclosing_disc(curv, va)
            assert abs(r - 0.6) <= 2 * np.spacing(0.6), (n, r)
            assert abs(r - r0) <= 2 * np.spacing(0.6), (n, r, r0)
            assert np.all(row_distances(curv, c, va)
                          >= r - 2 * np.spacing(0.6)), n
            assert np.max(np.abs(c - [0.0, 0.0, 1.0])) <= 1e-16, (n, c)

    @pytest.mark.parametrize("kappa", ALL_KAPPAS)
    def test_point_and_segment(self, kappa):
        curv = Curvature(kappa)
        p = exp_at_base(curv, 0.4, 1.0)
        c, r = smallest_enclosing_disc(curv, point_body(p).vertex_array)
        assert np.array_equal(c, p.coords) and r == 0.0
        seg = segment_body(exp_at_base(curv, 0.5, 0.3),
                           exp_at_base(curv, 0.5, 0.3 + math.pi))
        c, r = smallest_enclosing_disc(curv, seg.vertex_array)
        c0, r0 = welzl_enclosing_disc(curv, seg.vertex_array)
        assert np.array_equal(c, c0)
        # Welzl measured to one end, the enumeration to the farther one.
        assert abs(r - 0.5) <= 2 * np.spacing(0.5), r
        assert abs(r - r0) <= 2 * np.spacing(0.5), (r, r0)

    def test_hyperbolic_hexagon_at_radius_18(self):
        curv = Curvature(-1.0)
        R, center = circumradius(regular_ngon(curv, 18.0, 6))
        assert R == 18.0
        assert np.max(np.abs(center.coords - [0.0, 0.0, 1.0])) <= 1e-16

    @pytest.mark.parametrize("coords", [
        np.concatenate([np.eye(3), -np.eye(3)]),
        np.array([[1, 1, 1], [1, -1, -1], [-1, 1, -1], [-1, -1, 1]])
        / math.sqrt(3.0),
    ], ids=["octahedron", "tetrahedron"])
    def test_hemisphere_error(self, coords):
        # Sets in no closed hemisphere: every enclosing disc passes pi/2.
        # No GeodesicPolygon holds them, so circumradius gets the fields it
        # reads.
        curv = Curvature(1.0)
        _, r = smallest_enclosing_disc(curv, coords)
        assert r > curv.hemisphere_limit
        body = SimpleNamespace(curvature=curv, vertex_array=coords)
        with pytest.raises(GeometryError,
                           match="enclosing disc leaves the hemisphere"):
            circumradius(body)

    def test_antipodes_off_the_sphere_by_rounding(self, rounds):
        # |p|^2 = 1 + 1.6e-10 puts the pair's squared chord above 4, the
        # clamped rim chord of r = pi, so the farthest point is one already
        # in the working set.  The solve must end there, and the pair must
        # still be refused.
        curv = Curvature(1.0)
        p = np.array([0.6, 0.0, 0.8000000001])
        _, r = smallest_enclosing_disc(curv, np.array([p, -p]))
        assert r >= curv.hemisphere_limit
        assert rounds == [2]
        rounds.clear()
        with pytest.raises(GeometryError,
                           match="points do not fit in an open hemisphere"):
            GeodesicPolygon([SurfacePoint(p, curv), SurfacePoint(-p, curv)],
                            curv)

    @pytest.mark.parametrize("kappa", REGIME_KAPPAS)
    def test_1100_gon_in_one_round(self, kappa, rounds):
        curv = Curvature(kappa)
        R, _ = circumradius(regular_ngon(curv, 0.6, 1100, phase=0.1))
        assert abs(R - 0.6) <= 2 * np.spacing(0.6)
        assert rounds == [12]


class TestIndexArrays:
    @pytest.mark.parametrize("n", range(1, 27))
    def test_pairs_and_triples(self, n):
        pairs, triples = radii._index_arrays(n)
        for got, want in zip(pairs + triples,
                             np.triu_indices(n, 1) + triple_indices(n)):
            assert np.array_equal(got, want)

    def test_cached_read_only_up_to_24(self):
        for small in (radii._FIRST_WORKING_SET, radii._CACHED_INDEX_SIZE):
            assert radii._index_arrays(small) is radii._index_arrays(small)
            pairs, triples = radii._index_arrays(small)
            assert not any(a.flags.writeable for a in pairs + triples)
        # A larger working set's arrays are not kept.
        large = radii._CACHED_INDEX_SIZE + 1
        assert (radii._index_arrays(large)[1][0]
                is not radii._index_arrays(large)[1][0])


class TestMinidiscScaleCovariance:
    """(x, y, z; kappa) -> (lam x, lam y, z; kappa/lam^2) maps the surface
    onto itself with lengths times lam.  With lam = 2^k every coordinate,
    chord and candidate maps exactly, so the minidisc of the mapped rows is
    the mapped minidisc, bit for bit.  It runs on rows: a body's hull has
    its own absolute tolerance, which is not covariant."""

    @pytest.mark.parametrize("kappa", REGIME_KAPPAS)
    def test_radius_and_center_scale_exactly(self, kappa):
        curv = Curvature(kappa)
        rng = RandomStream(61)
        for _ in range(100):
            va = random_convex_body(curv, rng).vertex_array
            center, r = smallest_enclosing_disc(curv, va)
            for k in range(-24, 31):
                lam = 2.0 ** k
                scale = np.array([lam, lam, 1.0])
                c, R = smallest_enclosing_disc(Curvature(kappa / lam ** 2),
                                               va * scale)
                assert R == lam * r, (k, R, lam * r)
                assert np.array_equal(c, center * scale), k
