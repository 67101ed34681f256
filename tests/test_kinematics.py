"""Tests for Monte Carlo kinematic integrals, containment, monotonicity."""

import math
import os
import tracemalloc
from concurrent.futures import ThreadPoolExecutor
from typing import Optional

import numpy as np
import pytest

from curvedkin.convex import (GeodesicPolygon, area, contains_point,
                              convex_hull, euler_intersection, perimeter,
                              point_body, regular_ngon, segment_body)
from curvedkin import convex, kinematics
from curvedkin.kinematics import (_OverlapTester, _outer_table, _recenter,
                                  body_contains,
                                  containment_criterion, find_containment,
                                  kinematic_lhs, kinematic_rhs,
                                  monotonicity_probe)
from curvedkin.radii import circumradius, inradius
from curvedkin.surface import (EPS, Curvature, CurvatureMismatch,
                               GeometryError, Isometry, RandomStream,
                               SurfacePoint,
                               basis_matrices, disc_area, draw_motions,
                               exp_at_base, fold_table, gen_cos_sin,
                               motion_basis, motion_matrices, point_polar,
                               polar_rows, sample_motions,
                               translation_by_polar, translation_to)

from common import (ALL_KAPPAS, REGIME_KAPPAS, STREAM_LEADS, flat_point,
                    next_draws, octant_triangle, philox_state, unit_square)
import exact
from parent import (DegeneratePosition, ParentPolygon, _J, arc_crossings,
                    boundary_crossings, sample_isometry, to_parent, unit_arcs)


def random_body(curv, rng, n_points=5, rho=0.7):
    while True:
        pts = [exp_at_base(curv, float(rng.uniform(0.05, rho)),
                           float(rng.uniform(0, 2 * math.pi)))
               for _ in range(n_points)]
        hull = convex_hull(pts)
        if hull.dim == 2:
            return hull


class TestKinematicRhs:
    def test_two_unit_squares(self):
        sq = unit_square()
        assert abs(kinematic_rhs(sq, sq) - (2.0 + 8.0 / math.pi)) < 1e-12

    def test_point_probe_gives_area(self):
        sq = unit_square()
        p = point_body(flat_point(0.0, 0.0))
        assert abs(kinematic_rhs(sq, p) - area(sq)) < 1e-12
        assert abs(kinematic_rhs(p, sq) - area(sq)) < 1e-12

    def test_octant_self_value(self):
        tri = octant_triangle()
        assert abs(kinematic_rhs(tri, tri) - 2.0 * math.pi) < 1e-12

    def test_curvature_mismatch(self):
        with pytest.raises(GeometryError):
            kinematic_rhs(unit_square(), octant_triangle())

    @pytest.mark.parametrize("kappa", ALL_KAPPAS)
    def test_one_pass_matches_one_body_formula(self, kappa):
        # Both bodies measured in one stack give the bits of each measured
        # alone, for bodies of different vertex counts.
        curv = Curvature(kappa)
        rng = RandomStream(61)
        bodies = ([random_body(curv, rng, n_points=n) for n in (3, 5, 8)]
                  + [random_segment(curv, rng), random_point(curv, rng)])
        for K in bodies:
            for L in bodies:
                ak, al, pk, pl = area(K), area(L), perimeter(K), perimeter(L)
                assert kinematic_rhs(K, L) == (
                    al + pk * pl / (2.0 * math.pi) + ak
                    - kappa * ak * al / (2.0 * math.pi))


class TestKinematicLhs:
    def test_minimum_samples_enforced(self):
        sq = unit_square()
        with pytest.raises(GeometryError):
            kinematic_lhs(sq, sq, 999, RandomStream(1))

    @pytest.mark.parametrize("kappa", REGIME_KAPPAS)
    def test_two_points_on_the_base_point(self, kappa):
        # Reach 0: no motion is drawn, and the integral over the disc of
        # radius 0 is exactly 0.
        p = point_body(exp_at_base(Curvature(kappa), 0.0, 0.0))
        est = kinematic_lhs(p, p, 2000, RandomStream(1))
        assert (est.mean, est.std_error, est.support_area) == (0.0, 0.0, 0.0)
        assert (est.face_settled, est.vertex_settled,
                est.mixed_tested) == (0, 2000, 0)

    @pytest.mark.parametrize("kappa", REGIME_KAPPAS)
    def test_two_points_draw_nothing(self, kappa):
        # Two points meet only on a null set of motions, wherever they lie:
        # two copies of one point off the base point, which recenter a
        # rounding error away from it, and two points apart.
        curv = Curvature(kappa)
        at = lambda r, t: point_body(exp_at_base(curv, r, t))
        for K, L in [(at(0.7, 1.0), at(0.7, 1.0)), (at(0.7, 1.0), at(0.5, 2.0))]:
            rng = RandomStream(3)
            before = philox_state(rng.generator)
            est = kinematic_lhs(K, L, 2000, rng)
            assert philox_state(rng.generator) == before
            assert (est.mean, est.std_error, est.hits,
                    est.support_area) == (0.0, 0.0, 0, 0.0)
            assert (est.face_settled, est.vertex_settled,
                    est.mixed_tested) == (0, 2000, 0)

    @pytest.mark.parametrize("kappa", REGIME_KAPPAS)
    def test_point_probe_recovers_area(self, kappa):
        curv = Curvature(kappa)
        body = random_body(curv, RandomStream(3))
        probe = point_body(exp_at_base(curv, 0.2, 1.0))
        est = kinematic_lhs(body, probe, 50000, RandomStream(5))
        assert abs(est.mean - area(body)) < 3 * est.std_error + 1e-6

    @pytest.mark.parametrize("kappa", REGIME_KAPPAS)
    def test_matches_rhs_small_pair(self, kappa):
        curv = Curvature(kappa)
        rng = RandomStream(7)
        ka = random_body(curv, rng)
        kb = random_body(curv, rng)
        est = kinematic_lhs(ka, kb, 50000, rng)
        rhs = kinematic_rhs(ka, kb)
        assert abs(est.mean - rhs) < max(3 * est.std_error, 1e-3 * rhs)

    def test_estimate_fields(self):
        sq = unit_square()
        est = kinematic_lhs(sq, sq, 2000, RandomStream(9))
        assert est.samples == 2000
        assert 0 < est.hits < 2000
        assert est.mean == est.support_area * (est.hits / 2000)
        assert est.std_error >= 0.0
        assert 0.0 <= est.mean <= est.support_area

    @pytest.mark.parametrize("kappa", REGIME_KAPPAS)
    def test_two_disc_closed_form(self, kappa):
        # For discs, overlap iff center distance <= a + b, so the integral
        # is exactly the area of the disc of radius a + b.
        # The 64-gon approximation biases the integral by O(1/n^2) relative
        # to the true-disc value, so the sample count is chosen to keep
        # 3 sigma above that bias.
        curv = Curvature(kappa)
        a = b = 0.5
        ka = regular_ngon(curv, a, 64)
        kb = regular_ngon(curv, b, 64)
        est = kinematic_lhs(ka, kb, 2000, RandomStream(11))
        target = disc_area(curv, a + b)
        assert abs(est.mean - target) < 3 * est.std_error

    def test_deterministic_given_seed(self):
        sq = unit_square()
        e1 = kinematic_lhs(sq, sq, 5000, RandomStream(13))
        e2 = kinematic_lhs(sq, sq, 5000, RandomStream(13))
        assert e1.mean == e2.mean

    @pytest.mark.parametrize("kappa", REGIME_KAPPAS)
    def test_decision_counts(self, kappa):
        # Every sample is settled by the face planes or sent to the
        # mixed-plane pass, and the counts repeat for a seed.  Only samples
        # at or below the hemisphere cut can reach the mixed pass, and off
        # the sphere there are none (TestHemisphereRule plants sphere pairs
        # with such samples).
        curv = Curvature(kappa)
        rng = RandomStream(47)
        polygon = random_body(curv, rng)
        point = point_body(exp_at_base(curv, 0.2, 1.0))
        for K, L in [(polygon, random_body(curv, rng)),
                     (polygon, random_segment(curv, rng)),
                     (random_segment(curv, rng), random_segment(curv, rng)),
                     (point, polygon)]:
            runs = [kinematic_lhs(K, L, 20_000, RandomStream(53))
                    for _ in range(2)]
            counts = [(e.face_settled, e.vertex_settled, e.mixed_tested)
                      for e in runs]
            assert counts[0] == counts[1]
            face, vertex, mixed = counts[0]
            assert face + vertex + mixed == 20_000
            assert vertex == 0  # no pair of two points
            tester = _OverlapTester(*_recenter([K, L])[2])
            (a, _), _, _ = sample_motions(curv, tester.reach, 20_000,
                                          RandomStream(53))
            far = np.count_nonzero(a <= tester.cut)
            assert mixed <= far
            if kappa <= 0:
                assert far == 0 and face == 20_000


class TestReusedBuffers:
    """The tester draws and builds each chunk in blocks it keeps; no result
    aliases them."""

    def pairs(self):
        rng = RandomStream(59)
        return [(random_body(Curvature(k), rng, n_points=8),
                 random_body(Curvature(k), rng, n_points=8))
                for k in (1.0, -1.0, 0.0, 1.0)]

    def test_same_as_new_buffers(self):
        # Chunks drawn into kept blocks, the last one short, count what one
        # draw into new arrays gives.
        for (K, L), n in zip(self.pairs(), (9000, 3000, 12_000, 5000)):
            est = kinematic_lhs(K, L, n, RandomStream(61))
            tester = _OverlapTester(*_recenter([K, L])[2])
            hits = tester.hits(*sample_motions(
                K.curvature, tester.reach, n, RandomStream(61)))
            assert est.hits == np.count_nonzero(hits)
            assert est.mean == est.support_area * (est.hits / n)

    def test_threads_match_serial(self):
        # More threads than cores estimate different pairs at once, three
        # calls each of different sizes, with thread switches forced often;
        # each estimate equals its serial run.
        import sys
        import threading

        pairs = self.pairs()
        workers = (os.cpu_count() or 1) + 2
        jobs = [[(pairs[(t + 2 * i) % 4], n, 100 * t + i)
                 for i, n in enumerate((20_000, 8000, 30_000))]
                for t in range(workers)]

        def run(batch, barrier=None):
            if barrier is not None:
                barrier.wait(timeout=60)
            return [kinematic_lhs(K, L, n, RandomStream(seed))
                    for (K, L), n, seed in batch]

        serial = [run(batch) for batch in jobs]
        barrier = threading.Barrier(workers)
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            with ThreadPoolExecutor(workers) as pool:
                futures = [pool.submit(run, batch, barrier) for batch in jobs]
                together = [f.result(timeout=120) for f in futures]
        finally:
            sys.setswitchinterval(interval)
        assert together == serial

    def test_interleaved_hits_are_independent(self):
        # 10,000 motions take three chunks, the last one short.
        K, L = self.pairs()[0]
        Kc, Lc = _recenter([K, L])[2]
        tester = _OverlapTester(Kc, Lc)
        draws = [sample_motions(K.curvature, tester.reach, 10_000,
                                RandomStream(s)) for s in (67, 71)]
        first, second = (tester.hits(*d) for d in draws)
        assert not np.shares_memory(first, second)
        for mask, d in zip((first, second), draws):
            assert np.array_equal(mask, _OverlapTester(Kc, Lc).hits(*d))
        assert not np.array_equal(first, second)


class TestPositionedDraws:
    """kinematic_lhs draws each chunk from copies of the caller's stream
    positioned at its offsets: the chunks are one sequential
    sample_motions, and the stream is left where that draw leaves it."""

    @pytest.mark.parametrize("n", [1000, 1001, 4097, 200_003])
    def test_chunks_are_one_sequential_draw(self, n, monkeypatch):
        chunks = []

        def recording(*args):
            motions = draw_motions(*args)
            (a, b), theta, phi = motions
            chunks.append([x.copy() for x in (a, b, theta, phi)])
            return motions

        monkeypatch.setattr(kinematics, "draw_motions", recording)
        rng = RandomStream(79)
        for kappa in REGIME_KAPPAS:
            curv = Curvature(kappa)
            K, L = random_body(curv, rng), random_body(curv, rng)
            tester = _OverlapTester(*_recenter([K, L])[2])
            for lead in STREAM_LEADS:
                chunked, drawn = RandomStream(83), RandomStream(83)
                for stream in (chunked, drawn):
                    lead(stream.generator)
                chunks.clear()
                est = kinematic_lhs(K, L, n, chunked)
                assert len(chunks) == -(-n // tester.chunk)
                assert {len(c[0]) for c in chunks[:-1]} <= {tester.chunk}
                (a, b), theta, phi = sample_motions(curv, tester.reach, n,
                                                    drawn)
                for got, want in zip(zip(*chunks), (a, b, theta, phi)):
                    assert np.array_equal(np.concatenate(got), want)
                assert est.hits == np.count_nonzero(
                    tester.hits((a, b), theta, phi))
                assert philox_state(chunked.generator) == philox_state(
                    drawn.generator)
                assert next_draws(chunked.generator) == next_draws(
                    drawn.generator)


class TestMemory:
    """No array of kinematic_lhs grows with the sample count."""

    @pytest.mark.parametrize("kappa", REGIME_KAPPAS)
    def test_peak_does_not_grow_with_samples(self, kappa):
        # In a fresh thread, so no block kept by an earlier call hides the
        # first call's growth.
        curv = Curvature(kappa)
        rng = RandomStream(89)
        K, L = random_body(curv, rng), random_body(curv, rng)

        def peak(n):
            tracemalloc.reset_peak()
            before = tracemalloc.get_traced_memory()[0]
            kinematic_lhs(K, L, n, RandomStream(97))
            return tracemalloc.get_traced_memory()[1] - before

        tracing = tracemalloc.is_tracing()
        if not tracing:
            tracemalloc.start()
        try:
            with ThreadPoolExecutor(1) as pool:
                small, large = pool.submit(
                    lambda: (peak(20_000), peak(2_000_000))).result(timeout=120)
        finally:
            if not tracing:
                tracemalloc.stop()
        assert large <= small + 256 * 1024, (small, large)


class OldCrossing:
    """The overlap tester's own boundary-crossing predicate, as it was before
    it called convex.arc_crossings; kept verbatim as a differential oracle."""

    def __init__(self, K, L):
        self.vK = K.vertex_array
        idx = np.array(K.edges)
        p = self.vK[idx[:, 0]]
        q = self.vK[idx[:, 1]]
        p = p / np.linalg.norm(p, axis=1, keepdims=True)
        q = q / np.linalg.norm(q, axis=1, keepdims=True)
        self.pK, self.qK = p, q
        self.nK = np.cross(p, q)
        self.g11 = np.sum(p * p, axis=1)
        self.g12 = np.sum(p * q, axis=1)
        self.g22 = np.sum(q * q, axis=1)
        self.L_edge_idx = np.array(L.edges)

    def __call__(self, vL):
        idx = self.L_edge_idx
        a = vL[:, idx[:, 0]]
        b = vL[:, idx[:, 1]]
        a = a / np.linalg.norm(a, axis=2, keepdims=True)
        b = b / np.linalg.norm(b, axis=2, keepdims=True)
        nL = np.cross(a, b)
        # d[m, i, e] = direction of the intersection of K edge i and L edge e.
        d = np.cross(self.nK[None, :, None, :], nL[:, None, :, :])
        b1 = np.einsum("ic,miec->mie", self.pK, d)
        b2 = np.einsum("ic,miec->mie", self.qK, d)
        det = (self.g11 * self.g22 - self.g12 ** 2)[None, :, None]
        alpha = (b1 * self.g22[None, :, None] - b2 * self.g12[None, :, None]) / det
        beta = (b2 * self.g11[None, :, None] - b1 * self.g12[None, :, None]) / det
        h11 = np.sum(a * a, axis=2)
        h12 = np.sum(a * b, axis=2)
        h22 = np.sum(b * b, axis=2)
        c1 = np.einsum("mec,miec->mie", a, d)
        c2 = np.einsum("mec,miec->mie", b, d)
        hdet = (h11 * h22 - h12 ** 2)[:, None, :]
        gamma = (c1 * h22[:, None, :] - c2 * h12[:, None, :]) / hdet
        delta = (c2 * h11[:, None, :] - c1 * h12[:, None, :]) / hdet
        eps = 1e-12
        pos = (alpha > eps) & (beta > eps) & (gamma > eps) & (delta > eps)
        neg = (alpha < -eps) & (beta < -eps) & (gamma < -eps) & (delta < -eps)
        return np.any(pos | neg, axis=(1, 2))


def random_segment(curv, rng, rho=0.7):
    a, b = (exp_at_base(curv, float(rng.uniform(0.05, rho)),
                        float(rng.uniform(0, 2 * math.pi))) for _ in range(2))
    return segment_body(a, b)


class TestCrossingOracle:
    """The shared arc-crossing kernel against the tester's old predicate,
    and the overlap tester against the old tester on the same motions.

    The kernel crosses unit plane normals where the old predicate crossed
    raw ones; the two agree on ordinary bodies and part only on arcs short
    enough for the old absolute threshold to swallow a crossing.
    """

    MOTIONS = 25_000

    def pairs(self, curv, rng):
        polygon = lambda: random_body(curv, rng, n_points=8)
        segment = lambda: random_segment(curv, rng)
        return [(polygon(), polygon()) for _ in range(4)] + [
            (polygon(), segment()), (polygon(), segment()),
            (segment(), polygon()), (segment(), segment())]

    @pytest.mark.parametrize("kappa", REGIME_KAPPAS)
    def test_same_predicate_and_hits(self, kappa):
        # 8 pairs x 25000 motions: 2e5 per regime.  The predicate sees every
        # motion here, on the same moved vertices as the old one.
        curv = Curvature(kappa)
        rng = RandomStream(211)
        crossed = motions = 0
        for K, L in self.pairs(curv, rng):
            Kc, Lc = _recenter([K, L])[2]
            tester = _OverlapTester(Kc, Lc)
            support = tester.reach
            radial, theta, phi = sample_motions(curv, support, self.MOTIONS,
                                                rng)
            mats = basis_matrices(curv, motion_basis(curv, radial, theta, phi))
            oracle = OldCrossing(Kc, Lc)
            pK, qK = unit_arcs(Kc.vertex_array, Kc.edges)
            for lo in range(0, len(mats), 5000):
                vL = np.einsum("nij,kj->nki", mats[lo:lo + 5000],
                               Lc.vertex_array)
                _, pairs = arc_crossings(pK, qK, *unit_arcs(vL, Lc.edges))
                new = np.any(pairs, axis=(1, 2))
                assert np.array_equal(new, oracle(vL))
                crossed += int(np.count_nonzero(new))
            hits = tester.hits(radial, theta, phi)
            old = OldOverlapTester(ParentPolygon(Kc), ParentPolygon(Lc)).hits(
                to_parent(curv, mats, matrix=True), reach=support)
            assert np.array_equal(hits, old)
            motions += len(mats)
        assert motions >= 100_000
        assert 0 < crossed < motions

    @pytest.mark.parametrize("kappa", REGIME_KAPPAS)
    def test_tiny_crossing_segments(self, kappa):
        # Two crossing segments of length 2e-7 overlap only by crossing;
        # the integral is P_K P_L / 2pi.
        curv = Curvature(kappa)
        K, L = (segment_body(exp_at_base(curv, 1e-7, t),
                             exp_at_base(curv, 1e-7, t + math.pi))
                for t in (0.0, math.pi / 2))
        est = kinematic_lhs(K, L, 20000, RandomStream(41))
        rhs = kinematic_rhs(K, L)
        assert est.mean > 0
        assert abs(est.mean - rhs) < max(3 * est.std_error, 1e-3 * rhs)

    def test_small_crossing_segments_on_the_sphere(self):
        # Crossing segments of half-length 0.01 on the unit sphere, in
        # criterion 01's band.  The integral, about 2.5e-4, is 2e-5 of the
        # sphere's area, so only samples drawn in the cap that holds every
        # overlap see hits at n = 2e4.
        curv = Curvature(1.0)
        K, L = (segment_body(exp_at_base(curv, 0.01, t),
                             exp_at_base(curv, 0.01, t + math.pi))
                for t in (0.0, math.pi / 2))
        est = kinematic_lhs(K, L, 20000, RandomStream(43))
        rhs = kinematic_rhs(K, L)
        assert est.std_error > 0
        assert abs(est.mean - rhs) <= max(3 * est.std_error, 1e-3 * rhs)


class OldOverlapTester:
    """The overlap tester as it was before the fused kernel, kept verbatim
    (bar its name and this docstring) as a differential oracle: it takes an
    (n, 3, 3) stack of motion matrices and moves L's vertices with einsum."""

    def __init__(self, K: GeodesicPolygon, L: GeodesicPolygon):
        K.curvature.require_same(L.curvature)
        self.curv = K.curvature
        self.K = K
        self.L = L
        self.vK = K.vertex_array
        self.vL = L.vertex_array
        scale = float(max(np.max(np.abs(self.vK)), 1.0))
        self.tol = EPS * scale
        # Pre-apply the form signs so a plain dot gives signed distances.
        self.K_normals_flat = (K.edge_normals * (_J if self.curv.kappa < 0
                                                 else np.ones(3))
                               if K.dim == 2 else None)
        self.pK, self.qK = unit_arcs(self.vK, K.edges)

    def hits(self, mats: np.ndarray, chunk: int = 20000,
             reach: Optional[float] = None) -> np.ndarray:
        out = np.empty(len(mats), dtype=bool)
        for lo in range(0, len(mats), chunk):
            hi = min(lo + chunk, len(mats))
            block = mats[lo:hi]
            if self.curv.kappa > 0 and reach is not None:
                # Overlap needs the moved base point within reach of the
                # base point; its cosine distance is just M[2, 2].
                cut = math.cos(min(math.pi, self.curv.scale * reach))
                near = block[:, 2, 2] >= cut
                sub = np.zeros(hi - lo, dtype=bool)
                if np.any(near):
                    sub[near] = self._hits_chunk(block[near])
                out[lo:hi] = sub
            else:
                out[lo:hi] = self._hits_chunk(block)
        return out

    def _hits_chunk(self, mats: np.ndarray) -> np.ndarray:
        n = len(mats)
        vL = np.einsum("nij,kj->nki", mats, self.vL)
        hit = np.zeros(n, dtype=bool)
        # (a) some vertex of the moved L inside K
        if self.K_normals_flat is not None:
            s = np.einsum("nkc,jc->nkj", vL, self.K_normals_flat)
            hit |= np.any(np.all(s >= -self.tol, axis=2), axis=1)
        # (b) some vertex of K inside the moved L
        if self.L.dim == 2:
            crossL = np.cross(vL, np.roll(vL, -1, axis=1))
            s2 = np.einsum("nec,vc->nev", crossL, self.vK)
            hit |= np.any(np.all(s2 >= -self.tol, axis=1), axis=1)
        if self.curv.kappa <= 0 and self.K.dim == 2 and self.L.dim == 2:
            # In the affine (flat) or Klein (hyperbolic) chart both bodies
            # are convex Euclidean polygons and the edge signs above are
            # chart side signs, so separating-axis decides overlap outright.
            sepK = np.any(np.all(s < -self.tol, axis=1), axis=1)
            sepL = np.any(np.all(s2 < -self.tol, axis=2), axis=1)
            return ~(sepK | sepL)
        # (c) boundaries cross without vertex containment
        if self.K.dim >= 1 and self.L.dim >= 1:
            undecided = np.nonzero(~hit)[0]
            # Sub-chunk: the predicate builds (m, edges_K, edges_L, 3)
            # arrays, so bound m by the edge-pair count.
            pairs = len(self.pK) * len(self.L.edges)
            block = max(1, 2_000_000 // pairs)
            for lo in range(0, len(undecided), block):
                sub = undecided[lo:lo + block]
                hit[sub] = self._crossing(vL[sub])
        if self.K.dim == 0 and self.L.dim == 0:
            d = np.linalg.norm(vL[:, 0] - self.vK[0], axis=1)
            hit |= d <= self.tol
        return hit

    def _crossing(self, vL: np.ndarray) -> np.ndarray:
        _, crossed = arc_crossings(self.pK, self.qK,
                                   *unit_arcs(vL, self.L.edges))
        return np.any(crossed, axis=(1, 2))


def random_point(curv, rng, rho=0.7):
    return point_body(exp_at_base(curv, float(rng.uniform(0.0, rho)),
                                  float(rng.uniform(0, 2 * math.pi))))


class TestOverlapKernel:
    """The fused kernel decides exactly as the tester it replaced."""

    MOTIONS = 100_000

    def pairs(self, curv, rng):
        polygon = lambda: random_body(curv, rng, n_points=8)
        segment = lambda: random_segment(curv, rng)
        point = lambda: random_point(curv, rng)
        return [(polygon(), polygon()) for _ in range(4)] + [
            (segment(), polygon()), (polygon(), segment()),
            (point(), polygon()), (polygon(), point()),
            (segment(), segment()), (polygon(), random_body(curv, rng, 3))]

    @pytest.mark.parametrize("kappa", REGIME_KAPPAS)
    def test_same_hits_as_old_tester(self, kappa):
        # 10 pairs x 1e5 motions: 1e6 per regime, segment and point bodies
        # on either side.  The old tester gets the same motions as matrices.
        curv = Curvature(kappa)
        rng = RandomStream(307)
        motions = 0
        for K, L in self.pairs(curv, rng):
            Kc, Lc = _recenter([K, L])[2]
            tester = _OverlapTester(Kc, Lc)
            support = tester.reach
            radial, theta, phi = sample_motions(curv, support, self.MOTIONS,
                                                rng)
            new = tester.hits(radial, theta, phi)
            old = OldOverlapTester(ParentPolygon(Kc), ParentPolygon(Lc)).hits(
                to_parent(curv, basis_matrices(curv, motion_basis(
                    curv, radial, theta, phi)), matrix=True), reach=support)
            assert np.array_equal(new, old)
            assert 0 < np.count_nonzero(new) < len(new)
            motions += len(new)
        assert motions >= 1_000_000

    @pytest.mark.parametrize("kappa", REGIME_KAPPAS)
    def test_no_overlap_outside_the_support(self, kappa):
        # kinematic_lhs samples only the disc of the tester's reach about
        # the base point.  That holds every overlap: a motion whose base
        # point lands in a ring just outside it never overlaps.
        curv = Curvature(kappa)
        rng = RandomStream(311)
        polygon = lambda: random_body(curv, rng)
        segment = lambda: random_segment(curv, rng)
        for K, L in [(polygon(), polygon()), (polygon(), segment()),
                     (segment(), segment()), (random_point(curv, rng),
                                              polygon())]:
            tester = _OverlapTester(*_recenter([K, L])[2])
            support = tester.reach
            inside = tester.hits(*sample_motions(curv, support, 20_000, rng))
            assert np.count_nonzero(inside) > 0
            r = support * (1.0 + rng.uniform(0.0, 0.05, 20_000))
            ring = tester.hits(gen_cos_sin(curv, r),
                               rng.uniform(0.0, 2 * math.pi, 20_000),
                               rng.uniform(0.0, 2 * math.pi, 20_000))
            assert not ring.any()

    def test_point_bodies(self):
        # Two points meet only when they coincide.
        curv = Curvature(0.0)
        p = point_body(exp_at_base(curv, 0.0, 0.0))
        tester = _OverlapTester(p, p)
        hits = tester.hits(gen_cos_sin(curv, np.array([0.0, 1e-3, 0.0])),
                           np.zeros(3), np.array([0.0, 0.0, 2.0]))
        assert hits.tolist() == [True, False, True]

    @pytest.mark.parametrize("kappa", REGIME_KAPPAS)
    def test_degenerate_pairs_at_the_identity(self, kappa):
        # A point on a segment meets it; two points meet only where they
        # coincide, with no band: points 5e-10 apart do not meet.  Segments
        # on one geodesic meet only where they overlap.
        curv = Curvature(kappa)
        at = lambda r: point_body(exp_at_base(curv, r, 0.0))
        span = lambda r0, r1: segment_body(exp_at_base(curv, r0, 0.0),
                                           exp_at_base(curv, r1, 0.0))
        identity = (gen_cos_sin(curv, np.zeros(1)), np.zeros(1), np.zeros(1))
        for K, L, meet in [(at(0.3), span(0.1, 0.5), True),
                           (span(0.1, 0.5), at(0.3), True),
                           (at(0.3), at(0.3), True),
                           (at(0.3), at(0.3 + 5e-10), False),
                           (span(0.1, 0.3), span(0.2, 0.5), True),
                           (span(0.1, 0.3), span(0.4, 0.5), False)]:
            assert _OverlapTester(K, L).hits(*identity).tolist() == [meet]
            assert exact.cones_meet(K.vertex_array, np.eye(3),
                                    L.vertex_array) == meet


class TestHemisphereRule:
    """A motion at polar r with r + rho_K + rho_L < pi/sqrt(kappa), rho the
    largest distance of a body's vertices from the base point, keeps both
    bodies in one open hemisphere, where the face planes decide.  Sphere
    pairs with r_K + r_L > pi/(2 sqrt(kappa)) have samples past that cut,
    and those that no face separates go to the mixed pass; every motion
    must still be decided exactly."""

    MOTIONS = 1_500

    def pairs(self, curv):
        unit = 1.0 / math.sqrt(curv.kappa)

        def segment(r, t):
            return segment_body(exp_at_base(curv, r * unit, t),
                                exp_at_base(curv, r * unit, t + math.pi))
        pentagon = regular_ngon(curv, 1.2 * unit, 5)
        # Small squares away from the base point: far only by rho.
        moved = regular_ngon(curv, 0.3 * unit, 4).transformed(
            translation_by_polar(curv, 1.0 * unit, 2.0))
        return [(pentagon, regular_ngon(curv, 1.0 * unit, 4)),
                (pentagon, segment(1.0, 0.3)),
                (segment(1.2, 0.0), segment(1.0, 1.0)),
                (moved, moved),
                (point_body(exp_at_base(curv, 1.0 * unit, 0.5)), pentagon)]

    @pytest.mark.parametrize("kappa", [1.0, 0.25])
    def test_far_samples_are_decided_exactly(self, kappa):
        curv = Curvature(kappa)
        rng = RandomStream(419)
        mixed_misses = 0
        for K, L in self.pairs(curv):
            reach = sum(float(np.max(exact.to_float([exact.distance(
                kappa, v, [0.0, 0.0, 1.0]) for v in body.vertex_array])))
                for body in (K, L))
            assert reach > curv.hemisphere_limit
            radial, theta, phi = sample_motions(curv, reach, self.MOTIONS, rng)
            tester = _OverlapTester(K, L)
            hits = tester.hits(radial, theta, phi)
            assert 0 < np.count_nonzero(hits) < len(hits)
            mats = basis_matrices(curv, motion_basis(curv, radial, theta, phi))
            assert hits.tolist() == [exact.cones_meet(
                K.vertex_array, m, L.vertex_array) for m in mats]
            far = radial[0] <= tester.cut
            mixed = tester.counts["mixed_tested"]
            if not K.dim:
                # A point is in a polygon's cone or outside one of its faces.
                assert mixed == 0 and "mixed" not in vars(tester)
                continue
            # No face plane settles a far hit; far misses it leaves count too.
            assert 0 < np.count_nonzero(far & hits) <= mixed
            assert mixed <= np.count_nonzero(far) < len(far)
            mixed_misses += mixed - np.count_nonzero(far & hits)
        # Misses that only a mixed plane separates: the mixed rows matter.
        assert mixed_misses > 0

    def test_mixed_table_holds_each_plane_once(self):
        # Two rows per polygon vertex and one per segment end, whose two
        # neighbours are one vertex, for each vertex pair; none repeats.
        curv = Curvature(1.0)
        for (K, L), rows in zip(self.pairs(curv), (80, 30, 8, 64)):
            table = _OverlapTester(K, L).mixed
            assert len(table) == len(np.unique(table, axis=0)) == rows

    def test_small_sphere_pairs_build_no_mixed_table(self):
        curv = Curvature(1.0)
        rng = RandomStream(421)
        polygon = lambda: random_body(curv, rng)
        segment = lambda: random_segment(curv, rng)
        for K, L in [(polygon(), polygon()), (polygon(), segment()),
                     (segment(), segment())]:
            tester = _OverlapTester(*_recenter([K, L])[2])
            assert tester.reach < curv.hemisphere_limit
            hits = tester.hits(*sample_motions(curv, tester.reach, 20_000,
                                               rng))
            assert 0 < np.count_nonzero(hits) < len(hits)
            assert tester.counts["face_settled"] == len(hits)
            assert "mixed" not in vars(tester)


class TestTinyBodies:
    """Bodies of size 1e-6 and 2e-7, where the old tester's EPS tolerance
    and its arc test's 1e-12 threshold meet the bodies' own scale.  The
    overlap of the float motion, decided by exact orientation signs, must
    side with the tester wherever the two testers disagree, and agree with
    it on every motion of a smaller draw."""

    MOTIONS = 35_000
    EXACT_MOTIONS = 2_000

    def pairs(self, curv):
        def crossing(length):
            h = 0.5 * length
            return tuple(segment_body(exp_at_base(curv, h, t),
                                      exp_at_base(curv, h, t + math.pi))
                         for t in (0.0, math.pi / 2))
        square = regular_ngon(curv, 1e-6 / math.sqrt(2.0), 4)
        return [crossing(1e-6), crossing(2e-7), (square, square),
                (square, crossing(1e-6)[0])]

    @pytest.mark.parametrize("kappa", REGIME_KAPPAS)
    def test_disagreements_are_settled_for_the_tester(self, kappa):
        # 3 pairs x 35000 motions per regime, drawn in a disc just wider
        # than the pair's reach, so about one in ten overlaps: enough for
        # the rare near-crossings that part the testers.  The two squares
        # are left to test_every_motion_is_exact: the old tester's band
        # reads them as meeting on up to half the motions, and re-deciding
        # each such motion exactly cost nearly all of this test's time.
        curv = Curvature(kappa)
        rng = RandomStream(401)
        settled = 0
        pairs = self.pairs(curv)
        del pairs[2]
        for K, L in pairs:
            rho = 1.2 * (circumradius(K)[0] + circumradius(L)[0])
            radial, theta, phi = sample_motions(curv, rho, self.MOTIONS,
                                                rng)
            mats = basis_matrices(curv, motion_basis(curv, radial, theta, phi))
            new = _OverlapTester(K, L).hits(radial, theta, phi)
            old = OldOverlapTester(ParentPolygon(K), ParentPolygon(L)).hits(
                to_parent(curv, mats, matrix=True))
            assert np.count_nonzero(new) > 0
            for i in np.flatnonzero(new != old):
                assert exact.cones_meet(K.vertex_array, mats[i],
                                        L.vertex_array) == new[i]
                settled += 1
        # The 2e-7 segments alone part the two testers dozens of times.
        assert settled > 0

    @pytest.mark.parametrize("kappa", REGIME_KAPPAS)
    def test_every_motion_is_exact(self, kappa):
        # Every motion, not only where the testers disagree: a tolerance
        # band of EPS scale would read the 1e-6 squares as meeting on about
        # half the sphere's motions and one in fifteen elsewhere.
        curv = Curvature(kappa)
        rng = RandomStream(409)
        for K, L in self.pairs(curv):
            rho = 1.2 * (circumradius(K)[0] + circumradius(L)[0])
            radial, theta, phi = sample_motions(curv, rho,
                                                self.EXACT_MOTIONS, rng)
            mats = basis_matrices(curv, motion_basis(curv, radial, theta, phi))
            hits = _OverlapTester(K, L).hits(radial, theta, phi)
            assert 0 < np.count_nonzero(hits) < len(hits)
            assert hits.tolist() == [exact.cones_meet(
                K.vertex_array, m, L.vertex_array) for m in mats]
        # Collinear segments slid along their geodesic: theta = phi = 0
        # keeps every y coordinate exactly 0, so each edge pair is coplanar.
        def span(x0, x1):
            # Rows at signed distances x along the theta = 0 geodesic.
            return GeodesicPolygon(np.array([
                exp_at_base(curv, abs(x), 0.0).coords * [math.copysign(
                    1.0, x), 1.0, 1.0] for x in (x0, x1)]), curv)
        for h in (5e-7, 0.2):
            r = rng.uniform(0.0, 7.0 * h, 200)
            zero = np.zeros(len(r))
            mats = basis_matrices(curv, motion_basis(
                curv, gen_cos_sin(curv, r), zero, zero))
            assert not mats[:, 1, [0, 2]].any()
            # The slide by r meets K for r in [lo, hi].
            for K, L, lo, hi in [(span(-h, h), span(-h, h), 0.0, 2 * h),
                                 (span(-h, h), span(-5 * h, -2 * h), h,
                                  6 * h)]:
                hits = _OverlapTester(K, L).hits(gen_cos_sin(curv, r),
                                                 zero, zero)
                assert hits.tolist() == ((lo <= r) & (r <= hi)).tolist()
                assert hits.tolist() == [exact.cones_meet(
                    K.vertex_array, m, L.vertex_array) for m in mats]


class TestScaleCovariance:
    """(x, y, z; kappa) -> (lx, ly, z; kappa / l^2) maps bodies to bodies
    with lengths times l, and a motion with radial pair (a, b) to the one
    with (a, l b).  For l = 2^k both maps are exact in floats and scale
    every row product of the tester by a power of two, so the hit masks of
    a pair and of its image must be equal bit for bit."""

    MOTIONS = 20_000

    @staticmethod
    def scaled(K, lam):
        rows = K.vertex_array * np.array([lam, lam, 1.0])
        return GeodesicPolygon(rows, Curvature(K.curvature.kappa / lam ** 2))

    @pytest.mark.parametrize("kappa", REGIME_KAPPAS)
    def test_power_of_two_images_hit_alike(self, kappa):
        curv = Curvature(kappa)
        rng = RandomStream(3)
        for _ in range(6):
            K, L = _recenter([random_body(curv, rng)
                              for _ in range(2)])[2]
            tester = _OverlapTester(K, L)
            (a, b), theta, phi = sample_motions(curv, tester.reach,
                                                self.MOTIONS, rng)
            hits = tester.hits((a, b), theta, phi)
            assert 0 < np.count_nonzero(hits) < len(hits)
            for k in (-24, -20, -16, -10, 10, 20):
                lam = 2.0 ** k
                image = _OverlapTester(self.scaled(K, lam), self.scaled(L, lam))
                assert np.array_equal(
                    image.hits((a, lam * b), theta, phi), hits), k

    @pytest.mark.parametrize("kappa", REGIME_KAPPAS)
    def test_kinematic_lhs_scales_with_the_bodies(self, kappa):
        # The sampled disc is the tester's reach, which scales with the
        # bodies, so a pair and its image hit alike on one stream and W
        # and the mean scale by l^2: exactly on the plane, within rounding
        # of support_area's gen_sin elsewhere.
        curv = Curvature(kappa)
        rng = RandomStream(5)
        pairs = [(random_body(curv, rng), random_body(curv, rng)),
                 (random_segment(curv, rng), random_segment(curv, rng)),
                 (random_point(curv, rng), random_body(curv, rng))]
        tol = 0.0 if kappa == 0 else 1e-13
        for K, L in pairs:
            est = kinematic_lhs(K, L, self.MOTIONS, RandomStream(7))
            assert 0 < est.hits < self.MOTIONS
            for k in (-22, -20, -10, 10, 20):
                lam = 2.0 ** k
                image = kinematic_lhs(self.scaled(K, lam), self.scaled(L, lam),
                                      self.MOTIONS, RandomStream(7))
                assert image.hits == est.hits, k
                for got, want in ((image.support_area, est.support_area),
                                  (image.mean, est.mean)):
                    assert abs(got - lam ** 2 * want) <= tol * got, k


class TestContainmentCriterion:
    def test_two_disc_ngons_near_equality(self):
        # The true-disc pair sits exactly on the equality case; an inscribed
        # 64-gon overshoots it by O(1/n^2), so equality only holds to that
        # order.
        c = Curvature(0.0)
        disc = regular_ngon(c, 1.0, 64)
        assert containment_criterion(disc, disc, slack=5e-2)
        assert not containment_criterion(disc, disc, slack=-5e-2)

    def test_thin_rectangle_fails(self):
        rect = convex_hull([flat_point(x, y)
                            for x in (0.0, 10.0) for y in (0.0, 0.1)])
        assert not containment_criterion(rect, rect)

    def test_huge_disc_absorbs(self):
        c = Curvature(-1.0)
        small = regular_ngon(c, 0.2, 8)
        big = regular_ngon(c, 2.0, 64)
        assert containment_criterion(small, big)

    def test_degenerate_flagged(self):
        c = Curvature(0.0)
        seg = segment_body(flat_point(0, 0), flat_point(1, 0))
        with pytest.raises(GeometryError):
            containment_criterion(seg, unit_square())


def _score_batch(vI: np.ndarray, outer_normals_flat: np.ndarray,
                 mats: np.ndarray) -> np.ndarray:
    """Worst signed distance of moved inner vertices against outer's edges."""
    moved = np.einsum("nij,kj->nki", mats, vI)
    s = np.einsum("nkc,jc->nkj", moved, outer_normals_flat)
    return np.min(s, axis=(1, 2))


class TestFindContainment:
    @pytest.mark.parametrize("kappa", REGIME_KAPPAS)
    def test_table_scores_match_the_einsum_scorer(self, kappa):
        # find_containment scores a batch with the Monte Carlo kernel's
        # outer-product table; _score_batch, which it replaced, is kept
        # verbatim as the oracle and gets the same motions as matrices.
        curv = Curvature(kappa)
        rng = RandomStream(43)
        for _ in range(50):
            outer = random_body(curv, rng, n_points=6)
            inner = random_body(curv, rng, n_points=5, rho=0.3)
            r = np.abs(rng.normal(0.0, 0.5, 256))
            theta, phi = rng.uniform(0.0, 2 * math.pi, (2, 256))
            table = _outer_table(outer.edge_normals, inner.vertex_array)
            new = np.min(fold_table(curv, table) @ motion_basis(
                curv, gen_cos_sin(curv, r), theta, phi), axis=0)
            nf = ParentPolygon(outer).edge_normals * (
                _J if kappa < 0 else np.ones(3))
            old = _score_batch(
                to_parent(curv, inner.vertex_array), nf,
                to_parent(curv, motion_matrices(curv, r, theta, phi),
                          matrix=True))
            assert np.all(np.abs(new - old) <= 1e-14 * (1.0 + np.abs(old)))
            assert int(np.argmax(new)) == int(np.argmax(old))

    @pytest.mark.parametrize("kappa", REGIME_KAPPAS)
    def test_concentric_discs(self, kappa):
        # At budget 1 the one sample is the concentric placement, which
        # goes to the only order that can succeed.
        curv = Curvature(kappa)
        small = regular_ngon(curv, 0.2, 32)
        big = regular_ngon(curv, 0.8, 32)
        for budget in (5000, 1):
            g = find_containment(small, big, budget, RandomStream(17))
            assert g is not None
            assert g.check_form()
            assert body_contains(big, small.transformed(g))

    @pytest.mark.parametrize("kappa", REGIME_KAPPAS)
    def test_displaced_bodies(self, kappa):
        curv = Curvature(kappa)
        small = regular_ngon(curv, 0.15, 5).transformed(
            translation_by_polar(curv, 0.6, 2.0))
        big = regular_ngon(curv, 0.7, 7).transformed(
            translation_by_polar(curv, 0.5, 5.0))
        g = find_containment(small, big, 10000, RandomStream(19))
        assert g is not None
        assert body_contains(big, small.transformed(g))

    @pytest.mark.parametrize("kappa,parent_found", [(1.0, 57), (0.0, 58),
                                                    (-1.0, 58)])
    def test_tight_pairs(self, kappa, parent_found):
        # A body and its copy shrunk by 0.97 about its incenter, turned and
        # moved, so the copy fits only near one placement.  The search that
        # split its budget 4/5 and 1/5 between both orders found
        # parent_found of these 60; one order with the whole budget must
        # find as many.
        curv = Curvature(kappa)
        gen, searches = RandomStream(61), RandomStream(67).split(60)
        found = 0
        for i, search in enumerate(searches):
            K = random_body(curv, gen, n_points=8)
            to_in = translation_to(inradius(K)[1])
            r, theta = np.array([point_polar(v) for v in K.transformed(
                to_in.inverse()).vertices]).T
            L = convex_hull(polar_rows(curv, 0.97 * r, theta), curv)
            g = to_in @ Isometry(motion_matrices(curv, *gen.uniform(
                0.0, [0.5, 2 * math.pi, 2 * math.pi]))[0], curv)
            pair = (K, L.transformed(g))
            if i % 2:  # either body first: the search picks the inner one
                pair = pair[::-1]
            found += find_containment(*pair, 10000, search) is not None
        assert found >= parent_found

    def test_order_agnostic(self):
        # The witness may move either body into the other.
        curv = Curvature(0.0)
        small = regular_ngon(curv, 0.2, 16)
        big = regular_ngon(curv, 0.9, 16)
        g = find_containment(big, small, 5000, RandomStream(23))
        assert g is not None
        assert (body_contains(small, big.transformed(g))
                or body_contains(big, small.transformed(g)))

    @pytest.mark.parametrize("kappa", REGIME_KAPPAS)
    def test_segment_holds_nothing(self, kappa):
        # The segment has the larger circumradius, so it would be the outer
        # body, and a body with no interior holds nothing.
        curv = Curvature(kappa)
        small = regular_ngon(curv, 0.1, 5)
        long = segment_body(exp_at_base(curv, 0.5, 0.0),
                            exp_at_base(curv, 0.5, math.pi))
        for K, L in [(small, long), (long, small)]:
            assert find_containment(K, L, 1000, RandomStream(37)) is None

    @pytest.mark.parametrize("kappa", REGIME_KAPPAS)
    def test_restarts_and_gives_up(self, kappa):
        # A triangle of circumradius 0.5 fits in no strip 0.1 wide: the
        # descent shrinks its step below 1e-12 (1 + r_out), restarts at
        # r_out, and the budget runs out.
        class Recording(RandomStream):
            def normal(self, loc=0.0, scale=1.0, size=None):
                steps.append(scale)
                return super().normal(loc, scale, size)
        curv = Curvature(kappa)
        triangle = regular_ngon(curv, 0.5, 3)
        strip = convex_hull([exp_at_base(curv, math.hypot(0.55, 0.05),
                                         math.atan2(y, x))
                             for x in (0.55, -0.55) for y in (0.05, -0.05)])
        r_out = circumradius(strip)[0]
        steps = []
        assert find_containment(triangle, strip, 40_000, Recording(5)) is None
        tiny = next(i for i, step in enumerate(steps) if step < 1e-11)
        assert r_out in steps[tiny:]

    def test_first_witness_fails_verification(self, monkeypatch):
        # A witness that fails verification is dropped and the search goes
        # on; what it returns is verified.
        import curvedkin.kinematics as kinematics
        verdicts = []

        def fail_first(outer, inner):
            verdicts.append(bool(verdicts) and body_contains(outer, inner))
            return verdicts[-1]
        monkeypatch.setattr(kinematics, "body_contains", fail_first)
        curv = Curvature(0.0)
        small, big = regular_ngon(curv, 0.2, 32), regular_ngon(curv, 0.8, 32)
        g = find_containment(small, big, 5000, RandomStream(17))
        assert g is not None and len(verdicts) >= 2 and not verdicts[0]
        assert body_contains(big, small.transformed(g))

    @pytest.mark.parametrize("kappa", REGIME_KAPPAS)
    def test_criterion_pairs_yield_witnesses(self, kappa):
        curv = Curvature(kappa)
        gen = RandomStream(29)
        search = RandomStream(31)
        found = total = 0
        while total < 25:
            a = random_body(curv, gen, n_points=5, rho=0.5)
            b = random_body(curv, gen, n_points=5, rho=0.5)
            if not containment_criterion(a, b, slack=-1e-3):
                continue
            total += 1
            if find_containment(a, b, 10000, search) is not None:
                found += 1
        assert found == total


class TestBodyContains:
    """body_contains tests every inner row at once, with the verdict of
    contains_point at each inner vertex."""

    @staticmethod
    def per_vertex(outer, inner):
        return all(contains_point(outer, v) for v in inner.vertices)

    @pytest.mark.parametrize("kappa", REGIME_KAPPAS)
    def test_witnesses(self, kappa):
        curv = Curvature(kappa)
        gen, search = RandomStream(29), RandomStream(31)
        found = 0
        while found < 8:
            a = random_body(curv, gen, n_points=5, rho=0.5)
            b = random_body(curv, gen, n_points=5, rho=0.5)
            if not containment_criterion(a, b, slack=-1e-3):
                continue
            g = find_containment(a, b, 10000, search)
            if g is None:
                continue
            found += 1
            verdicts = []
            for outer, inner in ((b, a.transformed(g)), (a, b.transformed(g))):
                verdicts.append(body_contains(outer, inner))
                assert verdicts[-1] == self.per_vertex(outer, inner)
            assert any(verdicts)

    @pytest.mark.parametrize("kappa", REGIME_KAPPAS)
    def test_near_boundary(self, kappa):
        # Point, segment and polygon bodies against copies of themselves
        # and of their last vertex, moved by up to a few EPS: vertices on
        # both sides of the tolerance.
        curv = Curvature(kappa)
        rng = RandomStream(53)
        p, q = exp_at_base(curv, 0.3, 1.0), exp_at_base(curv, 0.6, 2.5)
        outers = [point_body(p), segment_body(p, q)] + [
            random_body(curv, rng) for _ in range(6)]
        seen = set()
        for outer in outers:
            for eps in (0.0, 5e-10, 1e-9, 2e-9, 4e-9):
                for theta in np.linspace(0.0, 2 * math.pi, 12,
                                         endpoint=False).tolist():
                    g = translation_by_polar(curv, eps, theta)
                    for inner in (outer, point_body(outer.vertices[-1])):
                        moved = inner.transformed(g)
                        verdict = body_contains(outer, moved)
                        assert verdict == self.per_vertex(outer, moved)
                        seen.add(verdict)
        assert seen == {True, False}

    def test_curvature_mismatch(self):
        # Each pair entry point raises the one error, whichever of its
        # checks meets the pair first.
        for call in (body_contains, kinematic_rhs, containment_criterion,
                     lambda K, L: kinematic_lhs(K, L, 2000, RandomStream(0)),
                     lambda K, L: find_containment(K, L, 100,
                                                   RandomStream(0))):
            with pytest.raises(CurvatureMismatch,
                               match="curvatures differ: 0.0 vs 1.0"):
                call(unit_square(), octant_triangle())


class TestBoundaryCountInequality:
    @pytest.mark.parametrize("kappa", REGIME_KAPPAS)
    def test_meeting_without_containment_crosses_twice(self, kappa):
        # When neither body contains the other but they meet, the
        # boundaries intersect in at least two points.
        curv = Curvature(kappa)
        rng = RandomStream(37)
        ka = random_body(curv, rng)
        checked = 0
        for _ in range(1200):
            g = sample_isometry(curv, 1.5, rng)
            kb = random_body(curv, rng, n_points=4, rho=0.4).transformed(g)
            if euler_intersection(ka, kb) == 0:
                continue
            if body_contains(ka, kb) or body_contains(kb, ka):
                continue
            try:
                n = boundary_crossings(ka, kb)
            except DegeneratePosition:
                continue
            assert n >= 2
            checked += 1
        assert checked > 25


class TestMonotonicity:
    def test_equal_bodies(self):
        sq = unit_square()
        assert monotonicity_probe(sq, sq)

    def test_precondition_enforced(self):
        small = regular_ngon(Curvature(0.0), 0.2, 8)
        far = small.transformed(translation_by_polar(Curvature(0.0), 5.0, 0.0))
        with pytest.raises(GeometryError):
            monotonicity_probe(far, small)

    @pytest.mark.parametrize("kappa", REGIME_KAPPAS)
    def test_vertex_subhull_monotone(self, kappa):
        curv = Curvature(kappa)
        rng = RandomStream(41)
        for _ in range(200):
            big = random_body(curv, rng, n_points=8)
            idx = sorted(set(
                int(i) for i in
                rng.integers(0, big.n_vertices, 3)))
            sub = convex_hull([big.vertices[i] for i in idx])
            assert body_contains(big, sub)
            assert monotonicity_probe(sub, big)

    def test_nested_disc_ngons(self):
        for kappa in REGIME_KAPPAS:
            curv = Curvature(kappa)
            small = regular_ngon(curv, 0.3, 32)
            big = regular_ngon(curv, 0.8, 32)
            assert monotonicity_probe(small, big)


class TestStackedPairs:
    """Recentering over a stack, and the pair entry points built on it,
    against each body's and each pair's own path."""

    @staticmethod
    def bodies(curv, rng):
        """Random polygons with points, segments, a 12-gon and a 20-gon."""
        def at(r, theta):
            return exp_at_base(curv, r, theta)

        return [random_body(curv, rng, n_points=int(rng.integers(3, 13)))
                for _ in range(12)] + [
            point_body(at(0.3, 1.0)), point_body(at(0.0, 0.0)),
            segment_body(at(0.2, 0.5), at(0.6, 2.5)),
            regular_ngon(curv, 0.5, 12, phase=0.2),
            regular_ngon(curv, 0.6, 20, phase=0.3)]

    @pytest.mark.parametrize("kappa", ALL_KAPPAS)
    def test_recenter_matches_one_by_one(self, kappa):
        curv = Curvature(kappa)
        bodies = self.bodies(curv, RandomStream(83))
        radii, t, moved = _recenter(bodies)
        assert t.shape == (len(bodies), 3, 3)
        for K, r, m, M in zip(bodies, radii, t, moved):
            # The one-body path: the translation to point_polar of the
            # circumcenter, and K moved back by its inverse.
            R, center = circumradius(K)
            g = translation_by_polar(curv, *point_polar(center))
            alone = K.transformed(g.inverse())
            assert r == R and m.tobytes() == g.matrix.tobytes()
            assert M.vertex_array.tobytes() == alone.vertex_array.tobytes()
            assert not M.vertex_array.flags.writeable
            if K.n_vertices > 1:
                assert (M.edge_normals.tobytes()
                        == alone.edge_normals.tobytes())
            (r1,), t1, (M1,) = _recenter([K])
            assert r1 == r and t1[0].tobytes() == m.tobytes()
            assert M1.vertex_array.tobytes() == M.vertex_array.tobytes()

    def test_recenter_empty(self):
        radii, t, moved = _recenter([])
        assert radii == [] and t.shape == (0, 3, 3) and moved == []

    @pytest.mark.parametrize("kappa", REGIME_KAPPAS)
    def test_kinematic_lhs_pairs_match_one_pair_calls(self, kappa):
        curv = Curvature(kappa)
        bodies = self.bodies(curv, RandomStream(89))
        # Two points, a point and a segment, and polygon pairs.
        pairs = [(bodies[12], bodies[13]), (bodies[13], bodies[14])] + list(
            zip(bodies[:12:2], bodies[1:12:2])) + [(bodies[15], bodies[16])]
        streams = RandomStream(97).split(len(pairs))
        alone = RandomStream(97).split(len(pairs))
        got = kinematics.kinematic_lhs_pairs(pairs, 2000, streams)
        assert got == [kinematic_lhs(K, L, 2000, s)
                       for (K, L), s in zip(pairs, alone)]
        assert got[0].support_area == 0.0 and got[2].hits > 0
        for s, s1 in zip(streams, alone):
            assert next_draws(s.generator) == next_draws(s1.generator)
        assert kinematics.kinematic_lhs_pairs([], 2000, []) == []
        with pytest.raises(ValueError, match="one stream per pair"):
            kinematics.kinematic_lhs_pairs(pairs, 2000, streams[1:])

    @pytest.mark.parametrize("kappa", REGIME_KAPPAS)
    def test_find_containments_match_one_pair_calls(self, kappa):
        curv = Curvature(kappa)
        rng = RandomStream(101)
        pairs = [(random_body(curv, rng, n_points=5, rho=0.5),
                  random_body(curv, rng, n_points=5, rho=0.5))
                 for _ in range(10)]
        pairs += [(regular_ngon(curv, 0.6, 20), regular_ngon(curv, 0.2, 5)),
                  (regular_ngon(curv, 0.1, 4),
                   segment_body(exp_at_base(curv, 0.5, 0.0),
                                exp_at_base(curv, 0.5, math.pi)))]
        streams = RandomStream(103).split(len(pairs))
        alone = RandomStream(103).split(len(pairs))
        got = kinematics.find_containments(pairs, 2000, streams)
        expected = [find_containment(K, L, 2000, s)
                    for (K, L), s in zip(pairs, alone)]
        assert [g is None for g in got] == [g is None for g in expected]
        assert 0 < sum(g is not None for g in got) < len(got) - 1
        assert got[-1] is None
        for g, g1 in zip(got, expected):
            if g is not None:
                assert g.matrix.tobytes() == g1.matrix.tobytes()
        for s, s1 in zip(streams, alone):
            assert next_draws(s.generator) == next_draws(s1.generator)
        with pytest.raises(ValueError, match="one stream per pair"):
            kinematics.find_containments(pairs, 2000, streams[1:])

    @pytest.mark.parametrize("kappa", REGIME_KAPPAS)
    def test_recentering_builds_no_point_and_no_one_body_stack(
            self, kappa, monkeypatch):
        # kinematic_lhs and find_containments recenter each body: no
        # SurfacePoint for a center or a translation, and the moved bodies
        # are checked as one stack.
        curv = Curvature(kappa)
        K, L = random_body(curv, RandomStream(107)), regular_ngon(curv, 0.4, 7)
        # Longer than K and L, so find_containment's outer body: no search.
        segment = segment_body(exp_at_base(curv, 0.9, 0.0),
                               exp_at_base(curv, 0.9, math.pi))
        points, stacks = [], []
        post_init = SurfacePoint.__post_init__
        validate = convex._validate_stack

        def counted_point(p):
            points.append(p)
            post_init(p)

        def counted_stack(bodies):
            stacks.append(len(bodies))
            validate(bodies)

        monkeypatch.setattr(SurfacePoint, "__post_init__", counted_point)
        monkeypatch.setattr(convex, "_validate_stack", counted_stack)
        kinematic_lhs(K, L, 1000, RandomStream(109))
        assert (len(points), stacks) == (0, [2])
        assert kinematics.find_containments(
            [(K, segment), (L, segment)], 256,
            RandomStream(113).split(2)) == [None, None]
        assert (len(points), stacks) == (0, [2, 4])
