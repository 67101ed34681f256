"""Monte Carlo evaluation of the kinematic integral and its consequences.

The integral over all motions g of the Euler characteristic of K meeting a
moving copy of L is estimated by sampling positions area-uniformly,
spinning uniformly about the base point, and rescaling the hit fraction by
the sampled region's area.  Positions cover the disc of the overlap
test's reach, which holds the support of the integrand (on the sphere
capped at the whole sphere), so the overlap test sees every sample.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property
from typing import Optional, Sequence

import numpy as np

from .convex import (GeodesicPolygon, _build_polygons, areas, contains_rows,
                     next_rows, perimeter, perimeters)
from .radii import circumradii
from .surface import (BASIS_BLOCK_ROWS, BASIS_INPUT_ROWS, GeometryError,
                      Isometry, RandomStream, cross3, draw_motions,
                      fold_table, gen_cos, gen_cos_sin, motion_basis,
                      motion_matrices, row_distances, support_area,
                      translation_matrices, validate_rows)


@dataclass(frozen=True)
class KinematicEstimate:
    """The estimate, and how the overlap test decided its n samples.

    The three counts sum to the samples: settled by the face planes, by
    comparing two points (point bodies only), and sent to the mixed-plane
    pass (only sphere motions past the overlap test's hemisphere rule).
    support_area W is the area of the disc of the overlap test's reach (0
    for two points), so mean = W hits / n.
    """

    mean: float
    std_error: float
    hits: int
    samples: int
    support_area: float
    face_settled: int
    vertex_settled: int
    mixed_tested: int


def kinematic_rhs(K: GeodesicPolygon, L: GeodesicPolygon) -> float:
    """Closed form: A_L + P_K P_L / 2pi + A_K - kappa A_K A_L / 2pi."""
    kappa = K.curvature.kappa
    (ak, al), (pk, pl) = areas([K, L]), perimeters([K, L])
    return al + pk * pl / (2.0 * math.pi) + ak - kappa * ak * al / (2.0 * math.pi)


def _recenter(bodies: Sequence[GeodesicPolygon]
              ) -> tuple[list[float], np.ndarray, list[GeodesicPolygon]]:
    """The circumradii of bodies of one curvature, the (B, 3, 3) stack of
    translations to their circumcenters, and the bodies moved back by them.

    Each body's are bit for bit those of ``circumradius``, ``translation_to``
    of its center and ``transformed`` by that translation's inverse, with
    every check on that path, in one pass over the bodies: the circumradii
    and their checked center rows (:func:`~curvedkin.radii.circumradii`),
    the translations in one ``motion_matrices`` call, their inverses in one
    ``np.linalg.inv`` call, and each body's rows moved by one matrix-vector
    product each.  Every moved row is then checked as a point, and the
    moved bodies as polygons in one stack.
    """
    if not bodies:
        return [], np.empty((0, 3, 3)), []
    radii, centers = circumradii(bodies)
    curv = bodies[0].curvature
    t = translation_matrices(curv, centers)
    sizes = [K.n_vertices for K in bodies]
    moved = (np.linalg.inv(t)[np.repeat(np.arange(len(bodies)), sizes)]
             @ np.concatenate([K.vertex_array for K in bodies])[:, :, None])
    rows = validate_rows(curv, moved[:, :, 0])
    return radii, t, _build_polygons(curv, np.split(rows,
                                                    np.cumsum(sizes)[:-1]))


def _outer_table(normals: np.ndarray, vertices: np.ndarray) -> np.ndarray:
    """Rows n (x) v over faces and vertices; row . (row-major entries of M)
    = n . M v."""
    return (normals[:, None, :, None]
            * vertices[None, :, None, :]).reshape(-1, 9)


def _mixed_table(curv, vK: np.ndarray, vL: np.ndarray) -> np.ndarray:
    """Folded rows of the planes spanned by a vertex a of K and a moved
    vertex Mb of L, in (rows per pair, pairs) order.

    Per pair the rows give det(a, Mb, k) = (k x a) . Mb for a's neighbours
    k, and -det(a, Mb, Ml) = (l x b) . M^-1 a for b's neighbours l
    (det M = 1), two of a polygon vertex and one of a segment end.  A plane
    through a vertex ray of a convex cone supports it iff its neighbours
    lie on one side, so it separates the bodies iff the rows share a sign.
    """
    def normals(v):  # (distinct neighbours, n, 3): neighbour x vertex
        sides = [np.concatenate([v[-1:], v[:-1]]), next_rows(v)]
        return cross3(np.stack(sides[:len(v) - 1]), v)

    nK, nL = normals(vK), normals(vL)
    fwd = nK[:, :, None, :, None] * vL[None, None, :, None, :]
    inv = nL[:, None, :, :, None] * vK[None, :, None, None, :]
    return np.concatenate([fold_table(curv, fwd.reshape(-1, 9)),
                           fold_table(curv, inv.reshape(-1, 9), inverse=True)])


class _OverlapTester:
    """Vectorized emptiness test of K against many moved copies of L.

    Both bodies span convex vertex cones in R^3, which are disjoint iff a
    plane through the origin separates them.  Such a plane can be turned
    until it meets both cones, so it can be taken to be a face plane of
    either body or a mixed plane spanned by one vertex ray of each: the
    3-D separating-axis test (Gottschalk, Lin & Manocha, OBBTree, 1996).
    Every candidate is rows of an outer-product table folded onto the
    nine-row motion basis: K's planes against moved L vertices, and L's
    unmoved planes against K vertices under the inverse motion, as
    cross(Ma, Mb) = M^-T (a x b) when det M = 1.  A body's face planes are
    its Lambda-unit ``half_spaces``: a polygon's edge normals, a segment's
    two line normals and two end caps; a point has none.

    A chunk of motions is one matmul of the face table with its basis.
    Every decision is a sign or an equality, with no tolerance band, so
    scaling lengths by a power of two changes none; touching counts as
    overlap.  A motion at polar r with r + rho_K + rho_L < pi/sqrt(kappa),
    rho the largest distance of a body's vertices from the base point,
    keeps both bodies in one open hemisphere, as every motion does off
    the sphere.  In its gnomonic chart the bodies are convex Euclidean
    sets, and a line that separates two can be moved onto a face of one
    (an end cap for collinear segments), so the face planes decide alone.
    Elsewhere one matmul of the mixed table decides the motions that no
    face plane separates.  Two points are compared by equality.  No motion
    that moves the base point farther than ``reach`` = rho_K + rho_L meets
    the bodies, so that disc, which scales with them, holds every overlap.
    """

    def __init__(self, K: GeodesicPolygon, L: GeodesicPolygon):
        K.curvature.require_same(L.curvature)
        self.curv = curv = K.curvature
        self.vK, self.vL = K.vertex_array, L.vertex_array
        # (faces, vertices) per body with faces, in the table's row order.
        self.sides, tables = [], []
        for body, other, inverse in ((K, self.vL, False), (L, self.vK, True)):
            if len(body.half_spaces):
                self.sides.append((len(body.half_spaces), len(other)))
                tables.append(fold_table(
                    curv, _outer_table(body.half_spaces, other),
                    inverse=inverse))
        if not self.sides:
            # Rows e_c (x) v: the moved point's coordinates.
            tables.append(fold_table(curv, _outer_table(np.eye(3), self.vL)))
        self.table = np.concatenate(tables)
        # The rule above is a > cut for the radial cosine a; the margin
        # sends what rounding could misplace to the exact mixed pass.
        reach = self.reach = sum(float(np.max(row_distances(
            curv, v, (0.0, 0.0, 1.0)))) for v in (self.vK, self.vL))
        self.cut = (1e-9 - gen_cos(curv, min(reach, 2 * curv.hemisphere_limit))
                    if len(self.sides) == 2 else -math.inf)
        # Motions per matmul, the product buffer kept within 2^21 floats.
        self.chunk = min(4096, max(64, 2 ** 21 // len(self.table)))
        self._out = np.empty(len(self.table) * self.chunk)
        self._basis = np.empty(BASIS_BLOCK_ROWS * self.chunk)
        # Over every hits call: the KinematicEstimate decision counts.
        self.counts = dict.fromkeys(
            ("face_settled", "vertex_settled", "mixed_tested"), 0)

    @cached_property
    def mixed(self) -> np.ndarray:
        """The mixed table, built for the first motion that needs it."""
        return _mixed_table(self.curv, self.vK, self.vL)

    def hits(self, radial: tuple, theta: np.ndarray,
             phi: np.ndarray) -> np.ndarray:
        """Overlap mask of K with L moved by each motion ((a, b), theta, phi),
        (a, b) the radial pair of :func:`~curvedkin.surface.motion_basis`.

        The mask is new and the caller's.  Each chunk's motion basis and
        products are written into blocks the tester keeps for its lifetime
        and overwrites on every chunk, so one tester serves one thread.
        """
        a, b = radial
        hit = np.empty(len(a), dtype=bool)
        for lo in range(0, len(a), self.chunk):
            hi = min(lo + self.chunk, len(a))
            hit[lo:hi] = self._hits_chunk(
                (a[lo:hi], b[lo:hi]), theta[lo:hi], phi[lo:hi])
        return hit

    def count_hits(self, w: float, streams: tuple, n: int) -> int:
        """Hits among n motions that :func:`~curvedkin.surface.draw_motions`
        draws over a disc of area w from streams, each generator drawing
        its next n doubles in order.

        Each chunk is drawn just before it is tested, into the rows of the
        basis block that its motion basis is built from, so no array grows
        with n.
        """
        hits = 0
        for lo in range(0, n, self.chunk):
            block = self._block(min(self.chunk, n - lo))
            hits += int(np.count_nonzero(self._hits_chunk(*draw_motions(
                self.curv, w, streams,
                tuple(block[i] for i in BASIS_INPUT_ROWS)))))
        return hits

    def _block(self, m: int) -> np.ndarray:
        return self._basis[:BASIS_BLOCK_ROWS * m].reshape(BASIS_BLOCK_ROWS, m)

    def _product(self, table: np.ndarray, basis: np.ndarray) -> np.ndarray:
        m = basis.shape[1]
        return np.matmul(table, basis,
                         out=self._out[:len(table) * m].reshape(-1, m))

    def _hits_chunk(self, radial: tuple, theta: np.ndarray,
                    phi: np.ndarray) -> np.ndarray:
        m = len(theta)
        basis = motion_basis(self.curv, radial, theta, phi, out=self._block(m))
        s = self._product(self.table, basis)
        if not self.sides:  # two points
            self.counts["vertex_settled"] += m
            return (s == self.vK.T).all(axis=0)
        apart = np.zeros(m, dtype=bool)
        row = 0
        for faces, n_vertices in self.sides:
            # (faces, vertices, samples): a face with every vertex of the
            # other body outside separates.
            side = s[row:row + faces * n_vertices].reshape(faces, n_vertices, m)
            row += faces * n_vertices
            apart |= np.any(np.max(side, axis=1) < 0.0, axis=0)
        hit = ~apart
        # Basis row 4 is the radial cosine a; a chunk off the sphere, or
        # with every motion above the cut, masks nothing.
        far = basis[4].min() <= self.cut
        rest = np.flatnonzero((basis[4] <= self.cut) & hit) if far else ()
        self.counts["face_settled"] += m - len(rest)
        self.counts["mixed_tested"] += len(rest)
        # Half a chunk fits _out: no body has fewer faces than vertices, so
        # the mixed table's <= 4 nK nL rows are at most 2x the face table's.
        for lo in range(0, len(rest), self.chunk // 2):
            cols = rest[lo:lo + self.chunk // 2]
            # (rows per pair, pairs, samples): a mixed plane separates where
            # its rows share one strict sign.
            group = self._product(self.mixed, basis[:, cols]).reshape(
                -1, len(self.vK) * len(self.vL), len(cols))
            hit[cols] = ~(np.any(np.max(group, axis=0) < 0.0, axis=0)
                          | np.any(np.min(group, axis=0) > 0.0, axis=0))
        return hit


def kinematic_lhs(K: GeodesicPolygon, L: GeodesicPolygon, n: int,
                  rng: RandomStream) -> KinematicEstimate:
    """Monte Carlo estimate of the kinematic integral for K and L.

    Motions are drawn from the disc of the tester's reach, which scales
    with the bodies, as :func:`~curvedkin.surface.sample_motions` draws
    them: theta, u and phi are rng's next 3n doubles, and rng is left past
    them.  Each chunk draws its own just before it is tested, into blocks
    the tester keeps: theta and u from copies of rng positioned at the
    chunk's offsets in their draws, phi from rng itself, moved past theta
    and u first.  So memory does not grow with n, and threads may estimate
    pairs at once.  Two point bodies meet only on a null set of motions:
    their estimate is exactly 0 with W = 0, and draws nothing.
    """
    return kinematic_lhs_pairs([(K, L)], n, [rng])[0]


def kinematic_lhs_pairs(pairs: Sequence[tuple[GeodesicPolygon,
                                              GeodesicPolygon]],
                        n: int, streams: Sequence[RandomStream]
                        ) -> list[KinematicEstimate]:
    """:func:`kinematic_lhs` of each pair (K, L) with its stream, bit for
    bit and with the same draws; the bodies of every pair that is not two
    points are recentered in one pass.  The pairs share one curvature."""
    if n < 1000:
        raise GeometryError("need at least 1000 samples")
    if len(streams) != len(pairs):
        raise ValueError("need one stream per pair")
    for K, L in pairs:
        K.curvature.require_same(L.curvature)
    centered = iter(_recenter([body for K, L in pairs
                               if not K.dim == L.dim == 0
                               for body in (K, L)])[2])
    estimates = []
    for (K, L), rng in zip(pairs, streams):
        if K.dim == L.dim == 0:
            estimates.append(KinematicEstimate(0.0, 0.0, 0, n, 0.0, 0, n, 0))
            continue
        tester = _OverlapTester(next(centered), next(centered))
        w = support_area(tester.curv, tester.reach)
        theta_u = rng.ahead(0), rng.ahead(n)
        rng.skip(2 * n)  # rng draws phi itself, which leaves it past 3n
        hits = tester.count_hits(w, (*theta_u, rng.generator), n)
        p = hits / n
        estimates.append(KinematicEstimate(
            mean=w * p, std_error=w * math.sqrt(p * (1.0 - p) / n),
            hits=hits, samples=n, support_area=w, **tester.counts))
    return estimates


def containment_criterion(K: GeodesicPolygon, L: GeodesicPolygon,
                          slack: float = 1e-12) -> bool:
    """P_K P_L <= 2pi (A_K + A_L) - kappa A_K A_L, within slack."""
    return containment_criteria([(K, L)], slack)[0]


def containment_criteria(pairs: Sequence[tuple[GeodesicPolygon,
                                                GeodesicPolygon]],
                         slack: float = 1e-12) -> list[bool]:
    """:func:`containment_criterion` of each pair (K, L), bit for bit, with
    the areas and perimeters of all the bodies taken in one pass.  The
    pairs share one curvature."""
    for K, L in pairs:
        K.curvature.require_same(L.curvature)
        if K.dim < 2 or L.dim < 2:
            raise GeometryError(
                "containment criterion needs nonempty interiors")
    bodies = [K for pair in pairs for K in pair]
    A, P = areas(bodies), perimeters(bodies)
    kappa = bodies[0].curvature.kappa if bodies else 0.0
    return [pk * pl <= 2.0 * math.pi * (ak + al) - kappa * ak * al + slack
            for ak, al, pk, pl in zip(A[::2], A[1::2], P[::2], P[1::2])]


def body_contains(outer: GeodesicPolygon, inner: GeodesicPolygon) -> bool:
    """Vertex containment; equivalent to inclusion for convex bodies."""
    outer.curvature.require_same(inner.curvature)
    return bool(contains_rows(outer, inner.vertex_array).all())


def find_containment(K: GeodesicPolygon, L: GeodesicPolygon, budget: int,
                     rng: RandomStream) -> Optional[Isometry]:
    """Search for g with gK inside L or gL inside K; None if the budget runs out.

    Inclusion cannot raise the circumradius, so only the body with the
    smaller one can go inside the other (on a tie, K), and the whole budget
    searches that order: the other could succeed only on motions that make
    the two circumdiscs coincide, a set of measure zero.  An outer body
    with no interior holds nothing.

    Randomized-restart local descent over recentered spins and small
    offsets.  Returned witnesses are verified by vertex containment, so a
    non-None result is always sound.
    """
    return find_containments([(K, L)], budget, [rng])[0]


def find_containments(pairs: Sequence[tuple[GeodesicPolygon,
                                            GeodesicPolygon]],
                      budget: int, streams: Sequence[RandomStream]
                      ) -> list[Optional[Isometry]]:
    """:func:`find_containment` of each pair (K, L) with its stream, bit for
    bit and with the same draws; the bodies of every pair are recentered
    in one pass.  The pairs share one curvature."""
    if len(streams) != len(pairs):
        raise ValueError("need one stream per pair")
    bodies = [body for pair in pairs for body in pair]
    # (body, circumradius, translation to its circumcenter, body recentered)
    sides = list(zip(bodies, *_recenter(bodies)))
    return [_search_containment(*sorted(sides[2 * i:2 * i + 2],
                                        key=lambda side: side[1]),
                                budget, rng)
            for i, rng in enumerate(streams)]


def _search_containment(inner_side: tuple, outer_side: tuple, budget: int,
                        rng: RandomStream) -> Optional[Isometry]:
    """:func:`find_containment`'s search of one pair, from its two sides
    (body, circumradius, translation matrix, body recentered)."""
    inner, _, t_in, inner_c = inner_side
    outer, r_out, t_out, outer_c = outer_side
    curv = inner.curvature
    if outer.dim < 2:
        return None
    # Rows edge normal (x) inner vertex, folded: against the motion basis,
    # the gen_sin distances of the moved vertices from outer's edges.
    table = fold_table(curv, _outer_table(outer_c.edge_normals,
                                          inner_c.vertex_array))
    sigma = max(r_out, 1e-3)
    best = (-math.inf, 0.0, 0.0, 0.0)  # score, r, theta, phi
    batch = 256
    used = 0
    while used < budget:
        m = min(batch, budget - used)
        if best[0] == -math.inf:
            r = np.abs(rng.normal(0.0, sigma, m))
            theta = rng.uniform(0.0, 2.0 * math.pi, m)
            phi = rng.uniform(0.0, 2.0 * math.pi, m)
            r[0] = 0.0  # always try the concentric placement first
        else:
            _, br, bth, bph = best
            x = br * math.cos(bth) + rng.normal(0.0, sigma, m)
            y = br * math.sin(bth) + rng.normal(0.0, sigma, m)
            r = np.hypot(x, y)
            theta = np.arctan2(y, x)
            phi = bph + rng.normal(0.0, 0.3 + sigma, m)
        scores = np.min(table @ motion_basis(
            curv, gen_cos_sin(curv, r), theta, phi), axis=0)
        used += m
        i = int(np.argmax(scores))
        if scores[i] > best[0]:
            best = (float(scores[i]), float(r[i]), float(theta[i]),
                    float(phi[i]))
        else:
            sigma *= 0.7
            if sigma < 1e-12 * (1.0 + r_out):
                sigma = max(r_out, 1e-3)  # restart
                best = (-math.inf, 0.0, 0.0, 0.0)
        if best[0] >= -1e-12:
            g_local = Isometry(motion_matrices(curv, *best[1:])[0], curv)
            g = (Isometry(t_out, curv) @ g_local
                 @ Isometry(t_in, curv).inverse())
            if body_contains(outer, inner.transformed(g)):
                return g
            best = (-math.inf, 0.0, 0.0, 0.0)
    return None


def monotonicity_probe(K: GeodesicPolygon, L: GeodesicPolygon) -> bool:
    """For verified K inside L, check the perimeter comparison."""
    if not body_contains(L, K):
        raise GeometryError("K is not contained in L")
    return perimeter(K) <= perimeter(L) + 1e-9
