"""Monte Carlo evaluation of the kinematic integral and its consequences.

The integral over all motions g of the Euler characteristic of K meeting a
moving copy of L is estimated by sampling positions area-uniformly,
spinning uniformly about the base point, and rescaling the hit fraction by
the sampled region's area.  Positions cover the disc that holds the
support of the integrand, on the sphere capped at the whole sphere, so the
overlap test sees every sample.
"""

from __future__ import annotations

import math
import threading
from dataclasses import dataclass
from typing import Optional, Sequence

import numpy as np

from .convex import (GeodesicPolygon, areas, contains_rows, next_rows,
                     perimeter, perimeters)
from .radii import circumradius
from .surface import (BASIS_BLOCK_ROWS, GeometryError, Isometry,
                      RandomStream, cross3, fold_table, gen_cos_sin,
                      motion_basis, motion_matrices, sample_motions,
                      support_area, translation_to)


@dataclass(frozen=True)
class KinematicEstimate:
    """The estimate, and how the overlap test decided its n samples.

    The three counts sum to the samples: settled by a face plane, settled
    by a contained vertex (every sample of two points), and sent to the
    mixed-plane pass (never on the flat or hyperbolic plane).  support_area
    is the area W of the sampled position region, so mean = W * hits / n.
    """

    mean: float
    std_error: float
    samples: int
    support_area: float
    face_settled: int
    vertex_settled: int
    mixed_tested: int


def kinematic_rhs(K: GeodesicPolygon, L: GeodesicPolygon) -> float:
    """Closed form: A_L + P_K P_L / 2pi + A_K - kappa A_K A_L / 2pi."""
    K.curvature.require_same(L.curvature)
    kappa = K.curvature.kappa
    (ak, al), (pk, pl) = areas([K, L]), perimeters([K, L])
    return al + pk * pl / (2.0 * math.pi) + ak - kappa * ak * al / (2.0 * math.pi)


def _recenter(K: GeodesicPolygon) -> tuple[float, Isometry, GeodesicPolygon]:
    """Circumradius, translation to the circumcenter, and K moved back by it."""
    r, center = circumradius(K)
    t = translation_to(center)
    return r, t, K.transformed(t.inverse())


def _outer_table(normals: np.ndarray, vertices: np.ndarray) -> np.ndarray:
    """Rows n (x) v over faces and vertices; row . (row-major entries of M)
    = n . M v."""
    return (normals[:, None, :, None]
            * vertices[None, :, None, :]).reshape(-1, 9)


def _mixed_table(curv, vK: np.ndarray, vL: np.ndarray) -> np.ndarray:
    """Folded rows of the planes spanned by a vertex a of K and a moved
    vertex Mb of L, in (4, pairs) order.

    Per pair the four rows give det(a, Mb, k) = (k x a) . Mb for a's two
    neighbours k, and -det(a, Mb, Ml) = (l x b) . M^-1 a for b's two
    neighbours l (det M = 1).  A plane through a vertex ray of a convex
    cone supports it iff both neighbours lie on one side, so the plane
    separates the bodies iff the four share one strict sign.
    """
    def normals(v):  # (2, n, 3): neighbour x vertex, both sides
        return cross3(np.stack([np.concatenate([v[-1:], v[:-1]]),
                                next_rows(v)]), v)

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
    scaling lengths by a power of two changes none: a face plane with
    every vertex of the other body below zero separates, and a vertex at
    or above zero on every face is contained (touching counts as overlap).
    In the flat or hyperbolic chart the bodies are convex Euclidean
    points, segments and polygons, and a line that separates two of them
    can be moved onto a face of one (an end cap for collinear segments),
    so where either body has a face the face planes decide alone.
    Elsewhere, when both have faces, one matmul of the mixed table, by a
    strict sign test, decides the motions that neither settles.  Two
    points meet where the moved point's coordinates equal K's point's.
    """

    def __init__(self, K: GeodesicPolygon, L: GeodesicPolygon):
        K.curvature.require_same(L.curvature)
        self.curv = K.curvature
        self.vK, self.vL = K.vertex_array, L.vertex_array
        # (faces, vertices) per body with faces, in the table's row order.
        self.sides, tables = [], []
        for body, other, inverse in ((K, self.vL, False), (L, self.vK, True)):
            if len(body.half_spaces):
                self.sides.append((len(body.half_spaces), len(other)))
                tables.append(fold_table(
                    self.curv, _outer_table(body.half_spaces, other),
                    inverse=inverse))
        if not self.sides:
            # Rows e_c (x) v: the moved point's coordinates.
            tables.append(fold_table(self.curv,
                                     _outer_table(np.eye(3), self.vL)))
        self.table = np.concatenate(tables)
        self.chart = self.curv.kappa <= 0 and bool(self.sides)
        self.pairs = len(self.vK) * len(self.vL)
        self.mixed = (_mixed_table(self.curv, self.vK, self.vL)
                      if len(self.sides) == 2 and not self.chart
                      else np.empty((0, 9)))
        # Motions per matmul, the product buffer kept within 2^21 floats.
        rows = max(len(self.table), len(self.mixed))
        self.chunk = min(4096, max(64, 2 ** 21 // rows))
        self._out = np.empty(rows * self.chunk)
        self._basis = np.empty(BASIS_BLOCK_ROWS * self.chunk)
        # Over every hits call: the KinematicEstimate decision counts.
        self.counts = dict.fromkeys(
            ("face_settled", "vertex_settled", "mixed_tested"), 0)

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
            block = self._basis[:BASIS_BLOCK_ROWS * (hi - lo)].reshape(
                BASIS_BLOCK_ROWS, -1)
            hit[lo:hi] = self._hits_chunk(motion_basis(
                self.curv, (a[lo:hi], b[lo:hi]), theta[lo:hi], phi[lo:hi],
                out=block))
        return hit

    def _product(self, table: np.ndarray, basis: np.ndarray) -> np.ndarray:
        m = basis.shape[1]
        return np.matmul(table, basis,
                         out=self._out[:len(table) * m].reshape(-1, m))

    def _hits_chunk(self, basis: np.ndarray) -> np.ndarray:
        m = basis.shape[1]
        s = self._product(self.table, basis)
        hit, apart = np.zeros((2, m), dtype=bool)
        row = 0
        for faces, n_vertices in self.sides:
            # (faces, vertices, samples).  A face with every vertex of the
            # other body outside separates; a vertex inside all is contained.
            side = s[row:row + faces * n_vertices].reshape(faces, n_vertices, m)
            row += faces * n_vertices
            apart |= np.any(np.max(side, axis=1) < 0.0, axis=0)
            if not self.chart:
                hit |= np.any(np.min(side, axis=0) >= 0.0, axis=0)
        counts = self.counts
        if self.chart:
            counts["face_settled"] += m
            return ~apart
        if not self.sides:  # two points
            hit = (s == self.vK.T).all(axis=0)
        face = int(np.count_nonzero(apart))
        counts["face_settled"] += face
        if not len(self.mixed):
            counts["vertex_settled"] += m - face
            return hit
        rest = np.flatnonzero(~(apart | hit))
        counts["vertex_settled"] += m - face - len(rest)
        counts["mixed_tested"] += len(rest)
        if len(rest):
            # (4, pairs, samples): a mixed plane separates where its four
            # rows share one strict sign.
            group = self._product(self.mixed, basis[:, rest]).reshape(
                4, self.pairs, -1)
            hit[rest] = ~(np.any(np.max(group, axis=0) < 0.0, axis=0)
                          | np.any(np.min(group, axis=0) > 0.0, axis=0))
        return hit


# Each thread's (4, n) block of motion samples for kinematic_lhs, grown to
# the largest n drawn and kept, so repeated calls fault in no new pages.
_samples = threading.local()


def _sample_block(n: int) -> np.ndarray:
    block = getattr(_samples, "block", None)
    if block is None or block.shape[1] < n:
        block = _samples.block = np.empty((4, n))
    return block[:, :n]


def kinematic_lhs(K: GeodesicPolygon, L: GeodesicPolygon, n: int,
                  rng: RandomStream) -> KinematicEstimate:
    """Monte Carlo estimate of the kinematic integral for K and L.

    The samples are drawn into this thread's kept block, which its next
    call overwrites, and each chunk's motion basis into the tester's, so
    threads may estimate pairs at once.
    """
    K.curvature.require_same(L.curvature)
    if n < 1000:
        raise GeometryError("need at least 1000 samples")
    curv = K.curvature
    rk, _, Kc = _recenter(K)
    rl, _, Lc = _recenter(L)
    margin = 1e-6 * (1.0 + rk + rl)
    support = rk + rl + margin
    tester = _OverlapTester(Kc, Lc)
    hits = tester.hits(*sample_motions(curv, support, n, rng,
                                       out=_sample_block(n)))
    k_hits = int(np.count_nonzero(hits))
    w = support_area(curv, support)
    p = k_hits / n
    return KinematicEstimate(mean=w * p,
                             std_error=w * math.sqrt(p * (1.0 - p) / n),
                             samples=n, support_area=w, **tester.counts)


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
    K.curvature.require_same(L.curvature)
    curv = K.curvature
    # (body, circumradius, translation to its circumcenter, body recentered)
    (inner, _, t_in, inner_c), (outer, r_out, t_out, outer_c) = sorted(
        ((K, *_recenter(K)), (L, *_recenter(L))), key=lambda side: side[1])
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
            g = t_out @ g_local @ t_in.inverse()
            if body_contains(outer, inner.transformed(g)):
                return g
            best = (-math.inf, 0.0, 0.0, 0.0)
    return None


def monotonicity_probe(K: GeodesicPolygon, L: GeodesicPolygon) -> bool:
    """For verified K inside L, check the perimeter comparison."""
    if not body_contains(L, K):
        raise GeometryError("K is not contained in L")
    return perimeter(K) <= perimeter(L) + 1e-9
