"""Monte Carlo evaluation of the kinematic integral and its consequences.

The integral over all motions g of the Euler characteristic of K meeting a
moving copy of L is estimated by sampling positions area-uniformly over a
disc that covers the support of the integrand, spinning uniformly about the
base point, and rescaling the hit fraction by the sampled region's area.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional

import numpy as np

from .convex import (GeodesicPolygon, arc_crossings, area, contains_point,
                     perimeter, unit_arcs)
from .radii import circumradius
from .surface import (EPS, GeometryError, Isometry, RandomStream,
                      basis_matrices, fold_table, motion_basis,
                      motion_matrices, sample_motions, support_area,
                      translation_to)


@dataclass(frozen=True)
class KinematicEstimate:
    mean: float
    std_error: float
    samples: int
    support_area: float


def kinematic_rhs(K: GeodesicPolygon, L: GeodesicPolygon) -> float:
    """Closed form: A_L + P_K P_L / 2pi + A_K - kappa A_K A_L / 2pi."""
    K.curvature.require_same(L.curvature)
    kappa = K.curvature.kappa
    ak, al = area(K), area(L)
    pk, pl = perimeter(K), perimeter(L)
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


class _OverlapTester:
    """Vectorized emptiness test of K against many moved copies of L.

    Both bodies span convex vertex cones in R^3, so a face plane of either
    with every vertex of the other strictly outside separates them
    (Gottschalk, Lin & Manocha, OBBTree, 1996).  Both sides are rows of one
    outer-product table, folded onto the nine-row motion basis: K's normals
    against moved L vertices, and L's unmoved edge normals against K
    vertices under the inverse motion, as cross(Ma, Mb) = M^-T (a x b) when
    det M = 1.  A chunk of motions is one matmul of the table with its basis.
    """

    def __init__(self, K: GeodesicPolygon, L: GeodesicPolygon):
        K.curvature.require_same(L.curvature)
        self.curv = K.curvature
        self.K, self.L = K, L
        self.vK, self.vL = K.vertex_array, L.vertex_array
        self.tol = EPS * float(max(np.max(np.abs(self.vK)), 1.0))
        # (faces, vertices) per 2-D body, in the table's row order.
        self.sides, tables = [], []
        if K.dim == 2:
            self.sides.append((len(K.edges), len(self.vL)))
            tables.append(fold_table(
                self.curv, _outer_table(K.edge_normals, self.vL)))
        if L.dim == 2:
            self.sides.append((len(L.edges), len(self.vK)))
            tables.append(fold_table(
                self.curv, _outer_table(L.edge_planes, self.vK), inverse=True))
        self.table = np.concatenate(tables) if tables else np.empty((0, 9))
        # Motions per matmul, the product buffer kept within 2^21 floats.
        self.chunk = min(4096, max(64, 2 ** 21 // max(1, len(self.table))))
        self._out = np.empty(len(self.table) * self.chunk)
        self.pK, self.qK = unit_arcs(self.vK, K.edges)
        # In the affine (flat) or Klein (hyperbolic) chart two 2-D bodies
        # are convex Euclidean polygons, so face planes decide outright.
        self.chart = self.curv.kappa <= 0 and K.dim == 2 and L.dim == 2

    def hits(self, r: np.ndarray, theta: np.ndarray,
             phi: np.ndarray, reach: Optional[float] = None) -> np.ndarray:
        """Overlap mask of K with L moved by each motion (r, theta, phi)."""
        out = np.zeros(len(r), dtype=bool)
        keep = slice(None)
        if self.curv.kappa > 0 and reach is not None:
            # Overlap needs the moved base point within reach of the base
            # point.  sqrt(k) r lies in [0, pi], so no cosine is needed.
            s = self.curv.scale
            keep = s * r <= min(math.pi, s * reach)
        r, theta, phi = r[keep], theta[keep], phi[keep]
        hit = np.empty(len(r), dtype=bool)
        for lo in range(0, len(r), self.chunk):
            hi = lo + self.chunk
            hit[lo:hi] = self._hits_chunk(
                motion_basis(self.curv, r[lo:hi], theta[lo:hi], phi[lo:hi]))
        out[keep] = hit
        return out

    def _hits_chunk(self, basis: np.ndarray) -> np.ndarray:
        m = basis.shape[1]
        s = np.matmul(self.table, basis,
                      out=self._out[:len(self.table) * m].reshape(-1, m))
        hit, apart = np.zeros((2, m), dtype=bool)
        row = 0
        for faces, n_vertices in self.sides:
            # (faces, vertices, samples).  A face with every vertex of the
            # other body outside separates; a vertex inside all is contained.
            side = s[row:row + faces * n_vertices].reshape(faces, n_vertices, m)
            row += faces * n_vertices
            apart |= np.any(np.max(side, axis=1) < -self.tol, axis=0)
            if not self.chart:
                hit |= np.any(np.min(side, axis=0) >= -self.tol, axis=0)
        if self.chart:
            return ~apart
        if self.K.dim == 0 and self.L.dim == 0:
            moved = basis_matrices(self.curv, basis) @ self.vL[0]
            return np.linalg.norm(moved - self.vK[0], axis=1) <= self.tol
        if self.K.dim == 0 or self.L.dim == 0:
            return hit
        # Neither a separating face nor a contained vertex: do the
        # boundaries cross?  Sub-chunk: the predicate builds
        # (m, edges_K, edges_L, 3) arrays, so bound m by the edge-pair count.
        rest = np.nonzero(~(apart | hit))[0]
        block = max(1, 2_000_000 // (len(self.pK) * len(self.L.edges)))
        for lo in range(0, len(rest), block):
            sub = rest[lo:lo + block]
            mats = basis_matrices(self.curv, basis[:, sub])
            hit[sub] = self._crossing(self.vL @ mats.transpose(0, 2, 1))
        return hit

    def _crossing(self, vL: np.ndarray) -> np.ndarray:
        _, crossed = arc_crossings(self.pK, self.qK,
                                   *unit_arcs(vL, self.L.edges))
        return np.any(crossed, axis=(1, 2))


def kinematic_lhs(K: GeodesicPolygon, L: GeodesicPolygon, n: int,
                  rng: RandomStream) -> KinematicEstimate:
    """Monte Carlo estimate of the kinematic integral for K and L."""
    K.curvature.require_same(L.curvature)
    if n < 1000:
        raise GeometryError("need at least 1000 samples")
    curv = K.curvature
    rk, _, Kc = _recenter(K)
    rl, _, Lc = _recenter(L)
    margin = 1e-6 * (1.0 + rk + rl)
    support = rk + rl + margin
    tester = _OverlapTester(Kc, Lc)
    hits = tester.hits(*sample_motions(curv, support, n, rng), reach=support)
    k_hits = int(np.count_nonzero(hits))
    w = support_area(curv, support)
    p = k_hits / n
    return KinematicEstimate(mean=w * p,
                             std_error=w * math.sqrt(p * (1.0 - p) / n),
                             samples=n, support_area=w)


def containment_criterion(K: GeodesicPolygon, L: GeodesicPolygon,
                          slack: float = 1e-12) -> bool:
    """P_K P_L <= 2pi (A_K + A_L) - kappa A_K A_L, within slack."""
    K.curvature.require_same(L.curvature)
    if K.dim < 2 or L.dim < 2:
        raise GeometryError("containment criterion needs nonempty interiors")
    kappa = K.curvature.kappa
    ak, al = area(K), area(L)
    pk, pl = perimeter(K), perimeter(L)
    return pk * pl <= 2.0 * math.pi * (ak + al) - kappa * ak * al + slack


def body_contains(outer: GeodesicPolygon, inner: GeodesicPolygon) -> bool:
    """Vertex containment; equivalent to inclusion for convex bodies."""
    return all(contains_point(outer, v) for v in inner.vertices)


def find_containment(K: GeodesicPolygon, L: GeodesicPolygon, budget: int,
                     rng: RandomStream) -> Optional[Isometry]:
    """Search for g with gK inside L or gL inside K; None if the budget runs out.

    Randomized-restart local descent over recentered spins and small
    offsets.  Returned witnesses are verified by vertex containment, so a
    non-None result is always sound.
    """
    K.curvature.require_same(L.curvature)
    curv = K.curvature
    rk, tK, Kc = _recenter(K)
    rl, tL, Lc = _recenter(L)
    pairs = [(Kc, Lc, tK, tL, False), (Lc, Kc, tL, tK, True)]
    if rk > rl:
        pairs.reverse()
    spent = 0
    batch = 256
    for attempt, (inner, outer, t_in, t_out, flipped) in enumerate(pairs):
        if outer.dim < 2:
            continue
        # Rows edge normal (x) inner vertex, folded: against the motion
        # basis, the gen_sin distances of the moved vertices from outer's
        # edges.
        table = fold_table(curv, _outer_table(outer.edge_normals,
                                              inner.vertex_array))
        r_out, _ = circumradius(outer)
        sigma = max(r_out, 1e-3)
        best = (-math.inf, 0.0, 0.0, 0.0)  # score, r, theta, phi
        share = (budget * 4) // 5 if attempt == 0 else budget - spent
        used = 0
        while used < share and spent < budget:
            m = min(batch, share - used)
            if best[0] == -math.inf or used == 0:
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
            scores = np.min(table @ motion_basis(curv, r, theta, phi),
                            axis=0)
            used += m
            spent += m
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
                g_local = Isometry(
                    motion_matrices(curv, np.array([best[1]]),
                                    np.array([best[2]]),
                                    np.array([best[3]]))[0], curv)
                g = t_out @ g_local @ t_in.inverse()
                moved = (L if flipped else K).transformed(g)
                target = K if flipped else L
                if body_contains(target, moved):
                    return g
                best = (-math.inf, 0.0, 0.0, 0.0)
    return None


def monotonicity_probe(K: GeodesicPolygon, L: GeodesicPolygon) -> bool:
    """For verified K inside L, check the perimeter comparison."""
    if not body_contains(L, K):
        raise GeometryError("K is not contained in L")
    return perimeter(K) <= perimeter(L) + 1e-9
