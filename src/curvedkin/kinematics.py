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
                      motion_matrices, sample_isometry_matrices, support_area,
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


class _OverlapTester:
    """Vectorized emptiness test of K against many moved copies of L."""

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
        self.K_normals_flat = (K.edge_normals * self.curv.form_signs
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
    mats = sample_isometry_matrices(curv, support, n, rng)
    k_hits = int(np.count_nonzero(tester.hits(mats, reach=support)))
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


def _score_batch(vI: np.ndarray, outer_normals_flat: np.ndarray,
                 mats: np.ndarray) -> np.ndarray:
    """Worst signed distance of moved inner vertices against outer's edges."""
    moved = np.einsum("nij,kj->nki", mats, vI)
    s = np.einsum("nkc,jc->nkj", moved, outer_normals_flat)
    return np.min(s, axis=(1, 2))


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
        nf = outer.edge_normals * curv.form_signs
        vI = inner.vertex_array
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
            mats = motion_matrices(curv, r, theta, phi)
            scores = _score_batch(vI, nf, mats)
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
