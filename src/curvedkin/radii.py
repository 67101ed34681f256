"""Inradius and circumradius of convex bodies on the model surfaces.

The circumcenter of two or three embedded points, and the point equidistant
from two or three geodesics, are both solvable in closed form in the
embedding; the minidisc solver and the incenter search are built from those
primitives and work identically in all three regimes.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional

import numpy as np

from .convex import GeodesicPolygon, area, perimeter, triple_indices
from .surface import (Curvature, GeometryError, SurfacePoint, form_dot,
                      gen_asin, normalize_to_surface, row_distances)

# random_convex_body's default max_vertices: random bodies solve in one round.
_FIRST_WORKING_SET = 12


@dataclass(frozen=True)
class BodyMetrics:
    """Area, perimeter, inradius and circumradius of one body."""

    A: float
    P: float
    r_in: float
    R_circ: float
    incenter: SurfacePoint
    circumcenter: SurfacePoint

    @property
    def kappa(self) -> float:
        return self.incenter.curvature.kappa


def _surface_candidates(curv: Curvature, v: np.ndarray) -> list[np.ndarray]:
    """Surface points on the line through v, if any (both signs on the sphere)."""
    out = []
    for s in (1.0, -1.0):
        try:
            out.append(normalize_to_surface(curv, s * v))
        except GeometryError:
            pass
        if curv.kappa <= 0:
            break  # sign is fixed by the sheet / plane choice
    return out


def _circumcenter3(curv: Curvature, p1: np.ndarray, p2: np.ndarray,
                   p3: np.ndarray) -> list[np.ndarray]:
    """Candidate centers equidistant from three points."""
    k = curv.kappa
    if k == 0.0:
        ax, ay = p1[:2]
        bx, by = p2[:2]
        cx, cy = p3[:2]
        d = 2.0 * (ax * (by - cy) + bx * (cy - ay) + cx * (ay - by))
        if abs(d) < 1e-14 * (1.0 + abs(ax) + abs(bx) + abs(cx)) ** 2:
            return []
        ux = ((ax ** 2 + ay ** 2) * (by - cy) + (bx ** 2 + by ** 2) * (cy - ay)
              + (cx ** 2 + cy ** 2) * (ay - by)) / d
        uy = ((ax ** 2 + ay ** 2) * (cx - bx) + (bx ** 2 + by ** 2) * (ax - cx)
              + (cx ** 2 + cy ** 2) * (bx - ax)) / d
        return [np.array([ux, uy, 1.0])]
    v = np.cross(p1 - p2, p2 - p3) * curv.form_signs
    if np.linalg.norm(v) < 1e-14:
        return []
    return _surface_candidates(curv, v)


def _midpoint(curv: Curvature, p: np.ndarray, q: np.ndarray) -> np.ndarray:
    return normalize_to_surface(curv, p + q)


def _disc_from_support(curv: Curvature,
                       support: np.ndarray) -> Optional[tuple]:
    """Smallest geodesic disc with the given boundary points, (m, 3)."""
    if len(support) < 2:
        return (support[0], 0.0) if len(support) else None
    if len(support) == 2:
        c = _midpoint(curv, support[0], support[1])
        return c, float(row_distances(curv, c, support[0]))
    centers = _circumcenter3(curv, *support)
    if not centers:
        return None
    r = row_distances(curv, np.array(centers)[:, None], support).max(axis=1)
    i = int(np.argmin(r))
    return centers[i], float(r[i])


def smallest_enclosing_disc(curv: Curvature,
                            coords: np.ndarray) -> tuple[np.ndarray, float]:
    """Welzl's randomized-incremental minidisc over embedded points.

    The iterative form: a point outside the current disc restarts the scan
    over the points inserted before it with that point on the rim, so the
    loops nest at most three deep whatever the point count.  Each new disc
    tests every point in one row_distances call.  The shuffle is seeded
    deterministically from the point count, so support sets (and
    tie-breaks) are reproducible run to run.
    """
    n = len(coords)
    rng = np.random.Generator(np.random.Philox(0xC1DC1E + n))
    pts = coords[rng.permutation(n)[::-1]]

    def outside(disc) -> np.ndarray:
        """Mask of the points outside the disc; every point, if no disc."""
        if disc is None:
            return np.ones(n, dtype=bool)
        c, r = disc
        return row_distances(curv, c, pts) > r + 1e-12 * (1.0 + r)

    def first(far: np.ndarray, lo: int, hi: int) -> int:
        """Index of the first outside point of pts[lo:hi], else hi."""
        hits = np.flatnonzero(far[lo:hi])
        return lo + int(hits[0]) if len(hits) else hi

    disc, i = None, 0  # the first point lies outside the empty disc
    while i < n:
        disc = _disc_from_support(curv, pts[[i]])
        far = outside(disc)
        j = first(far, 0, i)
        while j < i:
            disc = _disc_from_support(curv, pts[[i, j]])
            far = outside(disc)
            m = first(far, 0, j)
            while m < j:
                disc = _disc_from_support(curv, pts[[i, j, m]])
                far = outside(disc)
                m = first(far, m + 1, j)
            j = first(far, j + 1, i)
        i = first(far, i + 1, n)
    if disc is None:
        raise GeometryError("minidisc failed (degenerate input)")
    return disc


def circumradius(K: GeodesicPolygon) -> tuple[float, SurfacePoint]:
    """Radius and center of the smallest enclosing geodesic disc."""
    curv = K.curvature
    c, r = smallest_enclosing_disc(curv, K.vertex_array)
    if curv.kappa > 0 and r >= curv.hemisphere_limit:
        raise GeometryError("enclosing disc leaves the hemisphere; "
                            "polygon violates the convexity convention")
    return r, SurfacePoint(c, curv)


def _normalize_rows(curv: Curvature, v: np.ndarray) -> np.ndarray:
    """Vectorized surface normalization; invalid rows are dropped."""
    k = curv.kappa
    if k == 0.0:
        ok = np.abs(v[:, 2]) > 1e-14
        return v[ok] / v[ok, 2:3]
    # Lines that meet the sphere have form > 0; those meeting the sheet, < 0.
    q = form_dot(curv, v, v) * math.copysign(1.0, k)
    ok = q > 1e-28
    w = v[ok] / (np.sqrt(q[ok])[:, None] * curv.scale)
    return np.concatenate([w, -w]) if k > 0 else w * np.sign(w[:, 2:3])


def _incenter_candidates(curv: Curvature, normals: np.ndarray) -> np.ndarray:
    """Every stationary point of the common edge distance, for these edges.

    Three-edge equidistant points everywhere; off the flat regime, where edge
    distance is not monotone along a bisector, also the stationary points on
    each two-edge bisector geodesic, and on the sphere the edge poles.
    """
    n = len(normals)
    k = curv.kappa
    candidate_sets = []
    ii, jj, kk = triple_indices(n)
    d1 = normals[ii] - normals[jj]
    d2 = normals[jj] - normals[kk]
    if k == 0.0:
        det = d1[:, 0] * d2[:, 1] - d1[:, 1] * d2[:, 0]
        ok = np.abs(det) > 1e-14
        x = (-d1[ok, 2] * d2[ok, 1] + d2[ok, 2] * d1[ok, 1]) / det[ok]
        y = (-d1[ok, 0] * d2[ok, 2] + d2[ok, 0] * d1[ok, 2]) / det[ok]
        candidate_sets.append(
            np.stack([x, y, np.ones(len(x))], axis=1))
    else:
        candidate_sets.append(
            _normalize_rows(curv, np.cross(d1, d2) * curv.form_signs))
        # Two-edge stationary points: maximize <n_i, x> on the bisector
        # plane <n_i - n_j, x> = 0 by form-projecting the normal sum.
        ii, jj = np.triu_indices(n, 1)
        d = normals[ii] - normals[jj]
        s = normals[ii] + normals[jj]
        dd = form_dot(curv, d, d)
        ok = np.abs(dd) > 1e-20
        sd = form_dot(curv, s[ok], d[ok])
        candidate_sets.append(_normalize_rows(
            curv, s[ok] - (sd / dd[ok])[:, None] * d[ok]))
        if k > 0:
            # Poles of the edge geodesics (single active edge at pi/2).
            candidate_sets.append(_normalize_rows(curv, normals.copy()))
    return np.concatenate(candidate_sets)


def _close_working_set(curv: Curvature, normals_flat: np.ndarray,
                       work: np.ndarray) -> np.ndarray:
    """Add edges until consecutive working edges meet on the surface.

    Edge geodesics i and j meet where the embedding line along
    normals_flat[i] x normals_flat[j] crosses the surface; that point lies
    ahead of both edges when the line points into the upper half-space
    (flat) or the future light cone (hyperbolic).  When every consecutive
    pair meets so, the working edges bound a compact polygon.  A failing
    pair gets the edge midway between them in K's edge order.
    """
    n = len(normals_flat)
    while True:
        nxt = np.roll(work, -1)
        w = np.cross(normals_flat[work], normals_flat[nxt])
        floor = np.hypot(w[:, 0], w[:, 1]) if curv.kappa < 0 else 0.0
        gap = (nxt - work) % n
        bad = (w[:, 2] <= floor) & (gap > 1)
        if not bad.any():
            return work
        work = np.union1d(work, (work[bad] + gap[bad] // 2) % n)


def inradius(K: GeodesicPolygon) -> tuple[float, SurfacePoint]:
    """Radius and center of the largest inscribed geodesic disc.

    The incenter is a stationary point of the common distance to at most
    three edges, so it is the best of the candidates that
    ``_incenter_candidates`` enumerates.  That enumeration runs on a working
    set of edges: up to 12 evenly spaced ones first (all of them for
    n <= 12).  The best candidate x_S of the working set S has value v_S,
    the least gen_sin distance from x_S to an edge of S.  If no edge of K
    lies nearer x_S than v_S, x_S is the incenter: v_S bounds the optimum
    from above, since dropping edges can only enlarge the inscribed disc.
    Otherwise the nearest edge joins S and the search repeats; at worst S
    grows to all n edges and the search is the full enumeration.

    The bound v_S holds only when the supremum over S is attained at a
    candidate.  The sphere is compact, so it always is there; on the flat
    and hyperbolic planes S must bound a compact polygon, which
    ``_close_working_set`` enforces before each round.  Without that rule,
    ultraparallel working edges leave the supremum infinite and the finite
    best candidate would certify a wrong answer.
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
    normals_flat = normals * curv.form_signs
    m = min(n, _FIRST_WORKING_SET)
    work = np.arange(m) * n // m
    while True:
        if k <= 0:
            work = _close_working_set(curv, normals_flat, work)
        cand = _incenter_candidates(curv, normals[work])
        best_val = -math.inf
        best = None
        # A working set can grow to all n edges; bound the value matrix.
        chunk = max(1, 20_000_000 // len(work))
        for lo in range(0, len(cand), chunk):
            vals = np.min(cand[lo:lo + chunk] @ normals_flat[work].T, axis=1)
            i = int(np.argmax(vals))
            if float(vals[i]) > best_val:
                best_val = float(vals[i])
                best = cand[lo + i]
        if best is None:
            raise GeometryError("incenter search failed")
        slack = normals_flat @ best - best_val
        slack[work] = 0.0
        j = int(np.argmin(slack))
        if slack[j] >= 0.0:
            break
        work = np.union1d(work, [j])
    if best_val < 0:
        raise GeometryError("incenter search failed")
    return gen_asin(curv, best_val), SurfacePoint(best, curv)


def metrics(K: GeodesicPolygon) -> BodyMetrics:
    """All four scalar quantities of a body plus both centers."""
    r, inc = inradius(K)
    R, circ = circumradius(K)
    return BodyMetrics(A=area(K), P=perimeter(K), r_in=r, R_circ=R,
                       incenter=inc, circumcenter=circ)
