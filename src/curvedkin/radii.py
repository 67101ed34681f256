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
from .surface import (Curvature, GeometryError, SurfacePoint,
                      bisector_normals, cross3, form_dot, gen_asin, gen_sin,
                      normalize_to_surface, row_distances, squared_chords)

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


def _circumcenter3(curv: Curvature, p1: np.ndarray, p2: np.ndarray,
                   p3: np.ndarray) -> np.ndarray:
    """Candidate centers equidistant from three points, as rows.

    The center lies on both perpendicular bisectors, so along the cross
    product of their normals (see :func:`bisector_normals`).
    """
    (ax, ay, az), (bx, by, bz) = bisector_normals(
        curv, np.array([p1, p2]), np.array([p2, p3])).tolist()
    return _normalize_rows(curv, np.array(
        [[ay * bz - az * by, az * bx - ax * bz, ax * by - ay * bx]]))


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
    if not len(centers):
        return None
    r = row_distances(curv, centers[:, None], support).max(axis=1)
    i = int(np.argmin(r))
    return centers[i], float(r[i])


def smallest_enclosing_disc(curv: Curvature,
                            coords: np.ndarray) -> tuple[np.ndarray, float]:
    """Welzl's randomized-incremental minidisc over embedded points.

    The iterative form: a point outside the current disc restarts the scan
    over the points inserted before it with that point on the rim, so the
    loops nest at most three deep whatever the point count.  Each new disc
    tests every point in one squared_chords call, against the chord of its
    radius.  The shuffle is seeded deterministically from the point count,
    so support sets (and tie-breaks) are reproducible run to run.
    """
    n = len(coords)
    rng = np.random.Generator(np.random.Philox(0xC1DC1E + n))
    pts = coords[rng.permutation(n)[::-1]]

    def outside(disc) -> np.ndarray:
        """Mask of the points outside the disc; every point, if no disc."""
        if disc is None:
            return np.ones(n, dtype=bool)
        c, r = disc
        chord = 2.0 * gen_sin(curv, 0.5 * (r + 1e-12 * (1.0 + r)))
        return squared_chords(curv, c, pts) > chord * chord

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
    """The surface points on the lines through the rows of v.

    Lines that meet the surface have G(v, v) > 0; rows at infinity or
    spacelike ones drop out.  The sphere gives both points of a line, the
    other surfaces the one with z > 0.
    """
    q = form_dot(curv, v, v)
    ok = q > 1e-28
    w = v[ok] / np.sqrt(q[ok])[:, None]
    return (np.concatenate([w, -w]) if curv.kappa > 0
            else w * np.sign(w[:, 2:3]))


def _incenter_candidates(curv: Curvature, normals: np.ndarray) -> np.ndarray:
    """Every stationary point of the common edge distance, for these edges.

    The three-edge equidistant points; the stationary points on each
    two-edge bisector geodesic, where normal . x peaks at Lambda times the
    Lambda-projection of the normal sum; and the edge poles, Lambda nu.  The
    last two lie at infinity on the flat plane, so there the normalization
    drops them.  On the sphere and the hyperbolic plane they are kept where
    they meet the surface, and the caller's largest least edge value passes
    over those that are no incenter.
    """
    n = len(normals)
    lam = curv.line_form
    ii, jj, kk = triple_indices(n)
    triples = cross3(normals[ii] - normals[jj], normals[jj] - normals[kk])
    ii, jj = np.triu_indices(n, 1)
    d = normals[ii] - normals[jj]
    s = normals[ii] + normals[jj]
    dd = (d * d) @ lam
    ok = np.abs(dd) > 1e-20
    d, s = d[ok], s[ok]
    pairs = (s - ((s * d) @ lam / dd[ok])[:, None] * d) * lam
    return _normalize_rows(curv, np.concatenate([triples, pairs,
                                                 normals * lam]))


def _close_working_set(curv: Curvature, normals: np.ndarray,
                       work: np.ndarray) -> np.ndarray:
    """Add edges until consecutive working edges meet on the surface.

    Edge geodesics i and j meet where the embedding line along
    normals[i] x normals[j] crosses the surface; that point lies ahead of
    both edges when the cross product itself is a surface direction:
    G(w, w) > 0 with z > 0.  When every consecutive pair meets so, the
    working edges bound a compact polygon.  A failing pair gets the edge
    midway between them in K's edge order.
    """
    n = len(normals)
    while True:
        nxt = np.roll(work, -1)
        w = cross3(normals[work], normals[nxt])
        gap = (nxt - work) % n
        bad = ((w[:, 2] <= 0) | (form_dot(curv, w, w) <= 0)) & (gap > 1)
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
    m = min(n, _FIRST_WORKING_SET)
    work = np.arange(m) * n // m
    while True:
        if curv.kappa <= 0:
            work = _close_working_set(curv, normals, work)
        cand = _incenter_candidates(curv, normals[work])
        best_val = -math.inf
        best = None
        # A working set can grow to all n edges; bound the value matrix.
        chunk = max(1, 20_000_000 // len(work))
        for lo in range(0, len(cand), chunk):
            vals = np.min(cand[lo:lo + chunk] @ normals[work].T, axis=1)
            i = int(np.argmax(vals))
            if float(vals[i]) > best_val:
                best_val = float(vals[i])
                best = cand[lo + i]
        if best is None:
            raise GeometryError("incenter search failed")
        slack = normals @ best - best_val
        slack[work] = 0.0
        j = int(np.argmin(slack))
        if slack[j] >= 0.0:
            break
        work = np.union1d(work, [j])
    if best_val < 0:
        raise GeometryError("incenter search failed")
    return float(gen_asin(curv, best_val)), SurfacePoint(best, curv)


def metrics(K: GeodesicPolygon) -> BodyMetrics:
    """All four scalar quantities of a body plus both centers."""
    r, inc = inradius(K)
    R, circ = circumradius(K)
    return BodyMetrics(A=area(K), P=perimeter(K), r_in=r, R_circ=R,
                       incenter=inc, circumcenter=circ)
