"""Inradius and circumradius of convex bodies on the model surfaces.

The circumcenter of two or three embedded points, and the point equidistant
from two or three geodesics, are solvable in closed form in the embedding.
Both solvers enumerate those candidates on a working set of vertices or
edges and certify the best against the whole body; a violator joins the set
and the round repeats (the violator loop of LP-type problems: Matousek,
Sharir and Welzl, Algorithmica 16, 1996).
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .convex import (_BLOCK_ENTRIES, GeodesicPolygon, area, areas,
                     next_rows, perimeter, perimeters, triple_indices)
from .surface import (Curvature, GeometryError, SurfacePoint,
                      bisector_normals, cross3, form_dot, gen_asin, gen_sin,
                      normalize_to_surface, squared_chords)

# Both solvers start from this many vertices or edges: random_convex_body's
# default max_vertices, so random bodies solve in one round.
_FIRST_WORKING_SET = 12
# Index arrays are kept for working sets up to this size, about 0.3 MB for
# all sizes together; a set this large is one a few rounds grew.
_CACHED_INDEX_SIZE = 24


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


def _first_working_set(n: int) -> np.ndarray:
    """Up to _FIRST_WORKING_SET evenly spaced indices below n: all for small
    n.  The minidisc starts here; it solves a cyclic polygon in one round."""
    m = min(n, _FIRST_WORKING_SET)
    return np.arange(m) * n // m


def _first_edges(curv: Curvature, va: np.ndarray) -> np.ndarray:
    """The longest edge, by squared chord, of each run of edges between
    consecutive indices of _first_working_set: every edge for small n.

    Near a circle the longest edges are the ones nearest the incenter, and
    one per run keeps the set spread around the body.
    """
    n = len(va)
    starts = _first_working_set(n)
    if n <= _FIRST_WORKING_SET:
        return starts
    chords = squared_chords(curv, va, next_rows(va))
    return np.array([lo + int(np.argmax(chords[lo:hi]))
                     for lo, hi in zip(starts, [*starts[1:], n])])


def _index_arrays(n: int) -> tuple[tuple[np.ndarray, ...], ...]:
    """The pairs i < j and the triples i < j < k below n, as index arrays.

    Read-only and cached up to _CACHED_INDEX_SIZE, which covers a first
    working set and the few edges a solve usually adds to it.  A larger set
    builds its own and drops them with the solve: at n = 200 the triples
    take 32 MB.
    """
    if n <= _CACHED_INDEX_SIZE:
        return _cached_index_arrays(n)
    return np.triu_indices(n, 1), triple_indices(n)


@functools.lru_cache(maxsize=None)
def _cached_index_arrays(n: int) -> tuple[tuple[np.ndarray, ...], ...]:
    pairs, triples = np.triu_indices(n, 1), triple_indices(n)
    for a in pairs + triples:
        a.setflags(write=False)
    return pairs, triples


def _least(score, cand: np.ndarray, width: int) -> tuple[int, float]:
    """Index and value of the least score over the rows of cand, the first
    on ties; (-1, inf) if none.  score maps a block of rows to one value
    each through temporaries of width entries a row; a block holds
    _BLOCK_ENTRIES, so a working set grown to a large body fits in memory."""
    best, best_val = -1, math.inf
    step = max(1, _BLOCK_ENTRIES // max(1, width))
    for lo in range(0, len(cand), step):
        vals = score(cand[lo:lo + step])
        i = int(np.argmin(vals))
        if vals[i] < best_val:
            best, best_val = lo + i, float(vals[i])
    return best, best_val


def _disc_candidates(curv: Curvature, pts: np.ndarray) -> np.ndarray:
    """The center of every disc with one, two or three of pts on its rim.

    One point is its own center.  Two: the normalized sum.  Three: the line
    along the cross product of two perpendicular-bisector normals (see
    :func:`bisector_normals`).  Of each line's surface points the one on
    its rim points' side, G(c, p) > 0, is kept: the nearer antipode on the
    sphere, z > 0 elsewhere.  Lines that miss the surface drop out.
    """
    (ii, jj), (ti, tj, tk) = _index_arrays(len(pts))
    v = np.concatenate([pts[ii] + pts[jj],
                        cross3(bisector_normals(curv, pts[ti], pts[tj]),
                               bisector_normals(curv, pts[tj], pts[tk]))])
    rim = np.concatenate([pts[ii], pts[ti]])
    q = form_dot(curv, v, v)
    ok = q > 0.0
    w = v[ok] / np.sqrt(q[ok])[:, None]
    w[form_dot(curv, w, rim[ok]) < 0.0] *= -1.0
    return np.concatenate([pts, w])


def smallest_enclosing_disc(curv: Curvature,
                            coords: np.ndarray) -> tuple[np.ndarray, float]:
    """Center and radius of the smallest geodesic disc holding the points.

    At most three points lie on its rim, so it is the center of
    ``_disc_candidates`` whose largest squared chord to the points is
    least, enumerated on a working set S of points as in :func:`inradius`.
    The disc of S is final if every point lies within the chord of
    r_S + 1e-12 (1 + r_S); otherwise the farthest point joins S and the
    round repeats.  A farthest point already in S is outside only by
    rounding (on the sphere, r_S clamped at pi), so the disc of S is
    returned; S grows every round, and the loop ends.

    On the sphere a disc is kept only where it lies on its rim points'
    side, so the result is the smallest only for points in an open
    hemisphere, the only ones the library relies on.  For other points it
    is an enclosing disc of radius at least ``hemisphere_limit``.
    """
    work = _first_working_set(len(coords))
    while True:
        pts = coords[work]
        cand = _disc_candidates(curv, pts)
        i, far = _least(
            lambda c: squared_chords(curv, c[:, None], pts).max(axis=1),
            cand, 3 * len(pts))
        if i < 0:
            raise GeometryError("minidisc failed (degenerate input)")
        r = float(2.0 * gen_asin(curv, 0.5 * math.sqrt(max(0.0, far))))
        chord = 2.0 * gen_sin(curv, 0.5 * (r + 1e-12 * (1.0 + r)))
        out = squared_chords(curv, cand[i], coords)
        j = int(np.argmax(out))
        if not out[j] > chord * chord or j in work:
            return cand[i], r
        work = np.union1d(work, [j])


def circumradius(K: GeodesicPolygon) -> tuple[float, SurfacePoint]:
    """Radius and center of the smallest enclosing geodesic disc."""
    curv = K.curvature
    c, r = smallest_enclosing_disc(curv, K.vertex_array)
    if r >= curv.hemisphere_limit:
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
    (ii, jj), (ti, tj, tk) = _index_arrays(n)
    triples = cross3(normals[ti] - normals[tj], normals[tj] - normals[tk])
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
        nxt = next_rows(work)
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
    set of edges: first the longest edge of each of 12 index runs (all of
    them for n <= 12; see ``_first_edges``).  The best candidate x_S of the
    working set S has value v_S, the least gen_sin distance from x_S to an
    edge of S.  If no edge of K lies nearer x_S than v_S, x_S is the
    incenter: v_S bounds the optimum from above, since dropping edges can
    only enlarge the inscribed disc.
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
        return 0.0, SurfacePoint(K.vertex_array[0], curv)
    if K.dim == 1:
        va = K.vertex_array
        return 0.0, SurfacePoint(normalize_to_surface(curv, va[0] + va[1]), curv)
    normals = K.edge_normals
    work = _first_edges(curv, K.vertex_array)
    while True:
        if curv.kappa <= 0:
            work = _close_working_set(curv, normals, work)
        cand = _incenter_candidates(curv, normals[work])
        i, least = _least(lambda c: -np.min(c @ normals[work].T, axis=1),
                          cand, len(work))
        if i < 0:
            raise GeometryError("incenter search failed")
        best, best_val = cand[i], -least
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
    return _with_radii(K, area(K), perimeter(K))


def metrics_stack(bodies: Sequence[GeodesicPolygon]) -> list[BodyMetrics]:
    """:func:`metrics` of each body, bit for bit: the areas and perimeters in
    one pass over their stack, the radii body by body.  The bodies share
    one curvature."""
    return [_with_radii(K, A, P) for K, A, P in
            zip(bodies, areas(bodies), perimeters(bodies))]


def _with_radii(K: GeodesicPolygon, A: float, P: float) -> BodyMetrics:
    r, inc = inradius(K)
    R, circ = circumradius(K)
    return BodyMetrics(A=A, P=P, r_in=r, R_circ=R, incenter=inc,
                       circumcenter=circ)
