"""Geodesically convex polygons on the model surfaces.

A polygon is an ordered counterclockwise cycle of surface points.  One and
two vertex bodies (points and segments) are first-class: the perimeter
convention doubles a segment's length, and several inequality stress cases
need them.

Geodesics are traces of planes through the origin of the embedding, so a
single orientation predicate, the sign of det(a, b, p), answers every
sidedness question in all three regimes.
"""

from __future__ import annotations

import math
from functools import cached_property
from typing import Iterable, Optional, Sequence

import numpy as np

from .surface import (EPS, Curvature, GeometryError, Isometry, SurfacePoint,
                      exp_at_base, form_dot, geodesic_distance, libm_map,
                      normalize_to_surface, row_distances)


class DegeneratePosition(GeometryError):
    """Boundaries share an edge segment; crossing counts are undefined."""


def triple_indices(n: int) -> tuple[np.ndarray, ...]:
    """Index arrays (i, j, k) of every i < j < k below n, lexicographically."""
    less = np.triu(np.ones((n, n), dtype=bool), 1)
    return np.nonzero(less[:, :, None] & less[None, :, :])


def hemisphere_direction(curvature: Curvature,
                         coords: np.ndarray) -> np.ndarray:
    """A unit direction u with <u, v> > 0 for every point, or raise.

    The direction maximizing the worst margin over unit points is supported
    by at most three of them: it is a point itself, the bisector of a pair,
    or the circumcenter direction of a triple.  Enumerating those candidates
    makes the search exact at polygon sizes.
    """
    coords = np.atleast_2d(coords)
    scale = np.max(np.linalg.norm(coords, axis=1))
    unit = coords / np.linalg.norm(coords, axis=1, keepdims=True)
    n = len(unit)

    def best_of(candidates: np.ndarray):
        norms = np.linalg.norm(candidates, axis=1)
        ok = norms > EPS
        if not np.any(ok):
            return None, 0.0
        cand = candidates[ok] / norms[ok, None]
        margins = np.min(coords @ cand.T, axis=0)
        i = int(np.argmax(margins))
        return cand[i], float(margins[i])

    # Cheap first pass: mean, the points, pair bisectors.
    ii, jj = np.triu_indices(n, 1)
    best, best_margin = best_of(np.concatenate(
        [unit.sum(axis=0, keepdims=True), unit, unit[ii] + unit[jj]]))
    if best is not None and best_margin > EPS * scale:
        return best
    # Exact pass: circumcenter directions of triples, both signs.
    ii, jj, kk = triple_indices(n)
    tri = np.cross(unit[ii] - unit[jj], unit[jj] - unit[kk])
    cand, margin = best_of(np.concatenate([tri, -tri]))
    if cand is not None and margin > best_margin:
        best, best_margin = cand, margin
    if best is None or best_margin <= EPS * scale:
        raise GeometryError("points do not fit in an open hemisphere")
    return best


def _chart(curvature: Curvature, coords: np.ndarray,
           u: Optional[np.ndarray] = None) -> np.ndarray:
    """Project to a chart where geodesics are straight lines.

    Gnomonic for the sphere (about the hemisphere direction u), Klein for
    the hyperbolic plane, identity for the flat plane.
    """
    k = curvature.kappa
    coords = np.atleast_2d(coords)
    if k == 0.0:
        return coords[:, :2].copy()
    if k < 0:
        return coords[:, :2] / coords[:, 2:3]
    if u is None:
        u = hemisphere_direction(curvature, coords)
    # Right-handed basis (e1, e2, u) so chart orientation matches det sign.
    a = np.array([1.0, 0.0, 0.0])
    if abs(u @ a) > 0.9:
        a = np.array([0.0, 1.0, 0.0])
    e1 = a - (a @ u) * u
    e1 /= np.linalg.norm(e1)
    e2 = np.cross(u, e1)
    denom = coords @ u
    return np.stack([coords @ e1 / denom, coords @ e2 / denom], axis=1)


def _hull_indices(xy: np.ndarray) -> list[int]:
    """Andrew monotone chain; returns CCW indices, strict turns only."""
    n = len(xy)
    scale = max(1.0, float(np.max(np.abs(xy))))
    tol = 1e-12 * scale * scale
    order = sorted(range(n), key=lambda i: (xy[i, 0], xy[i, 1]))

    def cross(o, a, b):
        return ((xy[a, 0] - xy[o, 0]) * (xy[b, 1] - xy[o, 1])
                - (xy[a, 1] - xy[o, 1]) * (xy[b, 0] - xy[o, 0]))

    def build(seq):
        h: list[int] = []
        for i in seq:
            while len(h) >= 2 and cross(h[-2], h[-1], i) <= tol:
                h.pop()
            h.append(i)
        return h

    lower = build(order)
    upper = build(reversed(order))
    hull = lower[:-1] + upper[:-1]
    if len(hull) == 0:
        hull = [order[0]]
    return hull


class GeodesicPolygon:
    """Compact convex polygon; immutable after construction."""

    def __init__(self, vertices: Sequence[SurfacePoint],
                 curvature: Optional[Curvature] = None):
        vertices = tuple(vertices)
        if not vertices:
            raise GeometryError("polygon needs at least one vertex")
        if curvature is None:
            curvature = vertices[0].curvature
        for v in vertices:
            curvature.require_same(v.curvature)
        self.vertices = vertices
        self.curvature = curvature
        self._validate()

    @cached_property
    def vertex_array(self) -> np.ndarray:
        a = np.array([v.coords for v in self.vertices])
        a.setflags(write=False)
        return a

    @property
    def n_vertices(self) -> int:
        return len(self.vertices)

    @property
    def dim(self) -> int:
        return min(self.n_vertices - 1, 2)

    @cached_property
    def edges(self) -> list[tuple[int, int]]:
        n = self.n_vertices
        if n == 1:
            return []
        if n == 2:
            return [(0, 1)]
        return [(i, (i + 1) % n) for i in range(n)]

    @cached_property
    def edge_planes(self) -> np.ndarray:
        """Unnormalized interior half-space normals: endpoint cross products."""
        va = self.vertex_array
        return np.cross(va, np.roll(va, -1, axis=0))[:len(self.edges)]

    @cached_property
    def edge_normals(self) -> np.ndarray:
        """Form-normalized inward normals, one per edge; gen_sin-valued distances.

        For a point p, form_dot(curvature, normal, p) equals gen_sin of the
        signed geodesic distance from the edge's supporting geodesic,
        positive on the interior side.
        """
        k = self.curvature.kappa
        nu = self.edge_planes
        if k < 0:
            # libm pow, as ** on one scalar; ** on an array multiplies.
            sq = np.float_power(nu, 2)
            norm2 = sq[:, 0] + sq[:, 1] - sq[:, 2]
            if np.any(norm2 <= 0):
                raise GeometryError("edge does not support a geodesic")
            return nu * self.curvature.form_signs / np.sqrt(norm2)[:, None]
        if k > 0:
            # Per row, the BLAS dot that np.linalg.norm takes of one vector.
            norm = np.sqrt(nu[:, None, :] @ nu[:, :, None])[:, 0]
        else:
            norm = libm_map(math.hypot, nu[:, 0], nu[:, 1])[:, None]
        return nu / norm

    def _validate(self):
        n = self.n_vertices
        va = self.vertex_array
        scale = float(np.max(np.abs(va))) + 1.0
        nxt = np.roll(va, -1, axis=0)
        repeated = np.all(np.abs(va - nxt) < EPS * scale, axis=1)
        if n > 1 and repeated.any():
            i = int(np.argmax(repeated))
            raise GeometryError(f"repeated adjacent vertices {i}, {(i + 1) % n}")
        if self.curvature.kappa > 0:
            hemisphere_direction(self.curvature, va)  # raises on violation
        if n < 3:
            return
        dists = self.signed_edge_distances(va)
        if np.min(dists) < -EPS * scale:
            raise GeometryError(
                "vertex cycle is not convex/counterclockwise "
                f"(worst signed distance {np.min(dists):.3g})")
        # Canonical form: no three consecutive collinear vertices.
        idx = np.arange(n)
        collinear = np.abs(dists[idx - 1, (idx + 1) % n]) < 1e-13 * scale
        if collinear.any():
            i = int(np.argmax(collinear))
            raise GeometryError(f"vertex {i + 1} is collinear with neighbours")

    def signed_edge_distances(self, coords: np.ndarray) -> np.ndarray:
        """gen_sin of the signed distance from each edge geodesic (rows)."""
        return form_dot(self.curvature, self.edge_normals[:, None, :],
                        np.atleast_2d(coords)[None, :, :])

    def transformed(self, g: Isometry) -> "GeodesicPolygon":
        self.curvature.require_same(g.curvature)
        return GeodesicPolygon([g.apply(v) for v in self.vertices],
                               self.curvature)

    def __repr__(self):
        return (f"GeodesicPolygon(kappa={self.curvature.kappa}, "
                f"n={self.n_vertices})")


def point_body(p: SurfacePoint) -> GeodesicPolygon:
    return GeodesicPolygon([p])


def segment_body(a: SurfacePoint, b: SurfacePoint) -> GeodesicPolygon:
    return GeodesicPolygon([a, b])


def _canonical_rotation(points: list[SurfacePoint]) -> list[SurfacePoint]:
    """Rotate the cycle so the lexicographically smallest vertex is first."""
    start = min(range(len(points)), key=lambda i: tuple(points[i].coords))
    return points[start:] + points[:start]


def convex_hull(points: Iterable[SurfacePoint]) -> GeodesicPolygon:
    """Minimal convex polygon containing the points; vertices are inputs."""
    pts = list(points)
    if not pts:
        raise GeometryError("empty point set")
    curv = pts[0].curvature
    for p in pts:
        curv.require_same(p.curvature)
    coords = np.array([p.coords for p in pts])
    # Drop points within tolerance of an earlier one.
    tol = EPS * (float(np.max(np.abs(coords))) + 1.0)
    near = np.max(np.abs(coords[:, None] - coords[None]), axis=2) <= tol
    keep = np.flatnonzero(~np.tril(near, -1).any(axis=1))
    if len(keep) == 1:
        return GeodesicPolygon([pts[keep[0]]], curv)
    u = hemisphere_direction(curv, coords) if curv.kappa > 0 else None
    xy = _chart(curv, coords[keep], u)
    hull = _hull_indices(xy)
    chosen = _canonical_rotation([pts[keep[i]] for i in hull])
    return GeodesicPolygon(chosen, curv)


# ---------------------------------------------------------------------------
# Metric quantities
# ---------------------------------------------------------------------------

def perimeter(K: GeodesicPolygon) -> float:
    """Boundary length; twice the length for a segment body, 0 for a point."""
    # A segment's vertex cycle runs there and back; a point's stays put.
    va = K.vertex_array
    return sum(row_distances(K.curvature, va,
                             np.roll(va, -1, axis=0)).tolist())


def area(K: GeodesicPolygon) -> float:
    """Area via the shoelace formula (flat) or angle excess over kappa."""
    if K.dim < 2:
        return 0.0
    va = K.vertex_array
    curv = K.curvature
    if curv.kappa == 0.0:
        x, y = va[:, 0], va[:, 1]
        return 0.5 * float(np.sum(x * np.roll(y, -1) - np.roll(x, -1) * y))
    # Angle at each b between the geodesics toward a and c (form metric).
    a, b, c = np.roll(va, 1, axis=0), va, np.roll(va, -1, axis=0)
    bb = form_dot(curv, b, b)
    u = a - (form_dot(curv, a, b) / bb)[:, None] * b
    v = c - (form_dot(curv, c, b) / bb)[:, None] * b
    cosang = form_dot(curv, u, v) / np.sqrt(form_dot(curv, u, u)
                                            * form_dot(curv, v, v))
    total = sum(libm_map(math.acos, np.clip(cosang, -1.0, 1.0)).tolist())
    return (total - (len(va) - 2) * math.pi) / curv.kappa


def contains_point(K: GeodesicPolygon, p: SurfacePoint) -> bool:
    """Is p in K?  Boundary points count as contained (within tolerance)."""
    K.curvature.require_same(p.curvature)
    scale = float(np.max(np.abs(K.vertex_array))) + 1.0
    tol = EPS * scale
    if K.n_vertices == 1:
        return geodesic_distance(K.vertices[0], p) <= tol
    if K.n_vertices == 2:
        a, b = K.vertices
        return (geodesic_distance(a, p) + geodesic_distance(p, b)
                <= geodesic_distance(a, b) + tol)
    return bool(np.min(K.signed_edge_distances(p.coords)) >= -tol)


# ---------------------------------------------------------------------------
# Intersection, Euler characteristic, boundary crossings
# ---------------------------------------------------------------------------

def _plane_crossing(p: np.ndarray, q: np.ndarray, sp: float, sq: float,
                    curv: Curvature) -> np.ndarray:
    """Point where the geodesic pq meets the plane with values sp, sq."""
    d = sq * p - sp * q
    if sq - sp < 0:
        d = -d
    return normalize_to_surface(curv, d)


def _clip_cycle(coords: np.ndarray, nu: np.ndarray, curv: Curvature,
                tol: float) -> np.ndarray:
    """One Sutherland-Hodgman pass against the half-space nu . x >= 0."""
    s = coords @ nu
    out = []
    m = len(coords)
    for i in range(m):
        j = (i + 1) % m
        if s[i] >= -tol:
            out.append(coords[i])
        if (s[i] > tol and s[j] < -tol) or (s[i] < -tol and s[j] > tol):
            out.append(_plane_crossing(coords[i], coords[j], s[i], s[j], curv))
    return np.array(out) if out else np.empty((0, 3))


def _clip_segment(pa: np.ndarray, pb: np.ndarray, planes: np.ndarray,
                  curv: Curvature, tol: float):
    for nu in planes:
        sa, sb = float(pa @ nu), float(pb @ nu)
        if sa < -tol and sb < -tol:
            return None
        if sa < -tol:
            pa = _plane_crossing(pa, pb, sa, sb, curv)
        elif sb < -tol:
            pb = _plane_crossing(pa, pb, sa, sb, curv)
    return pa, pb


def _points_to_body(coords: np.ndarray,
                    curv: Curvature) -> Optional[GeodesicPolygon]:
    if len(coords) == 0:
        return None
    return convex_hull([SurfacePoint(c, curv) for c in coords])


def intersect_convex(K: GeodesicPolygon,
                     L: GeodesicPolygon) -> Optional[GeodesicPolygon]:
    """Convex intersection as a polygon, or None when empty."""
    K.curvature.require_same(L.curvature)
    curv = K.curvature
    if K.dim == 0:
        return K if contains_point(L, K.vertices[0]) else None
    if L.dim == 0:
        return L if contains_point(K, L.vertices[0]) else None
    scale = float(max(np.max(np.abs(K.vertex_array)),
                      np.max(np.abs(L.vertex_array)))) + 1.0
    tol = EPS * scale
    if K.dim == 1 and L.dim == 1:
        hits = _segment_intersections(K, L, tol)
        return _points_to_body(np.array(hits), curv) if hits else None
    if K.dim == 1:
        K, L = L, K
    if L.dim == 1:
        seg = _clip_segment(L.vertex_array[0], L.vertex_array[1],
                            K.edge_planes, curv, tol)
        if seg is None:
            return None
        return _points_to_body(np.array(seg), curv)
    coords = K.vertex_array
    for nu in L.edge_planes:
        coords = _clip_cycle(coords, nu, curv, tol)
        if len(coords) == 0:
            return None
    return _points_to_body(coords, curv)


def euler_intersection(K: GeodesicPolygon, L: GeodesicPolygon) -> int:
    """Euler characteristic of the convex intersection: 1 if nonempty."""
    return 1 if intersect_convex(K, L) is not None else 0


def _dot(u: np.ndarray, v: np.ndarray) -> np.ndarray:
    return np.einsum("...c,...c->...", u, v)


def _unit(v: np.ndarray) -> np.ndarray:
    return v / np.linalg.norm(v, axis=-1, keepdims=True)


def _arc_coefficients(p: np.ndarray, q: np.ndarray,
                      d: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Solve d = alpha p + beta q in span(p, q) by least squares; broadcasts."""
    g11, g12, g22 = _dot(p, p), _dot(p, q), _dot(q, q)
    b1, b2 = _dot(p, d), _dot(q, d)
    det = g11 * g22 - g12 * g12
    return (b1 * g22 - b2 * g12) / det, (b2 * g11 - b1 * g12) / det


def unit_arcs(vertices: np.ndarray,
              edges: Sequence[tuple[int, int]]) -> tuple[np.ndarray, np.ndarray]:
    """Unit start and end points of the edges; vertices is (..., n, 3)."""
    u = _unit(vertices)
    idx = np.asarray(edges, dtype=int).reshape(-1, 2)
    return u[..., idx[:, 0], :], u[..., idx[:, 1], :]


def arc_crossings(p: np.ndarray, q: np.ndarray, a: np.ndarray,
                  b: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Strict crossings of the K arcs pq with the L arcs ab, all pairs.

    p, q are (..., K, 3) and a, b (..., L, 3) unit endpoints.  Returns d
    (..., K, L, 3), the cross product of the two arcs' unit plane normals,
    and the mask (..., K, L) of pairs with d or -d strictly inside both.
    Unit normals make |d| the sine of the angle between the planes, so the
    1e-12 threshold on its coefficients does not shrink with arc length.
    """
    p, q = p[..., :, None, :], q[..., :, None, :]
    a, b = a[..., None, :, :], b[..., None, :, :]
    d = np.cross(_unit(np.cross(p, q)), _unit(np.cross(a, b)))
    alpha, beta = _arc_coefficients(p, q, d)
    gamma, delta = _arc_coefficients(a, b, d)
    eps = 1e-12
    pos = (alpha > eps) & (beta > eps) & (gamma > eps) & (delta > eps)
    neg = (alpha < -eps) & (beta < -eps) & (gamma < -eps) & (delta < -eps)
    return d, pos | neg


def _segment_intersections(K: GeodesicPolygon, L: GeodesicPolygon,
                           tol: float) -> list[np.ndarray]:
    """Transversal intersection points of the two boundaries' edges."""
    p, q = unit_arcs(K.vertex_array, K.edges)
    a, b = unit_arcs(L.vertex_array, L.edges)
    d, crossed = arc_crossings(p, q, a, b)
    nl = np.cross(a, b)
    nd = np.linalg.norm(d, axis=-1)
    parallel = nd < 1e-12
    for i, e in zip(*np.nonzero(parallel)):
        # Parallel supporting geodesics; overlap is degenerate.
        if (abs(nl[e] @ p[i]) < tol and abs(nl[e] @ q[i]) < tol
                and _arcs_overlap(p[i], q[i], a[e], b[e])):
            raise DegeneratePosition("edges share a supporting geodesic segment")
    # A crossing lies along d where its coefficients are positive, else -d.
    alpha, _ = _arc_coefficients(p[:, None], q[:, None], d)
    sign = np.where(alpha > 0, 1.0, -1.0)
    return [normalize_to_surface(K.curvature, sign[i, e] * (d[i, e] / nd[i, e]))
            for i, e in zip(*np.nonzero(crossed & ~parallel))]


def _arcs_overlap(p, q, a, b) -> bool:
    # Midpoints included so exactly-coincident arcs (shared endpoints give
    # no strictly interior coefficients) still register as overlapping.
    for s, t, u, v in ((p, q, a, b), (a, b, p, q)):
        al, be = _arc_coefficients(s, t, np.array([u, v, 0.5 * (u + v)]))
        if np.any((al > 1e-9) & (be > 1e-9)):
            return True
    return False


def boundary_crossings(K: GeodesicPolygon, L: GeodesicPolygon) -> int:
    """Number of transversal crossing points of the two boundaries."""
    K.curvature.require_same(L.curvature)
    scale = float(max(np.max(np.abs(K.vertex_array)),
                      np.max(np.abs(L.vertex_array)))) + 1.0
    return len(_segment_intersections(K, L, EPS * scale))


# ---------------------------------------------------------------------------
# Convenience constructors
# ---------------------------------------------------------------------------

def regular_ngon(curvature: Curvature, r: float, n: int,
                 phase: float = 0.0) -> GeodesicPolygon:
    """Regular n-gon inscribed in the disc of radius r about the base point."""
    if n < 3:
        raise GeometryError("regular polygon needs n >= 3")
    verts = [exp_at_base(curvature, r, phase + 2.0 * math.pi * i / n)
             for i in range(n)]
    return GeodesicPolygon(verts, curvature)


def polygons_close(K: GeodesicPolygon, L: GeodesicPolygon,
                   tol: float = 1e-9) -> bool:
    """Vertex-wise equality in canonical form, within tolerance."""
    if K.n_vertices != L.n_vertices or K.curvature.kappa != L.curvature.kappa:
        return False
    va = np.array([p.coords for p in _canonical_rotation(list(K.vertices))])
    vb = np.array([p.coords for p in _canonical_rotation(list(L.vertices))])
    return bool(np.max(np.abs(va - vb)) <= tol)
