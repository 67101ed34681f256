"""Geodesically convex polygons on the model surfaces.

A polygon is an ordered counterclockwise cycle of surface points, stored as
one read-only (n, 3) array of their coordinates.  One and two vertex bodies
(points and segments) are first-class: the perimeter convention doubles a
segment's length, and several inequality stress cases need them.

Geodesics are traces of planes through the origin of the embedding, so a
single orientation predicate, the sign of det(a, b, p), answers every
sidedness question in all three regimes.
"""

from __future__ import annotations

import math
from functools import cached_property
from typing import Iterable, Optional, Sequence, Union

import numpy as np

from .surface import (EPS, Curvature, GeometryError, Isometry, SurfacePoint,
                      cross3, libm_map, normalize_to_surface, polar_rows,
                      row_distances, squared_chords, validate_rows)


# Entries of a table evaluated at once, so that the temporaries of an
# n x n table of edges or points, or of a grown radius working set's
# candidates, stay bounded as n grows.
_BLOCK_ENTRIES = 1 << 16


def next_rows(a: np.ndarray) -> np.ndarray:
    """a's rows moved up by one, the first last: np.roll(a, -1, axis=0)."""
    return np.concatenate([a[1:], a[:1]])


def triple_indices(n: int) -> tuple[np.ndarray, ...]:
    """Index arrays (i, j, k) of every i < j < k below n, lexicographically."""
    less = np.triu(np.ones((n, n), dtype=bool), 1)
    return np.nonzero(less[:, :, None] & less[None, :, :])


def _checked_rows(points: Union[Iterable[SurfacePoint], np.ndarray],
                  curvature: Optional[Curvature]) -> tuple:
    """A new (m, 3) coordinate array of the points, and their curvature.

    The points are SurfacePoints of one curvature, or the rows of an (m, 3)
    array given its curvature, checked as :class:`SurfacePoint` checks a
    point.  The curvature stays None only for no points.
    """
    if isinstance(points, np.ndarray):
        if curvature is None:
            raise GeometryError("coordinate rows need their curvature")
        return validate_rows(curvature, points.astype(float)), curvature
    pts = list(points)
    if pts and curvature is None:
        curvature = pts[0].curvature
    for p in pts:
        curvature.require_same(p.curvature)
    return np.array([p.coords for p in pts]).reshape(-1, 3), curvature


class GeodesicPolygon:
    """Compact convex polygon; immutable after construction.

    Its vertices are kept as one read-only (n, 3) array, ``vertex_array``;
    ``vertices`` builds their SurfacePoints on demand.
    """

    def __init__(self, vertices: Union[Sequence[SurfacePoint], np.ndarray],
                 curvature: Optional[Curvature] = None):
        self.vertex_array, self.curvature = _checked_rows(vertices, curvature)
        if not self.n_vertices:
            raise GeometryError("polygon needs at least one vertex")
        self.vertex_array.setflags(write=False)
        self._validate()

    @cached_property
    def vertices(self) -> tuple[SurfacePoint, ...]:
        return tuple(SurfacePoint(c, self.curvature) for c in self.vertex_array)

    @property
    def n_vertices(self) -> int:
        return len(self.vertex_array)

    @property
    def dim(self) -> int:
        return min(self.n_vertices - 1, 2)

    @cached_property
    def edges(self) -> list[tuple[int, int]]:
        n = self.n_vertices
        return [(i, (i + 1) % n) for i in range(n if n > 2 else n - 1)]

    @cached_property
    def edge_normals(self) -> np.ndarray:
        """Inward edge-plane normals nu / sqrt(nu^T Lambda nu), one per edge,
        nu the cross product of the edge's endpoints.

        For a point p, normal . p is gen_sin of its signed distance from the
        edge's geodesic, positive inside.  A spacelike vertex pair raises;
        antipodal sphere vertices give a 0/0 normal, NaN.
        """
        va = self.vertex_array
        nu = cross3(va, next_rows(va))[:len(self.edges)]
        norm2 = (nu * nu * self.curvature.line_form).sum(axis=-1)
        if np.any(norm2 < 0):
            raise GeometryError("edge does not support a geodesic")
        return nu / np.sqrt(norm2)[:, None]

    @cached_property
    def half_spaces(self) -> np.ndarray:
        """Lambda-unit inward normals whose signs define the body.

        x is in a segment or polygon iff normal . x >= 0 for every row, and
        normal . x is gen_sin of x's signed distance from the row's
        geodesic.  A polygon's rows are its edge normals.  A segment [p, q]
        has +-n, the normals of its line, and two end caps: the geodesics
        through p and q perpendicular to it, along p x Lambda n and
        q x Lambda n (Lambda n is the line's pole), each signed so that the
        other endpoint is inside.  A point body has no rows.
        """
        n = self.edge_normals
        if self.n_vertices != 2:
            return n
        lam = self.curvature.line_form
        va = self.vertex_array
        caps = cross3(va, n * lam)
        caps /= np.sqrt((caps * caps * lam).sum(axis=-1))[:, None]
        caps *= np.sign((caps * va[::-1]).sum(axis=-1))[:, None]
        return np.concatenate([n, -n, caps])

    def _validate(self):
        n = self.n_vertices
        va = self.vertex_array
        scale = float(np.max(np.abs(va))) + 1.0
        repeated = np.all(np.abs(va - next_rows(va)) < EPS * scale, axis=1)
        if n > 1 and repeated.any():
            i = int(np.argmax(repeated))
            raise GeometryError(f"repeated adjacent vertices {i}, {(i + 1) % n}")
        if self.curvature.kappa > 0 and n > 1 and not self._fits_hemisphere():
            raise GeometryError("points do not fit in an open hemisphere")
        if n < 3:
            return
        # The n x n table of signed edge distances, a block of vertex
        # columns at a time: its min, and column j's entry d(j - 2, j), the
        # turn at vertex j - 1.
        worst, turns = np.inf, np.empty(n)
        step = max(1, _BLOCK_ENTRIES // n)
        for s in range(0, n, step):
            cols = np.arange(s, min(n, s + step))
            dists = self.signed_edge_distances(va[s:s + step])
            worst = np.min(dists, initial=worst)
            turns[cols - 1] = dists[cols - 2, cols - s]
        if worst < -EPS * scale:
            raise GeometryError(
                "vertex cycle is not convex/counterclockwise "
                f"(worst signed distance {worst:.3g})")
        # Canonical form: no three consecutive collinear vertices.
        collinear = np.abs(turns) < 1e-13 * scale
        if collinear.any():
            i = int(np.argmax(collinear))
            raise GeometryError(f"vertex {i} is collinear with neighbours")

    def _fits_hemisphere(self) -> bool:
        """Does some plane normal u give <u, v> > EPS * scale |u| at every v?

        The sum of the edge normals (G (a + b) for a segment) is tried first,
        then G c for the minidisc center c, which maximizes the worst margin.
        A 0/0 normal gives NaN, and a failed minidisc no center: no fit.
        """
        from .radii import smallest_enclosing_disc
        va = self.vertex_array
        g = self.curvature.point_form
        bound = EPS * float(np.max(np.linalg.norm(va, axis=1)))
        with np.errstate(invalid="ignore", divide="ignore"):
            u = (va * g if self.n_vertices == 2
                 else self.edge_normals).sum(axis=0)
            if np.min(va @ u) / np.linalg.norm(u) > bound:
                return True
            try:
                u, _ = smallest_enclosing_disc(self.curvature, va)
            except GeometryError:
                return False
            u = u * g
            return bool(np.min(va @ u) / np.linalg.norm(u) > bound)

    def signed_edge_distances(self, coords: np.ndarray) -> np.ndarray:
        """gen_sin of the signed distance from each edge geodesic (rows)."""
        return (self.edge_normals[:, None, :]
                * np.atleast_2d(coords)[None, :, :]).sum(axis=-1)

    def transformed(self, g: Isometry) -> "GeodesicPolygon":
        """The body moved by g.  One stacked matrix-vector product, which
        rounds as g.apply does each vertex; va @ g.matrix.T would not."""
        self.curvature.require_same(g.curvature)
        return GeodesicPolygon(
            (g.matrix[None] @ self.vertex_array[:, :, None])[:, :, 0],
            self.curvature)

    def __repr__(self):
        return (f"GeodesicPolygon(kappa={self.curvature.kappa}, "
                f"n={self.n_vertices})")


def point_body(p: SurfacePoint) -> GeodesicPolygon:
    return GeodesicPolygon([p])


def segment_body(a: SurfacePoint, b: SurfacePoint) -> GeodesicPolygon:
    return GeodesicPolygon([a, b])


def _canonical(rows: np.ndarray) -> np.ndarray:
    """The cycle of rows rotated so the lexicographically smallest is first."""
    start = min(range(len(rows)), key=rows.tolist().__getitem__)
    return np.concatenate([rows[start:], rows[:start]])


def _hull_cycle(curv: Curvature, c: np.ndarray) -> list[int]:
    """Counterclockwise indices of the hull of the rows of c, strict turns only.

    Incremental on the edge-plane predicate det(a, b, p) = (a x b) . p,
    positive left of the geodesic a -> b on every surface.  A point on the
    nonpositive side of every hull edge has its antipode in the hull's cone,
    so the points fit in no open hemisphere.
    """
    tol = 1e-12 * float(np.abs(c).max())
    no_fit = GeometryError("points do not fit in an open hemisphere")
    # Python floats: on the few points of a typical body, numpy's per-call
    # cost would exceed the arithmetic.
    rows = c.tolist()

    def plane(i: int, j: int) -> list[float]:
        # Unit length, so det(a, b, p) is p's distance from the geodesic
        # however near a and b are.  Antipodes are left to the validation.
        (x0, x1, x2), (y0, y1, y2) = rows[i], rows[j]
        n = [x1 * y2 - x2 * y1, x2 * y0 - x0 * y2, x0 * y1 - x1 * y0]
        norm = math.hypot(*n) or 1.0
        return [v / norm for v in n]

    # The first edge: the point farthest from point 0 by chord, and the
    # point farthest from that.  On one geodesic, these are its two ends.
    a = int(squared_chords(curv, c, c[0]).argmax())
    b = int(squared_chords(curv, c, c[a]).argmax())
    off = c @ plane(a, b)
    k = int(np.abs(off).argmax())
    if abs(off[k]) <= tol:
        # On the sphere every point must lie on the arc from a to b.
        mid = (c[a] + c[b]) * curv.point_form
        if curv.kappa > 0 and np.min(c @ mid) < c[a] @ mid - tol:
            raise no_fit
        return [a, b]
    hull = [a, b, k] if off[k] > 0 else [b, a, k]
    planes = [plane(*e) for e in zip(hull, hull[1:] + hull[:1])]
    for p in range(len(c)):
        if p in (a, b, k):
            continue
        x, y, z = rows[p]
        s = [u * x + v * y + w * z for u, v, w in planes]
        first = min(range(len(s)), key=s.__getitem__)
        if s[first] >= -tol:
            continue  # inside, or on the boundary
        if max(s) <= tol:
            raise no_fit
        # Edges lo..hi, the weak run round a visible one, give way to p;
        # their inner vertices go, collinear ones included.
        lo = hi = first
        while s[lo - 1] <= tol:
            lo -= 1
        while s[(hi + 1) % len(s)] <= tol:
            hi += 1
        rest = hi - lo + 1
        hull, planes = hull[lo:] + hull[:lo], planes[lo:] + planes[:lo]
        hull = [hull[0], p] + hull[rest:]
        planes = [plane(hull[0], p), plane(p, hull[2])] + planes[rest:]
    return hull


def convex_hull(points: Union[Iterable[SurfacePoint], np.ndarray],
                curvature: Optional[Curvature] = None) -> GeodesicPolygon:
    """Minimal convex polygon containing the points; vertices are inputs.

    The points are taken as :class:`GeodesicPolygon` takes its vertices.
    """
    coords, curvature = _checked_rows(points, curvature)
    if not len(coords):
        raise GeometryError("empty point set")
    # Drop points within tolerance of an earlier one, a block of rows at a
    # time: row s + a is compared with the rows before it.
    tol = EPS * (float(np.max(np.abs(coords))) + 1.0)
    m = len(coords)
    step = max(1, _BLOCK_ENTRIES // m)
    dropped = []
    for s in range(0, m, step):
        near = np.max(np.abs(coords[s:s + step, None]
                             - coords[None, :s + step]), axis=2) <= tol
        dropped.append(np.tril(near, s - 1).any(axis=1))
    keep = np.flatnonzero(~np.concatenate(dropped))
    if len(keep) > 1:
        keep = keep[_hull_cycle(curvature, coords[keep])]
    return GeodesicPolygon(_canonical(coords[keep]), curvature)


# ---------------------------------------------------------------------------
# Metric quantities
# ---------------------------------------------------------------------------

def perimeter(K: GeodesicPolygon) -> float:
    """Boundary length; twice the length for a segment body, 0 for a point."""
    # A segment's vertex cycle runs there and back; a point's stays put.
    va = K.vertex_array
    return sum(row_distances(K.curvature, va, next_rows(va)).tolist())


def area(K: GeodesicPolygon) -> float:
    """Sum over the fan of triangles (v0, v_i, v_i+1) of the Van Oosterom-
    Strackee area 2 atan2(kappa det, D)/kappa, D = 1 + sum of pairwise G
    products (IEEE TBME 30 (1983) 125).  For small |u| = |kappa det/D| it is
    2 (det/D) atan(u)/u by series: exact as kappa -> 0, half det at 0.
    """
    if K.dim < 2:
        return 0.0
    curv = K.curvature
    va = K.vertex_array
    a, b, c = va[0], va[1:-1], va[2:]
    g = curv.point_form
    # det(a, b, c) = det(a, b - a, c - a) = -(b - a) . (a x (c - a)), with
    # the edges from a small where the triangle is, and a x as one matrix.
    cross_a = np.array([[0.0, -a[2], a[1]], [a[2], 0.0, -a[0]],
                        [-a[1], a[0], 0.0]])
    det = -((b - a) * ((c - a) @ cross_a.T)).sum(axis=-1)
    den = 1.0 + b @ (a * g) + (b * c) @ g + c @ (a * g)
    u = curv.kappa * det / den
    # den <= 0 only for a spherical triangle of excess pi or more.
    small = (np.abs(u) < 1e-3) & (den > 0)
    u2 = u[small] ** 2
    tri = np.empty_like(det)
    tri[small] = (2.0 * det[small] / den[small]
                  * (1.0 - u2 / 3.0 + u2 * u2 / 5.0 - u2 ** 3 / 7.0))
    tri[~small] = 2.0 * libm_map(math.atan2, curv.kappa * det[~small],
                                 den[~small]) / curv.kappa
    return sum(tri.tolist())


def contains_rows(K: GeodesicPolygon, rows: np.ndarray) -> np.ndarray:
    """Which of the (m, 3) surface points lie in K?  Boundary points count
    as contained (within tolerance)."""
    tol = EPS * (float(np.max(np.abs(K.vertex_array))) + 1.0)
    if K.n_vertices == 1:
        return row_distances(K.curvature, K.vertex_array[0], rows) <= tol
    return ((K.half_spaces[:, None] * rows).sum(axis=-1) >= -tol).all(axis=0)


def contains_point(K: GeodesicPolygon, p: SurfacePoint) -> bool:
    """Is p in K?  Boundary points count as contained (within tolerance)."""
    K.curvature.require_same(p.curvature)
    return bool(contains_rows(K, p.coords[None])[0])


# ---------------------------------------------------------------------------
# Intersection and Euler characteristic
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


def intersect_convex(K: GeodesicPolygon,
                     L: GeodesicPolygon) -> Optional[GeodesicPolygon]:
    """Convex intersection as a polygon, or None when empty.

    The vertex cycle of the lower-dimensional body, K at equal dimension,
    is clipped by the other's half-spaces.  A segment's cycle runs there and
    back, and a point's stays put, so one loop serves every pair but two
    points, which compare by distance.
    """
    K.curvature.require_same(L.curvature)
    if L.dim < K.dim:
        K, L = L, K
    if L.dim == 0:
        return K if contains_rows(L, K.vertex_array[:1])[0] else None
    scale = float(max(np.max(np.abs(K.vertex_array)),
                      np.max(np.abs(L.vertex_array)))) + 1.0
    coords = K.vertex_array
    for nu in L.half_spaces:
        coords = _clip_cycle(coords, nu, K.curvature, EPS * scale)
        if len(coords) == 0:
            return None
    return convex_hull(coords, K.curvature)


def euler_intersection(K: GeodesicPolygon, L: GeodesicPolygon) -> int:
    """Euler characteristic of the convex intersection: 1 if nonempty."""
    return 1 if intersect_convex(K, L) is not None else 0


# ---------------------------------------------------------------------------
# Convenience constructors
# ---------------------------------------------------------------------------

def regular_ngon(curvature: Curvature, r: float, n: int,
                 phase: float = 0.0) -> GeodesicPolygon:
    """Regular n-gon inscribed in the disc of radius r about the base point."""
    if n < 3:
        raise GeometryError("regular polygon needs n >= 3")
    theta = [phase + 2.0 * math.pi * i / n for i in range(n)]
    return GeodesicPolygon(polar_rows(curvature, [r] * n, theta), curvature)


def polygons_close(K: GeodesicPolygon, L: GeodesicPolygon,
                   tol: float = 1e-9) -> bool:
    """Vertex-wise equality in canonical form, within tolerance."""
    if K.n_vertices != L.n_vertices or K.curvature.kappa != L.curvature.kappa:
        return False
    va, vb = _canonical(K.vertex_array), _canonical(L.vertex_array)
    return bool(np.max(np.abs(va - vb)) <= tol)
