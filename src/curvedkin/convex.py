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

import functools
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

    def __setstate__(self, state: dict) -> None:
        # Unpickled arrays are writable; a body sent to a worker stays not.
        self.__dict__.update(state)
        self.vertex_array.setflags(write=False)

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
        antipodal sphere vertices give a 0/0 normal, NaN.  A body built in a
        stack keeps its slice of the stack's normals instead.
        """
        stack = _Stack([self.vertex_array])
        normals, spacelike = stack.edge_normals(self.curvature)
        if spacelike[0]:
            raise GeometryError("edge does not support a geodesic")
        return normals[0, :len(self.edges)]

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
        _validate_stack([self])

    def signed_edge_distances(self, coords: np.ndarray) -> np.ndarray:
        """gen_sin of the signed distance from each edge geodesic (rows)."""
        return _dot3(self.edge_normals[:, None], np.atleast_2d(coords)[None])

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


# ---------------------------------------------------------------------------
# Stacks of bodies
# ---------------------------------------------------------------------------

def _dot3(x: np.ndarray, y: np.ndarray) -> np.ndarray:
    """x . y along the last axis, broadcast, its three products summed in
    written order, which numpy's reduction over an axis does not promise."""
    return (x[..., 0] * y[..., 0] + x[..., 1] * y[..., 1]) + x[..., 2] * y[..., 2]


class _Stack:
    """Bodies' (n_i, 3) vertex arrays as one (B, N, 3) array ``V``, zero past
    each body's n_i rows.

    ``real`` marks the rows that are vertices and ``edge`` the rows that
    start an edge (a polygon has an edge per vertex, a segment one, a point
    none); each is True where every row is one.  ``next`` is each row's
    cyclic successor in its body; a padded row's is arbitrary.
    """

    def __init__(self, rows: Sequence[np.ndarray]):
        self.sizes = [len(r) for r in rows]
        self.n = np.array(self.sizes)
        if min(self.sizes) == max(self.sizes):
            self.real = True
            self.V = rows[0][None] if len(rows) == 1 else np.stack(rows)
        else:
            self.real = np.arange(max(self.sizes)) < self.n[:, None]
            self.V = np.zeros((len(rows), max(self.sizes), 3))
            self.V[self.real] = np.concatenate(rows)
        self.next = self.successors(self.V)

    @cached_property
    def edge(self):
        if self.real is True and self.sizes[0] > 2:
            return True
        edges = np.where(self.n > 2, self.n, self.n - 1)
        return np.arange(self.V.shape[1]) < edges[:, None]

    def where_real(self, X: np.ndarray, fill) -> np.ndarray:
        """X, with fill in the padded rows."""
        return X if self.real is True else np.where(self.real, X, fill)

    def successors(self, X: np.ndarray) -> np.ndarray:
        """Row i of X replaced by row i + 1 of its body's cycle."""
        out = np.concatenate([X[:, 1:], X[:, :1]], axis=1)
        if self.real is not True:
            out[np.arange(len(X)), self.n - 1] = X[:, 0]
        return out

    def predecessors(self, X: np.ndarray) -> np.ndarray:
        """Row i of X replaced by row i - 1 of its body's cycle."""
        out = np.concatenate([X[:, -1:], X[:, :-1]], axis=1)
        if self.real is not True:
            out[:, 0] = X[np.arange(len(X)), self.n - 1]
        return out

    def edge_normals(self, curv: Curvature) -> tuple[np.ndarray, np.ndarray]:
        """(B, N, 3) edge normals as :attr:`GeodesicPolygon.edge_normals`
        makes them, zero past each body's edges, and which bodies have a
        spacelike edge."""
        nu = cross3(self.V, self.next)
        norm2 = (nu * nu * curv.line_form).sum(axis=-1)
        spacelike = ((norm2 < 0) & self.edge).any(axis=1)
        # NaN for a zero or spacelike normal, as 0/0 gives, without warning.
        normals = nu / np.sqrt(np.where(norm2 > 0, norm2, np.nan))[..., None]
        if self.edge is not True:
            normals[~self.edge] = 0.0
        return normals, spacelike


def _validate_stack(bodies: Sequence[GeodesicPolygon]) -> None:
    """Check bodies of one curvature, each as a polygon checks its vertices,
    in one pass over their stack; the first body, in order, that fails
    raises its first failed check.

    The checks run in construction's order on every body; the minidisc of
    the hemisphere test runs only where the earlier checks pass.  A valid
    body keeps its slice of the stacked edge normals, unless it is a segment
    with a spacelike edge: its ``edge_normals`` then raises when asked for,
    as a segment's always has.
    """
    curv = bodies[0].curvature
    stack = _Stack([K.vertex_array for K in bodies])
    V, n = stack.V, stack.n
    scale = np.abs(V).max(axis=(1, 2)) + 1.0
    repeated = stack.where_real(
        np.all(np.abs(V - stack.next) < EPS * scale[:, None, None], axis=2),
        False)

    def repeated_at(b: int) -> str:
        i = repeated[b].argmax()
        return f"repeated adjacent vertices {i}, {(i + 1) % n[b]}"

    # (bodies failing a check, message of body b), in construction's order.
    checks = [((n > 1) & repeated.any(axis=1), repeated_at)]
    normals, spacelike = stack.edge_normals(curv)
    if curv.kappa > 0:
        check = (n > 1) & ~checks[0][0]
        checks.append((check & ~_fit_hemisphere(curv, stack, normals, check),
                       lambda b: "points do not fit in an open hemisphere"))
    polygon = n > 2
    checks.append((polygon & spacelike,
                   lambda b: "edge does not support a geodesic"))
    if polygon.any():
        worst = _least_edge_distance(normals, V)
        turns = _dot3(stack.predecessors(normals), stack.next)
        collinear = stack.where_real(
            np.abs(turns) < 1e-13 * scale[:, None], False)
        checks += [
            (polygon & (worst < -EPS * scale), lambda b: (
                "vertex cycle is not convex/counterclockwise "
                f"(worst signed distance {worst[b]:.3g})")),
            (polygon & collinear.any(axis=1), lambda b: (
                f"vertex {collinear[b].argmax()} is collinear "
                "with neighbours"))]
    failed = functools.reduce(np.logical_or, [fails for fails, _ in checks])
    if failed.any():
        b = int(failed.argmax())
        for fails, message in checks:
            if fails[b]:
                raise GeometryError(message(b))
    for b, (K, size) in enumerate(zip(bodies, stack.sizes)):
        if not spacelike[b]:
            K.edge_normals = normals[b, :size if size > 2 else size - 1]


def _fit_hemisphere(curv: Curvature, stack: _Stack, normals: np.ndarray,
                    check: np.ndarray) -> np.ndarray:
    """Does some plane normal u give <u, v> > EPS * scale |u| at every vertex
    v of a stacked body?  Decided for the bodies that check marks.

    The sum of the edge normals (G (a + b) for a segment) is tried first,
    then, where that fails, G c for the minidisc center c, which maximizes
    the worst margin.  A 0/0 normal gives NaN, and a failed minidisc no
    center: no fit.
    """
    from .radii import smallest_enclosing_disc
    V, n, g = stack.V, stack.n, curv.point_form
    bound = EPS * np.sqrt((V * V).sum(axis=-1)).max(axis=1)
    u = normals.sum(axis=1)
    segment = n == 2
    if segment.any():
        u[segment] = V[segment, 0] * g + V[segment, 1] * g
    with np.errstate(invalid="ignore", divide="ignore"):
        margin = stack.where_real(_dot3(V, u[:, None]), np.inf)
        fits = margin.min(axis=1) / np.sqrt((u * u).sum(axis=-1)) > bound
        for b in np.flatnonzero(check & ~fits).tolist():
            va = V[b, :n[b]]
            try:
                c, _ = smallest_enclosing_disc(curv, va)
            except GeometryError:
                continue
            c = c * g
            fits[b] = np.min(va @ c) / np.linalg.norm(c) > bound[b]
    return fits


def _least_edge_distance(normals: np.ndarray, V: np.ndarray) -> np.ndarray:
    """Per stacked body, the least entry of its table of signed edge
    distances, a block of vertex columns at a time.

    Padded rows are zero, so padded entries are zero: they decide nothing,
    since a body fails only on an entry below -EPS * scale.
    """
    step = max(1, _BLOCK_ENTRIES // (len(V) * V.shape[1]))
    blocks = (_dot3(normals[:, :, None], V[:, None, s:s + step]).min(axis=(1, 2))
              for s in range(0, V.shape[1], step))
    return functools.reduce(np.minimum, blocks)


def _build_polygons(curvature: Curvature,
                    rows: Sequence[np.ndarray]) -> list[GeodesicPolygon]:
    """A polygon of each checked (n, 3) row array, all checked as polygons
    in one pass; the first body, in order, that fails its check raises."""
    bodies = []
    for r in rows:
        K = GeodesicPolygon.__new__(GeodesicPolygon)
        K.vertex_array, K.curvature = r, curvature
        r.setflags(write=False)
        bodies.append(K)
    if bodies:
        _validate_stack(bodies)
    return bodies


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


def _hull_rows(points: Union[Iterable[SurfacePoint], np.ndarray],
               curvature: Optional[Curvature] = None) -> tuple:
    """The vertex rows of the points' hull in canonical order, and their
    curvature; the points are checked as :func:`convex_hull` takes them.

    The rows are input rows, bit for bit, so they need no second check as
    points.
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
    return _canonical(coords[keep]), curvature


def convex_hull(points: Union[Iterable[SurfacePoint], np.ndarray],
                curvature: Optional[Curvature] = None) -> GeodesicPolygon:
    """Minimal convex polygon containing the points; vertices are inputs.

    The points are taken as :class:`GeodesicPolygon` takes its vertices.
    """
    rows, curvature = _hull_rows(points, curvature)
    return _build_polygons(curvature, [rows])[0]


# ---------------------------------------------------------------------------
# Metric quantities
# ---------------------------------------------------------------------------

def _stack_curvature(bodies: Sequence[GeodesicPolygon]) -> Curvature:
    curv = bodies[0].curvature
    for K in bodies[1:]:
        curv.require_same(K.curvature)
    return curv


def perimeter(K: GeodesicPolygon) -> float:
    """Boundary length; twice the length for a segment body, 0 for a point."""
    return perimeters([K])[0]


def perimeters(bodies: Sequence[GeodesicPolygon]) -> list[float]:
    """:func:`perimeter` of each body, bit for bit, in one pass over their
    stack; the bodies share one curvature.

    Each body's distances are summed in order by Python's ``sum``, as one
    body's always were.
    """
    if not bodies:
        return []
    curv = _stack_curvature(bodies)
    # A segment's vertex cycle runs there and back; a point's stays put.
    stack = _Stack([K.vertex_array for K in bodies])
    d = row_distances(curv, stack.V, stack.next)
    return [sum(row[:k]) for row, k in zip(d.tolist(), stack.sizes)]


def area(K: GeodesicPolygon) -> float:
    """Sum over the fan of triangles (v0, v_i, v_i+1) of the Van Oosterom-
    Strackee area 2 atan2(kappa det, D)/kappa, D = 1 + sum of pairwise G
    products (IEEE TBME 30 (1983) 125).  For small |u| = |kappa det/D| it is
    2 (det/D) atan(u)/u by series: exact as kappa -> 0, half det at 0.
    """
    return areas([K])[0]


def areas(bodies: Sequence[GeodesicPolygon]) -> list[float]:
    """:func:`area` of each body, in one pass over their stack; the bodies
    share one curvature.

    Elementwise over the padded (B, N) table of edges, in written order, so
    a body's bits do not depend on its stack: edge i gives the triangle
    (v0, v_i, next(v_i)).  The two at v0 have det exactly 0, so a body's
    edges, summed in order by Python's ``sum``, are its fan.
    """
    if not bodies:
        return []
    curv = _stack_curvature(bodies)
    k, g = curv.kappa, curv.point_form
    stack = _Stack([K.vertex_array for K in bodies])
    a, b, c = stack.V[:, :1], stack.V, stack.next
    # det(a, b, c) = det(a, b - a, c - a): the edges from a are small where
    # the triangle is.
    det = _dot3(a, cross3(b - a, c - a))
    den = 1.0 + _dot3(a * g, b) + _dot3(b * g, c) + _dot3(c * g, a)
    u = k * det / den
    # den <= 0 only for a spherical triangle of excess pi or more.
    small = (np.abs(u) < 1e-3) & (den > 0)
    u2 = u[small] ** 2
    tri = np.empty_like(det)
    tri[small] = (2.0 * det[small] / den[small]
                  * (1.0 - u2 / 3.0 + u2 * u2 / 5.0 - u2 ** 3 / 7.0))
    tri[~small] = 2.0 * libm_map(math.atan2, k * det[~small],
                                 den[~small]) / k
    return [sum(row[:m]) for row, m in zip(tri.tolist(), stack.sizes)]


def contains_rows(K: GeodesicPolygon, rows: np.ndarray) -> np.ndarray:
    """Which of the (m, 3) surface points lie in K?  Boundary points count
    as contained (within tolerance); a point body holds only its own row."""
    if K.n_vertices == 1:
        return (rows == K.vertex_array).all(axis=-1)
    tol = EPS * (float(np.max(np.abs(K.vertex_array))) + 1.0)
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
    points, which meet only where they coincide.
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
