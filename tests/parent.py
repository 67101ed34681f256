"""The embedding the differential oracles were written for.

The library stores a point of curvature kappa in Cayley-Klein coordinates,
z^2 + kappa (x^2 + y^2) = 1.  The oracles, kept from the code the library
replaced, were written for (x, y, z / sqrt|kappa|) when kappa != 0: the
sphere x^2 + y^2 + z^2 = 1/kappa with the Euclidean form, or the hyperboloid
x^2 + y^2 - z^2 = 1/kappa with the Minkowski form; kappa = 0 was the plane
z = 1 in both.  At kappa in {1, 0, -1} the two coincide.

Oracles take and return those parent coordinates through :func:`to_parent`
and :func:`from_parent`; :class:`ParentPolygon` shows them a polygon with
the parent's edge normals.  The helpers below are copies of the parent's,
verbatim except that the sign vector, once a property of Curvature, is
spelled out as ``_J``; so are the two minidisc oracles.

The rest works on the library's own points.  :func:`welzl_enclosing_disc`
is the iterative Welzl that the library's minidisc was until support
enumeration on a working set replaced it, moved with the support solver
``_disc_from_support`` under it.  :func:`boundary_crossings` counts crossings and stays here as the oracle of crossing counts.  Under it
is the arc kernel, ``arc_crossings`` through ``_arcs_overlap``, with
``DegeneratePosition``: the library's two-segment intersection until its
clip loop took segments on half-spaces, moved verbatim except that
``normalize_to_surface`` is spelled ``surface.normalize_to_surface``, since
this module's own is the parent's.  Last, :func:`segment_contains_point` is
the sum-of-distances test that the library's segment containment was.
:func:`random_convex_body` and :func:`random_point_in_disc` are the random
body generator as it was before it drew each body's stream in one call and
built its points as one coordinate array: one point, one draw of theta and
one of u, one ``exp_at_base`` at a time.  Their :func:`sample_positions`,
the library's until no library code called it, draws r and theta as
``surface.sample_motions`` draws its positions, and :func:`sample_isometry`,
the library's one-motion sampler until only tests called it, draws one
motion as ``sample_motions`` does.  :func:`_canonical_rotation`
is the hull's rotation of its vertex cycle on points, which the chart-hull
oracles still use; the library now rotates rows.
:class:`MatrixValidatedPolygon` is a GeodesicPolygon validated as the
library validated every body until it checked the n x n matrix of signed
edge distances a block of vertex columns at a time: the whole matrix at
once, verbatim, with the one-body hemisphere test that the library ran
until it checked a stack of bodies in one pass.
"""

import math
from dataclasses import dataclass
from typing import Optional, Sequence

import numpy as np

from curvedkin import surface
from curvedkin.bonnesen import _disc_radius_limit
from curvedkin.convex import GeodesicPolygon, convex_hull, next_rows
from curvedkin.surface import (EPS, Curvature, GeometryError, Isometry,
                               RandomStream, basis_matrices, bisector_normals,
                               cross3, exp_at_base, gen_sin, libm_map,
                               motion_basis, row_distances, sample_motions,
                               squared_chords)

# The Minkowski signs of the parent's form for kappa < 0.
_J = np.array([1.0, 1.0, -1.0])


def _scale(curv: Curvature) -> float:
    return curv.scale if curv.kappa != 0.0 else 1.0


def to_parent(curv: Curvature, a, matrix: bool = False) -> np.ndarray:
    """Rows (..., 3) of Cayley-Klein coordinates in the parent's, z / sqrt|k|.

    matrix=True maps a (..., 3, 3) stack of motions, D^-1 M D with
    D = diag(1, 1, sqrt|k|).
    """
    out = np.array(a, dtype=float)
    if matrix:
        out[..., 2, :] /= _scale(curv)
        out[..., :, 2] *= _scale(curv)
    else:
        out[..., 2] /= _scale(curv)
    return out


def from_parent(curv: Curvature, a, matrix: bool = False) -> np.ndarray:
    """The inverse of :func:`to_parent`."""
    out = np.array(a, dtype=float)
    if matrix:
        out[..., 2, :] *= _scale(curv)
        out[..., :, 2] /= _scale(curv)
    else:
        out[..., 2] *= _scale(curv)
    return out


def normals_from_parent(curv: Curvature, n) -> np.ndarray:
    """The parent's form-unit edge normals as the library's Lambda-unit ones.

    The parent's normal n gave form_dot(n, p) on its coordinates; the plain
    dot with Cayley-Klein points takes D^-1 J n.
    """
    out = np.array(n, dtype=float)
    if curv.kappa < 0:
        out = out * _J
    out[..., 2] /= _scale(curv)
    return out


def form_dot(curvature: Curvature, u, v) -> float:
    """Bilinear form of the embedding: Euclidean for k >= 0, Minkowski for k < 0.

    Accepts arrays with trailing dimension 3 and broadcasts.
    """
    u = np.asarray(u)
    v = np.asarray(v)
    if curvature.kappa < 0:
        return (u * v * _J).sum(axis=-1)
    # The signs are ones here; skipping their multiply speeds up the
    # single-point calls that distances make.
    return (u * v).sum(axis=-1)


@dataclass(frozen=True)
class SurfacePoint:
    """A point of the model surface, stored in embedding coordinates."""

    coords: np.ndarray
    curvature: Curvature

    def __post_init__(self):
        c = np.asarray(self.coords, dtype=float)
        if c.shape != (3,):
            raise GeometryError(f"expected 3 coordinates, got shape {c.shape}")
        c = c.copy()
        c.setflags(write=False)
        object.__setattr__(self, "coords", c)
        self._validate()

    def _validate(self):
        k = self.curvature.kappa
        x, y, z = self.coords
        if not (math.isfinite(x) and math.isfinite(y) and math.isfinite(z)):
            raise GeometryError(
                f"point coordinates must be finite, got {x}, {y}, {z}")
        if k == 0.0:
            if z != 1.0:
                raise GeometryError(f"flat-regime point must have z = 1, got {z}")
            return
        q = x * x + y * y + (z * z if k > 0 else -z * z)
        if not abs(q - 1.0 / k) <= 1e-9 * abs(1.0 / k):
            raise GeometryError(
                f"point does not satisfy the quadric constraint: {q} vs {1.0 / k}")
        if k < 0 and z <= 0:
            raise GeometryError("hyperbolic point must lie on the upper sheet")


def normalize_to_surface(curvature: Curvature, v: np.ndarray) -> np.ndarray:
    """Radially project an embedding vector onto the surface.

    Raises if the vector does not point at the surface (e.g. a spacelike
    vector in the hyperbolic regime, or z <= 0 in the flat one).
    """
    k = curvature.kappa
    v = np.asarray(v, dtype=float)
    if k == 0.0:
        if abs(v[2]) < EPS:
            raise GeometryError("vector does not meet the plane z = 1")
        return v / v[2]
    q = form_dot(curvature, v, v)
    if k > 0:
        n = math.sqrt(q)
        if n < EPS:
            raise GeometryError("cannot normalize a near-zero vector")
        return v / (n * curvature.scale)
    if q >= 0:
        raise GeometryError("vector is not timelike; no hyperboloid point")
    w = v / (math.sqrt(-q) * curvature.scale)
    if w[2] < 0:
        w = -w
    return w


def geodesic_distance(p: SurfacePoint, q: SurfacePoint) -> float:
    """The scalar distance that row_distances replaced, kept verbatim."""
    p.curvature.require_same(q.curvature)
    k = p.curvature.kappa
    if k == 0.0:
        return float(np.hypot(*(p.coords[:2] - q.coords[:2])))
    # Half-chord formula: accurate near zero, unlike acos/acosh of the form
    # product, which loses half the digits there.
    s = p.curvature.scale
    chord2 = float(form_dot(p.curvature, p.coords - q.coords,
                            p.coords - q.coords))
    half = 0.5 * s * math.sqrt(max(0.0, chord2))
    if k > 0:
        return 2.0 * math.asin(min(1.0, half)) / s
    return 2.0 * math.asinh(half) / s


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
    v = np.cross(p1 - p2, p2 - p3) * (_J if k < 0 else np.ones(3))
    if np.linalg.norm(v) < 1e-14:
        return []
    return _surface_candidates(curv, v)


def _midpoint(curv: Curvature, p: np.ndarray, q: np.ndarray) -> np.ndarray:
    return normalize_to_surface(curv, p + q)


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


class ParentPolygon:
    """A polygon as the oracles read it: vertices in the parent's
    coordinates, and edge normals as the parent's GeodesicPolygon made them."""

    def __init__(self, K):
        self.curvature = K.curvature
        self.vertex_array = to_parent(K.curvature, K.vertex_array)
        self.vertices = tuple(SurfacePoint(v, K.curvature)
                              for v in self.vertex_array)
        self.n_vertices, self.dim, self.edges = K.n_vertices, K.dim, K.edges
        va = self.vertex_array
        self.edge_planes = np.cross(va, np.roll(va, -1, axis=0))[:len(K.edges)]

    @property
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
            return nu * _J / np.sqrt(norm2)[:, None]
        if k > 0:
            # Per row, the BLAS dot that np.linalg.norm takes of one vector.
            norm = np.sqrt(nu[:, None, :] @ nu[:, :, None])[:, 0]
        else:
            norm = libm_map(math.hypot, nu[:, 0], nu[:, 1])[:, None]
        return nu / norm


class MatrixValidatedPolygon(GeodesicPolygon):
    """A GeodesicPolygon whose construction checks the whole n x n matrix of
    signed edge distances: the oracle of every construction verdict and
    message."""

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
            raise GeometryError(f"vertex {i} is collinear with neighbours")

    def _fits_hemisphere(self) -> bool:
        """Does some plane normal u give <u, v> > EPS * scale |u| at every v?

        The sum of the edge normals (G (a + b) for a segment) is tried first,
        then G c for the minidisc center c, which maximizes the worst margin.
        A 0/0 normal gives NaN, and a failed minidisc no center: no fit.
        """
        from curvedkin.radii import smallest_enclosing_disc
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


# The iterative Welzl that radii.smallest_enclosing_disc was until support
# enumeration on a working set replaced it, with its support solver.  They
# work on the library's own points, and are verbatim except that
# _circumcenter3 is spelled _bisector_circumcenter3, and _midpoint and
# _normalize_rows _welzl_midpoint and _welzl_normalize_rows, since this
# module's own are the parent's.  Those two are copies of the library's as
# Welzl called them, so that a later change there leaves the oracle alone;
# they spell normalize_to_surface and form_dot with ``surface.`` for the
# same reason.

def _welzl_midpoint(curv: Curvature, p: np.ndarray,
                    q: np.ndarray) -> np.ndarray:
    return surface.normalize_to_surface(curv, p + q)


def _welzl_normalize_rows(curv: Curvature, v: np.ndarray) -> np.ndarray:
    """The surface points on the lines through the rows of v.

    Lines that meet the surface have G(v, v) > 0; rows at infinity or
    spacelike ones drop out.  The sphere gives both points of a line, the
    other surfaces the one with z > 0.
    """
    q = surface.form_dot(curv, v, v)
    ok = q > 1e-28
    w = v[ok] / np.sqrt(q[ok])[:, None]
    return (np.concatenate([w, -w]) if curv.kappa > 0
            else w * np.sign(w[:, 2:3]))


def _bisector_circumcenter3(curv: Curvature, p1: np.ndarray, p2: np.ndarray,
                            p3: np.ndarray) -> np.ndarray:
    """Candidate centers equidistant from three points, as rows.

    The center lies on both perpendicular bisectors, so along the cross
    product of their normals (see :func:`bisector_normals`).
    """
    (ax, ay, az), (bx, by, bz) = bisector_normals(
        curv, np.array([p1, p2]), np.array([p2, p3])).tolist()
    return _welzl_normalize_rows(curv, np.array(
        [[ay * bz - az * by, az * bx - ax * bz, ax * by - ay * bx]]))


def _disc_from_support(curv: Curvature,
                       support: np.ndarray) -> Optional[tuple]:
    """Smallest geodesic disc with the given boundary points, (m, 3)."""
    if len(support) < 2:
        return (support[0], 0.0) if len(support) else None
    if len(support) == 2:
        c = _welzl_midpoint(curv, support[0], support[1])
        return c, float(row_distances(curv, c, support[0]))
    centers = _bisector_circumcenter3(curv, *support)
    if not len(centers):
        return None
    r = row_distances(curv, centers[:, None], support).max(axis=1)
    i = int(np.argmin(r))
    return centers[i], float(r[i])


def welzl_enclosing_disc(curv: Curvature,
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


# The minidisc oracles of tests/test_radii.py, kept here verbatim so that
# SurfacePoint and geodesic_distance are the parent's: at curvatures other
# than 1, 0 and -1 they take the parent's coordinates.

def recursive_enclosing_disc(curv, coords,
                             disc_from_support=_disc_from_support):
    """The recursive Welzl that :func:`welzl_enclosing_disc` replaced.

    Its depth grows with the point count; kept as the differential oracle
    for the iterative form on bodies small enough to recurse.
    """
    n = len(coords)
    rng = np.random.Generator(np.random.Philox(0xC1DC1E + n))
    order = list(rng.permutation(n))

    def welzl(idx, boundary):
        if not idx or len(boundary) == 3:
            return disc_from_support(curv, boundary)
        first, rest = idx[0], idx[1:]
        disc = welzl(rest, boundary)
        p = SurfacePoint(coords[first], curv)
        if disc is not None:
            c, r = disc
            if (geodesic_distance(SurfacePoint(c, curv), p)
                    <= r + 1e-12 * (1.0 + r)):
                return disc
        return welzl(rest, boundary + [coords[first]])

    return welzl(order, [])


def old_disc_from_support(curv, support):
    """The per-point ``_disc_from_support`` that the array form replaced.

    Kept verbatim as the differential oracle.
    """
    pts = [SurfacePoint(c, curv) for c in support]
    if len(support) == 0:
        return None
    if len(support) == 1:
        return support[0], 0.0
    if len(support) == 2:
        c = _midpoint(curv, support[0], support[1])
        return c, geodesic_distance(SurfacePoint(c, curv), pts[0])
    best = None
    for c in _circumcenter3(curv, *support):
        cp = SurfacePoint(c, curv)
        r = max(geodesic_distance(cp, p) for p in pts)
        if best is None or r < best[1]:
            best = (c, r)
    return best


def boundary_crossings(K: GeodesicPolygon, L: GeodesicPolygon) -> int:
    """Number of transversal crossing points of the two boundaries."""
    K.curvature.require_same(L.curvature)
    scale = float(max(np.max(np.abs(K.vertex_array)),
                      np.max(np.abs(L.vertex_array)))) + 1.0
    return len(_segment_intersections(K, L, EPS * scale))


# The arc kernel that convex.intersect_convex called for two segments until
# its clip loop took them on half-spaces.

class DegeneratePosition(GeometryError):
    """Boundaries share an edge segment; crossing counts are undefined."""


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
    d = cross3(_unit(cross3(p, q)), _unit(cross3(a, b)))
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
    nl = cross3(a, b)
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
    return [surface.normalize_to_surface(K.curvature, sign[i, e] * (d[i, e] / nd[i, e]))
            for i, e in zip(*np.nonzero(crossed & ~parallel))]


def _arcs_overlap(p, q, a, b) -> bool:
    # Midpoints included so exactly-coincident arcs (shared endpoints give
    # no strictly interior coefficients) still register as overlapping.
    for s, t, u, v in ((p, q, a, b), (a, b, p, q)):
        al, be = _arc_coefficients(s, t, np.array([u, v, 0.5 * (u + v)]))
        if np.any((al > 1e-9) & (be > 1e-9)):
            return True
    return False


def segment_contains_point(K: GeodesicPolygon, p: surface.SurfacePoint) -> bool:
    """The segment branch of ``contains_point`` that the half-space test
    replaced: p is on [a, b] when d(a, p) + d(p, b) <= d(a, b) + tol."""
    K.curvature.require_same(p.curvature)
    scale = float(np.max(np.abs(K.vertex_array))) + 1.0
    tol = EPS * scale
    a, b = K.vertices
    return (surface.geodesic_distance(a, p) + surface.geodesic_distance(p, b)
            <= surface.geodesic_distance(a, b) + tol)


# The chart hulls' rotation of a cycle of points.

def _canonical_rotation(points):
    """Rotate the cycle so the lexicographically smallest vertex is first."""
    start = min(range(len(points)), key=lambda i: tuple(points[i].coords))
    return points[start:] + points[:start]


# The random body generator before it drew each body's stream in one call.

def sample_positions(curvature: Curvature, support_radius: float, n: int,
                     rng: RandomStream) -> tuple[np.ndarray, np.ndarray]:
    """Area-uniform polar samples (r, theta) of the position part, over the
    region of :func:`surface.support_area`: the drawn area u gives r by
    :func:`surface.area_radius`.  theta and u are the draws of
    ``surface.sample_motions``, in its order.
    """
    if support_radius <= 0:
        raise GeometryError("support radius must be positive")
    theta = rng.uniform(0.0, 2.0 * math.pi, n)
    u = rng.uniform(0.0, surface.support_area(curvature, support_radius), n)
    return surface.area_radius(curvature, u), theta


def sample_isometry(curvature: Curvature, support_radius: float,
                    rng: RandomStream) -> Isometry:
    """One Haar-style isometry sample; see ``surface.sample_motions``."""
    m = basis_matrices(curvature, motion_basis(
        curvature, *sample_motions(curvature, support_radius, 1, rng)))[0]
    return Isometry(m, curvature)


def random_point_in_disc(curvature: Curvature, rho: float,
                         rng: RandomStream):
    r, theta = sample_positions(curvature, rho, 1, rng)
    return exp_at_base(curvature, float(r[0]), float(theta[0]))


def random_convex_body(curvature: Curvature, rng: RandomStream,
                       min_vertices: int = 3, max_vertices: int = 12,
                       rho_limit: Optional[float] = None) -> GeodesicPolygon:
    """Hull of points drawn area-uniformly in a random disc about the base.

    The disc radius is uniform in [0.1, 0.9 * limit], covering both fat and
    thin bodies; the result always has nonempty interior.
    """
    if rho_limit is None:
        rho_limit = _disc_radius_limit(curvature)
    while True:
        m = int(rng.integers(min_vertices, max_vertices + 1))
        rho = float(rng.uniform(0.1, 0.9 * rho_limit))
        pts = [random_point_in_disc(curvature, rho, rng) for _ in range(m)]
        hull = convex_hull(pts)
        if hull.dim == 2:
            return hull
