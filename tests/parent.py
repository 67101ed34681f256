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
spelled out as ``_J``; so are the two minidisc oracles and, last,
:func:`boundary_crossings`, which counts crossings on the library's arc
kernel and stays here as the oracle of crossing counts.
"""

import math
from dataclasses import dataclass

import numpy as np

from curvedkin.convex import GeodesicPolygon, _segment_intersections
from curvedkin.radii import _disc_from_support
from curvedkin.surface import EPS, Curvature, GeometryError, libm_map

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


# The minidisc oracles of tests/test_radii.py, kept here verbatim so that
# SurfacePoint and geodesic_distance are the parent's: at curvatures other
# than 1, 0 and -1 they take the parent's coordinates.

def recursive_enclosing_disc(curv, coords,
                             disc_from_support=_disc_from_support):
    """The recursive Welzl that ``smallest_enclosing_disc`` replaced.

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
