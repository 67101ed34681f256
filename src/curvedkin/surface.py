"""Model surfaces of constant Gauss curvature in one Cayley-Klein embedding.

A point of curvature kappa is (x, y, z) with z^2 + kappa (x^2 + y^2) = 1, and
z > 0 when kappa <= 0: the quadric of the point form G = diag(kappa, kappa, 1)
(Herranz, Ortega & Santander, J. Phys. A 33 (2000) 4525).  It is a sphere for
kappa > 0, a hyperboloid sheet for kappa < 0, and the plane z = 1 at kappa = 0,
reached continuously; the base point is (0, 0, 1).  Geodesics are traces of
planes through the origin, their normals measured by the line form Lambda =
diag(1, 1, kappa): for a Lambda-unit normal nu, nu . p is gen_sin of p's signed
distance from the geodesic.  Isometries are the 3x3 matrices preserving G, so
one set of linear-algebra predicates serves every curvature.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from typing import Optional

import numpy as np

# Absolute tolerance for geometric predicates on embedded coordinates.
# Every module in the package inherits this value.
EPS = 1e-9

# Below |kappa| * t^2 = TAYLOR_CUTOFF the generalized trig functions switch
# to series evaluation; (1 - cos)/kappa cancels catastrophically otherwise.
TAYLOR_CUTOFF = 1e-8


class GeometryError(ValueError):
    """A geometric precondition was violated."""


class CurvatureMismatch(GeometryError):
    """Operands live on surfaces of different curvature."""


@dataclass(frozen=True)
class Curvature:
    """Gauss curvature of a model surface; its sign picks sphere, plane or
    hyperbolic plane."""

    kappa: float

    def __post_init__(self):
        if not math.isfinite(self.kappa):
            raise GeometryError(f"curvature must be finite, got {self.kappa}")

    @property
    def scale(self) -> float:
        """sqrt(|kappa|); zero in the flat regime."""
        return math.sqrt(abs(self.kappa))

    @property
    def hemisphere_limit(self) -> float:
        """Circumradius bound pi/(2 sqrt(kappa)) for convex bodies, half the
        sphere's diameter; inf otherwise."""
        if self.kappa > 0:
            return math.pi / (2.0 * math.sqrt(self.kappa))
        return math.inf

    @property
    def point_form(self) -> np.ndarray:
        """The diagonal of G: points have G-norm 1."""
        return np.array([self.kappa, self.kappa, 1.0])

    @property
    def line_form(self) -> np.ndarray:
        """The diagonal of Lambda, the form on plane normals."""
        return np.array([1.0, 1.0, self.kappa])

    def require_same(self, other: "Curvature") -> None:
        if self.kappa != other.kappa:
            raise CurvatureMismatch(
                f"curvatures differ: {self.kappa} vs {other.kappa}")


def gen_cos_sin(curvature: Curvature, t) -> tuple:
    """(gen_cos, gen_sin) of t: by series where |kappa t^2| < TAYLOR_CUTOFF,
    else from cos and sin (cosh and sinh for kappa < 0) of sqrt|kappa| t.

    A float t is evaluated with math, so that a point's coordinates do not
    depend on numpy's SIMD builds (see libm_map); an array with numpy.
    """
    k, s = curvature.kappa, curvature.scale
    u = k * t * t
    array = isinstance(t, np.ndarray)
    small = (np.abs if array else abs)(u) < TAYLOR_CUTOFF
    if small.all() if array else small:
        return (1.0 + u * (-1 / 2 + u * (1 / 24 + u * (-1 / 720 + u / 40320))),
                t * (1.0 + u * (-1 / 6 + u * (1 / 120 - u / 5040))))
    lib = np if array else math
    cos, sin = (lib.cos, lib.sin) if k > 0 else (lib.cosh, lib.sinh)
    c, sn = cos(s * t), sin(s * t) / s
    if array and small.any():
        series = gen_cos_sin(curvature, np.where(small, t, 0.0))
        c, sn = np.where(small, series[0], c), np.where(small, series[1], sn)
    return c, sn


def gen_cos(curvature: Curvature, t):
    """cos(sqrt(k) t), cosh(sqrt(-k) t), or 1, by regime; floats or arrays."""
    return gen_cos_sin(curvature, t)[0]


def gen_sin(curvature: Curvature, t):
    """sin(sqrt(k) t)/sqrt(k), sinh(sqrt(-k) t)/sqrt(-k), or t, by regime."""
    return gen_cos_sin(curvature, t)[1]


def gen_asin(curvature: Curvature, x):
    """Inverse of gen_sin on [0, pi/(2 sqrt(k))]; libm on array entries."""
    k = curvature.kappa
    if k == 0.0:
        return x
    s = curvature.scale
    if k > 0:
        x = np.minimum(1.0, np.maximum(-1.0, s * x))
        return libm_map(math.asin, x) / s
    return libm_map(math.asinh, s * x) / s


def disc_perimeter(curvature: Curvature, r: float) -> float:
    """Perimeter of the geodesic disc of radius r."""
    _check_disc_radius(curvature, r)
    return 2.0 * math.pi * gen_sin(curvature, r)


def disc_area(curvature: Curvature, r: float) -> float:
    """Area of the geodesic disc of radius r, 4 pi gen_sin^2(r/2), which
    keeps its digits as kappa r^2 -> 0; :func:`area_radius` inverts it."""
    _check_disc_radius(curvature, r)
    return 4.0 * math.pi * gen_sin(curvature, 0.5 * r) ** 2


def _check_disc_radius(curvature: Curvature, r: float) -> None:
    if r < 0:
        raise GeometryError(f"disc radius must be nonnegative, got {r}")
    if r > 2.0 * curvature.hemisphere_limit:
        raise GeometryError(
            f"disc radius {r} exceeds the sphere's diameter bound "
            f"{2.0 * curvature.hemisphere_limit}")


def form_dot(curvature: Curvature, u, v):
    """u^T G v, broadcast; gen_cos of the distance of two surface points."""
    return (np.asarray(u) * np.asarray(v) * curvature.point_form).sum(axis=-1)


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
        _check_point(self.curvature.kappa, *self.coords.tolist())

    def __eq__(self, other):
        return (isinstance(other, SurfacePoint)
                and self.curvature.kappa == other.curvature.kappa
                and bool(np.all(self.coords == other.coords)))

    def __hash__(self):
        return hash((self.curvature.kappa, tuple(self.coords)))


def _check_point(k: float, x: float, y: float, z: float) -> None:
    """Raise unless (x, y, z) is a point of the surface of curvature k."""
    if not (math.isfinite(x) and math.isfinite(y) and math.isfinite(z)):
        raise GeometryError(
            f"point coordinates must be finite, got {x}, {y}, {z}")
    # Relative to the terms' size, which far out cancel to 1.
    q = z * z + k * (x * x + y * y)
    if not abs(q - 1.0) <= 1e-9 * (z * z + abs(k) * (x * x + y * y)):
        raise GeometryError(
            f"point does not satisfy the quadric constraint: {q} vs 1")
    if k <= 0 and z <= 0:
        raise GeometryError("point must lie on the sheet z > 0")


def validate_rows(curvature: Curvature, coords) -> np.ndarray:
    """coords as an (m, 3) float array, each row checked as
    :class:`SurfacePoint` checks a point, the first failing row raising."""
    c = np.asarray(coords, dtype=float)
    if c.ndim != 2 or c.shape[1] != 3:
        raise GeometryError(f"expected (m, 3) coordinates, got shape {c.shape}")
    for row in c.tolist():
        _check_point(curvature.kappa, *row)
    return c


def base_point(curvature: Curvature) -> SurfacePoint:
    """The distinguished base point x0 = (0, 0, 1)."""
    return SurfacePoint(np.array([0.0, 0.0, 1.0]), curvature)


def normalize_to_surface(curvature: Curvature, v: np.ndarray) -> np.ndarray:
    """The surface point on the line through v: v's direction on the sphere,
    z > 0 elsewhere.  Raises where G(v, v) <= EPS^2 (at infinity, spacelike).
    """
    v = np.asarray(v, dtype=float)
    x, y, z = v.tolist()
    q = z * z + curvature.kappa * (x * x + y * y)
    if not q > EPS * EPS:
        raise GeometryError("vector does not point at the surface")
    w = v / math.sqrt(q)
    return -w if curvature.kappa <= 0 and z < 0 else w


def cross3(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """np.cross of float 3-vectors along the last axis, broadcast.

    Bit for bit np.cross's products and differences, without its axis
    handling, which costs more than the arithmetic on a body's few rows.
    """
    out = np.empty(np.broadcast_shapes(a.shape, b.shape))
    a0, a1, a2 = a[..., 0], a[..., 1], a[..., 2]
    b0, b1, b2 = b[..., 0], b[..., 1], b[..., 2]
    np.subtract(a1 * b2, a2 * b1, out=out[..., 0])
    np.subtract(a2 * b0, a0 * b2, out=out[..., 1])
    np.subtract(a0 * b1, a1 * b0, out=out[..., 2])
    return out


def libm_map(f, *xs: np.ndarray) -> np.ndarray:
    """The math function f over the entries of equal-shape arrays.

    numpy's arcsin, arccos, arcsinh and hypot differ from math's by 1-2 ulp
    on some hosts (AVX-512), which would make results depend on the host.
    """
    return np.asarray(_libm_ufunc(f, len(xs))(*xs), dtype=float)


@functools.lru_cache(maxsize=None)
def _libm_ufunc(f, nin: int) -> np.ufunc:
    """f as a ufunc of nin arguments, built once: building one costs more
    than mapping it over a small body's entries.  The keys are the few math
    functions the library maps."""
    return np.frompyfunc(f, nin, 1)


def _dz_over_kappa(curvature: Curvature, d: np.ndarray,
                   t: np.ndarray) -> np.ndarray:
    """dz/kappa for rows d = p - q and t = p + q of surface points.

    From the quadric, -(|p_xy|^2 - |q_xy|^2)/(p_z + q_z): finite as kappa ->
    0.  Only on the sphere can p_z + q_z fall below 1, where that quotient
    loses digits and dz/kappa itself is taken.
    """
    dt = d * t
    far = t[..., 2] < 1.0
    if not far.any():
        return -(dt[..., 0] + dt[..., 1]) / t[..., 2]
    with np.errstate(divide="ignore", invalid="ignore"):
        return np.where(far, d[..., 2] / curvature.kappa,
                        -(dt[..., 0] + dt[..., 1]) / t[..., 2])


def bisector_normals(curvature: Curvature, P: np.ndarray,
                     Q: np.ndarray) -> np.ndarray:
    """(dx, dy, dz/kappa) = G (p - q)/kappa for the rows of P - Q, broadcast:
    the normal of p and q's perpendicular bisector, of line form |chord|^2."""
    P = np.asarray(P, dtype=float)
    Q = np.asarray(Q, dtype=float)
    d = P - Q
    d[..., 2] = _dz_over_kappa(curvature, d, P + Q)
    return d


def squared_chords(curvature: Curvature, P: np.ndarray,
                   Q: np.ndarray) -> np.ndarray:
    """|dxy|^2 + kappa (dz/kappa)^2 for the rows of P - Q; broadcasts.

    Far out on the hyperboloid a radial pair's two terms cancel, with error
    eps |dxy|^2; 2 (1 - G(p, q))/kappa, with error 2 eps T/|kappa| for T the
    size of G's terms, is taken where that is smaller.
    """
    k = curvature.kappa
    P = np.asarray(P, dtype=float)
    Q = np.asarray(Q, dtype=float)
    d = P - Q
    w = _dz_over_kappa(curvature, d, P + Q)
    dd = d * d
    e = dd[..., 0] + dd[..., 1]
    kw2 = k * (w * w)
    lost = kw2 < -0.75 * e
    if not lost.any():
        return e + kw2
    pq = P * Q
    terms = np.abs(pq[..., 2]) - k * np.abs(pq[..., :2]).sum(axis=-1)
    return np.where(lost & (2.0 * terms < -k * e),
                    2.0 * (1.0 - form_dot(curvature, P, Q)) / k, e + kw2)


def row_distances(curvature: Curvature, P: np.ndarray,
                  Q: np.ndarray) -> np.ndarray:
    """Geodesic distances between the rows of P and Q; (..., 3), broadcasts.

    By half chord: accurate near zero, where acos/acosh of the form product
    loses half the digits.
    """
    chord = np.sqrt(np.maximum(0.0, squared_chords(curvature, P, Q)))
    return 2.0 * gen_asin(curvature, 0.5 * chord)


def geodesic_distance(p: SurfacePoint, q: SurfacePoint) -> float:
    """Length of the geodesic segment joining p and q."""
    p.curvature.require_same(q.curvature)
    return float(row_distances(p.curvature, p.coords, q.coords))


def exp_at_base(curvature: Curvature, r: float, theta: float) -> SurfacePoint:
    """Point at geodesic distance r from the base point, in direction theta."""
    return SurfacePoint(np.array(_polar_row(curvature, r, theta)), curvature)


def polar_rows(curvature: Curvature, r: np.ndarray,
               theta: np.ndarray) -> np.ndarray:
    """(m, 3) coordinates of the points at polar (r[i], theta[i]): row i is
    ``exp_at_base(curvature, r[i], theta[i])``'s, bit for bit, with its
    checks of r and theta; the rows are not checked against the quadric
    (see :func:`validate_rows`)."""
    return np.array([_polar_row(curvature, t, th) for t, th in
                     zip(np.asarray(r, dtype=float).tolist(),
                         np.asarray(theta, dtype=float).tolist())]
                    ).reshape(-1, 3)


def _polar_row(curvature: Curvature, r: float, theta: float) -> tuple:
    """Coordinates of the point at polar (r, theta), by math on floats."""
    if not (math.isfinite(r) and math.isfinite(theta)):
        raise GeometryError(
            f"polar coordinates must be finite, got r = {r}, theta = {theta}")
    if r < 0:
        raise GeometryError(f"radius must be nonnegative, got {r}")
    if r >= 2.0 * curvature.hemisphere_limit:
        raise GeometryError(f"radius {r} exceeds the injectivity bound")
    c, s = gen_cos_sin(curvature, r)
    return s * math.cos(theta), s * math.sin(theta), c


def point_polar(p: SurfacePoint) -> tuple[float, float]:
    """Polar coordinates (r, theta) of p about the base point."""
    r = float(row_distances(p.curvature, np.array([0.0, 0.0, 1.0]), p.coords))
    theta = math.atan2(p.coords[1], p.coords[0]) if r > 0 else 0.0
    return r, theta


# ---------------------------------------------------------------------------
# Isometries
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class Isometry:
    """A 3x3 matrix preserving the quadric form and the surface orientation."""

    matrix: np.ndarray
    curvature: Curvature

    def __post_init__(self):
        m = np.asarray(self.matrix, dtype=float)
        if m.shape != (3, 3):
            raise GeometryError(f"expected 3x3 matrix, got shape {m.shape}")
        m = m.copy()
        m.setflags(write=False)
        object.__setattr__(self, "matrix", m)

    def apply(self, p: SurfacePoint) -> SurfacePoint:
        self.curvature.require_same(p.curvature)
        return SurfacePoint(self.matrix @ p.coords, self.curvature)

    def __matmul__(self, other: "Isometry") -> "Isometry":
        self.curvature.require_same(other.curvature)
        return Isometry(self.matrix @ other.matrix, self.curvature)

    def inverse(self) -> "Isometry":
        return Isometry(np.linalg.inv(self.matrix), self.curvature)

    def check_form(self, tol: float = EPS) -> bool:
        """Does the matrix preserve both forms, the orientation and the sheet?

        On the plane G alone leaves the linear part free; Lambda pins it.
        """
        m = self.matrix
        g = np.diag(self.curvature.point_form)
        lam = np.diag(self.curvature.line_form)
        ok = (np.allclose(m.T @ g @ m, g, atol=tol)
              and np.allclose(m @ lam @ m.T, lam, atol=tol))
        return bool(ok and np.linalg.det(m) > 0
                    and (self.curvature.kappa > 0 or m[2, 2] > 0))


def translation_by_polar(curvature: Curvature, r: float, theta: float) -> Isometry:
    """The minimal translation/rotation carrying x0 to the point (r, theta)."""
    return Isometry(motion_matrices(curvature, r, theta, 0.0)[0], curvature)


def translation_to(x: SurfacePoint) -> Isometry:
    """The minimal translation/rotation carrying the base point to x."""
    r, theta = point_polar(x)
    return translation_by_polar(x.curvature, r, theta)


# ---------------------------------------------------------------------------
# Random streams and Haar sampling
# ---------------------------------------------------------------------------

class RandomStream:
    """Seedable, splittable counter-based random stream (Philox).

    Parallel consumers must call :meth:`split` and hand each task its own
    stream; sharing one stream across workers breaks reproducibility.
    """

    def __init__(self, seed):
        if isinstance(seed, np.random.SeedSequence):
            self._seq = seed
        else:
            self._seq = np.random.SeedSequence(seed)
        self.generator = np.random.Generator(np.random.Philox(self._seq))

    def split(self, n: int) -> list["RandomStream"]:
        return [RandomStream(s) for s in self._seq.spawn(n)]

    # Thin pass-throughs used throughout the package.
    def uniform(self, low=0.0, high=1.0, size=None):
        return self.generator.uniform(low, high, size)

    def integers(self, low, high=None, size=None):
        return self.generator.integers(low, high, size)

    def normal(self, loc=0.0, scale=1.0, size=None):
        return self.generator.normal(loc, scale, size)


def support_area(curvature: Curvature, support_radius: float) -> float:
    """Total area W of the position region that :func:`sample_motions` draws
    from: the disc of the given radius, capped on the sphere at the whole
    sphere (radius pi/sqrt(kappa)).
    """
    return disc_area(curvature, min(support_radius,
                                    2.0 * curvature.hemisphere_limit))


def area_radius(curvature: Curvature, u: np.ndarray) -> np.ndarray:
    """Radii of the discs of areas u.

    Disc area is 4 pi gen_sin^2(r/2), so r = 2 gen_asin(sqrt(u/4pi)), which
    keeps its digits as r -> 0.
    """
    return 2.0 * gen_asin(curvature, np.sqrt(u / (4.0 * math.pi)))


def half_angle_cos_sin(x: np.ndarray,
                       out: Optional[np.ndarray] = None) -> tuple:
    """(cos x, sin x) from one tangent t = tan(x/2): (1 - t^2)/(1 + t^2) and
    2t/(1 + t^2), within 2.5e-16 absolute on (-2 pi, 2 pi).

    out, if given, is a (3,) + x.shape float block written in place: cos and
    sin are its first two rows, returned as views, and the third is scratch.
    Otherwise a new block is taken.  On 4096 angles np.tan takes 12 us,
    np.cos and np.sin about 60 us each (numpy 2.4, x86-64 Xeon).
    """
    cos, sin, d = np.empty((3,) + np.shape(x)) if out is None else out
    np.multiply(x, 0.5, out=sin)
    np.tan(sin, out=sin)  # t
    np.multiply(sin, sin, out=cos)  # t^2
    np.add(cos, 1.0, out=d)
    np.subtract(1.0, cos, out=cos)
    cos /= d
    sin += sin
    sin /= d
    return cos, sin


# Rows of motion_basis's block: nine of basis, then ct, st, cp, sp and one
# row of scratch.
BASIS_BLOCK_ROWS = 14


def motion_basis(curvature: Curvature, radial: tuple, theta: np.ndarray,
                 phi: np.ndarray, out: Optional[np.ndarray] = None
                 ) -> np.ndarray:
    """(9, n) basis rows of the motions M = Rz(theta) t(r) Rz(phi - theta).

    t(r) moves the base point by r along the theta = 0 geodesic, so each
    motion spins by phi about the base point, then carries it to polar
    position (r, theta).  radial is the pair (a, b) = gen_cos_sin(r), as
    :func:`sample_motions` draws it.  With (ct, st) of theta and (cp, sp) of
    psi = phi - theta, the rows are a ct cp - st sp, -a ct sp - st cp,
    a st cp + ct sp, -a st sp + ct cp, a, b ct, b st, b cp and b sp.  Every
    entry of M and of M^-1 is +-1 or +-kappa times one row (see
    :func:`fold_table`).

    out, if given, is a (BASIS_BLOCK_ROWS, n) float block written in place:
    the basis is its first nine rows, returned as a view that the next call
    on the same block overwrites, and the other rows are scratch.  Otherwise
    a new block is taken, and the basis is the caller's.
    """
    a, b = (np.atleast_1d(np.asarray(x, dtype=float)) for x in radial)
    theta = np.asarray(theta, dtype=float)
    phi = np.asarray(phi, dtype=float)
    block = np.empty((BASIS_BLOCK_ROWS,) + a.shape) if out is None else out
    basis, tmp = block[:9], block[13]
    # psi goes to row 0, free until rows 0-3 are written last.
    ct, st = half_angle_cos_sin(theta, out=block[9:12])
    np.subtract(phi, theta, out=basis[0])
    cp, sp = half_angle_cos_sin(basis[0], out=block[11:14])
    np.copyto(basis[4], a)
    for row, c in zip(basis[5:], (ct, st, cp, sp)):
        np.multiply(b, c, out=row)
    # Rows 0-3 by the operations of the expressions above, in their order;
    # -x y rounds as -(x y).
    for row, (x, y), (u, v), combine in zip(basis[:4], (
            (ct, cp), (ct, sp), (st, cp), (st, sp)), (
            (st, sp), (st, cp), (ct, sp), (ct, cp)), (
            np.subtract, np.subtract, np.add, np.add)):
        np.multiply(a, x, out=row)
        row *= y
        if y is sp:
            np.negative(row, out=row)
        np.multiply(u, v, out=tmp)
        combine(row, tmp, out=row)
    return basis


def fold_table(curvature: Curvature, table: np.ndarray,
               inverse: bool = False) -> np.ndarray:
    """table's columns moved onto the basis: for motions M with basis B,
    fold_table(table) @ B equals table @ (row-major entries of M), or of
    M^-1 with inverse=True.

    Entry j of M is scale[j] times basis row rows[j], scale being +-1 or
    +-kappa, so each column moves once and is scaled once.
    """
    k = curvature.kappa
    if inverse:
        rows, scale = (0, 2, 7, 1, 3, 8, 5, 6, 4), (1, 1, -1, 1, 1, 1, k, k, 1)
    else:
        rows, scale = (0, 1, 5, 2, 3, 6, 7, 8, 4), (1, 1, 1, 1, 1, 1, -k, k, 1)
    folded = np.empty(table.shape)
    folded[:, rows] = table * np.array(scale, dtype=float)
    return folded


def basis_matrices(curvature: Curvature, basis: np.ndarray) -> np.ndarray:
    """(n, 3, 3) stack of the motions whose basis columns are given.

    The folded identity picks each entry out of the basis: its other
    products are by zero, so the matmul rounds nothing beyond the +-kappa
    scale.
    """
    return (fold_table(curvature, np.eye(9)) @ basis).T.reshape(-1, 3, 3)


def motion_matrices(curvature: Curvature, r: np.ndarray, theta: np.ndarray,
                    phi: np.ndarray) -> np.ndarray:
    """(n, 3, 3) stack of the motions of :func:`motion_basis`, at polar r."""
    r = np.atleast_1d(np.asarray(r, dtype=float))
    return basis_matrices(curvature, motion_basis(
        curvature, gen_cos_sin(curvature, r), theta, phi))


def sample_motions(curvature: Curvature, support_radius: float, n: int,
                   rng: RandomStream, out: Optional[np.ndarray] = None
                   ) -> tuple:
    """Haar samples ((a, b), theta, phi) of motions t_x . gamma, vectorized.

    gamma is a uniform rotation by phi about x0, and x = (r, theta) is
    area-uniform over the region of :func:`support_area`: theta is drawn
    first, then the area u uniform on [0, support_area(support_radius)],
    whose disc has radius r = area_radius(u).  The radial pair (a, b) =
    gen_cos_sin(r) comes straight from u: a = 1 - kappa u/2pi and
    b = sqrt(u (1 + a)/2pi), which is (1, r) on the plane and keeps
    b^2 = (1 - a^2)/kappa elsewhere.  So no sample takes an inverse only to
    take the cosine and sine again.

    The four arrays are the rows of one (4, n) float block: out if given,
    so the next call on the same out overwrites them, else a new block that
    is the caller's.  Each draw is numpy's uniform(0, w) bit for bit, as
    0 + w d = w d.
    """
    if support_radius <= 0:
        raise GeometryError("support radius must be positive")
    theta, b, phi, a = np.empty((4, n)) if out is None else out
    two_pi = 2.0 * math.pi
    draw = rng.generator.random
    draw(out=theta)
    theta *= two_pi
    draw(out=b)  # u, until b replaces it
    b *= support_area(curvature, support_radius)
    np.multiply(b, curvature.kappa, out=a)
    a /= two_pi
    np.subtract(1.0, a, out=a)
    np.add(a, 1.0, out=phi)  # phi's row is scratch until phi is drawn
    b *= phi
    b /= two_pi
    np.sqrt(b, out=b)
    draw(out=phi)
    phi *= two_pi
    return (a, b), theta, phi
