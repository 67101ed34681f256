"""Model surfaces of constant Gauss curvature in a unified 3-coordinate embedding.

The three geometries live on quadric slices of R^3:

* kappa > 0: the sphere x^2 + y^2 + z^2 = 1/kappa,
* kappa < 0: the upper sheet of x^2 + y^2 - z^2 = 1/kappa (z > 0),
* kappa = 0: the affine plane z = 1.

With this choice every isometry is a 3x3 matrix (a rotation, a Lorentz
matrix, or a homogeneous rigid motion) and geodesics are the traces of
planes through the origin, so one set of linear-algebra predicates serves
all three regimes.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum

import numpy as np

# Absolute tolerance for geometric predicates on embedded coordinates.
# Every module in the package inherits this value.
EPS = 1e-9

# Below |kappa| * t^2 = TAYLOR_CUTOFF the generalized trig functions switch
# to series evaluation; (1 - cos)/kappa cancels catastrophically otherwise.
TAYLOR_CUTOFF = 1e-8

# Diagonals of the embedding's bilinear form; Curvature.form_signs picks one.
_MINKOWSKI_SIGNS = np.array([1.0, 1.0, -1.0])
_EUCLIDEAN_SIGNS = np.ones(3)
_MINKOWSKI_SIGNS.setflags(write=False)
_EUCLIDEAN_SIGNS.setflags(write=False)


class GeometryError(ValueError):
    """A geometric precondition was violated."""


class CurvatureMismatch(GeometryError):
    """Operands live on surfaces of different curvature."""


class Regime(Enum):
    SPHERICAL = "spherical"
    EUCLIDEAN = "euclidean"
    HYPERBOLIC = "hyperbolic"


@dataclass(frozen=True)
class Curvature:
    """Gauss curvature of a model surface; the sign selects the regime."""

    kappa: float

    def __post_init__(self):
        if not math.isfinite(self.kappa):
            raise GeometryError(f"curvature must be finite, got {self.kappa}")

    @property
    def regime(self) -> Regime:
        if self.kappa > 0:
            return Regime.SPHERICAL
        if self.kappa < 0:
            return Regime.HYPERBOLIC
        return Regime.EUCLIDEAN

    @property
    def scale(self) -> float:
        """sqrt(|kappa|); zero in the flat regime."""
        return math.sqrt(abs(self.kappa))

    @property
    def hemisphere_limit(self) -> float:
        """Circumradius bound pi/(2 sqrt(kappa)) for convex bodies; inf otherwise."""
        if self.kappa > 0:
            return math.pi / (2.0 * math.sqrt(self.kappa))
        return math.inf

    @property
    def form_signs(self) -> np.ndarray:
        """Diagonal of the form: (1, 1, -1) for kappa < 0, ones otherwise."""
        return _MINKOWSKI_SIGNS if self.kappa < 0 else _EUCLIDEAN_SIGNS

    def require_same(self, other: "Curvature") -> None:
        if self.kappa != other.kappa:
            raise CurvatureMismatch(
                f"curvatures differ: {self.kappa} vs {other.kappa}")


def gen_cos(curvature: Curvature, t: float) -> float:
    """cos(sqrt(k) t), cosh(sqrt(-k) t), or 1, by regime."""
    k = curvature.kappa
    u = k * t * t
    if abs(u) < TAYLOR_CUTOFF:
        return 1.0 - u / 2.0 + u * u / 24.0 - u ** 3 / 720.0 + u ** 4 / 40320.0
    if k > 0:
        return math.cos(curvature.scale * t)
    return math.cosh(curvature.scale * t)


def gen_sin(curvature: Curvature, t: float) -> float:
    """sin(sqrt(k) t)/sqrt(k), sinh(sqrt(-k) t)/sqrt(-k), or t, by regime."""
    k = curvature.kappa
    u = k * t * t
    if abs(u) < TAYLOR_CUTOFF:
        return t * (1.0 - u / 6.0 + u * u / 120.0 - u ** 3 / 5040.0)
    if k > 0:
        return math.sin(curvature.scale * t) / curvature.scale
    return math.sinh(curvature.scale * t) / curvature.scale


def gen_asin(curvature: Curvature, x: float) -> float:
    """Inverse of gen_sin on the monotone branch [0, pi/(2 sqrt(k))]."""
    k = curvature.kappa
    if k == 0.0:
        return x
    s = curvature.scale
    if k > 0:
        return math.asin(min(1.0, max(-1.0, s * x))) / s
    return math.asinh(s * x) / s


def _versine_over_kappa(curvature: Curvature, t: float) -> float:
    """(1 - gen_cos)/kappa, series-evaluated near kappa = 0."""
    k = curvature.kappa
    u = k * t * t
    if abs(u) < TAYLOR_CUTOFF:
        return t * t * (0.5 - u / 24.0 + u * u / 720.0 - u ** 3 / 40320.0)
    return (1.0 - gen_cos(curvature, t)) / k


def disc_perimeter(curvature: Curvature, r: float) -> float:
    """Perimeter of the geodesic disc of radius r."""
    _check_disc_radius(curvature, r)
    return 2.0 * math.pi * gen_sin(curvature, r)


def disc_area(curvature: Curvature, r: float) -> float:
    """Area of the geodesic disc of radius r."""
    _check_disc_radius(curvature, r)
    return 2.0 * math.pi * _versine_over_kappa(curvature, r)


def _check_disc_radius(curvature: Curvature, r: float) -> None:
    if r < 0:
        raise GeometryError(f"disc radius must be nonnegative, got {r}")
    if curvature.kappa > 0 and r > math.pi / curvature.scale:
        raise GeometryError(
            f"disc radius {r} exceeds the sphere's diameter bound "
            f"{math.pi / curvature.scale}")


def form_dot(curvature: Curvature, u, v) -> float:
    """Bilinear form of the embedding: Euclidean for k >= 0, Minkowski for k < 0.

    Accepts arrays with trailing dimension 3 and broadcasts.
    """
    u = np.asarray(u)
    v = np.asarray(v)
    if curvature.kappa < 0:
        return (u * v * curvature.form_signs).sum(axis=-1)
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
        if k == 0.0:
            if z != 1.0:
                raise GeometryError(f"flat-regime point must have z = 1, got {z}")
            return
        q = x * x + y * y + (z * z if k > 0 else -z * z)
        if abs(q - 1.0 / k) > 1e-9 * abs(1.0 / k):
            raise GeometryError(
                f"point does not satisfy the quadric constraint: {q} vs {1.0 / k}")
        if k < 0 and z <= 0:
            raise GeometryError("hyperbolic point must lie on the upper sheet")

    def __eq__(self, other):
        return (isinstance(other, SurfacePoint)
                and self.curvature.kappa == other.curvature.kappa
                and bool(np.all(self.coords == other.coords)))

    def __hash__(self):
        return hash((self.curvature.kappa, tuple(self.coords)))


def base_point(curvature: Curvature) -> SurfacePoint:
    """The distinguished base point x0 on the z axis."""
    k = curvature.kappa
    z = 1.0 if k == 0.0 else 1.0 / curvature.scale
    return SurfacePoint(np.array([0.0, 0.0, z]), curvature)


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


def libm_map(f, *xs: np.ndarray) -> np.ndarray:
    """The math function f over the entries of equal-shape arrays.

    numpy's arcsin, arccos, arcsinh and hypot differ from math's by 1-2 ulp
    on some hosts (AVX-512), which would make results depend on the host.
    """
    return np.asarray(np.frompyfunc(f, len(xs), 1)(*xs), dtype=float)


def row_distances(curvature: Curvature, P: np.ndarray,
                  Q: np.ndarray) -> np.ndarray:
    """Geodesic distances between the rows of P and Q; (..., 3), broadcasts."""
    d = np.asarray(P, dtype=float) - np.asarray(Q, dtype=float)
    k = curvature.kappa
    if k == 0.0:
        return np.hypot(d[..., 0], d[..., 1])
    # Half-chord formula: accurate near zero, unlike acos/acosh of the form
    # product, which loses half the digits there.
    s = curvature.scale
    half = 0.5 * s * np.sqrt(np.maximum(0.0, form_dot(curvature, d, d)))
    if k > 0:
        return 2.0 * libm_map(math.asin, np.minimum(1.0, half)) / s
    return 2.0 * libm_map(math.asinh, half) / s


def geodesic_distance(p: SurfacePoint, q: SurfacePoint) -> float:
    """Length of the geodesic segment joining p and q."""
    p.curvature.require_same(q.curvature)
    return float(row_distances(p.curvature, p.coords, q.coords))


def exp_at_base(curvature: Curvature, r: float, theta: float) -> SurfacePoint:
    """Point at geodesic distance r from the base point, in direction theta."""
    if r < 0:
        raise GeometryError(f"radius must be nonnegative, got {r}")
    k = curvature.kappa
    if k > 0 and r >= math.pi / curvature.scale:
        raise GeometryError(f"radius {r} exceeds the injectivity bound")
    s = gen_sin(curvature, r)
    if k == 0.0:
        z = 1.0
    else:
        z = gen_cos(curvature, r) / curvature.scale
    return SurfacePoint(
        np.array([s * math.cos(theta), s * math.sin(theta), z]), curvature)


def point_polar(p: SurfacePoint) -> tuple[float, float]:
    """Polar coordinates (r, theta) of p about the base point."""
    r = geodesic_distance(base_point(p.curvature), p)
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

    def compose(self, other: "Isometry") -> "Isometry":
        self.curvature.require_same(other.curvature)
        return Isometry(self.matrix @ other.matrix, self.curvature)

    def __matmul__(self, other: "Isometry") -> "Isometry":
        return self.compose(other)

    def inverse(self) -> "Isometry":
        return Isometry(np.linalg.inv(self.matrix), self.curvature)

    def check_form(self, tol: float = EPS) -> bool:
        """Does the matrix preserve the regime's quadratic form and orientation?"""
        m = self.matrix
        k = self.curvature.kappa
        if k == 0.0:
            rot = m[:2, :2]
            ok = (np.allclose(rot.T @ rot, np.eye(2), atol=tol)
                  and np.allclose(m[2], [0.0, 0.0, 1.0], atol=tol))
            return bool(ok and np.linalg.det(rot) > 0)
        j = np.diag(self.curvature.form_signs)
        ok = (np.allclose(m.T @ j @ m, j, atol=tol)
              and np.linalg.det(m) > 1.0 - 1e-6)
        return bool(ok and (k > 0 or m[2, 2] > 0))


def rotation_about_base(curvature: Curvature, phi: float) -> Isometry:
    """Rotation by phi about the base point (fixes x0 in every regime)."""
    return Isometry(motion_matrices(curvature, 0.0, 0.0, phi)[0], curvature)


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
    """Total area W of the position region sampled by :func:`sample_isometry`."""
    if curvature.kappa > 0:
        return 4.0 * math.pi / curvature.kappa
    return disc_area(curvature, support_radius)


def sample_positions(curvature: Curvature, support_radius: float, n: int,
                     rng: RandomStream) -> tuple[np.ndarray, np.ndarray]:
    """Area-uniform polar samples (r, theta) of the position part.

    On the sphere positions cover the whole surface; for kappa <= 0 they are
    uniform with respect to the area element over the disc of the given
    radius about the base point.
    """
    k = curvature.kappa
    theta = rng.uniform(0.0, 2.0 * math.pi, n)
    if k > 0:
        # z uniform on the sphere; r is the polar distance from x0.
        z = rng.uniform(-1.0, 1.0, n)
        r = np.arccos(z) / curvature.scale
        return r, theta
    if support_radius <= 0:
        raise GeometryError("support radius must be positive for kappa <= 0")
    u = rng.uniform(0.0, disc_area(curvature, support_radius), n)
    if k == 0.0:
        r = np.sqrt(u / math.pi)
    else:
        lam = -k
        r = np.arccosh(1.0 + lam * u / (2.0 * math.pi)) / curvature.scale
    return r, np.asarray(theta)


def _rz_t_rz(c1, s1, a, b, e, c2, s2) -> np.ndarray:
    """(9, n) row-major entries of Rz . [[a, 0, b], [0, 1, 0], [e, 0, a]] . Rz."""
    ac, as_ = a * c1, a * s1
    return np.stack([ac * c2 - s1 * s2, -ac * s2 - s1 * c2, c1 * b,
                     as_ * c2 + c1 * s2, -as_ * s2 + c1 * c2, s1 * b,
                     e * c2, -e * s2, a])


def motion_columns(curvature: Curvature, r: np.ndarray, theta: np.ndarray,
                   phi: np.ndarray, with_inverse: bool = False):
    """(9, n) row-major entries of the motions Rz(theta) t(r) Rz(phi - theta).

    t(r) moves the base point by r along the theta = 0 geodesic, so each
    motion spins by phi about the base point, then carries it to polar
    position (r, theta).  with_inverse=True also returns the entries of the
    inverses Rz(theta - phi) t(-r) Rz(-theta), from the same cosines.
    """
    r = np.atleast_1d(np.asarray(r, dtype=float))
    theta = np.broadcast_to(np.asarray(theta, dtype=float), r.shape)
    phi = np.broadcast_to(np.asarray(phi, dtype=float), r.shape)
    # t(r) = [[a, 0, b], [0, 1, 0], [e, 0, a]]
    k = curvature.kappa
    if k == 0.0:
        a, b, e = np.ones_like(r), r, np.zeros_like(r)
    elif k > 0:
        a, b = np.cos(curvature.scale * r), np.sin(curvature.scale * r)
        e = -b
    else:
        a = np.cosh(curvature.scale * r)
        b = e = np.sinh(curvature.scale * r)
    ct, st = np.cos(theta), np.sin(theta)
    psi = phi - theta
    cp, sp = np.cos(psi), np.sin(psi)
    cols = _rz_t_rz(ct, st, a, b, e, cp, sp)
    if not with_inverse:
        return cols
    return cols, _rz_t_rz(cp, -sp, a, -b, -e, ct, -st)


def motion_matrices(curvature: Curvature, r: np.ndarray, theta: np.ndarray,
                    phi: np.ndarray) -> np.ndarray:
    """(n, 3, 3) stack of the motions of :func:`motion_columns`."""
    return motion_columns(curvature, r, theta, phi).T.reshape(-1, 3, 3)


def sample_motions(curvature: Curvature, support_radius: float, n: int,
                   rng: RandomStream) -> tuple[np.ndarray, ...]:
    """Haar samples (r, theta, phi) of motions t_x . gamma, vectorized.

    gamma is a uniform rotation by phi about x0 and x = (r, theta) is
    area-uniform over the support region (see :func:`sample_positions`).
    """
    r, theta = sample_positions(curvature, support_radius, n, rng)
    return r, theta, rng.uniform(0.0, 2.0 * math.pi, n)


def sample_isometry(curvature: Curvature, support_radius: float,
                    rng: RandomStream) -> Isometry:
    """One Haar-style isometry sample; see :func:`sample_motions`."""
    m = motion_matrices(curvature,
                        *sample_motions(curvature, support_radius, 1, rng))[0]
    return Isometry(m, curvature)
