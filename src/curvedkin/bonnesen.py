"""Isoperimetric deficits, Bonnesen-type bounds, and their proof machinery.

Every bound is evaluated from a :class:`~curvedkin.radii.BodyMetrics` alone,
never from the polygon, so test oracles can substitute their own radii.
Applicability is an explicit flag: the sharp hyperbolic bound legitimately
fails its sign hypothesis (long thin bodies) and the min-form takes over.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum
from typing import Optional, Sequence

import numpy as np

from .convex import GeodesicPolygon, convex_hull
from .radii import BodyMetrics, metrics
from .surface import (Curvature, GeometryError, RandomStream, area_radius,
                      gen_sin, polar_rows, support_area)

TWO_PI = 2.0 * math.pi
FOUR_PI = 4.0 * math.pi


class BoundName(Enum):
    EUCLID_B = "euclid_bonnesen"
    S1 = "sphere_sharp"
    S2 = "sphere_simplified"
    S3 = "sphere_isoperimetric"
    S4 = "sphere_complement"
    H1 = "hyperbolic_sharp"
    H_MIN = "hyperbolic_min_form"
    H_ISO = "hyperbolic_isoperimetric"


@dataclass(frozen=True)
class Bound:
    name: BoundName
    value: float
    applicable: bool


@dataclass(frozen=True)
class DeficitReport:
    kappa: float
    metrics: BodyMetrics
    deficit: float
    bounds: tuple[Bound, ...]

    def slack(self, b: Bound) -> float:
        return self.deficit - b.value

    def satisfied(self, b: Bound) -> bool:
        if not b.applicable:
            return True
        return self.deficit >= b.value - 1e-9 * (1.0 + abs(b.value))

    @property
    def all_satisfied(self) -> bool:
        return all(self.satisfied(b) for b in self.bounds)

    @property
    def active_bound(self) -> Bound:
        """The largest applicable bound value."""
        applicable = [b for b in self.bounds if b.applicable]
        return max(applicable, key=lambda b: b.value)


def deficit(curvature: Curvature, A: float, P: float) -> float:
    """Isoperimetric deficit P^2 - A (4 pi - kappa A)."""
    if A < 0 or P < 0:
        raise GeometryError("area and perimeter must be nonnegative")
    return P * P - A * (FOUR_PI - curvature.kappa * A)


def sharp_bound(m: BodyMetrics) -> tuple[float, bool]:
    """The sharp term g^2 (t^2 + kappa P^2)^2 / (4 t^2) and whether it applies.

    t = 2 pi - kappa A and g = gen_sin R_circ - gen_sin r_in.  One formula
    for every kappa: the sphere's S1, the hyperbolic H1 and the flat
    pi^2 (R - r)^2.  It applies iff t > 1e-12 and t^2 + kappa P^2 >= 0; when
    only the sign test fails (long thin hyperbolic bodies) the unguarded
    value is still returned.
    """
    g, t = _radii_gap_and_t(m)
    if t <= 1e-12:
        return math.nan, False
    q = t * t + m.kappa * m.P * m.P
    return g * g * q * q / (4.0 * t * t), q >= 0.0


def _radii_gap_and_t(m: BodyMetrics) -> tuple[float, float]:
    curv = m.incenter.curvature
    return (gen_sin(curv, m.R_circ) - gen_sin(curv, m.r_in),
            TWO_PI - m.kappa * m.A)


def euclid_bonnesen_rhs(m: BodyMetrics) -> float:
    """Classical error term pi^2 (R - r)^2, flat regime only."""
    if m.kappa != 0.0:
        raise GeometryError("Euclidean bound needs kappa = 0 metrics")
    return sharp_bound(m)[0]


def sphere_bounds(m: BodyMetrics) -> list[Bound]:
    """Right-hand sides of the four spherical inequalities."""
    if m.kappa <= 0:
        raise GeometryError("spherical bounds need kappa > 0 metrics")
    if m.A >= FOUR_PI / m.kappa:
        raise GeometryError("body is not a proper subset of the sphere")
    sharp, applies = sharp_bound(m)
    s3 = Bound(BoundName.S3, 0.0, True)
    if not applies:
        return [s3] + [Bound(name, math.nan, False) for name in
                       (BoundName.S1, BoundName.S2, BoundName.S4)]
    # S4's (kappa^2 / 16) g^2 (A - (4 pi / kappa - A))^2 is S2 term for
    # term, as kappa A - 2 pi = -t.
    g, t = _radii_gap_and_t(m)
    s2 = g * g * t * t / 4.0
    return [s3, Bound(BoundName.S1, sharp, True),
            Bound(BoundName.S2, s2, True), Bound(BoundName.S4, s2, True)]


def hyperbolic_bounds(m: BodyMetrics) -> list[Bound]:
    """Sharp, min-form and isoperimetric bounds for kappa < 0."""
    k = m.kappa
    if k >= 0:
        raise GeometryError("hyperbolic bounds need kappa < 0 metrics")
    sharp, applies = sharp_bound(m)
    return [
        Bound(BoundName.H_ISO, 0.0, True),
        Bound(BoundName.H1, sharp, applies),
        Bound(BoundName.H_MIN, min(4.0 * math.pi ** 2 / -k, sharp), True),
    ]


def deficit_report(curvature: Curvature, m: BodyMetrics) -> DeficitReport:
    """Evaluate every bound of the regime against the deficit."""
    curvature.require_same(m.incenter.curvature)
    d = deficit(curvature, m.A, m.P)
    k = curvature.kappa
    if k > 0:
        bounds = sphere_bounds(m)
    elif k < 0:
        bounds = hyperbolic_bounds(m)
    else:
        bounds = [Bound(BoundName.EUCLID_B, *sharp_bound(m))]
    return DeficitReport(kappa=k, metrics=m, deficit=d, bounds=tuple(bounds))


# ---------------------------------------------------------------------------
# Quadratic root witnesses
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class QuadraticWitness:
    """The proof's quadratic whose real roots must straddle the radii."""

    coeffs: tuple[float, float, float]  # a2, a1, a0
    discriminant: float
    roots: Optional[tuple[float, float]]
    bracket: tuple[float, float]

    def evaluate(self, x: float) -> float:
        a2, a1, a0 = self.coeffs
        return a2 * x * x + a1 * x + a0

    @property
    def brackets_interval(self) -> bool:
        if self.roots is None:
            return False
        lo, hi = self.bracket
        return self.roots[0] <= lo + 1e-9 and hi <= self.roots[1] + 1e-9


NON_DISC_THRESHOLD = 1e-6


def quadratic_witness(curvature: Curvature, m: BodyMetrics) -> QuadraticWitness:
    """The proof's quadratic in x = gen_sin eps, for every kappa:
    (t^2 + kappa P^2) x^2 - 4 pi P x + (4 pi - kappa A) A, t = 2 pi - kappa A.

    Its discriminant is 4 t^2 times the deficit, and its roots must straddle
    [gen_sin r_in, gen_sin R_circ], where it is negative.  The leading
    coefficient must be positive: on the hyperbolic plane that is the sharp
    bound's sign condition.
    """
    curvature.require_same(m.incenter.curvature)
    if m.R_circ - m.r_in <= NON_DISC_THRESHOLD * (1.0 + m.R_circ):
        raise GeometryError("witness needs a non-disc body (r_in < R_circ)")
    k = curvature.kappa
    t = TWO_PI - k * m.A
    a2 = t * t + k * m.P * m.P
    if a2 <= 0.0:
        raise GeometryError("witness needs the sign condition "
                            "(2pi - kappa A)^2 + kappa P^2 > 0")
    a1, a0 = -FOUR_PI * m.P, (FOUR_PI - k * m.A) * m.A
    disc = a1 * a1 - 4.0 * a2 * a0
    roots = None
    if disc >= 0:
        sq = math.sqrt(disc)
        roots = ((-a1 - sq) / (2.0 * a2), (-a1 + sq) / (2.0 * a2))
    return QuadraticWitness(
        coeffs=(a2, a1, a0), discriminant=disc, roots=roots,
        bracket=(gen_sin(curvature, m.r_in), gen_sin(curvature, m.R_circ)))


# ---------------------------------------------------------------------------
# kappa -> 0 degeneration sweep
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class SweepRow:
    kappa: float
    deficit: float
    active_bound_name: BoundName
    active_bound_value: float
    euclid_reference: float


def body_from_polar(curvature: Curvature,
                    polar_vertices: Sequence[tuple[float, float]]) -> GeodesicPolygon:
    """Hull of fixed (r, theta) vertex data realized on the given surface."""
    r, theta = np.array(polar_vertices, dtype=float).reshape(-1, 2).T
    return convex_hull(polar_rows(curvature, r, theta), curvature)


def kappa_limit_sweep(polar_vertices: Sequence[tuple[float, float]],
                      kappas: Sequence[float]) -> list[SweepRow]:
    """Evaluate deficit and active bound across curvatures for one body."""
    flat = Curvature(0.0)
    m0 = metrics(body_from_polar(flat, polar_vertices))
    reference = euclid_bonnesen_rhs(m0)
    rows = []
    for kappa in kappas:
        curv = Curvature(kappa)
        m = metrics(body_from_polar(curv, polar_vertices))
        rep = deficit_report(curv, m)
        active = rep.active_bound
        rows.append(SweepRow(kappa=kappa, deficit=rep.deficit,
                             active_bound_name=active.name,
                             active_bound_value=active.value,
                             euclid_reference=reference))
    return rows


# ---------------------------------------------------------------------------
# Random test bodies
# ---------------------------------------------------------------------------

def _disc_radius_limit(curvature: Curvature) -> float:
    if curvature.kappa > 0:
        return curvature.hemisphere_limit
    # No hemisphere bound off the sphere; keep bodies at a moderate size so
    # solver conditioning and the hyperbolic sign hypothesis stay healthy.
    return (5.0 / 3.0) / max(1.0, curvature.scale)


def random_convex_body(curvature: Curvature, rng: RandomStream,
                       min_vertices: int = 3, max_vertices: int = 12,
                       rho_limit: Optional[float] = None) -> GeodesicPolygon:
    """Hull of points drawn area-uniformly in a random disc about the base.

    The disc radius is uniform in [0.1, 0.9 * limit], covering both fat and
    thin bodies; the result always has nonempty interior.  Each try draws
    its m points' 2m doubles in one call, theta then the area u for each
    point in turn: bit for bit m per-point draws of theta in [0, 2 pi) and
    of u in [0, support_area(rho)], since numpy's uniform(low, high) is
    low + (high - low) times the next double.
    """
    if rho_limit is None:
        rho_limit = _disc_radius_limit(curvature)
    while True:
        m = int(rng.integers(min_vertices, max_vertices + 1))
        rho = float(rng.uniform(0.1, 0.9 * rho_limit))
        d = rng.uniform(0.0, 1.0, 2 * m)
        r = area_radius(curvature, support_area(curvature, rho) * d[1::2])
        hull = convex_hull(polar_rows(curvature, r, 2.0 * math.pi * d[::2]),
                           curvature)
        if hull.dim == 2:
            return hull
