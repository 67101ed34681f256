"""Tests for deficits, the inequality bounds, quadratic witnesses, sweeps."""

import math

import numpy as np
import pytest

from curvedkin.bonnesen import (Bound, BoundName, body_from_polar, deficit,
                                deficit_report, euclid_bonnesen_rhs,
                                hyperbolic_bounds, kappa_limit_sweep,
                                quadratic_witness, random_convex_body,
                                sharp_bound, sphere_bounds)
from curvedkin.convex import convex_hull, regular_ngon
from curvedkin.radii import BodyMetrics, metrics
from curvedkin.surface import (Curvature, CurvatureMismatch, GeometryError,
                               RandomStream, SurfacePoint, base_point,
                               disc_area, disc_perimeter, gen_sin)

from common import unit_square
import exact
import parent

TWO_PI = 2.0 * math.pi
FOUR_PI = 4.0 * math.pi


def fake_metrics(kappa, A, P, r, R):
    c = Curvature(kappa)
    return BodyMetrics(A=A, P=P, r_in=r, R_circ=R,
                       incenter=base_point(c), circumcenter=base_point(c))


class TestDeficit:
    def test_flat_disc_zero(self):
        rho = 0.7
        assert abs(deficit(Curvature(0.0), math.pi * rho ** 2,
                           TWO_PI * rho)) < 1e-12

    def test_hemisphere_extreme_zero(self):
        assert abs(deficit(Curvature(1.0), TWO_PI, TWO_PI)) < 1e-12

    def test_hyperbolic_disc_identity(self):
        c = Curvature(-1.0)
        for r in (0.3, 1.0, 2.0):
            A, P = disc_area(c, r), disc_perimeter(c, r)
            assert abs(deficit(c, A, P)) < 1e-9 * (1.0 + P * P)

    def test_negative_inputs_rejected(self):
        with pytest.raises(GeometryError):
            deficit(Curvature(0.0), -1.0, 1.0)


class TestEuclidBound:
    def test_unit_square_values(self):
        m = metrics(unit_square())
        rhs = euclid_bonnesen_rhs(m)
        assert abs(rhs - math.pi ** 2 * (math.sqrt(0.5) - 0.5) ** 2) < 1e-12
        assert deficit(Curvature(0.0), m.A, m.P) >= rhs

    def test_segment_body(self):
        c = 3.0
        m = fake_metrics(0.0, 0.0, 2 * c, 0.0, c / 2)
        d = deficit(Curvature(0.0), 0.0, 2 * c)
        assert abs(d - 4 * c * c) < 1e-12
        assert d >= euclid_bonnesen_rhs(m)

    def test_regime_guard(self):
        with pytest.raises(GeometryError):
            euclid_bonnesen_rhs(fake_metrics(1.0, 1.0, 4.0, 0.4, 0.5))


class TestSphereBounds:
    def test_s1_dominates_s2(self):
        rng = RandomStream(3)
        for _ in range(100):
            body = random_convex_body(Curvature(1.0), rng)
            m = metrics(body)
            b = {x.name: x for x in sphere_bounds(m)}
            assert b[BoundName.S1].value >= b[BoundName.S2].value - 1e-12
            assert b[BoundName.S2].value >= 0.0
            assert b[BoundName.S3].value == 0.0

    @pytest.mark.parametrize("kappa", [0.25, 1.0, 2.0])
    def test_complement_identity_random_area(self, kappa):
        # S4 = (kappa^2 / 16) g^2 (A - A')^2 with A' = 4 pi / kappa - A is
        # S2 = g^2 t^2 / 4 term for term, as kappa A - 2 pi = -t: reported
        # as one value, and within rounding of the complement form.
        rng = RandomStream(5)
        for _ in range(1000):
            # Below a hemisphere's area, where the bounds apply; P does
            # not enter S2 or S4.
            A = float(rng.uniform(0.0, TWO_PI / kappa))
            r, R = sorted(rng.uniform(0.0, 0.5 * math.pi / math.sqrt(kappa),
                                      2))
            m = fake_metrics(kappa, A, TWO_PI / math.sqrt(kappa), r, R)
            b = {x.name: x for x in sphere_bounds(m)}
            assert b[BoundName.S4] == Bound(BoundName.S4,
                                            b[BoundName.S2].value, True)
            g = gen_sin(m.incenter.curvature, R) - gen_sin(
                m.incenter.curvature, r)
            a_comp = FOUR_PI / kappa - A
            s4 = (kappa * kappa / 16.0) * g * g * (A - a_comp) ** 2
            assert abs(s4 - b[BoundName.S4].value) <= 1e-12 * abs(s4)

    def test_octant_triangle_pipeline(self):
        c = Curvature(1.0)
        tri = convex_hull([SurfacePoint(np.array(v, dtype=float), c) for v in
                           [(1, 0, 0), (0, 1, 0), (0, 0, 1)]])
        m = metrics(tri)
        d = deficit(c, m.A, m.P)
        b = {x.name: x for x in sphere_bounds(m)}
        assert d >= b[BoundName.S1].value >= b[BoundName.S2].value >= 0.0

    def test_disc_ngon_bounds_decay(self):
        c = Curvature(1.0)
        vals = []
        for n in (16, 32, 64):
            m = metrics(regular_ngon(c, 0.5, n))
            b = {x.name: x for x in sphere_bounds(m)}
            vals.append(b[BoundName.S1].value)
        assert vals[0] > vals[1] > vals[2]
        assert vals[2] < 1e-3

    def test_regime_guard(self):
        with pytest.raises(GeometryError):
            sphere_bounds(fake_metrics(-1.0, 1.0, 4.0, 0.4, 0.5))
        # The whole sphere's area, 4 pi / kappa, is no convex body's.
        with pytest.raises(GeometryError,
                           match="not a proper subset of the sphere"):
            sphere_bounds(fake_metrics(1.0, FOUR_PI, 4.0, 0.4, 0.5))


class TestHyperbolicBounds:
    def test_disc_ngon_bounds_decay(self):
        c = Curvature(-1.0)
        vals = []
        for n in (16, 32, 64):
            m = metrics(regular_ngon(c, 0.5, n))
            b = {x.name: x for x in hyperbolic_bounds(m)}
            assert b[BoundName.H1].applicable
            vals.append(b[BoundName.H1].value)
        assert vals[0] > vals[1] > vals[2]
        assert vals[2] < 1e-3

    def test_segment_c10_min_form(self):
        # A = 0, P = 20: the sharp bound's hypothesis fails and the min
        # form takes over with value 4 pi^2 <= 400.
        c = Curvature(-1.0)
        m = fake_metrics(-1.0, 0.0, 20.0, 0.0, 5.0)
        b = {x.name: x for x in hyperbolic_bounds(m)}
        assert not b[BoundName.H1].applicable
        assert abs(b[BoundName.H_MIN].value - 4 * math.pi ** 2) < 1e-9
        d = deficit(c, 0.0, 20.0)
        assert abs(d - 400.0) < 1e-12
        assert d >= b[BoundName.H_MIN].value

    def test_condition_failure_forces_large_deficit(self):
        # Whenever (2 pi + A)^2 - P^2 < 0, the deficit exceeds 4 pi^2.
        rng = RandomStream(7)
        hits = 0
        for _ in range(5000):
            A = float(rng.uniform(0.0, 10.0))
            P = float(rng.uniform(0.0, 40.0))
            if P * P < A * (FOUR_PI + A):  # isoperimetric infeasible
                continue
            if (TWO_PI + A) ** 2 - P * P < 0:
                assert deficit(Curvature(-1.0), A, P) > 4 * math.pi ** 2
                hits += 1
        assert hits > 100

    def test_small_bodies_satisfy_condition(self):
        # Bodies inside the disc with unit gen-sin radius have P <= 2 pi,
        # so the sharp bound applies.
        c = Curvature(-1.0)
        eta = math.log(1.0 + math.sqrt(2.0))
        rng = RandomStream(9)
        for _ in range(50):
            body = random_convex_body(c, rng, rho_limit=eta)
            m = metrics(body)
            assert m.P <= TWO_PI + 1e-9
            b = {x.name: x for x in hyperbolic_bounds(m)}
            assert b[BoundName.H1].applicable

    def test_regime_guard(self):
        with pytest.raises(GeometryError):
            hyperbolic_bounds(fake_metrics(0.0, 1.0, 4.0, 0.4, 0.5))


class TestDeficitReport:
    @pytest.mark.parametrize("kappa", [1.0, 0.0, -1.0])
    def test_random_bodies_all_satisfied(self, kappa):
        c = Curvature(kappa)
        rng = RandomStream(11)
        for _ in range(100):
            m = metrics(random_convex_body(c, rng))
            rep = deficit_report(c, m)
            assert rep.all_satisfied
            for b in rep.bounds:
                if b.applicable:
                    assert b.value >= 0.0
                    assert rep.slack(b) >= -1e-9 * (1.0 + abs(b.value))

    def test_active_bound_is_max(self):
        c = Curvature(1.0)
        m = metrics(regular_ngon(c, 0.4, 5))
        rep = deficit_report(c, m)
        vals = [b.value for b in rep.bounds if b.applicable]
        assert rep.active_bound.value == max(vals)

    def test_equality_detection(self):
        # Bound below 1e-6 only for nearly-disc bodies and conversely.
        for kappa in (1.0, 0.0, -1.0):
            c = Curvature(kappa)
            m_disc = metrics(regular_ngon(c, 0.5, 96))
            rep = deficit_report(c, m_disc)
            assert rep.active_bound.value < 1e-6
            assert m_disc.R_circ - m_disc.r_in < 1e-3
            m_sq = metrics(body_from_polar(
                c, [(0.7, i * math.pi / 2 + 0.4) for i in range(4)]))
            rep = deficit_report(c, m_sq)
            assert rep.active_bound.value > 1e-6

    def test_curvature_mismatch(self):
        # Metrics of a kappa = 2 body at kappa = 1 would take the deficit on
        # one surface and the bounds on the other.
        m = metrics(regular_ngon(Curvature(2.0), 0.3, 5))
        for evaluate in (deficit_report, quadratic_witness):
            with pytest.raises(CurvatureMismatch):
                evaluate(Curvature(1.0), m)


class TestQuadraticWitness:
    def test_flat_unit_square(self):
        c = Curvature(0.0)
        m = metrics(unit_square())
        w = quadratic_witness(c, m)
        # (t^2 + kappa P^2, -4 pi P, (4 pi - kappa A) A) with t = 2 pi.
        assert w.coeffs == (4 * math.pi ** 2, -16 * math.pi, 4 * math.pi)
        r1 = (4 - math.sqrt(16 - 4 * math.pi)) / (2 * math.pi)
        r2 = (4 + math.sqrt(16 - 4 * math.pi)) / (2 * math.pi)
        assert abs(w.roots[0] - r1) < 1e-12
        assert abs(w.roots[1] - r2) < 1e-12
        assert w.bracket == (0.5, math.sqrt(0.5))
        assert w.brackets_interval

    def test_disc_rejected(self):
        c = Curvature(0.0)
        rho = 0.5
        m = fake_metrics(0.0, math.pi * rho ** 2, TWO_PI * rho, rho, rho)
        with pytest.raises(GeometryError):
            quadratic_witness(c, m)
        # t^2 + kappa P^2 = (2 pi + 1)^2 - 100 < 0: a leading coefficient
        # of the wrong sign.
        with pytest.raises(GeometryError, match="sign condition"):
            quadratic_witness(Curvature(-1.0),
                              fake_metrics(-1.0, 1.0, 10.0, 0.1, 0.5))

    @pytest.mark.parametrize("kappa", [2.0, 1.0, 0.25, 0.0, -0.25, -1.0,
                                       -2.0])
    def test_random_bodies_bracket_and_sign(self, kappa):
        c = Curvature(kappa)
        rng = RandomStream(13)
        checked = 0
        for _ in range(200):
            body = random_convex_body(c, rng)
            m = metrics(body)
            if m.R_circ - m.r_in <= 1e-6 * (1.0 + m.R_circ):
                continue
            try:
                w = quadratic_witness(c, m)
            except GeometryError:
                continue  # hyperbolic sign condition may legitimately fail
            assert w.discriminant >= 0.0
            assert w.roots is not None
            lo, hi = w.bracket
            assert w.roots[0] <= lo + 1e-9
            assert hi <= w.roots[1] + 1e-9
            # One convention for every kappa: the leading coefficient
            # t^2 + kappa P^2 is positive (the witness raises otherwise),
            # so the quadratic is negative between its roots.
            mid = 0.5 * (lo + hi)
            assert w.coeffs[0] > 0.0
            inside = w.evaluate(mid)
            assert inside < 0 or abs(inside) < 1e-9
            # Residual at the roots is numerically zero.
            scale = max(abs(x) for x in w.coeffs)
            for root in w.roots:
                assert abs(w.evaluate(root)) < 1e-9 * scale
            # The discriminant is 4 t^2 times the deficit.
            t = TWO_PI - kappa * m.A
            target = 4.0 * t * t * deficit(c, m.A, m.P)
            assert abs(w.discriminant - target) <= 1e-9 * abs(target)
            checked += 1
        assert checked > 100

    def test_spherical_interior_strictly_negative(self):
        # The spherical quadratic is < 0 on (sin r, sin R).
        c = Curvature(1.0)
        rng = RandomStream(17)
        for _ in range(50):
            m = metrics(random_convex_body(c, rng))
            if m.R_circ - m.r_in <= 1e-6 * (1.0 + m.R_circ):
                continue
            w = quadratic_witness(c, m)
            lo, hi = w.bracket
            for x in np.linspace(lo + 1e-9, hi - 1e-9, 7):
                assert w.evaluate(float(x)) < 1e-9

    def test_sphere_sign_argument(self):
        # P sin(eps) - 2 pi <= 0 for eps in (r_in, R_circ), kappa = 1.
        c = Curvature(1.0)
        rng = RandomStream(19)
        for _ in range(50):
            m = metrics(random_convex_body(c, rng))
            for eps in np.linspace(m.r_in, m.R_circ, 9):
                assert m.P * math.sin(eps) - TWO_PI <= 1e-9

    def test_discriminant_identity_sphere(self):
        # delta = 4 (2 pi - A)^2 (P^2 - A (4 pi - A)) for kappa = 1.
        rng = RandomStream(23)
        for _ in range(10000):
            A = float(rng.uniform(0.01, TWO_PI - 0.01))
            # P above the isoperimetric floor so the deficit is positive.
            p_min = math.sqrt(A * (FOUR_PI - A))
            P = float(rng.uniform(p_min, p_min + 10.0))
            m = fake_metrics(1.0, A, P, 0.1, 0.5)
            w = quadratic_witness(Curvature(1.0), m)
            target = 4.0 * (TWO_PI - A) ** 2 * (P * P - A * (FOUR_PI - A))
            assert abs(w.discriminant - target) <= 1e-9 * abs(target) + 1e-9

    def test_discriminant_identity_hyperbolic(self):
        # delta = 4 (2 pi + A)^2 (P^2 - A (4 pi + A)) for kappa = -1.
        rng = RandomStream(29)
        checked = 0
        for _ in range(10000):
            A = float(rng.uniform(0.01, 6.0))
            p_min = math.sqrt(A * (FOUR_PI + A))
            P = float(rng.uniform(p_min, TWO_PI + A - 1e-6))
            if P <= p_min:
                continue
            m = fake_metrics(-1.0, A, P, 0.1, 0.5)
            w = quadratic_witness(Curvature(-1.0), m)
            target = 4.0 * (TWO_PI + A) ** 2 * (P * P - A * (FOUR_PI + A))
            assert abs(w.discriminant - target) <= 1e-9 * abs(target) + 1e-9
            checked += 1
        assert checked > 5000


class TestAgainstMpmath:
    KAPPAS = [2.0, 1.0, 1e-4, 1e-12, 0.0, -1e-12, -1e-4, -1.0, -2.0]
    SHARP = (BoundName.S1, BoundName.H1, BoundName.EUCLID_B)

    @pytest.mark.parametrize("kappa", KAPPAS)
    def test_bounds_within_ulps(self, kappa):
        # g = gen_sin R - gen_sin r cancels: a rounding unit of its two
        # terms is (gen_sin R + gen_sin r) / g units of g, so errors are
        # counted in ulps of the reference times 1 + that condition number.
        # The worst seen on 300 bodies per kappa was 3.5 such units.
        c = Curvature(kappa)
        rng = RandomStream(37)
        names = set()
        for _ in range(30):
            m = metrics(random_convex_body(c, rng, rho_limit=1.0))
            ref = exact.bonnesen_bounds(kappa, m.A, m.P, m.r_in, m.R_circ)
            hi, lo = gen_sin(c, m.R_circ), gen_sin(c, m.r_in)
            cond = (hi + lo) / (hi - lo)
            for b in deficit_report(c, m).bounds:
                key = "sharp" if b.name in self.SHARP else b.name.name
                if ref.get(key) is None:
                    continue
                e = float(ref[key])
                assert abs(b.value - e) <= 8 * np.spacing(e) * (1 + cond)
                names.add(key)
            if abs(kappa) == 1e-12:
                flat = math.pi ** 2 * (m.R_circ - m.r_in) ** 2
                assert abs(sharp_bound(m)[0] - flat) <= 1e-11 * flat
        assert names == ({"sharp", "S2"} if kappa > 0 else
                         {"sharp", "H_MIN"} if kappa < 0 else {"sharp"})


class TestKappaSweep:
    SQUARE = tuple((math.sqrt(0.5), math.pi / 4 + i * math.pi / 2)
                   for i in range(4))
    KAPPAS = (0.1, -0.1, 0.01, -0.01, 0.001, -0.001, 0.0001, -0.0001)

    def test_square_converges_monotonically(self):
        rows = kappa_limit_sweep(self.SQUARE, self.KAPPAS)
        ref = rows[0].euclid_reference
        gaps = {row.kappa: abs(row.active_bound_value - ref) for row in rows}
        for sign in (1.0, -1.0):
            seq = [gaps[sign * k] for k in (0.1, 0.01, 0.001, 0.0001)]
            assert all(a > b for a, b in zip(seq, seq[1:]))
            assert seq[-1] < 1e-3

    def test_disc_rows_near_zero(self):
        disc = tuple((0.5, TWO_PI * i / 64) for i in range(64))
        rows = kappa_limit_sweep(disc, self.KAPPAS)
        for row in rows:
            assert row.active_bound_value < 1e-3
            assert abs(row.deficit) < 2e-2

    def test_deficit_continuous_in_kappa(self):
        kappas = (1e-2, 1e-3, 1e-4, 1e-5)
        rows = kappa_limit_sweep(self.SQUARE, kappas)
        flat = metrics(body_from_polar(Curvature(0.0), self.SQUARE))
        d0 = deficit(Curvature(0.0), flat.A, flat.P)
        diffs = [abs(r.deficit - d0) for r in rows]
        for a, b in zip(diffs, diffs[1:]):
            assert b < 0.2 * a  # shrinks proportionally to the kappa step


class TestRandomBodyGenerator:
    @pytest.mark.parametrize("kappa", [2.0, 1.0, 0.0, -1.0, -2.0])
    def test_valid_interior_bodies(self, kappa):
        c = Curvature(kappa)
        rng = RandomStream(31)
        for _ in range(50):
            body = random_convex_body(c, rng)
            assert body.dim == 2
            assert 3 <= body.n_vertices <= 12
            if kappa > 0:
                m = metrics(body)
                assert m.R_circ < c.hemisphere_limit


class TestOneDrawPerBody:
    """The generator against the per-point one it replaced (tests/parent.py):
    the same bodies, bit for bit, and the stream left at the same place."""

    KAPPAS = [2.0, -2.0, 1.0, -1.0, 0.25, -0.25, 0.0, 1e-9, -1e-9]

    @pytest.mark.parametrize("kappa", KAPPAS)
    @pytest.mark.parametrize("kwargs", [{"max_vertices": 8},
                                        {"max_vertices": 12},
                                        {"rho_limit": 0.3}],
                             ids=["max8", "max12", "rho0.3"])
    def test_same_bodies_as_per_point_draws(self, kappa, kwargs):
        c = Curvature(kappa)
        new, old = RandomStream(5), RandomStream(5)
        for _ in range(200):
            K = random_convex_body(c, new, **kwargs)
            L = parent.random_convex_body(c, old, **kwargs)
            assert np.array_equal(K.vertex_array, L.vertex_array)
        assert new.uniform() == old.uniform()

    @pytest.mark.parametrize("rho_limit", [1.2 * math.pi, 10.0])
    def test_sphere_past_the_injectivity_bound(self, rho_limit):
        # Discs past pi cover the sphere; the hull then finds no hemisphere.
        errors = 0
        for seed in range(40):
            results = []
            for make in (random_convex_body, parent.random_convex_body):
                rng = RandomStream(seed)
                try:
                    body = make(Curvature(1.0), rng, rho_limit=rho_limit)
                    result = body.vertex_array.tobytes()
                except GeometryError as e:
                    result = str(e)
                results.append((result, rng.uniform()))
            assert results[0] == results[1]
            errors += isinstance(results[0][0], str)
        assert errors > 0
