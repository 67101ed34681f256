"""Tests for the unified embedding: trig, distances, discs, isometries."""

import math

import mpmath
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from curvedkin.surface import (BASIS_INPUT_ROWS, Curvature,
                               CurvatureMismatch, GeometryError, Isometry, RandomStream,
                               SurfacePoint, base_point, cross3,
                               disc_area, disc_perimeter, draw_motions,
                               exp_at_base, gen_asin,
                               gen_cos, gen_cos_sin, gen_sin,
                               geodesic_distance,
                               half_angle_cos_sin, libm_map,
                               basis_matrices, fold_table, motion_basis,
                               motion_matrices,
                               normalize_to_surface, point_polar,
                               sample_motions, row_distances,
                               support_area, translation_by_polar,
                               translation_matrices, translation_to)

from common import (ALL_KAPPAS, REGIME_KAPPAS, STREAM_LEADS, next_draws,
                    philox_state)
import exact
import parent
from parent import (form_dot, from_parent, sample_isometry, sample_positions,
                    to_parent)


class TestCurvature:
    def test_nonfinite_rejected(self):
        with pytest.raises(GeometryError):
            Curvature(math.nan)
        with pytest.raises(GeometryError):
            Curvature(math.inf)

    def test_mismatch_raises(self):
        with pytest.raises(CurvatureMismatch):
            Curvature(1.0).require_same(Curvature(-1.0))


class TestGeneralizedTrig:
    def test_flat_branch_identity(self):
        assert gen_sin(Curvature(0.0), 3.0) == 3.0
        assert gen_cos(Curvature(0.0), 3.0) == 1.0

    def test_spherical_values(self):
        assert abs(gen_cos(Curvature(1.0), math.pi / 2)) < 1e-15

    def test_hyperbolic_unit_sinh(self):
        # sinh(ln(1 + sqrt 2)) = 1
        eta = math.log(1.0 + math.sqrt(2.0))
        assert abs(gen_sin(Curvature(-1.0), eta) - 1.0) < 1e-12

    @pytest.mark.parametrize("kappa", ALL_KAPPAS)
    def test_pythagorean_identity(self, kappa):
        c = Curvature(kappa)
        for t in np.linspace(-10.0, 10.0, 101):
            val = gen_cos(c, t) ** 2 + kappa * gen_sin(c, t) ** 2
            # Relative to the (possibly huge) cancelling terms.
            assert abs(val - 1.0) < 1e-12 * max(1.0, gen_cos(c, t) ** 2)

    @pytest.mark.parametrize("kappa", [1e-9, -1e-9, 1e-12, -1e-12])
    def test_taylor_branch_matches_exact(self, kappa):
        c = Curvature(kappa)
        for t in (0.1, 1.0, 2.0):
            s = math.sqrt(abs(kappa))
            exact = (math.sin(s * t) / s if kappa > 0
                     else math.sinh(s * t) / s)
            assert abs(gen_sin(c, t) - exact) < 1e-12 * (1.0 + abs(exact))

    @pytest.mark.parametrize("kappa", ALL_KAPPAS)
    def test_gen_asin_inverts(self, kappa):
        c = Curvature(kappa)
        hi = min(1.4, 0.9 * c.hemisphere_limit)
        for t in np.linspace(0.0, hi, 20):
            assert abs(gen_asin(c, gen_sin(c, t)) - t) < 1e-9


class TestDiscFormulas:
    def test_flat_unit_disc(self):
        c = Curvature(0.0)
        assert abs(disc_perimeter(c, 1.0) - 2.0 * math.pi) < 1e-15
        assert abs(disc_area(c, 1.0) - math.pi) < 1e-15

    def test_hemisphere_limit_values(self):
        c = Curvature(1.0)
        r = math.pi / 2 - 1e-9
        assert abs(disc_perimeter(c, r) - 2.0 * math.pi) < 1e-8
        assert abs(disc_area(c, r) - 2.0 * math.pi) < 1e-8

    def test_hyperbolic_eta_perimeter(self):
        eta = math.log(1.0 + math.sqrt(2.0))
        assert abs(disc_perimeter(Curvature(-1.0), eta) - 2.0 * math.pi) < 1e-12

    def test_negative_radius_rejected(self):
        with pytest.raises(GeometryError):
            disc_area(Curvature(1.0), -0.1)

    @pytest.mark.parametrize("kappa", [0.25, 1.0, 2.0, 1e-8, 0.0, -1.0])
    def test_beyond_antipode_rejected(self, kappa):
        # The whole sphere, of diameter pi/sqrt(kappa), is a disc; a disc
        # one ulp wider is not.  Off the sphere no radius is too large.
        c = Curvature(kappa)
        if kappa <= 0.0:
            disc_area(c, 10.0)
            return
        d = math.pi / math.sqrt(kappa)
        disc_area(c, d)
        with pytest.raises(GeometryError, match="diameter bound"):
            disc_area(c, math.nextafter(d, math.inf))

    def test_near_zero_kappa_continuity(self):
        for kappa in (1e-6, -1e-6):
            c = Curvature(kappa)
            for r in np.linspace(0.1, 2.0, 20):
                assert abs(disc_area(c, r) - math.pi * r * r) < 1e-4

    @pytest.mark.parametrize("kappa", [0.25, 1.0, 2.0, -0.25, -1.0])
    def test_area_just_past_series_cutoff_matches_mpmath(self, kappa):
        # |kappa| r^2 just above TAYLOR_CUTOFF = 1e-8, where 1 - gen_cos
        # loses 8 digits to cancellation; 4 pi gen_sin^2(r/2) keeps them.
        mp = mpmath.MPContext()
        mp.dps = 50
        c, k = Curvature(kappa), mp.mpf(kappa)
        worst = 0.0
        for x in np.linspace(1e-8, 3e-8, 1000).tolist():
            r = math.sqrt(x / abs(kappa))
            s = mp.sqrt(abs(k)) * mp.mpf(r)
            ref = 2 * mp.pi * (1 - (mp.cos(s) if kappa > 0 else mp.cosh(s))) / k
            worst = max(worst, float(abs(disc_area(c, r) - ref) / ref))
        assert worst <= 1e-15, worst


class TestSurfacePoint:
    @pytest.mark.parametrize("kappa", ALL_KAPPAS)
    def test_base_point_valid(self, kappa):
        p = base_point(Curvature(kappa))
        assert p.coords[2] > 0

    def test_quadric_violation_rejected(self):
        with pytest.raises(GeometryError):
            SurfacePoint(np.array([1.0, 0.0, 1.0]), Curvature(1.0))

    def test_lower_sheet_rejected(self):
        with pytest.raises(GeometryError):
            SurfacePoint(np.array([0.0, 0.0, -1.0]), Curvature(-1.0))

    def test_flat_slice_enforced(self):
        with pytest.raises(GeometryError):
            SurfacePoint(np.array([0.0, 0.0, 2.0]), Curvature(0.0))

    @pytest.mark.parametrize("kappa", REGIME_KAPPAS)
    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    @pytest.mark.parametrize("axis", [0, 1, 2])
    def test_non_finite_coordinates_rejected(self, kappa, bad, axis):
        coords = base_point(Curvature(kappa)).coords.copy()
        coords[axis] = bad
        with pytest.raises(GeometryError, match="must be finite"):
            SurfacePoint(coords, Curvature(kappa))

    def test_overflowing_quadric_rejected(self):
        # Finite coordinates whose squares overflow give q = inf - inf =
        # nan on the hyperboloid; the quadric test must reject it.
        with np.errstate(over="ignore", invalid="ignore"), \
                pytest.raises(GeometryError, match="quadric"):
            SurfacePoint(np.array([1e200, 0.0, 1e200]), Curvature(-1.0))


class TestDistance:
    def test_zero_iff_same(self):
        p = exp_at_base(Curvature(1.0), 0.3, 0.5)
        assert geodesic_distance(p, p) == 0.0

    def test_quarter_great_circle(self):
        c = Curvature(1.0)
        p = SurfacePoint(np.array([1.0, 0.0, 0.0]), c)
        q = SurfacePoint(np.array([0.0, 1.0, 0.0]), c)
        assert abs(geodesic_distance(p, q) - math.pi / 2) < 1e-12

    def test_hyperbolic_boost_oracle(self):
        # Explicit Lorentz boost by parameter s applied to the base point.
        c = Curvature(-1.0)
        for s in (0.1, 1.0, 2.5):
            boosted = SurfacePoint(
                np.array([math.sinh(s), 0.0, math.cosh(s)]), c)
            assert abs(geodesic_distance(base_point(c), boosted) - s) < 1e-12

    @pytest.mark.parametrize("kappa", REGIME_KAPPAS)
    def test_triangle_inequality(self, kappa):
        c = Curvature(kappa)
        rng = RandomStream(101)
        hi = min(1.5, 0.9 * c.hemisphere_limit)
        for _ in range(1000):
            p, q, s = (exp_at_base(c, float(rng.uniform(0, hi)),
                                   float(rng.uniform(0, 2 * math.pi)))
                       for _ in range(3))
            assert (geodesic_distance(p, s) <= geodesic_distance(p, q)
                    + geodesic_distance(q, s) + 1e-12)


def old_geodesic_distance(p: SurfacePoint, q: SurfacePoint) -> float:
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


def random_surface_points(c: Curvature, rng: RandomStream, n: int):
    hi = 0.95 * math.pi / c.scale if c.kappa > 0 else 3.0
    # Cubing crowds radii near 0, so pairs span many distance scales.
    r = hi * rng.uniform(0.0, 1.0, n) ** 3
    return [exp_at_base(c, float(x), float(t))
            for x, t in zip(r, rng.uniform(0, 2 * math.pi, n))]


class TestRowDistances:
    @pytest.mark.parametrize("kappa", ALL_KAPPAS)
    def test_matches_scalar_distance(self, kappa):
        c = Curvature(kappa)
        rng = RandomStream(163)
        P = random_surface_points(c, rng, 2000)
        Q = random_surface_points(c, rng, 2000)
        Q[::7] = P[::7]
        # Rebuilt from polar coordinates: apart by rounding only.
        Q[1::7] = [exp_at_base(c, *point_polar(p)) for p in P[1::7]]
        old = np.array([old_geodesic_distance(
            parent.SurfacePoint(to_parent(c, p.coords), c),
            parent.SurfacePoint(to_parent(c, q.coords), c))
            for p, q in zip(P, Q)])
        rows = row_distances(c, np.array([p.coords for p in P]),
                             np.array([q.coords for q in Q]))
        # The chord now comes from the quadric, so the bits may move; the
        # moved rows may not lose accuracy against 60-digit distances.
        moved = np.flatnonzero(rows != old)
        pairs = [(P[i].coords, Q[i].coords) for i in moved]
        assert exact.no_worse(
            rows[moved], old[moved],
            [exact.distance(kappa, p, q) for p, q in pairs],
            [exact.distance_ulp(kappa, p, q) for p, q in pairs])
        assert np.all(rows[::7] == 0.0)
        for p, q, d in zip(P[:50], Q[:50], rows):
            assert geodesic_distance(p, q) == d

    def test_broadcasts_one_point_against_rows(self):
        c = Curvature(-1.0)
        rng = RandomStream(167)
        P = random_surface_points(c, rng, 5)
        grid = np.array([[q.coords for q in P]] * 2)
        d = row_distances(c, P[0].coords, grid)
        assert d.shape == (2, 5)
        assert d[0, 0] == 0.0 and np.array_equal(d[0], d[1])

    def test_libm_map_keeps_shape_and_math_values(self):
        x = np.linspace(-1.0, 1.0, 12).reshape(3, 4)
        got = libm_map(math.acos, x)
        assert got.shape == (3, 4) and got.dtype == float
        assert got.ravel().tolist() == [math.acos(v) for v in x.ravel()]
        assert libm_map(math.hypot, np.float64(3.0), np.float64(4.0)) == 5.0


class TestExpAndPolar:
    @pytest.mark.parametrize("kappa", ALL_KAPPAS)
    def test_exp_zero_is_base(self, kappa):
        c = Curvature(kappa)
        p = exp_at_base(c, 0.0, 1.234)
        assert np.allclose(p.coords, base_point(c).coords)

    def test_flat_polar_coordinates(self):
        p = exp_at_base(Curvature(0.0), 2.0, math.pi / 3)
        assert np.allclose(p.coords, [1.0, math.sqrt(3.0), 1.0])

    @given(kappa=st.sampled_from(ALL_KAPPAS),
           r=st.floats(0.0, 1.4), theta=st.floats(0.0, 2 * math.pi))
    @settings(max_examples=200, deadline=None)
    def test_distance_to_base_is_r(self, kappa, r, theta):
        c = Curvature(kappa)
        p = exp_at_base(c, r, theta)
        assert abs(geodesic_distance(base_point(c), p) - r) < 1e-9

    @pytest.mark.parametrize("kappa", [0.25, 1.0, 2.0, 1e-8, 0.0, -1.0])
    def test_injectivity_bound(self, kappa):
        # On the sphere polar coordinates reach up to the antipode of the
        # base point, at pi/sqrt(kappa), and not onto it.
        c = Curvature(kappa)
        if kappa <= 0.0:
            exp_at_base(c, 10.0, 0.0)
            return
        d = math.pi / math.sqrt(kappa)
        with pytest.raises(GeometryError,
                           match="exceeds the injectivity bound"):
            exp_at_base(c, d, 0.0)
        exp_at_base(c, math.nextafter(d, 0.0), 0.0)

    @pytest.mark.parametrize("kappa", REGIME_KAPPAS)
    @pytest.mark.parametrize("r,theta", [(math.nan, 0.1), (math.inf, 0.1),
                                         (0.5, math.nan), (0.5, math.inf)])
    def test_non_finite_polar_rejected(self, kappa, r, theta):
        with pytest.raises(GeometryError, match="polar coordinates must be "
                                                "finite"):
            exp_at_base(Curvature(kappa), r, theta)

    @pytest.mark.parametrize("kappa", REGIME_KAPPAS)
    def test_polar_round_trip(self, kappa):
        c = Curvature(kappa)
        r, theta = point_polar(exp_at_base(c, 0.8, 2.1))
        assert abs(r - 0.8) < 1e-12 and abs(theta - 2.1) < 1e-12


class TestNormalize:
    def test_spacelike_rejected(self):
        with pytest.raises(GeometryError):
            normalize_to_surface(Curvature(-1.0), np.array([2.0, 0.0, 1.0]))

    @pytest.mark.parametrize("kappa", ALL_KAPPAS)
    def test_projection_lands_on_surface(self, kappa):
        c = Curvature(kappa)
        v = exp_at_base(c, 0.7, 0.3).coords * 3.7
        SurfacePoint(normalize_to_surface(c, v), c)  # must not raise


class TestIsometry:
    @pytest.mark.parametrize("kappa", ALL_KAPPAS)
    def test_translation_carries_base(self, kappa):
        c = Curvature(kappa)
        target = exp_at_base(c, 0.9, 2.5)
        g = translation_to(target)
        assert g.check_form()
        assert np.allclose(g.apply(base_point(c)).coords, target.coords,
                           atol=1e-12)

    @pytest.mark.parametrize("kappa", ALL_KAPPAS)
    def test_translation_matrices_match_translation_by_polar(self, kappa):
        # The stack, row by row, is the translation by point_polar's (r,
        # theta), bit for bit; the base point's is the identity's, theta 0.
        c = Curvature(kappa)
        rng = RandomStream(11)
        rows = np.array([base_point(c).coords] + [
            exp_at_base(c, float(rng.uniform(0.0, 1.0)),
                        float(rng.uniform(-math.pi, math.pi))).coords
            for _ in range(40)])
        t = translation_matrices(c, rows)
        assert t.shape == (len(rows), 3, 3)
        for row, m in zip(rows, t):
            p = SurfacePoint(row, c)
            g = translation_by_polar(c, *point_polar(p))
            assert m.tobytes() == g.matrix.tobytes()
            assert translation_to(p).matrix.tobytes() == m.tobytes()

    @pytest.mark.parametrize("kappa", REGIME_KAPPAS)
    def test_distance_preservation(self, kappa):
        c = Curvature(kappa)
        rng = RandomStream(7)
        for _ in range(50):
            g = sample_isometry(c, 2.0, rng)
            p = exp_at_base(c, float(rng.uniform(0, 1.2)),
                            float(rng.uniform(0, 2 * math.pi)))
            q = exp_at_base(c, float(rng.uniform(0, 1.2)),
                            float(rng.uniform(0, 2 * math.pi)))
            d0 = geodesic_distance(p, q)
            d1 = geodesic_distance(g.apply(p), g.apply(q))
            assert abs(d1 - d0) < 1e-9 * (1.0 + d0)

    def test_rotation_fixes_base(self):
        for kappa in REGIME_KAPPAS:
            c = Curvature(kappa)
            g = Isometry(motion_matrices(c, 0.0, 0.0, 1.1)[0], c)
            assert np.allclose(g.apply(base_point(c)).coords,
                               base_point(c).coords)

    def test_compose_inverse(self):
        c = Curvature(-1.0)
        spin = Isometry(motion_matrices(c, 0.0, 0.0, 2.0)[0], c)
        g = translation_by_polar(c, 0.7, 0.4) @ spin
        h = g @ g.inverse()
        assert np.allclose(h.matrix, np.eye(3), atol=1e-12)


class TestRandomStream:
    def test_reproducible(self):
        a = RandomStream(5).uniform(size=10)
        b = RandomStream(5).uniform(size=10)
        assert np.array_equal(a, b)

    def test_split_streams_differ_but_reproduce(self):
        s1, s2 = RandomStream(5).split(2)
        t1, t2 = RandomStream(5).split(2)
        assert np.array_equal(s1.uniform(size=4), t1.uniform(size=4))
        assert not np.array_equal(RandomStream(5).split(2)[0].uniform(size=4),
                                  RandomStream(5).split(2)[1].uniform(size=4))

    @pytest.mark.parametrize("lead", range(len(STREAM_LEADS)))
    def test_ahead_and_skip_match_drawing(self, lead):
        # From every buffer position, with or without a pending half word:
        # ahead(k) gives, and skip(k) leaves, the state that drawing k
        # doubles leaves, buffer included; ahead does not move the stream.
        for k in (0, 1, 2, 3, 4, 5, 7, 8, 9, 1000, 1001, 4097, 600_009):
            drawn, moved = RandomStream(71), RandomStream(71)
            for stream in (drawn, moved):
                STREAM_LEADS[lead](stream.generator)
            before = philox_state(moved.generator)
            ahead = moved.ahead(k)
            assert philox_state(moved.generator) == before
            drawn.generator.random(k)
            moved.skip(k)
            want = philox_state(drawn.generator)
            assert philox_state(ahead) == philox_state(moved.generator) == want
            assert (next_draws(ahead) == next_draws(moved.generator)
                    == next_draws(drawn.generator)), k

    def test_skip_carries_across_counter_words(self):
        drawn, moved = RandomStream(73), RandomStream(73)
        state = drawn.generator.bit_generator.state
        state["state"]["counter"] = np.array([2 ** 64 - 1, 2 ** 64 - 1, 5, 0],
                                             dtype=np.uint64)
        for stream in (drawn, moved):
            stream.generator.bit_generator.state = state
        drawn.generator.random(13)
        moved.skip(13)
        assert philox_state(moved.generator) == philox_state(drawn.generator)
        assert philox_state(moved.generator)[0] == (3, 0, 6, 0)


class TestHaarSampling:
    @pytest.mark.parametrize("kappa", REGIME_KAPPAS)
    def test_sampled_isometries_preserve_form(self, kappa):
        c = Curvature(kappa)
        mats = basis_matrices(c, motion_basis(
            c, *sample_motions(c, 1.5, 30, RandomStream(13))))
        assert all(Isometry(m, c).check_form() for m in mats)

    def test_sphere_orbit_uniformity(self):
        # chi-square over the eight octants of g x0 for kappa = 1, with
        # support pi: the whole sphere.
        c = Curvature(1.0)
        rng = RandomStream(17)
        mats = basis_matrices(c, motion_basis(
            c, *sample_motions(c, math.pi, 100000, rng)))
        pts = mats @ base_point(c).coords
        signs = (pts > 0).astype(int)
        octant = signs[:, 0] * 4 + signs[:, 1] * 2 + signs[:, 2]
        counts = np.bincount(octant, minlength=8)
        expected = len(pts) / 8.0
        chi2 = float(np.sum((counts - expected) ** 2 / expected))
        # 7 dof; chi2 < 24.3 corresponds to p > 0.001.
        assert chi2 < 24.3

    def test_support_area_values(self):
        assert abs(support_area(Curvature(1.0), 99.0) - 4 * math.pi) < 1e-12
        assert abs(support_area(Curvature(0.0), 2.0) - 4 * math.pi) < 1e-12

    @pytest.mark.parametrize("kappa, rho", [
        (1.0, 1.5), (1.0, 2.5), (1.0, 5.0), (0.0, 1.5), (-1.0, 1.5)])
    def test_area_uniform_in_the_cap(self, kappa, rho):
        # chi-square of disc_area(r)/support_area over ten equal-area
        # rings of the sampled cap; past pi the cap is the whole sphere.
        c = Curvature(kappa)
        r, _ = sample_positions(c, rho, 50_000, RandomStream(37))
        share = np.array([disc_area(c, x) for x in r.tolist()])
        share /= support_area(c, rho)
        counts = np.bincount(np.minimum((share * 10).astype(int), 9),
                             minlength=10)
        expected = len(r) / 10.0
        chi2 = float(np.sum((counts - expected) ** 2 / expected))
        # 9 dof; chi2 < 27.88 corresponds to p > 0.001.
        assert chi2 < 27.88


def old_motion_matrices(curvature, r, theta, phi):
    """The (n, 3, 3) motion builder before the closed form, kept verbatim
    (bar its name) as an oracle: Rz(theta) . t . Rz(phi - theta) as two
    zero-padded batched matmuls."""
    r = np.atleast_1d(np.asarray(r, dtype=float))
    theta = np.broadcast_to(np.asarray(theta, dtype=float), r.shape)
    phi = np.broadcast_to(np.asarray(phi, dtype=float), r.shape)
    n = len(r)
    k = curvature.kappa

    def _rz(a):
        c, s = np.cos(a), np.sin(a)
        m = np.zeros((n, 3, 3))
        m[:, 0, 0] = c
        m[:, 0, 1] = -s
        m[:, 1, 0] = s
        m[:, 1, 1] = c
        m[:, 2, 2] = 1.0
        return m

    t = np.zeros((n, 3, 3))
    if k == 0.0:
        t[:] = np.eye(3)
        t[:, 0, 2] = r
    else:
        a = curvature.scale * r
        if k > 0:
            ca, sa = np.cos(a), np.sin(a)
            t[:, 0, 0] = ca
            t[:, 0, 2] = sa
            t[:, 2, 0] = -sa
            t[:, 2, 2] = ca
        else:
            ca, sa = np.cosh(a), np.sinh(a)
            t[:, 0, 0] = ca
            t[:, 0, 2] = sa
            t[:, 2, 0] = sa
            t[:, 2, 2] = ca
        t[:, 1, 1] = 1.0
    return _rz(theta) @ t @ _rz(phi - theta)


class TestCross3:
    @pytest.mark.parametrize("shapes", [
        ((8, 3), (8, 3)), ((3,), (4, 3)), ((3,), (3,)),
        ((5, 1, 3), (1, 7, 3)), ((2, 6, 1, 3), (2, 1, 6, 3))])
    def test_bit_identical_to_np_cross(self, shapes):
        rng = np.random.default_rng(len(shapes[0]) + len(shapes[1]))
        a, b = (rng.normal(size=s) * 10.0 ** rng.integers(-8, 9, s)
                for s in shapes)
        assert np.array_equal(cross3(a, b), np.cross(a, b))
        assert np.array_equal(cross3(b, a), np.cross(b, a))


class TestHalfAngle:
    def test_within_4e16_of_mpmath(self):
        # The motion builder's direction cosines, from tan(x/2), on 1.1e5
        # angles: uniform on [0, 2 pi) and (-2 pi, 0) (psi = phi - theta
        # spans both), clusters within 1e-8 of 0 and 2 pi and within 1e-6
        # of pi, and the ends themselves.  libm's cos and sin reach 5.6e-17.
        ctx = mpmath.MPContext()
        ctx.dps = 40
        rng = np.random.default_rng(5)
        two_pi = 2.0 * math.pi
        x = np.concatenate([
            rng.uniform(0.0, two_pi, 60_000), rng.uniform(-two_pi, 0.0, 10_000),
            rng.uniform(0.0, 1e-8, 10_000), two_pi - rng.uniform(0.0, 1e-8, 10_000),
            math.pi + rng.uniform(-1e-6, 1e-6, 10_000),
            [0.0, math.pi, -math.pi, np.nextafter(two_pi, 0.0),
             np.nextafter(-two_pi, 0.0)]])
        cos, sin = half_angle_cos_sin(x)
        worst = 0.0
        for xi, c, s in zip(x.tolist(), cos.tolist(), sin.tolist()):
            ec, es = ctx.cos_sin(ctx.mpf(xi))
            worst = max(worst, abs(float(ec - c)), abs(float(es - s)))
        assert worst <= 4e-16


class TestReusedBuffers:
    """draw_motions, motion_basis and half_angle_cos_sin write into a given
    block exactly what sample_motions or they return in a new one."""

    @staticmethod
    def arrays(samples):
        (a, b), theta, phi = samples
        return a, b, theta, phi

    @pytest.mark.parametrize("kappa", REGIME_KAPPAS)
    def test_sample_motions_into_out(self, kappa):
        c = Curvature(kappa)
        first = self.arrays(sample_motions(c, 1.0, 1000, RandomStream(29)))
        kept = [x.copy() for x in first]
        second = self.arrays(sample_motions(c, 1.0, 1000, RandomStream(30)))
        # sample_motions' arrays are each call's caller's.
        for x, y, z in zip(first, kept, second):
            assert np.array_equal(x, y) and not np.shares_memory(x, z)
        # draw_motions writes the same into a given out, one generator
        # giving all three streams.
        out = np.full((4, 1000), np.nan)
        g = RandomStream(29).generator
        into = self.arrays(draw_motions(c, support_area(c, 1.0), (g, g, g),
                                        out))
        for x, y in zip(into, kept):
            assert np.shares_memory(x, out) and np.array_equal(x, y)
        # The next call on the same out overwrites them, as documented.
        g = RandomStream(30).generator
        draw_motions(c, support_area(c, 1.0), (g, g, g), out)
        assert np.array_equal(into[2], second[2])

    @pytest.mark.parametrize("kappa", [1.0, 0.0, -1.0])
    def test_draws_are_numpy_uniform(self, kappa):
        # random(out=) scaled by w is uniform(0, w) bit for bit.
        c = Curvature(kappa)
        (a, b), theta, phi = sample_motions(c, 1.5, 3000, RandomStream(37))
        ref = RandomStream(37)
        assert np.array_equal(theta, ref.uniform(0.0, 2 * math.pi, 3000))
        u = ref.uniform(0.0, support_area(c, 1.5), 3000)
        assert np.array_equal(phi, ref.uniform(0.0, 2 * math.pi, 3000))
        # The parent's expressions for the radial pair.
        a0 = 1.0 - kappa * u / (2.0 * math.pi)
        assert np.array_equal(a, a0)
        assert np.array_equal(b, np.sqrt(u * (1.0 + a0) / (2.0 * math.pi)))

    @pytest.mark.parametrize("kappa", [1.0, 0.0, -1.0])
    def test_motion_basis_into_out(self, kappa):
        c = Curvature(kappa)
        radial, theta, phi = sample_motions(c, 1.5, 5000, RandomStream(41))
        fresh = motion_basis(c, radial, theta, phi)
        block = np.full((14, 5000), np.nan)
        into = motion_basis(c, radial, theta, phi, out=block)
        assert np.shares_memory(into, block) and np.array_equal(into, fresh)
        # Inputs drawn into the block's own input rows give the same basis.
        block = np.full((14, 5000), np.nan)
        g = RandomStream(41).generator
        (a, b), theta_in, phi_in = draw_motions(
            c, support_area(c, 1.5), (g, g, g),
            tuple(block[i] for i in BASIS_INPUT_ROWS))
        assert np.array_equal(np.stack([theta_in, b, phi_in, a]),
                              np.stack([theta, radial[1], phi, radial[0]]))
        assert np.array_equal(motion_basis(c, (a, b), theta_in, phi_in,
                                           out=block), fresh)
        # Scalar angles broadcast as before.
        one = motion_basis(c, radial, 0.5, phi)
        assert np.array_equal(one, motion_basis(
            c, radial, np.full(5000, 0.5), phi))

    def test_half_angle_into_out(self):
        x = RandomStream(43).uniform(-2 * math.pi, 2 * math.pi, 4096)
        block = np.full((3, 4096), np.nan)
        into = half_angle_cos_sin(x, out=block)
        for y, z in zip(into, half_angle_cos_sin(x)):
            assert np.shares_memory(y, block) and np.array_equal(y, z)


class TestMotionColumns:
    KAPPAS = [2.0, 0.25, 0.0, -0.25, -2.0]

    def motions(self, seed, n=20_000):
        rng = RandomStream(seed)
        return (rng.uniform(0.0, 3.0, n), rng.uniform(0.0, 2 * math.pi, n),
                rng.uniform(0.0, 2 * math.pi, n))

    @pytest.mark.parametrize("kappa", KAPPAS)
    def test_matches_old_stack(self, kappa):
        c = Curvature(kappa)
        r, theta, phi = self.motions(19)
        old = old_motion_matrices(c, r, theta, phi)
        new = basis_matrices(c, motion_basis(c, gen_cos_sin(c, r), theta,
                                             phi))
        moved = to_parent(c, new, matrix=True)
        assert np.all(np.abs(moved - old)
                      <= 1e-14 * np.maximum(1.0, np.abs(old)))
        assert np.array_equal(motion_matrices(c, r, theta, phi), new)

    @pytest.mark.parametrize("kappa", KAPPAS)
    def test_inverse_columns(self, kappa):
        c = Curvature(kappa)
        r, theta, phi = self.motions(23)
        basis = motion_basis(c, gen_cos_sin(c, r), theta, phi)
        fwd = motion_matrices(c, r, theta, phi)
        inv = (fold_table(c, np.eye(9), inverse=True) @ basis).T.reshape(
            -1, 3, 3)
        # The inverse of (r, theta, phi) is the motion (-r, theta - phi, -phi).
        again = motion_matrices(c, -r, theta - phi, -phi)
        big = np.maximum(1.0, np.abs(inv))
        assert np.all(np.abs(inv - again) <= 1e-13 * big)
        scale = np.max(np.abs(fwd), axis=(1, 2)) ** 2
        # Inverse to both the basis's motions and the old builder's.
        for m in (fwd, from_parent(c, old_motion_matrices(c, r, theta, phi),
                                   matrix=True)):
            assert np.all(np.abs(inv @ m - np.eye(3)).max(axis=(1, 2))
                          <= 1e-14 * np.maximum(1.0, scale))

    @pytest.mark.parametrize("kappa", REGIME_KAPPAS)
    def test_sample_motions_stream_order(self, kappa):
        # Positions first, then the spin, as the matrix sampler drew them.
        c = Curvature(kappa)
        (a, b), theta, phi = sample_motions(c, 1.0, 1000, RandomStream(29))
        ref = RandomStream(29)
        r0, theta0 = sample_positions(c, 1.0, 1000, ref)
        assert np.array_equal(theta, theta0)
        assert np.array_equal(phi, ref.uniform(0.0, 2 * math.pi, 1000))
        # The radial pair belongs to the same radius: (1, r) on the plane.
        a0, b0 = gen_cos_sin(c, r0)
        if kappa == 0.0:
            assert np.array_equal(a, a0) and np.array_equal(b, b0)
        assert np.allclose(a, a0, rtol=1e-12, atol=0.0)
        assert np.allclose(b, b0, rtol=1e-12, atol=0.0)

    @pytest.mark.parametrize("kappa", ALL_KAPPAS)
    def test_radial_pair_matches_mpmath(self, kappa):
        # The pair from the drawn area u, against 60 digits from the same
        # draw: a = 1 - k u/2pi, b = sqrt(u (1 + a)/2pi) for every kappa.
        # Taking r first, by arccosh near 1, costs the hyperbolic b up to
        # 1e-13 relative.
        c = Curvature(kappa)
        n = 2000
        (a, b), _, _ = sample_motions(c, 1.5, n, RandomStream(31))
        ref = RandomStream(31)
        ref.uniform(0.0, 2 * math.pi, n)
        u = ref.uniform(0.0, disc_area(c, 1.5), n)
        mp = mpmath.MPContext()
        mp.dps = 60
        k = mp.mpf(kappa)
        for ai, bi, ui in zip(a, b, u):
            ui = mp.mpf(float(ui))
            ea = 1 - k * ui / (2 * mp.pi)
            eb = mp.sqrt(ui * (1 + ea) / (2 * mp.pi))
            assert abs(ai - ea) <= 4e-16 * max(1, abs(ea))
            assert abs(bi - eb) <= 4e-16 * max(eb, 1e-300)

    @pytest.mark.parametrize("kappa", [1e-12, -1e-12, 1e-9, -1e-9, 1.0, -1.0,
                                       2.0, -2.0, 0.0])
    def test_positions_match_mpmath(self, kappa):
        # r from the drawn area u, against 60 digits of the inverse of the
        # disc area 2 pi (1 - gen_cos r)/kappa from the same draw.  In
        # floats that inverse, acos or acosh of 1 - k u/2pi, loses digits
        # as k u -> 0.
        c = Curvature(kappa)
        n = 2000
        r, _ = sample_positions(c, 1.5, n, RandomStream(41))
        ref = RandomStream(41)
        ref.uniform(0.0, 2 * math.pi, n)
        u = ref.uniform(0.0, disc_area(c, 1.5), n)
        mp = mpmath.MPContext()
        mp.dps = 60
        k = mp.mpf(kappa)
        for ri, ui in zip(r.tolist(), u.tolist()):
            x = 1 - k * mp.mpf(ui) / (2 * mp.pi)
            if kappa > 0:
                er = mp.acos(x) / mp.sqrt(k)
            elif kappa < 0:
                er = mp.acosh(x) / mp.sqrt(-k)
            else:
                er = mp.sqrt(mp.mpf(ui) / mp.pi)
            assert abs(ri - er) <= 1e-15 * er

    @pytest.mark.parametrize("kappa", ALL_KAPPAS)
    def test_translation_by_polar_is_a_motion(self, kappa):
        c = Curvature(kappa)
        g = translation_by_polar(c, 0.9, 2.5)
        ref = from_parent(c, old_motion_matrices(c, 0.9, 2.5, 0.0)[0],
                          matrix=True)
        assert np.allclose(g.matrix, ref, rtol=0.0, atol=1e-14)
