"""Stacks of bodies: construction, area, perimeter and metrics of a padded
stack equal one-by-one construction and measurement bit for bit, and a
stack with an invalid body raises as one-by-one construction does."""

import math
import re

import numpy as np
import pytest

from curvedkin.bonnesen import random_convex_bodies, random_convex_body
from curvedkin.convex import (GeodesicPolygon, _build_polygons, area, areas,
                              next_rows, perimeter, perimeters, regular_ngon)
from curvedkin.radii import metrics, metrics_stack
from curvedkin.surface import (Curvature, GeometryError, RandomStream,
                               cross3, exp_at_base, normalize_to_surface)

from common import ALL_KAPPAS
import parent


def metrics_floats(m) -> tuple:
    return (m.A, m.P, m.r_in, m.R_circ, *m.incenter.coords.tolist(),
            *m.circumcenter.coords.tolist())


def assert_same_bodies(stacked, one_by_one):
    assert len(stacked) == len(one_by_one)
    for K, L in zip(stacked, one_by_one):
        assert np.array_equal(K.vertex_array, L.vertex_array)
        assert not K.vertex_array.flags.writeable
        assert np.array_equal(K.edge_normals, L.edge_normals,
                              equal_nan=True)
        assert K.edge_normals.shape == (len(L.edges), 3)


def polygon_stack(rows, curv) -> list:
    """Polygons of copies of the row arrays, checked as one stack; the first
    body that fails raises."""
    return _build_polygons(curv, [np.array(r, dtype=float) for r in rows])


def mixed_bodies(curv: Curvature, rng: RandomStream) -> list:
    """Points, segments and polygons of 3 to 12 vertices, shuffled."""
    bodies = [GeodesicPolygon([exp_at_base(curv, 0.3, 1.0)]),
              GeodesicPolygon([exp_at_base(curv, 0.2, 0.5),
                               exp_at_base(curv, 0.4, 2.5)])]
    bodies += random_convex_bodies(curv, rng.split(30))
    bodies += [regular_ngon(curv, 0.5, n, phase=0.2) for n in (3, 7, 12)]
    order = np.argsort(rng.uniform(0.0, 1.0, len(bodies)))
    return [bodies[i] for i in order]


class TestStackedBodies:
    @pytest.mark.parametrize("kappa", ALL_KAPPAS)
    def test_random_bodies_as_one_by_one(self, kappa):
        curv = Curvature(kappa)
        stacked = random_convex_bodies(curv, RandomStream(23).split(40))
        streams = RandomStream(23).split(40)
        one_by_one = [random_convex_body(curv, s) for s in streams]
        assert_same_bodies(stacked, one_by_one)
        assert len({K.n_vertices for K in stacked}) > 3
        # The per-point generator of tests/parent.py draws the same bodies
        # from the same streams, none skipped.
        oracle = [parent.random_convex_body(curv, s)
                  for s in RandomStream(23).split(40)]
        for K, L in zip(stacked, oracle):
            assert np.array_equal(K.vertex_array, L.vertex_array)

    @pytest.mark.parametrize("kappa", ALL_KAPPAS)
    def test_a_repeated_stream_draws_in_sequence(self, kappa):
        curv = Curvature(kappa)
        new, old = RandomStream(29), RandomStream(29)
        stacked = random_convex_bodies(curv, [new] * 25, max_vertices=8)
        one_by_one = [random_convex_body(curv, old, max_vertices=8)
                      for _ in range(25)]
        assert_same_bodies(stacked, one_by_one)
        assert new.uniform() == old.uniform()

    @pytest.mark.parametrize("kappa", ALL_KAPPAS)
    def test_mixed_sizes_measure_as_one_by_one(self, kappa):
        curv = Curvature(kappa)
        bodies = mixed_bodies(curv, RandomStream(31))
        sizes = [K.n_vertices for K in bodies]
        assert {1, 2, 3, 12} <= set(sizes)
        assert areas(bodies) == [area(K) for K in bodies]
        assert perimeters(bodies) == [perimeter(K) for K in bodies]
        for K, A, P in zip(bodies, areas(bodies), perimeters(bodies)):
            assert type(A) is float and type(P) is float
            if K.n_vertices == 1:
                assert A == P == 0.0
            elif K.n_vertices == 2:
                assert A == 0.0 and P > 0.0
        assert ([metrics_floats(m) for m in metrics_stack(bodies)]
                == [metrics_floats(metrics(K)) for K in bodies])

    @pytest.mark.parametrize("kappa", ALL_KAPPAS)
    def test_polygon_stack_as_one_by_one(self, kappa):
        curv = Curvature(kappa)
        rows = [K.vertex_array for K in mixed_bodies(curv, RandomStream(37))]
        stacked = polygon_stack(rows, curv)
        assert_same_bodies(stacked, [GeodesicPolygon(r, curv) for r in rows])

    def test_empty_stacks(self):
        curv = Curvature(1.0)
        assert areas([]) == perimeters([]) == metrics_stack([]) == []
        assert random_convex_bodies(curv, []) == []

    def test_stacks_share_one_curvature(self):
        bodies = [regular_ngon(Curvature(k), 0.5, 5) for k in (1.0, -1.0)]
        for measure in (areas, perimeters):
            with pytest.raises(GeometryError, match="curvatures differ"):
                measure(bodies)

    def test_regular_10k_gon_as_a_stack_of_one(self):
        # The blocked convexity check in a stack of one; its normals are
        # the one-body formula's, and it measures in a stack with small
        # bodies as it does alone.
        curv = Curvature(-1.0)
        rows = regular_ngon(curv, 0.6, 10_000, phase=0.1).vertex_array
        (K,) = polygon_stack([rows], curv)
        nu = cross3(rows, next_rows(rows))
        norm2 = (nu * nu * curv.line_form).sum(axis=-1)
        assert np.array_equal(K.edge_normals, nu / np.sqrt(norm2)[:, None])
        small = [regular_ngon(curv, 0.5, n) for n in (3, 5)]
        stack = [small[0], K, small[1]]
        assert areas(stack) == [area(L) for L in stack]
        assert perimeters(stack) == [perimeter(L) for L in stack]


def error_of(build) -> str:
    with pytest.raises(GeometryError) as info:
        build()
    return str(info.value)


class TestStackErrors:
    """An invalid body in a stack raises its one-by-one error."""

    @staticmethod
    def invalid_rows(kappa: float) -> dict:
        curv = Curvature(kappa)
        square = regular_ngon(curv, 0.5, 4).vertex_array
        hexagon = regular_ngon(curv, 0.5, 6).vertex_array.copy()
        hexagon[3] = exp_at_base(curv, 0.1, math.pi).coords
        mid = normalize_to_surface(curv, square[0] + square[1])
        cases = {
            "repeated": np.concatenate([square[:2], square[1:]]),
            "clockwise": square[::-1].copy(),
            "reflex": hexagon,
            "collinear": np.insert(square, 1, mid, axis=0),
        }
        if kappa > 0:
            # Three points 120 degrees apart on the equator.
            t = 2.0 * math.pi * np.arange(3) / 3.0
            cases["no hemisphere"] = np.column_stack(
                [np.cos(t), np.sin(t), np.zeros(3)]) / math.sqrt(kappa)
        return cases

    @pytest.mark.parametrize("kappa", ALL_KAPPAS)
    def test_same_error_for_the_same_body(self, kappa):
        curv = Curvature(kappa)
        good = [K.vertex_array for K in mixed_bodies(curv, RandomStream(41))]
        cases = self.invalid_rows(kappa)
        for name, bad in cases.items():
            expected = error_of(lambda: GeodesicPolygon(bad, curv))
            for at in (0, 7, len(good)):
                rows = good[:at] + [bad] + good[at:]
                assert error_of(lambda: polygon_stack(rows, curv)) == \
                    expected, (name, at)
        # Two invalid bodies: the first in order raises.
        names = list(cases)
        for first, second in zip(names, names[1:] + names[:1]):
            rows = good[:5] + [cases[first]] + good[5:9] + [cases[second]]
            assert error_of(lambda: polygon_stack(rows, curv)) == \
                error_of(lambda: GeodesicPolygon(cases[first], curv))

    @pytest.mark.parametrize("rho_limit", [1.2 * math.pi, 10.0])
    def test_random_bodies_past_the_injectivity_bound(self, rho_limit):
        # On the sphere these draws fail, at the hull or at construction;
        # a stack raises the first failure of drawing its bodies in turn.
        curv = Curvature(1.0)
        failures = set()
        for seed in range(12):
            expected = None
            for s in RandomStream(seed).split(6):
                try:
                    random_convex_body(curv, s, rho_limit=rho_limit)
                except GeometryError as e:
                    expected = str(e)
                    break
            streams = RandomStream(seed).split(6)
            if expected is None:
                random_convex_bodies(curv, streams, rho_limit=rho_limit)
                continue
            failures.add(expected)
            assert error_of(lambda: random_convex_bodies(
                curv, streams, rho_limit=rho_limit)) == expected
        assert failures

    def test_spacelike_edges(self):
        # Rows planted past the row check: a polygon with a spacelike edge
        # fails in a stack as alone, and a segment's edge_normals raises
        # when asked for.
        curv = Curvature(-1.0)
        good = [K.vertex_array for K in mixed_bodies(curv, RandomStream(43))]
        with pytest.raises(GeometryError,
                           match="^edge does not support a geodesic$"):
            _build_polygons(curv, good + [np.eye(3)])
        built = _build_polygons(curv, good + [np.eye(3)[:2]])
        with pytest.raises(GeometryError,
                           match="^edge does not support a geodesic$"):
            built[-1].edge_normals
        assert_same_bodies(built[:-1], [GeodesicPolygon(r, curv)
                                        for r in good])

    def test_messages_name_the_body_alone(self):
        # A padded stack reports indices within the failing body.
        curv = Curvature(0.0)
        square = regular_ngon(curv, 0.5, 4).vertex_array
        repeated = np.concatenate([square[:3], square[2:]])
        big = regular_ngon(curv, 0.5, 12).vertex_array
        message = error_of(lambda: polygon_stack([big, repeated], curv))
        assert re.fullmatch(r"repeated adjacent vertices 2, 3", message)
