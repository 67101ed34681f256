"""Curvature lists and small fixed bodies shared by the module test files."""

import numpy as np

from curvedkin.convex import convex_hull
from curvedkin.surface import Curvature, SurfacePoint

REGIME_KAPPAS = [1.0, 0.0, -1.0]
ALL_KAPPAS = [2.0, 1.0, 0.25, 0.0, -0.25, -1.0, -2.0]

# Draws that leave a generator anywhere in Philox's four-word buffer: 0-7
# doubles (each position twice), an integers call, which also leaves half
# a word pending, and a normal call.
STREAM_LEADS = ([lambda g, k=k: g.random(k) for k in range(8)]
                + [lambda g: g.integers(0, 10), lambda g: g.normal()])


def philox_state(generator):
    """A generator's whole Philox state, buffer included, as a tuple."""
    s = generator.bit_generator.state
    return (tuple(s["state"]["counter"]), tuple(s["state"]["key"]),
            tuple(s["buffer"]), s["buffer_pos"], s["has_uint32"],
            s["uinteger"])


def next_draws(generator):
    """A generator's next doubles, 32-bit integers and normals."""
    return (generator.random(5).tolist(), generator.integers(0, 10, 5).tolist(),
            generator.normal(size=3).tolist())


def flat_point(x, y):
    return SurfacePoint(np.array([x, y, 1.0]), Curvature(0.0))


def unit_square():
    return convex_hull([flat_point(x, y)
                        for x in (0.0, 1.0) for y in (0.0, 1.0)])


def octant_triangle():
    c = Curvature(1.0)
    return convex_hull([SurfacePoint(np.array(v, dtype=float), c) for v in
                        [(1, 0, 0), (0, 1, 0), (0, 0, 1)]])
