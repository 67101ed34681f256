"""60-digit references for the differential tests, with mpmath.

Points are float Cayley-Klein rows, z^2 + kappa (x^2 + y^2) = 1, projected
onto the quadric in high precision (see _point).  Distances come from acos
or acosh of the form product and areas from the angle excess (or the
shoelace on the flat plane), not from the library's formulas; centers
from the exact perpendicular bisectors and the active edges.  Cone
meetings (cones_meet) take their signs in exact integer arithmetic.
"""

import mpmath as mp
import numpy as np

_CTX = mp.MPContext()
_CTX.dps = 60


def _form(k, u, v):
    """G/kappa for kappa != 0, positive definite on tangent planes; G at 0."""
    xy = u[0] * v[0] + u[1] * v[1]
    return xy + u[2] * v[2] / k if k else u[2] * v[2]


def _point(k, p, vertical=None):
    """The float row p on the quadric, to 60 digits.

    Rounded rows sit off the quadric.  Cayley-Klein x and y determine z up
    to its sign, so by default a row keeps its x and y and z is solved for
    (vertical); only on the sphere's far side, where |z| < sqrt(k) |xy| and
    z is the better determined, is the row scaled along its ray instead.
    vertical=True or False forces one projection.
    """
    p = [_CTX.mpf(float(x)) for x in p]
    xy2 = p[0] ** 2 + p[1] ** 2
    if vertical is None:
        vertical = p[2] ** 2 >= abs(k) * xy2
    if vertical and 1 - k * xy2 > 0:
        return [p[0], p[1], _CTX.sqrt(1 - k * xy2) * (1 if p[2] > 0 else -1)]
    g = k * xy2 + p[2] ** 2
    return [x / _CTX.sqrt(g) for x in p]


def distance(kappa, p, q, vertical=None):
    """Distance of two float rows; see _point for their projection."""
    k = _CTX.mpf(kappa)
    p, q = _point(k, p, vertical), _point(k, q, vertical)
    if not k:
        return _CTX.sqrt((p[0] - q[0]) ** 2 + (p[1] - q[1]) ** 2)
    c = k * _form(k, p, q)  # gen_cos of the distance
    s = _CTX.sqrt(abs(k))
    if k > 0:
        return _CTX.acos(min(c, 1)) / s
    return _CTX.acosh(max(c, 1)) / s


def area(kappa, coords):
    """Area of the geodesic polygon with these counterclockwise vertices."""
    k = _CTX.mpf(kappa)
    v = [_point(k, p) for p in coords]
    n = len(v)
    if n < 3:
        return _CTX.mpf(0)
    if not k:
        return sum(v[i][0] * v[(i + 1) % n][1] - v[(i + 1) % n][0] * v[i][1]
                   for i in range(n)) / 2
    total = 0
    for i in range(n):
        a, b, c = v[i - 1], v[i], v[(i + 1) % n]
        bb = _form(k, b, b)
        u = [x - _form(k, a, b) / bb * y for x, y in zip(a, b)]
        w = [x - _form(k, c, b) / bb * y for x, y in zip(c, b)]
        total += _CTX.acos(_form(k, u, w)
                           / _CTX.sqrt(_form(k, u, u) * _form(k, w, w)))
    return (total - (n - 2) * _CTX.pi) / k


def perimeter(kappa, coords):
    n = len(coords)
    if n == 1:
        return _CTX.mpf(0)
    return sum(distance(kappa, coords[i], coords[(i + 1) % n])
               for i in range(n))


def unit_normal(kappa, p, q):
    """The Lambda-unit normal p x q / sqrt((p x q)^T Lambda (p x q))."""
    p = [_CTX.mpf(float(x)) for x in p]
    q = [_CTX.mpf(float(x)) for x in q]
    nu = [p[1] * q[2] - p[2] * q[1], p[2] * q[0] - p[0] * q[2],
          p[0] * q[1] - p[1] * q[0]]
    norm = _CTX.sqrt(nu[0] ** 2 + nu[1] ** 2 + kappa * nu[2] ** 2)
    return [x / norm for x in nu]


def circumcenter(kappa, support):
    """The center equidistant from one to three points, nearest them.

    Two points: the normalized sum.  Three: the line through the cross
    product of two bisector normals G (p - q), both surface points of it on
    the sphere, keeping the nearer one.
    """
    k = _CTX.mpf(kappa)
    pts = [_point(k, p) for p in support]
    if len(pts) == 1:
        return pts[0]
    if len(pts) == 2:
        return _exact_point(k, [a + b for a, b in zip(*pts)])

    def bis(p, q):
        # G (p - q) / kappa; on the plane, the perpendicular bisector.
        w = ((p[2] - q[2]) / k if k
             else -(p[0] ** 2 + p[1] ** 2 - q[0] ** 2 - q[1] ** 2) / 2)
        return [p[0] - q[0], p[1] - q[1], w]

    a, b = bis(pts[0], pts[1]), bis(pts[1], pts[2])
    c = [a[1] * b[2] - a[2] * b[1], a[2] * b[0] - a[0] * b[2],
         a[0] * b[1] - a[1] * b[0]]
    c = _exact_point(k, c)
    if k <= 0:
        return c if c[2] > 0 else [-x for x in c]
    # The nearer of the two antipodes: the larger form product.
    return c if _form(k, c, pts[0]) >= 0 else [-x for x in c]


def center_unit(kappa, support, center):
    """The rounding unit of a center built from 1 to 3 float points.

    An ulp of the points, scaled by the condition of the construction: the
    bisector normals come from differences, which lose |p| + |q| / |p - q|
    of their digits, their cross product |a| |b| / |a x b|, and the
    normalization onto the quadric the ratio of its terms' size to 1.
    """
    s = np.asarray(support, dtype=float)
    x, y, z = (float(v) for v in center)
    cond = z * z + abs(kappa) * (x * x + y * y)
    if len(s) == 3:
        d = [s[0] - s[1], s[1] - s[2]]
        norm = np.linalg.norm
        cond += max((norm(s[i]) + norm(s[i + 1])) / norm(d[i]) for i in (0, 1))
        cond += norm(d[0]) * norm(d[1]) / norm(np.cross(*d))
    return np.spacing(np.abs(s).max()) * (1.0 + cond)


def to_float(x):
    return np.array([float(v) for v in np.atleast_1d(x)], dtype=float)


def distance_ulp(kappa, p, q):
    """One rounding unit of a half-chord distance of rounded rows p and q.

    The distance is 2 gen_asin(c / 2) of a chord c whose two terms,
    |dxy|^2 and dz^2 / kappa, cancel on the hyperboloid; a unit of the
    larger term in c^2 moves the distance by this much.  On top comes how
    far apart the two projections of the rounded rows onto the quadric,
    along their rays or vertically, put the exact distance.
    """
    k = _CTX.mpf(kappa)
    a, b = _point(k, p), _point(k, q)
    e = (a[0] - b[0]) ** 2 + (a[1] - b[1]) ** 2
    c2 = e + (((a[2] - b[2]) ** 2 / k) if k else 0)
    big = max(e, abs(c2 - e), _CTX.mpf(2) ** -1074)
    eps = _CTX.mpf(2) ** -53

    def arc(c2):
        c = _CTX.sqrt(max(c2, 0))
        if not k:
            return c
        s = _CTX.sqrt(abs(k))
        x = s * c / 2
        return 2 * (_CTX.asin(min(x, 1)) if k > 0 else _CTX.asinh(x)) / s

    spread = abs(distance(kappa, p, q, vertical=False)
                 - distance(kappa, p, q, vertical=True))
    return abs(arc(c2 + eps * big) - arc(c2)) + spread


def no_worse(new, old, exact, units=None, ulps=2):
    """Over the inputs, max |new - exact| <= max(max |old - exact|, ulps),
    each error counted in units of its input's rounding unit.

    units defaults to the ulp of each |exact|; distance_ulp gives the unit
    of a distance, where rounded inputs and an ill-conditioned arcsine
    leave the last bits to chance.  Row by row, two formulas of equal
    accuracy trade places at that level; the worst case does not.  exact
    may hold mpf values; errors are measured in high precision.
    """
    new, old = np.atleast_1d(new), np.atleast_1d(old)
    exact = list(np.atleast_1d(np.asarray(exact, dtype=object)))
    if units is None:
        units = [np.spacing(abs(float(e))) for e in exact]
    assert len(new) == len(old) == len(exact) == len(units)
    worst_new = worst_old = 0.0
    for n, o, e, u in zip(new, old, exact, units):
        e = _CTX.mpf(e)
        u = max(float(u), float(np.spacing(abs(float(e)))))
        worst_new = max(worst_new, float(abs(_CTX.mpf(float(n)) - e)) / u)
        worst_old = max(worst_old, float(abs(_CTX.mpf(float(o)) - e)) / u)
    return worst_new <= max(worst_old, ulps)


def incenter(kappa, coords, active):
    """The point at equal distance from the active edges of the polygon.

    Three edges: the line through (n_i - n_j) x (n_j - n_k), with n the
    exact Lambda-unit edge normals.  Two: the peak of n_i . x on their
    bisector, Lambda (s - (s^T Lambda d / d^T Lambda d) d) for s and d the
    normals' sum and difference.  Returns the center and its common value
    n . x, gen_sin of the inradius.
    """
    k = _CTX.mpf(kappa)
    m = len(coords)
    normals = [unit_normal(k, coords[i], coords[(i + 1) % m]) for i in active]
    lam = [1, 1, k]
    if len(normals) >= 3:
        a = [x - y for x, y in zip(normals[0], normals[1])]
        b = [x - y for x, y in zip(normals[1], normals[2])]
        c = [a[1] * b[2] - a[2] * b[1], a[2] * b[0] - a[0] * b[2],
             a[0] * b[1] - a[1] * b[0]]
    else:
        s = [x + y for x, y in zip(*normals)]
        d = [x - y for x, y in zip(*normals)]
        mu = (sum(l * x * y for l, x, y in zip(lam, s, d))
              / sum(l * x * x for l, x in zip(lam, d)))
        c = [l * (x - mu * y) for l, x, y in zip(lam, s, d)]
    c = _exact_point(k, c)
    if sum(x * y for x, y in zip(normals[0], c)) < 0:
        c = [-x for x in c]
    return c, sum(x * y for x, y in zip(normals[0], c))


def _exact_point(k, p):
    g = k * (p[0] ** 2 + p[1] ** 2) + p[2] ** 2
    return [x / _CTX.sqrt(g) for x in p]


def _cross(u, v):
    return [u[1] * v[2] - u[2] * v[1], u[2] * v[0] - u[0] * v[2],
            u[0] * v[1] - u[1] * v[0]]


def _dot(u, v):
    return sum(x * y for x, y in zip(u, v))


def _edges(rows):
    n = len(rows)
    if n < 2:
        return []
    return [(rows[0], rows[1])] if n == 2 else [
        (rows[i], rows[(i + 1) % n]) for i in range(n)]


def _in_cone(polygon, v):
    """Is v on the inner side of every edge plane of a counterclockwise
    polygon of at least three vertices?"""
    return len(polygon) > 2 and all(_dot(_cross(p, q), v) >= 0
                                    for p, q in _edges(polygon))


def _wedges_meet(p, q, a, b):
    """Do the plane wedges spanned by p, q and by a, b share a ray?"""
    n1, n2 = _cross(p, q), _cross(a, b)
    d = _cross(n1, n2)
    if not any(d):
        return False
    for x in (d, [-c for c in d]):
        if (_dot(_cross(p, x), n1) >= 0 and _dot(_cross(x, q), n1) >= 0
                and _dot(_cross(a, x), n2) >= 0
                and _dot(_cross(x, b), n2) >= 0):
            return True
    return False


def _integers(rows):
    """The float rows times the least power of two that makes every entry
    an integer.  Floats are dyadic, so this is exact."""
    ratios = [[float(x).as_integer_ratio() for x in row] for row in rows]
    den = max(d for row in ratios for _, d in row)
    return [[n * (den // d) for n, d in row] for row in ratios]


def cones_meet(K, M, L):
    """Do the vertex cones of the float rows K and M L meet off the origin?

    M is a float motion matrix.  K, M and L are each scaled to integers by
    a power of two and M L is formed in integers, so every sign is exact
    and the verdict is the one for the float motion: each test below is
    homogeneous in K, M and L, so a positive scale changes no sign.  Two
    convex cones meet iff a vertex of one lies inside the other or two
    edges cross; each is an orientation sign.
    """
    K, M = _integers(K), _integers(M)
    L = [[_dot(m, row) for m in M] for row in _integers(L)]
    return (any(_in_cone(K, v) for v in L) or any(_in_cone(L, v) for v in K)
            or any(_wedges_meet(p, q, a, b)
                   for p, q in _edges(K) for a, b in _edges(L)))


def bonnesen_bounds(kappa, A, P, r, R):
    """The sharp Bonnesen term g^2 (t^2 + kappa P^2)^2 / (4 t^2), the sphere's
    S2 = g^2 t^2 / 4 and, for kappa < 0, H_MIN = min(4 pi^2 / -kappa, sharp),
    of float metrics, with t = 2 pi - kappa A and g = gen_sin R - gen_sin r.
    """
    k, A, P, r, R = (_CTX.mpf(float(x)) for x in (kappa, A, P, r, R))
    s = _CTX.sqrt(abs(k))

    def gen_sin(x):
        if not k:
            return x
        return (_CTX.sin(s * x) if k > 0 else _CTX.sinh(s * x)) / s

    g = gen_sin(R) - gen_sin(r)
    t = 2 * _CTX.pi - k * A
    sharp = g ** 2 * (t ** 2 + k * P ** 2) ** 2 / (4 * t ** 2)
    h_min = min(4 * _CTX.pi ** 2 / -k, sharp) if k < 0 else None
    return {"sharp": sharp, "S2": g ** 2 * t ** 2 / 4, "H_MIN": h_min}
