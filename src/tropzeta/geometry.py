"""Convex planar domains and the primitive-support-function calculus.

A domain is one of:
    - a rational polygon (exact Fraction arithmetic end to end),
    - a smooth domain: a minimal-model frame polygon plus arc charts,
    - a builtin: disk(R), domain_L, parabolic_triangle, d_alpha(alpha, n_max),
      rectangle(P, Q).

Normals are primitive integer vectors and always *inward*: the supporting
half-plane of direction u is {x : <u, x> >= h(u)} with h(u) = min_Omega <u, x>
the lower support function.  The tropical distance is
rho(x) = min over primitive u of (<u, x> - h(u)).

An arc chart describes one boundary arc in its unimodular corner frame: the
frame corner is the intersection of the supporting lines of the two corner
normals u1, u2 (det(u1, u2) = 1), chart direction (a, b) means the ambient
direction a*u1 + b*u2, and the chart support gamma(a, b) is the ambient
support minus <a*u1 + b*u2, corner>, so gamma(1, 0) = gamma(0, 1) = 0.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Callable, Optional, Sequence

import numpy as np

from . import models
from .lattice import is_primitive

Vec = tuple[int, int]
Num = object  # Fraction or float, duck-typed


# ---------------------------------------------------------------------------
# small exact-vector helpers


def det2(u: Sequence, v: Sequence):
    return u[0] * v[1] - u[1] * v[0]


def dot2(u: Sequence, v: Sequence):
    return u[0] * v[0] + u[1] * v[1]


def sub2(p: Sequence, q: Sequence):
    return (p[0] - q[0], p[1] - q[1])


def meet(u: Sequence, a, v: Sequence, b):
    """The point x with <u, x> = a and <v, x> = b (u, v not parallel)."""
    d = det2(u, v)
    return ((a * v[1] - b * u[1]) / d, (b * u[0] - a * v[0]) / d)


def _rational_numerators(vertices: Sequence):
    """(points, L): rational vertices as int pairs over their common
    denominator L; None when some coordinate is not an int or a Fraction."""
    if not all(isinstance(c, (Fraction, int)) for v in vertices for c in v):
        return None
    den = math.lcm(*{c.denominator for v in vertices for c in v})
    return [(x.numerator * (den // x.denominator), y.numerator * (den // y.denominator))
            for x, y in vertices], den


def _shoelace(vertices: Sequence):
    """Sum of x1 y2 - x2 y1 over the edges of a closed vertex loop."""
    tot = 0
    n = len(vertices)
    for i in range(n):
        x1, y1 = vertices[i]
        x2, y2 = vertices[(i + 1) % n]
        tot += x1 * y2 - x2 * y1
    return tot


def twice_area(vertices: Sequence) -> Num:
    """Twice the signed area of a closed vertex loop (shoelace formula): an
    int on int vertices, a Fraction on other rational vertices (summed on
    their numerators over the common denominator), a float otherwise."""
    ints = _rational_numerators(vertices)
    if ints is None or all(isinstance(c, int) for v in vertices for c in v):
        return _shoelace(vertices)
    pts, den = ints
    return Fraction(_shoelace(pts), den * den)


def _exact_ratio(a, b: int) -> Num:
    """a / b, a Fraction when a is rational."""
    return Fraction(a, b) if isinstance(a, (Fraction, int)) else a / b


def loop_area(vertices: Sequence) -> Num:
    """Area of a counterclockwise vertex loop: a Fraction on rational
    vertices, a float otherwise."""
    return _exact_ratio(twice_area(vertices), 2)


def loop_lattice_perimeter(vertices: Sequence, normals: Sequence[Vec]) -> Num:
    """Lattice perimeter of a counterclockwise vertex loop whose edge i runs
    from vertices[i] to vertices[i + 1] with inward primitive normal
    normals[i]: each edge vector's projection <d, e> / <e, e> on its
    direction e = (n1, -n0), summed in edge order.

    On rational vertices over the common denominator L, L <d, e> is a
    multiple of <e, e> (d is parallel to the primitive e), so the sum runs
    on ints and one Fraction is built; ValueError when an edge is not normal
    to its primitive normal.  A float on float vertices."""
    n = len(vertices)
    ints = _rational_numerators(vertices)
    if ints is None:
        tot = 0
        for i, (n0, n1) in enumerate(normals):
            d = sub2(vertices[(i + 1) % n], vertices[i])
            tot += _exact_ratio(d[0] * n1 - d[1] * n0, n0 * n0 + n1 * n1)
        return tot
    if not normals:
        return 0
    pts, den = ints
    tot = 0
    for i, (n0, n1) in enumerate(normals):
        (x1, y1), (x2, y2) = pts[i], pts[(i + 1) % n]
        q, r = divmod((x2 - x1) * n1 - (y2 - y1) * n0, n0 * n0 + n1 * n1)
        if r:
            raise ValueError(f"edge {i} is not normal to the primitive normal {(n0, n1)}")
        tot += q
    return Fraction(tot, den)


def primitive_of(dx, dy) -> Vec:
    """Primitive integer vector parallel to the rational vector (dx, dy)."""
    fx, fy = Fraction(dx), Fraction(dy)
    if fx == 0 and fy == 0:
        raise ValueError("zero vector has no direction")
    den = math.lcm(fx.denominator, fy.denominator)
    ix, iy = int(fx * den), int(fy * den)
    g = math.gcd(abs(ix), abs(iy))
    return (ix // g, iy // g)


_MAX_DIRECTION_DEN = 10**9  # largest denominator tried for a float slope


def rationalize_direction(dx: float, dy: float) -> Vec:
    """Primitive integer direction of a float vector; raises on irrational slope."""
    if dx == 0 and dy == 0:
        raise ValueError("zero vector has no direction")
    if dx == 0:
        return (0, 1 if dy > 0 else -1)
    if dy == 0:
        return (1 if dx > 0 else -1, 0)
    ratio = Fraction(dy / dx).limit_denominator(_MAX_DIRECTION_DEN)
    cand = (ratio.denominator, ratio.numerator)
    if dx < 0:
        cand = (-cand[0], -cand[1])
    norm = math.hypot(dx, dy)
    err = abs(dx * cand[1] - dy * cand[0]) / (norm * math.hypot(*cand))
    if err > 1e-9:
        raise ValueError(f"direction ({dx}, {dy}) is not rational")
    return cand


def edge_direction(d: Sequence) -> Vec:
    """The primitive integer vector parallel to the nonzero vector d: exact on
    rational entries, rationalized (raising on an irrational slope) on
    floats."""
    if all(isinstance(c, (Fraction, int)) for c in d):
        return primitive_of(*d)
    return rationalize_direction(float(d[0]), float(d[1]))


def _angle_class(u: Vec) -> int:
    x, y = u
    if x > 0 and y >= 0:
        return 0
    if x <= 0 and y > 0:
        return 1
    if x < 0 and y <= 0:
        return 2
    return 3


def angular_compare(u: Vec, v: Vec) -> int:
    """Exact counterclockwise comparison of nonzero integer directions,
    starting from the positive x-axis."""
    cu, cv = _angle_class(u), _angle_class(v)
    if cu != cv:
        return -1 if cu < cv else 1
    d = det2(u, v)
    if d > 0:
        return -1
    if d < 0:
        return 1
    return 0


def sort_directions(dirs):
    return sorted(dirs, key=functools.cmp_to_key(angular_compare))


# ---------------------------------------------------------------------------
# corner sails and A_n recognition


def sail(u: Vec, v: Vec) -> list[Vec]:
    """The Hilbert basis of cone(u, v) in order: u = w_0, ..., w_k = v with
    det(w_i, w_{i+1}) = 1.  Requires det(u, v) >= 1."""
    q = det2(u, v)
    if q < 1:
        raise ValueError("cone must be positively oriented")
    out = [u]
    while q > 1:
        # w0 with det(u, w0) = 1 via extended Euclid, then slide along u so
        # that det(w, v) lands in [1, q-1]; w is the next basis element
        ux, uy = u
        g, x0, y0 = _ext_gcd(ux, uy)
        assert g == 1
        w0 = (-y0, x0)  # det(u, w0) = ux*x0 + uy*y0 = 1
        r = det2(w0, v)
        t = (r - 1) // q  # det(w0 - t*u, v) = r - t*q in [1, q]
        w = (w0[0] - t * ux, w0[1] - t * uy)
        assert det2(u, w) == 1 and 1 <= det2(w, v) < q
        out.append(w)
        u, q = w, det2(w, v)
    return out + [v]


def _ext_gcd(a: int, b: int) -> tuple[int, int, int]:
    old_r, r = a, b
    old_s, s = 1, 0
    old_t, t = 0, 1
    while r:
        qt = old_r // r
        old_r, r = r, old_r - qt * r
        old_s, s = s, old_s - qt * s
        old_t, t = t, old_t - qt * t
    if old_r < 0:
        old_r, old_s, old_t = -old_r, -old_s, -old_t
    return old_r, old_s, old_t


def corner_singularity(u: Vec, v: Vec) -> Optional[int]:
    """For adjacent inward normals u, v (det > 0): n if the corner is of
    A_n type (n = det - 1; n = 0 is a smooth corner), None otherwise.

    The corner is A_{q-1} exactly when the inset vertex moves with a lattice
    velocity, i.e. when q divides v - u componentwise.
    """
    q = det2(u, v)
    if q < 1:
        raise ValueError("normals must be positively oriented")
    if (v[0] - u[0]) % q == 0 and (v[1] - u[1]) % q == 0:
        return q - 1
    return None


def require_a_n_corners(poly: "Polygon") -> None:
    """Raise ValueError unless every corner of the polygon is of A_n type
    (corner_singularity is not None): K^2, Res_0 and the caustic are defined
    only then."""
    for _vtx, u, v in poly.corners():
        if corner_singularity(u, v) is None:
            raise ValueError(f"corner with normals {u}, {v} is not of A_n type")


# ---------------------------------------------------------------------------
# polygons


def _is_rational_pair(x) -> bool:
    return isinstance(x[0], (int, Fraction)) and isinstance(x[1], (int, Fraction))


def _numerators(x) -> tuple[int, int, int]:
    """(p0 q1, p1 q0, q0 q1) for the rational point x = (p0/q0, p1/q1)."""
    x0, x1 = x[0], x[1]
    return (x0.numerator * x1.denominator, x1.numerator * x0.denominator,
            x0.denominator * x1.denominator)


@dataclass(frozen=True)
class _IntegerRows:
    """Rational rows (a, b, c), read as the linear forms a x0 + b x1 - c,
    kept as Python ints over one common denominator: the fraction-free idea
    of Bareiss (Math. Comp. 22, 1968).  A min of the forms at a rational
    point then runs on ints and builds one Fraction at the end."""

    rows: tuple  # (a, b, c) * den, ints
    den: int
    int_rows: tuple  # per row: were a, b and c all ints

    @classmethod
    def of(cls, rows) -> "_IntegerRows":
        den = math.lcm(*(c.denominator for row in rows for c in row))
        return cls(tuple(tuple(c.numerator * (den // c.denominator) for c in row) for row in rows),
                   den, tuple(all(isinstance(c, int) for c in row) for row in rows))

    def min_at(self, x):
        """min over the rows of a x0 + b x1 - c at the rational point x, with
        the value and the type the plain min over the rational rows gives:
        an int when x is an integer point and the first minimal row is all
        ints, a Fraction otherwise."""
        x0, x1 = x[0], x[1]
        if isinstance(x0, int) and isinstance(x1, int):
            vals = [a * x0 + b * x1 - c for a, b, c in self.rows]
            best = min(vals)
            return best // self.den if self.int_rows[vals.index(best)] else Fraction(best, self.den)
        # D q0 q1 (a p0/q0 + b p1/q1 - c) = aD p0 q1 + bD p1 q0 - cD q0 q1
        s0, s1, q = _numerators(x)
        return Fraction(min([a * s0 + b * s1 - c * q for a, b, c in self.rows]), self.den * q)

    def nonnegative_at(self, x, n: int) -> bool:
        """Whether each of the first n forms is >= 0 at the rational point x."""
        s0, s1, q = _numerators(x)
        return all(a * s0 + b * s1 - c * q >= 0 for a, b, c in self.rows[:n])


@dataclass(frozen=True)
class Polygon:
    """Convex polygon, counterclockwise strictly convex vertex list.

    Vertices are Fractions (or ints) for exact polygons; floats are allowed
    (used by the staircase domains and wave fronts) as long as every edge
    direction is rational.  The half-planes are derived once, at
    construction.  An exact polygon also keeps them, and its vertices, as
    integer numerators over common denominators: rho, support and
    contains (tol 0) at a rational point or direction run on those ints and
    return the same ints and Fractions as the Fraction formulas.
    """

    vertices: list[tuple[Num, Num]]
    # (inward primitive normal, offset) per edge in CCW order, then the
    # interior sail directions of every non-unimodular corner
    _directions: tuple = field(init=False, compare=False, repr=False)
    # exact polygons: (_directions as rows (u0, u1, h), vertices as rows
    # (x, y, 0)) over common denominators; None on a float polygon
    _int_form: Optional[tuple[_IntegerRows, _IntegerRows]] = field(
        init=False, compare=False, repr=False)

    def __post_init__(self):
        vs = [tuple(v) for v in self.vertices]
        if len(vs) < 3:
            raise ValueError("polygon needs at least 3 vertices")
        area2 = twice_area(vs)
        n = len(vs)
        if area2 < 0:
            vs = vs[::-1]
            area2 = -area2
        if area2 == 0:
            raise ValueError("polygon has empty interior")
        for i in range(n):
            o, a, b = vs[i], vs[(i + 1) % n], vs[(i + 2) % n]
            if det2(sub2(a, o), sub2(b, a)) <= 0:
                raise ValueError("vertices must be strictly convex (no collinear triples)")
        object.__setattr__(self, "vertices", vs)
        normals = []
        for i in range(n):
            e = edge_direction(sub2(vs[(i + 1) % n], vs[i]))
            normals.append((-e[1], e[0]))
        directions = [(nrm, dot2(nrm, p)) for nrm, p in zip(normals, vs)]
        for i, vtx in enumerate(vs):
            u, v = normals[i - 1], normals[i]
            if det2(u, v) > 1:
                directions.extend((w, dot2(w, vtx)) for w in sail(u, v)[1:-1])
        object.__setattr__(self, "_directions", tuple(directions))
        exact = all(_is_rational_pair(v) for v in vs)
        object.__setattr__(self, "_int_form", (
            _IntegerRows.of([(u[0], u[1], h) for u, h in directions]),
            _IntegerRows.of([(v[0], v[1], 0) for v in vs]),
        ) if exact else None)

    @property
    def is_exact(self) -> bool:
        return self._int_form is not None

    def halfplanes(self) -> list[tuple[Vec, Num]]:
        """(inward primitive normal, offset) per edge, in CCW order: the
        polygon is the set {x : <normal, x> >= offset} over its edges."""
        return list(self._directions[:len(self.vertices)])

    def edge_normals(self) -> list[Vec]:
        """Inward primitive normals, one per edge, in CCW order."""
        return [nrm for nrm, _ in self._directions[:len(self.vertices)]]

    def support(self, u: Vec):
        """Lower support value h(u) = min over vertices of <u, x>."""
        if self._int_form is not None and _is_rational_pair(u):
            return self._int_form[1].min_at(u)
        return min(dot2(u, v) for v in self.vertices)

    def area(self):
        return loop_area(self.vertices)

    def lattice_perimeter(self):
        return loop_lattice_perimeter(self.vertices, self.edge_normals())

    def contains(self, x, tol=0) -> bool:
        if self._int_form is not None and tol == 0 and _is_rational_pair(x):
            return self._int_form[0].nonnegative_at(x, len(self.vertices))
        return all(dot2(nrm, x) - h >= -tol for nrm, h in self.halfplanes())

    def corners(self) -> list[tuple[tuple, Vec, Vec]]:
        """(vertex, incoming edge normal, outgoing edge normal) per corner."""
        ns = self.edge_normals()
        n = len(self.vertices)
        return [(self.vertices[i], ns[i - 1], ns[i]) for i in range(n)]

    def active_directions(self) -> list[tuple[Vec, Num]]:
        """Directions sufficient for the exact tropical distance: edge normals
        with their offsets, plus the sail of every non-unimodular corner
        (whose support is attained at the corner vertex)."""
        return list(self._directions)

    def rho(self, x):
        """Exact tropical distance min_u (<u, x> - h(u)); raises outside."""
        if self._int_form is not None and _is_rational_pair(x):
            val = self._int_form[0].min_at(x)
        else:
            val = min(dot2(u, x) - h for u, h in self._directions)
        if val < 0:
            raise ValueError("exterior point")
        return val

    def unimodular_image(self, m: Sequence[Sequence[int]]):
        """Apply an SL(2,Z) matrix [[a,b],[c,d]] to every vertex."""
        (a, b), (c, d) = m
        if a * d - b * c != 1:
            raise ValueError("matrix must have determinant 1")
        return Polygon([(a * v[0] + b * v[1], c * v[0] + d * v[1]) for v in self.vertices])

    def scale(self, r):
        return Polygon([(v[0] * r, v[1] * r) for v in self.vertices])


def lattice_length(p, q):
    """Lattice length of the segment [p, q]: Euclidean length divided by the
    length of the parallel primitive integer vector."""
    d = sub2(q, p)
    e = edge_direction(d)
    i = 0 if e[0] != 0 else 1
    return abs(_exact_ratio(d[i], e[i]))


_DROP_TOL = 1e-12  # relative length below which a float edge is dropped


def halfplane_intersection(constraints: list[tuple[Vec, Num]], inset=0):
    """Vertices of the bounded region {<u_i, x> >= h_i + inset} when every
    constraint is a *support* constraint (touches the region).  Constraints
    may arrive in any order; they are sorted CCW by normal angle.  Zero-length
    edges (equal consecutive intersection points) are dropped: exactly for
    rational offsets, within _DROP_TOL (relative) for floats.

    Where every h_i + inset is rational (a numpy integer inset keeps a
    Fraction h_i so, not an int one), they go over one common denominator D
    as ints H_i, and consecutive lines meet at (H_i v1 - H_j u1, H_j u0 -
    H_i v0) / (D det): the meets and the zero-length test run on ints, and
    each kept vertex coordinate is one Fraction.  Otherwise the float
    formulas meet the lines h_i + inset.

    Returns (vertices, kept_normals); degenerate regions (point or segment)
    return fewer than 3 vertices.
    """
    cs = sorted(constraints, key=functools.cmp_to_key(lambda a, b: angular_compare(a[0], b[0])))
    n = len(cs)
    if n < 3:
        raise ValueError("need at least 3 half-planes")
    pairs = list(zip(cs, cs[1:] + cs[:1]))
    if any(det2(u, v) == 0 for (u, _), (v, _) in pairs):
        raise ValueError("adjacent parallel support lines: empty or unbounded region")
    # vertex i joins edge i and edge i+1; edge i runs vertex i-1 -> vertex i
    verts, normals = [], []
    rational = ((Fraction, int) if isinstance(inset, (Fraction, int))
                else (Fraction,) if isinstance(inset, np.integer) else ())
    if all(isinstance(h, rational) for _, h in cs):
        den = math.lcm(inset.denominator, *{h.denominator for _, h in cs})
        shift = int(inset.numerator) * (den // inset.denominator)
        hs = [h.numerator * (den // h.denominator) + shift for _, h in cs]
        raw = []  # (X, Y, det): the meet is (X, Y) / (den det)
        for (((u0, u1), _), ((v0, v1), _)), hi, hj in zip(pairs, hs, hs[1:] + hs[:1]):
            raw.append((hi * v1 - hj * u1, hj * u0 - hi * v0, u0 * v1 - u1 * v0))
        px, py, pd = raw[-1]
        for (x, y, d), (u, _) in zip(raw, cs):
            if x * pd != px * d or y * pd != py * d:
                verts.append((Fraction(x, den * d), Fraction(y, den * d)))
                normals.append(u)
            px, py, pd = x, y, d
        return verts, normals
    raw = [meet(u, h + inset, v, k + inset) for (u, h), (v, k) in pairs]
    for i in range(n):
        prev = raw[(i - 1) % n]
        cur = raw[i]
        scale = 1 + abs(float(cur[0])) + abs(float(cur[1]))
        degenerate = (
            abs(float(cur[0]) - float(prev[0])) <= _DROP_TOL * scale
            and abs(float(cur[1]) - float(prev[1])) <= _DROP_TOL * scale
        )
        if not degenerate:
            verts.append(cur)
            normals.append(cs[i][0])
    return verts, normals


def clip_polygon(vertices: list[tuple], normal: Vec, offset) -> list[tuple]:
    """Sutherland-Hodgman clip of a convex polygon by {<normal, x> >= offset}."""
    out = []
    n = len(vertices)
    for i in range(n):
        cur, nxt = vertices[i], vertices[(i + 1) % n]
        s_cur = dot2(normal, cur) - offset
        s_nxt = dot2(normal, nxt) - offset
        if s_cur >= 0:
            out.append(cur)
        if (s_cur > 0 > s_nxt) or (s_cur < 0 < s_nxt):
            t = s_cur / (s_cur - s_nxt)
            out.append((cur[0] + t * (nxt[0] - cur[0]), cur[1] + t * (nxt[1] - cur[1])))
    # remove consecutive duplicates
    dedup = []
    for v in out:
        if not dedup or v != dedup[-1]:
            dedup.append(v)
    if len(dedup) > 1 and dedup[0] == dedup[-1]:
        dedup.pop()
    return dedup


# ---------------------------------------------------------------------------
# arc charts


_HALVINGS = 54  # tangency bisection steps: x_max 2^-54 is an ulp of x_max / 4


def tangency_points(a, b, dg, d2g, x_max):
    """(x, at_end): x the argmin over [0, x_max] of a*x + b*g(x) (g' = dg,
    g'' = d2g), elementwise on ints or arrays a, b >= 0: g'(x) = -a/b by
    _HALVINGS halvings of [0, x_max] on the increasing g' (all brackets share
    one width), then one Newton step kept in the last bracket.  at_end marks
    x = 0 (b = 0 or g'(0) >= -a/b) and x = x_max (a = 0 or g'(x_max) <= -a/b)."""
    a, b = np.asarray(a, dtype=np.float64), np.asarray(b, dtype=np.float64)
    if (a < 0).any() or (b < 0).any() or ((a == 0) & (b == 0)).any():
        raise ValueError("direction must be nonnegative and nonzero")
    x_max = float(x_max)
    with np.errstate(divide="ignore", invalid="ignore"):
        target = -a / b
        lo, step = np.zeros(target.shape), x_max
        for _ in range(_HALVINGS):
            step *= 0.5
            lo += step * (dg(lo + step) < target)
        x = lo + 0.5 * step
        x = np.clip(x - (dg(x) - target) / d2g(x), lo, lo + step)
        at_max = (b != 0) & ((a == 0) | (dg(np.float64(x_max)) <= target))
        at_0 = ~at_max & ((b == 0) | (dg(np.float64(0.0)) >= target))
    return np.where(at_max, x_max, np.where(at_0, 0.0, x))[()], (at_0 | at_max)[()]


def graph_oracles(g, dg, d2g, x_max) -> dict:
    """The oracles of the graph g on [0, x_max] at its tangency points: the
    support a x + b g(x), the defect as support differences, and the area
    p q / 2 with p = u.(P_v - P_u), q = v.(P_u - P_v) for P_u, P_v those of
    u = (a, b), v = (c, d)."""

    def support(a, b):
        x = tangency_points(a, b, dg, d2g, x_max)[0]
        return np.where(np.equal(a, 0), 0.0, a * x + b * g(x))[()]

    def defect_float(a, b, c, d):
        return support(a + c, b + d) - support(a, b) - support(c, d)

    def triangle_area(a, b, c, d):
        xu, xv = tangency_points(np.stack((a, c)), np.stack((b, d)), dg, d2g, x_max)[0]
        dx, dy = xv - xu, g(xv) - g(xu)
        return (a * dx + b * dy) * (c * dx + d * dy) / -2

    return dict(support=support, support_float=support, triangle_area=triangle_area,
                defect_float=defect_float)


@dataclass
class ArcChart:
    """One boundary arc in its unimodular corner frame.

    support(a, b) returns gamma_{a,b} = min over the arc of a*x + b*g(x) in
    chart coordinates; gamma(1,0) = gamma(0,1) = 0.  The graph data g, g',
    g'' on [0, x_max] take floats or float64 arrays.  A chart with all three
    gets each oracle it lacks from graph_oracles, on the one tangency solve
    tangency_points: support, support_float and triangle_area at the
    tangency points, and defect_float (without defect_den) as support
    differences.  A chart without graph data needs a support oracle.

    The charts of L ((p, q) = (1, 1)) and of the parabolic triangle ((2, 1),
    (1, 2)) are parabola arcs with support a b / (p q S), S = p a + q b, and
    every oracle and the graph from models.parabola_form(p, q).
    """

    corner: tuple  # ambient frame corner (intersection of the two support lines)
    u1: Vec  # first inward normal (chart direction (1, 0))
    u2: Vec  # second inward normal (chart direction (0, 1)); det(u1, u2) = 1
    support: Callable[[int, int], Num] = None
    g: Optional[Callable] = None
    dg: Optional[Callable] = None
    d2g: Optional[Callable] = None
    x_max: Optional[float] = None  # g lives on [0, x_max]
    exact: bool = False
    name: str = ""
    # Batched oracles.  Each takes ints or int64 arrays of chart coordinates
    # and works elementwise; charts of one domain share them where they can,
    # so one call serves every chart in each batch of the descent.
    # The support defect of (a,b,c,d) is exactly 1 / defect_den(a, b, c, d),
    # den = x y (x + y) for lattice-linear forms x, y of u = (a, b), v = (c, d)
    defect_den: Optional[Callable[[int, int, int, int], int]] = None
    defect_float: Optional[Callable[[int, int, int, int], float]] = None  # the defect
    support_float: Optional[Callable[[int, int], float]] = None  # gamma(a, b)
    # the area p q / 2 of the support triangle of the wedge (a, b, c, d), p, q
    # the slacks of its tangency points (equiaffine.length_via_triangles)
    triangle_area: Optional[Callable[[int, int, int, int], float]] = None

    def __post_init__(self):
        if det2(self.u1, self.u2) != 1:
            raise ValueError("chart corner normals must form a positive lattice basis")
        if self.g is not None and self.dg is not None and self.d2g is not None:
            for name, oracle in graph_oracles(self.g, self.dg, self.d2g, self.x_max).items():
                if getattr(self, name) is None and (name != "defect_float" or not self.defect_den):
                    setattr(self, name, oracle)
        elif self.support is None:
            raise ValueError("chart needs a support oracle or graph data")

    def line(self, a: int, b: int) -> tuple[Vec, Num]:
        """(w, h): the supporting line {<w, x> = h} of chart direction (a, b)
        in ambient coordinates, w = a*u1 + b*u2 the inward normal."""
        w = (a * self.u1[0] + b * self.u2[0], a * self.u1[1] + b * self.u2[1])
        return w, self.support(a, b) + dot2(w, self.corner)

    def defect(self, quad) -> Num:
        """Support defect gamma(a+c, b+d) - gamma(a, b) - gamma(c, d) >= 0."""
        a, b, c, d = quad
        return self.support(a + c, b + d) - self.support(a, b) - self.support(c, d)

    def tangency_x(self, a, b):
        """The argmin over [0, x_max] of a*x + b*g(x) (tangency_points)."""
        return tangency_points(a, b, self.dg, self.d2g, self.x_max)[0]


# ---------------------------------------------------------------------------
# builtin charts


def _parabola_chart(corner, u1, u2, name, p, q):
    """The parabola-arc chart of form S = p a + q b at the given frame, with
    the oracles and graph of models.parabola_form(p, q)."""
    return ArcChart(corner=corner, u1=u1, u2=u2, name=name, **models.parabola_form(p, q))


def _disk_charts(radius: float) -> list[ArcChart]:
    """The four corner arcs of the disk of the given radius about 0."""
    r = float(radius)

    def supp(a, b):
        return r * (a + b - math.hypot(a, b))

    def supp_float(a, b):
        return r * (a + b - np.hypot(a, b))

    def defect(a, b, c, d):
        # r (|u| + |v| - |u+v|) rationalized twice; det(u, v) = 1 turns
        # |u|^2 |v|^2 - (u.v)^2 into 1
        nu, nv = np.hypot(a, b), np.hypot(c, d)
        return 2 * r / ((nu + nv + np.hypot(a + c, b + d)) * (nu * nv + (a * c + b * d)))

    def triangle_area(a, b, c, d):
        # tangency points center - r u/|u|: the slacks r (|u||v| - u.v)/|v|
        # and r (|u||v| - u.v)/|u|, rationalized the same way
        nn = np.hypot(a, b) * np.hypot(c, d)
        w = nn + (a * c + b * d)
        return r * r / (2 * nn * w * w)

    def g(x):
        return r - np.sqrt(np.maximum(r * r - (x - r) ** 2, 0.0))

    def dg(x):
        return (x - r) / np.sqrt(np.maximum(r * r - (x - r) ** 2, 1e-300))

    def d2g(x):
        return r * r / np.maximum(r * r - (x - r) ** 2, 1e-300) ** 1.5

    frames = [((-r, -r), (1, 0), (0, 1), "SW"), ((r, -r), (0, 1), (-1, 0), "SE"),
              ((r, r), (-1, 0), (0, -1), "NE"), ((-r, r), (0, -1), (1, 0), "NW")]
    return [ArcChart(corner=corner, u1=u1, u2=u2, support=supp,
                     g=g, dg=dg, d2g=d2g, x_max=r, exact=False, name=name,
                     defect_float=defect, support_float=supp_float,
                     triangle_area=triangle_area)
            for corner, u1, u2, name in frames]


def _d_alpha_chart(alpha: float, n_max: int):
    offsets = models.d_alpha_offsets(alpha, n_max)
    sizes = models.d_alpha_cut_sizes(alpha, n_max)
    half = 2 * models.riemann_zeta(1.0 / alpha).real
    # chain vertices in the corner frame, k = 0..n_max
    xs = np.empty(n_max + 1)
    ys = np.empty(n_max + 1)
    xs[0], ys[0] = 0.0, offsets[0]
    ks = np.arange(1, n_max)
    xs[1:n_max] = offsets[:-1][ks - 1] - ks * sizes[ks]
    ys[1:n_max] = sizes[ks]
    xs[n_max], ys[n_max] = offsets[-1], 0.0

    def supp(a, b):
        if a == 0 and b == 0:
            raise ValueError("zero direction")
        if a == 0 or b == 0:
            return 0.0
        k = min(b // a, n_max)
        return a * xs[k] + b * ys[k]

    # A normal (1, k) lies strictly inside a unimodular cone(u, v) only if
    # u = (1, b), v = (0, 1) (a p + c q = 1, p, q >= 1, det = 1): the chain
    # corner (1, b, 0, 1) cuts at sizes[b] while b < n_max, the rest at 0.
    cut_at = np.append(sizes, 0.0)

    def defect(a, b, c, d):
        chain = (a == 1) & (c == 0) & (d == 1)
        return np.where(chain, cut_at[np.minimum(b, n_max)], 0.0)[()]

    corner = (-half, -half)
    return ArcChart(corner=corner, u1=(1, 0), u2=(0, 1), support=supp,
                    exact=False, name=f"staircase(alpha={alpha})", defect_float=defect)


# ---------------------------------------------------------------------------
# domains


_EXTERIOR_TOL = 1e-12  # on float domains, slack below -_EXTERIOR_TOL means outside


@dataclass
class ConvexDomain:
    """A compact convex planar domain with its support calculus."""

    kind: str  # "polygon" | "smooth" | "builtin"
    polygon: Optional[Polygon] = None  # the domain itself, for kind == polygon
    hat_polygon: Optional[Polygon] = None  # declared minimal model, smooth/builtin
    charts: list[ArcChart] = field(default_factory=list)
    tag: str = ""
    params: dict = field(default_factory=dict)
    # memos: the minimal model, and the deepest cut tree built so far
    _mm_cache: object = field(default=None, init=False, compare=False, repr=False)
    _cut_tree: object = field(default=None, init=False, compare=False, repr=False)

    # -- constructors -------------------------------------------------------

    @staticmethod
    def from_polygon(vertices) -> "ConvexDomain":
        return ConvexDomain(kind="polygon", polygon=Polygon(list(vertices)))

    @staticmethod
    def rectangle(p, q) -> "ConvexDomain":
        p, q = Fraction(p), Fraction(q)
        if p <= 0 or q <= 0:
            raise ValueError("rectangle sides must be positive")
        dom = ConvexDomain.from_polygon([(0, 0), (p, 0), (p, q), (0, q)])
        dom.tag = "rectangle"
        dom.params = {"P": p, "Q": q}
        return dom

    @staticmethod
    def disk(radius: float = 1.0) -> "ConvexDomain":
        r = float(radius)
        if r <= 0:
            raise ValueError("radius must be positive")
        hat = Polygon([(-r, -r), (r, -r), (r, r), (-r, r)])
        return ConvexDomain(kind="builtin", hat_polygon=hat, charts=_disk_charts(r),
                            tag="disk", params={"radius": r})

    @staticmethod
    def domain_L() -> "ConvexDomain":
        one = Fraction(1)
        hat = Polygon([(-one, -one), (one, -one), (one, one), (-one, one)])
        charts = [
            _parabola_chart((-one, -one), (1, 0), (0, 1), "SW", 1, 1),
            _parabola_chart((one, -one), (0, 1), (-1, 0), "SE", 1, 1),
            _parabola_chart((one, one), (-1, 0), (0, -1), "NE", 1, 1),
            _parabola_chart((-one, one), (0, -1), (1, 0), "NW", 1, 1),
        ]
        return ConvexDomain(kind="builtin", hat_polygon=hat, charts=charts, tag="domain_L")

    @staticmethod
    def parabolic_triangle() -> "ConvexDomain":
        hat = Polygon([(Fraction(1, 2), 0), (1, 0), (0, 1), (0, Fraction(1, 2))])
        # the lower arc at (1/2, 0) and its x <-> y mirror at (0, 1/2)
        charts = [
            _parabola_chart((Fraction(1, 2), Fraction(0)), (1, 1), (0, 1), "lower", 2, 1),
            _parabola_chart((Fraction(0), Fraction(1, 2)), (1, 0), (1, 1), "upper", 1, 2),
        ]
        return ConvexDomain(kind="builtin", hat_polygon=hat, charts=charts,
                            tag="parabolic_triangle")

    @staticmethod
    def d_alpha(alpha: float, n_max: int) -> "ConvexDomain":
        chart = _d_alpha_chart(alpha, n_max)
        half = -chart.corner[0]
        hat = Polygon([(-half, -half), (half, -half), (half, half), (-half, half)])
        return ConvexDomain(kind="builtin", hat_polygon=hat, charts=[chart],
                            tag="d_alpha", params={"alpha": float(alpha), "n_max": int(n_max)})

    @staticmethod
    def smooth(hat_vertices, charts: list[ArcChart]) -> "ConvexDomain":
        if not 3 <= len(charts) <= 6:
            raise ValueError("a smooth domain has 3 to 6 boundary arcs")
        return ConvexDomain(kind="smooth", hat_polygon=Polygon(list(hat_vertices)),
                            charts=charts)

    # -- basic queries -------------------------------------------------------

    @property
    def is_polygon(self) -> bool:
        return self.kind == "polygon"

    def support(self, u: Vec):
        """Lower support value h(u), exact for polygons."""
        if not is_primitive(*u):
            raise ValueError("direction must be a primitive integer vector")
        if self.is_polygon:
            return self.polygon.support(u)
        best = None
        for chart in self.charts:
            a, b = det2(u, chart.u2), det2(chart.u1, u)  # u = a u1 + b u2
            if a >= 0 and b >= 0:
                val = chart.line(a, b)[1]
                best = val if best is None else min(best, val)
        if best is not None:
            return best
        return self.hat_polygon.support(u)

    def area(self, eps: float = 1e-9):
        """Exact for polygons; otherwise Area(hat) - sum of size^2/2 over all
        cuts, truncated at eps (tail below eps is O(eps^(4/3)))."""
        if self.is_polygon:
            return self.polygon.area()
        if self.tag == "domain_L":
            return Fraction(10, 3)
        if self.tag == "disk":
            return math.pi * self.params["radius"] ** 2
        if self.tag == "parabolic_triangle":
            return Fraction(1, 3)
        from .cutting import enumerate_cuts

        tree = enumerate_cuts(self, eps)
        hat_area = float(self.hat_polygon.area())
        return hat_area - sum(s ** 2 for s in tree.cut_sizes.floats().tolist()) / 2

    def contains(self, x) -> bool:
        if self.is_polygon:
            exact = self.polygon.is_exact
            return self.polygon.contains(x, tol=Fraction(0) if exact else _EXTERIOR_TOL)
        try:
            self.rho(x)  # nonnegative, or raises outside
        except ValueError:
            return False
        return True

    def rho(self, x, floor: float = 1e-8):
        """Tropical distance; ValueError("exterior point") outside the domain.
        floor bounds the refinement depth for smooth domains (values below it
        are near-boundary and carry absolute error up to floor)."""
        if self.is_polygon:
            return self.polygon.rho(x)
        from .cutting import tropical_distance_smooth

        return tropical_distance_smooth(self, x, floor=floor)


# ---------------------------------------------------------------------------
# JSON domain specs


def _frac_to_str(f) -> str:
    f = Fraction(f)
    return str(f.numerator) if f.denominator == 1 else f"{f.numerator}/{f.denominator}"


def _spec_vertices(spec: dict) -> list:
    """The spec's "vertices", a list of [x, y] pairs of numbers or strings,
    as Fraction pairs."""
    verts = spec["vertices"]
    if not isinstance(verts, (list, tuple)) or not all(
            isinstance(v, (list, tuple)) and len(v) == 2
            and all(isinstance(c, (int, float, str)) for c in v) for v in verts):
        raise ValueError("vertices must be a list of [x, y] pairs")
    return [(Fraction(sx), Fraction(sy)) for sx, sy in verts]


def _spec_float(value, name: str) -> float:
    """A spec number, a JSON number or a numeric string, as a finite float
    (NaN and infinities, which JSON parsers and float() accept, are refused)."""
    if isinstance(value, (int, float, str)) and not isinstance(value, bool):
        try:
            out = float(value)
        except (ValueError, OverflowError):
            pass
        else:
            if math.isfinite(out):
                return out
    raise ValueError(f"{name} must be a finite number, not {value!r}")


def _poly_chart_functions(coeffs: list[float]) -> list[Callable[[float], float]]:
    """g, g' and g'' of the polynomial sum coeffs[k] x^k as Horner loops on
    floats or float64 arrays, with the operations of
    np.polynomial.Polynomial(coeffs) and its deriv(1), deriv(2), so each
    value is theirs bit for bit: polyder's coefficients j c[j] (c[0] * 0
    past the degree), __call__'s domain map 0 + 1 x, then polyval's
    c[-1] + x 0 and c[-i] + value x."""
    if not coeffs:
        raise ValueError("g_poly must have at least one coefficient")

    def horner(c):
        def value(x):
            x = 0.0 + 1.0 * x
            total = c[-1] + x * 0
            for ck in reversed(c[:-1]):
                total = ck + total * x
            return total
        return value

    out, c = [], coeffs
    for _ in range(3):
        out.append(horner(c or [coeffs[0] * 0]))
        c = [j * c[j] for j in range(1, len(c))]
    return out


@functools.lru_cache(maxsize=None)
def _poly_form(coeffs: tuple, x_max: float) -> dict:
    """The graph data and oracles of a JSON chart, g = sum coeffs[k] x^k on
    [0, x_max], built once per graph so that its charts share them (one
    descent group).  Support, support_float and triangle_area come from
    graph_oracles; the defect is free of cancellation.  With x_u, x_v, x_w
    the tangency points of u = (a, b), v = (c, d) and w = u + v, it is

        b R(x_u, x_w) + d R(x_v, x_w),  R(x0, x1) = sum_{k>=2} g^(k)(x0)/k! (x1 - x0)^k

    (g's Taylor remainder, by Horner's rule in x1 - x0), plus the first-order
    term (a + b g'(x_u)) (x_w - x_u) where the solve puts x_u at an end of
    [0, x_max], and likewise for v (0 at an inner tangency)."""
    g, dg, d2g = _poly_chart_functions(list(coeffs))
    # g^(k)(x0)/k! = sum_{j>=k} C(j, k) c_j x0^(j-k), for k = 2 .. degree
    n = len(coeffs)
    taylor = [_poly_chart_functions([math.comb(j, k) * coeffs[j] for j in range(k, n)])[0]
              for k in range(2, n)]

    def remainder(x0, x1):
        h = x1 - x0
        total = 0.0
        for coeff in reversed(taylor):
            total = coeff(x0) + total * h
        return total * h * h

    def defect_float(a, b, c, d):
        (xu, xv, xw), (end_u, end_v, _) = tangency_points(
            np.stack((a, c, a + c)), np.stack((b, d, b + d)), dg, d2g, x_max)
        out = b * remainder(xu, xw) + d * remainder(xv, xw)
        for p, q, x, at_end in ((a, b, xu, end_u), (c, d, xv, end_v)):
            out = out + np.where(at_end, (p + q * dg(x)) * (xw - x), 0.0)
        return out

    return dict(graph_oracles(g, dg, d2g, x_max), g=g, dg=dg, d2g=d2g, x_max=x_max,
                defect_float=defect_float)


def _check_convex_graph(coeffs: list[float], x_max: float, name: str) -> None:
    """Refuse a graph chart unless g >= 0, g' <= 0 and g'' > 0 on [0, x_max],
    for g the polynomial of coeffs (the chart's Horner functions equal it
    bit for bit).  g'' is taken at both ends and at the real roots of g'''
    between them.  Once it is positive, g' increases and g then decreases,
    so g' is largest and g smallest at x_max; those two may miss 0 by
    Horner's rounding, 2 n u sum |c_k| x_max^k for the n coefficients c_k
    of g' or g."""
    g = np.polynomial.Polynomial(coeffs)
    dg, d2g = g.deriv(), g.deriv(2)
    inner = [r.real for r in g.deriv(3).roots() if r.imag == 0 and 0 < r.real < x_max]
    if min(d2g(x) for x in [0.0, x_max] + inner) <= 0:
        raise ValueError(f"chart {name}: g'' must be positive on [0, x_max]")

    def slack(q):
        return 2 * q.coef.size * 2.0 ** -53 * np.polynomial.Polynomial(np.abs(q.coef))(x_max)

    if dg(x_max) > slack(dg):
        raise ValueError(f"chart {name}: g' must be <= 0 on [0, x_max], but g'({x_max}) > 0")
    if g(x_max) < -slack(g):
        raise ValueError(f"chart {name}: g must be >= 0 on [0, x_max], but g({x_max}) < 0")


def domain_from_dict(spec: dict) -> ConvexDomain:
    """The domain of a JSON spec; ValueError on a malformed one."""
    if not isinstance(spec, dict):
        raise ValueError("a domain spec must be a JSON object")
    kind = spec.get("kind")
    if kind == "polygon":
        return ConvexDomain.from_polygon(_spec_vertices(spec))
    if kind == "builtin":
        tag = spec.get("tag")
        if tag == "domain_L":
            return ConvexDomain.domain_L()
        if tag == "disk":
            return ConvexDomain.disk(_spec_float(spec.get("radius", 1.0), "radius"))
        if tag == "parabolic_triangle":
            return ConvexDomain.parabolic_triangle()
        if tag == "d_alpha":
            return ConvexDomain.d_alpha(_spec_float(spec["alpha"], "alpha"),
                                        int(_spec_float(spec.get("n_max", 10**5), "n_max")))
        if tag == "rectangle":
            return ConvexDomain.rectangle(Fraction(spec["P"]), Fraction(spec["Q"]))
        raise ValueError(f"unknown builtin tag {tag!r}")
    if kind == "smooth":
        mm_spec, chart_specs = spec["minimal_model"], spec["charts"]
        if not isinstance(mm_spec, dict):
            raise ValueError("minimal_model must be an object with vertices")
        if not isinstance(chart_specs, list) or not all(isinstance(c, dict) for c in chart_specs):
            raise ValueError("charts must be a list of objects")
        hat = _spec_vertices(mm_spec)
        hat_poly = Polygon(hat)
        n = len(hat_poly.vertices)
        charts = []
        for cspec in chart_specs:
            idx = cspec["corner"]
            if type(idx) is not int or not 0 <= idx < n:
                raise ValueError(f"chart corner must be an int in [0, {n}), not {idx!r}")
            vtx, u_in, u_out = hat_poly.corners()[idx]
            if not isinstance(cspec["g_poly"], list):
                raise ValueError("g_poly must be a list of coefficients")
            coeffs = [_spec_float(c, "a g_poly coefficient") for c in cspec["g_poly"]]
            x_max = _spec_float(cspec["x_max"], "x_max")
            _check_convex_graph(coeffs, x_max, f"corner{idx}")
            charts.append(ArcChart(corner=vtx, u1=u_in, u2=u_out, name=f"corner{idx}",
                                   **_poly_form(tuple(coeffs), x_max)))
        return ConvexDomain.smooth(hat, charts)
    raise ValueError(f"unknown domain kind {kind!r}")


def domain_to_dict(domain: ConvexDomain) -> dict:
    if domain.is_polygon and domain.tag == "rectangle":
        return {"kind": "builtin", "tag": "rectangle",
                "P": _frac_to_str(domain.params["P"]), "Q": _frac_to_str(domain.params["Q"])}
    if domain.is_polygon:
        return {"kind": "polygon",
                "vertices": [[_frac_to_str(x), _frac_to_str(y)] for x, y in domain.polygon.vertices]}
    if domain.tag:
        out = {"kind": "builtin", "tag": domain.tag}
        if domain.tag == "disk":
            out["radius"] = domain.params["radius"]
        if domain.tag == "d_alpha":
            out.update(alpha=domain.params["alpha"], n_max=domain.params["n_max"])
        return out
    raise ValueError("user smooth domains cannot be serialized")
