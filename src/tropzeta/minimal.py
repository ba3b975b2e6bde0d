"""Minimal models: the maximum of the tropical distance, its locus, the
enveloping rational polygon, the Appendix-style taxonomy, and the holomorphic
correction term.

For a domain Omega, m is the maximum of rho, M = {rho = m} is a point or a
segment, E is the set of primitive directions active somewhere on M, and the
minimal model is hat(Omega) = intersection of {<u, x> >= h(u)} over u in E.
The correction term is H(s) = m^(s-1) (2 l s + k m) with l the lattice length
of M and k = (Length_Z(boundary of hat) - 2 l)/m; k is also the
self-intersection of the canonical class of the toric surface dual to hat.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass, field
from fractions import Fraction

from .geometry import (
    ConvexDomain,
    Polygon,
    Vec,
    _ext_gcd,
    corner_singularity,
    det2,
    dot2,
    halfplane_intersection,
    lattice_length,
    meet,
    primitive_of,
    require_a_n_corners,
    sail,
    sort_directions,
    sub2,
)


@dataclass
class MinimalModel:
    polygon: Polygon
    m: object
    max_locus: tuple  # (point,) or (endpoint, endpoint)
    l: object
    k: object
    type_tag: str
    type_params: dict = field(default_factory=dict)


def _max_of_min_slacks(constraints):
    """m = max over the plane of min_u (<u, x> - h_u), and its locus M as
    (point,) or (endpoint, endpoint) in lexicographic order.

    By LP duality m is the least -sum(w_u h_u) over convex weights w with
    sum(w_u u) = 0.  An optimal dual sits on an opposite pair u, -u (weights
    1/2) or on three directions surrounding 0 (weights proportional to the
    determinants of the other two).  The best pair is optimal exactly when
    some point of its line at that level satisfies every other constraint;
    by complementary slackness M is then that line, cut to an interval by the
    other constraints.  Otherwise a triple is strictly better, and M is the
    point where a minimizing triple is tight.
    constraints: list of (u, h) with distinct primitive u.  When every offset
    is rational they become Fractions, so the meets of their lines are exact
    (integer offsets would divide to floats)."""
    exact = all(isinstance(h, (Fraction, int)) for _, h in constraints)
    if exact:
        constraints = [(u, Fraction(h)) for u, h in constraints]
    tol = 0 if exact else 1e-9
    offsets = dict(constraints)
    pairs = [(-(h + offsets[(-u[0], -u[1])]) / 2, u, h) for u, h in constraints
             if u > (-u[0], -u[1]) and (-u[0], -u[1]) in offsets]
    if pairs:
        m, u, h = min(pairs, key=lambda pair: pair[0])
        lo = hi = None
        for w, hw in constraints:
            d = det2(u, w)
            if d == 0:
                continue
            p = meet(u, h + m, w, hw + m)
            t = det2(u, p)  # position along the line, increasing in direction (-u1, u0)
            if d > 0 and (lo is None or t > lo[0]):
                lo = (t, p)
            elif d < 0 and (hi is None or t < hi[0]):
                hi = (t, p)
        if lo is None or hi is None:
            raise ValueError("unbounded or empty slack program")
        if abs(hi[0] - lo[0]) <= tol:
            return m, (lo[1],)
        if hi[0] > lo[0]:
            return m, (min(lo[1], hi[1]), max(lo[1], hi[1]))
    m = None
    for (u, hu), (v, hv), (w, hw) in itertools.combinations(constraints, 3):
        a, b, c = det2(v, w), det2(w, u), det2(u, v)
        if (a > 0 and b > 0 and c > 0) or (a < 0 and b < 0 and c < 0):
            t = -(a * hu + b * hv + c * hw) / (a + b + c)
            if m is None or t < m:
                m, tight = t, (u, hu + t, v, hv + t)
    if m is None:
        raise ValueError("unbounded or empty slack program")
    return m, (meet(*tight),)


_FRAME_TOL = 1e-9  # coordinate tolerance when a declared frame is compared


def _vertex_sets_close(a: set, b: set) -> bool:
    if len(a) != len(b):
        return False
    return all(any(abs(pa[0] - pb[0]) <= _FRAME_TOL and abs(pa[1] - pb[1]) <= _FRAME_TOL
                   for pb in b) for pa in a)


def minimal_model_of(domain: ConvexDomain) -> MinimalModel:
    """Cached minimal model of a domain."""
    if domain._mm_cache is None:
        domain._mm_cache = compute_minimal_model(domain)
    return domain._mm_cache


def compute_minimal_model(domain: ConvexDomain) -> MinimalModel:
    """m, M, E and the minimal model polygon of a domain.

    Polygons are solved exactly over the finitely many active directions
    (edge normals plus corner sails); smooth and builtin domains carry a
    declared frame polygon, which is validated and then analyzed as a polygon.
    """
    if domain.is_polygon:
        base = domain.polygon
    else:
        base = domain.hat_polygon
        _validate_declared_frame(domain)

    constraints = base.active_directions()
    m, locus = _max_of_min_slacks(constraints)
    exact = base.is_exact

    # active directions on M
    e_dirs = []
    for u, h in constraints:
        slack = min(dot2(u, p) - h for p in locus)
        if (slack == m) if exact else (abs(float(slack - m)) <= 1e-9 * (1 + abs(float(m)))):
            e_dirs.append(u)
    e_dirs = sort_directions(set(e_dirs))

    hat_constraints = [(u, base.support(u)) for u in e_dirs]
    verts, normals = halfplane_intersection(hat_constraints)
    if len(verts) < 3:
        raise ValueError("minimal model degenerated; domain may be non-compact-like")
    hat = Polygon(verts)
    if not domain.is_polygon:
        declared = {tuple(map(float, v)) for v in base.vertices}
        computed = {tuple(map(float, v)) for v in hat.vertices}
        if not _vertex_sets_close(declared, computed):
            raise ValueError(
                "declared frame polygon is not a minimal model: "
                f"its own minimal model has vertices {sorted(computed)}"
            )

    l = lattice_length(*locus) if len(locus) == 2 else (Fraction(0) if exact else 0.0)
    perim = hat.lattice_perimeter()
    k = (perim - 2 * l) / m
    tag, params = _classify(hat, m, locus, l, exact)
    return MinimalModel(polygon=hat, m=m, max_locus=locus, l=l, k=k,
                        type_tag=tag, type_params=params)


def _validate_declared_frame(domain: ConvexDomain) -> None:
    """Check every chart against the declared frame polygon: its corner is a
    frame vertex held by no other chart, its normals (u1, u2) are that
    corner's (incoming, outgoing) edge normals, and its support is
    normalized and superadditive at the root.  The descent then reads the
    charts as declared."""
    frame = {tuple(vtx): (u, v) for vtx, u, v in domain.hat_polygon.corners()}
    for c in domain.charts:
        normals = frame.pop(tuple(c.corner), None)
        if normals is None:
            raise ValueError(f"chart corner {c.corner} is not a vertex of the frame polygon "
                             "or holds another chart")
        u, v = normals
        if (tuple(c.u1), tuple(c.u2)) != (u, v):
            raise ValueError(
                f"chart at {c.corner}: frame normals {c.u1}, {c.u2} do not match "
                f"the minimal-model corner normals {u}, {v}"
            )
        g10 = c.support(1, 0)
        g01 = c.support(0, 1)
        if abs(float(g10)) > 1e-12 or abs(float(g01)) > 1e-12:
            raise ValueError(
                f"chart at {c.corner}: axis supports gamma(1,0)={g10}, gamma(0,1)={g01} "
                "violate the normalized-frame condition gamma = 0"
            )
        root = c.defect((1, 0, 0, 1))
        if float(root) < 0:
            raise ValueError(
                f"chart at {c.corner}: support superadditivity violated, "
                f"gamma(1,1) - gamma(1,0) - gamma(0,1) = {root} < 0"
            )


def _classify(hat: Polygon, m, locus, l, exact: bool) -> tuple[str, dict]:
    if len(locus) == 1:
        params = _reflexive_census(hat, m, locus[0], exact)
        return "reflexive_point", params
    return _classify_segment(hat, m, locus, l, exact)


def _reflexive_census(hat: Polygon, m, center, exact: bool) -> dict:
    params = {"vertex_count": len(hat.vertices)}
    try:
        scaled = Polygon([((v[0] - center[0]) / m, (v[1] - center[1]) / m) for v in hat.vertices])
        params["rescaled_lattice_perimeter"] = scaled.lattice_perimeter()
        if exact and all(Fraction(c).denominator == 1 for v in scaled.vertices for c in v):
            params["interior_lattice_points"] = _interior_lattice_points(scaled)
    except (ValueError, TypeError):
        pass
    return params


def _interior_lattice_points(poly: Polygon) -> list[Vec]:
    xs = [v[0] for v in poly.vertices]
    ys = [v[1] for v in poly.vertices]
    out = []
    cons = poly.halfplanes()
    for x in range(math.ceil(min(xs)), math.floor(max(xs)) + 1):
        for y in range(math.ceil(min(ys)), math.floor(max(ys)) + 1):
            if all(dot2(u, (x, y)) > h for u, h in cons):
                out.append((x, y))
    return out


def _classify_segment(hat: Polygon, m, locus, l, exact: bool) -> tuple[str, dict]:
    weights = []
    for _vtx, u, v in hat.corners():
        n_type = corner_singularity(u, v)
        weights.append(None if n_type is None else n_type + 1)
    if any(w is None for w in weights):
        return "segment_other", {"corner_weights": weights}

    n_corners = len(hat.vertices)
    ones = weights.count(1)
    twos = weights.count(2)
    if twos == n_corners == 4 and ones == 0:
        tag = "segment_degenerate"
    elif ones == n_corners:
        tag = "segment_branching"
    elif twos == 2 and ones == n_corners - 2:
        tag = "segment_mixed"
    else:
        return "segment_other", {"corner_weights": weights}

    params = {"corner_weights": weights}
    try:
        params.update(_segment_invariants(hat, m, locus, l, tag))
    except (ValueError, ZeroDivisionError, TypeError):
        pass
    return tag, params


def _segment_invariants(hat: Polygon, m, locus, l, tag: str) -> dict:
    """Normalize M to the horizontal axis and read off the integer shape
    parameters of the final-segment families."""
    p = primitive_of(*sub2(locus[1], locus[0]))
    g, x0, y0 = _ext_gcd(p[0], p[1])
    row1 = (x0, y0)  # <row1, p> = 1
    row2 = (-p[1], p[0])
    center = ((locus[0][0] + locus[1][0]) / 2, (locus[0][1] + locus[1][1]) / 2)

    def to_frame(pt):
        q = sub2(pt, center)
        return (row1[0] * q[0] + row1[1] * q[1], row2[0] * q[0] + row2[1] * q[1])

    verts = [to_frame(v) for v in hat.vertices]
    tops = sorted(v[0] for v in verts if v[1] == m)
    bots = sorted(v[0] for v in verts if v[1] == -m)
    out: dict = {}
    if tag == "segment_degenerate":
        top_len = tops[-1] - tops[0]
        bot_len = bots[-1] - bots[0]
        out["k1_minus_k2_abs"] = abs((top_len - bot_len) / (2 * m))
    elif tag == "segment_branching":
        n1 = (tops[-1] - l / 2) / m
        n4 = (tops[0] + l / 2) / m
        n2 = (bots[-1] - l / 2) / m
        n3 = (bots[0] + l / 2) / m
        cands = [
            (n3 + n4, n1 + n2, n1 - n4),
            (-(n1 + n2), -(n3 + n4), n1 - n4),  # horizontal flip
            (n4 + n3, n2 + n1, n2 - n3),  # vertical flip
            (-(n2 + n1), -(n4 + n3), n2 - n3),  # both
        ]
        out["invariant"] = min(tuple(float(x) for x in c) for c in cands)
    elif tag == "segment_mixed":
        mids = [v for v in verts if v[1] == 0]
        if mids and mids[0][0] < 0:  # put the pentagon's mid vertex on the right
            verts = [(-x, y) for x, y in verts]
            tops = sorted(v[0] for v in verts if v[1] == m)
            bots = sorted(v[0] for v in verts if v[1] == -m)
        k = (tops[0] + l / 2) / m
        n1 = (tops[-1] - l / 2) / m
        n2 = (bots[-1] - l / 2) / m
        cands = [(n1 - k, n1 + n2), (n2 + k + 1, n2 + n1)]
        out["invariant"] = min(tuple(float(x) for x in c) for c in cands)
    return out


# ---------------------------------------------------------------------------
# the correction term and the closed forms of the final-segment models


def correction_h(mm: MinimalModel, s):
    """H(s) = m^(s-1) (2 l s + k m); exact when s is an integer and the model
    is exact rational."""
    m, l, k = mm.m, mm.l, mm.k
    if isinstance(s, int) and isinstance(m, (Fraction, int)):
        return Fraction(m) ** (s - 1) * (2 * Fraction(l) * s + Fraction(k) * Fraction(m))
    s = complex(s)
    mf = complex(float(m))
    return mf ** (s - 1) * (2 * float(l) * s + float(k) * float(m))


def segment_model_zeta(tag: str, params: dict, s) -> complex:
    """Closed-form zeta of a final-segment minimal model.

    degenerate:  (s-1)^-1 (2l + 4 m / s) m^(s-1)
    branching:   (s-1)^-1 (2l + (4 + n1 + n2 - n3 - n4) m / s) m^(s-1)
    mixed:       (s-1)^-1 (2l + (4 + n1 + n2) m / s) m^(s-1)
    """
    s = complex(s)
    if s == 0 or s == 1:
        raise ValueError("pole of the closed form")
    l = float(params["l"])
    m = float(params["m"])
    if l <= 0 or m <= 0:
        raise ValueError("constraint violated: l and m must be positive")
    if tag == "segment_degenerate":
        k1, k2 = params.get("k1", 0), params.get("k2", 0)
        if l < m * (abs(k1 - k2) - 1):
            raise ValueError("constraint violated: l >= m(|k1-k2| - 1)")
        coeff = 4.0
    elif tag == "segment_branching":
        n1, n2, n3, n4 = (params[k] for k in ("n1", "n2", "n3", "n4"))
        if 2 + n3 + n4 < 0:
            raise ValueError("constraint violated: 2 + n3 + n4 >= 0")
        if 2 - n1 - n2 < 0:
            raise ValueError("constraint violated: 2 - n1 - n2 >= 0")
        if l + m * (n1 - n4) < 0:
            raise ValueError("constraint violated: top side length l + m(n1 - n4) >= 0")
        if l + m * (n2 - n3) < 0:
            raise ValueError("constraint violated: bottom side length l + m(n2 - n3) >= 0")
        coeff = 4.0 + n1 + n2 - n3 - n4
    elif tag == "segment_mixed":
        k, n1, n2 = params["k"], params["n1"], params["n2"]
        if n1 + n2 > 2:
            raise ValueError("constraint violated: n1 + n2 <= 2")
        if l + m * (n1 - k) < 0:
            raise ValueError("constraint violated: top side length l + m(n1 - k) >= 0")
        if l + m * (n2 + k + 1) < 0:
            raise ValueError("constraint violated: bottom side length l + m(n2 + k + 1) >= 0")
        coeff = 4.0 + n1 + n2
    else:
        raise ValueError(f"unknown segment model type {tag!r}")
    return (2 * l + coeff * m / s) * m ** (s - 1) / (s - 1)


# ---------------------------------------------------------------------------
# canonical self-intersection of the dual toric surface


def k_squared(poly: Polygon) -> int:
    """K^2 of the toric surface dual to the polygon's normal fan.

    Corners of A_n type are resolved crepantly by inserting their sail
    (a chain of (-2)-curves), which leaves K^2 unchanged; non-A corners are
    rejected since the canonical class is not defined there.
    On the smooth refined fan, [D_j]^2 = det(v_{j+1}, v_{j-1}) in CCW order
    and K^2 = sum_j [D_j]^2 + 2 * (number of rays).
    """
    require_a_n_corners(poly)
    rays: list[Vec] = []
    for _vtx, u, v in poly.corners():
        chain = sail(u, v)
        rays.extend(chain[:-1])  # v is the next corner's u
    n = len(rays)
    total = 0
    for j in range(n):
        total += det2(rays[(j + 1) % n], rays[(j - 1) % n])
    return total + 2 * n
