import dataclasses
import functools
import json
import math
import random
from collections import Counter
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st
from test_cutting import polynomial_domain
from test_random_polygons import convex_hull, random_polygon

from tropzeta import cutting, models
from tropzeta import geometry as geo
from tropzeta.cutting import enumerate_cuts, partial_cut_polygon, wave_front
from tropzeta.geometry import ConvexDomain, Polygon
from tropzeta.lattice import stern_brocot_quadruples
from tropzeta.minimal import minimal_model_of


def unit_square():
    return Polygon([(0, 0), (1, 0), (1, 1), (0, 1)])


class TestPolygonBasics:
    def test_orientation_normalized(self):
        p = Polygon([(0, 0), (0, 1), (1, 1), (1, 0)])  # clockwise input
        assert p.area() == 1

    def test_collinear_rejected(self):
        with pytest.raises(ValueError):
            Polygon([(0, 0), (1, 0), (2, 0), (1, 1)])

    def test_edge_normals_inward(self):
        sq = unit_square()
        assert set(sq.edge_normals()) == {(0, 1), (-1, 0), (0, -1), (1, 0)}

    def test_support_values(self):
        sq = unit_square()
        assert sq.support((1, 0)) == 0
        assert sq.support((-1, -1)) == -2

    def test_area_lattice_perimeter(self):
        tri = Polygon([(0, 0), (1, 0), (0, 1)])
        assert tri.area() == Fraction(1, 2)
        assert tri.lattice_perimeter() == 3
        rect = Polygon([(0, 0), (3, 0), (3, 2), (0, 2)])
        assert rect.lattice_perimeter() == 10
        # integer vertices give Fractions; float vertices (the hats of the
        # disk and of D_alpha) give floats
        half = 2 * models.riemann_zeta(2).real  # D_alpha's half side at alpha = 1/2
        squares = [(tri, Fraction(1, 2), 3, Fraction), (rect, 6, 10, Fraction),
                   (Polygon([(-1, -1), (1, -1), (1, 1), (-1, 1)]), 4, 8, Fraction),
                   (ConvexDomain.disk(1.0).hat_polygon, 4.0, 8.0, float),
                   (ConvexDomain.d_alpha(0.5, 100).hat_polygon, 4 * half * half, 8 * half, float)]
        for poly, area, perimeter, kind in squares:
            assert type(poly.area()) is kind and type(poly.lattice_perimeter()) is kind
            assert poly.area() == pytest.approx(area, rel=1e-15)
            assert poly.lattice_perimeter() == pytest.approx(perimeter, rel=1e-15)


class TestLatticeLength:
    def test_axis(self):
        assert geo.lattice_length((0, 0), (2, 0)) == 2

    def test_diagonal(self):
        assert geo.lattice_length((0, 0), (1, 1)) == 1

    def test_2_4(self):
        # primitive (1,2): |(2,4)| / |(1,2)| = 2
        assert geo.lattice_length((0, 0), (2, 4)) == 2

    def test_fractional(self):
        assert geo.lattice_length((0, 0), (Fraction(1, 2), Fraction(1, 2))) == Fraction(1, 2)


class TestSail:
    def test_unimodular_passthrough(self):
        assert geo.sail((1, 0), (0, 1)) == [(1, 0), (0, 1)]

    def test_a1_cone(self):
        assert geo.sail((1, 0), (1, 2)) == [(1, 0), (1, 1), (1, 2)]

    def test_sharp_cone(self):
        chain = geo.sail((1, 0), (2, 5))
        assert chain[0] == (1, 0) and chain[-1] == (2, 5)
        for w1, w2 in zip(chain, chain[1:]):
            assert geo.det2(w1, w2) == 1

    @given(st.integers(-6, 6), st.integers(-6, 6), st.integers(-6, 6), st.integers(-6, 6))
    @settings(max_examples=120)
    def test_sail_dets_always_one(self, a, b, c, d):
        u, v = (a, b), (c, d)
        if (a, b) == (0, 0) or (c, d) == (0, 0):
            return
        if math.gcd(abs(a), abs(b)) != 1 or math.gcd(abs(c), abs(d)) != 1:
            return
        if geo.det2(u, v) < 1:
            return
        chain = geo.sail(u, v)
        assert all(geo.det2(w1, w2) == 1 for w1, w2 in zip(chain, chain[1:]))

    def test_long_sail_has_no_depth_limit(self):
        # one basis element per step, far beyond Python's recursion limit
        chain = geo.sail((1, 0), (1, 1500))
        assert len(chain) == 1501
        assert all(geo.det2(w1, w2) == 1 for w1, w2 in zip(chain, chain[1:]))
        dom = ConvexDomain.from_polygon([(0, 0), (1500, -1), (0, 1)])
        assert dom.is_polygon


class TestCornerSingularity:
    def test_smooth(self):
        assert geo.corner_singularity((1, 0), (0, 1)) == 0

    def test_a1(self):
        assert geo.corner_singularity((1, 0), (1, 2)) == 1

    def test_non_a_type(self):
        assert geo.corner_singularity((1, 0), (2, 5)) is None


class TestRho:
    def test_square_center(self):
        assert unit_square().rho((Fraction(1, 2), Fraction(1, 2))) == Fraction(1, 2)

    def test_boundary_is_zero(self):
        assert unit_square().rho((Fraction(1, 2), 0)) == 0

    def test_rectangle_interior(self):
        rect = Polygon([(0, 0), (3, 0), (3, 2), (0, 2)])
        assert rect.rho((Fraction(3, 2), 1)) == 1

    def test_exterior_raises(self):
        with pytest.raises(ValueError, match="exterior"):
            unit_square().rho((2, 2))

    def test_sharp_corner_needs_sail(self):
        # corner with normals (1,0),(2,5): interior direction (1,1) of the sail
        # genuinely lowers rho near the corner
        poly = Polygon([(0, 0), (5, -2), (6, 6), (-4, 8)])
        dirs = dict(poly.active_directions())
        assert (1, 1) in dirs
        x = (Fraction(1, 2), Fraction(1, 4))
        rho = poly.rho(x)
        edge_only = min(geo.dot2(nrm, x) - h for nrm, h in poly.halfplanes())
        assert rho < edge_only

    def test_concavity_on_chords(self):
        import random

        rng = random.Random(3)
        poly = Polygon([(0, 0), (4, 1), (5, 5), (1, 6), (-2, 3)])
        for _ in range(200):
            a = (Fraction(rng.randint(0, 40), 10), Fraction(rng.randint(12, 45), 10))
            b = (Fraction(rng.randint(0, 40), 10), Fraction(rng.randint(12, 45), 10))
            if not (poly.contains(a) and poly.contains(b)):
                continue
            mid = ((a[0] + b[0]) / 2, (a[1] + b[1]) / 2)
            assert poly.rho(mid) >= (poly.rho(a) + poly.rho(b)) / 2

    def test_scaling_homogeneity(self):
        poly = Polygon([(0, 0), (4, 1), (5, 5), (1, 6), (-2, 3)])
        x = (Fraction(2), Fraction(3))
        for r in [Fraction(1, 2), 2, 3]:
            scaled = poly.scale(r)
            assert scaled.rho((x[0] * r, x[1] * r)) == r * poly.rho(x)

    def test_sl2_invariance(self):
        import random

        rng = random.Random(11)
        poly = Polygon([(0, 0), (4, 1), (5, 5), (1, 6), (-2, 3)])
        pts = [(Fraction(2), Fraction(3)), (Fraction(1), Fraction(2)), (Fraction(3), Fraction(2))]
        for _ in range(5):
            # random SL2(Z) via products of elementary matrices
            m = [[1, 0], [0, 1]]
            for _ in range(4):
                k = rng.randint(-2, 2)
                if rng.random() < 0.5:
                    m = [[m[0][0] + k * m[1][0], m[0][1] + k * m[1][1]], m[1]]
                else:
                    m = [m[0], [m[1][0] + k * m[0][0], m[1][1] + k * m[0][1]]]
            image = poly.unimodular_image(m)
            for x in pts:
                y = (m[0][0] * x[0] + m[0][1] * x[1], m[1][0] * x[0] + m[1][1] * x[1])
                assert image.rho(y) == poly.rho(x)

    @given(st.data())
    @settings(max_examples=300, deadline=None)
    def test_integer_form_equals_the_fraction_formulas(self, data):
        """rho, contains and support read the polygon's integer numerators;
        each must give the value and the type (int or Fraction, by repr) of
        the plain formulas over the rational directions and vertices."""
        poly = data.draw(_rational_polygons())
        x = data.draw(_query_points(poly))
        if data.draw(st.booleans()):
            x = (float(x[0]), float(x[1]))

        def plain_rho():
            val = min(geo.dot2(u, x) - h for u, h in poly._directions)
            return "exterior" if val < 0 else repr(val)

        def fast_rho():
            try:
                return repr(poly.rho(x))
            except ValueError as exc:
                assert str(exc) == "exterior point"
                return "exterior"

        assert fast_rho() == plain_rho()
        assert poly.contains(x) == all(geo.dot2(u, x) - h >= 0 for u, h in poly.halfplanes())
        u = data.draw(st.one_of(
            st.tuples(st.integers(-9, 9), st.integers(-9, 9)).filter(lambda u: u != (0, 0)),
            st.tuples(_COORDS, _COORDS)))
        assert repr(poly.support(u)) == repr(min(geo.dot2(u, v) for v in poly.vertices))


# a rational coordinate: an int, or a Fraction (denominator 1 included, which
# the plain formulas keep apart from an int by its type)
_COORDS = st.one_of(st.integers(-12, 12),
                    st.builds(Fraction, st.integers(-36, 36), st.integers(1, 4)))


def _sl2_image(draw, poly):
    """poly under a drawn SL(2,Z) word of elementary matrices."""
    for k in draw(st.lists(st.integers(-2, 2), max_size=3)):
        poly = poly.unimodular_image(((1, k), (0, 1)) if k % 2 else ((1, 0), (k, 1)))
    return poly


@st.composite
def _rational_polygons(draw):
    hull = convex_hull(draw(st.lists(st.tuples(_COORDS, _COORDS), min_size=3, max_size=8)))
    assume(len(hull) >= 3)
    return _sl2_image(draw, Polygon(hull))


@st.composite
def _query_points(draw, poly):
    """A vertex, a point of an edge, an interior point, an exterior point,
    or a lattice point near the polygon."""
    vs = poly.vertices
    i = draw(st.integers(0, len(vs) - 1))
    v, w = vs[i], vs[i - 1]
    c = (sum(p[0] for p in vs) / Fraction(len(vs)), sum(p[1] for p in vs) / Fraction(len(vs)))
    t = draw(st.fractions(0, 1, max_denominator=12))
    kind = draw(st.sampled_from(["vertex", "edge", "inside", "outside", "lattice"]))
    if kind == "vertex":
        return v
    if kind == "edge":
        return (v[0] + t * (w[0] - v[0]), v[1] + t * (w[1] - v[1]))
    if kind in ("inside", "outside"):
        s = t if kind == "inside" else 1 + t + Fraction(1, 12)  # past the vertex v
        return (c[0] + s * (v[0] - c[0]), c[1] + s * (v[1] - c[1]))
    lo = [math.floor(min(p[k] for p in vs)) - 2 for k in (0, 1)]
    hi = [math.ceil(max(p[k] for p in vs)) + 2 for k in (0, 1)]
    return (draw(st.integers(lo[0], hi[0])), draw(st.integers(lo[1], hi[1])))


class TestHalfplaneIntersection:
    def test_square(self):
        cons = [((1, 0), 0), ((0, 1), 0), ((-1, 0), -1), ((0, -1), -1)]
        verts, normals = geo.halfplane_intersection(cons)
        assert len(verts) == 4
        assert set(verts) == {(0, 0), (1, 0), (1, 1), (0, 1)}

    def test_zero_length_edge_dropped(self):
        # x+y >= 1 touches the square [0,1]^2 cut exactly at vertex... use
        # support line through (0,1),(1,0) of the triangle: degenerate edge
        cons = [((1, 0), 0), ((0, 1), 0), ((-1, -1), -1), ((1, 1), 1)]
        # region: triangle x,y >= 0, x + y <= 1 intersect x + y >= 1 is the segment
        verts, normals = geo.halfplane_intersection(cons)
        assert len(verts) == 2

    def test_clip(self):
        sq = [(0, 0), (1, 0), (1, 1), (0, 1)]
        clipped = geo.clip_polygon([(Fraction(x), Fraction(y)) for x, y in sq], (1, 1), Fraction(1))
        assert set(clipped) == {(1, 0), (1, 1), (0, 1)}


# The plain Fraction formulas of the exact loop helpers, the oracle for their
# integer-numerator forms.


def _plain_halfplane_intersection(constraints):
    cs = sorted(constraints, key=functools.cmp_to_key(
        lambda a, b: geo.angular_compare(a[0], b[0])))
    cs = [(u, Fraction(h)) for u, h in cs]
    raw = []
    for (u, a), (v, b) in zip(cs, cs[1:] + cs[:1]):
        d = u[0] * v[1] - u[1] * v[0]
        raw.append(((a * v[1] - b * u[1]) / d, (b * u[0] - a * v[0]) / d))
    keep = [i for i in range(len(cs)) if raw[i - 1] != raw[i]]
    return [raw[i] for i in keep], [cs[i][0] for i in keep]


def _plain_twice_area(vs):
    tot = 0
    for (x1, y1), (x2, y2) in zip(vs, vs[1:] + vs[:1]):
        tot += x1 * y2 - x2 * y1
    return tot


def _plain_lattice_perimeter(vs, normals):
    tot = 0
    for i, (n0, n1) in enumerate(normals):
        (x1, y1), (x2, y2) = vs[i], vs[(i + 1) % len(vs)]
        tot += Fraction((x2 - x1) * n1 - (y2 - y1) * n0, n0 * n0 + n1 * n1)
    return tot


@st.composite
def _exact_domains(draw):
    """A polygon of the tests/test_random_polygons.py generator under an
    SL(2,Z) image, or a small one with int and Fraction vertices."""
    if draw(st.booleans()):
        poly = _sl2_image(draw, random_polygon(random.Random(draw(st.integers(0, 2**32)))).polygon)
    else:
        poly = draw(_rational_polygons())
    return ConvexDomain.from_polygon(poly.vertices)


def _cut_lines(dom, t):
    """The support lines of the partial cut at t: the minimal model's edges
    and the mediant line of every cut of size >= t."""
    return (minimal_model_of(dom).polygon.halfplanes()
            + cutting.deepest_tree(dom, t).mediant_constraints(t))


def _fronts_of(dom, t):
    """(support lines met, vertices, normals) of the partial cut and the
    wave front (its lines, inset by t) at t, and of the polygon and its
    minimal model."""
    lines = _cut_lines(dom, t)
    out = []
    for cons, inset in ((lines, 0), (lines, t), (dom.polygon.halfplanes(), 0),
                        (minimal_model_of(dom).polygon.halfplanes(), 0)):
        verts, normals = geo.halfplane_intersection(cons, inset)
        out.append(([(u, h + inset) for u, h in cons], verts, normals))
    return out


def _thirty_directions():
    """The first 30-direction draw of the random polygons, as perfbench's."""
    rng = random.Random(30)
    dom = random_polygon(rng)
    while len(dom.polygon.active_directions()) != 30:
        dom = random_polygon(rng)
    return dom


def _counting(op, name, calls):
    def counted(*args):
        calls[name] += 1
        return op(*args)
    return counted


class TestExactLoops:
    @given(st.data())
    @settings(max_examples=30, deadline=None)
    def test_integer_numerators_equal_the_fraction_formulas(self, data):
        """halfplane_intersection, twice_area, loop_area,
        loop_lattice_perimeter and Sizes.at_least on rational input give the
        value and the type (by repr: int stays int) of the plain Fraction
        formulas, on polygons, minimal models, wave fronts and partial cuts."""
        dom = data.draw(_exact_domains())
        sizes = enumerate_cuts(dom, 0).cut_sizes  # the whole tree, kept for the fronts
        hat = minimal_model_of(dom).polygon
        m = minimal_model_of(dom).m
        t = m * data.draw(st.fractions(Fraction(1, 30), Fraction(29, 30), max_denominator=30))
        fronts = _fronts_of(dom, t)
        if len(sizes):  # a front at a cut size, where edges shrink to points
            fronts += _fronts_of(dom, data.draw(st.sampled_from(sizes.tolist())))
        for cons, verts, normals in fronts:
            assert repr((verts, normals)) == repr(_plain_halfplane_intersection(cons))
            edges = verts[-1:] + verts[:-1]  # normals[i] ends at verts[i]
            assert repr(geo.loop_lattice_perimeter(edges, normals)) == repr(
                _plain_lattice_perimeter(edges, normals))
        for poly in (dom.polygon, hat):
            assert repr(poly.lattice_perimeter()) == repr(
                _plain_lattice_perimeter(poly.vertices, poly.edge_normals()))
        for vs in [dom.polygon.vertices, hat.vertices, wave_front(dom, m).vertices] + [
                verts for _, verts, _ in fronts]:
            assert repr(geo.twice_area(vs)) == repr(_plain_twice_area(vs))
            assert repr(geo.loop_area(vs)) == repr(Fraction(_plain_twice_area(vs), 2))
        for s in [t, m] + sizes.tolist()[:5]:
            assert sizes.at_least(s).tolist() == [x >= s for x in sizes.tolist()]

    def test_int_vertices_keep_an_int_twice_area(self):
        square = [(0, 0), (3, 0), (3, 2), (0, 2)]
        assert repr(geo.twice_area(square)) == "12"
        assert repr(geo.loop_area(square)) == "Fraction(6, 1)"
        assert repr(geo.twice_area([(0, 0), (Fraction(3), 0), (3, 2)])) == "Fraction(6, 1)"

    def test_edge_off_its_normal_refused(self):
        # edge (0,0) -> (1,0) against the normal (1,1): no integer lattice length
        with pytest.raises(ValueError, match="not normal"):
            geo.loop_lattice_perimeter([(0, 0), (1, 0), (1, 1), (0, 1)], [(1, 1)])

    def test_float_fronts_pinned(self):
        """The float branch keeps the float formulas, bit for bit."""
        ring = ("[(-0.7, -{b}), (-{b}, -0.7), ({b}, -0.7), (0.7, -{b}), (0.7, {b}), "
                "({b}, 0.7), (-{b}, 0.7), (-0.7, {b})]")
        cases = [(ConvexDomain.domain_L(), "0.5", "1.8799999999999994", "4.800000000000001"),
                 (ConvexDomain.disk(1.0), "0.41421356237309515", "1.7966522241370464",
                  "4.45685424949238")]
        for dom, b, area, perimeter in cases:
            wf = wave_front(dom, 0.3)
            assert repr(wf.vertices) == ring.format(b=b)
            assert (repr(wf.area()), repr(wf.lattice_perimeter())) == (area, perimeter)
        cut = partial_cut_polygon(ConvexDomain.disk(1.0), 0.3)
        assert repr(cut.vertices[0]) == "(-1.0, -0.41421356237309515)"
        assert (repr(cut.area()), repr(cut.lattice_perimeter())) == (
            "3.3137084989847603", "5.656854249492381")

    def test_no_fraction_arithmetic(self, monkeypatch):
        """A work count, not a timing: the exact front of a 30-direction fuzz
        polygon, its area and lattice perimeter, and the size test on its
        exact tree do no Fraction arithmetic (only constructions)."""
        dom = _thirty_directions()
        mm = minimal_model_of(dom)
        sizes = enumerate_cuts(dom, 0).cut_sizes
        t = mm.m / 3
        lines = _cut_lines(dom, t)
        calls = Counter()
        for name in ("__add__", "__radd__", "__sub__", "__rsub__", "__mul__", "__rmul__",
                     "__truediv__", "__rtruediv__", "__neg__", "__eq__"):
            monkeypatch.setattr(Fraction, name, _counting(getattr(Fraction, name), name, calls))
        verts, normals = geo.halfplane_intersection(lines, t)
        area = geo.loop_area(verts)
        perimeter = geo.loop_lattice_perimeter(verts[-1:] + verts[:-1], normals)
        kept = sizes.at_least(t)
        monkeypatch.undo()
        assert calls == Counter()
        assert len(verts) > 3 and 0 < kept.sum() < len(sizes)
        wf = wave_front(dom, t)
        assert (verts, area, perimeter) == (wf.vertices, wf.area(), wf.lattice_perimeter())

    def test_warm_wave_front_adds_no_fractions(self, monkeypatch):
        """On a warm tree, a wave front insets its support lines on integer
        numerators: no Fraction addition at all (one per line when the
        lines were shifted as Fractions)."""
        dom = _thirty_directions()
        t = minimal_model_of(dom).m / 3
        wave_front(dom, t)
        calls = Counter()
        for name in ("__add__", "__radd__"):
            monkeypatch.setattr(Fraction, name, _counting(getattr(Fraction, name), name, calls))
        wf = wave_front(dom, t)
        monkeypatch.undo()
        assert calls == Counter() and len(wf.vertices) > 3

    @pytest.mark.parametrize("inset", [0, 2, Fraction(1, 3), 0.25, np.float64(0.25),
                                       np.int64(1)], ids=repr)
    def test_inset_takes_the_branch_of_the_sums(self, inset):
        """halfplane_intersection(lines, inset) gives the repr (values and
        types) of meeting the lines h + inset: exact on ints where every sum
        is an int or a Fraction, the float formulas otherwise.  A numpy
        integer inset keeps Fraction offsets exact but not int ones."""
        square = [((1, 0), 0), ((0, 1), 0), ((-1, 0), -5), ((0, -1), -5)]
        cut = [((1, 0), Fraction(1, 2)), ((0, 1), Fraction(1, 3)), ((-1, 0), Fraction(-9, 2)),
               ((0, -1), Fraction(-9, 2)), ((1, 1), Fraction(7, 6))]
        rounded = cut[:4] + [((1, 1), 1.25)]
        for lines in (square, cut, rounded):
            shifted = [(u, h + inset) for u, h in lines]
            assert repr(geo.halfplane_intersection(lines, inset)) == repr(
                geo.halfplane_intersection(shifted))


# every builtin chart that carries graph data, as (domain constructor, chart name)
GRAPH_CHARTS = ([("domain_L", name) for name in ("SW", "SE", "NE", "NW")]
                + [("disk", name) for name in ("SW", "SE", "NE", "NW")]
                + [("parabolic_triangle", name) for name in ("lower", "upper")])


class TestCharts:
    @pytest.mark.parametrize("tag,name", GRAPH_CHARTS, ids=[f"{t}-{n}" for t, n in GRAPH_CHARTS])
    def test_parabola_chart_consistency(self, tag, name):
        (chart,) = [c for c in getattr(ConvexDomain, tag)().charts if c.name == name]
        # oracle equals min_x (a x + b g(x)) from the graph, primitive (a,b),
        # a+b <= 50: without its support oracle the chart takes the graph's,
        # a x + b g(x) at the tangency point of ArcChart.tangency_x
        graph = dataclasses.replace(chart, support=None)
        for a in range(0, 51):
            for b in range(0, 51 - a):
                if (a, b) == (0, 0) or math.gcd(a, b) != 1:
                    continue
                assert abs(float(chart.support(a, b)) - graph.support(a, b)) < 1e-10

    def test_L_oracles_pinned(self):
        # L's four charts share their batched oracles (one descent group), and
        # every oracle keeps the bits of the (1, 1) closed forms
        charts = ConvexDomain.domain_L().charts
        first = charts[0]
        for chart in charts:
            assert chart.defect_den is first.defect_den
            assert chart.support_float is first.support_float
            assert chart.triangle_area is first.triangle_area
            assert chart.x_max == 1.0
        quads = [q.as_tuple() for q in stern_brocot_quadruples(60)]
        a, b, c, d = np.array(quads, dtype=np.int64).T
        assert np.array_equal(first.defect_den(a, b, c, d), (a + b) * (c + d) * (a + b + c + d))
        assert first.support_float(a, b).tobytes() == (a * b / (a + b)).tobytes()
        k = ((a + b) * (c + d)).astype(np.float64)
        assert first.triangle_area(a, b, c, d).tobytes() == (0.5 / (k * k * k)).tobytes()
        for a, b, c, d in quads:
            assert first.defect_den(a, b, c, d) == (a + b) * (c + d) * (a + b + c + d)
            assert first.support_float(a, b) == a * b / (a + b)
            assert first.support(a, b) == models.parabola_support(a, b)
        for x in np.linspace(1e-3, 1.0, 101).tolist():
            assert first.g(x) == (1 - math.sqrt(x)) ** 2
            assert first.dg(x) == 1 - 1 / math.sqrt(x)
            assert first.d2g(x) == 0.5 * x ** (-1.5)

    def test_defects_nonnegative(self):
        dom = ConvexDomain.disk()
        chart = dom.charts[0]
        from tropzeta.lattice import stern_brocot_quadruples

        for quad in stern_brocot_quadruples(30):
            assert chart.defect(quad.as_tuple()) >= 0

    def test_parabolic_support_example(self):
        # parabolic chart, u = (2,1) -> 2/3
        dom = ConvexDomain.domain_L()
        assert dom.charts[0].support(2, 1) == Fraction(2, 3)


class TestDomains:
    def test_square_supports(self):
        sq = ConvexDomain.from_polygon([(0, 0), (1, 0), (1, 1), (0, 1)])
        assert sq.support((1, 0)) == 0
        assert sq.support((-1, -1)) == -2

    def test_disk_support(self):
        disk = ConvexDomain.disk(1.0)
        for u in [(1, 0), (3, 4), (-3, 4), (-1, -1), (0, -1)]:
            assert disk.support(u) == pytest.approx(-math.hypot(*u), abs=1e-12)

    def test_L_support_matches_parabola(self):
        dom = ConvexDomain.domain_L()
        assert dom.support((1, 1)) == Fraction(-3, 2)
        assert dom.support((1, 0)) == -1

    def test_parabolic_triangle_supports(self):
        dom = ConvexDomain.parabolic_triangle()
        assert dom.support((1, 1)) == Fraction(1, 2)
        assert dom.support((-1, -1)) == -1
        assert dom.support((1, 0)) == 0

    def test_d_alpha_chart_defects(self):
        dom = ConvexDomain.d_alpha(0.5, 50)
        chart = dom.charts[0]
        # defect of the wedge ((1,n-1),(0,1)) is n^{-2}
        for n in range(1, 20):
            quad = (1, n - 1, 0, 1)
            assert chart.defect(quad) == pytest.approx(n ** (-2.0), rel=1e-12)
        # non-chain wedges have zero defect
        assert chart.defect((1, 0, 1, 1)) == pytest.approx(0.0, abs=1e-12)

    def test_areas(self):
        assert ConvexDomain.rectangle(3, 2).polygon.area() == 6
        assert float(ConvexDomain.domain_L().area()) == pytest.approx(10 / 3)
        assert ConvexDomain.parabolic_triangle().area() == Fraction(1, 3)

    @pytest.mark.parametrize("dom, inside, boundary, outside", [
        (ConvexDomain.domain_L(), [(0, 0), (-0.7, -0.7), (0.5, 0.5)],
         [(0, -1), (-0.75, -0.75), (0.75, 0.75)],
         [(0, -1.000000001), (-0.76, -0.76), (-1, -1), (1.5, 0)]),
        (ConvexDomain.disk(1.0), [(0, 0), (0.5, -0.5)],
         [(1, 0), (0, -1), (0.6, 0.8)],
         [(1.000000001, 0), (0.8, 0.8), (-1, -1)]),
        (ConvexDomain.from_polygon([(0.0, 0.0), (2.0, 0.0), (2.0, 1.0), (0.0, 1.0)]),
         [(1.0, 0.5)], [(2.0, 0.5), (0.0, 0.0), (2.0 + 1e-13, 0.5)],
         [(2.000000001, 0.5), (1.0, -0.1)]),
        (ConvexDomain.rectangle(3, 2), [(1, 1)], [(3, Fraction(1, 3)), (0, 0)],
         [(Fraction(3) + Fraction(1, 10**30), 1), (-Fraction(1, 10**30), 0)]),
    ], ids=["L", "disk", "float_polygon", "exact_polygon"])
    def test_contains(self, dom, inside, boundary, outside):
        # float domains accept a slack of 1e-12 beyond the boundary; exact
        # polygons none
        for x in inside + boundary:
            assert dom.contains(x), x
        for x in outside:
            assert not dom.contains(x), x


class TestJson:
    def test_polygon_round_trip(self):
        spec = {"kind": "polygon", "vertices": [["0", "0"], ["3", "0"], ["3", "2"], ["0", "2"]]}
        dom = geo.domain_from_dict(spec)
        assert dom.polygon.area() == 6
        out = geo.domain_to_dict(dom)
        dom2 = geo.domain_from_dict(out)
        assert dom2.polygon.vertices == dom.polygon.vertices

    def test_builtins(self):
        for spec in [
            {"kind": "builtin", "tag": "domain_L"},
            {"kind": "builtin", "tag": "disk", "radius": 2.0},
            {"kind": "builtin", "tag": "d_alpha", "alpha": 0.5, "n_max": 100},
            {"kind": "builtin", "tag": "rectangle", "P": "3", "Q": "2"},
            {"kind": "builtin", "tag": "parabolic_triangle"},
        ]:
            dom = geo.domain_from_dict(spec)
            if spec["tag"] != "rectangle":
                assert dom.tag == spec["tag"]

    def test_smooth_chart_from_polynomial(self):
        # quarter-parabola y = (1-x)^2 /. frame of the unit square corner:
        # g(x) = (1 - sqrt(x))^2 is not polynomial; use g(x) = (1-x)^2 * 1/2 + ...
        # simplest: g(x) = 1 - 2x + x^2 on [0,1] has g(1) = 0, g' = -2 + 2x <= 0,
        # g'' = 2 > 0
        spec = {
            "kind": "smooth",
            "minimal_model": {"vertices": [["0", "0"], ["2", "0"], ["2", "2"], ["0", "2"]]},
            "charts": [
                {"corner": i, "g_poly": ["1", "-2", "1"], "x_max": 1.0} for i in range(4)
            ],
        }
        dom = geo.domain_from_dict(spec)
        c = dom.charts[0]
        assert c.support(1, 0) == pytest.approx(0.0, abs=1e-12)
        # min of x + g(x): derivative 1 - 2 + 2x = 0 at x = 1/2: 1/2 + 1/4 = 3/4
        assert c.support(1, 1) == pytest.approx(0.75, abs=1e-10)

    @pytest.mark.parametrize("g_poly, x_max, message", [
        # g'(1) = 0.5: the descent used to fail on a negative defect
        (["1", "-2.3", "1.1", "0.2"], 1.0, "corner2: g' must be <= 0"),
        (["1", "-2", "1"], 1.2, "corner2: g' must be <= 0"),
        (["0.5", "-1", "0.5"], 1.0 + 2 ** -20, "corner2: g' must be <= 0"),
        (["1", "-1"], 1.0, "corner2: g'' must be positive"),
        # g'' = 2 - 6x + 6x^2 has its minimum 1/2 at x = 1/2 (> 0), and
        # 2 - 9x + 9x^2 its minimum -1/4 there (both ends are 2)
        (["1", "-1.5", "1", "-1", "0.5"], 1.0, None),
        (["1", "-1.5", "1", "-1.5", "0.75"], 1.0, "corner2: g'' must be positive"),
        (["1", "-3", "1"], 0.5, "corner2: g must be >= 0"),
    ], ids=["g-prime-positive-at-end", "past-the-minimum", "just-past-the-minimum",
            "straight", "quartic", "g-second-negative-inside", "negative"])
    def test_graph_chart_checked_at_load(self, g_poly, x_max, message):
        # the error names the chart that fails; corners 0, 1 and 3 are good
        good = {"g_poly": ["1", "-2", "1"], "x_max": 1.0}
        spec = {
            "kind": "smooth",
            "minimal_model": {"vertices": [["0", "0"], ["2", "0"], ["2", "2"], ["0", "2"]]},
            "charts": [dict(good, corner=0), dict(good, corner=1),
                       {"corner": 2, "g_poly": g_poly, "x_max": x_max}, dict(good, corner=3)],
        }
        if message is None:
            assert geo.domain_from_dict(spec).charts[2].name == "corner2"
        else:
            with pytest.raises(ValueError, match=message):
                geo.domain_from_dict(spec)

    def test_rounded_squares_and_domain_files_load(self):
        # g(x) = (1 - x)^2 on [0, 1] ends at g = g' = 0 exactly; (1 - x/a)^2
        # on [0, a] with its coefficients rounded has g'(a) = 4.4e-16 by
        # Horner, inside the rounding allowance
        assert len(polynomial_domain().charts) == 4
        a = 0.6641364268321124
        g, dg, _ = geo._poly_chart_functions([1.0, -2 / a, 1 / a / a])
        assert dg(a) > 0 and g(a) > 0
        spec = {
            "kind": "smooth",
            "minimal_model": {"vertices": [["0", "0"], ["2", "0"], ["2", "2"], ["0", "2"]]},
            "charts": [{"corner": i, "g_poly": [1.0, -2 / a, 1 / a / a], "x_max": a}
                       for i in range(4)],
        }
        assert len(geo.domain_from_dict(spec).charts) == 4
        files = sorted((Path(__file__).resolve().parent.parent / "domains").glob("*.json"))
        assert len(files) >= 6
        for path in files:
            geo.domain_from_dict(json.loads(path.read_text()))

    @pytest.mark.parametrize("g_poly", [["1", "-2", "1"], ["0.7", "-1.3", "0.4", "0.25", "-0.05"],
                                        ["1", "-0.75"], ["-3"]])
    def test_polynomial_chart_matches_numpy_bit_for_bit(self, g_poly):
        # a JSON chart's g, g', g'' are Horner loops on Python floats with the
        # operations of np.polynomial.Polynomial and its derivatives; taken
        # straight from _poly_chart_functions, since most of these
        # polynomials are no convex decreasing chart on [0, 1.3] and would
        # not load
        x_max = 1.3
        coeffs = [float(c) for c in g_poly]
        g, dg, d2g = geo._poly_chart_functions(coeffs)
        p = np.polynomial.Polynomial(coeffs)
        xs = np.linspace(0.0, x_max, 201).tolist()
        assert xs[0] == 0.0 and xs[-1] == x_max
        for fn, ref in ((g, p), (dg, p.deriv(1)), (d2g, p.deriv(2))):
            got = [fn(x) for x in xs]
            assert all(type(v) is float for v in got)
            assert [v.hex() for v in got] == [float(ref(x)).hex() for x in xs]
