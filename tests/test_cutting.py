import copy
import dataclasses
import gc
import json
import math
import random
import tracemalloc
import weakref
from collections import Counter
from fractions import Fraction
from pathlib import Path

import mpmath
import numpy as np
import pytest
from test_random_polygons import random_polygon

from tropzeta import cutting, models
from tropzeta.cli import main
from tropzeta.cutting import (
    caustic,
    deepest_tree,
    enumerate_cuts,
    partial_cut_polygon,
    profiles,
    wave_front,
)
from tropzeta.equiaffine import length_via_triangles
from tropzeta.geometry import (
    ArcChart,
    ConvexDomain,
    domain_from_dict,
    dot2,
    halfplane_intersection,
    meet,
    tangency_points,
)
from tropzeta.minimal import k_squared, minimal_model_of
from tropzeta.zeta import residue_two_thirds, zeta_via_identity, zeta_via_mellin


def pentagon_family_member():
    """A domain whose minimal model is the mixed-type pentagon
    conv{(2,0),(1,1),(-1,1),(-2,-1),(1,-1)}: the two unimodular corners
    (1,1) and (1,-1) are cut at sizes 1/2 and 1/3."""
    return ConvexDomain.from_polygon([
        (2, 0),
        (Fraction(3, 2), Fraction(1, 2)),
        (Fraction(1, 2), 1),
        (-1, 1),
        (-2, -1),
        (Fraction(2, 3), -1),
        (Fraction(4, 3), Fraction(-2, 3)),
    ])


QUADRATIC, CUBIC = ["1", "-2", "1"], ["1", "-1.7", "0.4", "0.3"]
# g(0) = 1, g(0.7) = 0 and g'(0.7) = 1 - sqrt(2) < 0: the arc meets the axis
# at a kink of irrational slope, so some cuts have one tangency point at
# x_max = 0.7 and the other inside
_KINK_A = (1 - (2 ** 0.5 - 1) * 0.7) / 0.49
KINKED = [1.0, 1 - 2 ** 0.5 - 1.4 * _KINK_A, _KINK_A]


def polynomial_domain(g_poly=QUADRATIC, x_max=1.0):
    """A smooth domain from JSON: the square [0,2]^2 with each corner
    rounded by the graph of g_poly on [0, x_max], by default g(x) = (1 - x)^2
    on [0, 1] (float supports at the tangency points of ArcChart.tangency_x)."""
    return domain_from_dict({
        "kind": "smooth",
        "minimal_model": {"vertices": [["0", "0"], ["2", "0"], ["2", "2"], ["0", "2"]]},
        "charts": [{"corner": i, "g_poly": g_poly, "x_max": x_max} for i in range(4)],
    })


def d_alpha():
    return ConvexDomain.d_alpha(0.5, 1000)


def chart_zero_sizes(eps):
    """The cut sizes of domain L's first (parabola) chart, read off the
    domain's tree."""
    tree = enumerate_cuts(ConvexDomain.domain_L(), eps)
    lo, hi = tree.chart_offsets[:2]
    return tree.sizes()[lo:hi]


class TestChartDescent:
    def test_single_root_at_point_three(self):
        assert chart_zero_sizes(Fraction(3, 10)) == [Fraction(1, 2)]

    def test_three_nodes_at_point_one(self):
        sizes = chart_zero_sizes(Fraction(1, 10))
        assert sorted(sizes, reverse=True) == [Fraction(1, 2), Fraction(1, 6), Fraction(1, 6)]

    def test_sizes_match_mordell_tornheim_terms(self):
        # multiset of parabola cut sizes = {1/(pq(p+q)) : coprime (p,q)}
        eps = Fraction(1, 200)
        sizes = chart_zero_sizes(eps)
        expected = []
        for p in range(1, 40):
            for q in range(1, 40):
                if math.gcd(p, q) == 1 and Fraction(1, p * q * (p + q)) >= eps:
                    expected.append(Fraction(1, p * q * (p + q)))
        assert sorted(sizes) == sorted(expected)

    @pytest.mark.parametrize("make", [ConvexDomain.domain_L, ConvexDomain.disk],
                             ids=["parabola", "disk"])
    def test_frontier_wedges_tile_the_arc(self, make):
        # descent order runs from the (0, 1) end of the arc to the (1, 0) end
        dom = make()
        wedges = cutting.chart_frontier_wedges(dom.charts, 1e-3)[0]
        lo, hi = enumerate_cuts(dom, 1e-3).chart_offsets[:2]
        assert len(wedges) == hi - lo + 1  # one frontier corner more than cuts
        assert wedges[0, 2:].tolist() == [0, 1] and wedges[-1, :2].tolist() == [1, 0]
        a1, b1, a2, b2 = wedges.T
        assert (a1 * b2 - b1 * a2 == 1).all()
        assert (wedges[1:, 2:] == wedges[:-1, :2]).all()  # each v is the next u

    def test_polynomial_graph_triangle_route(self):
        # triangle_area from the graph's tangency points; g'' = 2
        dom = polynomial_domain()
        assert length_via_triangles(dom, 1e-4) == pytest.approx(4 * 2 ** (1 / 3.0), rel=1e-9)

    def test_triangle_route_returns_a_python_float(self):
        # graph data (numpy polynomials) and the oracle charts alike
        for source in (polynomial_domain(), polynomial_domain().charts[0],
                       ConvexDomain.domain_L(), ConvexDomain.disk().charts[0]):
            assert type(length_via_triangles(source, 1e-3)) is float


class TestEnumerateCutsPolygon:
    def test_cut_square_two_equal_cuts(self):
        # A_1 event: two sibling cuts of the same size, per the blow-up rule
        dom = ConvexDomain.from_polygon([(2, 0), (3, 0), (3, 3), (0, 3), (0, 1)])
        tree = enumerate_cuts(dom, 0)
        assert sorted(s for s in tree.sizes()) == [1, 1]

    def test_simple_corner_cut(self):
        half = Fraction(1, 2)
        dom = ConvexDomain.from_polygon([(half, 0), (2, 0), (2, 2), (0, 2), (0, half)])
        tree = enumerate_cuts(dom, 0)
        assert tree.sizes() == [half]

    def test_cut_of_size_m_is_part_of_the_model(self):
        # removing the full unit corner triangle of [0,2]^2 leaves a reflexive
        # pentagon: the mediant is active at the max locus, so the domain is
        # its own minimal model and there is nothing to cut
        dom = ConvexDomain.from_polygon([(1, 0), (2, 0), (2, 2), (0, 2), (0, 1)])
        tree = enumerate_cuts(dom, 0)
        assert tree.sizes() == []
        assert len(tree.minimal_model.polygon.vertices) == 5

    def test_telescoping_area_exact(self):
        dom = ConvexDomain.from_polygon([(2, 0), (3, 0), (3, 3), (0, 3), (0, 1)])
        tree = enumerate_cuts(dom, 0)
        hat = tree.minimal_model.polygon
        assert hat.area() - dom.polygon.area() == sum(s * s for s in tree.sizes()) / 2

    def test_telescoping_area_smooth(self):
        # Area(hat) - Area(Omega^t) = sum of size^2/2 over cuts of size >= t,
        # with Omega^t built geometrically
        dom = ConvexDomain.domain_L()
        t = 1e-3
        tree = enumerate_cuts(dom, t)
        removed = sum(float(s) ** 2 for s in tree.sizes() if s >= t) / 2
        cut = partial_cut_polygon(dom, t)
        assert 4 - float(cut.area()) == pytest.approx(removed, abs=1e-9)
        # the remaining gap to Omega itself is the uncut tail, O(t^(4/3))
        gap = float(cut.area()) - 10 / 3
        assert 0 <= gap < 2e-3

    def test_perimeter_telescoping_exact(self):
        dom = ConvexDomain.from_polygon([(2, 0), (3, 0), (3, 3), (0, 3), (0, 1)])
        tree = enumerate_cuts(dom, 0)
        hat = tree.minimal_model.polygon
        assert hat.lattice_perimeter() - sum(tree.sizes()) == dom.polygon.lattice_perimeter()

    def test_pentagon_family_telescoping(self):
        # mixed-type pentagon minimal model (A_1 corners) with unimodular cuts
        # of sizes 1/2 and 1/3 at its two smooth corners
        dom = pentagon_family_member()
        tree = enumerate_cuts(dom, 0)
        hat = tree.minimal_model.polygon
        assert sorted(tree.sizes()) == [Fraction(1, 3), Fraction(1, 2)]
        assert set(map(tuple, hat.vertices)) == {
            (2, 0), (1, 1), (-1, 1), (-2, -1), (1, -1)
        }
        assert hat.area() - dom.polygon.area() == sum(s * s for s in tree.sizes()) / 2
        assert hat.lattice_perimeter() - sum(tree.sizes()) == dom.polygon.lattice_perimeter()


class TestCutCount:
    def test_counts(self):
        dom = ConvexDomain.domain_L()
        tree = enumerate_cuts(dom, 0.05)
        assert tree.cut_count(0.3) == 4  # one root cut per chart
        assert tree.cut_count(0.1) == 12
        assert tree.cut_count(1.1) == 0

    def test_too_shallow(self):
        tree = enumerate_cuts(ConvexDomain.domain_L(), 0.05)
        with pytest.raises(ValueError, match="too shallow"):
            tree.cut_count(0.01)

    @pytest.mark.parametrize("make, count", [(pentagon_family_member, 2),
                                             (ConvexDomain.domain_L, 4)],
                             ids=["pentagon", "L"])
    def test_at_exact_threshold(self, make, count):
        third = Fraction(1, 3)
        assert enumerate_cuts(make(), third).cut_count(third) == count

    @pytest.mark.parametrize("make, count", [(ConvexDomain.domain_L, 20),
                                             (ConvexDomain.parabolic_triangle, 4)],
                             ids=["L", "parabolic_triangle"])
    def test_exact_on_den_trees(self, make, count):
        # the float 0.05 lies above the size 1/20: cuts of den 20 are not
        # counted, as Sizes.at_least and mediant_constraints do not keep them
        tree = enumerate_cuts(make(), 1e-3)
        assert tree.cut_count(0.05) == count
        ts = [0.9, 0.5, 1 / 3, 0.3, 0.1, 0.05, 0.02, 0.0123, 1e-3, 1.1]
        counts = [int(tree.cut_sizes.at_least(t).sum()) for t in ts]
        assert [tree.cut_count(t) for t in ts] == counts
        assert tree.cut_count(np.array(ts)).tolist() == counts
        assert tree.cut_count(0.05) < tree.cut_count(np.nextafter(0.05, 0))
        assert tree.cut_count(0.05) == len(tree.mediant_constraints(0.05))


def corner_cut_square():
    """The unit square with the corner cut x + y >= 1/10: one cut, of size
    exactly 1/10, below the float 0.1."""
    tenth = Fraction(1, 10)
    return ConvexDomain.from_polygon([(tenth, 0), (1, 0), (1, 1), (0, 1), (0, tenth)])


class TestTreeIdentity:
    """Trees are shared read-only values: they compare by identity and hash."""

    def test_equality_is_identity(self):
        dom = ConvexDomain.domain_L()
        tree, other = enumerate_cuts(dom, 1e-3), enumerate_cuts(ConvexDomain.domain_L(), 1e-3)
        assert tree == tree and enumerate_cuts(dom, 1e-3) == tree  # the memo's tree
        assert tree != other and other.nodes.tolist() == tree.nodes.tolist()
        assert len({tree, other, tree}) == 2 and hash(tree) == hash(tree)


class TestExactSizeTest:
    """Every "size >= t" question of a tree is one exact test (Sizes.rank)."""

    def test_fraction_tree_at_a_rounded_up_t(self):
        tree = enumerate_cuts(corner_cut_square(), 0)
        assert tree.sizes() == [Fraction(1, 10)]
        assert tree.cut_count(0.1) == 0
        assert int(tree.cut_sizes.at_least(0.1).sum()) == 0
        assert len(tree.mediant_constraints(0.1)) == 0
        assert tree.cut_count(np.array([0.1, Fraction(1, 10)], dtype=object)).tolist() == [0, 1]
        assert tree.cut_count(Fraction(1, 10)) == 1

    def test_profiles_use_the_partial_cut_polygon(self):
        # the front at 0.1 is the square inset by 0.1: Omega^0.1 keeps no cut
        dom = corner_cut_square()
        assert partial_cut_polygon(dom, 0.1).lattice_perimeter() == 4
        (t, length, area), = profiles(dom, [0.1])
        assert length == 3.2
        assert area == pytest.approx(0.64, rel=1e-15)

    @pytest.mark.parametrize("t, count", [(1, 0), (np.int64(1), 0), (np.int64(2), 0),
                                          (np.float64(0.1), 12)])
    def test_integer_thresholds_on_den_tree(self, t, count):
        tree = enumerate_cuts(ConvexDomain.domain_L(), 0.05)
        assert tree.cut_sizes.is_den
        assert tree.cut_count(t) == count
        assert int(tree.cut_sizes.at_least(t).sum()) == count
        assert tree.cut_count(np.array([t, 1])).tolist() == [count, 0]

    @pytest.mark.parametrize("t", [0, np.int64(0)])
    def test_integer_thresholds_on_fraction_tree(self, t):
        tree = enumerate_cuts(pentagon_family_member(), 0)
        assert tree.cut_count(t) == 2
        assert int(tree.cut_sizes.at_least(t).sum()) == 2

    @pytest.mark.parametrize("make, eps", [(ConvexDomain.domain_L, 1e-3),
                                           (ConvexDomain.disk, 1e-3),
                                           (pentagon_family_member, 0)],
                             ids=["den", "float", "fraction"])
    def test_size_order_is_the_rank_order(self, make, eps):
        tree = enumerate_cuts(make(), eps)
        ranks = tree._size_order[0]
        assert (ranks[:-1] <= ranks[1:]).all()
        assert (np.diff(tree.slack_arrays()[2]) <= 0).all()
        exact = sorted(tree.sizes(), reverse=True)
        assert [float(x) for x in exact] == tree.slack_arrays()[2].tolist()

    @pytest.mark.parametrize("make, t", [
        (ConvexDomain.domain_L, 0.02), (ConvexDomain.disk, 0.02),
        (pentagon_family_member, Fraction(1, 3)),
        (lambda: random_polygon(random.Random(7)), Fraction(19, 4)),  # a 7-fold tie at 31/4
    ], ids=["L", "disk", "pentagon", "random"])
    def test_mediant_lines_follow_the_size_order(self, make, t):
        """mediant_constraints(t) is the first cut_count(t) rows of the size
        order, largest first: as a set, the lines of the cuts that
        at_least(t) keeps in node order."""
        dom = make()
        tree = deepest_tree(dom, t)
        lines = tree.mediant_constraints(t)
        assert len(lines) == tree.cut_count(t) > 1
        sizes, kept = tree.sizes(), tree.cut_sizes.at_least(t)
        by_line = {}
        for chart, lo, hi in tree._chart_spans():
            for i in range(lo, hi):
                if kept[i]:
                    a, b, c, d = tree.nodes[i].tolist()
                    by_line[chart.line(a + c, b + d)] = sizes[i]
        assert set(lines) == set(by_line)
        in_order = [by_line[line] for line in lines]
        assert in_order == sorted(in_order, reverse=True)


class TestPartialCut:
    def test_above_m_gives_hat(self):
        for dom, t in [(ConvexDomain.domain_L(), 1.5), (ConvexDomain.disk(1.0), 1.5),
                       (ConvexDomain.rectangle(3, 2), 2)]:
            hat = minimal_model_of(dom).polygon
            cut = partial_cut_polygon(dom, t)
            assert set(cut.vertices) == set(hat.vertices)
            assert cut.lattice_perimeter() == hat.lattice_perimeter()  # 8, 8.0 and 10

    def test_L_octagon(self):
        cut = partial_cut_polygon(ConvexDomain.domain_L(), 0.3)
        assert len(cut.vertices) == 8

    def test_polygon_t_zero_recovers_domain(self):
        dom = ConvexDomain.from_polygon([(2, 0), (3, 0), (3, 3), (0, 3), (0, 1)])
        cut = partial_cut_polygon(dom, 0)
        assert set(map(tuple, cut.vertices)) == set(map(tuple, dom.polygon.vertices))

    def test_perimeter_drop_equals_size_sum(self):
        dom = ConvexDomain.from_polygon([(2, 0), (3, 0), (3, 3), (0, 3), (0, 1)])
        tree = enumerate_cuts(dom, 0)
        hat = tree.minimal_model.polygon
        for t in [Fraction(1, 2), Fraction(3, 2)]:
            cut = partial_cut_polygon(dom, t)
            drop = sum(s for s in tree.sizes() if s >= t)
            assert cut.lattice_perimeter() == hat.lattice_perimeter() - drop


class TestWaveFront:
    def test_square_inset(self):
        dom = ConvexDomain.from_polygon([(0, 0), (2, 0), (2, 2), (0, 2)])
        wf = wave_front(dom, Fraction(1, 2))
        assert set(map(tuple, wf.vertices)) == {
            (Fraction(1, 2), Fraction(1, 2)), (Fraction(3, 2), Fraction(1, 2)),
            (Fraction(3, 2), Fraction(3, 2)), (Fraction(1, 2), Fraction(3, 2)),
        }

    def test_rectangle_at_m_degenerates_to_segment(self):
        dom = ConvexDomain.rectangle(3, 2)
        wf = wave_front(dom, 1)
        assert wf.is_degenerate
        assert set(map(tuple, wf.vertices)) == {(1, 1), (2, 1)}
        assert wf.lattice_perimeter() == 2  # 2 * l

    def test_degenerate_front_stays_exact(self):
        # past m an exact polygon's front is its max locus: the area is 0 in
        # the vertices' own type, and t is kept as given
        dom = ConvexDomain.rectangle(3, 2)
        wf = wave_front(dom, Fraction(3, 2))
        assert wf.is_degenerate
        assert (repr(wf.t), repr(wf.area()), repr(wf.lattice_perimeter())) == (
            "Fraction(3, 2)", "Fraction(0, 1)", "Fraction(2, 1)")
        assert repr(partial_cut_polygon(dom, Fraction(5, 2)).t) == "Fraction(5, 2)"
        assert repr(wave_front(dom, 1.5).t) == "1.5"
        # a float domain's locus keeps a float 0
        disk = ConvexDomain.disk(1.0)
        assert repr(wave_front(disk, 2.0).area()) == "0.0"

    @pytest.mark.parametrize("make, t, n, perimeter", [
        (lambda: ConvexDomain.from_polygon([(0, 0), (1, 0), (0, 1)]), Fraction(1, 2), 1,
         "Fraction(0, 1)"),
        (ConvexDomain.domain_L, 1.5, 1, "Fraction(0, 1)"),
        (ConvexDomain.disk, 2.0, 1, "0.0"),
        (lambda: ConvexDomain.rectangle(3, 2), Fraction(3, 2), 2, "Fraction(2, 1)"),
    ], ids=["triangle_point", "L_point", "disk_point", "rectangle_segment"])
    def test_degenerate_front_is_its_locus(self, make, t, n, perimeter):
        # a front past m is the max locus alone: a point's lattice perimeter
        # is a 0 of the locus' kind, a segment's twice its lattice length
        dom = make()
        wf = wave_front(dom, t)
        assert wf.is_degenerate and wf.normals == []
        assert wf.vertices == list(minimal_model_of(dom).max_locus) and len(wf.vertices) == n
        assert repr(wf.lattice_perimeter()) == perimeter

    def test_polygon_front_is_not_degenerate(self):
        dom = ConvexDomain.rectangle(3, 2)
        wf = wave_front(dom, Fraction(1, 2))
        assert not wf.is_degenerate and len(wf.vertices) == len(wf.normals) == 4
        assert not partial_cut_polygon(dom, Fraction(5, 2)).is_degenerate

    def test_L_area_against_rho_quadrature(self):
        dom = ConvexDomain.domain_L()
        t = 0.5
        wf = wave_front(dom, t)
        # grid quadrature of the indicator {rho_L >= t}; rho refined only to
        # 1e-3, far below the t = 0.5 threshold being classified
        n = 280
        count = 0
        for i in range(n):
            for j in range(n):
                x = -1 + 2 * (i + 0.5) / n
                y = -1 + 2 * (j + 0.5) / n
                try:
                    if dom.rho((x, y), floor=1e-3) >= t:
                        count += 1
                except ValueError:
                    continue
        grid_area = count * (2 / n) ** 2
        assert float(wf.area()) == pytest.approx(grid_area, abs=5e-3)

    def test_lemma18_front_equals_direct_superlevel(self):
        # (Omega^u)_u = Omega_u: wave front vertices all satisfy rho = u
        dom = ConvexDomain.domain_L()
        u = 0.22
        wf = wave_front(dom, u)
        for v in wf.vertices[:6]:
            assert dom.rho((float(v[0]), float(v[1]))) == pytest.approx(u, abs=1e-9)

    def test_lemma17_constant_fan_between_events(self):
        dom = ConvexDomain.domain_L()
        tree = enumerate_cuts(dom, 0.05)
        sizes = sorted({float(s) for s in tree.sizes()}, reverse=True)
        t1, t2 = sizes[0], sizes[1]  # consecutive critical sizes
        fans = []
        for frac in (0.25, 0.5, 0.75):
            u = t2 + (t1 - t2) * frac
            wf = wave_front(dom, u)
            fans.append(tuple(sorted(map(tuple, wf.normals))))
        assert fans[0] == fans[1] == fans[2]


class TestProfiles:
    def test_rectangle_closed_forms(self):
        dom = ConvexDomain.rectangle(3, 2)
        grid = [0.1, 0.25, 0.5, 0.75, 0.9]
        for t, length, area in profiles(dom, grid):
            assert area == pytest.approx((3 - 2 * t) * (2 - 2 * t), abs=1e-12)
            assert length == pytest.approx(10 - 8 * t, abs=1e-12)

    def test_derivative_relation(self):
        # d/dt Area = -Length, by central differences, away from critical times
        dom = ConvexDomain.domain_L()
        for t in [0.2, 0.35, 0.6]:
            h = 1e-6
            (_, _, a_plus), (_, _, a_minus) = profiles(dom, [t + h])[0], profiles(dom, [t - h])[0]
            (_, length, _) = profiles(dom, [t])[0]
            assert (a_minus - a_plus) / (2 * h) == pytest.approx(length, abs=1e-6)

    def test_matches_geometric_wave_front(self):
        dom = ConvexDomain.domain_L()
        for t in [0.15, 0.4, 0.8]:
            (_, length, area) = profiles(dom, [t])[0]
            wf = wave_front(dom, t)
            assert float(wf.lattice_perimeter()) == pytest.approx(length, abs=1e-9)
            assert float(wf.area()) == pytest.approx(area, abs=1e-9)

    def test_piecewise_linear_slope_is_minus_k2(self):
        # between critical times, dP/dt = -K_t^2
        dom = ConvexDomain.from_polygon([(2, 0), (3, 0), (3, 3), (0, 3), (0, 1)])
        tree = enumerate_cuts(dom, 0)
        # all cuts have size 1; below that K^2 = K^2(hat) - 2
        k2 = k_squared(tree.minimal_model.polygon) - 2
        (t1, l1, _), (t2, l2, _) = profiles(dom, [0.3, 0.6])
        assert (l2 - l1) / (t2 - t1) == pytest.approx(-k2, abs=1e-12)

    @pytest.mark.parametrize("make", [ConvexDomain.domain_L, ConvexDomain.disk,
                                      pentagon_family_member], ids=["L", "disk", "pentagon"])
    def test_matches_per_t_loop(self, make):
        # the one-search grid equals a per-t plain-float loop over the
        # size-sorted cuts, bit for bit
        dom = make()
        ts = [0.9, 0.3, 0.05, 1e-3, 2e-5, 1e-5]
        got = profiles(dom, ts)
        tree = enumerate_cuts(dom, 0 if dom.is_polygon else 1e-5)
        sizes = tree.cut_sizes.floats()
        hat = tree.minimal_model.polygon
        l_hat, a_hat = float(hat.lattice_perimeter()), float(hat.area())
        expected = []
        for t in ts:
            # the cuts of size >= t, compared exactly, largest first
            kept = sorted(sizes[tree.cut_sizes.at_least(t)].tolist(), reverse=True)
            k2_t = k_squared(hat) - len(kept)
            length_cut = l_hat - sum(kept)
            area_cut = a_hat - sum(c * c for c in kept) / 2
            expected.append((t, length_cut - t * k2_t,
                             area_cut - t * length_cut + t * t / 2 * k2_t))
        assert got == expected


def _perimeter_oracle(tree, t):
    """The wave-front perimeter at a single t from consecutive support line
    intersections over the full angular arrays: the front itself, built
    anew for each t, apart from the running sums that
    front_perimeter_geometric reads."""
    wx, wy, h, sizes = tree.angular_arrays()
    mask = sizes >= t
    ax, ay, off = wx[mask], wy[mask], h[mask] + t
    bx, by, boff = np.roll(ax, -1), np.roll(ay, -1), np.roll(off, -1)
    det = ax * by - bx * ay
    vx = (off * by - boff * ay) / det
    vy = (ax * boff - bx * off) / det
    dx = vx - np.roll(vx, 1)
    dy = vy - np.roll(vy, 1)
    dirx, diry = ay, -ax
    tpar = (dx * dirx + dy * diry) / (dirx * dirx + diry * diry)
    return float(np.clip(tpar, 0.0, None).sum())


def _angular_reference(tree):
    """The angular arrays as built from a node-order row table (size, wx,
    wy, h) that the tree kept beside its size-sorted copy."""
    rows = np.empty((len(tree.nodes), 4))
    rows[:, 0] = tree.cut_sizes.floats()
    for chart, lo, hi in tree._chart_spans():
        quads = tree.nodes[lo:hi]
        ma, mb = quads[:, 0] + quads[:, 2], quads[:, 1] + quads[:, 3]
        wx = ma * chart.u1[0] + mb * chart.u2[0]
        wy = ma * chart.u1[1] + mb * chart.u2[1]
        if chart.support_float is not None:
            sup = chart.support_float(ma, mb)
        else:
            sup = np.array([float(chart.support(a, b)) for a, b in zip(ma.tolist(), mb.tolist())],
                           dtype=np.float64)
        rows[lo:hi, 1], rows[lo:hi, 2] = wx, wy
        rows[lo:hi, 3] = sup + wx * float(chart.corner[0]) + wy * float(chart.corner[1])
    edges = [(float(nrm[0]), float(nrm[1]), float(h), math.inf)
             for nrm, h in tree.minimal_model.polygon.halfplanes()]
    arr = np.vstack([np.array(edges, dtype=np.float64).reshape(-1, 4), rows[:, [1, 2, 3, 0]]])
    arr = arr[np.argsort(np.arctan2(arr[:, 1], arr[:, 0]))]
    return arr[:, 0].copy(), arr[:, 1].copy(), arr[:, 2].copy(), arr[:, 3].copy()


def _random_rational_polygon():
    return random_polygon(random.Random(12))


class TestAngularArrays:
    """The angular arrays, sorted from the size-sorted rows, equal the
    node-order construction byte for byte: every normal has its own angle,
    so the sort does not see the order it starts from."""

    @pytest.mark.parametrize("make, eps", [
        (ConvexDomain.domain_L, 1e-5), (ConvexDomain.disk, 1e-5),
        (pentagon_family_member, 0), (ConvexDomain.parabolic_triangle, 1e-5),
        (_random_rational_polygon, 0),
    ], ids=["L", "disk", "pentagon", "parabolic_triangle", "random_polygon"])
    def test_equal_to_node_order_construction(self, make, eps):
        tree = enumerate_cuts(make(), eps)
        got, expected = tree.angular_arrays(), _angular_reference(tree)
        assert len(got[0]) == len(tree.nodes) + len(tree.minimal_model.polygon.halfplanes())
        for col, ref in zip(got, expected):
            assert col.dtype == ref.dtype and col.tobytes() == ref.tobytes()
        angles = np.arctan2(got[1], got[0])
        assert (np.diff(angles) > 0).all()


def _cached_columns(tree):
    """The columns a tree has made since its descent: its attributes beyond
    the dataclass fields."""
    return set(vars(tree)) - {f.name for f in dataclasses.fields(tree)}


class TestColumnsOnDemand:
    """A reader makes only the columns it reads: counts and exact fronts
    the size order, the size bookkeeping and the Mellin route the float
    sizes and the running sums, and only slack_arrays the mediant rows."""

    def test_readers_make_no_slack_rows(self, monkeypatch):
        dom, trees, grow = ConvexDomain.domain_L(), [], cutting._grow
        monkeypatch.setattr(cutting, "_grow", lambda *args: trees.append(grow(*args)) or trees[-1])
        tree = deepest_tree(dom, 1e-6)
        tree.cut_count(1e-3)
        partial_cut_polygon(dom, 0.05)
        assert _cached_columns(tree) == {"_size_order"}
        profiles(dom, [1e-6, 1e-4, 1e-2])
        assert _cached_columns(tree) == {"_size_order", "_sorted_sizes"}
        tree.kinks(1e-5, 1e-3)
        zeta_via_mellin(dom, 3)
        for grown in trees:
            assert _cached_columns(grown) <= {"_size_order", "_sorted_sizes", "_perimeter_sums"}
        tree.slack_arrays()
        assert "_slack_rows" in _cached_columns(tree)

    def test_profiles_keep_one_float_column(self):
        dom = ConvexDomain.domain_L()
        tree = deepest_tree(dom, 1e-6)
        tree.cut_count(1e-6)  # the size order, read by every count
        tracemalloc.start()
        try:
            before = tracemalloc.get_traced_memory()[0]
            profiles(dom, [1e-6, 1e-4, 1e-2])
            kept = tracemalloc.get_traced_memory()[0] - before
        finally:
            tracemalloc.stop()
        assert kept <= 12 * len(tree.nodes)  # 8 B per cut: the float sizes

    @pytest.mark.parametrize("make, eps", [
        (ConvexDomain.domain_L, 1e-4), (ConvexDomain.disk, 1e-4), (_random_rational_polygon, 0),
    ], ids=["L", "disk", "random_polygon"])
    def test_slack_arrays_are_the_mediant_lines(self, make, eps):
        tree = enumerate_cuts(make(), eps)
        w, h, s = tree.slack_arrays()
        assert s is tree._sorted_sizes  # one float size column per tree
        order = tree._size_order[1]
        charts = np.searchsorted(tree.chart_offsets, order, side="right") - 1
        for i, (k, (a, b, c, d)) in enumerate(zip(charts.tolist(), tree.nodes[order].tolist())):
            (wx, wy), offset = tree.charts[k].line(a + c, b + d)
            assert w[i].tolist() == [float(wx), float(wy)]
            assert abs(h[i] - float(offset)) <= 1e-12 * (1 + abs(float(offset)))
        assert s.tolist() == [float(x) for x in sorted(tree.sizes(), reverse=True)]


def _gauss_nodes(a, b):
    nodes, _ = np.polynomial.legendre.leggauss(8)
    return (a + b) / 2 + (b - a) / 2 * nodes


class TestFrontPerimeter:
    """The batched perimeter equals the per-t calls bit for bit, whatever
    times are asked together, and the line-intersection oracle within
    1e-10 relative."""

    @staticmethod
    def _check(tree, ts):
        ts = np.asarray(ts, dtype=np.float64)
        got = tree.front_perimeter_geometric(ts)
        assert got.shape == ts.shape
        assert got.tolist() == [tree.front_perimeter_geometric(np.array([t]))[0] for t in ts]
        oracle = np.array([_perimeter_oracle(tree, t) for t in ts])
        assert np.all(np.abs(got - oracle) <= 1e-10 * np.abs(oracle))

    @pytest.mark.parametrize("make", [ConvexDomain.domain_L, ConvexDomain.disk],
                             ids=["L", "disk"])
    def test_smooth_regimes(self, make):
        tree = enumerate_cuts(make(), 1e-5)
        # straddling powers of two, where the Mellin levels meet
        for k in (3, 7, 12):
            p = math.ldexp(1.0, -k)
            self._check(tree, [p * 0.97, np.nextafter(p, 0), p, np.nextafter(p, 1), p * 1.03])
        # inside one kink cell: every node keeps the same constraints
        inside = tree.kinks(0.01, 0.02)
        a, b = float(inside[0]), float(inside[1])
        ts = _gauss_nodes(a, b)
        assert len(set(tree.cut_count(ts).tolist())) == 1
        self._check(tree, ts)
        # geomspace cells over many kinks, whose nodes differ in their
        # constraints
        assert len(tree.kinks(2e-5, 4e-5)) > 256
        edges = np.geomspace(2e-5, 4e-5, 9)
        ts = np.concatenate([_gauss_nodes(a, b) for a, b in zip(edges[:-1], edges[1:])])
        assert len(set(tree.cut_count(ts).tolist())) > 8
        self._check(tree, ts)
        # unsorted, repeated and mixed-octave times in one call
        self._check(tree, [0.3, 1e-5, 0.3, 0.02, 3e-5, 0.0155, 1e-5])

    def test_exact_pentagon(self):
        tree = deepest_tree(pentagon_family_member(), 0)
        assert tree.sizes() == [Fraction(1, 3), Fraction(1, 2)]
        # kinks at 1/3 and 1/2, the second a power of two
        self._check(tree, [0.1, 0.25, 0.3, 1 / 3, 0.4, np.nextafter(0.5, 0), 0.5, 0.75, 0.99])
        self._check(tree, _gauss_nodes(1 / 3, 1 / 2))

    @pytest.mark.parametrize("make", [ConvexDomain.domain_L, ConvexDomain.disk],
                             ids=["L", "disk"])
    def test_cancellation_free_bookkeeping(self, make):
        # the running sums of support differences against l_hat - sum of
        # sizes - t (K_hat^2 - n), whose sizes are the cancellation-free
        # defect oracles (profiles)
        dom = make()
        tree = enumerate_cuts(dom, 1e-6)
        ts = np.geomspace(1e-6, 0.999 * float(minimal_model_of(dom).m), 400)
        ref = np.array([p[1] for p in profiles(dom, ts)])
        got = tree.front_perimeter_geometric(ts)
        assert np.all(np.abs(got - ref) <= 1e-10 * np.abs(ref))

    def test_too_shallow(self):
        # a time below the threshold would miss the cuts the tree never made
        tree = enumerate_cuts(ConvexDomain.domain_L(), 1e-3)
        with pytest.raises(ValueError, match="too shallow"):
            tree.front_perimeter_geometric(np.array([0.1, 1e-4]))


def farey_polygon():
    """An exact polygon with smooth corners and a deep cut tree: the normals
    of Farey order 3 turned to all four quadrants (consecutive normals of
    det 1), each edge at a distance near 3 |n| from the origin, to 7
    decimals.  Those denominators put the caustic's integer numerators past
    2^53, where a float division of them would round twice."""
    base = [(1, 0), (3, 1), (2, 1), (3, 2), (1, 1), (2, 3), (1, 2), (1, 3)]
    normals = base + [(-b, a) for a, b in base] + [(-a, -b) for a, b in base] \
        + [(b, -a) for a, b in base]
    lines = [(n, -3 * Fraction(round(1e7 * math.hypot(*n)), 10**7)) for n in normals]
    return ConvexDomain.from_polygon(halfplane_intersection(lines, 0)[0])


def caustic_reference(dom, eps, line, values, num):
    """(start, end, scale) of every edge of caustic(dom, eps), in its edge
    order, from a walk of the tree one cut at a time: each trajectory's two
    lines line(chart, a, b) = (w, h), moved inward by its birth and death
    sizes (values(sizes) reads a size column), meet in the arithmetic of
    those values; num converts m.  scale is 1 on the minimal model's
    corners, and the square of the largest entry of the cut's mediant
    normal in its chart on the cuts' trajectories."""
    mm = minimal_model_of(dom)
    tree = enumerate_cuts(dom, eps)
    cuts, leaves = values(tree.cut_sizes), values(tree.leaf_sizes)
    born = dict(zip(tree.leaf_links.tolist(), leaves))
    born.update((link, size) for link, size in zip(tree.links.tolist(), cuts) if link >= 0)
    m = num(mm.m)
    out = [(*mm.max_locus, 1)] if len(mm.max_locus) == 2 else []
    roots = {(chart.u1, chart.u2): cuts[lo] if lo < hi else leaves[lo + k]
             for k, (chart, lo, hi) in enumerate(tree._chart_spans())}
    for vtx, u, v in mm.polygon.corners():
        hu, hv, t = dot2(u, vtx), dot2(v, vtx), roots.get((u, v), 0)
        out.append((meet(u, hu + t, v, hv + t), meet(u, hu + m, v, hv + m), 1))
    for chart, lo, hi in tree._chart_spans():
        for i in range(lo, hi):
            a, b, c, d = tree.nodes[i].tolist()
            lines = line(chart, a, b), line(chart, a + c, b + d), line(chart, c, d)
            for side in (0, 1):
                (u, hu), (v, hv) = lines[side], lines[side + 1]
                t0, t1 = born[2 * i + side], cuts[i]
                out.append((meet(u, hu + t0, v, hv + t0), meet(u, hu + t1, v, hv + t1),
                            max(a + c, b + d) ** 2))
    return out


class TestCaustic:
    def test_square_is_two_diagonals(self):
        dom = ConvexDomain.from_polygon([(0, 0), (2, 0), (2, 2), (0, 2)])
        g = caustic(dom, 0.1)
        assert len(g.edges) == 4
        for e in g.edges:
            assert e.weight == 1
            assert e.end == (1.0, 1.0)

    def test_rectangle_h_shape(self):
        dom = ConvexDomain.rectangle(3, 2)
        g = caustic(dom, 0.1)
        weights = sorted(e.weight for e in g.edges)
        assert weights == [1, 1, 1, 1, 2]
        seg = [e for e in g.edges if e.weight == 2][0]
        assert {seg.start, seg.end} == {(1.0, 1.0), (2.0, 1.0)}

    def test_L_symmetric_branches(self):
        g = caustic(ConvexDomain.domain_L(), 0.3)
        # 4 root trajectories + 4 cut events contributing 2 child edges each
        assert len([e for e in g.edges if e.t_end == 1.0]) == 4
        assert len(g.edges) == 4 + 8

    @pytest.mark.parametrize("make, eps", [(ConvexDomain.disk, 0.7), (ConvexDomain.domain_L, 0.6),
                                           (ConvexDomain.parabolic_triangle, 0.5)],
                             ids=["disk", "L", "parabolic_triangle"])
    def test_edges_start_where_rho_is_their_birth(self, make, eps):
        # every chart root is uncut at these eps; its trajectory is still
        # born at the root corner's size, inside the domain
        dom = make()
        for e in caustic(dom, eps).edges:
            assert dom.rho(e.start) == pytest.approx(e.t_start, abs=1e-9)

    def test_non_a_corner_rejected(self):
        dom = ConvexDomain.from_polygon([(0, 0), (5, -2), (6, 6), (-4, 8)])
        with pytest.raises(ValueError, match="A_n"):
            caustic(dom, 0.1)

    def test_chart_order_moves_only_the_edge_order(self):
        # the parabolic triangle's trees descend its charts lower arc first;
        # listed upper first (the minimal model's corner order), the same
        # edges come in another order
        dom = ConvexDomain.parabolic_triangle()
        upper_first = ConvexDomain(kind="builtin", hat_polygon=dom.hat_polygon,
                                   charts=dom.charts[::-1], tag=dom.tag)
        edges = [dataclasses.astuple(e) for e in caustic(dom, 1e-3).edges]
        flipped = [dataclasses.astuple(e) for e in caustic(upper_first, 1e-3).edges]
        assert edges != flipped and Counter(edges) == Counter(flipped)
        assert len(edges) == 249 and sum(e[2] for e in edges) == 250

    def test_caustic_vertices_lie_on_rho_level(self):
        dom = ConvexDomain.domain_L()
        g = caustic(dom, 0.05)
        for e in g.edges[:10]:
            if e.t_end < 1.0:
                assert dom.rho(e.end) == pytest.approx(e.t_end, abs=1e-9)

    @pytest.mark.parametrize("make, eps, count", [(ConvexDomain.domain_L, 1e-3, 988),
                                                  (ConvexDomain.parabolic_triangle, 1e-3, 249),
                                                  (pentagon_family_member, 0, 10),
                                                  (farey_polygon, 0, 60)],
                             ids=["L", "parabolic_triangle", "pentagon", "farey_polygon"])
    def test_rational_vertices_are_the_rounded_exact_meets(self, make, eps, count):
        # every edge end is float() of the Fraction meet of its two lines:
        # the exact vertex, rounded once
        dom = make()
        ref = caustic_reference(dom, eps, lambda chart, a, b: chart.line(a, b),
                                lambda sizes: sizes.tolist(), Fraction)
        edges = caustic(dom, eps).edges
        assert len(edges) == len(ref) == count
        for e, (start, end, _) in zip(edges, ref):
            assert e.start == (float(start[0]), float(start[1]))
            assert e.end == (float(end[0]), float(end[1]))

    def test_disk_vertices_against_mpmath(self):
        # float lines: each vertex within 4 * 2^-52 |w|^2 of the 50-digit
        # meet of the exact lines at the same float times, w the largest
        # entry of the cut's mediant in its chart (1 on the model's corners)
        dom = ConvexDomain.disk()

        def line(chart, a, b):
            w = (a * chart.u1[0] + b * chart.u2[0], a * chart.u1[1] + b * chart.u2[1])
            gamma = a + b - mpmath.sqrt(a * a + b * b)  # radius 1
            cx, cy = (mpmath.mpf(c) for c in chart.corner)
            return w, gamma + w[0] * cx + w[1] * cy

        with mpmath.workdps(50):
            ref = caustic_reference(dom, 1e-3, line,
                                    lambda sizes: [mpmath.mpf(x) for x in sizes.floats().tolist()],
                                    lambda m: mpmath.mpf(float(m)))
            edges = caustic(dom, 1e-3).edges
            assert len(edges) == len(ref) == 908
            worst = 0
            for e, (start, end, scale) in zip(edges, ref):
                err = max(abs(e.start[0] - start[0]), abs(e.start[1] - start[1]),
                          abs(e.end[0] - end[0]), abs(e.end[1] - end[1]))
                assert err <= 4 * 2.0**-52 * scale
                worst = max(worst, err)
        assert worst <= 1e-13


class TestNonFiniteEps:
    """A nan eps would descend as if it were 0 and never end; an infinite
    one is no depth.  Both are refused before any descent."""

    DOMAINS = [ConvexDomain.disk, ConvexDomain.domain_L, pentagon_family_member]
    IDS = ["disk", "L", "pentagon"]

    @pytest.mark.parametrize("eps", [math.nan, math.inf], ids=["nan", "inf"])
    @pytest.mark.parametrize("make", DOMAINS, ids=IDS)
    def test_tree_readers_refuse(self, make, eps):
        for call in (deepest_tree, enumerate_cuts, lambda dom, e: zeta_via_identity(dom, 3, e)):
            with pytest.raises(ValueError, match="eps"):
                call(make(), eps)

    @pytest.mark.parametrize("eps", [math.nan, math.inf], ids=["nan", "inf"])
    @pytest.mark.parametrize("make", DOMAINS[:2], ids=IDS[:2])
    def test_smooth_readers_refuse(self, make, eps):
        for call in (caustic, length_via_triangles, residue_two_thirds,
                     lambda dom, e: cutting.chart_frontier_wedges(dom.charts, e)):
            with pytest.raises(ValueError, match="eps"):
                call(make(), eps)


    @pytest.mark.parametrize("eps", [math.nan, math.inf, -math.inf, -1.0],
                             ids=["nan", "inf", "-inf", "-1"])
    def test_polygon_readers_refuse(self, eps):
        # a polygon's readers take its whole tree, but still check eps
        path = Path(__file__).resolve().parent.parent / "domains" / "pentagon_model.json"
        pentagon = domain_from_dict(json.loads(path.read_text()))
        for call in (caustic, length_via_triangles):
            with pytest.raises(ValueError, match="eps"):
                call(pentagon, eps)


class TestDeclaredCharts:
    @pytest.mark.parametrize("make", [ConvexDomain.parabolic_triangle, ConvexDomain.domain_L,
                                      ConvexDomain.disk, polynomial_domain],
                             ids=["parabolic_triangle", "L", "disk", "polynomial"])
    def test_trees_descend_the_declared_charts(self, make):
        dom = make()
        for eps in (1e-2, 1e-3):  # a fresh tree, then a deepened memo
            tree = deepest_tree(dom, eps)
            assert len(tree.charts) == len(dom.charts)
            assert all(a is b for a, b in zip(tree.charts, dom.charts))
        assert [c.name for c in enumerate_cuts(dom, 2e-3).charts] == [c.name for c in dom.charts]


class TestSmoothRho:
    def test_center_of_L(self):
        assert ConvexDomain.domain_L().rho((0.0, 0.0)) == pytest.approx(1.0, abs=1e-12)

    def test_boundary_point_of_L(self):
        # (1, 0) is on the boundary; refinement floor bounds the error
        assert ConvexDomain.domain_L().rho((1.0, 0.0), floor=1e-6) == pytest.approx(
            0.0, abs=1e-6
        )

    def test_against_parabola_supports(self):
        # rho_L at a generic point equals the min over many explicit slacks
        dom = ConvexDomain.domain_L()
        x = (0.31, -0.17)
        val = dom.rho(x)
        best = math.inf
        for a in range(0, 25):
            for b in range(0, 25):
                if (a, b) == (0, 0) or math.gcd(a, b) != 1:
                    continue
                for sx in (1, -1):
                    for sy in (1, -1):
                        u = (sx * a, sy * b)
                        h = float(dom.support(u))
                        best = min(best, u[0] * x[0] + u[1] * x[1] - h)
        assert val == pytest.approx(best, abs=1e-9)

    def test_exterior(self):
        with pytest.raises(ValueError, match="exterior"):
            ConvexDomain.domain_L().rho((1.2, 1.2))

    def test_disk_rho_center(self):
        assert ConvexDomain.disk(1.0).rho((0.0, 0.0)) == pytest.approx(1.0, abs=1e-12)


def _node_rows(tree):
    return (tree.nodes.tolist(), tree.sizes(), tree.links.tolist(), tree.chart_offsets)


def _same_sizes(x, y) -> bool:
    """Two Sizes columns hold the same values, of the same dtype and kind."""
    return (x.is_den == y.is_den and x.values.dtype == y.values.dtype
            and np.array_equal(x.values, y.values))


def _typed(values):
    """Values with their Python types (numpy floats count as float)."""
    return [(float if isinstance(v, float) else type(v), v) for v in values]


def _columns(tree):
    return (tree.nodes.tolist(), tree.links.tolist(), _typed(tree.sizes()),
            _typed(tree.leaf_sizes.tolist()), tree.leaf_links.tolist(), tree.chart_offsets)


def _reference_descent(charts, eps):
    """The depth-first descent (side-1 child popped first) that the
    level-synchronous one replaced, chart by chart, with its size test:
    1/den on defect_den charts, defect_float where a chart has it, else one
    support call per corner with the negative-defect and nesting checks.
    Returns the columns as _columns does."""
    nodes, links, sizes, leaf_sizes, leaf_links, offsets = [], [], [], [], [], [0]
    for chart in charts:
        gamma = chart.support
        stack = [(1, 0, 0, 1, gamma(1, 0), gamma(0, 1), None, -1)]
        while stack:
            a, b, c, d, gu, gv, psize, link = stack.pop()
            gm = None
            if chart.defect_den is not None:
                size = Fraction(1, chart.defect_den(a, b, c, d))
            elif chart.defect_float is not None:
                size = chart.defect_float(a, b, c, d)
            else:
                gm = gamma(a + c, b + d)
                size = gm - gu - gv
            assert size >= (0 if chart.exact else -1e-9)
            assert psize is None or size <= psize + (0 if chart.exact else 1e-12 * (1 + psize))
            if size >= eps and size > 0:
                idx = len(sizes)
                nodes.append([a, b, c, d])
                links.append(link)
                sizes.append(size)
                stack.append((a, b, a + c, b + d, gu, gm, size, 2 * idx))
                stack.append((a + c, b + d, c, d, gm, gv, size, 2 * idx + 1))
            else:
                leaf_sizes.append(size)
                leaf_links.append(link)
        offsets.append(len(sizes))
    return nodes, links, _typed(sizes), _typed(leaf_sizes), leaf_links, tuple(offsets)


LEVEL_CASES = [(ConvexDomain.domain_L, [Fraction(1, 6), 1e-3, 1e-5]),
               (ConvexDomain.disk, [1e-3, 1e-5]),
               (ConvexDomain.parabolic_triangle, [1e-3, 1e-5]),
               (d_alpha, [1e-3, 1e-6]),
               (polynomial_domain, [1e-2, 1e-3]),
               (pentagon_family_member, [0, Fraction(2, 5)]),
               (lambda: ConvexDomain.from_polygon([(2, 0), (3, 0), (3, 3), (0, 3), (0, 1)]), [0]),
               # no unimodular corner: no chart to descend
               (lambda: ConvexDomain.from_polygon([(0, 0), (2, 1), (1, 2)]), [0])]
LEVEL_IDS = ["L", "disk", "parabolic_triangle", "d_alpha", "polynomial", "pentagon", "cut_square",
             "no_chart"]


class TestLevelDescent:
    """The chain descent writes the columns of the depth-first reference
    descent: same cuts, links, sizes and size types, frontier and chart
    offsets."""

    @pytest.mark.parametrize("make, epss", LEVEL_CASES, ids=LEVEL_IDS)
    def test_equals_depth_first_reference(self, make, epss):
        for eps in epss:
            tree = enumerate_cuts(make(), eps)
            assert _columns(tree) == _reference_descent(tree.charts, eps)

    def test_int64_overflow_guard(self, capsys):
        # den = x y (x + y) <= cap has children up to cap (1 + 2 isqrt(cap)),
        # at x = 1; _DEN_CAP_MAX is the largest cap for which that fits
        cap = cutting._DEN_CAP_MAX
        assert cap * (1 + 2 * math.isqrt(cap)) < 2**63 <= (cap + 1) * (1 + 2 * math.isqrt(cap + 1))
        with pytest.raises(ValueError, match=f"smallest allowed eps is 1/{cap}"):
            enumerate_cuts(ConvexDomain.domain_L(), 1e-15)
        L_json = str(Path(__file__).resolve().parent.parent / "domains" / "L.json")
        assert main(["cuts", L_json, "--eps", "1e-15"]) == 1
        assert "smallest allowed eps" in capsys.readouterr().out


def _disk_with_defect(change):
    """The disk's first chart with its float defect passed through
    change(a, b, c, d, size)."""
    chart = ConvexDomain.disk().charts[0]
    return dataclasses.replace(
        chart, defect_float=lambda a, b, c, d: change(a, b, c, d, chart.defect_float(a, b, c, d)))


def _scalar_chart(support):
    return ArcChart(corner=(0, 0), u1=(1, 0), u2=(0, 1), support=support, name="broken")


class TestDescentChecks:
    """A chart whose sizes break superadditivity (a negative size) or
    nesting (a child larger than its parent) stops the descent, through the
    float defect and through the scalar support oracle.  The corners two
    levels down, (1, 2, 0, 1) and its siblings, sit below cuts, so every
    descent measures them."""

    def test_float_defect_negative(self):
        chart = _disk_with_defect(lambda a, b, c, d, s: np.where(a + b + c + d >= 4, -s, s))
        with pytest.raises(ValueError, match="negative defect"):
            cutting.chart_frontier_wedges([chart], 1e-3)

    def test_float_defect_nesting(self):
        chart = _disk_with_defect(lambda a, b, c, d, s: np.where(a + b + c + d >= 4, 10 * s, s))
        with pytest.raises(AssertionError, match="nesting"):
            cutting.chart_frontier_wedges([chart], 1e-3)

    def test_scalar_negative(self):
        # minus L's support: every defect is negative, the root's -1/2
        chart = _scalar_chart(lambda a, b: -a * b / (a + b) if a and b else 0.0)
        with pytest.raises(ValueError, match="negative defect"):
            cutting.chart_frontier_wedges([chart], 1e-3)

    def test_scalar_nesting(self):
        # gamma = a b^2: the root's defect is 1, its side-1 child's 3
        chart = _scalar_chart(lambda a, b: float(a * b * b))
        with pytest.raises(AssertionError, match="nesting"):
            cutting.chart_frontier_wedges([chart], 1e-3)

    def test_corners_below_the_frontier_are_not_checked(self):
        # the defect reads -1 on every corner whose parent is not cut, which
        # no descent needs; the tree is the disk chart's own
        eps, true = 1e-3, ConvexDomain.disk().charts[0]

        def poisoned(a, b, c, d, size):
            side1 = (a >= c) & (b >= d)  # (a, b) = (a - c, b - d) + (c, d)
            root = (a == 1) & (b == 0) & (c == 0) & (d == 1)
            with np.errstate(invalid="ignore", divide="ignore"):
                parent = true.defect_float(np.where(side1, a - c, a), np.where(side1, b - d, b),
                                           np.where(side1, c, c - a), np.where(side1, d, d - b))
            return np.where(root | (parent >= eps), size, -1.0)

        wedges = cutting.chart_frontier_wedges([_disk_with_defect(poisoned)], eps)
        assert np.array_equal(wedges[0], cutting.chart_frontier_wedges([true], eps)[0])


def _tree_levels(tree) -> int:
    """The number of levels of a tree: one more than its deepest frontier
    corner's depth (parents come before their children)."""
    depth = []
    for link in tree.links.tolist():
        depth.append(0 if link < 0 else depth[link >> 1] + 1)
    return 1 + max(0 if link < 0 else depth[link >> 1] + 1 for link in tree.leaf_links.tolist())


class TestChainDescent:
    """The descent measures each round's chains in batches, so its oracle
    calls follow the runs of a path, not its depth."""

    def test_L_makes_few_oracle_calls(self):
        charts, calls = ConvexDomain.domain_L().charts, []
        den = charts[0].defect_den

        def counting(*quad):
            calls.append(len(quad[0]))
            return den(*quad)

        counted = [dataclasses.replace(chart, defect_den=counting) for chart in charts]
        tree = cutting._grow(counted, 1e-5)
        assert _tree_levels(tree) == 316
        assert 5 * len(calls) < 316
        assert _columns(tree) == _columns(cutting._grow(charts, 1e-5))

    def test_d_alpha_measures_at_most_twice_its_tree(self):
        alpha, n_max = 0.4, 20000
        chart, measured = ConvexDomain.d_alpha(alpha, n_max).charts[0], [0]

        def counting(a, b, c, d):
            measured[0] += np.size(a)
            return chart.defect_float(a, b, c, d)

        def no_support(a, b):
            raise AssertionError("the chain descent measures by defect_float")

        eps = 0.5 * n_max ** (-1 / alpha)
        tree = cutting._grow([dataclasses.replace(chart, support=no_support,
                                                  defect_float=counting)], eps)
        assert len(tree.nodes) == n_max
        assert measured[0] <= 2 * len(tree.nodes) + len(tree.leaf_links)


def _deep_sample(tree, k=40, seed=0):
    """The k smallest cuts of the tree and k more drawn at random."""
    order = np.argsort(tree.cut_sizes.floats(), kind="stable")
    drawn = random.Random(seed).sample(range(len(order)), k)
    return sorted(set(order[:k].tolist()) | set(order[drawn].tolist()))


class TestDefectAudit:
    """Sizes of deep cuts of every built-in chart against 50-digit mpmath
    (or exact) values.  Tolerances follow from float64 rounding: the disk's
    cancellation-free defect is good to a few ulp of the size; a defect
    taken as gamma(u+v) - gamma(u) - gamma(v) of float supports only to a
    few ulp of the sum of the terms the supports add up."""

    ULP = 2.0**-53

    def test_disk_closed_form(self):
        for radius in (1.0, 2.5):
            tree = enumerate_cuts(ConvexDomain.disk(radius), 1e-7)
            sizes = tree.cut_sizes.floats()
            with mpmath.workdps(50):
                for i in _deep_sample(tree):
                    a, b, c, d = tree.nodes[i].tolist()
                    exact = radius * (mpmath.hypot(a, b) + mpmath.hypot(c, d)
                                      - mpmath.hypot(a + c, b + d))
                    assert abs(sizes[i] - exact) <= 8 * self.ULP * exact

    @pytest.mark.parametrize("make", [ConvexDomain.domain_L, ConvexDomain.parabolic_triangle],
                             ids=["L", "parabolic_triangle"])
    def test_defect_den_equals_exact_support(self, make):
        tree = enumerate_cuts(make(), 1e-6)
        sizes = tree.sizes()
        for chart, lo, hi in tree._chart_spans():
            for i in _deep_sample(tree):
                if lo <= i < hi:
                    a, b, c, d = tree.nodes[i].tolist()
                    exact = chart.support(a + c, b + d) - chart.support(a, b) - chart.support(c, d)
                    assert sizes[i] == exact == chart.defect((a, b, c, d))

    def test_d_alpha_chain(self):
        # every cut is the wedge ((1, n-1), (0, 1)) of the chain, of size
        # n^(-1/alpha) to the bit; the second tree is criterion 14's
        for alpha, n_max, eps in [(0.5, 1000, 1e-7), (0.4, 20000, 0.5 * 20000 ** -2.5)]:
            tree = enumerate_cuts(ConvexDomain.d_alpha(alpha, n_max), eps)
            a, b, c, d = tree.nodes.T
            assert (a == 1).all() and (c == 0).all() and (d == 1).all()
            assert np.array_equal(np.sort(b), np.arange(n_max))
            expected = models.d_alpha_cut_sizes(alpha, n_max)
            assert np.array_equal(tree.cut_sizes.floats(), expected[b])

    def test_polynomial_graph(self):
        # g(x) = 1 - 2x + x^2: the normal (p, q) touches at x = 1 - p / (2q)
        # in [0, 1]; in float64, g itself cancels, so the bound scales with
        # p x + q (1 + 2x + x^2), the sum of the evaluated terms
        def gamma(p, q):
            if p == 0 or q == 0:
                return mpmath.mpf(0), mpmath.mpf(0)
            x = max(mpmath.mpf(0), 1 - mpmath.mpf(p) / (2 * q))
            return p * x + q * (1 - x) ** 2, p * x + q * (1 + x) ** 2

        tree = enumerate_cuts(polynomial_domain(), 1e-4)
        sizes = tree.cut_sizes.floats()
        with mpmath.workdps(50):
            for i in _deep_sample(tree):
                a, b, c, d = tree.nodes[i].tolist()
                (gm, sm), (gu, su), (gv, sv) = gamma(a + c, b + d), gamma(a, b), gamma(c, d)
                assert abs(sizes[i] - (gm - gu - gv)) <= 8 * self.ULP * (sm + su + sv)


def _graph_defects(g_poly, quads, x_max=1.0):
    """50-digit support defects of the chart of g = sum g_poly[k] x^k on
    [0, x_max], its float coefficients and x_max taken exactly: gamma(p, q)
    = min of p x + q g(x), at the root of g'(x) = -p/q or at an end."""
    with mpmath.workdps(50):
        c = [mpmath.mpf(float(v)) for v in g_poly]
        x_max = mpmath.mpf(x_max)

        def g(x):
            return mpmath.polyval(c[::-1], x)

        def dg(x):
            return mpmath.polyval([k * c[k] for k in range(len(c) - 1, 0, -1)], x)

        def gamma(p, q):
            if q == 0:
                return 0
            t = mpmath.mpf(-p) / q
            if dg(0) >= t:
                x = 0
            elif dg(x_max) <= t:
                x = x_max
            else:
                x = mpmath.findroot(lambda y: dg(y) - t, (0, x_max), solver="anderson")
            return p * x + q * g(x)

        return [gamma(a + c, b + d) - gamma(a, b) - gamma(c, d) for a, b, c, d in quads]


def _no_walk(*args):
    raise AssertionError("walked")


def _plain(chart):
    """The chart without its defect oracle: the walk then sizes a cut by
    support differences gamma(u + v) - gamma(u) - gamma(v)."""
    plain = copy.copy(chart)
    plain.defect_float = None
    return plain


class TestGraphCharts:
    """JSON graph charts descend by chains, with the remainder defect of
    geometry._poly_form."""

    # (g_poly, eps, the relative error of the 40 smallest sizes of the walk
    # that took support differences of a scalar solve, the route replaced)
    WALKED = [(QUADRATIC, 1e-4, 1.0e-10), (QUADRATIC, 1e-6, 5.3e-8),
              (CUBIC, 1e-4, 1.0e-10), (CUBIC, 1e-6, 8.9e-8)]

    @pytest.mark.parametrize("g_poly, eps, walked", WALKED,
                             ids=["quadratic-1e-4", "quadratic-1e-6", "cubic-1e-4", "cubic-1e-6"])
    def test_sizes_against_mpmath(self, g_poly, eps, walked):
        # at least 100 times closer than support differences, which lose
        # the digits that the O(1) supports share
        chart = polynomial_domain(g_poly).charts[0]
        tree = cutting._grow([chart], eps)
        order = np.argsort(tree.cut_sizes.floats(), kind="stable")[:40]
        a, b, c, d = tree.nodes[order].T
        sup = chart.support_float
        diffs = sup(a + c, b + d) - sup(a, b) - sup(c, d)
        exact = _graph_defects(g_poly, tree.nodes[order].tolist())
        sizes = tree.cut_sizes.floats()[order]
        with mpmath.workdps(50):
            err = max(abs(x / e - 1) for x, e in zip(sizes.tolist(), exact))
            err_diffs = max(abs(x / e - 1) for x, e in zip(diffs.tolist(), exact))
        assert 100 * err <= min(err_diffs, walked)

    def test_kinked_end_against_mpmath(self):
        # every cut of a chart whose arc meets the axis at a kink: a cut
        # with one tangency point at x_max and the other inside carries the
        # first-order term, which is O(size); the walk's support
        # differences were good to 8.2e-11 relative here
        chart = polynomial_domain(KINKED, 0.7).charts[0]
        tree = cutting._grow([chart], 1e-4)
        exact = _graph_defects(KINKED, tree.nodes.tolist(), 0.7)
        with mpmath.workdps(50):
            err = max(abs(x / e - 1) for x, e in zip(tree.cut_sizes.floats().tolist(), exact))
        assert 100 * err <= 8.2e-11

    @pytest.mark.parametrize("g_poly", [QUADRATIC, CUBIC], ids=["quadratic", "cubic"])
    def test_chain_tree_equals_walk(self, g_poly):
        charts = polynomial_domain(g_poly).charts
        tree = cutting._grow(charts, 1e-4)
        walk = cutting._walk([_plain(chart) for chart in charts], 1e-4, None, np.float64)
        for col in ("nodes", "links", "leaf_links"):
            assert np.array_equal(getattr(tree, col), getattr(walk, col))
        assert tree.chart_offsets == walk.chart_offsets
        # the walk's sizes are good to about 1e-10 relative, 2e-14 absolute
        # (test_sizes_against_mpmath); the frontier sizes reach 0
        assert np.allclose(tree.cut_sizes.floats(), walk.cut_sizes.floats(), rtol=2e-10, atol=0)
        assert np.allclose(tree.leaf_sizes.floats(), walk.leaf_sizes.floats(), rtol=0, atol=1e-13)

    def test_json_domain_is_not_walked(self, monkeypatch):
        monkeypatch.setattr(cutting, "_walk", _no_walk)
        assert len(enumerate_cuts(polynomial_domain(), 1e-4).nodes) == 1920

    def test_graph_data_alone_descends_by_chains(self, monkeypatch):
        # a chart given only L's graph gets its oracles from the tangency
        # solve, its defect as support differences; the tree is L's
        L = ConvexDomain.domain_L().charts[0]
        chart = ArcChart(corner=L.corner, u1=L.u1, u2=L.u2, g=L.g, dg=L.dg, d2g=L.d2g,
                         x_max=L.x_max)
        monkeypatch.setattr(cutting, "_walk", _no_walk)
        tree, exact = cutting._grow([chart], 1e-3), cutting._grow([L], 1e-3)
        assert np.array_equal(tree.nodes, exact.nodes)
        assert np.allclose(tree.cut_sizes.floats(), exact.cut_sizes.floats(), rtol=1e-9, atol=0)

    def test_tangency_solve_on_arrays(self):
        # 0 on (1, 0), x_max on (0, 1), an end where the solve clips
        # (g'(0) = -2 > -5/2), else the root x = 1 - a/(2b) of g'(x) = -a/b
        chart = polynomial_domain().charts[0]
        a, b = np.array([[1, 0, 5, 1], [0, 1, 2, 4]])
        x = chart.tangency_x(a, b)
        assert x.tolist() == [0.0, 1.0, 0.0, 0.875]
        assert [chart.tangency_x(p, q) for p, q in zip(a.tolist(), b.tolist())] == x.tolist()
        # the clipped ends are exact at an x_max that halvings do not reach
        # (g'(0.7) = -0.41..., g'(0) = -2.44...)
        kinked = polynomial_domain(KINKED, 0.7).charts[0]
        x, at_end = tangency_points(np.array([1, 1, 3, 2]), np.array([4, 3, 1, 1]),
                                    kinked.dg, kinked.d2g, 0.7)
        assert x[[0, 1, 2]].tolist() == [0.7, 0.7, 0.0] and at_end.tolist() == [1, 1, 1, 0]
        with pytest.raises(ValueError, match="nonnegative and nonzero"):
            chart.tangency_x(np.array([1, 0]), np.array([1, 0]))


class TestHistoryFree:
    """A tree depends only on the domain and the eps asked for, not on which
    trees were built on the same domain object before."""

    @pytest.mark.parametrize("reverse", [False, True], ids=["fronts_first", "mellin_first"])
    def test_polygon_readers_build_one_tree(self, reverse, monkeypatch):
        # a polygon's tree is its whole, finite tree, whatever t is asked
        grow, calls = cutting._grow, []

        def counting_grow(charts, eps, *args):
            calls.append(eps)
            return grow(charts, eps, *args)

        monkeypatch.setattr(cutting, "_grow", counting_grow)
        dom = pentagon_family_member()
        m = minimal_model_of(dom).m
        readers = [lambda: wave_front(dom, m / 3), lambda: wave_front(dom, m / 5),
                   lambda: profiles(dom, [float(m) / 4]), lambda: zeta_via_mellin(dom, 3)]
        for read in readers[::-1] if reverse else readers:
            read()
        assert calls == [0]

    def test_polygon_cut_above_zero_descends_once(self, monkeypatch):
        grow, calls = cutting._grow, []

        def counting_grow(charts, eps, *args):
            calls.append(eps)
            return grow(charts, eps, *args)

        monkeypatch.setattr(cutting, "_grow", counting_grow)
        assert enumerate_cuts(ConvexDomain.rectangle(3, 2), Fraction(1, 2)).threshold == Fraction(1, 2)
        assert calls == [Fraction(1, 2)]
        # with the whole tree built first, the cut at eps is one descent more
        dom = pentagon_family_member()
        enumerate_cuts(dom, 0)
        assert enumerate_cuts(dom, Fraction(2, 5)).sizes() == [Fraction(1, 2)]
        assert calls == [Fraction(1, 2), 0, Fraction(2, 5)]

    @pytest.mark.parametrize("make", [ConvexDomain.domain_L, ConvexDomain.disk,
                                      ConvexDomain.parabolic_triangle,
                                      lambda: ConvexDomain.d_alpha(0.5, 1000)],
                             ids=["L", "disk", "parabolic_triangle", "d_alpha"])
    def test_shallow_after_deep_equals_fresh(self, make):
        dom = make()
        enumerate_cuts(dom, 1e-6)
        tree = enumerate_cuts(dom, 1e-4)
        fresh = enumerate_cuts(make(), 1e-4)
        assert tree.threshold == fresh.threshold
        assert _same_sizes(tree.leaf_sizes, fresh.leaf_sizes)  # same multiset, same order
        assert tree.leaf_links.tolist() == fresh.leaf_links.tolist()
        assert _node_rows(tree) == _node_rows(fresh)

    @pytest.mark.parametrize("make, epss", [
        (ConvexDomain.domain_L, [1e-3, 1e-4, 1e-5]),
        (ConvexDomain.disk, [1e-3, 1e-4, 1e-5]),
        (ConvexDomain.parabolic_triangle, [1e-3, 1e-5]),
        (d_alpha, [1e-3, 1e-5, 1e-7]),
        (polynomial_domain, [1e-2, 1e-3]),
        (pentagon_family_member, [Fraction(2, 5), 0]),
    ], ids=["L", "disk", "parabolic_triangle", "d_alpha", "polynomial", "pentagon"])
    def test_deepened_in_steps_equals_fresh(self, make, epss):
        dom = make()
        for eps in epss:
            deepest_tree(dom, eps)
        assert _columns(enumerate_cuts(dom, epss[-1])) == _columns(enumerate_cuts(make(), epss[-1]))

    @pytest.mark.parametrize("make", [ConvexDomain.domain_L, ConvexDomain.disk],
                             ids=["L", "disk"])
    def test_readers_of_the_deep_tree_equal_fresh(self, make):
        from tropzeta.zeta import boundary_series, zeta_via_mellin

        def readings(dom):
            return (boundary_series(dom, 2, 1e-4).value, profiles(dom, [0.01, 0.3]),
                    wave_front(dom, 0.05).vertices, partial_cut_polygon(dom, 0.05).vertices,
                    zeta_via_mellin(dom, 3))

        dom = make()
        enumerate_cuts(dom, 1e-6)
        assert readings(dom) == readings(make())

    @pytest.mark.parametrize("make, ts", [
        (pentagon_family_member, [Fraction(2, 5), Fraction(1, 5), Fraction(1, 2), Fraction(1, 10)]),
        (ConvexDomain.domain_L, [0.2, 0.05, 0.3, 0.01]),
    ], ids=["pentagon", "L"])
    def test_mediant_memo(self, make, ts):
        dom = make()
        tree = deepest_tree(dom, 1e-3 if not dom.is_polygon else 0)
        tree.mediant_constraints(ts[0])
        # the memo is the prefix of the size order that some call kept
        assert len(tree._lines) == tree.cut_count(ts[0])
        partial_cut_polygon(dom, ts[1])
        for t in ts:
            fresh = make()
            assert tree.mediant_constraints(t) == deepest_tree(fresh, t).mediant_constraints(t)
            front, fresh_front = wave_front(dom, t), wave_front(fresh, t)
            assert (front.vertices, front.normals) == (fresh_front.vertices, fresh_front.normals)

    def test_caustic_after_deeper_tree(self):
        for make, edges in [(ConvexDomain.domain_L, 988), (ConvexDomain.disk, 908)]:
            dom = make()
            enumerate_cuts(dom, 1e-5)
            graph = caustic(dom, 1e-3)
            assert len(graph.edges) == edges
            assert graph == caustic(make(), 1e-3)

    def test_domain_freed_without_cyclic_gc(self):
        gc.disable()
        try:
            dom = ConvexDomain.domain_L()
            enumerate_cuts(dom, 1e-3)
            r = weakref.ref(dom)
            del dom
            assert r() is None
        finally:
            gc.enable()

    def test_polygon_shallow_after_full(self):
        dom = pentagon_family_member()
        enumerate_cuts(dom, 0)
        tree = enumerate_cuts(dom, Fraction(2, 5))
        fresh = enumerate_cuts(pentagon_family_member(), Fraction(2, 5))
        assert tree.sizes() == [Fraction(1, 2)]
        assert _node_rows(tree) == _node_rows(fresh)
        assert _same_sizes(tree.leaf_sizes, fresh.leaf_sizes)
