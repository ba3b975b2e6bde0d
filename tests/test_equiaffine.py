import dataclasses
import math
import random
from fractions import Fraction

import mpmath
import numpy as np
import pytest

from tropzeta import cutting
from tropzeta.cutting import chart_frontier_wedges
from tropzeta.equiaffine import length_graph, length_parametric, length_via_triangles
from tropzeta.geometry import ConvexDomain


class TestParametric:
    def test_parabolic_arc(self):
        # gamma(t) = (1 - t^2, 2t - t^2): det(gamma', gamma'') = 4
        val = length_parametric(
            lambda t: (-2 * t, 2 - 2 * t), lambda t: (-2.0, -2.0), (0.0, 1.0)
        )
        assert val == pytest.approx(4 ** (1 / 3.0), rel=1e-10)

    def test_unit_circle(self):
        val = length_parametric(
            lambda t: (-np.sin(t), np.cos(t)),
            lambda t: (-np.cos(t), -np.sin(t)),
            (0.0, 2 * math.pi),
        )
        assert val == pytest.approx(2 * math.pi, rel=1e-10)

    def test_straight_segment(self):
        val = length_parametric(lambda t: (1.0, 2.0), lambda t: (0.0, 0.0), (0.0, 1.0))
        assert val == 0.0

    def test_vanishing_velocity_rejected(self):
        with pytest.raises(ValueError, match="velocity"):
            length_parametric(lambda t: (t, t), lambda t: (1.0, 1.0), (-0.5, 0.5))

    def test_unimodular_invariance(self):
        import random

        rng = random.Random(4)
        base = length_parametric(
            lambda t: (-2 * t, 2 - 2 * t), lambda t: (-2.0, -2.0), (0.0, 1.0)
        )
        for _ in range(3):
            m = [[1, 0], [0, 1]]
            for _ in range(4):
                k = rng.randint(-3, 3)
                if rng.random() < 0.5:
                    m = [[m[0][0] + k * m[1][0], m[0][1] + k * m[1][1]], m[1]]
                else:
                    m = [m[0], [m[1][0] + k * m[0][0], m[1][1] + k * m[0][1]]]
            (a, b), (c, d) = m

            def td1(t, a=a, b=b, c=c, d=d):
                dx, dy = -2 * t, 2 - 2 * t
                return (a * dx + b * dy, c * dx + d * dy)

            def td2(t, a=a, b=b, c=c, d=d):
                return (-2 * a - 2 * b, -2 * c - 2 * d)

            val = length_parametric(td1, td2, (0.0, 1.0))
            assert val == pytest.approx(base, rel=1e-9)

    def test_additivity(self):
        whole = length_parametric(
            lambda t: (-2 * t, 2 - 2 * t), lambda t: (-2.0, -2.0), (0.0, 1.0)
        )
        first = length_parametric(
            lambda t: (-2 * t, 2 - 2 * t), lambda t: (-2.0, -2.0), (0.0, 0.37)
        )
        second = length_parametric(
            lambda t: (-2 * t, 2 - 2 * t), lambda t: (-2.0, -2.0), (0.37, 1.0)
        )
        assert first + second == pytest.approx(whole, abs=1e-10)


class TestGraph:
    def test_quadratic(self):
        assert length_graph(lambda x: 1.0, (0.0, 1.0)) == pytest.approx(1.0, rel=1e-10)

    def test_scaled_quadratic(self):
        assert length_graph(lambda x: 4.0, (0.0, 1.0)) == pytest.approx(
            4 ** (1 / 3.0), rel=1e-10
        )

    def test_parabola_chart_of_L(self):
        chart = ConvexDomain.domain_L().charts[0]
        val = length_graph(chart.d2g, (0.0, 1.0))
        assert val == pytest.approx(4 ** (1 / 3.0), rel=1e-8)

    def test_circle_chart(self):
        chart = ConvexDomain.disk(1.0).charts[0]
        val = length_graph(chart.d2g, (0.0, 1.0))
        assert val == pytest.approx(2 * math.pi / 4, rel=1e-7)

    def test_nonpositive_rejected(self):
        with pytest.raises(ValueError, match="nonpositive"):
            length_graph(lambda x: -1.0, (0.0, 1.0))


class TestTriangleRoute:
    def test_single_root_triangle_parabola_exact(self):
        # parabola pieces are affine images of each other: the support
        # triangle of the whole arc already gives 2 (1/2)^(1/3) = 4^(1/3)
        chart = ConvexDomain.domain_L().charts[0]
        assert length_via_triangles(chart, 0.75) == pytest.approx(
            4 ** (1 / 3.0), rel=1e-9
        )

    def test_converges_to_graph_value(self):
        chart = ConvexDomain.domain_L().charts[0]
        target = 4 ** (1 / 3.0)
        assert abs(length_via_triangles(chart, 1e-5) / target - 1) < 0.02

    def test_monotone_refinement_disk(self):
        # the circle is not parabola-exact, so the refinement error is
        # visible and must shrink by >= 1.5 per eps / 4
        chart = ConvexDomain.disk(1.0).charts[0]
        target = 2 * math.pi / 4
        errs = [
            abs(length_via_triangles(chart, e) - target) for e in (1e-3, 1e-3 / 4, 1e-3 / 16)
        ]
        assert errs[0] / errs[1] >= 1.5
        assert errs[1] / errs[2] >= 1.5

    def test_disk_total(self):
        dom = ConvexDomain.disk(1.0)
        assert abs(length_via_triangles(dom, 1e-5) / (2 * math.pi) - 1) < 0.01

    def test_whole_boundary_of_L(self):
        dom = ConvexDomain.domain_L()
        target = 4 ** (4 / 3.0)
        assert abs(length_via_triangles(dom, 1e-5) / target - 1) < 0.02

    def test_polygon_is_zero(self):
        assert length_via_triangles(ConvexDomain.rectangle(3, 2), 1e-3) == 0.0

    @pytest.mark.parametrize("eps", [1e-3, 1e-5, 1e-7])
    @pytest.mark.parametrize("make, target", [
        (ConvexDomain.domain_L, 4 ** (4 / 3.0)),
        (ConvexDomain.parabolic_triangle, 2 ** (2 / 3.0)),
    ], ids=["L", "parabolic_triangle"])
    def test_parabola_charts_total_is_exact(self, make, target, eps):
        # the pieces are 2^(2/3) / (S_u S_v), and 1/(S_u S_v) splits into the
        # pieces of the two child wedges, so every frontier sums to the root's
        assert length_via_triangles(make(), eps) == pytest.approx(target, rel=1e-14, abs=0)

    @pytest.mark.parametrize("make", [ConvexDomain.domain_L, ConvexDomain.disk,
                                      ConvexDomain.parabolic_triangle],
                             ids=["L", "disk", "parabolic_triangle"])
    def test_domain_is_descended_once(self, make, monkeypatch):
        # one descent for all charts, and the same wedges, so the same value
        # as the charts' single-chart routes summed in order
        grow, calls = cutting._grow, []

        def counting_grow(charts, eps, *args):
            calls.append(len(charts))
            return grow(charts, eps, *args)

        dom = make()
        monkeypatch.setattr(cutting, "_grow", counting_grow)
        value = length_via_triangles(dom, 1e-4)
        assert calls == [len(dom.charts)]
        assert value == sum(length_via_triangles(chart, 1e-4) for chart in dom.charts)


class TestTriangleFallback:
    """A chart with graph data and no triangle_area oracle gets one from its
    graph, at the tangency points of ArcChart.tangency_x (so do the
    polynomial-graph charts: tests/test_cutting.py); a chart with neither
    is refused."""

    @pytest.mark.parametrize("make", [ConvexDomain.domain_L, ConvexDomain.disk],
                             ids=["L", "disk"])
    def test_scalar_path_agrees_with_oracle(self, make):
        for chart in make().charts:
            scalar = dataclasses.replace(chart, triangle_area=None)
            assert length_via_triangles(scalar, 1e-4) == pytest.approx(
                length_via_triangles(chart, 1e-4), rel=1e-9)

    def test_oracle_needs_no_graph_data(self):
        chart = dataclasses.replace(ConvexDomain.domain_L().charts[0], g=None, dg=None)
        assert length_via_triangles(chart, 1e-3) == pytest.approx(4 ** (1 / 3.0), rel=1e-14)
        with pytest.raises(ValueError, match="graph data"):
            length_via_triangles(dataclasses.replace(chart, triangle_area=None), 1e-3)

    def test_d_alpha_raises_before_descent(self, monkeypatch):
        def no_grow(*args):
            raise AssertionError("descended")

        monkeypatch.setattr(cutting, "_grow", no_grow)
        with pytest.raises(ValueError, match="graph data"):
            length_via_triangles(ConvexDomain.d_alpha(0.5, 1000), 1e-3)


def _deep_wedges(chart, eps, k=40, seed=0):
    """The k frontier wedges with the longest normals, and k more at random."""
    wedges = chart_frontier_wedges([chart], eps)[0]
    order = np.argsort(-wedges.sum(axis=1), kind="stable")
    drawn = random.Random(seed).sample(range(len(wedges)), k)
    return wedges[sorted(set(order[:k].tolist()) | set(drawn))].tolist()


def _exact_area(point, wedge):
    """p q / 2 from the tangency points P_u, P_v: p = u.(P_v - P_u) and
    q = v.(P_u - P_v)."""
    a1, b1, a2, b2 = wedge
    (x1, y1), (x2, y2) = point(a1, b1), point(a2, b2)
    p = a1 * (x2 - x1) + b1 * (y2 - y1)
    q = a2 * (x1 - x2) + b2 * (y1 - y2)
    return p * q / 2


class TestTriangleAudit:
    """Support-triangle areas of deep frontier wedges of every chart with a
    triangle_area oracle against 50-digit mpmath (or exact) values.  Each
    closed form is a handful of roundings away from the true area."""

    ULP = 2.0**-53
    EPS = 1e-7

    @pytest.mark.parametrize("radius", [1.0, 2.5])
    def test_disk(self, radius):
        chart = ConvexDomain.disk(radius).charts[0]
        wedges = _deep_wedges(chart, self.EPS)
        got = chart.triangle_area(*np.array(wedges, dtype=np.int64).T)
        with mpmath.workdps(50):
            r = mpmath.mpf(radius)

            def point(a, b):  # c - r u/|u|, c = (r, r) the chart's center
                n = mpmath.hypot(a, b)
                return r - r * a / n, r - r * b / n

            for area, wedge in zip(got.tolist(), wedges):
                exact = _exact_area(point, wedge)
                assert abs(area - exact) <= 8 * self.ULP * exact

    def test_parabola(self):
        def point(a, b):  # g(x) = (1 - sqrt x)^2, g'(x) = -a/b
            s = a + b
            return Fraction(b * b, s * s), Fraction(a * a, s * s)

        self._check_exact(ConvexDomain.domain_L().charts[0], point)

    def test_parabolic_triangle(self):
        def lower(a, b):
            s = 2 * a + b
            return Fraction(b * b, 2 * s * s), Fraction(a * a, s * s)

        def upper(a, b):  # the x <-> y mirror of the lower chart
            y, x = lower(b, a)
            return x, y

        charts = ConvexDomain.parabolic_triangle().charts
        for chart, point in zip(charts, (lower, upper)):
            self._check_exact(chart, point)

    def _check_exact(self, chart, point):
        wedges = _deep_wedges(chart, self.EPS)
        got = chart.triangle_area(*np.array(wedges, dtype=np.int64).T)
        for area, wedge in zip(got.tolist(), wedges):
            for a, b in (wedge[:2], wedge[2:]):  # the points touch the arc
                x, y = point(a, b)
                assert a * x + b * y == chart.support(a, b)
            exact = _exact_area(point, wedge)
            assert abs(Fraction(area) - exact) <= 4 * self.ULP * exact
