import itertools
import random
from fractions import Fraction

import pytest
from test_random_polygons import convex_hull

from tropzeta.geometry import ArcChart, ConvexDomain, Polygon
from tropzeta.minimal import (
    _max_of_min_slacks,
    compute_minimal_model,
    correction_h,
    k_squared,
    minimal_model_of,
    segment_model_zeta,
)


class TestComputeMinimalModel:
    def test_unit_triangle_is_its_own_model(self):
        dom = ConvexDomain.from_polygon([(0, 0), (1, 0), (0, 1)])
        mm = compute_minimal_model(dom)
        assert mm.m == Fraction(1, 3)
        assert len(mm.max_locus) == 1
        assert mm.max_locus[0] == (Fraction(1, 3), Fraction(1, 3))
        assert set(map(tuple, mm.polygon.vertices)) == {(0, 0), (1, 0), (0, 1)}
        assert mm.polygon.lattice_perimeter() == 3
        assert mm.k == 9
        assert mm.type_tag == "reflexive_point"
        # rescale by 1/m recenters to a reflexive polygon: one interior point
        assert mm.type_params.get("interior_lattice_points") == [(0, 0)]

    def test_rectangle(self):
        dom = ConvexDomain.rectangle(3, 2)
        mm = compute_minimal_model(dom)
        assert mm.m == 1
        assert mm.l == 1
        assert mm.max_locus == ((1, 1), (2, 1))
        assert mm.k == 8
        assert mm.type_tag == "segment_branching"

    def test_square_reflexive(self):
        dom = ConvexDomain.from_polygon([(-1, -1), (1, -1), (1, 1), (-1, 1)])
        mm = compute_minimal_model(dom)
        assert mm.m == 1 and mm.l == 0 and mm.k == 8
        assert mm.type_tag == "reflexive_point"

    def test_domain_L_model_is_square(self):
        mm = minimal_model_of(ConvexDomain.domain_L())
        assert set(map(tuple, mm.polygon.vertices)) == {(-1, -1), (1, -1), (1, 1), (-1, 1)}
        assert mm.m == 1 and mm.l == 0 and mm.k == 8

    def test_disk_model_is_square(self):
        mm = minimal_model_of(ConvexDomain.disk(1.0))
        verts = {(round(float(x), 9), round(float(y), 9)) for x, y in mm.polygon.vertices}
        assert verts == {(-1, -1), (1, -1), (1, 1), (-1, 1)}
        assert float(mm.m) == pytest.approx(1.0)

    def test_parabolic_triangle_model(self):
        mm = minimal_model_of(ConvexDomain.parabolic_triangle())
        assert mm.m == Fraction(1, 4)
        assert mm.l == Fraction(1, 4)
        assert mm.k == 8
        assert set(map(tuple, mm.polygon.vertices)) == {
            (Fraction(1, 2), 0), (1, 0), (0, 1), (0, Fraction(1, 2))
        }
        assert mm.type_tag == "segment_branching"

    def test_cut_corner_square(self):
        # square [0,3]^2 with the triangle (0,0),(2,0),(0,1) removed:
        # minimal model is the full square
        dom = ConvexDomain.from_polygon([(2, 0), (3, 0), (3, 3), (0, 3), (0, 1)])
        mm = compute_minimal_model(dom)
        assert set(map(tuple, mm.polygon.vertices)) == {(0, 0), (3, 0), (3, 3), (0, 3)}
        assert mm.m == Fraction(3, 2)

    def test_rho_agreement_near_max_locus(self):
        dom = ConvexDomain.from_polygon([(2, 0), (3, 0), (3, 3), (0, 3), (0, 1)])
        mm = compute_minimal_model(dom)
        center = mm.max_locus[0]
        for dx, dy in [(0, 0), (Fraction(1, 10), 0), (0, -Fraction(1, 10))]:
            x = (center[0] + dx, center[1] + dy)
            assert dom.polygon.rho(x) == mm.polygon.rho(x)

    def test_degenerate_trapezoid(self):
        # Z-shaped trapezoid with all-A1 corners; l = 3, m = 1
        dom = ConvexDomain.from_polygon([(0.5, -1), (3.5, 1), (-1.5, 1), (-2.5, -1)])
        dom = ConvexDomain.from_polygon(
            [(Fraction(1, 2), -1), (Fraction(7, 2), 1), (Fraction(-3, 2), 1), (Fraction(-5, 2), -1)]
        )
        mm = compute_minimal_model(dom)
        assert mm.type_tag == "segment_degenerate"
        assert mm.m == 1 and mm.l == 3
        assert mm.k == 4
        assert mm.type_params["k1_minus_k2_abs"] == 1


class TestDeclaredFrame:
    """minimal_model_of checks each chart of a smooth domain against its
    frame corner once; the descent then takes the charts as declared."""

    @staticmethod
    def _square_with(chart):
        """Domain L's frame square and charts, the first replaced by chart."""
        dom = ConvexDomain.domain_L()
        return ConvexDomain.smooth(dom.hat_polygon.vertices, [chart] + dom.charts[1:])

    def test_chart_normals_must_be_the_corner_normals(self):
        # a positive lattice basis, but not the normals of the corner (-1, -1)
        sw = ConvexDomain.domain_L().charts[0]
        chart = ArcChart(corner=sw.corner, u1=(1, 0), u2=(1, 1), support=sw.support, exact=True)
        with pytest.raises(ValueError, match="do not match the minimal-model corner normals"):
            minimal_model_of(self._square_with(chart))

    def test_chart_corner_must_be_a_frame_vertex(self):
        sw = ConvexDomain.domain_L().charts[0]
        chart = ArcChart(corner=(Fraction(-1), Fraction(0)), u1=sw.u1, u2=sw.u2,
                         support=sw.support, exact=True)
        with pytest.raises(ValueError, match="not a vertex of the frame polygon"):
            minimal_model_of(self._square_with(chart))

    def test_one_chart_per_corner(self):
        dom = ConvexDomain.domain_L()
        twice = ConvexDomain.smooth(dom.hat_polygon.vertices, dom.charts + dom.charts[:1])
        with pytest.raises(ValueError, match="holds another chart"):
            minimal_model_of(twice)


# -- the brute-force vertex search, kept as an independent oracle ----------


def _solve3(rows, rhs):
    """Exact Cramer solve of a 3x3 system; None when singular."""
    (a, b, c), (d, e, f), (g, h, i) = rows
    det = a * (e * i - f * h) - b * (d * i - f * g) + c * (d * h - e * g)
    if det == 0:
        return None
    r1, r2, r3 = rhs
    dx = r1 * (e * i - f * h) - b * (r2 * i - f * r3) + c * (r2 * h - e * r3)
    dy = a * (r2 * i - f * r3) - r1 * (d * i - f * g) + c * (d * r3 - r2 * g)
    dz = a * (e * r3 - r2 * h) - b * (d * r3 - r2 * g) + r1 * (d * h - e * g)
    if isinstance(det, (Fraction, int)):
        det = Fraction(det)
    return (dx / det, dy / det, dz / det)


def _oracle_max_of_min_slacks(constraints):
    """m and M by trying every triple of constraints as an LP vertex and
    scanning all constraints for feasibility: O(n^4)."""
    exact = all(isinstance(h, (Fraction, int)) for _, h in constraints)
    tol = 0 if exact else 1e-9
    best_t, best_pts = None, []
    for triple in itertools.combinations(constraints, 3):
        sol = _solve3([(u[0], u[1], -1) for u, _h in triple], [h for _u, h in triple])
        if sol is None:
            continue
        x, y, t = sol
        if any(u[0] * x + u[1] * y - h < t - tol for u, h in constraints):
            continue
        if best_t is None or t > best_t + tol:
            best_t, best_pts = t, [(x, y)]
        elif t == best_t or (not exact and abs(t - best_t) <= tol * (1 + abs(float(t)))):
            best_pts.append((x, y))
    uniq = []
    for p in best_pts:
        if not any(p == q if exact else max(abs(p[0] - q[0]), abs(p[1] - q[1])) < 1e-9
                   for q in uniq):
            uniq.append(p)
    locus = (uniq[0],) if len(uniq) == 1 else (min(uniq), max(uniq))
    return best_t, locus


def _assert_matches_oracle(poly: Polygon) -> int:
    constraints = poly.active_directions()
    m, locus = _max_of_min_slacks(constraints)
    m_ref, locus_ref = _oracle_max_of_min_slacks(constraints)
    assert m == m_ref and type(m) is type(m_ref)
    assert locus == locus_ref
    assert [type(c) for p in locus for c in p] == [type(c) for p in locus_ref for c in p]
    return len(locus)


def _small_rational_polygons(count: int):
    """Convex hulls of 3-7 points with coordinates k/q, |k| <= 6, q in {1, 2},
    keeping those with at most 16 active directions."""
    seed = 0
    while count:
        rng = random.Random(seed)
        seed += 1
        pts = [tuple(Fraction(rng.randint(-6, 6), rng.choice((1, 2))) for _ in range(2))
               for _ in range(rng.randint(3, 7))]
        hull = convex_hull(pts)
        if len(hull) >= 3 and len(Polygon(hull).active_directions()) <= 16:
            count -= 1
            yield Polygon(hull)


class TestMaxLocusAgainstVertexSearch:
    def test_small_rational_polygons(self):
        loci = [_assert_matches_oracle(poly) for poly in _small_rational_polygons(100)]
        assert loci.count(2) >= 30  # segment loci are well represented

    @pytest.mark.parametrize("make", [
        lambda: ConvexDomain.disk(1.0),
        lambda: ConvexDomain.disk(2.5),
        lambda: ConvexDomain.d_alpha(0.5, 1000),
    ], ids=["disk-1", "disk-2.5", "d_alpha"])
    def test_float_square_hats(self, make):
        assert _assert_matches_oracle(make().hat_polygon) == 1

    @pytest.mark.parametrize("matrix", [None, [[1, 1], [0, 1]], [[2, 1], [1, 1]], [[5, 2], [2, 1]]])
    @pytest.mark.parametrize("sides", [(3, 2), (5, 1), (Fraction(7, 2), Fraction(3, 2))])
    def test_rectangles_and_their_images(self, sides, matrix):
        poly = ConvexDomain.rectangle(*sides).polygon
        if matrix is not None:
            poly = poly.unimodular_image(matrix)
        assert _assert_matches_oracle(poly) == 2


class TestCorrectionH:
    def test_L_hat_is_eight(self):
        mm = minimal_model_of(ConvexDomain.domain_L())
        for s in [2, 3, Fraction(5, 2)]:
            val = correction_h(mm, int(s) if s == int(s) else complex(s))
            assert float(complex(val).real) == pytest.approx(8.0)

    def test_rectangle_closed_form(self):
        mm = minimal_model_of(ConvexDomain.rectangle(3, 2))
        assert correction_h(mm, 2) == 12  # 8 + 2s at s = 2
        assert correction_h(mm, 1) == 10  # lattice perimeter

    def test_unit_triangle(self):
        mm = minimal_model_of(ConvexDomain.from_polygon([(0, 0), (1, 0), (0, 1)]))
        # H(s) = 9 (1/3)^s; at s = 2: 1, so Z(2) = 1/(s(s-1)) H = 1/2 = area
        assert correction_h(mm, 2) == 1
        assert correction_h(mm, 2) / (2 * 1) == Fraction(1, 2) == mm.polygon.area()


class TestSegmentModels:
    def test_degenerate_example(self):
        val = segment_model_zeta("segment_degenerate", {"l": 1, "m": 1, "k1": 0, "k2": 0}, 2)
        assert val.real == pytest.approx(4.0)  # parallelogram area 2(l+m)m = 4

    def test_degenerate_at_2_general(self):
        for l, m in [(1.0, 1.0), (2.0, 0.5), (3.0, 1.0)]:
            val = segment_model_zeta("segment_degenerate", {"l": l, "m": m, "k1": 1, "k2": 0}, 2)
            assert val.real == pytest.approx(2 * (l + m) * m)

    def test_branching_example(self):
        params = {"l": 1, "m": 1, "n1": 0, "n2": 0, "n3": 0, "n4": 0}
        assert segment_model_zeta("segment_branching", params, 2).real == pytest.approx(4.0)

    def test_constraint_violation_named(self):
        with pytest.raises(ValueError, match="2 - n1 - n2"):
            segment_model_zeta(
                "segment_branching", {"l": 1, "m": 1, "n1": 2, "n2": 1, "n3": 0, "n4": 0}, 2
            )

    def test_consistency_with_correction_h(self):
        import random

        rng = random.Random(5)
        cases = [
            ("segment_degenerate", {"l": 2.0, "m": 0.75, "k1": 1, "k2": 1}, 4.0),
            ("segment_branching", {"l": 1.5, "m": 1.0, "n1": 1, "n2": 1, "n3": -1, "n4": -1}, 8.0),
            ("segment_mixed", {"l": 2.0, "m": 1.0, "k": 0, "n1": 0, "n2": 0}, 4.0),
        ]
        for tag, params, coeff in cases:
            l, m = params["l"], params["m"]
            for _ in range(20):
                s = complex(1.2 + 3 * rng.random(), 2 * rng.random() - 1)
                z = segment_model_zeta(tag, params, s)
                h = m ** (s - 1) * (2 * l * s + coeff * m)
                assert abs(s * (s - 1) * z - h) <= 1e-12 * max(1.0, abs(h))

    def test_z_at_2_is_area_on_taxonomy_members(self):
        # degenerate trapezoid with k1=1, k2=0, l=3, m=1 has area 8
        val = segment_model_zeta("segment_degenerate", {"l": 3.0, "m": 1.0, "k1": 1, "k2": 0}, 2)
        assert val.real == pytest.approx(8.0)


class TestKSquared:
    def test_projective_plane(self):
        tri = Polygon([(0, 0), (1, 0), (0, 1)])
        assert k_squared(tri) == 9

    def test_quadric_square(self):
        sq = Polygon([(0, 0), (1, 0), (1, 1), (0, 1)])
        assert k_squared(sq) == 8

    def test_blowup_decrements(self):
        cut = Polygon([(1, 0), (2, 0), (2, 2), (0, 2), (0, 1)])
        assert k_squared(cut) == 7

    def test_a1_crepant(self):
        # cut square with an A_1 corner: K^2 = 8 - 2 cuts = 6
        poly = Polygon([(2, 0), (3, 0), (3, 3), (0, 3), (0, 1)])
        assert k_squared(poly) == 6

    def test_non_a_corner_rejected(self):
        poly = Polygon([(0, 0), (5, -2), (6, 6), (-4, 8)])
        with pytest.raises(ValueError, match="not of A_n type"):
            k_squared(poly)

    def test_k_equals_prop6_k_for_models(self):
        for dom in [
            ConvexDomain.rectangle(3, 2),
            ConvexDomain.from_polygon([(0, 0), (1, 0), (0, 1)]),
            ConvexDomain.from_polygon([(-1, -1), (1, -1), (1, 1), (-1, 1)]),
        ]:
            mm = minimal_model_of(dom)
            assert k_squared(mm.polygon) == mm.k
