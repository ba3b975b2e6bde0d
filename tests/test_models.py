import math
from fractions import Fraction

import numpy as np
import pytest

from tropzeta import models
from tropzeta.farey import SmoothWeight, endpoint_model
from tropzeta.lattice import UnimodularQuadruple, stern_brocot_quadruples


def riemann_zeta_eta(s: complex, n: int = 40) -> complex:
    """zeta via the alternating eta series with Cohen-Rodriguez Villegas-Zagier
    acceleration (n terms); independent of the Euler-Maclaurin route."""
    s = complex(s)
    d = (3 + math.sqrt(8)) ** n
    d = (d + 1 / d) / 2
    b, c, out = -1.0, -d, 0j
    for k in range(n):
        c = b - c
        out += c * (k + 1) ** (-s)
        b *= (k + n) * (k - n) / ((k + 0.5) * (k + 1))
    eta = out / d
    return eta / (1 - 2 ** (1 - s))


class TestRiemannZeta:
    def test_zeta_2(self):
        assert models.riemann_zeta(2).real == pytest.approx(math.pi**2 / 6, rel=1e-13)

    def test_zeta_6(self):
        assert models.riemann_zeta(6).real == pytest.approx(math.pi**6 / 945, rel=1e-13)

    def test_two_routes_agree(self):
        for s in [2.4, 0.8, 1.5, 3 + 1j, 0.7 - 0.3j]:
            a = models.riemann_zeta(s)
            b = riemann_zeta_eta(s)
            assert abs(a - b) <= 1e-12 * max(abs(a), 1)

    def test_pole_raises(self):
        with pytest.raises(ValueError):
            models.riemann_zeta(1)


class TestParabola:
    def test_axis_directions(self):
        assert models.parabola_support(1, 0) == 0
        assert models.parabola_support(0, 1) == 0

    def test_diagonal(self):
        assert models.parabola_support(1, 1) == Fraction(1, 2)

    def test_2_3_by_independent_minimization(self):
        # min over t of 2 t^2 + 3 (1-t)^2 is at t = 3/5: 18/25 + 12/25 = 6/5
        assert models.parabola_support(2, 3) == Fraction(6, 5)

    def test_defect_examples(self):
        assert models.parabola_defect(UnimodularQuadruple(1, 0, 0, 1)) == Fraction(1, 2)
        assert models.parabola_defect(UnimodularQuadruple(1, 1, 0, 1)) == Fraction(1, 6)
        assert models.parabola_defect(UnimodularQuadruple(2, 1, 1, 1)) == Fraction(1, 30)

    def test_defect_equals_gamma_combination_to_60(self):
        # exact identity over every quadruple with a+b+c+d <= 60
        for quad in stern_brocot_quadruples(60):
            a, b, c, d = quad.as_tuple()
            gamma_comb = (
                models.parabola_support(a, b)
                + models.parabola_support(c, d)
                - models.parabola_support(a + c, b + d)
            )
            assert abs(gamma_comb) == models.parabola_defect(quad)

    def test_closed_forms_are_the_descent_oracles(self):
        # L's charts and the parabolic triangle's share the oracle objects of
        # models.parabola_form, which parabola_support/parabola_defect read
        from tropzeta.geometry import ConvexDomain

        form = models.parabola_form(1, 1)
        for chart in ConvexDomain.domain_L().charts:
            assert chart.support is form["support"]
            assert chart.defect_den is form["defect_den"]
        lower, upper = ConvexDomain.parabolic_triangle().charts
        assert lower.support is models.parabola_form(2, 1)["support"]
        assert upper.support is models.parabola_form(1, 2)["support"]
        for quad in stern_brocot_quadruples(30):
            a, b, c, d = quad.as_tuple()
            assert models.parabola_support(a, b) == form["support"](a, b)
            assert models.parabola_defect(quad) == Fraction(1, form["defect_den"](a, b, c, d))

    @pytest.mark.parametrize("a, b", [(-1, 2), (0, 0)])
    def test_support_rejects_bad_directions(self, a, b):
        with pytest.raises(ValueError):
            models.parabola_support(a, b)


def primitive_mordell_tornheim(s, bound):
    """The sum over coprime p, q <= bound of (p q (p + q))^(-s): 2^s times
    the quadratic weight's endpoint model, which sums the same pairs."""
    return 2 ** s * endpoint_model(SmoothWeight.quadratic(), s, bound).value


def partial_tail(sigma, bound, top):
    """The sum over p, q <= top with max(p, q) > bound of (p q (p + q))^-sigma."""
    q = np.arange(1, top + 1, dtype=np.float64)
    total = 0.0
    for lo in range(1, top + 1, 500):
        p = q[lo - 1:lo + 499, None]
        terms = (p * q * (p + q)) ** -sigma
        terms[(p <= bound) & (q <= bound)] = 0.0
        total += terms.sum()
    return total


class TestMordellTornheim:
    def test_hand_enumeration_s1_pmax3(self):
        # (1,1): 1/2; (1,2),(2,1): 1/6; (1,3),(3,1): 1/12; (2,3),(3,2): 1/30
        value = primitive_mordell_tornheim(1, 3)
        expected = Fraction(1, 2) + 2 * Fraction(1, 6) + 2 * Fraction(1, 12) + 2 * Fraction(1, 30)
        assert expected == Fraction(16, 15)
        assert value.real == pytest.approx(float(expected), rel=1e-12)

    def test_primitive_value_at_2_is_one_third(self):
        # zeta(2,2;2) = zeta(6)/3, so the primitive sum at s=2 is exactly 1/3
        value = primitive_mordell_tornheim(2, 2000)
        assert value.real == pytest.approx(1 / 3, abs=1e-8)

    def test_euler_factorization(self):
        # witten_su3(s) * 2^-s = primitive(s) * zeta(3s) at s = 2
        su3 = models.witten_su3(2, 1500).value
        prim = primitive_mordell_tornheim(2, 1500)
        z6 = models.riemann_zeta(6)
        assert abs(su3 * 2 ** (-2.0) - prim * z6) < 1e-9

    @pytest.mark.parametrize("sigma", [0.7, 0.8, 0.9, 1.0, 1.2, 2.0])
    @pytest.mark.parametrize("bound", [10, 60, 300])
    def test_tail_bound_holds(self, sigma, bound):
        # the pairs with bound < max(p, q) <= 8 bound are part of the tail
        assert models._mt_tail_bound(sigma, bound) >= partial_tail(sigma, bound, 8 * bound)

    def test_su3_tail_hint_is_the_bound(self):
        assert models.witten_su3(0.8, 100).tail_hint == 2 ** 0.8 * models._mt_tail_bound(0.8, 100)
        assert models.witten_su3(0.6, 100).tail_hint is None

    def test_su3_at_2(self):
        est = models.witten_su3(2, 2000)
        assert est.value.real == pytest.approx(4 * math.pi**6 / 945 / 3, abs=1e-6)


class TestZetaL:
    def test_value_at_2_is_area(self):
        assert models.zeta_L(2, cutoff=900).real == pytest.approx(10 / 3, abs=1e-7)

    def test_residue_at_zero(self):
        assert models.residue_zeta_L_zero() == Fraction(-32, 3)

    def test_residue_constants_consistent(self):
        # Res Z_L = (9/2) * 4 * (boundary constant) * 4^{1/3}
        per_arc = models.boundary_residue_constant() * 4 ** (1 / 3.0)
        assert models.residue_zeta_L_two_thirds() == pytest.approx(4.5 * 4 * per_arc, rel=1e-12)

    def test_su3_residue_vs_parabola_residue(self):
        # Res F_par = 2^{-2/3} Res zeta_SU3 / zeta(2) equals sqrt(3)Gamma^3/pi^3
        lhs = 2 ** (-2 / 3.0) * models.residue_su3_two_thirds() / (math.pi**2 / 6)
        rhs = models.boundary_residue_constant() * 4 ** (1 / 3.0)
        assert lhs == pytest.approx(rhs, rel=1e-12)

    def test_pole_raises(self):
        with pytest.raises(ValueError):
            models.zeta_L(1)


class TestDAlpha:
    def test_sizes_decrease_and_offsets_feasible(self):
        offs = models.d_alpha_offsets(0.5, 1000)
        assert offs[0] == 1.0
        assert offs[-1] < 2 * 2 * models.riemann_zeta(2).real

    def test_expected_series_matches_zeta_partial(self):
        alpha = 0.5
        val = models.d_alpha_expected_series(alpha, 2 * alpha, 10**4)
        partial = sum(n ** (-2.0) for n in range(1, 10**4 + 1))
        assert val.real == pytest.approx(partial, rel=1e-12)

    def test_alpha_range(self):
        with pytest.raises(ValueError):
            models.d_alpha_cut_sizes(1.2, 10)
