import math
import warnings
from fractions import Fraction

import mpmath
import numpy as np
import pytest

from tropzeta import estimates, farey, lattice, models
from tropzeta.estimates import adaptive_quadrature, term_powers
from tropzeta.farey import (
    SmoothWeight,
    endpoint_model,
    farey_zeta,
    fejer_defect,
    h_kernel,
    h_kernel_integral,
    h_kernel_integral_quadrature,
    hata_basis,
    hata_coefficient,
    hata_reconstruct_grid,
    legendre_dual,
    residue_main_term,
    sigma_b,
)
from tropzeta.geometry import ConvexDomain
from tropzeta.lattice import (
    euclid_inverses,
    farey_from_denominators,
    mod_inverse,
    reduced_residues,
)


def interval(b, d):
    return farey_from_denominators(b, d)


def coprime_pairs_by_max(bound: int):
    """Coprime (b, d) with 1 <= b, d <= bound, ordered by max(b, d) ascending,
    ties broken lexicographically: the order in which the Farey sums add
    their terms (they build it on arrays, chunk by chunk)."""
    for m in range(1, bound + 1):
        # pairs with max exactly m: (m, d) and (b, m)
        pairs = [(m, d) for d in range(1, m + 1)] + [(b, m) for b in range(1, m)]
        for b, d in sorted(pairs):
            if math.gcd(b, d) == 1:
                yield (b, d)


class TestEnumerationOrder:
    def test_by_max_is_deterministic_and_complete(self):
        pairs = list(coprime_pairs_by_max(12))
        assert pairs == sorted(set(pairs), key=lambda bd: (max(bd), bd))
        expected = {
            (b, d)
            for b in range(1, 13)
            for d in range(1, 13)
            if math.gcd(b, d) == 1
        }
        assert set(pairs) == expected


class TestHataBasis:
    def test_mediant_is_one(self):
        for b, d in [(1, 1), (2, 3), (5, 7), (3, 8)]:
            iv = interval(b, d)
            assert hata_basis(iv, float(iv.mediant)) == pytest.approx(1.0)

    def test_endpoints_are_zero(self):
        iv = interval(2, 3)
        assert hata_basis(iv, float(iv.left)) == pytest.approx(0.0)
        assert hata_basis(iv, float(iv.right)) == pytest.approx(0.0)

    def test_outside_support_is_zero(self):
        iv = interval(2, 3)  # [1/3, 1/2]
        for x in (0.0, 0.2, 0.6, 1.0):
            assert hata_basis(iv, x) == pytest.approx(0.0)


class TestHataCoefficient:
    def test_full_interval_quadratic(self):
        w = SmoothWeight.quadratic()
        c_i, t_i = hata_coefficient(w, interval(1, 1))
        assert c_i == pytest.approx(-1 / 8)
        assert t_i == pytest.approx(-1 / 4)

    def test_linear_weight_vanishes(self):
        w = SmoothWeight.from_polynomial([3, 2])  # f = 3 + 2x
        for b, d in [(1, 1), (3, 4), (5, 2)]:
            c_i, t_i = hata_coefficient(w, interval(b, d))
            assert abs(c_i) < 5e-15 and abs(t_i) < 5e-14

    def test_quadratic_exact_formula(self):
        # T_I = -1/(2 b d (b+d)) exactly when f'' = 1
        w = SmoothWeight.quadratic()
        for b, d in [(1, 1), (2, 3), (7, 4), (10, 9)]:
            _, t_i = hata_coefficient(w, interval(b, d))
            assert t_i == pytest.approx(-1 / (2 * b * d * (b + d)), rel=1e-12)

    def test_mean_value_bracket(self):
        # -T_I * 2bd(b+d) lies between min and max of f'' on I
        w = SmoothWeight.from_polynomial([0, 0, 0.5, 1 / 10])  # f'' = 1 + 3x/5
        for b, d in [(1, 1), (2, 3), (5, 8), (9, 2)]:
            iv = interval(b, d)
            _, t_i = hata_coefficient(w, iv)
            val = -t_i * 2 * b * d * (b + d)
            lo = min(w.d2f(float(iv.left)), w.d2f(float(iv.right)))
            hi = max(w.d2f(float(iv.left)), w.d2f(float(iv.right)))
            assert lo - 1e-12 <= val <= hi + 1e-12


ULP = 2.0 ** -52


def sample_intervals(bound, count, seed=5):
    """count Farey intervals with max(b, d) <= bound, most near the bound,
    with the extreme ones (1, bound), (bound, 1), (bound - 1, bound),
    (bound, bound - 1) and (1, 1)."""
    rng = np.random.default_rng(seed)
    pairs = [(1, bound), (bound, 1), (bound - 1, bound), (bound, bound - 1), (1, 1)]
    while len(pairs) < count:
        b, d = int(rng.integers(1, bound + 1)), int(rng.integers(3 * bound // 4, bound + 1))
        if math.gcd(b, d) == 1:
            pairs.append((b, d) if rng.random() < 0.5 else (d, b))
    return [farey_from_denominators(b, d) for b, d in pairs]


def three_point_t(f, iv):
    """T_I = (b+d) f(m) - b f(a/b) - d f(c/d) in mpmath's working precision."""
    a, b, c, d = (mpmath.mpf(v) for v in (iv.a, iv.b, iv.c, iv.d))
    return (b + d) * f((a + c) / (b + d)) - b * f(a / b) - d * f(c / d)


CUBIC = [0.0, 0.3, 1.0, 0.2]
# each weight with its f in mpmath: the duals' g~ in closed form
RULE_WEIGHTS = {
    "quadratic": (SmoothWeight.quadratic, lambda u: u * u / 2),
    "cubic": (lambda: SmoothWeight.from_polynomial(CUBIC),
              lambda u: mpmath.polyval(CUBIC[::-1], u)),
    "dual-L": (lambda: legendre_dual(ConvexDomain.domain_L().charts[0]), lambda u: -u / (1 + u)),
    "dual-disk": (lambda: legendre_dual(ConvexDomain.disk(1.0).charts[0]),
                  lambda u: mpmath.sqrt(1 + u * u) - 1 - u),
}


class TestTRule:
    @pytest.mark.parametrize("wname", RULE_WEIGHTS)
    def test_matches_mpmath_at_2000(self, wname):
        # the three-point formula in floats is off by 1e-2 here; the rule is
        # within 2 ulp (measured 0.5, 0.8, 0.5 and 1.7), and its entry on
        # columns equals its call on the one interval
        make, f = RULE_WEIGHTS[wname]
        weight = make()
        ivs = sample_intervals(2000, 300)
        cols = farey._Intervals(*(np.array([getattr(iv, k) for iv in ivs]) for k in "cdab"))
        _, t_cols = hata_coefficient(weight, cols)
        with mpmath.workdps(50):
            for iv, t_i in zip(ivs, t_cols.tolist()):
                assert hata_coefficient(weight, iv)[1] == t_i
                exact = three_point_t(f, iv)
                assert abs(t_i - exact) <= 4 * ULP * abs(exact)

    @pytest.mark.parametrize("s", [0.8, 0.75 + 2j])
    def test_quadratic_series_is_its_endpoint_model(self, s):
        # equal for constant curvature; they differ by the roundings of
        # 152231 terms (5.4e-14 and 1.4e-14 measured)
        w = SmoothWeight.quadratic()
        fz, ep = farey_zeta(w, s, 500), endpoint_model(w, s, 500)
        assert fz.terms_used == ep.terms_used == 152231
        assert abs(fz.value - ep.value) <= 1e-13 * abs(ep.value)


class TestTailBound:
    @pytest.mark.parametrize("sigma", [0.7, 0.8, 0.9, 1.2, 2.0])
    @pytest.mark.parametrize("wname", ["quadratic", "cubic"])
    def test_bounds_the_partial_tail_to_8b(self, sigma, wname):
        weight = RULE_WEIGHTS[wname][0]()
        for fn in (farey_zeta, endpoint_model):
            for bound in (10, 40):
                head = fn(weight, sigma, bound)
                partial = fn(weight, sigma, 8 * bound).value - head.value
                assert 0 < partial.real <= head.tail_bound
                assert fn(weight, sigma + 3j, bound).tail_bound == head.tail_bound

    def test_unset_without_a_curvature_bound_or_at_a_divergent_sigma(self):
        dual = legendre_dual(ConvexDomain.domain_L().charts[0])
        assert farey_zeta(dual, 0.8, 10).tail_bound is None
        assert endpoint_model(dual, 0.8, 10).tail_bound is None
        for sigma in (2 / 3, 0.6):
            assert farey_zeta(SmoothWeight.quadratic(), sigma, 10).tail_bound is None

    def test_polynomial_curvature_bound(self):
        # sum k (k-1) |c_k|: 2 |c_2| + 6 |c_3| for the cubic
        assert SmoothWeight.from_polynomial(CUBIC).curvature_bound == pytest.approx(3.2)
        assert SmoothWeight.from_polynomial([0, 0, 0.5]).curvature_bound == 1.0


class TestHataReconstruct:
    def test_linear_is_exact(self):
        w = SmoothWeight.from_polynomial([1, -2])
        xs = [0.0, 0.3, 0.71, 1.0]
        for b in (1, 4, 16):
            for x, val in zip(xs, hata_reconstruct_grid(w, b, xs)):
                assert val == pytest.approx(w.f(x), abs=1e-14)

    def test_hand_value_at_half(self):
        # B = 2: only interval [0/1, 1/1]: 1/2 * 1/2 + (-1/8)(1) = 1/8 = f(1/2)
        w = SmoothWeight.quadratic()
        assert hata_reconstruct_grid(w, 2, [0.5])[0] == pytest.approx(1 / 8, abs=1e-15)

    def test_uniform_convergence_monotone(self):
        w = SmoothWeight.quadratic()
        xs = np.linspace(0, 1, 101)
        sups = []
        for bound in (4, 16, 64, 256):
            vals = hata_reconstruct_grid(w, bound, xs)
            err = max(abs(float(v) - w.f(float(x))) for x, v in zip(xs, vals))
            sups.append(err)
        assert sups[0] > sups[1] > sups[2] > sups[3]


class TestFareyZeta:
    def test_quadratic_matches_mordell_tornheim_half(self):
        # Z_f(1) for f = x^2/2: term-by-term equal to half the primitive
        # Mordell-Tornheim sum over the same coprime index set, and
        # converging to MT(1)/2 = 1
        bound = 300
        est = farey_zeta(SmoothWeight.quadratic(), 1.0, bound)
        same_set = sum(
            1.0 / (2 * b * d * (b + d))
            for b in range(1, bound + 1)
            for d in range(1, bound + 1)
            if math.gcd(b, d) == 1
        )
        assert complex(est.value).real == pytest.approx(same_set, rel=1e-12)
        # tail over max(b,d) > B decays like log(B)/B
        assert complex(est.value).real == pytest.approx(1.0, abs=0.02)

    def test_linear_is_zero(self):
        est = farey_zeta(SmoothWeight.from_polynomial([0, 1]), 1.0, 30)
        assert abs(complex(est.value)) < 1e-12

    @pytest.mark.parametrize("bound", [0, -5])
    def test_bound_below_one_refused(self, bound):
        # both sums would be empty: zero values with a negative cutoff
        for fn in (farey_zeta, endpoint_model):
            with pytest.raises(ValueError, match="bound"):
                fn(SmoothWeight.quadratic(), 2.0, bound)

    def test_endpoint_model_equals_farey_zeta_for_constant_curvature(self):
        w = SmoothWeight.quadratic()
        for s in (1.0, 0.8, 2.0):
            a = complex(farey_zeta(w, s, 60).value)
            b = complex(endpoint_model(w, s, 60).value)
            assert a == pytest.approx(b, rel=1e-12)

    def test_endpoint_model_outside_the_float_range(self):
        # at s = -150, 2^-150 / (b d (b+d))^-150 overflows in the quotient
        # where both powers are finite; at s = -300 the denominator
        # underflows to 0
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            for s in (-150, -300, -300 + 1j):
                with pytest.raises(OverflowError, match="outside the float range"):
                    endpoint_model(SmoothWeight.quadratic(), s, 500)

    def test_endpoint_model_curvature_zero(self):
        # f'' = 6x - 3 is 0 at 1/2: its term is 0 at real s > 0, and the
        # power of 0 is refused at complex s
        w = SmoothWeight.from_polynomial([0, 0, -1.5, 1])
        assert math.isfinite(complex(endpoint_model(w, 2.0, 20).value).real)
        with pytest.raises(ValueError, match="0.0 to the power"):
            endpoint_model(w, 0.7 + 1j, 20)

    def test_endpoint_model_b1(self):
        # single interval [0/1, 1/1]: term 2^-s |f''(1)|^s / (b d (b+d))^s
        w = SmoothWeight.from_polynomial([0, 0, 0.5, 1 / 6])  # f'' = 1 + x
        s = 1.3
        est = endpoint_model(w, s, 1)
        assert est.terms_used == 1
        assert complex(est.value).real == pytest.approx(2.0 ** (-s) * 2.0**s / 2.0**s)

    def test_endpoint_model_difference_stabilizes(self):
        # Z_f - Z^end converges absolutely for Re(s) > 1/2 (the holomorphic-
        # difference principle): successive partial differences are Cauchy
        w = SmoothWeight.from_polynomial([0, 0, 0.5, 1 / 6])  # f'' = x + 1
        diffs = []
        for bound in (20, 50, 120, 240):
            a = complex(farey_zeta(w, 1.0, bound).value).real
            b = complex(endpoint_model(w, 1.0, bound).value).real
            diffs.append(a - b)
        deltas = [abs(d2 - d1) for d1, d2 in zip(diffs, diffs[1:])]
        assert deltas[0] > deltas[1] > deltas[2]
        assert deltas[2] < 5e-4

    def test_removing_two_intervals_changes_exactly_those_terms(self):
        w = SmoothWeight.quadratic()
        s = 1.0
        full = complex(farey_zeta(w, s, 12).value).real
        # remove the two intervals adjacent to 0/1: (b,d) = (1,1) and d-max ones
        iv1 = interval(1, 1)
        _, t1 = hata_coefficient(w, iv1)
        without = full - abs(t1) ** s
        assert without == pytest.approx(full - abs(t1), rel=1e-12)


class TestHKernel:
    def test_telescoping_at_s1(self):
        assert h_kernel(1.0, 1.0).real == pytest.approx(1.0, rel=1e-12)
        assert h_kernel(1.0, 0.5).real == pytest.approx(2.0, rel=1e-12)  # 1/u

    def test_brute_force_agreement(self):
        for s in (0.7, 0.66, 0.9, 0.55):
            for u in (0.1, 0.37, 1.0):
                k = np.arange(2 * 10**6)
                brute = float(((k + u) ** (-s) * (k + 1 + u) ** (-s)).sum())
                # brute truncation tail ~ K^(1-2s)/(2s-1)
                tail = (2e6) ** (1 - 2 * s) / (2 * s - 1)
                accel = h_kernel(s, u).real
                assert abs(accel - (brute + tail)) < 5e-7 * max(1, abs(accel))

    def test_integral_closed_form_vs_quadrature(self):
        for s in (2 / 3, 0.7, 0.8):
            closed = h_kernel_integral(s).real
            quad = h_kernel_integral_quadrature(s)
            assert abs(closed - quad) < 1e-9 * max(1, abs(closed))

    def test_lemma5_special_value(self):
        g = math.gamma
        target = g(1 / 3) ** 2 / g(2 / 3)
        assert h_kernel_integral(2 / 3).real == pytest.approx(target, rel=1e-12)
        assert h_kernel_integral_quadrature(2 / 3) == pytest.approx(target, abs=1e-9)

    def test_pointwise_bound_shape(self):
        # |H_s(u)| <= C_s u^-sigma with C_s = 2 + zeta(2s) (the k = 0 term
        # plus the tail, which is at most zeta(2 sigma))
        for s in (0.6, 2 / 3, 0.85):
            c_s = 2.0 + models.riemann_zeta(2 * s).real
            for u in np.linspace(0.01, 1.0, 25):
                val = abs(h_kernel(s, float(u)))
                assert val <= c_s * u ** (-s)

    def test_out_of_range(self):
        with pytest.raises(ValueError):
            h_kernel(0.4, 0.5)
        with pytest.raises(ValueError):
            h_kernel_integral(1.2)


class TestSigmaB:
    def test_b1_single_term(self):
        w = SmoothWeight.quadratic()
        val, main, dev = sigma_b(w, 0.7, 1)
        assert val == pytest.approx(h_kernel(0.7, 1.0))

    def test_constant_curvature_b7(self):
        w = SmoothWeight.quadratic()
        val, main, dev = sigma_b(w, 0.7, 7)
        direct = sum(h_kernel(0.7, r / 7) for r in range(1, 7))
        assert val == pytest.approx(direct, rel=1e-12)
        assert main == pytest.approx(6 * h_kernel_integral(0.7), rel=1e-10)

    @pytest.mark.parametrize("b", [0, -3])
    def test_b_below_one_refused(self, b):
        with pytest.raises(ValueError, match=f"b must be at least 1, got {b}"):
            sigma_b(SmoothWeight.quadratic(), 0.7, b)

    def test_deviation_growth_exponent(self):
        # fitted exponent of |Sigma_b - main| over primes <= (1 + sigma)/2 + 0.1
        w = SmoothWeight.from_polynomial([0, 0, 0.5, 1 / 10])
        primes = [101, 211, 401, 809, 1601, 3203, 4801]
        primes = [p for p in primes if all(p % q for q in range(2, int(p**0.5) + 1))]
        s = 0.7
        devs = [sigma_b(w, s, p)[2] for p in primes]
        slope, _, _ = _loglog(primes, devs)
        assert slope <= (1 + s) / 2 + 0.1


class TestWeightPowerIntegral:
    # two cubic weights of the farey-engine kind (f'' > 0 on [0, 1]) and a
    # weight whose f'' = 24 v^2 - 6 changes sign at v = 1/2
    WEIGHTS = [([0.0, 0.3, 1.0, 0.2], []), ([0.0, 0.1, 0.8, 0.3], []),
               ([0.0, 1.0, -3.0, 0.0, 2.0], [0.5])]

    @pytest.mark.parametrize("coeffs,breaks", WEIGHTS)
    @pytest.mark.parametrize("s", [0.65, 2 / 3, 0.8, 0.7 + 2j])
    def test_matches_mpmath(self, coeffs, breaks, s):
        weight = SmoothWeight.from_polynomial(coeffs)
        d2 = np.polynomial.Polynomial(coeffs).deriv(2).coef.tolist()
        with mpmath.workdps(30):
            exact = mpmath.quad(
                lambda v: abs(mpmath.polyval(d2[::-1], v)) ** mpmath.mpmathify(s),
                [0] + breaks + [1])
        assert abs(farey.weight_power_integral(weight, s) - complex(exact)) <= 1e-14

    @pytest.mark.parametrize("s, cells", [(0.65, 191), (2 / 3, 183), (0.8, 143), (0.7 + 2j, 191)])
    def test_each_cell_once(self, s, cells, monkeypatch):
        # the cusp weight bisects deep; each cell below the root is a half
        # of its parent and is evaluated once, with the value of a bisection
        # that evaluates every cell it visits
        weight = SmoothWeight.from_polynomial(self.WEIGHTS[2][0])
        rule, seen = estimates.gauss_legendre, []

        def counting(f, a, b):
            seen.append((a, b))
            return rule(f, a, b)

        def revisiting(f, a, b, tol, depth=24):
            whole, mid = rule(f, a, b), (a + b) / 2
            left, right = rule(f, a, mid), rule(f, mid, b)
            if abs(left + right - whole) <= tol or depth <= 0:
                return left + right
            return revisiting(f, a, mid, tol / 2, depth - 1) + revisiting(f, mid, b, tol / 2, depth - 1)

        monkeypatch.setattr(estimates, "gauss_legendre", counting)
        value = farey.weight_power_integral(weight, s)
        assert len(seen) == len(set(seen)) == cells
        monkeypatch.setattr(farey, "adaptive_quadrature", revisiting)
        assert value == farey.weight_power_integral(weight, s)


def _loglog(xs, ys):
    x = np.log(np.array(xs, dtype=float))
    y = np.log(np.array(ys, dtype=float))
    a = np.vstack([x, np.ones_like(x)]).T
    (slope, icept), res, *_ = np.linalg.lstsq(a, y, rcond=None)
    return float(slope), float(icept), res


class TestFejer:
    def test_constant_is_exact(self):
        assert fejer_defect(lambda x: 2.5, 64) < 1e-12

    def test_tent_ratio(self):
        g = lambda x: abs(x - 0.5)
        d64 = fejer_defect(g, 64)
        d16 = fejer_defect(g, 16)
        assert d64 <= d16 * (math.log(64) / 64) / (math.log(16) / 16) * 1.5

    def test_distance_to_integer_bound(self):
        g = lambda x: np.minimum(x % 1, 1 - x % 1)
        assert fejer_defect(g, 256) <= 10 * math.log(256) / 256


class TestResidueMainTerm:
    def test_constant_curvature(self):
        w = SmoothWeight.quadratic()
        g3 = math.gamma(1 / 3) ** 3
        target = math.sqrt(3) * g3 / (2 ** (2 / 3) * math.pi**3)
        assert residue_main_term(w) == pytest.approx(target, rel=1e-10)

    def test_scaling(self):
        w4 = SmoothWeight.from_polynomial([0, 0, 2])  # f'' = 4
        base = residue_main_term(SmoothWeight.quadratic())
        assert residue_main_term(w4) == pytest.approx(4 ** (2 / 3) * base, rel=1e-10)

    def test_consistency_with_boundary_residue_constant(self):
        # f'' = 1 main term equals Res Z_L / ((9/2) * 4^(1/3) * 4) since the
        # parabolic dual has integral of (g~'')^(2/3) equal to 4^(1/3)
        base = residue_main_term(SmoothWeight.quadratic())
        assert base == pytest.approx(models.boundary_residue_constant(), rel=1e-12)


def dual_errors(chart, g_dual, g_dual_pp):
    """Largest relative errors of legendre_dual's g~ and g~'' over
    u = k/1000, k = 1..1000, against 40-digit closed forms."""
    dual = legendre_dual(chart)
    err_f = err_pp = 0.0
    with mpmath.workdps(40):
        for k in range(1, 1001):
            u = k / 1000
            exact_f, exact_pp = g_dual(mpmath.mpf(u)), g_dual_pp(mpmath.mpf(u))
            err_f = max(err_f, float(abs((dual.f(u) - exact_f) / exact_f)))
            err_pp = max(err_pp, float(abs((dual.d2f(u) - exact_pp) / exact_pp)))
    return err_f, err_pp


class TestLegendreDual:
    def test_parabola_dual_curvature(self):
        chart = ConvexDomain.domain_L().charts[0]
        # g~(u) = -u/(1+u), g~'' = 2/(1+u)^3
        err_f, err_pp = dual_errors(chart, lambda u: -u / (1 + u), lambda u: 2 / (1 + u) ** 3)
        assert err_f <= 4e-15
        assert err_pp <= 4e-15
        dual = legendre_dual(chart)  # u = 0 is tangent at x_max = 1
        assert (dual.f(0.0), dual.d2f(0.0)) == (0.0, 2.0)

    @pytest.mark.parametrize("r", [1.0, 2.5])
    def test_disk_dual_curvature(self, r):
        # g~(u) = r (sqrt(1+u^2) - 1 - u), g~'' = r (1+u^2)^(-3/2); g~ is a
        # difference of nearly equal terms, so its bound is looser
        chart = ConvexDomain.disk(r).charts[0]
        err_f, err_pp = dual_errors(chart, lambda u: r * (mpmath.sqrt(1 + u * u) - 1 - u),
                                    lambda u: r * (1 + u * u) ** mpmath.mpf(-1.5))
        assert err_f <= 2e-13
        assert err_pp <= 4e-15

    def test_quadratic_self_duality(self):
        # g = x^2/2 on a wide range: dual over [0,1] has g~'' = 1
        from tropzeta.geometry import ArcChart

        chart = ArcChart(corner=(0, 0), u1=(1, 0), u2=(0, 1),
                         support=lambda a, b: 0,
                         g=lambda x: (1 - x) ** 2 / 2 + 0,  # placeholder
                         dg=None, d2g=None, x_max=1.0)
        # direct check instead: dual of g(x) = x^2/2 via the formulas
        # g'(x) = x covers [-1, 0] only after recentring; skip to curvature:
        # handled by the parabola case above; here check the error path
        with pytest.raises(ValueError):
            legendre_dual(ArcChart(corner=(0, 0), u1=(1, 0), u2=(0, 1),
                                   support=lambda a, b: 0))

    def test_dual_integral_identity(self):
        # int_0^1 (g~'')^(2/3) du = int_0^A (g'')^(1/3) dx
        chart = ConvexDomain.domain_L().charts[0]
        dual = legendre_dual(chart)
        lhs = adaptive_quadrature(lambda u: dual.d2f(u) ** (2 / 3), 0.0, 1.0, 1e-11)
        # analytic: int_0^1 (2/(1+u)^3)^(2/3) du = 2^(2/3) * (1 - 2^-1) = ...
        rhs_analytic = 2 ** (2 / 3) * (1 - 0.5)
        assert lhs == pytest.approx(rhs_analytic, abs=1e-8)
        # graph side on the slope-range [-1, 0] piece: x in [1/4, 1]
        rhs = adaptive_quadrature(lambda x: chart.d2g(x) ** (1 / 3), 0.25, 1.0, 1e-11)
        assert lhs == pytest.approx(rhs, abs=1e-8)

    def test_dual_coefficients_match_boundary_terms(self):
        # |T_I(g~)| = f_Gamma(a, b, c, d) for the parabolic chart
        chart = ConvexDomain.domain_L().charts[0]
        dual = legendre_dual(chart)
        checked = 0
        for b, d in coprime_pairs_by_max(10):
            iv = farey_from_denominators(b, d)
            _, t_i = hata_coefficient(dual, iv)
            expected = 1.0 / ((iv.a + iv.b) * (iv.c + iv.d) * (iv.a + iv.b + iv.c + iv.d))
            assert abs(t_i) == pytest.approx(expected, rel=4 * ULP, abs=0)
            checked += 1
            if checked >= 50:
                break


class TestEndpointResidueEquality:
    def test_counting_fits_agree_within_three_percent(self):
        # the multisets {|T_I(f)|} and {2^-1 |f''(a/b)| / (bd(b+d))} have the
        # same counting-fit residue (Lemma 3's conclusion, measured)
        w = SmoothWeight.from_polynomial([0, 0, 0.5, 1 / 10])  # x^2/2 + x^3/10
        eps_min = 1e-7
        # |T_I| >= eps needs 2 b d (b+d) <= max|f''| / eps
        cap = 1.6 / eps_min / 2
        exact_terms = []
        endpoint_terms = []
        b = 1
        while b * b * 2 * b <= cap or b == 1:
            d = 1
            while b * d * (b + d) <= cap:
                if math.gcd(b, d) == 1:
                    iv = farey_from_denominators(b, d)
                    _, t_i = hata_coefficient(w, iv)
                    exact_terms.append(abs(t_i))
                    endpoint_terms.append(
                        abs(w.d2f(iv.a / iv.b)) / (2 * b * d * (b + d))
                    )
                d += 1
            b += 1
        from tropzeta.zeta import fixed_slope_intercept

        ts = np.logspace(math.log10(eps_min), 0.6 * math.log10(eps_min), 40)

        def fit(terms):
            arr = np.sort(np.array(terms))[::-1]
            ns = np.array([np.searchsorted(-arr, -t, side="right") for t in ts], float)
            return fixed_slope_intercept(ts, ns, -2 / 3)

        c_exact = fit(exact_terms)
        c_endpoint = fit(endpoint_terms)
        assert abs(c_exact / c_endpoint - 1) < 0.03


class TestRegrouping:
    def test_eq4_exact_rational_regrouping_s1(self):
        # f'' = 1, s = 1: interval-enumerated partial sums equal the
        # b-grouped form with H_1(u) = 1/u, both in exact rationals, with the
        # same per-b telescoped closed form, b <= 200
        for b in range(1, 201):
            lhs = Fraction(0)
            for d in range(1, 10 * b + 1):
                if math.gcd(b, d) == 1:
                    lhs += Fraction(1, 2 * b * d * (b + d))
            # telescoped tail: sum over d > D in each residue class r:
            # sum_{k > k0} 1/((kb+r)(kb+r+b)) = 1/(b * (k0*b + r + b))
            for r in range(1, b + 1):
                if math.gcd(r, b) == 1:
                    k0 = (10 * b - r) // b  # largest k with kb + r <= 10b
                    lhs += Fraction(1, 2 * b) * Fraction(1, b * ((k0 + 1) * b + r))
            rhs = Fraction(0)
            for r in range(1, b + 1):
                if math.gcd(r, b) == 1:
                    rhs += Fraction(1, 2 * b**3) * Fraction(b, r)  # H_1(r/b) = b/r
            assert lhs == rhs

    def test_dirichlet_phi_identity(self):
        # sum phi(b)/b^(3s) -> zeta(3s-1)/zeta(3s) at s = 1.2
        from tropzeta.lattice import arithmetic_functions

        s = 1.2
        total = sum(arithmetic_functions(b)[0] / b ** (3 * s) for b in range(1, 4001))
        target = (models.riemann_zeta(3 * s - 1) / models.riemann_zeta(3 * s)).real
        # tail <= sum_{b > B} b^(1-3s) ~ B^(2-3s)/(3s-2)
        tail = 4000 ** (2 - 3 * s) / (3 * s - 2)
        assert abs(total - target) <= tail * 1.5


# ---------------------------------------------------------------------------
# per-pair oracles: the Farey sums one interval at a time in Python scalars,
# each base powered alone by term_powers on a one-element array; the array
# engine must match them bit for bit at bounds that span many chunks


def power_alone(v, sc):
    """v ** sc by term_powers on the one-element array of v."""
    return term_powers(np.array([float(v)]), sc)[0]


def oracle_farey_zeta(weight, s, bound):
    sc = complex(s)
    total = 0j
    count = 0
    for b, d in coprime_pairs_by_max(bound):
        _, t_i = hata_coefficient(weight, farey_from_denominators(b, d))
        if t_i != 0:
            total += power_alone(abs(t_i), sc)
        count += 1
    return total, count


def oracle_endpoint_model(weight, s, bound):
    sc = complex(s)
    total = 0j
    count = 0
    for b, d in coprime_pairs_by_max(bound):
        a = mod_inverse(d, b)
        num = term_powers(np.array([abs(weight.d2f(a / b))]), sc)
        den = term_powers(np.array([float(b * d * (b + d))]), sc)
        total += (num / den)[0]
        count += 1
    return 2.0 ** (-sc) * total, count


def oracle_hata_grid(weight, bound, xs):
    xs = np.asarray(xs, dtype=float)
    total = weight.f(0.0) + (weight.f(1.0) - weight.f(0.0)) * xs
    for b in range(1, bound):
        for d in range(1, bound - b + 1):
            if math.gcd(b, d) == 1:
                iv = farey_from_denominators(b, d)
                c_i, _ = hata_coefficient(weight, iv)
                # the tent on its support c/d <= x <= a/b only
                support = (iv.c / iv.d <= xs) & (xs <= iv.a / iv.b)
                total[support] += c_i * hata_basis(iv, xs[support])
    return total


def oracle_sigma_b_value(weight, s, b):
    sc = complex(s)
    rs = np.array(reduced_residues(b))
    rbars = np.array([mod_inverse(int(r), b) for r in rs])
    h_vals = farey.h_kernel_batch(sc, rs / b)
    f_vals = np.array([power_alone(abs(weight.d2f(v)), sc) for v in rbars / b])
    return complex((h_vals * f_vals).sum())


WEIGHTS = {
    "quadratic": SmoothWeight.quadratic(),
    "cubic": SmoothWeight.from_polynomial([0.0, 0.3, 1.0, 0.2]),
}
# real s (integer or not) gives float terms, complex s a phase as well
S_VALUES = [0.8, 1.0, 2.0, 0.7 + 1.3j]


@pytest.fixture
def small_chunks(monkeypatch):
    monkeypatch.setattr(farey, "_CHUNK_PAIRS", 37)


class TestArrayEngineOracle:
    def test_pair_chunks_follow_coprime_pairs_by_max(self, small_chunks):
        for bound in (1, 2, 7, 40):
            chunks = list(farey._farey_chunks(bound))
            pairs = [(int(b), int(d)) for chunk in chunks for b, d in zip(chunk.b, chunk.d)]
            assert pairs == list(coprime_pairs_by_max(bound))
        assert len(chunks) > 10

    def test_intervals_by_sum_order(self, small_chunks):
        # the rows of many small chunks, b + d <= bound, put in (b, d) order
        for bound in (1, 2, 3, 30, 200):
            iv = farey.farey_intervals_by_sum(bound)
            expected = [farey_from_denominators(b, d)
                        for b in range(1, bound) for d in range(1, bound - b + 1)
                        if math.gcd(b, d) == 1]
            assert list(zip(iv.c, iv.d, iv.a, iv.b)) == [(e.c, e.d, e.a, e.b) for e in expected]

    @pytest.mark.parametrize("wname", WEIGHTS)
    @pytest.mark.parametrize("s", S_VALUES)
    def test_farey_zeta_bit_for_bit(self, small_chunks, wname, s):
        est = farey_zeta(WEIGHTS[wname], s, 40)
        assert (est.value, est.terms_used) == oracle_farey_zeta(WEIGHTS[wname], s, 40)

    @pytest.mark.parametrize("wname", WEIGHTS)
    @pytest.mark.parametrize("s", S_VALUES)
    def test_endpoint_model_bit_for_bit(self, small_chunks, wname, s):
        est = endpoint_model(WEIGHTS[wname], s, 40)
        assert (est.value, est.terms_used) == oracle_endpoint_model(WEIGHTS[wname], s, 40)

    def test_endpoint_model_powers_each_denominator_once(self, small_chunks, monkeypatch):
        # per chunk: the numerators (one distinct |f''| = 1), then the
        # denominators of the b >= d pairs only
        calls = []

        def counting(x, sc):
            calls.append(x.tolist())
            return term_powers(x, sc)

        monkeypatch.setattr(farey, "term_powers", counting)
        endpoint_model(SmoothWeight.quadratic(), 0.8, 40)
        nums, dens = calls[0::2], calls[1::2]
        assert len(nums) == len(dens) > 10
        assert all(num == [1.0] for num in nums)
        upper = sum(1 for b, d in coprime_pairs_by_max(40) if b >= d)
        assert sum(map(len, dens)) == upper

    def test_default_chunks_bit_for_bit(self):
        # bound 150 spans several chunks of the default size
        w = WEIGHTS["cubic"]
        assert len(list(farey._farey_chunks(150))) > 1
        assert farey_zeta(w, 0.8, 150).value == oracle_farey_zeta(w, 0.8, 150)[0]
        assert endpoint_model(w, 0.8, 150).value == oracle_endpoint_model(w, 0.8, 150)[0]

    def test_legendre_dual_weight(self, small_chunks):
        dual = legendre_dual(ConvexDomain.domain_L().charts[0])
        for s in (0.8, 0.7 + 1j):
            assert farey_zeta(dual, s, 12).value == oracle_farey_zeta(dual, s, 12)[0]
            assert endpoint_model(dual, s, 12).value == oracle_endpoint_model(dual, s, 12)[0]

    @pytest.mark.parametrize("wname", WEIGHTS)
    def test_hata_grid_bit_for_bit(self, small_chunks, wname):
        xs = np.linspace(0, 1, 13) ** 1.5
        got = hata_reconstruct_grid(WEIGHTS[wname], 30, xs)
        assert got.tobytes() == oracle_hata_grid(WEIGHTS[wname], 30, xs).tobytes()

    @pytest.mark.parametrize("wname", WEIGHTS)
    def test_hata_grid_any_order_and_shape(self, wname):
        # unsorted points, repeats, Farey endpoints and points outside [0, 1]
        xs = np.random.default_rng(3).random(60)
        xs[:8] = [0.5, 1 / 3, 0.0, 1.0, 0.5, 2 / 7, -0.25, 1.5]
        w = WEIGHTS[wname]
        order = np.argsort(xs, kind="stable")
        by_sort = hata_reconstruct_grid(w, 30, xs[order])
        got = hata_reconstruct_grid(w, 30, xs)
        assert got[order].tobytes() == by_sort.tobytes()
        got_2d = hata_reconstruct_grid(w, 30, xs.reshape(6, 10))
        assert got_2d.shape == (6, 10)
        assert got_2d.ravel().tobytes() == got.tobytes()

    @pytest.mark.parametrize("wname", WEIGHTS)
    def test_sigma_b_bit_for_bit(self, wname):
        for b in (1, 2, 12, 97, 1009):
            assert sigma_b(WEIGHTS[wname], 0.7, b)[0] == oracle_sigma_b_value(WEIGHTS[wname], 0.7, b)


def mpmath_h_kernel(s, u, head=None):
    """H_s(u) to 30 digits: the first terms summed, the rest by mpmath's
    Euler-Maclaurin summation with the tail integral in closed form,
    int_{t0}^inf (t^2 - 1/4)^(-s) dt = t0^(1-2s) 2F1(s, s-1/2; s+1/2; 1/(4 t0^2)) / (2s-1)
    at t0 = head + u + 1/2.  (nsum's Euler-Maclaurin method takes that
    integral by quadrature of an oscillating integrand; at s = 0.6+2i it
    is off by 6e-6 at 15 digits and by 5e-9 at 30.)  The Euler-Maclaurin
    series diverges where |s| > head, so head defaults to max(40, 8 ceil|s|):
    at s = 0.75+50i, head = 40 reads 2.7e-5 off."""
    if head is None:
        head = max(40, 8 * math.ceil(abs(s)))
    with mpmath.workdps(30):
        s, u = mpmath.mpc(s), mpmath.mpf(u)

        def term(k):
            return (k + u) ** (-s) * (k + 1 + u) ** (-s)

        t0 = head + u + mpmath.mpf(1) / 2
        integral = (t0 ** (1 - 2 * s) / (2 * s - 1)
                    * mpmath.hyp2f1(s, s - 0.5, s + 0.5, 1 / (4 * t0 ** 2)))
        tail = mpmath.sumem(term, [head, mpmath.inf], integral=integral)
        return complex(mpmath.fsum(term(k) for k in range(head)) + tail)


class TestHKernelAccuracy:
    US = np.array([1 / 4999, 1 / 1201, 0.37, 1.0])

    @pytest.mark.parametrize("s", [0.501, 0.7, 0.8, 0.95, 0.6 + 2j, 0.75 + 2.1j, 2.5 + 7j, 10,
                                   0.75 + 50j])
    def test_matches_mpmath(self, s):
        got = farey.h_kernel_batch(s, self.US)
        for u, value in zip(self.US, got):
            ref = mpmath_h_kernel(s, u)
            assert abs(value - ref) <= 1e-12 * abs(ref)

    @pytest.mark.parametrize("s", [0.7, 0.6 + 2j])
    def test_scalar_call_is_its_batch_entry(self, s):
        us = np.arange(1, 1010) / 1009
        got = farey.h_kernel_batch(s, us)
        for i in (0, 1, 504, 1007, 1008):
            assert h_kernel(s, us[i]) == got[i]

    @pytest.mark.parametrize("s", [0.7, 0.6 + 2j])
    def test_direct_sum_is_two_power_form(self, s):
        u = np.arange(1, 1010) / 1009
        sc = complex(s)
        k = np.arange(64)[:, None]
        two_power = ((k + u) ** (-sc) * (k + 1 + u) ** (-sc)).sum(axis=0)
        expected = two_power + farey._h_tail(sc, 64 + u)
        got = farey.h_kernel_batch(s, u)
        assert got.dtype == complex
        assert (np.abs(got - expected) <= 1e-14 * np.abs(expected)).all()

    @pytest.mark.parametrize("s", [0.55, 0.7, 1, 2.5])
    def test_real_s_gives_real_values(self, s):
        got = farey.h_kernel_batch(s, np.arange(1, 1010) / 1009)
        assert got.dtype == complex
        assert (got.imag == 0).all()


class TestMirroredIntervals:
    """_farey_chunks runs the Euclid on each level's half (m, x), x <= m/2,
    and takes the complements (m, m - x) and the mirrors (x, m) from it."""

    @staticmethod
    def assert_rows_are_farey_intervals(bound):
        chunks = list(farey._farey_chunks(bound))
        for chunk in chunks:
            assert all(col.dtype == np.int64 for col in chunk)
            for c, d, a, b in zip(*(col.tolist() for col in chunk)):
                iv = farey_from_denominators(b, d)
                assert (c, d, a, b) == (iv.c, iv.d, iv.a, iv.b)
        return chunks

    def test_small_chunks(self, small_chunks):
        for bound in (*range(1, 13), 40):
            self.assert_rows_are_farey_intervals(bound)

    def test_default_chunks(self):
        assert len(self.assert_rows_are_farey_intervals(500)) > 1


@pytest.fixture
def euclid_entries(monkeypatch):
    """The sizes of the columns handed to the shared array Euclid, from the
    Farey chunks (farey) and the reduced residues (lattice)."""
    sizes = []
    euclid = lattice.euclid_inverses

    def counting(r, b):
        sizes.append(r.size)
        return euclid(r, b)

    monkeypatch.setattr(farey, "euclid_inverses", counting)
    monkeypatch.setattr(lattice, "euclid_inverses", counting)
    return sizes


class TestQuarterEuclid:
    def test_farey_zeta_inverts_a_quarter_of_the_pairs(self, euclid_entries):
        # the cubic's T_I rule reads a and c: one entry per level's (m, x),
        # x <= m/2 (and (1, 1)): 246 of 490 pairs with b >= d, 979 in all
        est = farey_zeta(WEIGHTS["cubic"], 0.8, 40)
        assert sum(euclid_entries) == 246
        assert est.terms_used == 2 * 490 - 1
        assert est.value == oracle_farey_zeta(WEIGHTS["cubic"], 0.8, 40)[0]

    def test_quadratic_sums_run_no_euclid(self, euclid_entries):
        # T_I = -1/(2 b d (b+d)) and f'' = 1 read b and d only
        for fn in (farey_zeta, endpoint_model):
            assert fn(SmoothWeight.quadratic(), 0.8, 40).terms_used == 979
        assert euclid_entries == []

    @pytest.mark.parametrize("wname", WEIGHTS)
    def test_sigma_b_at_the_edges_of_the_half(self, wname, euclid_entries):
        # b = 3: r = 1 and its complement 2; b = 4 and 6: r = b/2 is no
        # residue, and r = 1 alone goes to the Euclid
        for b in (3, 4, 6):
            rs, rbars = lattice.reduced_residue_inverses(b)
            assert rs.tolist() == reduced_residues(b)
            assert rbars.tolist() == [mod_inverse(r, b) for r in reduced_residues(b)]
            euclid_entries.clear()
            assert sigma_b(WEIGHTS[wname], 0.7, b)[0] == oracle_sigma_b_value(WEIGHTS[wname], 0.7, b)
            assert euclid_entries == [1]


class TestIntegerBounds:
    W = SmoothWeight.quadratic()

    @pytest.mark.parametrize("fn", [farey_zeta, endpoint_model])
    def test_series_refuse_a_float_bound(self, fn):
        for bound in (2.5, 3.0):
            with pytest.raises(ValueError, match="bound must be an integer"):
                fn(self.W, 0.8, bound)
        assert fn(self.W, 0.8, np.int64(12)).value == fn(self.W, 0.8, 12).value

    def test_sigma_b_refuses_a_float_b(self):
        with pytest.raises(ValueError, match="b must be an integer"):
            sigma_b(self.W, 0.8, 4.0)
        assert sigma_b(self.W, 0.8, np.int32(12))[0] == sigma_b(self.W, 0.8, 12)[0]

    def test_hata_grid_refuses_a_float_bound(self):
        xs = np.linspace(0, 1, 5)
        with pytest.raises(ValueError, match="bound must be an integer"):
            hata_reconstruct_grid(self.W, 3.0, xs)
        got = hata_reconstruct_grid(self.W, np.int64(9), xs)
        assert got.tobytes() == hata_reconstruct_grid(self.W, 9, xs).tobytes()


class TestEuclidInverses:
    def test_matches_pow_for_every_coprime_pair(self):
        b, r = np.meshgrid(np.arange(1, 301), np.arange(1, 301), indexing="ij")
        keep = np.gcd(b, r) == 1
        b, r = b[keep], r[keep]
        expected = [pow(int(x), -1, int(m)) or int(m) for x, m in zip(r, b)]
        assert euclid_inverses(r, b).tolist() == expected

    def test_not_invertible(self):
        with pytest.raises(ValueError, match="not invertible"):
            euclid_inverses(np.array([3, 2]), np.array([7, 4]))


class TestWeightArrays:
    def test_quadratic_d2f_keeps_shape(self):
        d2f = SmoothWeight.quadratic().d2f
        assert type(d2f(0.25)) is float
        assert d2f(np.zeros((2, 3))).tolist() == [[1.0] * 3] * 2

    def test_legendre_dual_entries_equal_scalar_calls(self):
        dual = legendre_dual(ConvexDomain.disk(1.5).charts[0])
        us = np.array([[0.0, 0.1], [0.5, 1.0]])
        for fn in (dual.f, dual.d2f):
            assert fn(us).tolist() == [[fn(float(u)) for u in row] for row in us]
