import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from tropzeta import lattice


def divisors(b: int) -> list[int]:
    """The divisors of b, from its factorization."""
    ds = [1]
    for p, e in lattice.factorize(b):
        ds = [d * p**k for d in ds for k in range(e + 1)]
    return sorted(ds)


class TestFactorize:
    def test_limit_stops_the_trial_division(self):
        n = 2 * 3 * 10007 * 10009
        assert lattice.factorize(n) == [(2, 1), (3, 1), (10007, 1), (10009, 1)]
        # the cofactor 10007 * 10009 is left out, not taken for a prime
        assert lattice.factorize(n, 10**4) == [(2, 1), (3, 1)]
        # a cofactor below the square of the last trial divisor is prime
        assert lattice.factorize(4 * 10007, 10**4) == [(2, 2), (10007, 1)]
        assert lattice.factorize(1, 10**4) == []


class TestModInverse:
    def test_identity(self):
        assert lattice.mod_inverse(1, 5) == 1

    def test_three_mod_seven(self):
        # 3*5 = 15 = 1 mod 7, checked directly
        assert lattice.mod_inverse(3, 7) == 5

    def test_not_invertible(self):
        with pytest.raises(ValueError, match="not invertible"):
            lattice.mod_inverse(2, 4)

    def test_modulus_one(self):
        assert lattice.mod_inverse(3, 1) == 1

    @given(st.integers(min_value=1, max_value=10_000), st.integers(min_value=1, max_value=10_000))
    def test_inverse_property(self, r, b):
        if math.gcd(r, b) != 1:
            with pytest.raises(ValueError):
                lattice.mod_inverse(r, b)
        else:
            rbar = lattice.mod_inverse(r, b)
            assert 1 <= rbar <= b
            assert (r * rbar) % b == 1 % b


class TestArithmeticFunctions:
    def test_one(self):
        assert lattice.arithmetic_functions(1) == (1, 1, 1)

    def test_twelve(self):
        # 12 = 2^2 * 3: phi = 4, tau = 6, mu = 0
        assert lattice.arithmetic_functions(12) == (4, 6, 0)

    def test_prime(self):
        assert lattice.arithmetic_functions(7) == (6, 2, -1)

    @given(st.integers(min_value=1, max_value=3000))
    @settings(max_examples=60)
    def test_phi_counts_reduced_residues(self, b):
        phi, tau, mu = lattice.arithmetic_functions(b)
        assert phi == len(lattice.reduced_residues(b))
        assert tau == len(divisors(b))


class TestKloosterman:
    def test_zero_frequencies_give_phi(self):
        for b in [1, 2, 6, 12, 35]:
            phi = lattice.arithmetic_functions(b)[0]
            s = lattice.kloosterman_complete(0, 0, b)
            assert s == pytest.approx(phi, abs=1e-9)

    def test_ramanujan_mu(self):
        # S(1, 0; b) = c_b(1) = mu(b), brute force vs the Mobius function
        for b in range(1, 60):
            mu = lattice.arithmetic_functions(b)[2]
            s = lattice.kloosterman_complete(1, 0, b)
            assert s.real == pytest.approx(mu, abs=1e-9)
            assert abs(s.imag) < 1e-12

    def test_single_term(self):
        assert lattice.kloosterman_complete(1, 1, 2) == pytest.approx(1.0, abs=1e-12)

    def test_symmetry_n_h(self):
        rng = np.random.default_rng(7)
        for _ in range(40):
            b = int(rng.integers(1, 80))
            n = int(rng.integers(-10, 11))
            h = int(rng.integers(-10, 11))
            s1 = lattice.kloosterman_complete(n, h, b)
            s2 = lattice.kloosterman_complete(h, n, b)
            assert s1 == pytest.approx(s2, abs=1e-9)

    def test_grid_matches_scalar(self):
        ns = np.array([-2, 0, 1, 3])
        hs = np.array([0, 1, 5])
        for b in [1, 4, 9, 14]:
            grid = lattice.kloosterman_grid(b, ns, hs)
            for i, n in enumerate(ns):
                for j, h in enumerate(hs):
                    assert grid[i, j] == pytest.approx(
                        lattice.kloosterman_complete(int(n), int(h), b), abs=1e-9
                    )

    def test_incomplete_full_range_is_ramanujan(self):
        assert lattice.kloosterman_incomplete(0, 5, 5) == pytest.approx(4.0, abs=1e-12)
        assert lattice.kloosterman_incomplete(1, 5, 5) == pytest.approx(-1.0, abs=1e-12)

    def test_incomplete_range_check(self):
        with pytest.raises(ValueError):
            lattice.kloosterman_incomplete(1, 5, 6)

    def test_incomplete_calibrated_bound(self):
        # |K_b(n; R)| <= 8 tau(b)^2 sqrt(b) (1 + ln 2b) for gcd(n, b) = 1,
        # constant calibrated by brute force over b <= 200
        for b in range(2, 201, 7):
            tau = lattice.arithmetic_functions(b)[1]
            bound = 8 * tau**2 * math.sqrt(b) * (1 + math.log(2 * b))
            for n in (1, 3, 7):
                if math.gcd(n, b) != 1:
                    continue
                for r_cut in (max(1, b // 3), max(1, (2 * b) // 3), b):
                    val = abs(lattice.kloosterman_incomplete(n, b, r_cut))
                    assert val <= bound

    def test_weil_bound_sample(self):
        # |S(n,h;b)| <= tau(b) * gcd(n,h,b)^(1/2) * b^(1/2), implied constant 1
        for b in range(1, 120):
            phi, tau, mu = lattice.arithmetic_functions(b)
            grid = lattice.kloosterman_grid(b, np.arange(-4, 5), np.arange(-4, 5))
            for i, n in enumerate(range(-4, 5)):
                for j, h in enumerate(range(-4, 5)):
                    g = math.gcd(math.gcd(abs(n), abs(h)), b)
                    g = g if g else b
                    assert abs(grid[i, j]) <= tau * math.sqrt(g) * math.sqrt(b) + 1e-9


class TestFareyBijection:
    def test_examples(self):
        i11 = lattice.farey_from_denominators(1, 1)
        assert (i11.c, i11.d, i11.a, i11.b) == (0, 1, 1, 1)
        i23 = lattice.farey_from_denominators(2, 3)
        assert (i23.c, i23.d, i23.a, i23.b) == (1, 3, 1, 2)
        with pytest.raises(ValueError):
            lattice.farey_from_denominators(2, 4)

    def test_round_trip_all_coprime_pairs(self):
        for b in range(1, 201):
            for d in range(1, 201):
                if math.gcd(b, d) != 1:
                    continue
                iv = lattice.farey_from_denominators(b, d)
                assert iv.denominators() == (b, d)
                assert iv.a * iv.d - iv.b * iv.c == 1

    def test_matches_stern_brocot_enumeration(self):
        n = 40
        intervals = (lattice.farey_from_denominators(b, d)
                     for b in range(1, n + 1) for d in range(1, n + 1) if math.gcd(b, d) == 1)
        via_pairs = {(iv.c, iv.d, iv.a, iv.b) for iv in intervals}
        via_tree = {(iv.c, iv.d, iv.a, iv.b) for iv in lattice.farey_intervals_stern_brocot(n)}
        assert via_pairs == via_tree


class TestQuadrupleBijection:
    def test_examples(self):
        assert lattice.quadruple_from_coprime(1, 1).as_tuple() == (1, 0, 0, 1)
        assert lattice.quadruple_from_coprime(2, 3).as_tuple() == (1, 1, 1, 2)
        assert lattice.quadruple_from_coprime(3, 2).as_tuple() == (2, 1, 1, 1)
        with pytest.raises(ValueError):
            lattice.quadruple_from_coprime(2, 4)

    def test_two_sided_enumeration(self):
        bound = 100
        from_pairs = set()
        for p in range(1, bound):
            for q in range(1, bound + 1 - p):
                if math.gcd(p, q) == 1:
                    quad = lattice.quadruple_from_coprime(p, q)
                    assert lattice.quadruple_to_coprime(quad) == (p, q)
                    from_pairs.add(quad.as_tuple())
        from_tree = {q.as_tuple() for q in lattice.stern_brocot_quadruples(bound)}
        assert from_pairs == from_tree

    @given(st.integers(min_value=1, max_value=400), st.integers(min_value=1, max_value=400))
    @settings(max_examples=80)
    def test_round_trip(self, p, q):
        if math.gcd(p, q) != 1:
            return
        quad = lattice.quadruple_from_coprime(p, q)
        assert lattice.quadruple_to_coprime(quad) == (p, q)


class TestSternBrocotWalk:
    def test_farey_intervals_walk_side_one_first(self):
        # [c/d, a/b] is the quadruple (a, b, c, d): depth first from
        # [0/1, 1/1], the left half [c/d, mediant] before the right one
        walk = [(iv.c, iv.d, iv.a, iv.b) for iv in lattice.farey_intervals_stern_brocot(3)]
        assert walk == [(0, 1, 1, 1), (0, 1, 1, 2), (0, 1, 1, 3), (1, 3, 1, 2),
                        (1, 2, 1, 1), (1, 2, 2, 3), (2, 3, 1, 1)]

    def test_one_walk_for_both_enumerations(self):
        # [0/1, 1/1] is the quadruple (1, 1, 0, 1), the side-1 child of the
        # quadruple root; its subtree holds the quadruples with a <= b, and
        # a + b + c + d <= 2 (b + d) there
        n = 30
        quads = [q.as_tuple() for q in lattice.stern_brocot_quadruples(4 * n)]
        left = [(a, b, c, d) for a, b, c, d in quads if a <= b and max(b, d) <= n]
        assert [(iv.a, iv.b, iv.c, iv.d) for iv in lattice.farey_intervals_stern_brocot(n)] == left

    @pytest.mark.parametrize("bound", [-1, 0, 1])
    def test_bound_below_the_root(self, bound):
        # the quadruple root has key 2, the interval root key 1
        assert list(lattice.stern_brocot_quadruples(bound)) == []
        root = [lattice.FareyInterval(c=0, d=1, a=1, b=1)]
        assert lattice.farey_intervals_stern_brocot(bound) == (root if bound == 1 else [])

