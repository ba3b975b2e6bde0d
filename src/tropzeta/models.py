"""Closed-form model oracles: the parabolic arc, Mordell-Tornheim / Witten
SU(3) series, the special domain L, the prescribed-pole staircase domains,
and a Riemann zeta helper.

The parabolic arc is sqrt(x) + sqrt(y) = 1 joining (1, 0) and (0, 1); its
support values are gamma_{a,b} = a*b/(a+b), so the support defect of a
unimodular normal pair is 1/((a+b)(c+d)(a+b+c+d)) and the boundary series is
the primitive Mordell-Tornheim double series sum over coprime (p, q) of
(p*q*(p+q))^(-s) (2^s times farey.endpoint_model of the quadratic weight).
The special domain

    L = { |x|, |y| <= 1 : sqrt(1-|x|) + sqrt(1-|y|) >= 1 }

has four such arcs and zeta function (8 - 2^(2-s) zeta_SU3(s)/zeta(3s)) / (s(s-1)).

parabola_form(p, q) holds the one copy of the parabola-arc closed forms:
geometry builds the charts of L and the parabolic triangle from it.  This
module imports nothing from the pipeline modules that build on it.
"""

from __future__ import annotations

import functools
import math
from fractions import Fraction

import numpy as np

from .estimates import SeriesEstimate
from .lattice import UnimodularQuadruple

# ---------------------------------------------------------------------------
# Riemann zeta by Euler-Maclaurin summation.

# B_2, B_4, ..., B_24
_BERNOULLI_EVEN = [
    Fraction(1, 6), Fraction(-1, 30), Fraction(1, 42), Fraction(-1, 30),
    Fraction(5, 66), Fraction(-691, 2730), Fraction(7, 6), Fraction(-3617, 510),
    Fraction(43867, 798), Fraction(-174611, 330), Fraction(854513, 138),
    Fraction(-236364091, 2730),
]


_ZETA_TERMS = 24  # direct terms before the Euler-Maclaurin tail


def riemann_zeta(s: complex) -> complex:
    """zeta(s) for Re(s) > 0, s != 1, by Euler-Maclaurin summation.

    Relative error <= 1e-12 for moderate |s| (|Im s| up to a few tens).
    """
    s = complex(s)
    if s == 1:
        raise ValueError("zeta has a pole at s = 1")
    if s.real <= 0:
        raise ValueError("only Re(s) > 0 is supported")
    n = _ZETA_TERMS
    out = sum(k ** (-s) for k in range(1, n))
    out += n ** (1 - s) / (s - 1) + 0.5 * n ** (-s)
    # correction terms B_2k/(2k)! * (s)(s+1)...(s+2k-2) * n^(-s-2k+1)
    poch = s  # rising factorial (s)_{2k-1}, built incrementally
    fact = 1.0
    for k, b2k in enumerate(_BERNOULLI_EVEN, start=1):
        fact *= (2 * k - 1) * (2 * k)
        out += float(b2k) / fact * poch * n ** (-s - 2 * k + 1)
        poch *= (s + 2 * k - 1) * (s + 2 * k)
    return out


# ---------------------------------------------------------------------------
# Parabolic arc oracles (exact rational).


@functools.lru_cache(maxsize=None)
def parabola_form(p: int, q: int) -> dict:
    """The oracles and graph data of the parabola-arc chart of form
    S = p a + q b: support a b / (p q S), the arc
    g(x) = (A - sqrt(B x))^2 on [0, 1/(p q^2)] with A = 1/(p sqrt(q)) and
    B = q/p (g, g', g'' take floats or float64 arrays).  Built once per
    form, so that charts of one form share every oracle object and the
    descent measures them in one call per batch."""
    pq = p * q

    def form(a, b):  # no product by a unit coefficient: L's (1, 1) form is a + b
        return (a if p == 1 else p * a) + (b if q == 1 else q * b)

    def support(a, b):
        if a < 0 or b < 0:
            raise ValueError("direction entries must be nonnegative")
        if a == 0 and b == 0:
            raise ValueError("direction (0, 0) has no supporting line")
        if a == 0 or b == 0:
            return Fraction(0)
        return Fraction(a * b, pq * form(a, b))

    def support_float(a, b):
        return a * b / (form(a, b) if pq == 1 else pq * form(a, b))

    def defect_den(a, b, c, d):
        su, sv = form(a, b), form(c, d)
        return su * sv * (su + sv)

    def triangle_area(a, b, c, d):
        # with det(u, v) = 1 the slacks of the tangency points are
        # 1/(S_u S_v^2) and 1/(S_v S_u^2), whatever the form
        k = np.multiply(form(a, b), form(c, d), dtype=np.float64)
        return 0.5 / (k * k * k)

    # g = (A - sqrt(B x))^2, g' = B - C / sqrt(x), g'' = C x^(-3/2) / 2
    big_a, big_b, big_c = 1 / (p * math.sqrt(q)), q / p, p ** -1.5
    half_c = 0.5 * big_c

    def g(x):
        return (big_a - np.sqrt(big_b * x)) ** 2

    def dg(x):
        return big_b - big_c / np.sqrt(x)

    def d2g(x):
        return half_c * x ** (-1.5)

    return dict(support=support, support_float=support_float, defect_den=defect_den,
                triangle_area=triangle_area, g=g, dg=dg, d2g=d2g, x_max=1 / (pq * q),
                exact=True)


def parabola_support(a: int, b: int) -> Fraction:
    """gamma_{a,b} = a*b/(a+b) of the arc sqrt(x)+sqrt(y)=1: L's chart support."""
    return parabola_form(1, 1)["support"](a, b)


def parabola_defect(quad: UnimodularQuadruple) -> Fraction:
    """Support defect 1/((a+b)(c+d)(a+b+c+d)): the descent's size of an L cut."""
    return Fraction(1, parabola_form(1, 1)["defect_den"](*quad.as_tuple()))


# ---------------------------------------------------------------------------
# Mordell-Tornheim / Witten SU(3) series.


def _mt_tail_bound(sigma: float, p_max: int) -> float:
    """A bound on the sum over p, q >= 1 with max(p, q) > B = p_max of
    (p q (p + q))^(-sigma): on the modulus of that tail at Re s = sigma.

    Proof.  A pair of the tail has p > B, q <= p or q > B, p <= q, and
    p + q >= p, so by symmetry the tail is at most 2 sum_{p>B} p^(-2 sigma) S(p),
    S(p) = sum_{q<=p} q^(-sigma).
    - 2/3 < sigma < 1: S(p) <= 1 + (p^(1-sigma) - 1)/(1-sigma) <= p^(1-sigma)/(1-sigma),
      and p^(1-3 sigma) decreases, so sum_{p>B} p^(1-3 sigma) <= B^(2-3 sigma)/(3 sigma-2).
    - sigma = 1: S(p) <= 1 + ln p, and (1 + ln x)/x^2 decreases on x >= 1,
      so sum_{p>B} (1 + ln p)/p^2 <= int_B^inf (1 + ln x)/x^2 dx = (2 + ln B)/B.
    - sigma > 1: S(p) <= zeta(sigma), and sum_{p>B} p^(-2 sigma) <= B^(1-2 sigma)/(2 sigma-1).
    For sigma <= 2/3 the series diverges: inf."""
    b = p_max
    if sigma <= 2 / 3:
        return math.inf
    if sigma < 1:
        return 2 * b ** (2 - 3 * sigma) / ((3 * sigma - 2) * (1 - sigma))
    if sigma == 1:
        return 2 * (2 + math.log(b)) / b
    return 2 * riemann_zeta(sigma).real * b ** (1 - 2 * sigma) / (2 * sigma - 1)


def witten_su3(s: complex, cutoff: int) -> SeriesEstimate:
    """zeta_SU(3)(s) = 2^s * sum over all p, q <= cutoff of (pq(p+q))^(-s).
    Its tail_bound bounds the modulus of the dropped tail: |2^s| times
    _mt_tail_bound(Re s, cutoff), None where Re s <= 2/3."""
    if cutoff < 2:
        raise ValueError("cutoff must be at least 2")
    s = complex(s)
    total = 0j
    qf = np.arange(1, cutoff + 1, dtype=np.float64)
    for p in range(1, cutoff + 1):
        total += ((p * qf * (p + qf)) ** (-s)).sum()
    scale = 2 ** s
    tail = _mt_tail_bound(s.real, cutoff)
    return SeriesEstimate(value=scale * total, cutoff=float(cutoff), terms_used=cutoff * cutoff,
                          tail_bound=abs(scale) * tail if math.isfinite(tail) else None)


# Known analytic data for zeta_SU(3) (recorded, not recomputed):
# simple poles at s = 2/3 and s = 1/2 - k, and the special value at 0 used by
# the residue of Z_L at 0.
ZETA_SU3_AT_0 = Fraction(1, 3)
ZETA_AT_0 = Fraction(-1, 2)


def residue_su3_two_thirds() -> float:
    """Res_{s=2/3} zeta_SU(3)(s) = (4^(1/3) / (2 pi sqrt(3))) Gamma(1/3)^3."""
    g = math.gamma(1 / 3.0)
    return 4 ** (1 / 3.0) / (2 * math.pi * math.sqrt(3)) * g**3


def residue_zeta_L_two_thirds() -> float:
    """Res_{s=2/3} Z_L(s) = (18 sqrt(3) / pi^3) Gamma(1/3)^3."""
    g = math.gamma(1 / 3.0)
    return 18 * math.sqrt(3) / math.pi**3 * g**3


def residue_zeta_L_zero() -> Fraction:
    """Res_{s=0} Z_L(s) = -(8 - 4 zeta_SU3(0)/zeta(0)) = -32/3."""
    return -(8 - 4 * ZETA_SU3_AT_0 / ZETA_AT_0)


def equiaffine_residue_constant() -> float:
    """Res_{s=2/3} Z_Omega per unit equiaffine boundary length:
    (9 sqrt(3) / (2 * 4^(1/3) * pi^3)) Gamma(1/3)^3."""
    g = math.gamma(1 / 3.0)
    return 9 * math.sqrt(3) / (2 * 4 ** (1 / 3.0) * math.pi**3) * g**3


def boundary_residue_constant() -> float:
    """Res_{s=2/3} F_Gamma per unit equiaffine arc length:
    (sqrt(3) / (4^(1/3) pi^3)) Gamma(1/3)^3  (the interior constant / (9/2))."""
    return equiaffine_residue_constant() / 4.5


def zeta_L(s: complex, cutoff: int = 400) -> complex:
    """Z_L(s) = (8 - 2^(2-s) zeta_SU3(s)/zeta(3s)) / (s(s-1)), series truncated
    at the given cutoff.  s = 0, 1 are poles; use the residue helpers there."""
    s = complex(s)
    if s in (0, 1) or abs(s) < 1e-14 or abs(s - 1) < 1e-14:
        raise ValueError("pole of Z_L; use residue_zeta_L_* instead")
    su3 = witten_su3(s, cutoff).value
    z3s = riemann_zeta(3 * s)
    return (8 - 2 ** (2 - s) * su3 / z3s) / (s * (s - 1))


# ---------------------------------------------------------------------------
# Staircase domains with prescribed rightmost pole alpha in (0, 1).


def d_alpha_cut_sizes(alpha: float, n_max: int) -> np.ndarray:
    """Sizes n^(-1/alpha) of the successive corner cuts, n = 1..n_max."""
    if not 0 < alpha < 1:
        raise ValueError("alpha must lie in (0, 1)")
    if n_max < 1:
        raise ValueError("n_max must be positive")
    n = np.arange(1, n_max + 1, dtype=np.float64)
    return n ** (-1.0 / alpha)


def d_alpha_offsets(alpha: float, n_max: int) -> np.ndarray:
    """Cumulative support offsets c_n = sum_{k<=n} k^(-1/alpha): the n-th cut
    line is <(1, n), x> = c_n in the corner frame."""
    return np.cumsum(d_alpha_cut_sizes(alpha, n_max))


def d_alpha_expected_series(alpha: float, s: complex, n_max: int) -> complex:
    """Partial sum of zeta(s/alpha) = sum n^(-s/alpha): the boundary series of
    the staircase corner."""
    n = np.arange(1, n_max + 1, dtype=np.float64)
    return complex((n ** (-complex(s) / alpha)).sum())
