"""Farey intervals, Hata coefficients, and the weighted Farey zeta function.

For a Farey interval I = [c/d, a/b] (ad - bc = 1) with mediant
m = (a+c)/(b+d), and a weight f in C^3([0,1]) with |f''| bounded away from 0:

    c_I(f) = f(m) - b/(b+d) f(a/b) - d/(b+d) f(c/d),
    T_I(f) = (b+d) c_I(f) = -f[c/d, m, a/b] / (b d (b+d)) = -f''(xi_I) / (2 b d (b+d))

for some xi_I in I, f[x0, m, x1] the second divided difference (m - c/d =
1/(d(b+d)), a/b - m = 1/(b(b+d))), and

    Z_f(s) = sum over I of |T_I(f)|^s,

with endpoint model  Z^end_f(s) = 2^(-s) sum |f''(a/b)|^s / (b d (b+d))^s.
Reorganizing by the first denominator via d = k b + r produces the kernel

    H_s(u) = sum_{k>=0} (k+u)^(-s) (k+1+u)^(-s),
    Z^end_f(s) = 2^(-s) sum_b b^(-3s) Sigma_b(s),
    Sigma_b(s) = sum over reduced residues r of H_s(r/b) |f''(rbar/b)|^s,

and Sigma_b(s) equidistributes to phi(b) * (int H_s) * (int |f''|^s) with a
power-saving error.  The boundary series of a convex arc is the Farey zeta of
the Legendre dual of its graph function.

Rules.  T_I is never the three-point difference above, which cancels all
but about 1/(2 b d (b+d)) of three O(1) values.  Each SmoothWeight carries
a T_I rule on interval columns: for a polynomial sum c_k x^k,
f[x0, m, x1] = sum_{k>=2} c_k h_{k-2}(x0, m, x1) with h_j the complete
homogeneous polynomial (positive terms on [0, 1]); for the quadratic weight,
T_I = -1/(2 b d (b+d)); for a Legendre dual, minus its chart's support
defect at (a, b, c, d).  Its second rule gives |f''(a/b)|.  A rule's entry
on columns equals, bit for bit, its call on the one FareyInterval: the
polynomial rules use + - * / only, no power of an array, and the chart
oracles work elementwise.

Evaluation.  The sums run on int64/float64 arrays, one chunk of whole
max(b, d) levels (a few thousand pairs) at a time, so their memory does not
grow with the bound.  Level m's intervals come from its half: np.gcd runs
only on the pairs (m, x) with x <= m/2, a quarter of the level; the
complement (m, m - x) and the mirror (x, m) of each (m, x), x < m, follow.
A chunk gives b and d at once, and builds a and c when a rule first reads
them: the array extended Euclid (a = x^-1 mod m) on the half, then
a' = m - a, c' = (m - x) - a + c on the complements and a'' = x - c,
c'' = m - a on the mirrors.  farey_zeta reads the T_I rule, endpoint_model
the |f''(a/b)| rule and b, d, and the Hata grid every column; the quadratic
weight's rules read b and d only, so its two sums run no Euclid.  Terms
are added one at a time in the fixed pair order (np.cumsum with the running
total carried across chunks).  Every power, here and in Sigma_b, is
estimates.term_powers, CPython's complex power rule on arrays, whose terms
each depend on their own base only; so a value does not depend on the
chunking and matches a per-pair Python loop that powers each base alone bit
for bit.  The endpoint model takes each distinct base's power once:
b d (b + d) on the b >= d pairs, gathered to their mirrors, and each
distinct |f''(a/b)| of a chunk (one value for the quadratic weight); the
quotients are numpy's.  Both sums report a tail bound
(models._mt_tail_bound) where the weight bounds |f''|.
Sigma_b takes its reduced residues and their inverses the same way: the
Euclid on r <= b/2, the complement b - r with inverse b - rbar.  Its
kernel H_s is the singular k = 0 term, one exp of real logarithms, plus a
Chebyshev interpolant of the analytic remainder sum_{k>=1}, built once per
s from the direct terms; it reads within 1e-13 relative of 30-digit mpmath
(3e-15 on 1/2 < Re s <= 2.5, |Im s| <= 7).
The Hata intervals (b + d <= N) are the chunks' rows with b + d <= N, put
in (b, d) order; the Hata grid evaluates each tent only on the points of
its support, found by binary search in the sorted points.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from typing import Callable, NamedTuple, Optional

import numpy as np

from . import models
from .estimates import (
    SeriesEstimate,
    add_in_order,
    adaptive_quadrature,
    gauss_legendre,
    term_powers,
)
from .geometry import ArcChart, _spec_float
from .lattice import arithmetic_functions, euclid_inverses, reduced_residue_inverses


@dataclass
class SmoothWeight:
    """A C^3 weight on [0, 1] with |f''| of constant sign, bounded away from 0.

    f is read by the Hata grid's linear part, f'' by Sigma_b and the residue
    main term.  t_rule gives T_I(f) and curvature |f''(a/b)| of intervals
    [c/d, a/b], as read by hata_coefficient and the Farey sums: a
    FareyInterval, or interval columns (an entry per interval; a constant
    curvature may be one float for all).
    curvature_bound is at least sup |f''| on [0, 1], or None where unknown.

    f and f'' take a float or a float64 array of points.  On an array they
    return an array of the same shape whose entries equal, bit for bit, the
    scalar calls at those points, and so do the rules on columns: the Farey
    sums evaluate whole chunks of intervals in one call and must not depend
    on the chunking."""

    f: Callable[[float], float]
    d2f: Callable[[float], float]
    t_rule: Callable
    curvature: Callable
    curvature_bound: Optional[float] = None
    name: str = ""

    @staticmethod
    def from_polynomial(coeffs) -> "SmoothWeight":
        cs = [_spec_float(c, f"weight coefficient {k}") for k, c in enumerate(coeffs)]
        p = np.polynomial.Polynomial(cs)
        d2f = p.deriv(2)
        return SmoothWeight(f=p, d2f=d2f, t_rule=_divided_difference_rule(cs[2:]),
                            curvature=lambda iv: np.abs(d2f(iv.a / iv.b)),
                            curvature_bound=sum(k * (k - 1) * abs(c) for k, c in enumerate(cs)),
                            name=f"poly{list(coeffs)}")

    @staticmethod
    def quadratic() -> "SmoothWeight":
        return SmoothWeight(f=lambda x: x * x / 2, d2f=_unit,
                            t_rule=lambda iv: -0.5 / (iv.b * iv.d * (iv.b + iv.d)),
                            curvature=lambda iv: 1.0, curvature_bound=1.0,
                            name="quadratic")


def _unit(x):
    """f'' = 1 of the quadratic weight: a float for a scalar, ones for an array."""
    return 1.0 if np.ndim(x) == 0 else np.ones(np.shape(x))


def _divided_difference_rule(high: list[float]) -> Callable:
    """The T_I rule of the polynomial sum c_k x^k, given high = [c_2, c_3, ...]:
    -f[x0, m, x1] / (b d (b+d)) with f[x0, m, x1] = sum_j c_{j+2} h_j, the
    complete homogeneous h_j = h_j(x0, m, x1) by h_j = x1 h_{j-1} + h_j(x0, m),
    h_j(x0, m) = m h_{j-1}(x0, m) + x0^j."""

    def rule(interval):
        a, b, c, d = interval.a, interval.b, interval.c, interval.d
        x0, m, x1 = c / d, (a + c) / (b + d), a / b
        power = h2 = h3 = 1.0
        total = 0.0
        for j, ck in enumerate(high):
            if j:
                power = power * x0
                h2 = h2 * m + power
                h3 = h3 * x1 + h2
            total = total + ck * h3
        return -total / (b * d * (b + d))

    return rule


class _Intervals(NamedTuple):
    """Farey intervals [c/d, a/b] as int64 columns.  hata_basis and
    hata_coefficient read them as they read one FareyInterval."""

    c: np.ndarray
    d: np.ndarray
    a: np.ndarray
    b: np.ndarray


def hata_basis(interval, x):
    """Hata's tent function S_I(x), supported on I with S_I(mediant) = 1.

    interval is a FareyInterval or interval columns; x is a float or an
    array of points broadcasting against them.  The tent is taken
    elementwise."""
    a, b, c, d = interval.a, interval.b, interval.c, interval.d
    return (b + d) / 2 * (
        abs(a - b * x) + abs(c - d * x) - abs(a + c - (b + d) * x)
    )


def hata_coefficient(weight: SmoothWeight, interval):
    """(c_I(f), T_I(f)) = (T_I / (b+d), T_I) of a FareyInterval, or
    elementwise of interval columns, by the weight's T_I rule."""
    t_i = weight.t_rule(interval)
    return t_i / (interval.b + interval.d), t_i


# Farey sums run over chunks of about this many candidate pairs (b, d); a
# chunk holds whole max(b, d) levels.  It bounds the sums' working memory.
_CHUNK_PAIRS = 8192


class _Chunk:
    """One chunk of _farey_chunks: the int64 columns b and d, and a and c,
    which _chunk_numerators builds from the level halves on their first
    read.  Iterated, it gives c, d, a, b as _Intervals does."""

    def __init__(self, b, d, halves):
        self.b, self.d, self._halves = b, d, halves

    @functools.cached_property
    def _numerators(self):
        return _chunk_numerators(*self._halves)

    a = property(lambda self: self._numerators[0])
    c = property(lambda self: self._numerators[1])

    def __iter__(self):
        return iter((self.c, self.d, self.a, self.b))


def _scatter(to, parts) -> np.ndarray:
    """The int64 column whose entries to[i] are those of the concatenated
    parts (a repeated place takes one of its equal values)."""
    col = np.empty(to.max() + 1, dtype=np.int64)
    col[to] = np.concatenate(parts)
    return col


def _farey_chunks(bound: int):
    """The Farey intervals with max(b, d) <= bound as _Chunk columns of
    whole levels m = max(b, d), by m ascending, ties by (b, d) ascending:
    level m holds (x, m) for x = 1..m-1, then (m, x) for x = 1..m, x
    coprime to m.

    The gcd runs on each level's half (m, x), x <= m/2 (x = 1 at m = 1),
    only; the complement (m, m - x) and the mirror (x, m) of each (m, x),
    x < m, follow."""
    lo = 1
    while lo <= bound:
        # levels lo..hi hold hi^2 - (lo-1)^2 candidates
        hi = min(bound, max(lo, math.isqrt((lo - 1) ** 2 + _CHUNK_PAIRS)))
        levels = np.arange(lo, hi + 1)
        sizes = np.maximum(levels // 2, 1)
        m = np.repeat(levels, sizes)
        x = np.arange(m.size) - np.repeat(np.cumsum(sizes) - sizes, sizes) + 1
        keep = np.gcd(x, m) == 1
        m, x = m[keep], x[keep]
        # per level: n half pairs, the low ones (x < m/2) with a complement,
        # so u = phi(m) pairs (m, x), after v = u mirrors (x, m), none at m = 1
        level = m - lo
        low = 2 * x < m
        n = np.bincount(level, minlength=levels.size)
        u = n + np.bincount(level[low], minlength=levels.size)
        v = u - (levels == 1)
        start = np.cumsum(u + v) - u  # of each level's pairs (m, x)
        rank = np.arange(m.size) - (np.cumsum(n) - n)[level]
        # the half ascending, then the complements, x descending, and all
        # their mirrors v places before; (1, 1) is its own and lands in place
        up = start[level] + rank
        co = (start + u - 1)[level[low]] - rank[low]
        to = np.concatenate((up, co, up - v[level], co - v[level[low]]))
        cm, cx = m[low], (m - x)[low]
        yield _Chunk(_scatter(to, (m, cm, x, cx)), _scatter(to, (x, cx, m, cm)),
                     (m, x, low, to))
        lo = hi + 1


def _chunk_numerators(m, x, low, to) -> tuple[np.ndarray, np.ndarray]:
    """The columns a and c of a chunk from its level halves (m, x), the
    mask low of x < m/2 and the places to of _farey_chunks: the Euclid gives
    the halves' a = x^-1 mod m, c = (a x - 1)/m; the complement (m, m - x)
    has a' = m - a, c' = (m - x) - a + c, and the mirror (d, b) of each
    (b, d) with b > d has a'' = d - c, c'' = b - a (a'' b - d c'' = a d - b c = 1)."""
    a = euclid_inverses(x, m)
    c = (a * x - 1) // m
    cm, cx, ca = m[low], (m - x)[low], (m - a)[low]
    cc = cx - a[low] + c[low]
    return (_scatter(to, (a, ca, x - c, cx - cc)),
            _scatter(to, (c, cc, m - a, cm - ca)))


def _require_int(value, name: str) -> None:
    """Refuse a bound or modulus that is not an int (a numpy int is one)
    before any array is built from it."""
    if not isinstance(value, (int, np.integer)):
        raise ValueError(f"{name} must be an integer, got {value!r}")


def farey_intervals_by_sum(max_bd_sum: int) -> _Intervals:
    """All Farey intervals with b + d <= bound as columns, b ascending, then
    d: the rows of _farey_chunks(bound - 1) with b + d <= bound."""
    parts = [_Intervals(*[np.empty(0, dtype=np.int64)] * 4)]
    for chunk in _farey_chunks(max_bd_sum - 1):
        keep = chunk.b + chunk.d <= max_bd_sum
        parts.append(_Intervals(*(col[keep] for col in chunk)))
    rows = _Intervals(*map(np.concatenate, zip(*parts)))
    order = np.lexsort((rows.d, rows.b))
    return _Intervals(*(col[order] for col in rows))


def hata_reconstruct_grid(weight: SmoothWeight, bound: int, xs) -> np.ndarray:
    """Partial Hata expansion f(0) + (f(1) - f(0)) x + sum c_I S_I(x) over
    intervals with b + d <= bound (the Farey chunks' rows there, by
    farey_intervals_by_sum), evaluated on an array of x values.

    Each tent is added only on its support c/d <= x <= a/b (off it the tent
    formula is 0 up to rounding), found by two binary searches in the
    sorted points.  Every x gets its terms added one at a time in
    farey_intervals_by_sum order, so an entry does not depend on the order
    or shape of xs."""
    _require_int(bound, "bound")
    xs = np.asarray(xs, dtype=float)
    total = weight.f(0.0) + (weight.f(1.0) - weight.f(0.0)) * xs
    intervals = farey_intervals_by_sum(bound)
    c_i, _ = hata_coefficient(weight, intervals)
    order = np.argsort(xs, axis=None)
    sorted_x = xs.ravel()[order]
    lo = np.searchsorted(sorted_x, intervals.c / intervals.d, side="left")
    counts = np.searchsorted(sorted_x, intervals.a / intervals.b, side="right") - lo
    # cell k: interval rows[k] at sorted point cols[k], intervals in order
    rows = np.repeat(np.arange(c_i.size), counts)
    cols = np.arange(rows.size) + np.repeat(lo - np.cumsum(counts) + counts, counts)
    cells = _Intervals(*(col[rows] for col in intervals))
    total = np.array(total, dtype=float).ravel()
    # add.at applies repeated indices in index order
    np.add.at(total, order[cols], c_i[rows] * hata_basis(cells, sorted_x[cols]))
    return total.reshape(xs.shape)


def _tail_bound(weight: SmoothWeight, sc: complex, bound: int) -> Optional[float]:
    """A bound on the modulus of either Farey sum's terms past the bound:
    |T_I^s| and |2^-s f''(a/b)^s / (b d (b+d))^s| are at most
    (sup |f''| / 2)^sigma (b d (b+d))^-sigma, sigma = Re s, whose sum over
    max(b, d) > bound is at most (sup |f''| / 2)^sigma
    models._mt_tail_bound(sigma, bound).  None where the weight does not
    bound |f''| or the tail diverges (sigma <= 2/3)."""
    sigma = sc.real
    if weight.curvature_bound is None or sigma <= 2 / 3:
        return None
    return (weight.curvature_bound / 2) ** sigma * models._mt_tail_bound(sigma, bound)


def farey_zeta(weight: SmoothWeight, s, bound: int) -> SeriesEstimate:
    """Z_f(s) truncated to intervals with max(b, d) <= bound (which contains
    every interval with b + d <= bound), summed in order of max(b, d)
    ascending, ties by (b, d) ascending, skipping T_I = 0.  bound >= 1."""
    _require_int(bound, "bound")
    if bound < 1:  # the sums would be empty
        raise ValueError(f"bound must be at least 1, got {bound}")
    sc = complex(s)
    total = 0j
    count = 0
    for chunk in _farey_chunks(bound):
        t_i = weight.t_rule(chunk)
        total = add_in_order(total, term_powers(np.abs(t_i[t_i != 0]), sc))
        count += t_i.size
    return SeriesEstimate(value=total, cutoff=float(bound), terms_used=count,
                          tail_bound=_tail_bound(weight, sc, bound))


def endpoint_model(weight: SmoothWeight, s, bound: int) -> SeriesEstimate:
    """Z^end_f(s) = 2^(-s) sum |f''(a/b)|^s / (b d (b+d))^s, same truncation
    and order as farey_zeta; each term is the numpy quotient of the
    term_powers of |f''(a/b)| (the weight's curvature rule) and of
    b d (b+d)."""
    _require_int(bound, "bound")
    if bound < 1:  # the sums would be empty
        raise ValueError(f"bound must be at least 1, got {bound}")
    sc = complex(s)
    total = 0j
    count = 0
    for chunk in _farey_chunks(bound):
        b, d = chunk.b, chunk.d
        # each distinct |f''(a/b)| powered once
        values, which = np.unique(weight.curvature(chunk), return_inverse=True)
        num = term_powers(values, sc)[which]
        # b d (b + d) powered on the b >= d entries, gathered to their mirrors
        upper = b >= d
        half = term_powers((b * d * (b + d))[upper].astype(float), sc)
        den = np.empty(b.size, dtype=half.dtype)
        den[upper] = half
        den[~upper] = half[(b > d)[upper]]
        with np.errstate(all="ignore"):  # add_in_order refuses an inf or NaN quotient
            total = add_in_order(total, num / den)
        count += b.size
    return SeriesEstimate(value=2.0 ** (-sc) * total, cutoff=float(bound), terms_used=count,
                          tail_bound=_tail_bound(weight, sc, bound))


# ---------------------------------------------------------------------------
# the H_s kernel


def _h_tail(s: complex, x0: np.ndarray) -> np.ndarray:
    """sum_{k >= K} g(k), g(t) = (t+u)^(-s) (t+1+u)^(-s), by the midpoint
    Euler-Maclaurin formula from t = K - 1/2.  In tau = t + u + 1/2, which
    is x0 = K + u there: int_{x0}^inf (tau^2 - 1/4)^(-s) dtau + g'/24
    - 7 g'''/5760 + 31 g^(5)/967680, the derivatives taken at x0.  The
    g^(5) term keeps H_s within 3e-13 relative of a 30-digit sum at
    K = 64 on 1/2 < Re s < 1, |Im s| <= 10 (sampled); stopping at g'''
    leaves 1.6e-12 at s = 0.6+2i and 2e-10 at 0.51+10i.

    x0 is real and positive, so every power is the exp of a real logarithm:
    a real exp for real s, which makes the result a real array, and one
    complex exp per power otherwise."""
    s = complex(s)
    if s.imag == 0:
        s = s.real
    # integral: sum_j (s)_j / (j! 4^j) * x0^(1-2s-2j) / (2s + 2j - 1),
    # each x0^(1-2s-2j) the one before times the real x0^-2
    power = np.exp((1 - 2 * s) * np.log(x0))
    step = x0 ** -2.0
    total = 0.0
    coeff = 1.0
    for j in range(8):
        total = total + coeff * power / (2 * s + 2 * j - 1)
        coeff = coeff * (s + j) / (j + 1) / 4.0
        power = power * step
    # g = A^-s B^-s with A = x0 - 1/2, B = x0 + 1/2; by Leibniz its odd
    # derivatives are g^(n) = -g sum_k C(n, k) (s)_k (s)_(n-k) A^-k B^-(n-k)
    a = x0 - 0.5
    b = x0 + 0.5
    g = np.exp(-s * (np.log(a) + np.log(b)))
    ia, ib = 1 / a, 1 / b
    rising = [1.0]  # (s)_k
    for k in range(5):
        rising.append(rising[-1] * (s + k))
    for n, bernoulli in ((1, 1 / 24), (3, -7 / 5760), (5, 31 / 967680)):
        poly = sum(math.comb(n, k) * rising[k] * rising[n - k] * ia ** k * ib ** (n - k)
                   for k in range(n + 1))
        total = total - bernoulli * g * poly
    return total


def _h_remainder(s: complex, u: np.ndarray) -> np.ndarray:
    """R_s(u) = H_s(u) - u^(-s) (1+u)^(-s) = sum_{k>=1} (k+u)^(-s) (k+1+u)^(-s)
    on an array of u >= 0: the direct terms k < K = max(64, 8 ceil|s|) as
    exp(-s (log(k+u) + log(k+1+u))) on real logarithms, each taken once (a
    real exp for real s, whose result is then a real array, and one complex
    exp per term otherwise), then _h_tail(s, K + u)."""
    k_terms = max(64, int(math.ceil(abs(s))) * 8)
    logs = np.log(np.arange(1, k_terms + 1)[:, None] + u)
    exponent = s.real if s.imag == 0 else s
    direct = np.exp(-exponent * (logs[:-1] + logs[1:])).sum(axis=0)
    return direct + _h_tail(s, k_terms + u)


# The remainder R_s is interpolated at this many Chebyshev nodes plus two
# per unit of ceil|s|
_H_NODES = 24


def h_kernel_batch(s, u: np.ndarray) -> np.ndarray:
    """H_s(u) for an array of u in (0, 1], to ~1e-13 relative, as complex128.

    H_s(u) is its k = 0 term u^(-s) (1+u)^(-s), taken as exp(-s (log u +
    log(1+u))) on real logarithms (a real exp for real s, whose imaginary
    part is then exactly 0), plus the remainder R_s(u) = sum_{k>=1}, which
    is analytic for Re u > -1.  R_s is its Chebyshev interpolant on [0, 1]:
    _h_remainder at the n = _H_NODES + 2 ceil|s| first-kind nodes, the
    coefficients by one cosine matrix product, summed by Clenshaw at
    t = 2u - 1.  So each u costs two logs and one exp, and the interpolant
    depends on s alone: an entry does not depend on the rest of the array.
    Against 30-digit mpmath it reads 1-3.4e-15 relative at s = 0.501 to 2.5,
    0.6+2i and 2.5+7i, 2-6e-14 at 0.6+30i, 0.75+50i and 0.9+100i (as the
    direct sum does), 4.5e-15 at s = 10 and 1.8e-14 at s = 40."""
    sc = complex(s)
    if sc.real <= 0.5:
        raise ValueError("H_s needs Re(s) > 1/2")
    u = np.asarray(u, dtype=float)
    if (u <= 0).any() or (u > 1).any():
        raise ValueError("u must lie in (0, 1]")
    n = _H_NODES + 2 * math.ceil(abs(sc))
    angles = np.pi * (np.arange(n) + 0.5) / n
    nodes = (1 + np.cos(angles)) / 2
    coeffs = np.cos(np.outer(np.arange(n), angles)) @ _h_remainder(sc, nodes) * (2 / n)
    coeffs[0] /= 2
    t = 2 * u - 1
    two_t = 2 * t
    b1 = b2 = 0.0
    for c in coeffs[:0:-1]:
        b1, b2 = c + two_t * b1 - b2, b1
    exponent = sc.real if sc.imag == 0 else sc
    head = np.exp(-exponent * (np.log(u) + np.log(1 + u)))
    return (head + (coeffs[0] + t * b1 - b2)).astype(complex)


def h_kernel(s, u: float) -> complex:
    """H_s(u) = sum_{k>=0} (k+u)^(-s) (k+1+u)^(-s), Re(s) > 1/2."""
    return complex(h_kernel_batch(s, np.array([float(u)]))[0])


def h_kernel_integral(s) -> complex:
    """int_0^1 H_s(u) du = Gamma(1-s) Gamma(2s-1) / Gamma(s) on the strip
    1/2 < Re(s) < 1."""
    from scipy.special import gamma

    sc = complex(s)
    if not 0.5 < sc.real < 1:
        raise ValueError("closed form needs 1/2 < Re(s) < 1")
    val = gamma(1 - sc) * gamma(2 * sc - 1) / gamma(sc)
    return complex(val)


_JACOBI_NODES = 80  # Gauss-Jacobi nodes on the singular part of H_s


def h_kernel_integral_quadrature(s: float) -> float:
    """int_0^1 H_s(u) du by quadrature of the kernel itself (real s): the
    singular part u^(-s)(1+u)^(-s) by Gauss-Jacobi with weight u^(-s), the
    smooth remainder _h_remainder on one gauss_legendre cell."""
    from scipy.special import roots_jacobi

    if not 0.5 < s < 1:
        raise ValueError("quadrature route needs 1/2 < s < 1")
    # Gauss-Jacobi on [-1,1] with weight (1-x)^alpha (1+x)^beta; map u=(1+x)/2
    x, w = roots_jacobi(_JACOBI_NODES, 0.0, -s)
    u = (x + 1) / 2
    singular = float((w * (1 + u) ** (-s)).sum() * 0.5 ** (1 - s))
    remainder = gauss_legendre(lambda uu: _h_remainder(complex(s), uu), 0.0, 1.0)
    return singular + remainder


# ---------------------------------------------------------------------------
# Sigma_b and the equidistribution measurement


_WEIGHT_TOL = 1e-10  # absolute tolerance of the |f''|^s quadrature


def weight_power_integral(weight: SmoothWeight, s) -> complex:
    """int_0^1 |f''(v)|^s dv by adaptive_quadrature, one array call of f''
    per cell (a real pass for real s, one complex pass otherwise)."""
    sc = complex(s)
    exponent = sc.real if sc.imag == 0 else sc
    return complex(adaptive_quadrature(lambda v: np.abs(weight.d2f(v)) ** exponent,
                                       0.0, 1.0, _WEIGHT_TOL))


def sigma_b(weight: SmoothWeight, s, b: int) -> tuple[complex, complex, float]:
    """(Sigma_b(s), main term, |deviation|): the reduced-residue sum
    sum H_s(r/b) |f''(rbar/b)|^s against phi(b) (int H_s)(int |f''|^s).
    b >= 1."""
    _require_int(b, "b")
    if b < 1:  # no reduced residues, and no phi(b)
        raise ValueError(f"b must be at least 1, got {b}")
    sc = complex(s)
    h_integral = h_kernel_integral(sc)  # refuses s off 1/2 < Re s < 1 before any sum
    rs, rbars = reduced_residue_inverses(b)
    h_vals = h_kernel_batch(sc, rs / b)
    f_vals = term_powers(np.abs(weight.d2f(rbars / b)), sc)
    value = complex((h_vals * f_vals).sum())
    phi = arithmetic_functions(b)[0]
    main = phi * h_integral * weight_power_integral(weight, sc)
    return value, complex(main), abs(value - main)


# ---------------------------------------------------------------------------
# Fejer approximation


_FEJER_GRID = 2**14  # periodic sample points of G


def fejer_defect(g: Callable, n: int) -> float:
    """sup-grid norm of G - (G * F_N), the Fejer mean of order N computed by
    triangular weighting of the FFT spectrum of G on a fine periodic grid.
    g takes the float64 array of grid points (a scalar return is broadcast)."""
    if n < 2:
        raise ValueError("Fejer order must be at least 2")
    xs = np.arange(_FEJER_GRID) / _FEJER_GRID
    vals = np.broadcast_to(np.asarray(g(xs), dtype=float), xs.shape)
    spec = np.fft.rfft(vals)
    freqs = np.arange(len(spec))
    weights = np.clip(1 - freqs / n, 0.0, None)
    mean = np.fft.irfft(spec * weights, n=_FEJER_GRID)
    return float(np.max(np.abs(vals - mean)))


# ---------------------------------------------------------------------------
# residue main term and Legendre duality


def residue_main_term(weight: SmoothWeight) -> float:
    """Res_{s=2/3} Z_f(s) = (sqrt(3) Gamma(1/3)^3 / 2^(2/3) / pi^3)
    * int_0^1 |f''|^(2/3), the constant being
    models.boundary_residue_constant()."""
    return models.boundary_residue_constant() * weight_power_integral(weight, 2 / 3.0).real


def legendre_dual(chart: ArcChart) -> SmoothWeight:
    """The dual weight g~(u) = g*(-u) on u in [0, 1] of a chart's graph
    function: g~(u) = -min_x (u x + g(x)), g~''(u) = 1/g''(x(u)).

    x(u) solves g'(x) = -u: it is the tangency point of chart direction
    (u, 1), which ArcChart.tangency_x solves on the whole array of u (x_max
    at u = 0).  The chart's slope range must cover [-1, 0].

    g~(u) = -h(u, 1) for the chart's 1-homogeneous support h, so T_I(g~) of
    I = [c/d, a/b] is minus the support defect at (a, b, c, d): the dual's
    T_I rule is -1/defect_den, or -defect_float where the chart has no
    defect_den."""
    if chart.g is None or chart.dg is None or chart.d2g is None:
        raise ValueError("chart carries no graph data")
    if chart.dg(1e-12) > -1 + 1e-12:  # g' increases: it must reach -1 near 0
        raise ValueError("slope range not covered: g' does not reach -1")

    def at_tangency(value):
        # on a flat array, so that a scalar u takes numpy's array loops too,
        # whose powers may round differently from its scalar ones
        def fn(u):
            flat = np.asarray(u, dtype=np.float64).reshape(-1)
            return value(flat, chart.tangency_x(flat, 1)).reshape(np.shape(u))[()]
        return fn

    if chart.defect_den is not None:
        def t_rule(iv):
            return -1 / chart.defect_den(iv.a, iv.b, iv.c, iv.d)
    else:
        def t_rule(iv):
            return -chart.defect_float(iv.a, iv.b, iv.c, iv.d)

    d2f = at_tangency(lambda u, x: 1.0 / chart.d2g(x))
    return SmoothWeight(f=at_tangency(lambda u, x: -(u * x + chart.g(x))), d2f=d2f,
                        t_rule=t_rule, curvature=lambda iv: np.abs(d2f(iv.a / iv.b)),
                        name=f"dual({chart.name})")
