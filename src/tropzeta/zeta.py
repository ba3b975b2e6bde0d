"""The zeta engine: boundary Dirichlet series, the identity and Mellin
evaluation routes, exact polygon residues at s = 1 and s = 0, and the fitted
residue at s = 2/3.

Identity route:  s(s-1) Z(s) = H(s) - F(s), with H the minimal-model
correction and F = sum of size^s over the corner cuts.  On floats F takes
each distinct size's power once, from runs of equal sizes in the tree's
exact size order (a domain's charts and mirrored corners repeat sizes bit
for bit), and adds the terms per chart in node order.  Mellin route:
Z(s) = integral of t^(s-2) P(t) dt over (0, m) with P(t) the lattice
perimeter of the wave front, from the minimal model's support lines and the
cuts' support differences (float supports where the charts have them, so
the two routes share no size oracle there).  P is affine between
consecutive cut sizes, so the integral over such a cell is in closed form;
Z(s) is a sum of them, on a polygon a finite one, continued to every s but
0, 1.

Residues:  Res_1 Z = lattice perimeter (exact); Res_0 Z = -K^2 for at most
A_n-singular polygons; Res_{2/3} Z = (9/2) r with r fitted from the counting
asymptotic N^cut(t) ~ (3/2) r t^(-2/3) of smooth domains.
"""

from __future__ import annotations

import cmath
import math
from collections import Counter
from fractions import Fraction
from typing import Optional, Sequence

import numpy as np

from .cutting import deepest_tree, enumerate_cuts, profiles
from .estimates import ResidueEstimate, SeriesEstimate, add_in_order, gauss_legendre, term_powers
from .geometry import (
    ConvexDomain,
    clip_polygon,
    det2,
    dot2,
    require_a_n_corners,
    sub2,
)
from .lattice import factorize
from .minimal import correction_h, k_squared, minimal_model_of


class NumericalRegimeError(RuntimeError):
    """A numerical-regime failure (asymptotics out of reach), as opposed to a
    malformed input; the CLI maps this to exit code 2."""


# ---------------------------------------------------------------------------
# boundary series and the identity route


def boundary_series(domain: ConvexDomain, s, eps) -> SeriesEstimate:
    """F(s) truncated at size eps: sum of size^s over all cuts of size >= eps,
    summed per chart and then totaled.  Exact rational for polygon domains at
    integer s (eps = 0 gives the full finite sum).  On smooth domains
    tail_hint estimates (does not bound) the rest for Re s > a, from the cut
    count N(t) ~ C t^(-a): a = 2/3 on smooth arcs, alpha on D_alpha.

    The float path takes each distinct size's power once: the kept cuts are
    a prefix of the tree's exact size order, where equal sizes are runs
    (CutTree.size_runs), so the first size of each run is powered and the
    power gathered to the run's cuts.  Each chart's terms are then added in
    node order, so the value equals a term-by-term sum bit for bit."""
    tree = deepest_tree(domain, eps)
    exact = domain.is_polygon and domain.polygon.is_exact and isinstance(s, int)
    keep = tree.cut_sizes.at_least(eps)
    if exact:  # the sizes, each raised to s as a Fraction below
        column = np.array(tree.sizes(), dtype=object)
    else:  # each cut's term size^s
        sizes, counts, nodes = tree.size_runs(eps)
        powers = term_powers(sizes, complex(s))
        column = np.empty(len(tree.nodes), dtype=powers.dtype)
        column[nodes] = np.repeat(powers, counts)
    per_chart = []  # the sum of each chart that has a term
    count = 0
    for lo, hi in zip(tree.chart_offsets, tree.chart_offsets[1:]):
        picked = column[lo:hi][keep[lo:hi]]
        if picked.size:
            per_chart.append(sum(Fraction(x) ** s for x in picked.tolist()) if exact
                             else add_in_order(0j, picked))
        count += picked.size
    total = sum(per_chart) if per_chart else (Fraction(0) if exact else 0j)
    sigma = complex(s).real
    a = domain.params["alpha"] if domain.tag == "d_alpha" else 2 / 3
    tail = None
    if not domain.is_polygon and sigma > a and count:
        # from N(t) ~ C t^(-a): sum_{c < eps} c^sigma ~ N(eps) eps^sigma
        # * a/(sigma - a)
        tail = count * float(eps) ** sigma * a / (sigma - a)
    return SeriesEstimate(value=total, cutoff=float(eps), terms_used=count, tail_hint=tail)


def zeta_via_identity(domain: ConvexDomain, s, eps) -> SeriesEstimate:
    """Z(s) = (H(s) - F(s)) / (s (s-1)) with F truncated at eps."""
    sc = complex(s)
    if not cmath.isfinite(sc):
        raise ValueError(f"s must be finite, got {s!r}")
    if sc in (0j, 1 + 0j):
        raise ValueError("pole of prefactor; use residue operations")
    mm = minimal_model_of(domain)
    fest = boundary_series(domain, s, eps)
    # F is exact on an exact polygon at integer s, and H is exact there too
    x = s if isinstance(fest.value, Fraction) else sc
    val = (correction_h(mm, x) - fest.value) / (x * (x - 1))
    tail = fest.tail_hint / abs(sc * (sc - 1)) if fest.tail_hint else None
    return SeriesEstimate(value=val, cutoff=fest.cutoff,
                          terms_used=fest.terms_used, tail_hint=tail)


def exact_digits_floor(domain: ConvexDomain, s, eps) -> int:
    """A lower bound on the decimal digits of the numerator or of the
    denominator, whichever has more, of the exact Z(s) that
    zeta_via_identity returns on an exact polygon at an int s other than 0
    and 1 (0 anywhere else), found without taking a power.

    s (s-1) Z(s) = H(s) - F(s) is the sum of m^(s-1) (2 l s + k m) and of
    -n x^s for each distinct kept size x, held by n cuts.  Where one of
    those terms has the least p-adic valuation v of them all, v_p(Z(s)) =
    v - v_p(s (s-1)), and p to that power divides the numerator (v_p > 0)
    or the denominator (v_p < 0); the primes p are those of the bases m
    and x found by trial division below 10^4.  Where one term T outweighs
    the others put together, |Z(s)| >= |T| / (2 |s (s-1)|), and the
    numerator is at least |Z(s)|, the denominator at least 1 / |Z(s)|."""
    if not (domain.is_polygon and domain.polygon.is_exact and isinstance(s, int)) or s in (0, 1):
        return 0
    mm = minimal_model_of(domain)
    tree = deepest_tree(domain, eps)
    keep = tree.cut_sizes.at_least(eps).tolist()
    sizes = Counter(Fraction(x) for x, k in zip(tree.sizes(), keep) if k)
    m = Fraction(mm.m)
    head = 2 * Fraction(mm.l) * s + Fraction(mm.k) * m
    # (base, exponent, factor) of each term factor * base ** exponent
    terms = [(x, s, Fraction(n)) for x, n in sizes.items()]
    if head:
        terms.append((m, s - 1, head))
    if not terms:  # Z(s) = 0
        return 0
    digits = [0.0, 0.0]  # log10 lower bounds of the numerator, the denominator
    primes = {p for x, _, _ in terms for part in (x.numerator, x.denominator)
              for p, _ in factorize(part, 10**4)}
    for p in primes:
        first, *rest = sorted(e * _valuation(x, p) + _valuation(c, p) for x, e, c in terms)
        if not rest or first < rest[0]:
            v = first - _valuation(Fraction(s * (s - 1)), p)
            digits[v < 0] += abs(v) * math.log10(p)
    *rest, top = sorted(e * math.log10(x) + math.log10(abs(c)) for x, e, c in terms)
    if sum(10 ** (t - top) for t in rest) <= 0.5:
        size = top - math.log10(2 * abs(s * (s - 1)))
        digits[size < 0] = max(digits[size < 0], abs(size))
    return math.floor(max(digits))


def _valuation(x: Fraction, p: int) -> int:
    """The p-adic valuation of a nonzero rational x."""
    v = 0
    for part, sign in ((x.numerator, 1), (x.denominator, -1)):
        while part % p == 0:
            part //= p
            v += sign
    return v


# ---------------------------------------------------------------------------
# Mellin route


_MELLIN_REL_TOL = 1e-10  # stop once a level adds less than this, relatively
_MELLIN_MAX_LEVELS = 40  # halvings of the t range toward 0


def _power_integrals(edges: np.ndarray, sigma: complex) -> np.ndarray:
    """The integral of t^(sigma - 1) over each cell [a, b] of the edges, free
    of cancellation, with the larger power taken out: for Re sigma > 0
    b^sigma (-expm1(-sigma log1p((b - a)/a))) / sigma, else a^sigma
    expm1(sigma log1p((b - a)/a)) / sigma (at large |sigma| the smaller
    power underflows where the expm1 overflows); b^sigma / sigma
    (continued in sigma) on a cell that starts at 0."""
    a, b = edges[:-1], edges[1:]
    out = np.empty(len(a), dtype=complex)
    pos = a > 0
    out[~pos] = b[~pos] ** sigma / sigma
    a, b = a[pos], b[pos]
    log_ratio = np.log1p((b - a) / a)  # log(b / a)
    if sigma.real > 0:
        out[pos] = b ** sigma * -np.expm1(-sigma * log_ratio) / sigma
    else:
        out[pos] = a ** sigma * np.expm1(sigma * log_ratio) / sigma
    return out


def _kink_cells(tree, edges: np.ndarray, sc: complex) -> np.ndarray:
    """The integral of t^(s-2) P(t) over each cell of the edges, none of
    which holds a kink: A times the integral of t^(s-2) plus B times that
    of t^(s-1), in closed form, where P = A + B t on the cell (the tree's
    running sums at its midpoint, all cells in one call)."""
    a_coef, b_coef = tree.perimeter_coefficients((edges[:-1] + edges[1:]) / 2)
    # a power outside the float range leaves an inf or a NaN in the sum,
    # which zeta_via_mellin refuses
    with np.errstate(over="ignore", invalid="ignore"):
        return a_coef * _power_integrals(edges, sc - 1) + b_coef * _power_integrals(edges, sc)


def zeta_via_mellin(domain: ConvexDomain, s) -> complex:
    """Z(s) = integral over (0, m) of t^(s-2) * Length_Z(boundary Omega_t) dt.

    Between consecutive cut sizes (kinks) the perimeter is affine,
    P(t) = Length_Z(Omega^t) - t K_t^2, and such a cell adds A times the
    integral of t^(s-2) plus B times that of t^(s-1), in closed form.  A
    polygon's (0, m] is finitely many such cells, the first [0, smallest
    size]: Z(s) is one finite sum, continued to every s but 0 and 1.  A
    smooth domain needs Re(s) > 2; its t range is halved toward 0 until a
    level adds less than _MELLIN_REL_TOL of the total, every level a sum of
    such cells.  Each level asks the tree for all of its cells' (A, B) in
    one call: running sums from the minimal model's support lines and the
    cuts' support differences (CutTree.perimeter_coefficients),
    which on charts with a float support do not read the identity route's
    size oracles.  Its cells are added in order.
    """
    sc = complex(s)
    if not cmath.isfinite(sc):  # no smooth level would meet the stopping test
        raise ValueError(f"s must be finite, got {s!r}")
    if sc in (0j, 1 + 0j):
        raise ValueError("pole of Z; use residue operations")
    mm = minimal_model_of(domain)
    m = float(mm.m)
    if domain.is_polygon:
        tree = deepest_tree(domain, 0)
        edges = np.concatenate(([0.0], tree.kinks(0, m), [m]))
        total = add_in_order(0j, _kink_cells(tree, edges, sc))
    elif sc.real <= 2:
        raise ValueError("outside Mellin convergence; use identity route")
    else:
        total = 0j
        hi = m
        for level in range(_MELLIN_MAX_LEVELS):
            lo = hi / 2
            tree = deepest_tree(domain, lo)
            edges = np.concatenate(([lo], tree.kinks(lo, hi), [hi]))
            contrib = add_in_order(0j, _kink_cells(tree, edges, sc))
            total += contrib
            if abs(contrib) < _MELLIN_REL_TOL * max(abs(total), 1e-30) and level > 3:
                break
            hi = lo
    # an inf, or the NaN of inf - inf: raise as the identity route's powers do
    if not cmath.isfinite(total):
        raise OverflowError("Mellin sum outside the float range")
    return complex(total)


def rectangle_closed_form(p, q, s) -> complex:
    """s(s-1) Z_R(s) = 8 (Q/2)^s + 2 s (P-Q) (Q/2)^(s-1) for R = [0,P]x[0,Q],
    P >= Q (sides are swapped internally otherwise)."""
    p, q = float(p), float(q)
    if p <= 0 or q <= 0:
        raise ValueError("rectangle sides must be positive")
    if p < q:
        p, q = q, p
    sc = complex(s)
    return 8 * (q / 2) ** sc + 2 * sc * (p - q) * (q / 2) ** (sc - 1)


def one_cut_check(lam: float, s) -> tuple[complex, complex]:
    """Both sides of the one-cut identity: the layer-cake integral
    (s-2) * integral of t^(s-3) (lam-t)^2 / 2 dt over (0, lam) against the
    closed form lam^s / (s (s-1))."""
    sc = complex(s)
    if lam < 0:
        raise ValueError("lambda must be nonnegative")
    if lam == 0:
        return 0j, 0j
    # substitute t = lam * u and integrate u^(s-3)(1-u)^2 on (0,1): cells
    # halving toward the u = 0 singularity (integrable for Re s > 2), then the
    # exact integral of the expanded u^(s-3) - 2 u^(s-2) + u^(s-1) below them
    def integrand(u):
        return u ** (sc - 3) * (1 - u) ** 2

    total = gauss_legendre(integrand, 0.5, 1.0)
    a = 0.5
    while a > 1e-14:
        total += gauss_legendre(integrand, a / 2, a)
        a /= 2
    total += a ** (sc - 2) / (sc - 2) - 2 * a ** (sc - 1) / (sc - 1) + a**sc / sc
    lhs = (sc - 2) * lam**sc * total / 2
    rhs = lam**sc / (sc * (sc - 1))
    return complex(lhs), complex(rhs)


# ---------------------------------------------------------------------------
# exact polygon zeta by chamber integration (the independent oracle)


def _homogeneous_sym(k: int, a, b, c):
    """Complete homogeneous symmetric polynomial h_k(a, b, c)."""
    total = 0
    for i in range(k + 1):
        for j in range(k + 1 - i):
            total += a**i * b**j * c ** (k - i - j)
    return total


def zeta_polygon_exact(domain: ConvexDomain, s: int) -> Fraction:
    """Z(s) at integer s >= 3 by exact piecewise-linear integration: the
    domain is split into the linearity chambers of rho and rho^(s-2) is
    integrated over each chamber by the simplex moment formula.

    Independent of the cutting machinery: uses only the active-direction min.
    """
    if not isinstance(s, int) or s < 3:
        raise ValueError("exact chamber integration needs integer s >= 3")
    poly = domain.polygon
    if poly is None:
        raise ValueError("exact integration requires a polygon domain")
    actives = poly.active_directions()
    k = s - 2
    total = Fraction(0)
    for u, hu in actives:
        # chamber of u: slack_u <= slack_v for every other direction
        region = [tuple(map(Fraction, v)) for v in poly.vertices]
        for v, hv in actives:
            if (v, hv) == (u, hu):
                continue
            normal = sub2(v, u)
            if normal == (0, 0):
                continue
            region = clip_polygon(region, normal, hv - hu)
            if len(region) < 3:
                break
        if len(region) < 3:
            continue
        # fan triangulation; integrate (u . x - hu)^k per triangle
        p0 = region[0]
        s0 = dot2(u, p0) - hu
        for p1, p2 in zip(region[1:], region[2:]):
            area2 = det2(sub2(p1, p0), sub2(p2, p0))
            if area2 == 0:
                continue
            s1 = dot2(u, p1) - hu
            s2 = dot2(u, p2) - hu
            total += Fraction(area2) * _homogeneous_sym(k, s0, s1, s2) / ((k + 1) * (k + 2))
    return total


# ---------------------------------------------------------------------------
# residues


def polygon_residues(domain: ConvexDomain) -> tuple[Fraction, Optional[Fraction]]:
    """(Res_1, Res_0) of a rational polygon: the lattice perimeter, and
    -K^2 = -(K^2(hat) - #cuts).  Res_0 is refused (None would hide the error:
    a ValueError is raised) when some corner is not of A_n type."""
    if not domain.is_polygon:
        raise ValueError("polygon residues need a polygon domain")
    res1 = Fraction(domain.polygon.lattice_perimeter())
    tree = enumerate_cuts(domain, 0)
    hat_k2 = k_squared(tree.minimal_model.polygon)  # raises on non-A_n corner
    require_a_n_corners(domain.polygon)
    res0 = -Fraction(hat_k2 - len(tree.nodes))
    return res1, res0


def _loglog_fit(ts: np.ndarray, ys: np.ndarray) -> tuple[float, float, float]:
    """(slope, intercept, r^2) of log ys against log ts."""
    x = np.log(ts)
    y = np.log(ys)
    a = np.vstack([x, np.ones_like(x)]).T
    (slope, intercept), res, *_ = np.linalg.lstsq(a, y, rcond=None)
    ss_tot = float(((y - y.mean()) ** 2).sum())
    r2 = 1.0 - float(res[0]) / ss_tot if len(res) and ss_tot > 0 else 1.0
    return float(slope), float(intercept), r2


def fixed_slope_intercept(ts: np.ndarray, ys: np.ndarray, slope: float) -> float:
    """exp of the least-squares intercept of log ys - slope * log ts."""
    return float(np.exp(np.mean(np.log(ys) - slope * np.log(ts))))


_FIT_SAMPLES = 40  # log-spaced sample points of N(t) in a fit window


def fit_counting_exponent(sizes: Sequence[float],
                          window: tuple[float, float]) -> tuple[float, float, float]:
    """Free-slope log-log fit of N(t) = #{sizes >= t} over the window:
    (exponent, amplitude, r^2)."""
    arr = np.sort(np.asarray([float(s) for s in sizes]))[::-1]
    ts = np.logspace(math.log10(window[0]), math.log10(window[1]), _FIT_SAMPLES)
    ns = np.searchsorted(-arr, -ts, side="right").astype(float)
    if (ns <= 0).any():
        raise NumericalRegimeError("asymptotic regime not reached")
    slope, intercept, r2 = _loglog_fit(ts, ns)
    return slope, float(np.exp(intercept)), r2


def residue_two_thirds(domain: ConvexDomain, eps_min: float) -> ResidueEstimate:
    """Res_{s=2/3} Z from cut-counting asymptotics.

    Primary estimator: least-squares fit of log N^cut(t) against log t over
    the window [eps_min, eps_min^0.6] (_FIT_SAMPLES points), slope fixed at -2/3 after a
    free-slope diagnostic; N^cut(t) ~ (3/2) r t^(-2/3) gives r and
    Res Z = (9/2) r.  The perimeter fit (coefficient of t^(1/3)) and the
    area-deficit fit (coefficient of t^(4/3)) are reported as diagnostics,
    as is a two-term fit C t^(-2/3) + D t^(-1/2) that absorbs the leading
    correction.
    """
    if domain.is_polygon:
        raise NumericalRegimeError("asymptotic regime not reached")
    tree = deepest_tree(domain, eps_min)
    n_min = tree.cut_count(eps_min)
    if n_min < 10**4:
        raise NumericalRegimeError("asymptotic regime not reached")
    window = (eps_min, eps_min**0.6)
    # logspace may round its first sample just below eps_min, where the
    # tree need not reach
    ts = np.maximum(np.logspace(math.log10(window[0]), math.log10(window[1]), _FIT_SAMPLES),
                    eps_min)
    ns = tree.cut_count(ts).astype(float)
    free_slope, _, r2 = _loglog_fit(ts, ns)
    if abs(free_slope + 2 / 3) > 0.05:
        raise NumericalRegimeError("asymptotic regime not reached")
    c_fixed = fixed_slope_intercept(ts, ns, -2 / 3)
    r_counting = (2 / 3) * c_fixed
    res_counting = 4.5 * r_counting

    # diagnostics: perimeter and area-deficit fits over the same window
    prof = profiles(domain, list(ts))
    lengths = np.array([p[1] for p in prof])
    perim_slope, _, perim_r2 = _loglog_fit(ts, lengths)
    res_perimeter = fixed_slope_intercept(ts, lengths, 1 / 3)

    area = float(domain.area(eps_min))
    deficits = np.array([area - p[2] for p in prof])
    res_area = None
    deficit_slope = None
    if (deficits > 0).all():
        deficit_slope, _, _ = _loglog_fit(ts, deficits)
        res_area = fixed_slope_intercept(ts, deficits, 4 / 3) / 0.75

    # two-term diagnostic: N(t) = C t^(-2/3) + D t^(-1/2), linear in (C, D)
    a = np.vstack([ts ** (-2 / 3), ts ** (-0.5)]).T
    (c2t, d2t), *_ = np.linalg.lstsq(a, ns, rcond=None)
    res_two_term = 4.5 * (2 / 3) * float(c2t)

    diag = {
        "exponent": free_slope,
        "r2": r2,
        "window": (float(window[0]), float(window[1])),
        "samples": _FIT_SAMPLES,
        "intercept_fixed_slope": c_fixed,
        "perimeter_fit": {"value": res_perimeter, "exponent": perim_slope, "r2": perim_r2},
        "area_deficit_fit": {"value": res_area, "exponent": deficit_slope},
        "two_term_fit": {"value": res_two_term, "second_coefficient": float(d2t)},
        "cut_count_at_eps_min": int(n_min),
    }
    return ResidueEstimate(location=2 / 3, value=res_counting,
                           method="counting_fit", fit_diagnostics=diag)
