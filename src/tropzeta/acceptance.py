"""The acceptance suite: one callable per criterion, each returning a result
with the measured numbers, so both pytest and the CLI `verify` subcommand can
run them.

Criteria 9 and 10 (the fitted residue at s = 2/3 against the closed-form
targets at 5% and 7%) carry a known systematic: the counting function has a
second-order term ~ t^(-1/2) whose relative weight decays only like t^(1/6),
about -9% to -11% over the mandated fit windows at the mandated depths.  The
single-term estimator therefore lands outside the stated tolerances; the
two-term diagnostic recovers the targets to < 0.1%.  Both criteria are run
exactly as stated and report honestly.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from . import models
from .cutting import profiles
from .equiaffine import length_parametric, length_via_triangles
from .estimates import gauss_legendre
from .farey import (
    SmoothWeight,
    h_kernel_batch,
    h_kernel_integral_quadrature,
    sigma_b,
)
from .geometry import ConvexDomain
from .lattice import (
    arithmetic_functions,
    farey_from_denominators,
    farey_intervals_stern_brocot,
    kloosterman_grid,
    quadruple_from_coprime,
    quadruple_to_coprime,
    stern_brocot_quadruples,
)
from .zeta import (
    boundary_series,
    fit_counting_exponent,
    fixed_slope_intercept,
    one_cut_check,
    polygon_residues,
    rectangle_closed_form,
    residue_two_thirds,
    zeta_polygon_exact,
    zeta_via_identity,
)


@dataclass
class CriterionResult:
    number: int
    name: str
    passed: bool
    detail: str
    runtime: float = 0.0


def _pentagon_family():
    """Domains whose minimal model is the mixed-type pentagon of the
    taxonomy, carved by unimodular cuts of sizes 1/2 and 1/3."""
    return ConvexDomain.from_polygon([
        (2, 0), (Fraction(3, 2), Fraction(1, 2)), (Fraction(1, 2), 1),
        (-1, 1), (-2, -1), (Fraction(2, 3), -1), (Fraction(4, 3), Fraction(-2, 3)),
    ])


def criterion_01_parabolic_exactness() -> CriterionResult:
    count = 0
    for quad in stern_brocot_quadruples(60):
        a, b, c, d = quad.as_tuple()
        combo = abs(
            models.parabola_support(a, b)
            + models.parabola_support(c, d)
            - models.parabola_support(a + c, b + d)
        )
        if combo != models.parabola_defect(quad):
            return CriterionResult(1, "parabolic exactness", False,
                                   f"mismatch at {quad.as_tuple()}")
        count += 1
    return CriterionResult(1, "parabolic exactness", True,
                           f"{count} quadruples with a+b+c+d <= 60, exact")


def criterion_02_bijections() -> CriterionResult:
    n = 200
    via_pairs = set()
    for b in range(1, n + 1):
        for d in range(1, n + 1):
            if math.gcd(b, d) == 1:
                iv = farey_from_denominators(b, d)
                if iv.denominators() != (b, d):
                    return CriterionResult(2, "bijection suite", False,
                                           f"Farey round trip failed at {(b, d)}")
                via_pairs.add((iv.c, iv.d, iv.a, iv.b))
    via_tree = {(iv.c, iv.d, iv.a, iv.b) for iv in farey_intervals_stern_brocot(n)}
    if via_pairs != via_tree:
        return CriterionResult(2, "bijection suite", False,
                               "Farey interval sets disagree")
    bound = 100
    from_pairs = set()
    for p in range(1, bound):
        for q in range(1, bound + 1 - p):
            if math.gcd(p, q) == 1:
                quad = quadruple_from_coprime(p, q)
                if quadruple_to_coprime(quad) != (p, q):
                    return CriterionResult(2, "bijection suite", False,
                                           f"quadruple round trip failed at {(p, q)}")
                from_pairs.add(quad.as_tuple())
    from_tree = {q.as_tuple() for q in stern_brocot_quadruples(bound)}
    ok = from_pairs == from_tree
    return CriterionResult(2, "bijection suite", ok,
                           f"{len(via_pairs)} Farey intervals, {len(from_pairs)} quadruples"
                           if ok else "quadruple sets disagree")


def criterion_03_rectangle_one_cut() -> CriterionResult:
    details = []
    for p, q, s in [(2, 2, 3), (3, 2, 4)]:
        # layer-cake: Z = (s-2) int t^(s-3) (P-2t)(Q-2t) dt over (0, Q/2)
        z_quad = (s - 2) * gauss_legendre(
            lambda ts: ts ** (s - 3.0) * (p - 2 * ts) * (q - 2 * ts), 0.0, q / 2)
        closed = rectangle_closed_form(p, q, s).real / (s * (s - 1))
        err = abs(z_quad - closed)
        details.append(f"rect({p},{q},s={s}): |quad-closed|={err:.2e}")
        if err > 1e-6:
            return CriterionResult(3, "rectangle & one-cut identities", False, details[-1])
    for lam, s in [(1, 3), (2, 4)]:
        lhs, rhs = one_cut_check(lam, s)
        err = abs(lhs - rhs)
        details.append(f"one-cut(lam={lam},s={s}): |lhs-rhs|={err:.2e}")
        if err > 1e-6:
            return CriterionResult(3, "rectangle & one-cut identities", False, details[-1])
    return CriterionResult(3, "rectangle & one-cut identities", True, "; ".join(details))


def criterion_04_theorem1_polygons() -> CriterionResult:
    cases = [
        ConvexDomain.from_polygon([(2, 0), (3, 0), (3, 3), (0, 3), (0, 1)]),
        _pentagon_family(),
        ConvexDomain.from_polygon(
            [(Fraction(1, 2), 0), (2, 0), (2, 2), (0, 2), (0, Fraction(1, 2))]
        ),
    ]
    for i, dom in enumerate(cases):
        for s in (3, 4):
            lhs = zeta_polygon_exact(dom, s)
            rhs = zeta_via_identity(dom, s, 0).value
            if lhs != rhs:
                return CriterionResult(4, "Theorem 1 identity on polygons", False,
                                       f"polygon {i}, s={s}: {lhs} != {rhs}")
    return CriterionResult(4, "Theorem 1 identity on polygons", True,
                           "3 polygons, s in {3, 4}, exact rational equality")


def criterion_05_area_normalization() -> CriterionResult:
    rect = zeta_via_identity(ConvexDomain.rectangle(3, 2), 2, 0).value
    if rect != 6:
        return CriterionResult(5, "area normalization", False, f"rectangle Z(2) = {rect}")
    tri = zeta_via_identity(ConvexDomain.from_polygon([(0, 0), (1, 0), (0, 1)]), 2, 0).value
    if tri != Fraction(1, 2):
        return CriterionResult(5, "area normalization", False, f"triangle Z(2) = {tri}")
    z_l = complex(zeta_via_identity(ConvexDomain.domain_L(), 2, 1e-6).value).real
    err = abs(z_l - 10 / 3)
    ok = err <= 1e-6
    return CriterionResult(5, "area normalization", ok,
                           f"rect exact, triangle exact, |Z_L(2) - 10/3| = {err:.2e}")


def criterion_06_polygon_residues() -> CriterionResult:
    polys = [
        ConvexDomain.rectangle(3, 2),
        ConvexDomain.from_polygon([(0, 0), (1, 0), (1, 1), (0, 1)]),
        ConvexDomain.from_polygon([(0, 0), (1, 0), (0, 1)]),
        ConvexDomain.from_polygon([(2, 0), (3, 0), (3, 3), (0, 3), (0, 1)]),
        _pentagon_family(),
    ]
    for i, dom in enumerate(polys):
        res1, _res0 = polygon_residues(dom)
        if res1 != dom.polygon.lattice_perimeter():
            return CriterionResult(6, "polygon residues", False,
                                   f"polygon {i}: Res_1 = {res1}")
    res0_l = models.residue_zeta_L_zero()
    err = abs(float(res0_l) - (-32 / 3))
    ok = err <= 1e-9
    return CriterionResult(6, "polygon residues", ok,
                           f"Res_1 = lattice perimeter on 5 polygons; Res_0 Z_L = {res0_l}")


def criterion_07_h_kernel() -> CriterionResult:
    target = math.gamma(1 / 3) ** 2 / math.gamma(2 / 3)
    quad = h_kernel_integral_quadrature(2 / 3)
    err = abs(quad - target)
    if err > 1e-9:
        return CriterionResult(7, "H_s kernel", False,
                               f"integral quadrature error {err:.2e}")
    # Lemma 20/21-shaped bounds on a grid (kept slightly inside (0, 1] so the
    # central difference stays in range)
    us = np.logspace(-3, -0.001, 40)
    for s in (0.55, 2 / 3, 0.8, 0.95):
        c_s = 2.0 + models.riemann_zeta(2 * s).real
        h_vals = np.abs(h_kernel_batch(s, us))
        if not (h_vals <= c_s * us ** (-s) + 1e-12).all():
            return CriterionResult(7, "H_s kernel", False, f"value bound fails at s={s}")
        # derivative bound with C = |s| (2 + 2 zeta(2s+1))
        du = 1e-6 * us
        dh = np.abs(h_kernel_batch(s, us + du) - h_kernel_batch(s, us - du)) / (2 * du)
        c_d = abs(s) * (2 + 2 * models.riemann_zeta(2 * s + 1).real)
        if not (dh <= c_d * us ** (-s - 1) + 1e-9).all():
            return CriterionResult(7, "H_s kernel", False, f"derivative bound fails at s={s}")
    return CriterionResult(7, "H_s kernel", True,
                           f"integral error {err:.2e}; bounds hold on the (s, u) grid")


def criterion_08_equiaffine() -> CriterionResult:
    one_arc = length_parametric(lambda t: (-2 * t, 2 - 2 * t),
                                lambda t: (-2.0, -2.0), (0.0, 1.0))
    err_arc = abs(one_arc - 4 ** (1 / 3.0))
    if err_arc > 1e-9:
        return CriterionResult(8, "equiaffine", False, f"one-arc error {err_arc:.2e}")
    total = 4 * one_arc
    err_total = abs(total - 4 ** (4 / 3.0))
    tri = length_via_triangles(ConvexDomain.domain_L(), 1e-5)
    rel_tri = abs(tri / 4 ** (4 / 3.0) - 1)
    ok = err_total <= 1e-9 and rel_tri <= 0.02
    return CriterionResult(8, "equiaffine", ok,
                           f"one arc err {err_arc:.2e}; total err {err_total:.2e}; "
                           f"triangle route rel err {rel_tri:.1e}")


def criterion_09_residue_L() -> CriterionResult:
    target = models.residue_zeta_L_two_thirds()
    est = residue_two_thirds(ConvexDomain.domain_L(), 1e-7)
    rel = abs(est.value / target - 1)
    two_term = est.fit_diagnostics["two_term_fit"]["value"]
    ok = rel <= 0.05
    return CriterionResult(
        9, "residue 2/3, domain L", ok,
        f"counting fit {est.value:.4f} vs target {target:.4f} (rel {rel:+.2%}, "
        f"tolerance 5%); free exponent {est.fit_diagnostics['exponent']:.4f}; "
        f"two-term diagnostic {two_term:.4f} (rel {two_term / target - 1:+.2%})")


def criterion_10_residue_disk() -> CriterionResult:
    target = models.equiaffine_residue_constant() * 2 * math.pi
    est = residue_two_thirds(ConvexDomain.disk(1.0), 1e-7)
    rel = abs(est.value / target - 1)
    two_term = est.fit_diagnostics["two_term_fit"]["value"]
    ok = rel <= 0.07
    return CriterionResult(
        10, "residue 2/3, unit disk", ok,
        f"counting fit {est.value:.4f} vs target {target:.4f} (rel {rel:+.2%}, "
        f"tolerance 7%); two-term diagnostic {two_term:.4f} "
        f"(rel {two_term / target - 1:+.2%})")


def criterion_11_wavefront_asymptotics() -> CriterionResult:
    dom = ConvexDomain.domain_L()
    ts = np.logspace(-6, -3, 40)
    prof = profiles(dom, list(ts))
    lengths = np.array([p[1] for p in prof])
    x = np.log(ts)
    y = np.log(lengths)
    slope = float(np.polyfit(x, y, 1)[0])
    if abs(slope - 1 / 3) > 0.03:
        return CriterionResult(11, "wave-front asymptotics", False,
                               f"perimeter exponent {slope:.4f} not within 1/3 +- 0.03")
    prefactor = fixed_slope_intercept(ts, lengths, 1 / 3)
    # Theorem 8 relation: prefactor = (9/2) r with r the counting-fit residue
    # of F at matching depth
    est = residue_two_thirds(dom, 1e-6)
    nine_halves_r = est.value  # = (9/2) * r_counting
    rel = abs(prefactor / nine_halves_r - 1)
    if rel > 0.07:
        return CriterionResult(11, "wave-front asymptotics", False,
                               f"prefactor {prefactor:.4f} vs (9/2) r = "
                               f"{nine_halves_r:.4f} (rel {rel:+.2%} > 7%)")
    area = 10 / 3
    deficits = np.array([area - p[2] for p in prof])
    slope_a = float(np.polyfit(x, np.log(deficits), 1)[0])
    ok = abs(slope_a - 4 / 3) <= 0.03
    return CriterionResult(
        11, "wave-front asymptotics", ok,
        f"perimeter exponent {slope:.4f} (1/3 +- 0.03); prefactor vs (9/2)r rel "
        f"{rel:+.2%} (7%); area-deficit exponent {slope_a:.4f} (4/3 +- 0.03)")


def criterion_12_sigma_b_equidistribution() -> CriterionResult:
    weights = [SmoothWeight.quadratic(),
               SmoothWeight.from_polynomial([0, 0, 0.5, 1 / 10])]
    primes = [p for p in
              (101, 151, 211, 307, 401, 601, 809, 1109, 1601, 2203, 3203, 4409, 4999)
              if all(p % q for q in range(2, int(p**0.5) + 1))]
    details = []
    for w in weights:
        for s in (0.65, 0.7, 0.8):
            devs = [sigma_b(w, s, b)[2] for b in primes]
            slope = float(np.polyfit(np.log(primes), np.log(devs), 1)[0])
            bound = (1 + s) / 2 + 0.1
            details.append(f"{w.name}@s={s}: exponent {slope:.3f} <= {bound:.3f}")
            if slope > bound:
                return CriterionResult(12, "Sigma_b equidistribution", False, details[-1])
    return CriterionResult(12, "Sigma_b equidistribution", True, "; ".join(details))


def criterion_13_kloosterman_weil() -> CriterionResult:
    ns = np.arange(-10, 11)
    worst = 0.0
    for b in range(1, 501):
        tau = arithmetic_functions(b)[1]
        grid = np.abs(kloosterman_grid(b, ns, ns))
        for i, n in enumerate(ns):
            for j, h in enumerate(ns):
                g = math.gcd(math.gcd(abs(int(n)), abs(int(h))), b)
                g = g if g else b
                bound = tau * math.sqrt(g) * math.sqrt(b)
                ratio = grid[i, j] / bound
                worst = max(worst, ratio)
                if grid[i, j] > bound + 1e-9:
                    return CriterionResult(13, "Kloosterman Weil bound", False,
                                           f"violated at (n={n}, h={h}, b={b})")
    return CriterionResult(13, "Kloosterman Weil bound", True,
                           f"exhaustive b <= 500, |n|,|h| <= 10; worst ratio {worst:.3f}")


def criterion_14_d_alpha() -> CriterionResult:
    details = []
    for alpha in (0.4, 2 / 3, 0.8):
        n_max = 20000
        dom = ConvexDomain.d_alpha(alpha, n_max)
        s = 2 * alpha
        est = boundary_series(dom, s, 0.5 * n_max ** (-1.0 / alpha))
        expected = models.d_alpha_expected_series(alpha, s, n_max)
        err = abs(complex(est.value) - expected)
        if err > 1e-9 * max(1.0, abs(expected)) or est.terms_used != n_max:
            return CriterionResult(14, "D_alpha", False,
                                   f"alpha={alpha}: series mismatch ({err:.2e})")
        sizes = models.d_alpha_cut_sizes(alpha, n_max)
        window = (float(sizes[int(0.95 * n_max)]), float(sizes[int(0.05 * n_max)]))
        slope, _, _ = fit_counting_exponent(sizes, window)
        details.append(f"alpha={alpha}: exponent {slope:.4f}")
        if abs(slope + alpha) > 0.01:
            return CriterionResult(14, "D_alpha", False,
                                   f"alpha={alpha}: exponent {slope:.4f} not -alpha +- 0.01")
    return CriterionResult(14, "D_alpha", True,
                           "term-by-term series equality; " + "; ".join(details))


def criterion_15_hata_reconstruction() -> CriterionResult:
    from .farey import hata_reconstruct_grid

    w = SmoothWeight.quadratic()
    xs = np.linspace(0, 1, 1001)
    target = xs * xs / 2
    sups = []
    for bound in (4, 16, 64, 256):
        err = float(np.max(np.abs(hata_reconstruct_grid(w, bound, xs) - target)))
        sups.append(err)
    ok = sups[0] > sups[1] > sups[2] > sups[3]
    return CriterionResult(15, "Hata reconstruction", ok,
                           "sup errors " + " > ".join(f"{e:.2e}" for e in sups))


ALL_CRITERIA = [
    criterion_01_parabolic_exactness,
    criterion_02_bijections,
    criterion_03_rectangle_one_cut,
    criterion_04_theorem1_polygons,
    criterion_05_area_normalization,
    criterion_06_polygon_residues,
    criterion_07_h_kernel,
    criterion_08_equiaffine,
    criterion_09_residue_L,
    criterion_10_residue_disk,
    criterion_11_wavefront_asymptotics,
    criterion_12_sigma_b_equidistribution,
    criterion_13_kloosterman_weil,
    criterion_14_d_alpha,
    criterion_15_hata_reconstruction,
]

QUICK_NUMBERS = {1, 2, 3, 4, 5, 6, 7, 8, 13, 14, 15}


def run_suite(suite: str = "full") -> list[CriterionResult]:
    results = []
    for fn in ALL_CRITERIA:
        number = int(fn.__name__.split("_")[1])
        if suite == "quick" and number not in QUICK_NUMBERS:
            continue
        start = time.time()
        try:
            res = fn()
        except Exception as exc:  # a crashed criterion is a failed criterion
            res = CriterionResult(number, fn.__name__, False, f"error: {exc}")
        res.runtime = time.time() - start
        results.append(res)
    return results
