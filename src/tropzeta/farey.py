"""Farey intervals, Hata coefficients, and the weighted Farey zeta function.

For a Farey interval I = [c/d, a/b] (ad - bc = 1) and a weight f in
C^3([0,1]) with |f''| bounded away from 0:

    c_I(f) = f((a+c)/(b+d)) - b/(b+d) f(a/b) - d/(b+d) f(c/d),
    T_I(f) = (b+d) c_I(f) = -f''(xi_I) / (2 b d (b+d))   for some xi_I in I,
    Z_f(s) = sum over I of |T_I(f)|^s,

with endpoint model  Z^end_f(s) = 2^(-s) sum |f''(a/b)|^s / (b d (b+d))^s.
Reorganizing by the first denominator via d = k b + r produces the kernel

    H_s(u) = sum_{k>=0} (k+u)^(-s) (k+1+u)^(-s),
    Z^end_f(s) = 2^(-s) sum_b b^(-3s) Sigma_b(s),
    Sigma_b(s) = sum over reduced residues r of H_s(r/b) |f''(rbar/b)|^s,

and Sigma_b(s) equidistributes to phi(b) * (int H_s) * (int |f''|^s) with a
power-saving error.  The boundary series of a convex arc is the Farey zeta of
the Legendre dual of its graph function.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable

import numpy as np
from scipy.special import gamma as _gamma

from .estimates import SeriesEstimate
from .geometry import ArcChart
from .lattice import (
    FareyInterval,
    arithmetic_functions,
    coprime_pairs_by_max,
    farey_from_denominators,
    mod_inverse,
    reduced_residues,
)


@dataclass
class SmoothWeight:
    """A C^3 weight on [0, 1] with |f''| of constant sign, bounded away from 0.

    It carries f (read by the Hata coefficients) and f'' (read by the
    endpoint model, Sigma_b and the residue main term)."""

    f: Callable[[float], float]
    d2f: Callable[[float], float]
    name: str = ""

    @staticmethod
    def from_polynomial(coeffs) -> "SmoothWeight":
        p = np.polynomial.Polynomial([float(c) for c in coeffs])
        return SmoothWeight(f=p, d2f=p.deriv(2), name=f"poly{list(coeffs)}")

    @staticmethod
    def quadratic() -> "SmoothWeight":
        return SmoothWeight(f=lambda x: x * x / 2, d2f=lambda x: 1.0, name="quadratic")


def hata_basis(interval: FareyInterval, x):
    """Hata's tent function S_I(x), supported on I with S_I(mediant) = 1.

    x is a float or a numpy array of points; the tent is taken elementwise."""
    a, b, c, d = interval.a, interval.b, interval.c, interval.d
    return (b + d) / 2 * (
        abs(a - b * x) + abs(c - d * x) - abs(a + c - (b + d) * x)
    )


def hata_coefficient(weight: SmoothWeight, interval: FareyInterval):
    """(c_I(f), T_I(f))."""
    a, b, c, d = interval.a, interval.b, interval.c, interval.d
    bd = b + d
    c_i = (
        weight.f((a + c) / bd)
        - b / bd * weight.f(a / b)
        - d / bd * weight.f(c / d)
    )
    return c_i, bd * c_i


def farey_intervals_by_sum(max_bd_sum: int):
    """All Farey intervals with b + d <= bound."""
    out = []
    for b in range(1, max_bd_sum):
        for d in range(1, max_bd_sum - b + 1):
            if math.gcd(b, d) == 1:
                out.append(farey_from_denominators(b, d))
    return out


def hata_reconstruct_grid(weight: SmoothWeight, bound: int, xs) -> np.ndarray:
    """Partial Hata expansion f(0) + (f(1) - f(0)) x + sum c_I S_I(x) over
    intervals with b + d <= bound, evaluated on a grid of x values."""
    xs = np.asarray(xs, dtype=float)
    total = weight.f(0.0) + (weight.f(1.0) - weight.f(0.0)) * xs
    for iv in farey_intervals_by_sum(bound):
        c_i, _ = hata_coefficient(weight, iv)
        total = total + c_i * hata_basis(iv, xs)
    return total


def farey_zeta(weight: SmoothWeight, s, bound: int) -> SeriesEstimate:
    """Z_f(s) truncated to intervals with max(b, d) <= bound (which contains
    every interval with b + d <= bound), enumerated deterministically by
    max(b, d) ascending."""
    sc = complex(s)
    total = 0j
    count = 0
    for b, d in coprime_pairs_by_max(bound):
        interval = farey_from_denominators(b, d)
        _, t_i = hata_coefficient(weight, interval)
        if t_i != 0:
            total += complex(abs(t_i)) ** sc
        count += 1
    return SeriesEstimate(value=total, cutoff=float(bound), terms_used=count)


def endpoint_model(weight: SmoothWeight, s, bound: int) -> SeriesEstimate:
    """Z^end_f(s) = 2^(-s) sum |f''(a/b)|^s / (b d (b+d))^s, same truncation
    and enumeration as farey_zeta."""
    sc = complex(s)
    total = 0j
    count = 0
    for b, d in coprime_pairs_by_max(bound):
        a = mod_inverse(d, b)
        term = abs(weight.d2f(a / b)) ** sc / complex(b * d * (b + d)) ** sc
        total += term
        count += 1
    return SeriesEstimate(value=2.0 ** (-sc) * total, cutoff=float(bound), terms_used=count)


# ---------------------------------------------------------------------------
# the H_s kernel


def _h_tail(s: complex, x0: np.ndarray) -> np.ndarray:
    """sum_{k >= a} g(k) - midpoint Euler-Maclaurin at x0 = a - 1/2 + u:
    integral + g'(x0)/24 - 7 g'''(x0)/5760, with the integral
    int_{x0}^inf (t+u)^(-s)(t+1+u)^(-s) dt expanded around tau = t + 1/2."""
    # here x0 is the tau-coordinate center: tau0 = K + 1/2 + u
    s = complex(s)
    # integral: sum_j (s)_j / (j! 4^j) * tau0^(1-2s-2j) / (2s + 2j - 1)
    integral = np.zeros_like(x0, dtype=complex)
    coeff = 1.0 + 0j
    for j in range(8):
        integral = integral + coeff * x0 ** (1 - 2 * s - 2 * j) / (2 * s + 2 * j - 1)
        coeff = coeff * (s + j) / (j + 1) / 4.0
    # derivatives of g(t) = A^-s B^-s at the midpoint, A = tau0 - 1/2,
    # B = tau0 + 1/2
    a = x0 - 0.5
    b = x0 + 0.5
    g = a ** (-s) * b ** (-s)
    gp = -s * g * (1 / a + 1 / b)
    gppp = (
        -s * (s + 1) * (s + 2) * (a ** (-s - 3) * b ** (-s) + a ** (-s) * b ** (-s - 3))
        - 3 * s * s * (s + 1) * (a ** (-s - 2) * b ** (-s - 1) + a ** (-s - 1) * b ** (-s - 2))
    )
    return integral + gp / 24 - 7 * gppp / 5760


def h_kernel_batch(s, u: np.ndarray) -> np.ndarray:
    """H_s(u) for an array of u in (0, 1], accelerated to ~1e-12 relative."""
    sc = complex(s)
    if sc.real <= 0.5:
        raise ValueError("H_s needs Re(s) > 1/2")
    u = np.asarray(u, dtype=float)
    if (u <= 0).any() or (u > 1).any():
        raise ValueError("u must lie in (0, 1]")
    k_terms = max(64, int(math.ceil(abs(sc))) * 8)
    k = np.arange(k_terms)[:, None]
    direct = ((k + u) ** (-sc) * (k + 1 + u) ** (-sc)).sum(axis=0)
    # tail k >= K in tau = t + u + 1/2 coordinates starts at tau0 = K + u
    return direct + _h_tail(sc, k_terms + u)


def h_kernel(s, u: float) -> complex:
    """H_s(u) = sum_{k>=0} (k+u)^(-s) (k+1+u)^(-s), Re(s) > 1/2."""
    return complex(h_kernel_batch(s, np.array([float(u)]))[0])


def h_kernel_integral(s) -> complex:
    """int_0^1 H_s(u) du = Gamma(1-s) Gamma(2s-1) / Gamma(s) on the strip
    1/2 < Re(s) < 1."""
    sc = complex(s)
    if not 0.5 < sc.real < 1:
        raise ValueError("closed form needs 1/2 < Re(s) < 1")
    val = _gamma(1 - sc) * _gamma(2 * sc - 1) / _gamma(sc)
    return complex(val)


_JACOBI_NODES = 80  # Gauss-Jacobi nodes on the singular part of H_s


def h_kernel_integral_quadrature(s: float) -> float:
    """int_0^1 H_s(u) du by quadrature of the kernel itself (real s): the
    singular part u^(-s)(1+u)^(-s) by Gauss-Jacobi with weight u^(-s), the
    C^1 remainder sum_{k>=1} by Gauss-Legendre."""
    from scipy.special import roots_jacobi

    if not 0.5 < s < 1:
        raise ValueError("quadrature route needs 1/2 < s < 1")
    # Gauss-Jacobi on [-1,1] with weight (1-x)^alpha (1+x)^beta; map u=(1+x)/2
    x, w = roots_jacobi(_JACOBI_NODES, 0.0, -s)
    u = (x + 1) / 2
    singular = float((w * (1 + u) ** (-s)).sum() * 0.5 ** (1 - s))
    nodes, weights = np.polynomial.legendre.leggauss(64)
    uu = (nodes + 1) / 2
    k = np.arange(1, 400)[:, None]
    remainder_vals = ((k + uu) ** (-s) * (k + 1 + uu) ** (-s)).sum(axis=0)
    # tail of the remainder sum, same acceleration as h_kernel
    remainder_vals += _h_tail(complex(s), 400 + uu).real
    remainder = float((weights * remainder_vals).sum() / 2)
    return singular + remainder


# ---------------------------------------------------------------------------
# Sigma_b and the equidistribution measurement


def _adaptive_simpson(f, a: float, b: float, tol: float = 1e-10,
                      depth: int = 30) -> float:
    fa, fb, fm = f(a), f(b), f((a + b) / 2)

    def recurse(a, fa, b, fb, fm, whole, depth):
        m = (a + b) / 2
        lm, rm = (a + m) / 2, (m + b) / 2
        flm, frm = f(lm), f(rm)
        left = (m - a) / 6 * (fa + 4 * flm + fm)
        right = (b - m) / 6 * (fm + 4 * frm + fb)
        if depth <= 0 or abs(left + right - whole) <= 15 * tol:
            return left + right + (left + right - whole) / 15
        return (recurse(a, fa, m, fm, flm, left, depth - 1)
                + recurse(m, fm, b, fb, frm, right, depth - 1))

    whole = (b - a) / 6 * (fa + 4 * fm + fb)
    return recurse(a, fa, b, fb, fm, whole, depth)


def weight_power_integral(weight: SmoothWeight, s) -> complex:
    """int_0^1 |f''(v)|^s dv by adaptive Simpson."""
    sc = complex(s)
    if sc.imag == 0:
        return complex(_adaptive_simpson(lambda v: abs(weight.d2f(v)) ** sc.real, 0.0, 1.0))
    re = _adaptive_simpson(lambda v: (abs(weight.d2f(v)) ** sc).real, 0.0, 1.0)
    im = _adaptive_simpson(lambda v: (abs(weight.d2f(v)) ** sc).imag, 0.0, 1.0)
    return complex(re, im)


def sigma_b(weight: SmoothWeight, s, b: int) -> tuple[complex, complex, float]:
    """(Sigma_b(s), main term, |deviation|): the reduced-residue sum
    sum H_s(r/b) |f''(rbar/b)|^s against phi(b) (int H_s)(int |f''|^s)."""
    sc = complex(s)
    rs = np.array(reduced_residues(b))
    rbars = np.array([mod_inverse(int(r), b) for r in rs])
    h_vals = h_kernel_batch(sc, rs / b)
    f_vals = np.array([abs(weight.d2f(v)) for v in rbars / b]) ** sc
    value = complex((h_vals * f_vals).sum())
    phi = arithmetic_functions(b)[0]
    main = phi * h_kernel_integral(sc) * weight_power_integral(weight, sc)
    return value, complex(main), abs(value - main)


# ---------------------------------------------------------------------------
# Fejer approximation


_FEJER_GRID = 2**14  # periodic sample points of G


def fejer_defect(g: Callable[[float], float], n: int) -> float:
    """sup-grid norm of G - (G * F_N), the Fejer mean of order N computed by
    triangular weighting of the FFT spectrum of G on a fine periodic grid."""
    if n < 2:
        raise ValueError("Fejer order must be at least 2")
    xs = np.arange(_FEJER_GRID) / _FEJER_GRID
    vals = np.array([g(x) for x in xs], dtype=float)
    spec = np.fft.rfft(vals)
    freqs = np.arange(len(spec))
    weights = np.clip(1 - freqs / n, 0.0, None)
    mean = np.fft.irfft(spec * weights, n=_FEJER_GRID)
    return float(np.max(np.abs(vals - mean)))


# ---------------------------------------------------------------------------
# residue main term and Legendre duality


def residue_main_term(weight: SmoothWeight) -> float:
    """Res_{s=2/3} Z_f(s) = (sqrt(3) Gamma(1/3)^3 / 2^(2/3) / pi^3)
    * int_0^1 |f''|^(2/3)."""
    g3 = math.gamma(1 / 3.0) ** 3
    const = math.sqrt(3) * g3 / (2 ** (2 / 3.0) * math.pi**3)
    integral = _adaptive_simpson(lambda v: abs(weight.d2f(v)) ** (2 / 3.0), 0.0, 1.0)
    return const * integral


def legendre_dual(chart: ArcChart) -> SmoothWeight:
    """The dual weight g~(u) = g*(-u) on u in [0, 1] of a chart's graph
    function: g~(u) = -min_x (u x + g(x)), g~''(u) = 1/g''(x(u)).

    x(u) solves g'(x) = -u: it is the tangency point of chart direction
    (u, 1), found by ArcChart.tangency_x (x_max for u <= 0).  The chart's
    slope range must cover [-1, 0]."""
    if chart.g is None or chart.dg is None or chart.d2g is None:
        raise ValueError("chart carries no graph data")
    x_max = float(chart.x_max)
    # g' is increasing; need g'(x) = -1 attainable
    lo_slope = None
    for probe in (1e-12, 1e-9, 1e-6):
        try:
            lo_slope = chart.dg(probe)
            break
        except (ValueError, ZeroDivisionError):
            continue
    if lo_slope is not None and lo_slope > -1 + 1e-12:
        raise ValueError("slope range not covered: g' does not reach -1")

    def solve_x(u: float) -> float:
        return x_max if u <= 0 else chart.tangency_x(u, 1)

    def f(u: float) -> float:
        x = solve_x(u)
        return -(u * x + chart.g(x))

    def d2f(u: float) -> float:
        return 1.0 / chart.d2g(solve_x(u))

    return SmoothWeight(f=f, d2f=d2f, name=f"dual({chart.name})")
