"""Truncation-aware value containers shared by the series and residue code,
the ordered power sum that the Dirichlet and Farey series share, and the one
quadrature rule of the package."""

from __future__ import annotations

import cmath
from dataclasses import dataclass, field
from typing import Callable, Optional

import numpy as np


def term_powers(x: np.ndarray, sc: complex) -> np.ndarray:
    """v ** sc for each v > 0 of the float array x, by CPython's complex
    power rule taken on arrays: the modulus v ** Re s by np.power, and for
    Im s != 0 the phase Im s * log v, the term being mod cos(phase) +
    i mod sin(phase).  Real s gives a float array.

    Each entry depends only on its own v, not on its place in x.  Against
    40-digit mpmath a term is within 2 ulp for real s, and within
    (|Im s log v| + 2) 2^-52 relative for complex s, where the rounding of
    the phase sets the error (tests/test_estimates.py audits both).

    A base 0 is refused at complex or negative s (ValueError; CPython's
    power raises there too), and a power outside the float range raises
    OverflowError."""
    if (sc.imag != 0 or sc.real < 0) and not x.all():
        raise ValueError(f"0.0 to the power {sc} is undefined")
    with np.errstate(over="ignore"):
        mod = np.power(x, sc.real)
    if not np.isfinite(mod).all():
        raise OverflowError(f"a term v ** {sc} outside the float range")
    if sc.imag == 0:
        return mod
    phase = sc.imag * np.log(x)
    out = np.empty(x.shape, dtype=complex)
    out.real = mod * np.cos(phase)
    out.imag = mod * np.sin(phase)
    return out


def add_in_order(total: complex, terms: np.ndarray) -> complex:
    """total + terms[0] + terms[1] + ... added one at a time, as a running
    complex total does (np.sum would add pairwise); OverflowError when the
    sum, or a term, is outside the float range."""
    with np.errstate(over="ignore", invalid="ignore"):
        total = complex(np.cumsum(np.concatenate(([total], terms)))[-1])
    if not cmath.isfinite(total):
        raise OverflowError("a series sum outside the float range")
    return total


_GL_NODES, _GL_WEIGHTS = np.polynomial.legendre.leggauss(32)


def gauss_legendre(f: Callable, a: float, b: float):
    """The 32-node Gauss-Legendre rule on [a, b]: f takes the float64 array of
    nodes and returns real or complex values, added weighted in node order."""
    mid, half = (a + b) / 2, (b - a) / 2
    return half * sum((_GL_WEIGHTS * f(mid + half * _GL_NODES)).tolist())


_MAX_DEPTH = 24  # bisection levels below the whole interval


def adaptive_quadrature(f: Callable, a: float, b: float, tol: float):
    """int_a^b f by bisection on gauss_legendre cells, down to where a cell's
    halves agree with it within tol (halved at each level) or _MAX_DEPTH."""
    return _bisect(f, a, b, gauss_legendre(f, a, b), tol, _MAX_DEPTH)


def _bisect(f: Callable, a: float, b: float, whole, tol: float, depth: int):
    """adaptive_quadrature on [a, b], whose cell value whole its parent made."""
    mid = (a + b) / 2
    left, right = gauss_legendre(f, a, mid), gauss_legendre(f, mid, b)
    if abs(left + right - whole) <= tol or depth <= 0:
        return left + right
    return (_bisect(f, a, mid, left, tol / 2, depth - 1)
            + _bisect(f, mid, b, right, tol / 2, depth - 1))


@dataclass
class SeriesEstimate:
    """A partial-sum value with its truncation metadata.

    cutoff is the size threshold (or term bound) that produced the sum;
    terms_used counts the summands; tail_hint, when available, estimates the
    size of the dropped tail.  It is not a bound: for Z(2) of domain L and
    the disk the true error runs about 1.02-1.03 times the hint.  tail_bound,
    where set, is a proven bound on the modulus of the dropped tail.
    """

    value: complex
    cutoff: float
    terms_used: int
    tail_hint: Optional[float] = None
    tail_bound: Optional[float] = None


@dataclass
class ResidueEstimate:
    """A fitted residue value with its provenance.

    The one producer is zeta.residue_two_thirds: location 2/3, method
    counting_fit, and the perimeter and area-deficit fits of the same
    window among the fit_diagnostics.
    """

    location: float
    value: float
    method: str
    fit_diagnostics: dict = field(default_factory=dict)
