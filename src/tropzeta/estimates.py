"""Truncation-aware value containers shared by the series and residue code,
the ordered power sum that the Dirichlet and Farey series share, and the one
quadrature rule of the package."""

from __future__ import annotations

import math
import operator
from dataclasses import dataclass, field
from itertools import repeat
from typing import Callable, Optional

import numpy as np


def term_powers(x: np.ndarray, sc: complex) -> np.ndarray:
    """complex(v) ** sc for each v >= 0 of x, rounded term by term as CPython
    rounds it.  For real non-integer s that power is libm's pow(v, s) with
    imaginary part 0, so those terms come back as math.pow floats (np.power
    differs from libm in the last bit on some terms)."""
    if sc.imag == 0 and not sc.real.is_integer():
        return np.fromiter(map(math.pow, x.tolist(), repeat(sc.real)), float, x.size)
    return np.fromiter(map(operator.pow, x.astype(complex).tolist(), repeat(sc)), complex, x.size)


def add_in_order(total: complex, terms: np.ndarray) -> complex:
    """total + terms[0] + terms[1] + ... added one at a time, as a running
    complex total does (np.sum would add pairwise)."""
    return complex(np.cumsum(np.concatenate(([total], terms)))[-1])


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


def elementwise(scalar_fn: Callable[[float], float]) -> Callable:
    """scalar_fn mapped over the entries of a float array, so that a scalar
    function meets the array contract of the rules above; scalars pass
    straight through."""

    def fn(u):
        if np.ndim(u) == 0:
            return scalar_fn(u)
        u = np.asarray(u, dtype=float)
        return np.fromiter(map(scalar_fn, u.ravel().tolist()), float, u.size).reshape(u.shape)

    return fn


@dataclass
class SeriesEstimate:
    """A partial-sum value with its truncation metadata.

    cutoff is the size threshold (or term bound) that produced the sum;
    terms_used counts the summands; tail_hint, when available, estimates the
    size of the dropped tail.  It is not a bound: for Z(2) of domain L and
    the disk the true error runs about 1.02-1.03 times the hint.
    """

    value: complex
    cutoff: float
    terms_used: int
    tail_hint: Optional[float] = None


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
