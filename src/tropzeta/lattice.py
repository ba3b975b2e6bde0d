"""Exact integer and modular arithmetic underlying the corner-cut calculus.

Conventions:
    - A primitive vector is (x, y) in Z^2 \\ {0} with gcd(|x|, |y|) = 1.
    - A unimodular quadruple (a, b, c, d) has nonnegative entries and
      a*d - b*c = 1; it encodes the adjacent normals u = (a, b), v = (c, d)
      whose mediant is u + v = (a+c, b+d).
    - A Farey interval [c/d, a/b] in [0, 1] satisfies a*d - b*c = 1 with
      0 <= c <= d, 0 < a <= b; its mediant is (a+c)/(b+d).
    - Kloosterman sums:  S(n, h; b) = sum over reduced residues r mod b of
      e((n*rbar + h*r)/b)  with rbar the inverse of r in {1, ..., b} and
      e(x) = exp(2*pi*i*x).  The incomplete variant truncates r at R.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Iterator, Optional

import numpy as np

TWO_PI = 2.0 * math.pi


def is_primitive(x: int, y: int) -> bool:
    return (x, y) != (0, 0) and math.gcd(abs(x), abs(y)) == 1


@dataclass(frozen=True)
class UnimodularQuadruple:
    a: int
    b: int
    c: int
    d: int

    def __post_init__(self):
        if min(self.a, self.b, self.c, self.d) < 0:
            raise ValueError("quadruple entries must be nonnegative")
        if self.a * self.d - self.b * self.c != 1:
            raise ValueError(f"quadruple {(self.a, self.b, self.c, self.d)} has ad - bc != 1")

    @property
    def mediant(self) -> tuple[int, int]:
        return (self.a + self.c, self.b + self.d)

    def as_tuple(self) -> tuple[int, int, int, int]:
        return (self.a, self.b, self.c, self.d)


@dataclass(frozen=True)
class FareyInterval:
    """Farey interval [c/d, a/b] with ad - bc = 1."""

    c: int
    d: int
    a: int
    b: int

    def __post_init__(self):
        if self.b < 1 or self.d < 1:
            raise ValueError("denominators must be positive")
        if self.a * self.d - self.b * self.c != 1:
            raise ValueError("not a Farey interval: ad - bc != 1")
        if not (0 <= self.c <= self.d and 0 <= self.a <= self.b):
            raise ValueError("interval endpoints must lie in [0, 1]")

    @property
    def left(self) -> Fraction:
        return Fraction(self.c, self.d)

    @property
    def right(self) -> Fraction:
        return Fraction(self.a, self.b)

    @property
    def mediant(self) -> Fraction:
        return Fraction(self.a + self.c, self.b + self.d)

    def denominators(self) -> tuple[int, int]:
        return (self.b, self.d)


def mod_inverse(r: int, b: int) -> int:
    """Inverse of r modulo b, normalized to {1, ..., b}: the built-in
    pow(r, -1, b), with b itself standing for the residue 0 when b == 1.

    Raises ValueError (its message says "not invertible") when
    gcd(r, b) != 1.
    """
    if b < 1:
        raise ValueError("modulus must be positive")
    return pow(r, -1, b) or b


def euclid_inverses(r: np.ndarray, b: np.ndarray) -> np.ndarray:
    """The inverses of int64 columns r >= 0 modulo b >= 1, in {1, ..., b}:
    the package's one array extended Euclid, which drops entries as they
    finish.  The Farey chunks hand it each level's half (m, x), x <= m/2,
    and reduced_residue_inverses the residues r <= b/2; both take the rest
    by integer arithmetic.

    Raises ValueError when some gcd(r, b) != 1.
    """
    inv = np.empty(b.size, dtype=np.int64)
    idx = np.arange(b.size)
    # invariant: t0 * r = r0 and t1 * r = r1 (mod b)
    r0, r1 = b, r
    t0, t1 = np.zeros(b.size, dtype=np.int64), np.ones(b.size, dtype=np.int64)
    while idx.size:
        done = r1 == 0
        if done.any():
            if (r0[done] != 1).any():
                raise ValueError("not invertible: gcd(r, b) != 1")
            inv[idx[done]] = t0[done]
            live = ~done
            idx, r0, r1, t0, t1 = idx[live], r0[live], r1[live], t0[live], t1[live]
        q, r2 = np.divmod(r0, r1)
        r0, r1 = r1, r2
        t0, t1 = t1, t0 - q * t1
    return (inv - 1) % b + 1  # inv lies in (-b, b], and is 0 only for b = 1


def reduced_residue_inverses(b: int) -> tuple[np.ndarray, np.ndarray]:
    """The reduced residues r in {1, ..., b}, ascending, and their inverses
    rbar in {1, ..., b}, as int64 columns.  The gcd and the Euclid run on
    r <= b/2 only (r = 1 when b = 1); each r < b/2 gives b - r, whose
    inverse is b - rbar."""
    half = np.arange(1, max(b // 2, 1) + 1)
    half = half[np.gcd(half, b) == 1]
    inv = euclid_inverses(half, np.full(half.size, b))
    low = 2 * half < b
    return (np.concatenate((half, b - half[low][::-1])),
            np.concatenate((inv, b - inv[low][::-1])))


def factorize(n: int, limit: Optional[int] = None) -> list[tuple[int, int]]:
    """Prime factorization by deterministic trial division up to sqrt(n).
    With a limit the division stops below it: the factors found, and the
    cofactor left only when it is prime (the division passed its root)."""
    if n < 1:
        raise ValueError("n must be positive")
    out = []
    m = n
    p = 2
    while p * p <= m and (limit is None or p < limit):
        if m % p == 0:
            e = 0
            while m % p == 0:
                m //= p
                e += 1
            out.append((p, e))
        p += 1 if p == 2 else 2
    if m > 1 and p * p > m:
        out.append((m, 1))
    return out


def arithmetic_functions(b: int) -> tuple[int, int, int]:
    """(phi(b), tau(b), mu(b)): Euler totient, divisor count, Moebius value."""
    fac = factorize(b)
    phi, tau, mu = 1, 1, 1
    for p, e in fac:
        phi *= (p - 1) * p ** (e - 1)
        tau *= e + 1
        mu = 0 if e > 1 else -mu
    return phi, tau, mu


def reduced_residues(b: int) -> list[int]:
    """Residues r in {1, ..., b} with gcd(r, b) = 1.  For b = 1 this is [1]."""
    return [r for r in range(1, b + 1) if math.gcd(r, b) == 1]


def _e_of_residue(k: int, b: int) -> complex:
    # e(k/b) with k already reduced mod b; range reduction keeps the argument small
    return cmath.exp(1j * TWO_PI * (k % b) / b)


def kloosterman_complete(n: int, h: int, b: int) -> complex:
    """Complete Kloosterman sum S(n, h; b) over reduced residues mod b."""
    if b < 1:
        raise ValueError("modulus must be positive")
    total = 0j
    for r in reduced_residues(b):
        rbar = mod_inverse(r, b)
        total += _e_of_residue(n * rbar + h * r, b)
    return total


def kloosterman_grid(b: int, ns: np.ndarray, hs: np.ndarray) -> np.ndarray:
    """Matrix of S(n, h; b) over all (n, h) in ns x hs, via one complex matmul."""
    rs, rbars = reduced_residue_inverses(b)
    left = np.exp(2j * np.pi * np.outer(np.asarray(ns), rbars % b) / b)
    right = np.exp(2j * np.pi * np.outer(rs % b, np.asarray(hs)) / b)
    return left @ right


def kloosterman_incomplete(n: int, b: int, R: int) -> complex:
    """Incomplete sum K_b(n; R) = sum_{1<=r<=R, (r,b)=1} e(n*rbar/b)."""
    if not 1 <= R <= b:
        raise ValueError("R must satisfy 1 <= R <= b")
    total = 0j
    for r in range(1, R + 1):
        if math.gcd(r, b) == 1:
            total += _e_of_residue(n * mod_inverse(r, b), b)
    return total


def farey_from_denominators(b: int, d: int) -> FareyInterval:
    """The Farey interval [c/d, a/b] determined by its coprime denominators.

    a is the inverse of d mod b in {1, ..., b} and c = (a*d - 1) / b.
    """
    if b < 1 or d < 1:
        raise ValueError("denominators must be positive")
    if math.gcd(b, d) != 1:
        raise ValueError("denominators must be coprime")
    a = mod_inverse(d, b)
    c = (a * d - 1) // b
    return FareyInterval(c=c, d=d, a=a, b=b)


def quadruple_from_coprime(p: int, q: int) -> UnimodularQuadruple:
    """Invert (a, b, c, d) -> (a+b, c+d): the unique nonnegative unimodular
    quadruple with a + b = p and c + d = q."""
    if p < 1 or q < 1:
        raise ValueError("p, q must be positive")
    if math.gcd(p, q) != 1:
        raise ValueError("p, q must be coprime")
    # unique b in [0, p) with q*b = -1 (mod p)
    b = (-mod_inverse(q, p)) % p
    d = (q * b + 1) // p
    return UnimodularQuadruple(a=p - b, b=b, c=q - d, d=d)


def quadruple_to_coprime(quad: UnimodularQuadruple) -> tuple[int, int]:
    return (quad.a + quad.b, quad.c + quad.d)


def _stern_brocot_walk(root, key, bound) -> Iterator[tuple[int, int, int, int]]:
    """The quadruples (a, b, c, d) at and below root whose key <= bound,
    depth first, (a+c, b+d, c, d) before (a, b, a+c, b+d).  The key must not
    decrease from a quadruple to its children: the walk prunes there."""
    stack = [root] if key(*root) <= bound else []
    while stack:
        quad = a, b, c, d = stack.pop()
        yield quad
        for child in ((a, b, a + c, b + d), (a + c, b + d, c, d)):
            if key(*child) <= bound:
                stack.append(child)


def stern_brocot_quadruples(max_p_plus_q: int) -> Iterator[UnimodularQuadruple]:
    """All nonnegative unimodular quadruples with (a+b) + (c+d) <= bound,
    depth-first in Stern-Brocot order from the root (1, 0, 0, 1)."""
    walk = _stern_brocot_walk((1, 0, 0, 1), lambda a, b, c, d: a + b + c + d, max_p_plus_q)
    return (UnimodularQuadruple(*quad) for quad in walk)


def farey_intervals_stern_brocot(max_denominator: int) -> list[FareyInterval]:
    """All Farey intervals with max(b, d) <= N by mediant descent from
    [0/1, 1/1]: [c/d, a/b] is the quadruple (a, b, c, d) of the same walk."""
    walk = _stern_brocot_walk((1, 1, 0, 1), lambda a, b, c, d: max(b, d), max_denominator)
    return [FareyInterval(c=c, d=d, a=a, b=b) for a, b, c, d in walk]

