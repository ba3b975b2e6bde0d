"""The Stern-Brocot cutting engine.

A domain is carved out of its minimal model by unimodular corner cuts: at a
corner with adjacent inward normals u, v (a lattice basis) the mediant u + v
supports the domain and cuts off a triangle of size

    size = h(u + v) - h(u) - h(v)  (>= 0 by superadditivity of min-support),

which is sqrt(2 Area) of the cut triangle.  The two child corners (u, u+v)
and (u+v, v) are cut recursively; sizes are nonincreasing along any path, so
the descent is pruned at a threshold.  Partial cuts, wave fronts and their
exact lattice perimeter / area profiles, and the caustic all read off this
tree:

    Omega^t  : all cuts of size >= t applied,
    Omega_t  = (Omega^t) inset by t  (the wave front),
    Length_Z(boundary Omega^t) = Length_Z(boundary hat) - sum_{size >= t} size,
    Length_Z(boundary Omega_t) = Length_Z(boundary Omega^t) - t K_t^2,
    K_t^2 = K^2(hat) - #cuts of size >= t.

A_n corner events appear as n+1 equal-size nodes of the descent; no special
case is needed.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass, field
from fractions import Fraction
from functools import cached_property
from typing import Optional, Sequence

import numpy as np

from .geometry import (
    _EXTERIOR_TOL,
    ArcChart,
    ConvexDomain,
    Polygon,
    Vec,
    det2,
    dot2,
    halfplane_intersection,
    lattice_length,
    loop_area,
    loop_lattice_perimeter,
    meet,
    require_a_n_corners,
)
from .minimal import MinimalModel, k_squared, minimal_model_of


def _den_cap(eps) -> int:
    """floor(1/eps): the size 1/den is >= eps exactly when den <= floor(1/eps).
    (numpy integers have no as_integer_ratio; Fraction costs 4x more.)"""
    num, den = (eps if hasattr(eps, "as_integer_ratio") else Fraction(eps)).as_integer_ratio()
    return den // num


# The largest floor(1/eps) whose descent keeps defect_den in int64.  A cut
# with den = x y (x + y) <= cap has children x y (x + y) (x + 2y) / x and
# x y (x + y) (2x + y) / y, at most cap (1 + 2 isqrt(cap)) (x = 1 or y = 1).
_DEN_CAP_MAX = 2_770_595_931_012


class Sizes:
    """A column of cut (or frontier-corner) sizes.

    On defect_den trees it holds the int64 denominators, size = 1/den
    exactly; otherwise the sizes themselves, float64 on float charts and
    Python objects (Fraction or int) on exact ones.  Exact values are made
    only when read (tolist).

    The exact "size >= t" test is at_least: den <= floor(1/t) on
    defect_den trees, size >= t elsewhere (exact on Fraction sizes).  The
    sorted searches (cut_count) read rank() and rank_of(t) instead: the rank
    is den on defect_den trees (t ranks as floor(1/t)) and -size elsewhere
    (t ranks as -t); ascending rank is descending size, and a size is >= t
    exactly when its rank is <= rank_of(t)."""

    __slots__ = ("values", "is_den")

    def __init__(self, values: np.ndarray, is_den: bool):
        self.values, self.is_den = values, is_den

    def __len__(self) -> int:
        return len(self.values)

    def tolist(self) -> list:
        """The sizes, exact where the charts are."""
        if self.is_den:
            return [Fraction(1, den) for den in self.values.tolist()]
        return self.values.tolist()

    def floats(self) -> np.ndarray:
        """The sizes as float64, correctly rounded (1/den is, while den <
        2^53: at every eps above ~4e-11)."""
        vals = self.values
        if self.is_den:
            return 1.0 / vals
        if vals.dtype == object:
            return np.array([float(x) for x in vals.tolist()], dtype=np.float64)
        return vals

    def ratios(self) -> tuple:
        """The exact sizes as (num, den), size = num / den: Python ints, or
        object columns of them.  On exact trees only."""
        if self.is_den:
            return 1, self.values.astype(object)
        vals = self.values.tolist()
        return (np.array([x.numerator for x in vals], dtype=object),
                np.array([x.denominator for x in vals], dtype=object))

    def rank(self) -> np.ndarray:
        return self.values if self.is_den else -self.values

    def rank_of(self, t):
        """The rank of the threshold t (elementwise on a numpy array)."""
        if not self.is_den:
            return -t
        if getattr(t, "ndim", 0):  # np.ndim would outcost a scalar search
            return np.array([self.rank_of(x) for x in t.tolist()])
        return _den_cap(t) if t > 0 else math.inf

    def at_least(self, t) -> np.ndarray:
        """Mask of the sizes >= t, compared exactly."""
        if self.is_den:
            return self.values <= self.rank_of(t)
        return self.values >= t


def _line_offsets(chart, a: np.ndarray, b: np.ndarray, exact: bool) -> tuple:
    """(wx, wy, *h) of a chart's supporting lines {<w, x> = h} of chart
    normals (a, b), int64 columns: the ambient normals w = a u1 + b u2 and
    the offsets h = gamma(a, b) + <w, corner>, one float64 column, or with
    exact two object columns (num, den) of Python ints, h = num / den.  The
    float lines of slack_arrays and the caustic, the exact ones of the
    caustic on rational charts."""
    (u1x, u1y), (u2x, u2y) = chart.u1, chart.u2
    wx, wy = a * u1x + b * u2x, a * u1y + b * u2y
    if not exact:
        if chart.support_float is not None:
            sup = chart.support_float(a, b)
        else:
            sup = np.array([float(chart.support(x, y)) for x, y in zip(a.tolist(), b.tolist())],
                           dtype=np.float64)
        return wx, wy, sup + wx * float(chart.corner[0]) + wy * float(chart.corner[1])
    sups = [Fraction(chart.support(x, y)) for x, y in zip(a.tolist(), b.tolist())]
    num = np.array([f.numerator for f in sups], dtype=object)
    den = np.array([f.denominator for f in sups], dtype=object)
    # <w, corner> over the corner's common denominator
    cx, cy = (Fraction(c) for c in chart.corner)
    cden = math.lcm(cx.denominator, cy.denominator)
    dot = (wx.astype(object) * (cx.numerator * (cden // cx.denominator))
           + wy.astype(object) * (cy.numerator * (cden // cy.denominator)))
    return wx, wy, num * cden + den * dot, den * cden


@dataclass(eq=False)
class CutTree:
    """The corner cuts of a domain down to size threshold, and the frontier
    of corners left uncut, both in descent order (depth first, side-1 child
    first, chart by chart in the order of `charts`), as columns.  A domain's
    tree holds its charts (a smooth domain's as declared) and its minimal
    model.

    Cut i has the unimodular quadruple nodes[i] = (a, b, c, d) (the chart
    normals (a, b), (c, d) of its corner), size cut_sizes[i] and
    links[i] = 2 * parent + side (side 1 for the child corner (u+v, v), 0
    for (u, u+v)), or -1 at a chart root; parents come before their
    children.  The cuts of chart k are nodes[chart_offsets[k]:
    chart_offsets[k + 1]].  Frontier corner j has size leaf_sizes[j] and
    link leaf_links[j] (the same encoding).  The size columns are Sizes: int64
    denominators on defect_den charts (L, the parabolic triangle), float64
    on float charts, Fraction/int objects on exact polygon corners;
    sizes() makes the exact values.  The descent writes every column once;
    a deeper tree is a fresh descent.  The cut order by size (_size_order)
    is exact; each column in that order is made when first read, so a
    reader pays only for its own: the float sizes (_sorted_sizes), the
    wave-front perimeter's running sums (_perimeter_sums), the mediant
    normals and offsets (_slack_rows), the exact lines (mediant_constraints).
    Trees are shared between readers and must be treated as read-only; they
    compare by identity and can be hashed.
    """

    charts: list
    threshold: object
    nodes: np.ndarray
    links: np.ndarray
    chart_offsets: tuple
    cut_sizes: Sizes
    leaf_sizes: Sizes
    leaf_links: np.ndarray
    minimal_model: Optional[MinimalModel] = None
    # the exact mediant lines made so far, a prefix of the size order
    _lines: list = field(default_factory=list, init=False, repr=False)

    def sizes(self) -> list:
        return self.cut_sizes.tolist()

    def _chart_spans(self):
        """(chart, first cut, end) per chart."""
        return zip(self.charts, self.chart_offsets, self.chart_offsets[1:])

    @cached_property
    def _size_order(self) -> tuple:
        """(ranks, order): the cuts' Sizes.rank() ascending, largest size
        first (ties in node order), and the node index of each.  Exact; the
        readers that only count or select cuts read nothing else."""
        ranks = self.cut_sizes.rank()
        order = np.argsort(ranks, kind="stable")
        return ranks[order], order

    @cached_property
    def _sorted_sizes(self) -> np.ndarray:
        """The cut sizes as float64 in size order: the one float column of
        kinks, size_runs, front_perimeter_geometric, profiles and
        slack_arrays."""
        return self.cut_sizes.floats()[self._size_order[1]]

    @cached_property
    def _slack_rows(self) -> tuple:
        """(W, H) of slack_arrays: each cut's mediant normal w and support
        offset h, made per chart in node order, gathered into size order."""
        rows = np.empty((len(self.nodes), 3))
        for chart, lo, hi in self._chart_spans():
            quads = self.nodes[lo:hi]
            rows[lo:hi, 0], rows[lo:hi, 1], rows[lo:hi, 2] = _line_offsets(
                chart, quads[:, 0] + quads[:, 2], quads[:, 1] + quads[:, 3], False)
        rows = rows[self._size_order[1]]
        return rows[:, :2], rows[:, 2]

    @cached_property
    def _perimeter_sums(self) -> tuple:
        """(A, B): the wave-front perimeter is A[n] + B[n] t while exactly n
        cuts have size >= t.  The minimal model's front is affine in t; its
        A[0] and B[0] are the consecutive-line vertex formula, unclipped, at
        t = 0 and t = 1.  Each cut of support difference sigma =
        h(u+v) - h(u) - h(v) adds t - sigma, so A and B are running sums
        over the size order.  sigma comes from support_float where a chart
        has it; elsewhere it is the size column (chart.defect_float, or that
        difference as the walk took it)."""
        edges = np.array([(float(w[0]), float(w[1]), float(h))
                          for w, h in self.minimal_model.polygon.halfplanes()])  # CCW
        ax, ay = edges[:, 0], edges[:, 1]
        off = edges[:, 2] + np.array([[0.0], [1.0]])  # the model's lines at t = 0 and 1
        bx, by, boff = np.roll(ax, -1), np.roll(ay, -1), np.roll(off, -1, axis=1)
        det = ax * by - bx * ay
        vx = (off * by - boff * ay) / det  # vertex i: where line i meets line i + 1
        vy = (ax * boff - bx * off) / det
        # edge i runs from vertex i - 1 to vertex i along the primitive (ay, -ax)
        dx, dy = vx - np.roll(vx, 1, axis=1), vy - np.roll(vy, 1, axis=1)
        p0, p1 = ((dx * ay - dy * ax) / (ax * ax + ay * ay)).sum(axis=1)
        sigma = np.array(self.cut_sizes.floats(), dtype=np.float64)
        for chart, lo, hi in self._chart_spans():
            if chart.support_float is not None:
                a, b, c, d = self.nodes[lo:hi].T
                sup = chart.support_float
                sigma[lo:hi] = sup(a + c, b + d) - sup(a, b) - sup(c, d)
        csum = np.zeros(len(sigma) + 1)
        np.cumsum(sigma[self._size_order[1]], out=csum[1:])
        return p0 - csum, (p1 - p0) + np.arange(len(csum))

    def cut_count(self, t):
        """N^cut(t) = number of cuts of size >= t; elementwise (an int64
        array) on an array of t.  Sizes are compared exactly on every tree,
        by the rank test of Sizes.at_least."""
        ts = np.asarray(t)
        if (ts.min() if ts.ndim else t) < self.threshold:  # np.min would outcost a scalar search
            raise ValueError("tree too shallow")
        key = self.cut_sizes.rank_of(ts if ts.ndim else t)
        n = np.searchsorted(self._size_order[0], key, side="right")
        return n if ts.ndim else int(n)

    def size_runs(self, t) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """The cuts of size >= t grouped by size, largest first: each
        distinct size once as float64, the number of cuts of that size, and
        the node indices of the cuts, group by group.  Exact: the cuts are
        a prefix of the size order, where equal sizes are runs of equal
        ranks."""
        ranks, order = self._size_order
        n = self.cut_count(t)
        kept = ranks[:n]
        first = np.ones(n, dtype=bool)  # a run of equal ranks starts here
        first[1:] = kept[1:] != kept[:-1]
        starts = np.flatnonzero(first)
        return self._sorted_sizes[starts], np.diff(np.append(starts, n)), order[:n]

    def kinks(self, lo: float, hi: float) -> np.ndarray:
        """The distinct cut sizes strictly between lo and hi, ascending: the
        kinks of the wave-front perimeter there."""
        neg = -self._sorted_sizes
        start = np.searchsorted(neg, -hi, side="right")
        end = np.searchsorted(neg, -lo, side="left")
        return np.unique(self._sorted_sizes[start:end])

    def angular_arrays(self):
        """All front constraints (minimal-model edges plus cut mediants) in
        angular order, as float arrays (Wx, Wy, H, S); model edges carry
        S = +inf so a size mask S >= t always keeps them.  Built on each
        call from the slack_arrays columns (every normal has its own angle)."""
        edges = [(float(nrm[0]), float(nrm[1]), float(h), math.inf)
                 for nrm, h in self.minimal_model.polygon.halfplanes()]
        (w, h), s = self._slack_rows, self._sorted_sizes
        arr = np.vstack([np.array(edges, dtype=np.float64).reshape(-1, 4),
                         np.column_stack((w, h, s))])
        arr = arr[np.argsort(np.arctan2(arr[:, 1], arr[:, 0]))]
        return arr[:, 0].copy(), arr[:, 1].copy(), arr[:, 2].copy(), arr[:, 3].copy()

    def front_perimeter_geometric(self, ts) -> np.ndarray:
        """Lattice perimeters of the wave fronts at the times ts (a 1-D
        array, e.g. every cell of a Mellin level), one per t: A[n] + B[n] t
        from the running sums of _perimeter_sums, n the number of cuts of
        size >= t.  The sums start from the minimal model's support lines
        and read the cuts' support differences, not the identity route's
        size bookkeeping, where the charts have a float support.  Each value
        is independent of the other times asked with it."""
        ts = np.asarray(ts, dtype=np.float64)
        if ts.min() < self.threshold:
            raise ValueError("tree too shallow")
        a, b = self._perimeter_sums
        n = np.searchsorted(-self._sorted_sizes, -ts, side="right")
        return a[n] + b[n] * ts

    def mediant_constraints(self, t) -> list:
        """(normal, offset) of the mediant supporting line of every cut of
        size >= t, exact, in ambient coordinates: the first cut_count(t)
        rows of the size order, largest cut first (ties in node order).
        Each line is made once per tree, when a call first reaches its row."""
        n, lines = self.cut_count(t), self._lines
        idx = self._size_order[1][len(lines):n]  # the rows no call reached yet
        charts = np.searchsorted(self.chart_offsets, idx, side="right") - 1
        for k, (a, b, c, d) in zip(charts.tolist(), self.nodes[idx].tolist()):
            lines.append(self.charts[k].line(a + c, b + d))
        return lines[:n]

    def slack_arrays(self):
        """(W, H, S): float arrays of mediant normals, offsets and sizes,
        sorted by size descending, for vectorized slack evaluation."""
        return (*self._slack_rows, self._sorted_sizes)


# ---------------------------------------------------------------------------
# the descent


# the rows (moving, fixed) of a chain's member columns (a, b, c, d) on
# side 0 and on side 1
_SLOTS = ((slice(2, 4), slice(0, 2)), (slice(0, 2), slice(2, 4)))


_ROOT = np.array([[1, 0, 0, 1]], dtype=np.int64)


def _roots(n: int) -> np.ndarray:
    """The root corners of n charts: (1, 0, 0, 1), the chart frame."""
    return _ROOT.repeat(n, axis=0)


def _frontier_quads(nodes: np.ndarray, leaf_links: np.ndarray) -> np.ndarray:
    """The quadruples of a tree's frontier corners, in frontier order: each
    the child of its parent's row on its link's side, by the _SLOTS rule
    (u += v on side 1, v += u on side 0)."""
    quads = _roots(len(leaf_links))
    inner = leaf_links >= 0
    links = leaf_links[inner]
    kids = nodes.take(links >> 1, axis=0).T
    for side in (0, 1):
        mv, fx = _SLOTS[side]
        on = (links & 1) == side
        kids[mv, on] += kids[fx, on]
    quads[inner] = kids.T
    return quads


# Every corner that a defect_den batch measures fits int64.  With
# den = x y (x + y), x the form of a chain head's moving normal and y of
# its fixed one, member j has x + j y in place of x.  The batches measure
# members j0 .. 2 j0 for j0 = 0, 1, 3, 7, ...  Member 0 is a chart root or
# a child of a cut, and member 1 a child of the cut member 0: _DEN_CAP_MAX
# covers both.  Member 2 has (x + 2y)(x + 3y) <= 6 (x + y)^2, so
# den <= 6 cap (x + y) / x <= 6 cap (1 + isqrt(cap)); where that could
# overflow, member 1 is measured alone and the batches go on from j0 = 2.
# Past a cut member i >= 1, x + j y <= (j / i)(x + i y) for j > i, so
# member j has den <= cap j (j + 1) / (i (i + 1)); a batch from j0 >= 2
# (i = j0 - 1) stops at j = 2 j0, at most 10 cap.

# The most members of one chain measured in one batch.  A chain always ends
# on a valid chart, but one whose sizes never fall (a broken oracle) would
# otherwise double its batches until memory runs out.
_BATCH_MAX = 1 << 16


def _chain_descent(charts, fn, cids, eps, den: bool) -> list:
    """Stern-Brocot descent by chains from the roots of the given charts
    (one per cids entry, all sharing the batched oracle fn: defect_den when
    den, else defect_float) down to size eps > 0.

    A chain is a corner and its run of same-side descendants: in round r
    the members (u + j v, v) of the head corner (u, v) when r is even
    (side 1), (u, v + j u) when r is odd (side 0), j = 0, 1, ...  Sizes do
    not increase along a chain, so its cuts are the members before its
    first uncut one, the chain's frontier corner.  Every chain of a round
    is measured in one oracle call per batch of members j0 .. 2 j0, with
    j0 = 0, 1, 3, 7, ... (at most _BATCH_MAX members), until its frontier
    corner; the other-side children of its cuts head the chains of the
    next round.  The rounds follow the runs of a path (the partial
    quotients of its continued fraction), not its depth.  Returns per round
    the chain lengths (cuts), the cut sizes (chain by chain, in member
    order; the denominators as int32 where cap fits, since every round is
    held until placed) and the frontier sizes.  Every float size up to a
    chain's frontier corner is checked (_check)."""
    cap = _den_cap(eps) if den else None
    # member 2 may not join member 1 where its den could overflow (see above)
    single = 2 if den and 6 * cap * (1 + math.isqrt(cap)) >= 2**63 else 1
    heads = _roots(len(cids)).T.copy()  # one column (u, v) per chain
    if not den:  # a chart root has no parent
        psize = np.full(len(cids), math.inf)
    rounds, side = [], 1
    while heads.shape[1]:
        mv, fx = _SLOTS[side]
        lengths = np.zeros(heads.shape[1], dtype=np.int32)  # chain lengths, kept per round
        batches = []
        # sub: member j0 of each chain still going (rows; None: all of them)
        rows, sub, j0, k = None, heads, 0, 1
        if not den:
            last = psize  # the size of member j0 - 1 (of the head's parent at j0 = 0)
        while True:
            if k > 1:
                quads = sub.repeat(k, axis=1)
                quads[mv] += (sub[fx, :, None] * np.arange(k)).reshape(2, -1)
            else:
                quads = sub
            size = fn(*quads)
            if k == 1:
                going = ncut = size <= cap if den else size >= eps
            else:
                # the first uncut member of each chain, k past a sentinel if none
                cut = np.zeros((len(size) // k, k + 1), dtype=bool)
                if den:
                    np.less_equal(size.reshape(-1, k), cap, out=cut[:, :k])
                else:
                    np.greater_equal(size.reshape(-1, k), eps, out=cut[:, :k])
                ncut = cut.argmin(axis=1)
                going = ncut == k
                measured = (np.arange(k) <= ncut[:, None]).reshape(-1)
            if rows is None:
                lengths += ncut
            else:
                lengths[rows] += ncut
            if not den:
                # each member's parent: the member before it, or the head's parent
                prev = last if k == 1 else np.concatenate(
                    (last[:, None], size.reshape(-1, k)[:, :-1]), axis=1).reshape(-1)
                if np.count_nonzero(size < -1e-9) or np.count_nonzero(size > prev):
                    _check(charts, cids, rows, k, quads, size, prev, k == 1 or measured)
            batches.append((rows, j0, None if k == 1 else measured, size))
            more = going.nonzero()[0]
            if not len(more):
                break
            rows = more if rows is None else rows[more]
            at = more if k == 1 else more * k + (k - 1)  # each going chain's last member
            sub = quads[:, at]
            sub[mv] += sub[fx]
            if not den:
                last = size[at]
            j0 += k
            k = 1 if j0 < single else min(j0 + 1, _BATCH_MAX)
        # each chain's members up to its frontier corner, in order, then
        # the cuts and the frontier corners apart
        ends = (lengths + 1).cumsum()
        starts = ends - lengths - 1
        vals = np.empty(ends[-1], dtype=np.int64 if den else np.float64)
        for rows, j0, measured, size in batches:
            at = starts if rows is None else starts[rows]
            if measured is not None:  # a batch of k > 1 members
                k = len(measured) // len(at)
                at = (at[:, None] + np.arange(j0, j0 + k)).reshape(-1)[measured]
                size = size[measured]
            elif j0:
                at = at + j0
            vals[at] = size
        del batches, rows, size, quads, sub  # a deep round's arrays go first
        ends -= 1  # each chain's frontier corner
        is_cut = np.ones(len(vals), dtype=bool)
        is_cut[ends] = False
        cuts = vals[is_cut]
        rounds.append((lengths, cuts.astype(np.int32) if den and cap < 2**31 else cuts, vals[ends]))
        # each cut's place in its chain; the next round's heads
        j = is_cut.nonzero()[0] - starts.repeat(lengths)
        del vals, is_cut
        heads = _spawn(_members(heads, lengths, j, side), side)
        if not den:
            psize, cids = cuts, cids.repeat(lengths)
        side ^= 1
    return rounds


def _check(charts, cids, rows, k, quads, size, prev, measured) -> None:
    """Raise for the first member of a batch (k members of each chain in
    rows, of every chain if None) up to its chain's frontier corner (members
    past it are never read) with a negative size (ValueError) or one larger
    than its parent's, prev, by more than rounding (AssertionError)."""
    bad = (size < -1e-9) & measured
    if bad.any():
        i = int(bad.nonzero()[0][0])
        row = i // k if rows is None else rows[i // k]
        raise ValueError(f"chart {charts[cids[row]].name}: negative defect at "
                         f"{tuple(quads[:, i].tolist())}")
    if ((size > prev + 1e-12 * (1 + prev)) & measured).any():
        raise AssertionError("support triangle nesting violated: child larger than parent")


def _members(heads, lengths, j, side) -> np.ndarray:
    """The cut members of each chain heads[:, i] on the given side, chain
    by chain, as columns: lengths[i] of them, member j[f] at column f."""
    mv, fx = _SLOTS[side]
    quads = heads.repeat(lengths, axis=1)
    quads[mv] += j * quads[fx]
    return quads


def _spawn(quads, side) -> np.ndarray:
    """Turn each corner column of a chain on the given side into its
    other-side child, in place: (u, u + v) of a side-1 member (u, v),
    (u + v, v) of a side-0 one."""
    mv, fx = _SLOTS[side]
    quads[fx] += quads[mv]
    return quads


def _subtree_cuts(rounds) -> list:
    """Per round, the running sum of the cuts in the subtrees of its
    chains (a leading 0, then one entry per chain); int32 where it fits,
    since every round's sums are held until placed."""
    sums, cs = [], np.zeros(1, dtype=np.int64)
    for lengths, _, _ in rounds[::-1]:
        ends = lengths.cumsum()
        tot = lengths.astype(np.int64)
        tot += cs[ends]
        tot -= cs[ends - lengths]
        cs = np.zeros(len(tot) + 1, dtype=np.int64)
        tot.cumsum(out=cs[1:])
        del tot
        sums.append(cs if cs[-1] >= 2**31 else cs.astype(np.int32))
    return sums[::-1]


# chains placed at once: bounds the working memory of a deep round
_PLACE_CHUNK = 1 << 14


def _place(rounds, sums, cpos, lpos, out) -> None:
    """Write one descent's rounds into the tree columns, in depth-first
    order.  A chain head's subtree takes the cut positions from cpos and
    the frontier positions from lpos on (given per chart root), and a
    subtree holding n cuts holds n + 1 frontier corners.  Side 1 first: a
    side-1 chain is its members, its frontier corner, then its members'
    side-0 subtrees, last member's first; a side-0 chain is each member
    followed by its side-1 subtree, then its frontier corner.  A round is
    placed _PLACE_CHUNK chains at a time, and a chain head is read back
    from its parent's row of nodes."""
    nodes, links, cut_vals, leaf_links, leaf_vals = out
    link, side = np.full(len(cpos), -1, dtype=np.int64), 1
    sums.append(np.zeros(1, dtype=np.int64))
    for i, (lengths, cuts, leaves) in enumerate(rounds):
        cs = sums[i + 1]  # cs[f]: the cuts below members before f
        rounds[i] = sums[i + 1] = None  # release each round once it is placed
        ends = lengths.cumsum()
        # the next round's cpos, lpos and link, one per member
        nxt, lead, below = (np.empty(len(cuts), dtype=np.int64) for _ in range(3))
        for c0 in range(0, len(lengths), _PLACE_CHUNK):
            ch = slice(c0, c0 + _PLACE_CHUNK)
            n, e = lengths[ch], ends[ch]
            off = e - n
            f0, f1 = int(off[0]), int(e[-1])  # the chunk's members
            j = np.arange(f0, f1) - off.repeat(n)  # each member's place in its chain
            # int64, as every index array here: numpy converts narrower
            # index arrays on each use
            pos = j + cpos[ch].repeat(n)
            if side:
                # the members at cpos on, the frontier corner at lpos, then the
                # members' subtrees, each after those of the later members
                nxt[f0:f1] = (cpos[ch] + n + cs[e]).repeat(n) - cs[f0 + 1:f1 + 1]
                lead[f0:f1] = nxt[f0:f1] + (lpos[ch] - cpos[ch]).repeat(n) - j
                leaf_pos = lpos[ch].astype(np.int64)
            else:
                # each member after the earlier members and their subtrees, the
                # frontier corner last
                pos += cs[f0:f1]
                pos -= cs[off].repeat(n)
                nxt[f0:f1] = pos + 1
                lead[f0:f1] = pos + (lpos[ch] - cpos[ch]).repeat(n)
                leaf_pos = lpos[ch] + (e - off) + cs[e] - cs[off]
            cut_vals[pos] = cuts[f0:f1]
            grown = (n > 0).nonzero()[0]
            head = link[ch]
            if i:  # take: a row gather several times faster than nodes[...]
                heads = _spawn(nodes.take(head[grown] >> 1, axis=0).T.copy(), 1 - side)
            else:
                heads = _roots(len(grown)).T.copy()
            nodes[pos] = _members(heads, n[grown], j, side).T
            # member j > 0 hangs below member j - 1 on the chain's side; the
            # frontier corner below the last member, or in the head's place
            same = 2 * pos + side
            up = np.empty_like(pos)
            up[1:] = same[:-1]
            up[off[grown] - f0] = head[grown]
            links[pos] = up
            head[grown] = same[e[grown] - (f0 + 1)]
            leaf_vals[leaf_pos], leaf_links[leaf_pos] = leaves[ch], head
            below[f0:f1] = same + (1 - 2 * side)
        cpos, lpos, link = nxt, lead, below
        side ^= 1


def _walk(charts: list, eps, mm: Optional[MinimalModel], dtype) -> CutTree:
    """The tree of the charts down to size eps, walked corner by corner in
    node order (depth first, side-1 child first, chart by chart).  A size is
    the chart's defect_float, or gamma(u + v) - gamma(u) - gamma(v) with the
    gammas handed down the stack, checked as _check checks a batch (exactly
    on exact charts); dtype holds the sizes, object where a chart is exact."""
    nodes, links, cut_vals, leaf_vals, leaf_links, offsets = [], [], [], [], [], [0]
    for chart in charts:
        gamma, defect, exact = chart.support, chart.defect_float, chart.exact
        low, gm = (0 if exact else -1e-9), None
        # (corner, the gammas of u and v, the largest size it may have, link)
        stack = [(1, 0, 0, 1, gamma(1, 0), gamma(0, 1), math.inf, -1)]
        while stack:
            a, b, c, d, gu, gv, bound, link = stack.pop()
            if defect is None:
                gm = gamma(a + c, b + d)
                size = gm - gu - gv
            else:
                size = defect(a, b, c, d)
            if size < low:
                raise ValueError(f"chart {chart.name}: negative defect at {(a, b, c, d)}")
            if size > bound:
                raise AssertionError("support triangle nesting violated: child larger than parent")
            if size >= eps and size > 0:
                i = len(cut_vals)
                nodes.append((a, b, c, d))
                links.append(link)
                cut_vals.append(size)
                bound = size if exact else size + 1e-12 * (1 + size)
                stack.append((a, b, a + c, b + d, gu, gm, bound, 2 * i))
                stack.append((a + c, b + d, c, d, gm, gv, bound, 2 * i + 1))
            else:
                leaf_vals.append(size)
                leaf_links.append(link)
        offsets.append(len(cut_vals))
    return CutTree(charts=charts, threshold=eps,
                   nodes=np.array(nodes, dtype=np.int64).reshape(-1, 4),
                   links=np.array(links, dtype=np.int64), chart_offsets=tuple(offsets),
                   cut_sizes=Sizes(np.array(cut_vals, dtype=dtype), False),
                   leaf_sizes=Sizes(np.array(leaf_vals, dtype=dtype), False),
                   leaf_links=np.array(leaf_links, dtype=np.int64), minimal_model=mm)


def _grow(charts: list, eps, mm: Optional[MinimalModel] = None) -> CutTree:
    """The tree of the charts down to size eps.  When every chart has a
    batched oracle (defect_den on all, else defect_float, which every graph
    chart has), the charts sharing one descend together by chains, one
    oracle call per batch of each round's chains (_chain_descent); each
    descent is then written into the tree columns depth first, chart by
    chart (_place).  Otherwise (polygon corners) each chart is walked (_walk)."""
    den = bool(charts) and all(chart.defect_den is not None for chart in charts)
    if den:
        if _den_cap(eps) > _DEN_CAP_MAX:
            raise ValueError(f"eps = {eps} is too small for int64 defect denominators; "
                             f"the smallest allowed eps is 1/{_DEN_CAP_MAX} "
                             f"(~{1 / _DEN_CAP_MAX:.4g})")
    elif not all(chart.defect_float is not None for chart in charts):
        return _walk(charts, eps, mm, object if any(chart.exact for chart in charts) else np.float64)
    groups: dict = {}
    for k, chart in enumerate(charts):
        groups.setdefault(chart.defect_den if den else chart.defect_float, []).append(k)
    grown = np.zeros(len(charts), dtype=np.int64)  # cuts per chart
    runs = []
    for fn, members in groups.items():
        sel = np.array(members, dtype=np.int64)
        rounds = _chain_descent(charts, fn, sel, eps, den)
        sums = _subtree_cuts(rounds)
        grown[sel] = sums[0][1:] - sums[0][:-1]
        runs.append((sel, rounds, sums))
    # chart k holds the cuts start[k]:start[k + 1] and one frontier corner more
    start = np.concatenate([[0], np.cumsum(grown)])
    n_cuts = int(start[-1])
    dtype = np.int64 if den else np.float64
    out = (np.empty((n_cuts, 4), dtype=np.int64), np.empty(n_cuts, dtype=np.int64),
           np.empty(n_cuts, dtype=dtype), np.empty(n_cuts + len(charts), dtype=np.int64),
           np.empty(n_cuts + len(charts), dtype=dtype))
    for sel, rounds, sums in runs:
        _place(rounds, sums, start[sel], start[sel] + sel, out)
    return CutTree(charts=charts, threshold=eps, nodes=out[0], links=out[1],
                   chart_offsets=tuple(start.tolist()),
                   cut_sizes=Sizes(out[2], den), leaf_sizes=Sizes(out[4], den),
                   leaf_links=out[3], minimal_model=mm)


def chart_frontier_wedges(charts: list, eps) -> list[np.ndarray]:
    """The frontier leaf wedges of one descent of the charts at threshold
    eps, one (N_k, 4) int64 array of rows (a1, b1, a2, b2) per chart, in
    frontier order: the unexpanded normal pairs, which tile chart k's arc."""
    if not 0 < eps < math.inf:
        raise ValueError(f"frontier wedges need a finite eps > 0, got eps = {eps}")
    tree = _grow(charts, eps)
    quads = _frontier_quads(tree.nodes, tree.leaf_links)
    # chart k holds one frontier corner more than it holds cuts
    offsets = tree.chart_offsets
    return [quads[offsets[k] + k:offsets[k + 1] + k + 1] for k in range(len(charts))]


def _polygon_corner_chart(poly: Polygon, corner, u1: Vec, u2: Vec) -> ArcChart:
    """Chart of one unimodular corner of a polygon's minimal model:
    gamma(a, b) = h(a u1 + b u2) - <a u1 + b u2, corner>."""

    def support(a, b):
        u = (a * u1[0] + b * u2[0], a * u1[1] + b * u2[1])
        return poly.support(u) - dot2(u, corner)

    return ArcChart(corner=corner, u1=u1, u2=u2, support=support,
                    exact=poly.is_exact, name=f"corner@{corner}")


def _domain_charts(domain: ConvexDomain, mm: MinimalModel) -> list:
    """The charts the descent cuts.  A polygon gets one chart per unimodular
    corner of its minimal model; a smooth or builtin domain's charts are its
    own, in the declared order (minimal_model_of has checked each against
    its frame corner, and the frame against the minimal model)."""
    if not domain.is_polygon:
        return list(domain.charts)
    poly = domain.polygon
    out = []
    for vtx, u, v in mm.polygon.corners():
        if det2(u, v) == 1:
            out.append(_polygon_corner_chart(poly, vtx, u, v))
        elif not poly.contains(vtx):
            raise ValueError(
                f"non-unimodular minimal-model corner at {vtx} not shared with the domain"
            )
    return out


def deepest_tree(domain: ConvexDomain, eps) -> CutTree:
    """The deepest tree built on the domain so far, replaced by a descent of
    the domain's charts down to eps if it does not reach that far.  A
    polygon's tree is finite, so a polygon always gets its whole tree (eps
    = 0), once, whatever eps its readers ask for.  For readers that select
    the cuts of size >= some t >= eps themselves; everything else calls
    enumerate_cuts."""
    mm = minimal_model_of(domain)
    if not 0 <= eps < math.inf:  # a nan eps would descend as 0, without end
        raise ValueError(f"eps must be finite and nonnegative, got eps = {eps}")
    if domain.is_polygon:
        eps = 0
    elif eps == 0:
        raise ValueError("eps = 0 is only allowed for polygon domains")
    tree = domain._cut_tree
    if tree is None or eps < tree.threshold:
        tree = domain._cut_tree = _grow(_domain_charts(domain, mm), eps, mm)
    return tree


def enumerate_cuts(domain: ConvexDomain, eps) -> CutTree:
    """Materialize the cut tree down to size eps (eps = 0 allowed for
    polygons, where the tree is finite).

    The result depends on the domain and eps only: the domain's memoized
    tree when that reaches exactly eps (deepened to it if needed), otherwise
    a fresh descent to eps.  A polygon's memo holds its whole tree, so at
    eps > 0 a polygon gets one descent to eps and its memo is left alone."""
    if domain.is_polygon and 0 < eps < math.inf:  # deepest_tree refuses the rest
        mm = minimal_model_of(domain)
        return _grow(_domain_charts(domain, mm), eps, mm)
    tree = deepest_tree(domain, eps)
    if tree.threshold == eps:
        return tree
    return _grow(tree.charts, eps, tree.minimal_model)


@dataclass
class WaveFrontPolygon:
    """A wave front (or partial-cut) polygon: support data plus vertices.

    A front with fewer than 3 vertices is degenerate: its vertices are its
    locus (past m, the max locus), a point or a segment, and normals is
    empty; its area is 0 and its lattice perimeter is the segment's, walked
    there and back (0 on a point), in the vertices' own type.  t is kept as
    given.
    """

    t: object
    vertices: list
    normals: list[Vec]

    @property
    def is_degenerate(self) -> bool:
        return len(self.vertices) < 3

    def area(self):
        return loop_area(self.vertices)

    def lattice_perimeter(self):
        if len(self.vertices) == 2:  # a segment, walked there and back
            return 2 * lattice_length(*self.vertices)
        if self.is_degenerate:  # a point: 0, as its area is
            return self.area()
        # normals[i] belongs to the edge that ends at vertices[i]
        return loop_lattice_perimeter(self.vertices[-1:] + self.vertices[:-1], self.normals)


def _front(domain: ConvexDomain, t, inset) -> WaveFrontPolygon:
    """The minimal model with every cut of size >= t applied, its support
    lines moved inward by inset."""
    hat = minimal_model_of(domain).polygon
    lines = hat.halfplanes() + deepest_tree(domain, t).mediant_constraints(t)
    verts, normals = halfplane_intersection(lines, inset)
    return WaveFrontPolygon(t=t, vertices=verts, normals=normals if len(verts) >= 3 else [])


def partial_cut_polygon(domain: ConvexDomain, t) -> WaveFrontPolygon:
    """Omega^t: the minimal model with every cut of size >= t applied (past
    m, where no cut is that large, the minimal model itself)."""
    if t < 0:
        raise ValueError("t must be nonnegative for a partial cut")
    return _front(domain, t, 0)


def wave_front(domain: ConvexDomain, t) -> WaveFrontPolygon:
    """Omega_t = {rho >= t}, computed as the t-inset of Omega^t; from m on,
    the max locus."""
    if t <= 0:
        raise ValueError("wave front needs t > 0")
    mm = minimal_model_of(domain)
    if t >= mm.m:
        return WaveFrontPolygon(t=t, vertices=list(mm.max_locus), normals=[])
    return _front(domain, t, t)


def profiles(domain: ConvexDomain, t_grid: Sequence[float]) -> list[tuple[float, float, float]]:
    """(t, Length_Z(boundary Omega_t), Area(Omega_t)) from the exact cut-tree
    bookkeeping (no polygon construction)."""
    mm = minimal_model_of(domain)
    m = float(mm.m)
    ts = [float(t) for t in t_grid]
    if not all(0 < t < m for t in ts):
        raise ValueError("t_grid must lie in (0, m)")
    hat = mm.polygon
    try:
        k2 = k_squared(hat)
    except ValueError:
        if float(mm.k) != int(mm.k):
            raise ValueError("K^2 of the minimal model is undefined (non-A_n corner)") from None
        k2 = int(mm.k)
    tree = deepest_tree(domain, min(ts))
    l_hat, a_hat = float(hat.lattice_perimeter()), float(hat.area())
    t = np.array(ts)
    n_t = tree.cut_count(t)  # one search for the whole grid
    k2_t = k2 - n_t
    s = tree._sorted_sizes
    length_cut = l_hat - np.concatenate([[0.0], np.cumsum(s)])[n_t]  # Length_Z of boundary Omega^t
    area_cut = a_hat - np.concatenate([[0.0], np.cumsum(s * s)])[n_t] / 2
    length_front = length_cut - t * k2_t
    area_front = area_cut - t * length_cut + t * t / 2 * k2_t
    return list(zip(ts, length_front.tolist(), area_front.tolist()))


# ---------------------------------------------------------------------------
# caustic


@dataclass(slots=True)
class CausticEdge:
    start: tuple
    end: tuple
    weight: int
    t_start: float
    t_end: float


@dataclass
class CausticGraph:
    edges: list[CausticEdge] = field(default_factory=list)
    max_locus: Optional[tuple] = None


def _edge_lines(tree: CutTree, exact: bool) -> tuple:
    """The lines of the interior trajectories: edge 2 i + side follows cut
    i's child corner on that side, between its lines of chart normals
    (a, b) and (a + c, b + d), or (a + c, b + d) and (c, d).  Returns per
    edge the columns of its two lines, (ux, uy, *hu) and (vx, vy, *hv)."""
    parts = []
    for chart, lo, hi in tree._chart_spans():
        a, b, c, d = tree.nodes[lo:hi].T
        lines = _line_offsets(chart, np.concatenate((a, a + c, c)),
                              np.concatenate((b, b + d, d)), exact)
        parts.append([col.reshape(3, -1) for col in lines])  # rows ab, mediant, cd
    cols = [np.concatenate(col, axis=1) for col in zip(*parts)]
    return [col[:2].T.ravel() for col in cols], [col[1:].T.ravel() for col in cols]


def _inset_meets(u: list, v: list, t: tuple) -> tuple:
    """Where the lines <u, x> = hu + t and <v, x> = hv + t meet, elementwise,
    with det(u, v) = 1 (columns as _edge_lines gives them, t one float
    column or an exact (num, den)): x = (hu + t) v_y - (hv + t) u_y and
    y = (hv + t) u_x - (hu + t) v_x.  Exact offsets and times give Python-int
    numerators over one denominator, and each coordinate is rounded once
    (int / int is correctly rounded)."""
    (ux, uy, *hu), (vx, vy, *hv) = u, v
    if len(t) == 1:
        p, q = hu[0] + t[0], hv[0] + t[0]
        return p * vy - q * uy, q * ux - p * vx
    (nu, du), (nv, dv), (tn, td) = hu, hv, t
    p = (nu * td + tn * du) * dv
    q = (nv * td + tn * dv) * du
    den = du * dv * td
    return (p * vy - q * uy) / den, (q * ux - p * vx) / den


def caustic(domain: ConvexDomain, eps) -> CausticGraph:
    """The corner locus of the tropical distance function, materialized down
    to critical times >= eps: one edge per wave-front-vertex trajectory, with
    weight the lattice length of the gradient jump (n+1 on A_n trajectories,
    2 along the final segment).

    A trajectory is born when its corner appears on the wave front: at the
    size of the corner it follows (a cut, or a frontier corner left uncut at
    eps), where rho equals that size; a cut's two child trajectories end at
    the cut's size.  The trajectory of a minimal-model corner follows its
    chart's root corner; a corner without a chart is a corner of the domain
    and is born at 0.  Requires at-most-A_n corners.

    A trajectory end is where the corner's two lines, moved inward by t,
    meet: a 2x2 solve of det 1, made on whole columns of the tree.  On
    rational charts (L, the parabolic triangle, exact polygons) the offsets
    and times are rational, and each coordinate is the exact vertex rounded
    once, the float nearest to it.  On float charts (the disk, D_alpha,
    graph charts) it is the float solve of the float lines (those of
    slack_arrays); on the unit
    disk it is within 4 * 2^-52 |w|^2 of the exact meet of those lines, w
    the largest entry of the cut's mediant normal in its chart (at most
    9e-14 at eps = 1e-3, 1.0e-12 at 1e-4)."""
    mm = minimal_model_of(domain)
    hat = mm.polygon
    require_a_n_corners(hat)
    if domain.is_polygon:
        require_a_n_corners(domain.polygon)
    # a polygon's whole tree: deepest_tree checks eps, then reads it as 0
    tree = deepest_tree(domain, eps) if domain.is_polygon else enumerate_cuts(domain, eps)
    exact = all(chart.exact for chart in tree.charts)
    cut_sizes, leaf_sizes = tree.cut_sizes, tree.leaf_sizes
    graph = CausticGraph()
    graph.max_locus = tuple((float(p[0]), float(p[1])) for p in mm.max_locus)
    m = mm.m if exact else float(mm.m)
    if len(graph.max_locus) == 2:
        graph.edges.append(CausticEdge(*graph.max_locus, 2, float(m), float(m)))

    # root trajectories: one per minimal-model corner, up to time m, born at
    # the size of its chart's root corner (chart k's first cut, or with no
    # cut its only frontier corner)
    root_size = {}
    for k, (chart, lo, hi) in enumerate(tree._chart_spans()):
        sizes, i = (cut_sizes, lo) if lo < hi else (leaf_sizes, lo + k)
        root_size[chart.u1, chart.u2] = Sizes(sizes.values[i:i + 1], sizes.is_den).tolist()[0]
    for vtx, u, v in hat.corners():
        hu, hv = dot2(u, vtx), dot2(v, vtx)  # the corner lies on both edge lines
        t = root_size.get((u, v), 0)
        start, end = meet(u, hu + t, v, hv + t), meet(u, hu + m, v, hv + m)
        graph.edges.append(CausticEdge(
            (float(start[0]), float(start[1])), (float(end[0]), float(end[1])),
            math.gcd(abs(v[0] - u[0]), abs(v[1] - u[1])), float(t), float(m)))

    # interior trajectories: two per cut, edge 2 i + side born at the size
    # of cut i's child on that side (one scatter through the links) and
    # ending at cut i's
    n = len(tree.nodes)
    if not n:
        return graph
    born = np.empty(2 * n, dtype=cut_sizes.values.dtype)
    inner = tree.leaf_links >= 0
    born[tree.leaf_links[inner]] = leaf_sizes.values[inner]
    inner = tree.links >= 0
    born[tree.links[inner]] = cut_sizes.values[inner]
    times = Sizes(born, cut_sizes.is_den), Sizes(cut_sizes.values.repeat(2), cut_sizes.is_den)
    u, v = _edge_lines(tree, exact)
    ends = []
    for ts in times:
        x, y = _inset_meets(u, v, ts.ratios() if exact else (ts.floats(),))
        ends.append(zip(x.tolist(), y.tolist()))
    graph.edges.extend(map(CausticEdge, *ends, itertools.repeat(1, 2 * n),
                           *(ts.floats().tolist() for ts in times)))
    return graph


# ---------------------------------------------------------------------------
# tropical distance for smooth domains


def tropical_distance_smooth(domain: ConvexDomain, x, floor: float = 1e-8) -> float:
    """rho(x) by active-direction refinement: directions of the minimal model
    plus all cut mediants of size >= eps, with eps decreased until the value
    is certified (value >= eps means deeper cuts cannot lower it).

    floor bounds the refinement depth; values below it carry absolute error
    up to floor (they are near-boundary)."""
    mm = minimal_model_of(domain)
    cons = mm.polygon.active_directions()
    est = min(float(dot2(u, x)) - float(h) for u, h in cons)
    if est < -_EXTERIOR_TOL:
        raise ValueError("exterior point")
    m = float(mm.m)
    xf = np.array([float(x[0]), float(x[1])])
    eps = max(min(est, m) / 2, floor)
    while True:
        tree = deepest_tree(domain, eps)
        w, h, _ = tree.slack_arrays()
        k = tree.cut_count(eps)
        val = est
        if k:
            val = min(val, float((w[:k] @ xf - h[:k]).min()))
        if val < -_EXTERIOR_TOL:
            raise ValueError("exterior point")
        if val >= eps or eps <= floor:
            return max(val, 0.0)
        eps = max(val / 2, floor)
