"""Span recorder for traced benchmark passes.

A traced pass replaces the public entry points of tropzeta's layers (listed in
``TARGETS``) by thin wrappers, in every tropzeta module namespace that holds
them, so calls from the benchmark and calls between layers both open a span.
Fine-grained helpers (``det2``, ``farey_from_denominators``, chart supports,
...) are deliberately not wrapped: they run millions of times per pass, and
their time lands in the self time of the layer function that called them.

Spans are kept in memory as a flat list and reduced to per-layer numbers when
the pass ends.  Nothing here imports tropzeta at module level, so the
arithmetic can be tested without it.
"""

from __future__ import annotations

import sys
import time
import weakref
from dataclasses import dataclass, field
from typing import Callable, Optional

LAYERS = ("minimal", "cutting", "zeta", "geometry", "farey", "equiaffine")


@dataclass
class Span:
    name: str
    layer: str
    start: float
    end: float = 0.0
    parent: Optional[int] = None
    job: Optional[str] = None
    attrs: dict = field(default_factory=dict)

    @property
    def duration(self) -> float:
        return self.end - self.start


class Recorder:
    """Spans of one pass: name, layer, start, end, parent span and job id."""

    def __init__(self):
        self.spans: list[Span] = []
        self._stack: list[int] = []
        self.job: Optional[str] = None
        self.paused = False

    def open(self, name: str, layer: str) -> int:
        idx = len(self.spans)
        parent = self._stack[-1] if self._stack else None
        self.spans.append(Span(name, layer, time.perf_counter(), parent=parent, job=self.job))
        self._stack.append(idx)
        return idx

    def close(self, idx: int) -> None:
        self.spans[idx].end = time.perf_counter()
        self._stack.pop()


def self_times(spans: list[Span]) -> list[float]:
    """Each span's duration minus the durations of its direct children."""
    out = [s.duration for s in spans]
    for s in spans:
        if s.parent is not None:
            out[s.parent] -= s.duration
    return out


def layer_self_times(spans: list[Span]) -> dict[str, float]:
    totals: dict[str, float] = {}
    for s, t in zip(spans, self_times(spans)):
        totals[s.layer] = totals.get(s.layer, 0.0) + t
    return totals


def outermost(spans: list[Span], names: set) -> list[Span]:
    """Spans named in ``names`` that have no ancestor named in ``names``, so a
    recursive or re-entrant call is not counted twice."""
    under = [False] * len(spans)  # named, or below a named span
    out = []
    for i, s in enumerate(spans):  # parents always precede their children
        covered = s.parent is not None and under[s.parent]
        under[i] = covered or s.name in names
        if s.name in names and not covered:
            out.append(s)
    return out


def inclusive_time(spans: list[Span], names: set) -> float:
    return sum(s.duration for s in outermost(spans, names))


# ---------------------------------------------------------------------------
# observers: attach work counts to spans, at the boundary where work happens


class _TreeObserver:
    """Marks enumerate_cuts spans that built a new tree (as opposed to
    returning a tree some earlier call built) and records what was asked."""

    def __init__(self):
        self._seen: dict[int, weakref.ref] = {}  # trees are unhashable dataclasses

    def __call__(self, span: Span, args, kwargs, result) -> None:
        eps = kwargs["eps"] if "eps" in kwargs else args[1]
        span.attrs["eps"] = float(eps)
        span.attrs["threshold"] = float(result.threshold)
        ref = self._seen.get(id(result))
        if ref is None or ref() is not result:
            self._seen[id(result)] = weakref.ref(result)
            span.attrs["built"] = True
            span.attrs["cuts"] = len(result.nodes)
            span.attrs["leaves"] = len(result.leaf_sizes)


def _terms_observer(span: Span, args, kwargs, result) -> None:
    span.attrs["terms"] = int(result.terms_used)


def _series_observer(span: Span, args, kwargs, result) -> None:
    span.attrs["terms"] = int(result.terms_used)
    span.attrs["polygon"] = bool(args[0].is_polygon)


def _directions_observer(span: Span, args, kwargs, result) -> None:
    dom = args[0]
    base = dom.polygon if dom.is_polygon else dom.hat_polygon
    span.attrs["directions"] = len(base.active_directions())


def _polygon_arg_observer(span: Span, args, kwargs, result) -> None:
    span.attrs["polygon"] = bool(args[0].is_polygon)


# (layer, module, attribute path, observer factory or None)
TARGETS = [
    ("minimal", "minimal", "minimal_model_of", None),
    ("minimal", "minimal", "compute_minimal_model", lambda: _directions_observer),
    ("minimal", "minimal", "correction_h", None),
    ("minimal", "minimal", "k_squared", None),
    ("cutting", "cutting", "enumerate_cuts", _TreeObserver),
    ("cutting", "cutting", "wave_front", None),
    ("cutting", "cutting", "partial_cut_polygon", None),
    ("cutting", "cutting", "profiles", None),
    ("cutting", "cutting", "caustic", None),
    ("cutting", "cutting", "tropical_distance_smooth", None),
    ("cutting", "cutting", "chart_frontier_wedges", None),
    ("cutting", "cutting", "CutTree.angular_arrays", None),
    ("cutting", "cutting", "CutTree.slack_arrays", None),
    ("cutting", "cutting", "CutTree.mediant_constraints", None),
    ("cutting", "cutting", "CutTree.front_perimeter_geometric", None),
    ("zeta", "zeta", "boundary_series", lambda: _series_observer),
    ("zeta", "zeta", "zeta_via_identity", lambda: _polygon_arg_observer),
    ("zeta", "zeta", "zeta_via_mellin", None),
    ("zeta", "zeta", "residue_two_thirds", None),
    ("zeta", "zeta", "polygon_residues", None),
    ("zeta", "zeta", "zeta_polygon_exact", None),
    ("zeta", "zeta", "fit_counting_exponent", None),
    ("geometry", "geometry", "domain_from_dict", None),
    ("geometry", "geometry", "ConvexDomain.rho", None),
    ("geometry", "geometry", "Polygon.active_directions", None),
    ("geometry", "geometry", "halfplane_intersection", None),
    ("farey", "farey", "farey_zeta", lambda: _terms_observer),
    ("farey", "farey", "endpoint_model", lambda: _terms_observer),
    ("farey", "farey", "sigma_b", None),
    ("farey", "farey", "hata_reconstruct_grid", None),
    ("farey", "farey", "farey_intervals_by_sum", None),
    ("farey", "farey", "h_kernel_batch", None),
    ("farey", "farey", "h_kernel_integral", None),
    ("farey", "farey", "weight_power_integral", None),
    ("equiaffine", "equiaffine", "length_via_triangles", None),
    ("equiaffine", "equiaffine", "length_graph", None),
    ("equiaffine", "equiaffine", "length_parametric", None),
]


def _wrap(fn: Callable, name: str, layer: str, rec: Recorder, observe) -> Callable:
    def wrapper(*args, **kwargs):
        if rec.paused:
            return fn(*args, **kwargs)
        idx = rec.open(name, layer)
        try:
            result = fn(*args, **kwargs)
        finally:
            rec.close(idx)
        if observe is not None:
            rec.paused = True
            try:
                observe(rec.spans[idx], args, kwargs, result)
            finally:
                rec.paused = False
        return result

    wrapper.__wrapped__ = fn
    wrapper.__name__ = getattr(fn, "__name__", name)
    return wrapper


class Tracing:
    """Context manager that installs the wrappers for one traced pass and
    restores every patched attribute on exit."""

    def __init__(self, rec: Recorder):
        self.rec = rec
        self._undo: list[tuple[object, str, object]] = []

    def __enter__(self) -> Recorder:
        modules = [m for k, m in list(sys.modules.items())
                   if m is not None and (k == "tropzeta" or k.startswith("tropzeta."))]
        for layer, mod_name, path, observer in TARGETS:
            owner = sys.modules[f"tropzeta.{mod_name}"]
            *outer, attr = path.split(".")
            for part in outer:
                owner = getattr(owner, part)
            orig = owner.__dict__[attr] if isinstance(owner, type) else getattr(owner, attr)
            wrapper = _wrap(orig, path, layer, self.rec, observer() if observer else None)
            if isinstance(owner, type):
                self._patch(owner, attr, orig, wrapper)
                continue
            for mod in modules:
                for key, val in list(vars(mod).items()):
                    if val is orig:
                        self._patch(mod, key, orig, wrapper)
        return self.rec

    def _patch(self, owner, key, orig, wrapper) -> None:
        setattr(owner, key, wrapper)
        self._undo.append((owner, key, orig))

    def __exit__(self, *exc) -> None:
        for owner, key, orig in reversed(self._undo):
            setattr(owner, key, orig)
        self._undo.clear()
