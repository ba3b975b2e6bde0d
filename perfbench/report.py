"""Statistics, output digests, per-layer reductions and machine notes for the
benchmark harness.  Nothing here imports tropzeta."""

from __future__ import annotations

import hashlib
import json
import math
import os
import platform
import statistics
import time
from fractions import Fraction
from pathlib import Path

import spans as sp


def median(values) -> float:
    return float(statistics.median(values))


# ---------------------------------------------------------------------------
# machine speed: on a shared VM the same code runs up to 2.5x slower in phases
# lasting seconds to minutes, in CPU time as much as in wall time.  A fixed
# pure-Python probe, timed right before and right after each measured
# interval, tracks that speed; an interval is reported in reference seconds,
# its wall time times PROBE_REF_S / (the two probes' mean time)


PROBE_REF_S = 0.003  # the probe's time on the tuning VM (2-core x86) in its fast phases


def probe() -> float:
    """Wall time of a fixed calibration loop: integer arithmetic and small
    objects, the interpreter work tropzeta's hot loops are made of."""
    t0 = time.perf_counter()
    acc = 0
    for i in range(30_000):
        acc += i * i
    table = {i: str(i) for i in range(6_000)}
    del table
    return time.perf_counter() - t0


def reference_seconds(seconds: float, probe_before: float, probe_after: float) -> float:
    return seconds * PROBE_REF_S * 2 / (probe_before + probe_after)


def tail(values) -> tuple[float, float, int]:
    """(value, percentile, count): the highest percentile of ``values`` with at
    least ten samples beyond it.  With n sorted samples that is the sample at
    index n - 11, reported as percentile 100 (n - 10) / n.  Fewer than eleven
    samples have no such percentile; the maximum is reported at 100."""
    xs = sorted(values)
    n = len(xs)
    if n == 0:
        raise ValueError("no samples")
    if n <= 10:
        return float(xs[-1]), 100.0, n
    return float(xs[n - 11]), 100.0 * (n - 10) / n, n


# ---------------------------------------------------------------------------
# output digests: exact values as p/q, floats with 17 significant digits (the
# CLI's JSON format); the exact and the float parts are hashed separately


def _split(value, path: str, exact: list, floats: list) -> None:
    if isinstance(value, bool) or value is None or isinstance(value, (str, int)):
        exact.append((path, value))
    elif isinstance(value, Fraction):
        exact.append((path, f"{value.numerator}/{value.denominator}"))
    elif isinstance(value, complex):
        floats.append((path + ".re", f"{value.real:.17g}"))
        floats.append((path + ".im", f"{value.imag:.17g}"))
    elif isinstance(value, (list, tuple)):
        for i, v in enumerate(value):
            _split(v, f"{path}[{i}]", exact, floats)
    elif isinstance(value, dict):
        for k in sorted(value):
            if not str(k).startswith("_"):
                _split(value[k], f"{path}.{k}", exact, floats)
    elif hasattr(value, "tolist"):  # numpy scalars and arrays
        _split(value.tolist(), path, exact, floats)
    else:
        floats.append((path, f"{float(value):.17g}"))


def digest(outputs: dict) -> tuple[str, str]:
    """(exact hash, float hash) of one task's outputs; keys starting with '_'
    hold live objects or history-dependent values and are left out."""
    exact: list = []
    floats: list = []
    _split(outputs, "", exact, floats)

    def h(items):
        return hashlib.sha256(json.dumps(items).encode()).hexdigest()[:16]

    return h(exact), h(floats)


# ---------------------------------------------------------------------------
# per-layer numbers of one traced pass


def layer_metrics(spans: list, stale_direct: int) -> dict[str, float]:
    def incl(*names):
        return sp.inclusive_time(spans, set(names))

    self_t = sp.self_times(spans)
    built = [i for i, s in enumerate(spans) if s.name == "enumerate_cuts" and s.attrs.get("built")]
    descent = sum(self_t[i] for i in built)
    cuts = sum(spans[i].attrs["cuts"] for i in built)
    leaves = sum(spans[i].attrs["leaves"] for i in built)
    models = [s.attrs["directions"] for s in spans if s.name == "compute_minimal_model"]
    series = sp.outermost(spans, {"boundary_series"})
    exact = [s for s in sp.outermost(spans, {"zeta_via_identity", "boundary_series",
                                             "polygon_residues"})
             if s.name == "polygon_residues" or s.attrs.get("polygon")]
    rho = sp.outermost(spans, {"ConvexDomain.rho"})
    rho_s = sum(s.duration for s in rho)
    farey_terms = sum(s.attrs["terms"]
                      for s in sp.outermost(spans, {"farey_zeta", "endpoint_model"}))
    layers = sp.layer_self_times(spans)
    out = {
        "minimal.model_s": incl("minimal_model_of", "compute_minimal_model"),
        "minimal.directions": sum(models) / len(models) if models else 0.0,
        "cutting.descent_s": descent,
        "cutting.cuts": cuts,
        "cutting.leaves": leaves,
        "cutting.useful_ratio": cuts / (cuts + leaves) if cuts + leaves else 0.0,
        "cutting.cuts_per_s": cuts / descent if descent > 0 else 0.0,
        "cutting.front_s": incl("wave_front", "profiles", "caustic"),
        "cutting.stale_trees": stale_direct,
        "zeta.series_s": sum(s.duration for s in series),
        "zeta.series_terms": sum(s.attrs["terms"] for s in series),
        "zeta.mellin_s": incl("zeta_via_mellin"),
        "zeta.fit_s": incl("residue_two_thirds"),
        "zeta.exact_s": sum(s.duration for s in exact),
        "geometry.rho_s": rho_s,
        "geometry.rho_calls": len(rho),
        "geometry.rho_per_s": len(rho) / rho_s if rho_s > 0 else 0.0,
        "farey.zeta_s": incl("farey_zeta"),
        "farey.endpoint_s": incl("endpoint_model"),
        "farey.terms": farey_terms,
        "farey.sigma_b_s": incl("sigma_b"),
        "farey.hata_s": incl("hata_reconstruct_grid"),
        "equiaffine.triangles_s": incl("length_via_triangles"),
        "bench.self_s": layers.get("bench", 0.0),
    }
    for layer in sp.LAYERS:
        out[f"{layer}.self_s"] = layers.get(layer, 0.0)
    return out


# ---------------------------------------------------------------------------
# machine and code notes


def _version(module_name: str) -> str:
    try:
        return __import__(module_name).__version__
    except ImportError:
        return "absent"


def machine_notes(src: Path, load1: float) -> dict:
    lines = 0
    for path in sorted((src / "tropzeta").rglob("*.py")):
        with open(path, encoding="utf-8") as fh:
            lines += sum(1 for _ in fh)
    return {
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": _version("numpy"),
        "scipy": _version("scipy"),
        "loadavg_1min_at_start": load1,
        "blas_threads": {k: os.environ.get(k) for k in
                         ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")},
        "src_tropzeta_lines": lines,
    }


def finite(value) -> bool:
    if isinstance(value, (list, tuple)):
        return all(finite(v) for v in value)
    if isinstance(value, complex):
        return math.isfinite(value.real) and math.isfinite(value.imag)
    if isinstance(value, Fraction) or value is None:
        return True
    return math.isfinite(float(value))
