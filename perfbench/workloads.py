"""The four benchmark workloads.

Each workload makes its task list from the seed (``tasks``), runs one task
(``run``, given the harness's clock: ``clock.lap()`` ends a step of a long
task, ``clock.query`` times one rho call), and checks a pass's outputs outside
the timed region (``check``).  A task builds its domain fresh from a
JSON spec, as one CLI call does.  A task holds ``jobs`` jobs: one per polygon,
per smooth domain, per rho query or per Farey call.

Functions are looked up on the ``tropzeta`` package at call time, never bound
at import, so a traced pass sees the span wrappers.
"""

from __future__ import annotations

import math
import random
from fractions import Fraction

import tropzeta as tz
from tropzeta import models
from tropzeta.geometry import corner_singularity

from report import finite


def _frac(x: Fraction) -> str:
    return str(x.numerator) if x.denominator == 1 else f"{x.numerator}/{x.denominator}"


# ---------------------------------------------------------------------------
# random rational polygons: the generator of tests/test_random_polygons.py


def _convex_hull(points):
    pts = sorted(set(points))

    def half(seq):
        out = []
        for p in seq:
            while len(out) >= 2 and ((out[-1][0] - out[-2][0]) * (p[1] - out[-2][1])
                                     - (out[-1][1] - out[-2][1]) * (p[0] - out[-2][0])) <= 0:
                out.pop()
            out.append(p)
        return out

    if len(pts) < 3:
        return []
    return half(pts)[:-1] + half(pts[::-1])[:-1]


def _random_polygon(rng: random.Random):
    while True:
        pts = [(Fraction(rng.randint(-24, 24), rng.randint(1, 4)),
                Fraction(rng.randint(-24, 24), rng.randint(1, 4)))
               for _ in range(rng.randint(5, 10))]
        hull = _convex_hull(pts)
        if len(hull) >= 3:
            return hull


def polygon_with_directions(n: int, max_draws: int = 20000) -> list:
    """The first fuzz polygon, drawn from a generator seeded with ``n``, that
    has exactly ``n`` active directions (the size of the minimal-model
    search, which costs O(n^4))."""
    rng = random.Random(n)
    for _ in range(max_draws):
        hull = _random_polygon(rng)
        if len(tz.Polygon(hull).active_directions()) == n:
            return hull
    raise RuntimeError(f"no fuzz polygon with {n} active directions in {max_draws} draws")


# the lattice rotations: unimodular maps that keep every coordinate's size
ROTATIONS = ([[1, 0], [0, 1]], [[0, -1], [1, 0]], [[-1, 0], [0, -1]], [[0, 1], [-1, 0]])


def polygon_spec(vertices) -> dict:
    return {"kind": "polygon", "vertices": [[_frac(x), _frac(y)] for x, y in vertices]}


# ---------------------------------------------------------------------------
# polygon-exact


class PolygonExact:
    """The exact Fraction pipeline; the O(n^4) minimal model dominates.

    The base polygons are fixed fuzz draws with 30 and 34 active
    directions; the seed picks a lattice rotation of each.  A unimodular
    image keeps every output below invariant and the search's work, and a
    rotation also keeps the size of every Fraction, so a pass costs the same
    for every seed (free fuzz draws moved the pass time by ~35% at equal
    direction counts, random SL(2,Z) words the wave-front times by 20-40%),
    and one golden digest holds for every seed."""

    seed_free_outputs = True

    name = "polygon-exact"
    DIRECTIONS = (30, 34)

    def tasks(self, seed: int) -> list[dict]:
        rng = random.Random(seed)
        out = []
        for n in self.DIRECTIONS:
            image = tz.Polygon(polygon_with_directions(n)).unimodular_image(rng.choice(ROTATIONS))
            out.append({
                "id": f"poly{n}", "jobs": 1,
                "domain": polygon_spec(image.vertices),
                "t_fractions": [Fraction(k, 21) for k in range(1, 21)],
            })
        return out

    def run(self, task: dict, clock) -> dict:
        dom = tz.domain_from_dict(task["domain"])
        mm = tz.minimal_model_of(dom)
        tree = tz.enumerate_cuts(dom, 0)
        f1 = tz.boundary_series(dom, 1, 0)
        z3 = tz.zeta_via_identity(dom, 3, 0)
        z4 = tz.zeta_via_identity(dom, 4, 0)
        try:
            residues = list(tz.polygon_residues(dom))
        except ValueError:  # Res_0 is refused on non-A_n corners
            residues = "refused"
        fronts = []
        for q in task["t_fractions"]:
            t = mm.m * q
            wf = tz.wave_front(dom, t)
            fronts.append({"t": t, "_vertices": list(wf.vertices), "area": wf.area(),
                           "lattice_perimeter": wf.lattice_perimeter()})
        return {
            "m": mm.m, "l": mm.l, "k": mm.k, "type": mm.type_tag,
            "sizes": sorted(tree.sizes()), "F1": f1.value, "Z3": z3.value, "Z4": z4.value,
            "residues": residues, "fronts": fronts,
            "_mm": mm, "_tree": tree,
        }

    def check(self, tasks: list[dict], outputs: dict) -> dict[str, list[str]]:
        fails = {}
        for task in tasks:
            out = outputs[task["id"]]
            msgs = fails.setdefault(task["id"], [])
            dom = tz.domain_from_dict(task["domain"])
            poly = dom.polygon
            mm, tree = out["_mm"], out["_tree"]
            hat = tree.minimal_model.polygon
            sizes = tree.sizes()
            if hat.area() - poly.area() != sum(s * s for s in sizes) / 2:
                msgs.append("area telescoping identity fails")
            if hat.lattice_perimeter() - sum(sizes) != poly.lattice_perimeter():
                msgs.append("lattice-perimeter telescoping identity fails")
            if tz.correction_h(mm, 1) - out["F1"] != poly.lattice_perimeter():
                msgs.append("H(1) - F(1) differs from the lattice perimeter")
            for s, key in ((3, "Z3"), (4, "Z4")):
                if out[key] != tz.zeta_polygon_exact(dom, s):
                    msgs.append(f"identity route differs from chamber integration at s={s}")
            corners = poly.corners() + hat.corners()
            non_a = any(corner_singularity(u, v) is None for _, u, v in corners)
            if isinstance(out["residues"], str):
                if not non_a:
                    msgs.append("residues refused on an A_n polygon")
            elif out["residues"][0] != poly.lattice_perimeter():
                msgs.append("Res_1 differs from the lattice perimeter")
            for front in out["fronts"]:
                if any(poly.rho(v) != front["t"] for v in front["_vertices"]):
                    msgs.append(f"wave-front vertex off the level rho = {front['t']}")
        return fails

    def tree_probes(self, task: dict) -> list:
        return [(task["domain"], 0)]


# ---------------------------------------------------------------------------
# smooth-deep


class SmoothDeep:
    """Deep float descent on domain L and the unit disk, then both zeta
    routes, the 2/3-residue fit, equiaffine triangles and the front steps."""

    name = "smooth-deep"
    EPS_DEEP = 1e-6
    EPS_FRONT = 1e-4
    AREA = {"domain_L": 10 / 3, "disk": math.pi}

    def tasks(self, seed: int) -> list[dict]:
        rng = random.Random(seed)
        out = []
        for tag in ("domain_L", "disk"):
            grid = sorted(rng.uniform(0.002, 0.9) for _ in range(24))
            out.append({
                "id": tag, "jobs": 1, "tag": tag,
                "domain": {"kind": "builtin", "tag": tag},
                "s_complex": complex(3, rng.uniform(0.5, 2.0)),
                "t_front": rng.uniform(0.05, 0.5),  # as a share of m
                "t_grid": grid,  # as shares of m
                # the L caustic over the stale deep tree takes as long as the
                # rest of the pass; the disk's shows the same defect
                "caustic": tag == "disk",
            })
        return out

    def run(self, task: dict, clock) -> dict:
        eps = self.EPS_DEEP
        dom = tz.domain_from_dict(task["domain"])
        tree = tz.enumerate_cuts(dom, eps)
        out = {"cuts": len(tree.nodes), "leaves": len(tree.leaf_sizes)}
        del tree
        clock.lap()
        for key, s in (("Z2", 2), ("Z2.5", 2.5), ("Z3", 3), ("Zc", task["s_complex"])):
            est = tz.zeta_via_identity(dom, s, eps)
            out[key] = {"value": complex(est.value), "tail": est.tail_hint,
                        "terms": est.terms_used}
            clock.lap()
        out["M3"] = tz.zeta_via_mellin(dom, 3)
        clock.lap()
        res = tz.residue_two_thirds(dom, eps)
        out["res23"] = {"value": res.value,
                        "two_term": res.fit_diagnostics["two_term_fit"]["value"]}
        clock.lap()
        out["triangles"] = tz.length_via_triangles(dom, 1e-5)
        clock.lap()
        shallow = tz.enumerate_cuts(dom, self.EPS_FRONT)
        # the returned tree's own depth depends on earlier calls (the domain
        # cache), so only its history-free part enters the digest
        out["_stale"] = shallow.threshold < self.EPS_FRONT
        out["front_cuts"] = shallow.cut_count(self.EPS_FRONT)
        del shallow
        m = float(tz.minimal_model_of(dom).m)
        ts = [m * f for f in task["t_grid"] + [task["t_front"]]]
        out["profiles"] = tz.profiles(dom, ts)
        wf = tz.wave_front(dom, ts[-1])
        out["front"] = {"area": float(wf.area()),
                        "lattice_perimeter": float(wf.lattice_perimeter())}
        clock.lap()
        if task["caustic"]:
            graph = tz.caustic(dom, self.EPS_FRONT)
            kept = [e for e in graph.edges if e.t_end >= self.EPS_FRONT]
            out["caustic"] = {"edges": len(kept), "weight": sum(e.weight for e in kept)}
        return out

    def check(self, tasks: list[dict], outputs: dict) -> dict[str, list[str]]:
        fails = {}
        for task in tasks:
            out = outputs[task["id"]]
            msgs = fails.setdefault(task["id"], [])
            area = self.AREA[task["tag"]]
            z2 = out["Z2"]
            # tail_hint is an estimate, not a bound: the error runs ~1.02x it
            if abs(z2["value"] - area) > 2 * z2["tail"]:
                msgs.append(f"Z(2) = {z2['value']} is not the area {area} within 2x its tail")
            if abs(out["Z3"]["value"] - out["M3"]) > 1e-9 * abs(out["M3"]):
                msgs.append("identity and Mellin routes disagree at s = 3")
            if task["tag"] == "domain_L":
                for key in ("Z2.5", "Z3", "Zc"):
                    s = {"Z2.5": 2.5, "Z3": 3, "Zc": task["s_complex"]}[key]
                    ref = models.zeta_L(s)
                    if abs(out[key]["value"] - ref) > 1e-9 * abs(ref):
                        msgs.append(f"Z_L({s}) differs from models.zeta_L")
                target = models.residue_zeta_L_two_thirds()
                if abs(out["res23"]["two_term"] / target - 1) > 1e-3:
                    msgs.append("two-term Res_2/3 fit is off the closed form by more than 0.1%")
            _, length, area_t = out["profiles"][-1]
            front = out["front"]
            if (abs(length - front["lattice_perimeter"]) > 1e-9 * length
                    or abs(area_t - front["area"]) > 1e-9 * area_t):
                msgs.append("profiles disagree with the wave-front polygon")
            for key, val in out.items():
                if not key.startswith("_") and not finite(_leaves(val)):
                    msgs.append(f"{key} is not finite")
        return fails

    def diagnostics(self, outputs: dict) -> dict:
        gap = max(abs(o["Z3"]["value"] - o["M3"]) / abs(o["M3"]) for o in outputs.values())
        return {
            "route_gap": gap,
            "z2_error_over_tail": {k: abs(o["Z2"]["value"] - self.AREA[k]) / o["Z2"]["tail"]
                                   for k, o in outputs.items()},
        }

    def tree_probes(self, task: dict) -> list:
        return [(task["domain"], self.EPS_DEEP)]


def _leaves(value):
    if isinstance(value, dict):
        return [_leaves(v) for v in value.values()]
    if isinstance(value, (list, tuple)):
        return [_leaves(v) for v in value]
    return value


# ---------------------------------------------------------------------------
# rho-queries


def _l_margin(x, y) -> float:
    """Signed distance-like margin of a point of the frame square to the
    boundary of domain L (positive inside), from the arcs sqrt(a) + sqrt(b) = 1
    in each corner frame; independent of the cut tree."""
    margin = min(1 - abs(x), 1 - abs(y))
    for cx, cy in ((-1, -1), (1, -1), (1, 1), (-1, 1)):
        a, b = abs(x - cx), abs(y - cy)
        if a <= 1 and b <= 1:
            margin = min(margin, math.sqrt(a) + math.sqrt(b) - 1)
    return margin


class RhoQueries:
    """Many cheap rho(x) queries against one cut tree per domain."""

    name = "rho-queries"
    # the polygon's exact queries outnumber the float ones, so the median and
    # the tail both fall inside one kind of query
    GRID = {"domain_L": 32, "disk": 32, "polygon": 48}
    FLOOR = 1e-3
    POLYGON_DIRECTIONS = 36

    def tasks(self, seed: int) -> list[dict]:
        rng = random.Random(seed)
        out = []
        for tag in ("domain_L", "disk"):
            n = self.GRID[tag]
            h = 2 / n
            ox, oy = rng.random(), rng.random()
            pts = [(-1 + (i + ox) * h, -1 + (j + oy) * h) for i in range(n) for j in range(n)]
            out.append({"id": tag, "tag": tag, "jobs": len(pts), "points": pts, "step": 8 * n,
                        "cell": (h, h), "domain": {"kind": "builtin", "tag": tag},
                        "levels": sorted(rng.uniform(0.1, 0.8) for _ in range(3))})
        n = self.GRID["polygon"]
        verts = polygon_with_directions(self.POLYGON_DIRECTIONS)
        spec = polygon_spec(verts)
        x0, y0 = min(v[0] for v in verts), min(v[1] for v in verts)
        hx = (max(v[0] for v in verts) - x0) / n
        hy = (max(v[1] for v in verts) - y0) / n
        # cell centres: a shifted exact grid changes the size of every Fraction
        # and with it the cost of the cheap queries, from seed to seed
        half = Fraction(1, 2)
        pts = [(x0 + (i + half) * hx, y0 + (j + half) * hy) for i in range(n) for j in range(n)]
        out.append({"id": "polygon", "tag": "polygon", "jobs": len(pts), "points": pts,
                    "step": 8 * n, "cell": (float(hx), float(hy)), "domain": spec,
                    "levels": sorted(rng.uniform(0.1, 0.8) for _ in range(3))})
        return out

    def run(self, task: dict, clock) -> dict:
        dom = tz.domain_from_dict(task["domain"])
        values = []
        for k, p in enumerate(task["points"], 1):
            try:
                values.append(clock.query(dom.rho, p, floor=self.FLOOR))
            except ValueError as exc:
                values.append(None if "exterior" in str(exc) else f"error: {exc}")
            if k % task["step"] == 0:  # one step per eight grid rows
                clock.lap()
        return {"values": values}

    def check(self, tasks: list[dict], outputs: dict) -> dict[str, list[str]]:
        fails = {}
        for task in tasks:
            msgs = fails.setdefault(task["id"], [])
            values = outputs[task["id"]]["values"]
            dom = tz.domain_from_dict(task["domain"])
            for p, v in zip(task["points"], values):
                if isinstance(v, str):
                    msgs.append(f"rho{p}: {v}")
                    continue
                if task["tag"] == "polygon":
                    inside = dom.polygon.contains(p)
                    if (v is not None) != inside or (v is not None and v < 0):
                        msgs.append(f"rho{p} = {v} but contains() = {inside}")
                    continue
                margin = (_l_margin(*p) if task["tag"] == "domain_L"
                          else 1 - math.hypot(*p))
                # an exterior verdict is certified; a value below the floor may
                # belong to a point just outside (documented rho accuracy)
                if v is None and margin > 1e-9 or v is not None and (
                        v < 0 or margin < -1e-9 and v >= self.FLOOR):
                    msgs.append(f"rho{p} = {v} but the boundary margin is {margin}")
            # grid area of {rho >= t} against the wave-front polygon
            m = float(tz.minimal_model_of(dom).m)
            dx, dy = task["cell"]
            diag = math.hypot(dx, dy)
            for share in task["levels"]:
                t = m * share
                wf = tz.wave_front(dom, t)
                vs = [(float(x), float(y)) for x, y in wf.vertices]
                perim = sum(math.dist(vs[i - 1], vs[i]) for i in range(len(vs)))
                count = sum(1 for v in values if v is not None and not isinstance(v, str)
                            and v >= t)
                # cell centres misjudge only cells within half a diagonal of
                # the front, a band of area at most perim * diag + diag^2
                err = abs(count * dx * dy - float(wf.area()))
                if err > perim * diag + diag * diag:
                    msgs.append(f"grid area of rho >= {t} is off the wave front by {err}")
        return fails

    def tree_probes(self, task: dict) -> list:
        return []


# ---------------------------------------------------------------------------
# farey-engine


def _weight(spec: dict):
    if spec["kind"] == "quadratic":
        return tz.SmoothWeight.quadratic()
    return tz.SmoothWeight.from_polynomial(spec["coeffs"])


def _primes_and_composites(rng: random.Random, lo: int, hi: int, n_prime: int,
                           n_composite: int) -> list[int]:
    def is_prime(b):
        return b > 1 and all(b % p for p in range(2, math.isqrt(b) + 1))

    primes, composites = [], []
    while len(primes) < n_prime or len(composites) < n_composite:
        b = rng.randrange(lo, hi)
        bucket, k = (primes, n_prime) if is_prime(b) else (composites, n_composite)
        if len(bucket) < k and b not in bucket:
            bucket.append(b)
    return sorted(primes + composites)


class FareyEngine:
    """Farey/Hata arithmetic with no geometry: one job per call."""

    name = "farey-engine"
    BOUND_QUADRATIC = 500
    BOUND_CUBIC = 150
    HATA_BOUND = 200

    def tasks(self, seed: int) -> list[dict]:
        rng = random.Random(seed)
        s_real = rng.uniform(0.7, 0.9)
        s_complex = complex(rng.uniform(0.6, 0.9), rng.uniform(1.0, 3.0))
        cubic = {"kind": "poly", "coeffs": [0.0, rng.uniform(0.1, 0.5), rng.uniform(0.8, 1.2),
                                             rng.uniform(0.1, 0.3)]}  # f'' > 0 on [0, 1]
        out = []
        for wname, weight, bound in (("quad", {"kind": "quadratic"}, self.BOUND_QUADRATIC),
                                     ("cubic", cubic, self.BOUND_CUBIC)):
            for sname, s in (("real", s_real), ("complex", s_complex)):
                for fn in ("farey_zeta", "endpoint_model"):
                    out.append({"id": f"{fn}-{wname}-{sname}", "jobs": 1, "call": fn,
                                "weight": weight, "s": s, "bound": bound})
        # a narrow range of b keeps the Sigma_b queries alike in cost (~phi(b))
        for b in _primes_and_composites(rng, 1000, 1300, 24, 16):
            out.append({"id": f"sigma_b-{b}", "jobs": 1, "call": "sigma_b",
                        "weight": cubic, "s": s_real, "b": b})
        xs = sorted(rng.random() for _ in range(257))
        out.append({"id": "hata", "jobs": 1, "call": "hata_reconstruct_grid",
                    "weight": cubic, "bound": self.HATA_BOUND, "xs": xs})
        return out

    def run(self, task: dict, clock) -> dict:
        weight = _weight(task["weight"])
        fn = task["call"]
        if fn in ("farey_zeta", "endpoint_model"):
            est = getattr(tz, fn)(weight, task["s"], task["bound"])
            return {"value": complex(est.value), "terms": est.terms_used}
        if fn == "sigma_b":
            value, main, dev = tz.sigma_b(weight, task["s"], task["b"])
            return {"value": value, "main": main, "deviation": dev}
        grid = tz.farey.hata_reconstruct_grid(weight, task["bound"], task["xs"])
        return {"values": grid.tolist()}

    def check(self, tasks: list[dict], outputs: dict) -> dict[str, list[str]]:
        fails = {t["id"]: [] for t in tasks}
        for task in tasks:
            out = outputs[task["id"]]
            if not finite(_leaves(out)):
                fails[task["id"]].append("non-finite output")
            if task["call"] == "hata_reconstruct_grid":
                weight = _weight(task["weight"])
                err = max(abs(v - float(weight.f(x))) for v, x in zip(out["values"], task["xs"]))
                if err > 1e-4:
                    fails[task["id"]].append(f"Hata reconstruction error {err}")
        # constant curvature: the quadratic weight's series is its endpoint
        # model.  Hata coefficients lose digits to cancellation, so the gap is
        # measured against the sum of the terms' absolute values, which is the
        # endpoint model at Re s
        for sname in ("real", "complex"):
            key = f"farey_zeta-quad-{sname}"
            task = next(t for t in tasks if t["id"] == key)
            fz, ep = outputs[key], outputs[f"endpoint_model-quad-{sname}"]
            scale = abs(tz.endpoint_model(tz.SmoothWeight.quadratic(), task["s"].real,
                                          task["bound"]).value)
            if abs(fz["value"] - ep["value"]) > 1e-6 * scale or fz["terms"] != ep["terms"]:
                fails[key].append("farey_zeta differs from endpoint_model for the quadratic weight")
        return fails

    def tree_probes(self, task: dict) -> list:
        return []


WORKLOADS = {w.name: w for w in (PolygonExact(), SmoothDeep(), RhoQueries(), FareyEngine())}
