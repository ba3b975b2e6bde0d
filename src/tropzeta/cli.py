"""Command-line surface.

Subcommands: minimal-model, cuts, wavefront, caustic, zeta, residue,
equiaffine, farey, sigma-b, model, verify.  Output is deterministic JSON on
stdout (aligned key: value lines with --pretty); SVG/CSV side files on
request.  Exit codes: 0 success, 1 domain/specification errors (an s or a
float option that is not a finite number among them), 2 numerical-regime
errors (asymptotics out of reach at the requested depth, or a value outside
the float range).

--pretty is the one configurable setting: the flag, else the TROPZETA_PRETTY
environment variable, else a `pretty = ...` line of ./tropzeta.toml (flat
key = value lines).
"""

from __future__ import annotations

import argparse
import cmath
import dataclasses
import json
import math
import os
import sys
from fractions import Fraction

from . import models
from .cutting import caustic as compute_caustic
from .cutting import enumerate_cuts, wave_front
from .equiaffine import length_graph, length_parametric, length_via_triangles
from .farey import (
    SmoothWeight,
    endpoint_model,
    farey_zeta,
    residue_main_term,
    sigma_b,
)
from .geometry import ConvexDomain, _frac_to_str, domain_from_dict
from .lattice import UnimodularQuadruple
from .minimal import minimal_model_of
from .svgout import caustic_svg, wavefront_svg
from .zeta import (
    NumericalRegimeError,
    exact_digits_floor,
    polygon_residues,
    residue_two_thirds,
    zeta_via_identity,
    zeta_via_mellin,
)

def _fmt(value):
    """JSON-ready form: rationals as 'p/q', complex as [re, im], floats with
    17 significant digits."""
    if isinstance(value, Fraction):
        return _frac_to_str(value)
    if isinstance(value, complex):
        return [_fmt(value.real), _fmt(value.imag)]
    if isinstance(value, float):
        return float(f"{value:.17g}")
    if isinstance(value, (list, tuple)):
        return [_fmt(v) for v in value]
    if isinstance(value, dict):
        return {k: _fmt(v) for k, v in value.items()}
    return value


def _render(payload: dict, pretty: bool) -> str:
    payload = _fmt(payload)
    if pretty:
        return "\n".join(f"{key:>24}: {json.dumps(payload[key], sort_keys=True)}"
                         for key in sorted(payload))
    return json.dumps(payload, sort_keys=True)


def _parse_s(text: str) -> complex:
    """s as a complex number: a ratio p/q, or a real or complex literal
    (i or j); refused unless it is a finite number."""
    t = text.strip().replace(" ", "")
    try:
        if "/" in t and "i" not in t and "j" not in t:
            s = complex(Fraction(t))
        else:
            s = complex(t.replace("i", "j"))
    except ZeroDivisionError:
        raise ValueError(f"s value {text!r} is undefined: division by zero") from None
    except (ValueError, OverflowError) as exc:
        raise ValueError(f"cannot parse s value {text!r}") from exc
    if not cmath.isfinite(s):
        raise ValueError(f"s value {text!r} is not finite")
    return s


def _finite_float(text: str) -> float:
    """argparse type of the float options: a float, refused unless finite."""
    try:
        value = float(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"invalid float value: {text!r}") from None
    if not math.isfinite(value):
        raise argparse.ArgumentTypeError(f"value {text!r} is not finite")
    return value


def _load_domain(path: str) -> ConvexDomain:
    with open(path) as fh:
        return domain_from_dict(json.load(fh))


def _load_weight(spec: str) -> SmoothWeight:
    if spec == "quadratic":
        return SmoothWeight.quadratic()
    with open(spec) as fh:
        data = json.load(fh)
    if isinstance(data, dict) and "poly" in data:
        return SmoothWeight.from_polynomial(data["poly"])
    if isinstance(data, list):
        return SmoothWeight.from_polynomial(data)
    raise ValueError("weight file must hold a coefficient list or {'poly': [...]}")


def _pretty(args) -> bool:
    """--pretty, else TROPZETA_PRETTY, else the first `pretty = ...` line of
    ./tropzeta.toml; the values 0, false and the empty string mean off."""
    if args.pretty:
        return True
    value = os.environ.get("TROPZETA_PRETTY")
    if value is None:
        try:
            with open("tropzeta.toml") as fh:
                for line in fh:
                    key, eq, val = line.split("#")[0].partition("=")
                    if eq and key.strip() == "pretty":
                        value = val.strip().strip("'\"")
                        break
        except OSError:
            pass
    return value is not None and value not in ("0", "false", "")


# ---------------------------------------------------------------------------
# subcommand implementations


def _cmd_minimal_model(args) -> dict:
    dom = _load_domain(args.domain)
    mm = minimal_model_of(dom)
    return {
        "polygon": [[v[0], v[1]] for v in mm.polygon.vertices],
        "m": mm.m,
        "max_locus": [[p[0], p[1]] for p in mm.max_locus],
        "l": mm.l,
        "k": mm.k,
        "type_tag": mm.type_tag,
        "type_params": {k: v for k, v in mm.type_params.items()},
    }


def _cmd_cuts(args) -> dict:
    dom = _load_domain(args.domain)
    eps = args.eps if args.eps is not None else (0.0 if dom.is_polygon else 1e-4)
    tree = enumerate_cuts(dom, eps)
    sizes = tree.cut_sizes.floats().tolist()
    if args.csv:
        depth: list[int] = []  # parents come before their children
        for link in tree.links.tolist():
            depth.append(0 if link < 0 else depth[link >> 1] + 1)
        offsets = tree.chart_offsets
        with open(args.csv, "w") as fh:
            fh.write("a,b,c,d,size,depth,chart\n")
            for chart, (lo, hi) in enumerate(zip(offsets, offsets[1:])):
                for i, (a, b, c, d) in enumerate(tree.nodes[lo:hi].tolist(), lo):
                    fh.write(f"{a},{b},{c},{d},{sizes[i]:.17g},{depth[i]},{chart}\n")
    return {
        "count": len(sizes),
        "eps": float(eps),
        "largest": max(sizes) if sizes else None,
        "smallest": min(sizes) if sizes else None,
        "size_sum": sum(sizes),
        "charts": len(tree.charts),
        "csv": args.csv,
    }


def _cmd_wavefront(args) -> dict:
    dom = _load_domain(args.domain)
    wf = wave_front(dom, args.t)
    payload = {
        "t": wf.t,
        "degenerate": wf.is_degenerate,
        "vertices": [[float(v[0]), float(v[1])] for v in wf.vertices],
        "lattice_perimeter": float(wf.lattice_perimeter()),
        "area": float(wf.area()),
        "active_normals": [[n[0], n[1]] for n in wf.normals],
    }
    if args.svg:
        hat = minimal_model_of(dom).polygon
        dom_verts = dom.polygon.vertices if dom.is_polygon else None
        with open(args.svg, "w") as fh:
            fh.write(wavefront_svg(hat.vertices, wf.vertices, dom_verts))
        payload["svg"] = args.svg
    return payload


def _cmd_caustic(args) -> dict:
    dom = _load_domain(args.domain)
    eps = args.eps if args.eps is not None else 1e-3
    graph = compute_caustic(dom, eps)
    payload = {
        "edges": [
            {"start": list(e.start), "end": list(e.end), "weight": e.weight,
             "t_start": e.t_start, "t_end": e.t_end}
            for e in graph.edges
        ],
        "max_locus": [list(p) for p in graph.max_locus],
    }
    if args.svg:
        hat = minimal_model_of(dom).polygon
        with open(args.svg, "w") as fh:
            fh.write(caustic_svg(graph, hat.vertices))
        payload["svg"] = args.svg
    return payload


def _series(est) -> dict:
    """A SeriesEstimate as a JSON object, its tail_bound only where it is set."""
    out = dataclasses.asdict(est)
    if est.tail_bound is None:
        del out["tail_bound"]
    return out


def _cmd_zeta(args) -> dict:
    dom = _load_domain(args.domain)
    s = _parse_s(args.s)
    eps = args.eps if args.eps is not None else (0.0 if dom.is_polygon else 1e-6)
    if args.route == "mellin":
        val = zeta_via_mellin(dom, s)
        return {"value": val, "route": "mellin", "s": s}
    s_exact = int(s.real) if s.imag == 0 and s.real == int(s.real) else s
    limit = sys.get_int_max_str_digits()
    if limit and exact_digits_floor(dom, s_exact, eps) > limit:
        # refused before the sum, with the message printing the value would raise
        raise ValueError(f"Exceeds the limit ({limit} digits) for integer string conversion; "
                         "use sys.set_int_max_str_digits() to increase the limit")
    est = zeta_via_identity(dom, s_exact, eps)
    payload = _series(est)
    payload.update(route="identity", s=s)
    return payload


def _cmd_residue(args) -> dict:
    dom = _load_domain(args.domain)
    at = args.at.strip()
    if at in ("1", "0"):
        if dom.tag == "domain_L":
            value = Fraction(0) if at == "1" else models.residue_zeta_L_zero()
            return {"location": float(at), "value": value, "method": "closed_form"}
        res1, res0 = polygon_residues(dom)
        value = res1 if at == "1" else res0
        return {"location": float(at), "value": value, "method": "exact_polygon"}
    if at in ("2/3", str(2 / 3)):
        eps_min = args.eps_min if args.eps_min is not None else 1e-6
        est = residue_two_thirds(dom, eps_min)
        return dataclasses.asdict(est)
    raise ValueError("--at must be one of 1, 0, 2/3")


def _cmd_equiaffine(args) -> dict:
    dom = _load_domain(args.domain)
    method = args.method
    if dom.is_polygon:
        return {"value": 0.0, "method": method, "note": "flat boundary"}
    if method == "triangles":
        eps = args.eps if args.eps is not None else 1e-5
        return {"value": length_via_triangles(dom, eps), "method": method, "eps": eps}
    total = 0.0
    for chart in dom.charts:
        if chart.g is None:
            raise ValueError(f"chart {chart.name!r} has no graph data")
        if method == "graph":
            total += length_graph(chart.d2g, (0.0, float(chart.x_max)))
        else:  # parametric: the graph parametrization t -> (t, g(t))
            total += length_parametric(
                lambda t, c=chart: (1.0, c.dg(t)),
                lambda t, c=chart: (0.0, c.d2g(t)),
                (1e-12, float(chart.x_max)),
            )
    return {"value": total, "method": method}


def _cmd_farey(args) -> dict:
    weight = _load_weight(args.weight)
    s = _parse_s(args.s)
    bound = args.bound if args.bound is not None else 200
    zf = farey_zeta(weight, s, bound)
    ze = endpoint_model(weight, s, bound)
    return {
        "weight": weight.name,
        "s": s,
        "bound": bound,
        "farey_zeta": _series(zf),
        "endpoint_model": _series(ze),
        "residue_main_term": residue_main_term(weight),
    }


def _cmd_sigma_b(args) -> dict:
    weight = _load_weight(args.weight)
    s = _parse_s(args.s)
    value, main, dev = sigma_b(weight, s, args.b)
    return {"b": args.b, "s": s, "value": value, "main_term": main, "deviation": dev}


def _cmd_model(args) -> dict:
    which = args.which
    if which == "parabola":
        if args.defect:
            a, b, c, d = (int(x) for x in args.defect)
            return {"defect": models.parabola_defect(UnimodularQuadruple(a, b, c, d))}
        if args.support:
            a, b = (int(x) for x in args.support)
            return {"support": models.parabola_support(a, b)}
        raise ValueError("model parabola needs --support a b or --defect a b c d")
    if which == "L":
        payload = {
            "residue_at_two_thirds": models.residue_zeta_L_two_thirds(),
            "residue_at_zero": models.residue_zeta_L_zero(),
            "area": Fraction(10, 3),
        }
        if args.s:
            s = _parse_s(args.s)
            payload["value"] = models.zeta_L(s, cutoff=args.cutoff or 600)
            payload["s"] = s
        return payload
    if which == "d-alpha":
        alpha = args.alpha if args.alpha is not None else 0.5
        n_max = args.n_max if args.n_max is not None else 1000
        payload = {"alpha": alpha, "n_max": n_max,
                   "pole_location": alpha,
                   "offsets_tail": float(models.d_alpha_offsets(alpha, n_max)[-1])}
        if args.s:
            s = _parse_s(args.s)
            payload["boundary_series"] = models.d_alpha_expected_series(alpha, s, n_max)
            payload["s"] = s
        return payload
    if which == "constants":
        g = math.gamma(1 / 3.0)
        return {
            "gamma_one_third": float(f"{g:.15g}"),
            "residue_su3_two_thirds": float(f"{models.residue_su3_two_thirds():.15g}"),
            "residue_zeta_L_two_thirds": float(f"{models.residue_zeta_L_two_thirds():.15g}"),
            "equiaffine_residue_constant": float(f"{models.equiaffine_residue_constant():.15g}"),
            "boundary_residue_constant": float(f"{models.boundary_residue_constant():.15g}"),
        }
    raise ValueError(f"unknown model {which!r}")


def _cmd_verify(args) -> int:
    from .acceptance import run_suite

    results = run_suite(args.suite)
    failed = 0
    for r in results:
        status = "PASS" if r.passed else "FAIL"
        print(f"[{status}] criterion {r.number:2d} {r.name} "
              f"({r.runtime:.2f}s): {r.detail}")
        failed += 0 if r.passed else 1
    print(f"{len(results) - failed}/{len(results)} criteria passed")
    return 0 if failed == 0 else 1


class _Parser(argparse.ArgumentParser):
    def error(self, message):  # usage problems are spec errors: exit 1
        print(json.dumps({"error": message}), file=sys.stderr)
        raise SystemExit(1)


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="tropzeta",
                     description="tropical zeta functions of convex domains")
    parser.add_argument("--pretty", action="store_true", default=None,
                        help="aligned human-readable output instead of JSON")
    common = _Parser(add_help=False)
    common.add_argument("--pretty", action="store_true", default=argparse.SUPPRESS)
    subparsers = parser.add_subparsers(dest="command", required=True,
                                       parser_class=_Parser)

    class _Sub:
        """Attach the shared --pretty flag to every subcommand."""

        def add_parser(self, name, **kw):
            return subparsers.add_parser(name, parents=[common], **kw)

    sub = _Sub()

    p = sub.add_parser("minimal-model", help="minimal model of a domain")
    p.add_argument("domain")

    p = sub.add_parser("cuts", help="materialize the corner-cut tree")
    p.add_argument("domain")
    p.add_argument("--eps", type=_finite_float, default=None)
    p.add_argument("--csv", default=None)

    p = sub.add_parser("wavefront", help="wave front at time t")
    p.add_argument("domain")
    p.add_argument("--t", type=_finite_float, required=True)
    p.add_argument("--svg", default=None)

    p = sub.add_parser("caustic", help="tropical caustic graph")
    p.add_argument("domain")
    p.add_argument("--eps", type=_finite_float, default=None)
    p.add_argument("--svg", default=None)

    p = sub.add_parser("zeta", help="evaluate the zeta function")
    p.add_argument("domain")
    p.add_argument("--s", required=True, help='e.g. "3", "2.5", "3+0.5i"')
    p.add_argument("--eps", type=_finite_float, default=None)
    p.add_argument("--route", choices=("identity", "mellin"), default="identity")

    p = sub.add_parser("residue", help="residues at 1, 0, or 2/3")
    p.add_argument("domain")
    p.add_argument("--at", required=True, help="1, 0, or 2/3")
    p.add_argument("--eps-min", dest="eps_min", type=_finite_float, default=None)

    p = sub.add_parser("equiaffine", help="equiaffine boundary length")
    p.add_argument("domain")
    p.add_argument("--method", choices=("parametric", "graph", "triangles"),
                   default="graph")
    p.add_argument("--eps", type=_finite_float, default=None)

    p = sub.add_parser("farey", help="weighted Farey zeta function")
    p.add_argument("--weight", default="quadratic",
                   help='"quadratic" or a JSON file with polynomial coefficients')
    p.add_argument("--s", required=True)
    p.add_argument("--bound", type=int, default=None)

    p = sub.add_parser("sigma-b", help="reduced-residue kernel sum Sigma_b")
    p.add_argument("--b", type=int, required=True)
    p.add_argument("--s", required=True)
    p.add_argument("--weight", default="quadratic")

    p = sub.add_parser("model", help="closed-form model oracles")
    p.add_argument("which", choices=("parabola", "L", "d-alpha", "constants"))
    p.add_argument("--support", nargs=2, metavar=("A", "B"), default=None)
    p.add_argument("--defect", nargs=4, metavar=("A", "B", "C", "D"), default=None)
    p.add_argument("--s", default=None)
    p.add_argument("--alpha", type=_finite_float, default=None)
    p.add_argument("--n-max", dest="n_max", type=int, default=None)
    p.add_argument("--cutoff", type=int, default=None)

    p = sub.add_parser("verify", help="run the acceptance suite")
    p.add_argument("--suite", choices=("quick", "full"), default="full")
    return parser


_COMMANDS = {
    "minimal-model": _cmd_minimal_model,
    "cuts": _cmd_cuts,
    "wavefront": _cmd_wavefront,
    "caustic": _cmd_caustic,
    "zeta": _cmd_zeta,
    "residue": _cmd_residue,
    "equiaffine": _cmd_equiaffine,
    "farey": _cmd_farey,
    "sigma-b": _cmd_sigma_b,
    "model": _cmd_model,
}


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    pretty = _pretty(args)
    if args.command == "verify":
        return _cmd_verify(args)
    try:  # formatting too: an exact value may be too long to print
        text = _render(_COMMANDS[args.command](args), pretty)
    except NumericalRegimeError as exc:
        print(_render({"error": str(exc)}, pretty))
        return 2
    except OverflowError as exc:  # a value outside the float range
        print(_render({"error": f"overflow: {exc}"}, pretty))
        return 2
    except (ValueError, OSError, KeyError) as exc:
        print(_render({"error": str(exc)}, pretty))
        return 1
    print(text)
    return 0


if __name__ == "__main__":
    sys.exit(main())
