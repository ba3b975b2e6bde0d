"""tropzeta benchmark harness.

Run from the root of a checkout:

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

Workloads (see workloads.py): polygon-exact, smooth-deep, rho-queries,
farey-engine.  The harness imports tropzeta from ``src/`` of the current
directory, in one process and one thread.  It repeats the workload's fixed
task list ("a pass") until ``--seconds`` would be exceeded, always at least
once.  ``setup_s`` and ``run_s`` are in reference seconds (see
``report.probe``), per-layer numbers are wall-time medians over traced
passes.  Pass 0 is always untraced; its
outputs are checked and digested against ``golden.json``.  Later passes must
reproduce pass 0's exact outputs.

With ``--trace 0`` the last line of standard output holds the end-to-end
metrics; with ``--trace 1`` passes alternate untraced and traced (span
wrappers on, see spans.py) and the last line holds the per-layer metrics,
with the rho-query latencies of the untraced passes.
A result file with machine and code notes goes to ``perfbench/out/``.

``--write-golden`` runs one pass and records its digests in golden.json.
"""

import os

# pinned before numpy is imported anywhere in this process or its children
for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
             "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS"):
    os.environ[_var] = "1"

import argparse  # noqa: E402
import contextlib  # noqa: E402
import json  # noqa: E402
import resource  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
import traceback  # noqa: E402
import tracemalloc  # noqa: E402
from pathlib import Path  # noqa: E402

import report  # noqa: E402
import spans  # noqa: E402

HERE = Path(__file__).resolve().parent
GOLDEN = HERE / "golden.json"
SETUP_SAMPLES = 9
WORKLOAD_NAMES = ("polygon-exact", "smooth-deep", "rho-queries", "farey-engine")

# (name, unit) of every metric the harness prints; BENCHMARK.json declares
# the same names, which test_perfbench.py checks
END_TO_END = (
    ("setup_s", "s"),
    ("run_s", "s"),
    ("peak_rss_mb", "MB"),
    ("ok_ratio", "ratio"),
)
PER_LAYER = (
    ("minimal.model_s", "s"), ("minimal.directions", "count"), ("minimal.self_s", "s"),
    ("cutting.descent_s", "s"), ("cutting.cuts", "count"), ("cutting.leaves", "count"),
    ("cutting.useful_ratio", "ratio"), ("cutting.cuts_per_s", "1/s"),
    ("cutting.bytes_per_cut", "B"), ("cutting.front_s", "s"),
    ("cutting.stale_trees", "count"), ("cutting.self_s", "s"),
    ("zeta.series_s", "s"), ("zeta.series_terms", "count"), ("zeta.mellin_s", "s"),
    ("zeta.fit_s", "s"), ("zeta.exact_s", "s"), ("zeta.route_gap", "ratio"),
    ("zeta.self_s", "s"),
    ("geometry.rho_s", "s"), ("geometry.rho_calls", "count"), ("geometry.rho_per_s", "1/s"),
    ("geometry.self_s", "s"),
    ("farey.zeta_s", "s"), ("farey.endpoint_s", "s"), ("farey.terms", "count"),
    ("farey.sigma_b_s", "s"), ("farey.hata_s", "s"), ("farey.self_s", "s"),
    ("equiaffine.triangles_s", "s"), ("equiaffine.self_s", "s"),
    ("bench.self_s", "s"), ("trace.overhead_s", "s"),
    ("query.p50_us", "us"), ("query.tail_us", "us"),
)


class Clock:
    """Handed to a workload's ``run``.  ``lap()`` ends one step of the task
    (the harness ends the last step when the task returns), so a long task
    is timed in steps; ``query(fn, ...)`` times one rho(x) call of
    rho-queries, the repeated call a user of that workload waits on.

    In an untraced pass each step is bracketed by calibration probes
    (``report.probe``), outside the step's time, so it can be converted to
    reference seconds."""

    def __init__(self, p: "Pass"):
        self.p = p
        self.laps: list[tuple[float, float, float]] = []
        self.before = 0.0
        self.t = 0.0

    def start(self, task_id: str) -> None:
        self.laps = self.p.laps.setdefault(task_id, [])
        if not self.p.traced and not self.before:
            self.before = report.probe()
        self.t = time.perf_counter()

    def lap(self) -> None:
        seconds = time.perf_counter() - self.t
        after = 0.0 if self.p.traced else report.probe()
        self.laps.append((seconds, self.before, after))
        self.before = after
        self.t = time.perf_counter()

    def query(self, fn, *args, **kwargs):
        t0 = time.perf_counter()
        try:
            return fn(*args, **kwargs)
        finally:
            self.p.latencies.append(time.perf_counter() - t0)


class Pass:
    def __init__(self, traced: bool):
        self.traced = traced
        self.seconds = 0.0  # wall time, probes included
        # task id -> (seconds, probe before, probe after) per step
        self.laps: dict[str, list[tuple[float, float, float]]] = {}
        self.latencies: list[float] = []  # rho(x) calls, in order
        self.outputs: dict = {}
        self.errors: dict[str, str] = {}
        self.spans: list = []
        self.stale = 0  # the workload's own enumerate_cuts calls that got a deeper tree

    @property
    def step_seconds(self) -> float:
        """The pass's wall time without the probes."""
        return sum(lap[0] for laps in self.laps.values() for lap in laps)


def run_pass(workload, tasks: list[dict], traced: bool) -> Pass:
    result = Pass(traced)
    clock = Clock(result)
    rec = spans.Recorder()
    with spans.Tracing(rec) if traced else contextlib.nullcontext():
        t0 = time.perf_counter()
        for task in tasks:
            rec.job = task["id"]
            root = rec.open("task", "bench") if traced else None
            clock.start(task["id"])
            try:
                result.outputs[task["id"]] = workload.run(task, clock)
            except Exception:  # a task that raises counts as failed, the pass goes on
                result.errors[task["id"]] = traceback.format_exc()
            finally:
                clock.lap()
                if traced:
                    rec.close(root)
        result.seconds = time.perf_counter() - t0
    result.spans = rec.spans
    return result


def find_source(root: Path) -> Path:
    src = root / "src"
    if not (src / "tropzeta" / "__init__.py").is_file():
        raise FileNotFoundError(f"no tropzeta sources under {src}")
    return src


def import_workloads(src: Path):
    sys.path.insert(0, str(src))
    import tropzeta
    import workloads

    if not Path(tropzeta.__file__).resolve().is_relative_to(src.resolve()):
        raise ImportError(f"tropzeta was imported from {tropzeta.__file__}, not {src}")
    return workloads


def set_up(src: Path, name: str, seed: int) -> tuple[float, float, list]:
    """One set-up sample in this process: import tropzeta, make the inputs.
    Returns its wall time, the same in reference seconds, and the tasks."""
    before = report.probe()
    t0 = time.perf_counter()
    workloads = import_workloads(src)
    tasks = workloads.WORKLOADS[name].tasks(seed)
    seconds = time.perf_counter() - t0
    return seconds, report.reference_seconds(seconds, before, report.probe()), tasks


def setup_in_child(name: str, seed: int) -> tuple[float, float]:
    proc = subprocess.run(
        [sys.executable, str(Path(__file__).resolve()), "--setup-probe",
         "--workload", name, "--seed", str(seed)],
        capture_output=True, text=True, timeout=120, check=True)
    seconds, ref = proc.stdout.strip().splitlines()[-1].split()
    return float(seconds), float(ref)


def load_golden() -> dict:
    if GOLDEN.is_file():
        with open(GOLDEN, encoding="utf-8") as fh:
            return json.load(fh)
    return {}


def memory_probe(workload, tasks: list[dict]) -> float:
    """Bytes retained per cut by the trees the workload's own enumerate_cuts
    calls build, measured with tracemalloc on fresh domains (minimal model
    computed first, so only the descent is traced)."""
    import tropzeta as tz

    total_bytes = total_cuts = 0
    seen = set()
    for task in tasks:
        for spec, eps in workload.tree_probes(task):
            key = json.dumps(spec, sort_keys=True) + repr(eps)
            if key in seen:
                continue
            seen.add(key)
            dom = tz.domain_from_dict(spec)
            tz.minimal_model_of(dom)
            tracemalloc.start()
            try:
                tree = tz.enumerate_cuts(dom, eps)
                total_bytes += tracemalloc.get_traced_memory()[0]
            finally:
                tracemalloc.stop()
            total_cuts += len(tree.nodes)
            del tree, dom
    return total_bytes / total_cuts if total_cuts else 0.0


class Outcome:
    """Failure accounting and output digests across the passes of one run."""

    def __init__(self, workload, tasks: list[dict], golden: dict | None):
        self.workload = workload
        self.tasks = tasks
        self.golden = golden
        self.attempted = self.failed = 0
        self.failures: list[str] = []
        self.float_changes: list[str] = []
        self.reference: dict[str, tuple[str, str]] = {}
        self.diagnostics: dict = {}
        self.check_s = 0.0
        self.passes: list[Pass] = []

    def add(self, p: Pass) -> None:
        """Check pass 0 and compare it with the golden digests; compare later
        passes with pass 0; count jobs.  Drops the pass's outputs."""
        first = not self.passes
        fails: dict[str, list[str]] = {tid: [f"raised:\n{tb}"] for tid, tb in p.errors.items()}
        if first:
            good = [t for t in self.tasks if t["id"] in p.outputs]
            t0 = time.perf_counter()
            checks = self.workload.check(good, p.outputs) if good else {}
            self.check_s = time.perf_counter() - t0
            for tid, msgs in checks.items():
                fails.setdefault(tid, []).extend(msgs)
            if hasattr(self.workload, "diagnostics") and len(good) == len(self.tasks):
                self.diagnostics = self.workload.diagnostics(p.outputs)
        for tid, out in p.outputs.items():
            dig = report.digest(out)
            if not first:
                if self.reference.get(tid, dig)[0] != dig[0]:
                    fails.setdefault(tid, []).append("exact outputs differ from pass 0")
                continue
            self.reference[tid] = dig
            if self.golden is not None:
                want = self.golden.get(tid)
                if want is None or want[0] != dig[0]:
                    fails.setdefault(tid, []).append("exact outputs differ from golden.json")
                elif want[1] != dig[1]:
                    self.float_changes.append(tid)
        p.stale = sum(1 for o in p.outputs.values() if o.get("_stale"))
        for task in self.tasks:
            msgs = fails.get(task["id"], [])
            self.attempted += task["jobs"]
            # a task that raised ran none of its jobs to the end
            self.failed += (task["jobs"] if task["id"] in p.errors
                            else min(task["jobs"], len(msgs)))
            self.failures += [f"pass {len(self.passes)} {task['id']}: {m}" for m in msgs]
        p.outputs = {}
        self.passes.append(p)


def run_seconds(passes: list[Pass]) -> float:
    """The pass time in reference seconds: each step of each task converted
    with the probes around it (see report.probe), its median over the
    passes, summed.  Over ten seeds the median converted steps varied by
    4-9% (quartile spread), the fastest raw steps by 7-20%.  A fastest-of
    estimate also falls with the number of passes, which the machine's
    speed sets; a median does not."""
    return sum(report.median([report.reference_seconds(*lap) for lap in steps])
               for tid in passes[0].laps
               for steps in zip(*(q.laps[tid] for q in passes)))


def end_to_end(outcome: Outcome, setup: list[tuple[float, float]]) -> tuple[dict, dict]:
    metrics = {
        "setup_s": report.median([ref for _, ref in setup]),
        "run_s": run_seconds(outcome.passes),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        "ok_ratio": (outcome.attempted - outcome.failed) / outcome.attempted,
    }
    notes = {"wall_s": {"setup": report.median([raw for raw, _ in setup]),
                        "run": report.median([q.step_seconds for q in outcome.passes])}}
    return metrics, notes


def query_latency(passes: list[Pass]) -> tuple[dict, dict]:
    """Median and tail of the rho(x) calls, each query's fastest time over
    the untraced passes; 0 on the workloads that make no such calls."""
    slots = min(len(q.latencies) for q in passes)
    if not slots:
        return {"query.p50_us": 0.0, "query.tail_us": 0.0}, {}
    per_query = [min(q.latencies[i] for q in passes) * 1e6 for i in range(slots)]
    tail_us, tail_pct, count = report.tail(per_query)
    metrics = {"query.p50_us": report.median(per_query), "query.tail_us": tail_us}
    notes = {"query": {"p50_us": metrics["query.p50_us"], "tail_us": tail_us,
                       "tail_percentile": tail_pct, "queries": count},
             "per_query_us": per_query}
    return metrics, notes


def per_layer(outcome: Outcome) -> tuple[dict, dict]:
    plain = [q for q in outcome.passes if not q.traced]
    traced = [q for q in outcome.passes if q.traced]
    per_pass = [report.layer_metrics(q.spans, q.stale) for q in traced]
    metrics = {k: report.median([m[k] for m in per_pass]) for k in per_pass[0]}
    metrics["cutting.bytes_per_cut"] = memory_probe(outcome.workload, outcome.tasks)
    metrics["zeta.route_gap"] = outcome.diagnostics.get("route_gap", 0.0)
    metrics["trace.overhead_s"] = (report.median([q.step_seconds for q in traced])
                                   - report.median([q.step_seconds for q in plain]))
    query, notes = query_latency(plain)
    metrics.update(query)
    notes.update({"traced_passes": [q.seconds for q in traced],
                  "spans_per_traced_pass": [len(q.spans) for q in traced]})
    return metrics, notes


def write_golden(outcome: Outcome, name: str, key: str) -> int:
    if outcome.failed:
        print(f"error: {outcome.failed} failed jobs; golden.json not written", file=sys.stderr)
        return 1
    golden_all = load_golden()
    golden_all.setdefault(name, {})[key] = {tid: list(d) for tid, d in
                                           sorted(outcome.reference.items())}
    with open(GOLDEN, "w", encoding="utf-8") as fh:
        json.dump(golden_all, fh, indent=1, sort_keys=True)
        fh.write("\n")
    print(f"golden.json: {name} {key} recorded")
    return 0


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=10.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    ap.add_argument("--write-golden", action="store_true")
    args = ap.parse_args(argv)

    load1 = os.getloadavg()[0]
    try:
        src = find_source(Path.cwd())
    except FileNotFoundError as exc:
        print(f"error: {exc}; run from the root of a tropzeta checkout", file=sys.stderr)
        return 2
    if args.workload not in WORKLOAD_NAMES:
        print(f"error: unknown workload {args.workload!r}; choose from {WORKLOAD_NAMES}",
              file=sys.stderr)
        return 2
    seconds, ref, tasks = set_up(src, args.workload, args.seed)
    if args.setup_probe:
        print(seconds, ref)
        return 0
    import workloads

    workload = workloads.WORKLOADS[args.workload]
    setup = [(seconds, ref)]
    extra_setups = 0 if args.trace or args.write_golden else SETUP_SAMPLES - 1

    golden_key = "any" if getattr(workload, "seed_free_outputs", False) else str(args.seed)
    golden = None if args.write_golden else load_golden().get(args.workload, {}).get(golden_key)
    if golden is None and not args.write_golden:
        print(f"warning: golden.json has no digests for {args.workload} seed {args.seed}; "
              "exact outputs are checked against pass 0 only", file=sys.stderr)
    outcome = Outcome(workload, tasks, golden)
    started = time.perf_counter()
    while True:
        traced = bool(args.trace) and len(outcome.passes) % 2 == 1
        outcome.add(run_pass(workload, tasks, traced))
        if len(setup) <= extra_setups:
            # set-up samples between passes see the machine's speed over the
            # whole run, not in one burst; their time is not the passes' budget
            t0 = time.perf_counter()
            setup.append(setup_in_child(args.workload, args.seed))
            started += time.perf_counter() - t0
        if args.write_golden:
            break
        if args.trace and len(outcome.passes) < 2:
            continue
        typical = report.median([q.seconds for q in outcome.passes])
        if time.perf_counter() - started + typical > args.seconds:
            break
    while len(setup) <= extra_setups:
        setup.append(setup_in_child(args.workload, args.seed))
    for line in outcome.failures[:20]:
        print(line, file=sys.stderr)
    if args.write_golden:
        return write_golden(outcome, args.workload, golden_key)

    if args.trace:
        metrics, notes = per_layer(outcome)
        declared = PER_LAYER
    else:
        metrics, notes = end_to_end(outcome, setup)
        declared = END_TO_END
    if set(metrics) != {name for name, _ in declared}:
        raise RuntimeError(f"metric names drifted from the declared list: {sorted(metrics)}")
    result = {
        "correct": outcome.failed == 0,
        "attempted": outcome.attempted,
        "failed": outcome.failed,
        "metrics": {name: {"value": float(metrics[name]), "unit": unit}
                    for name, unit in declared},
    }
    machine = report.machine_notes(src, load1)
    record = {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "machine": machine, "setup_samples": setup,
        "untraced_passes": [q.seconds for q in outcome.passes if not q.traced],
        "untraced_laps": [q.laps for q in outcome.passes if not q.traced],
        "probe_ref_s": report.PROBE_REF_S,
        "check_s": outcome.check_s, **notes,
        "golden": ("absent for this seed" if outcome.golden is None else
                   {"float_only_changes": outcome.float_changes}),
        "diagnostics": outcome.diagnostics,
        "failures": outcome.failures[:50],
        "result": result,
    }
    out_dir = HERE / "out"
    out_dir.mkdir(exist_ok=True)
    out_file = out_dir / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    with open(out_file, "w", encoding="utf-8") as fh:
        json.dump(record, fh, indent=1, default=str)
        fh.write("\n")
    print(f"machine: {json.dumps(machine)}")
    if "query" in notes:
        q = notes["query"]
        print(f"query: p50 {q['p50_us']:.1f} us, p{q['tail_percentile']:.2f} "
              f"{q['tail_us']:.1f} us over {q['queries']} queries")
    print(f"passes: {len(outcome.passes)}; golden: {record['golden']}; "
          f"details in {out_file.relative_to(Path.cwd())}")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
