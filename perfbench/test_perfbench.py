"""Tests of the benchmark harness itself: span self-time arithmetic, the tail
percentile rule, failure counting, and that every printed metric name is
declared in BENCHMARK.json.

Run from the repository root:  python3 -m pytest perfbench/test_perfbench.py
"""

import json
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import report  # noqa: E402
import run  # noqa: E402
import spans  # noqa: E402

SPEC = json.loads((HERE.parent / "BENCHMARK.json").read_text())


def _span(name, layer, start, end, parent=None):
    return spans.Span(name, layer, start, end, parent)


def test_self_time_subtracts_direct_children_only():
    s = [_span("a", "zeta", 0, 10), _span("b", "cutting", 1, 6, 0),
         _span("c", "minimal", 2, 4, 1), _span("d", "zeta", 7, 9, 0)]
    assert spans.self_times(s) == [3, 3, 2, 2]
    assert spans.layer_self_times(s) == {"zeta": 5, "cutting": 3, "minimal": 2}
    assert sum(spans.self_times(s)) == s[0].duration


def test_recorder_links_parents_and_jobs():
    rec = spans.Recorder()
    rec.job = "task7"
    outer = rec.open("f", "zeta")
    inner = rec.open("g", "cutting")
    rec.close(inner)
    rec.close(outer)
    assert [s.parent for s in rec.spans] == [None, outer]
    assert {s.job for s in rec.spans} == {"task7"}
    assert rec.spans[0].start <= rec.spans[1].start <= rec.spans[1].end <= rec.spans[0].end


def test_inclusive_time_counts_nested_calls_once():
    s = [_span("f", "x", 0, 10), _span("g", "x", 1, 5, 0), _span("f", "x", 2, 3, 1),
         _span("f", "x", 11, 12)]
    assert spans.inclusive_time(s, {"f"}) == 11
    assert spans.inclusive_time(s, {"f", "g"}) == 11
    assert spans.inclusive_time(s, {"g"}) == 4


def test_tail_is_the_highest_percentile_with_ten_samples_beyond():
    vals = list(range(1, 101))
    value, pct, n = report.tail(vals[::-1])
    assert (value, pct, n) == (90, 90.0, 100)
    assert sum(v > value for v in vals) == 10
    assert report.tail(range(1000))[:2] == (989, 99.0)
    value, pct, n = report.tail(range(11))
    assert value == 0 and sum(v > value for v in range(11)) == 10
    assert report.tail([5, 1, 3]) == (5, 100.0, 3)  # too few samples: the maximum


def test_digest_separates_exact_and_float_parts():
    from fractions import Fraction

    a = report.digest({"z": Fraction(1, 3), "x": 0.1, "_live": object()})
    b = report.digest({"z": Fraction(1, 3), "x": 0.1 + 1e-17 * 7})
    c = report.digest({"z": Fraction(2, 3), "x": 0.1})
    assert a[0] == b[0] and a[0] != c[0]
    assert a[1] == c[1] and a[1] != b[1]


class _RaisingStub:
    """A workload whose many-job task raises before its first job ends."""

    def run(self, task, clock):
        if task["id"] == "broken":
            raise TypeError("rho failed at the first point")
        return {"value": 1}

    def check(self, tasks, outputs):
        return {"checked": ["one check missed", "another check missed"]}


def test_a_task_that_raises_fails_every_job_it_holds():
    tasks = [{"id": "fine", "jobs": 3}, {"id": "checked", "jobs": 50},
             {"id": "broken", "jobs": 4096}]
    outcome = run.Outcome(_RaisingStub(), tasks, None)
    outcome.add(run.run_pass(outcome.workload, tasks, traced=False))
    assert outcome.attempted == 3 + 50 + 4096
    assert outcome.failed == 2 + 4096  # one per missed check, every job of the raiser


def test_run_seconds_converts_each_step_and_takes_its_median():
    ref = report.PROBE_REF_S
    passes = [run.Pass(traced=False) for _ in range(3)]
    # pass 1 ran in a phase twice as slow: its steps convert to pass 0's;
    # step t1[1] hit a hiccup in pass 2, which the median ignores
    passes[0].laps = {"t1": [(1.0, ref, ref), (2.0, ref, ref)], "t2": [(0.5, ref, ref)]}
    passes[1].laps = {"t1": [(2.0, 2 * ref, 2 * ref), (4.0, 2 * ref, 2 * ref)],
                      "t2": [(1.0, 2 * ref, 2 * ref)]}
    passes[2].laps = {"t1": [(1.5, ref, ref), (9.0, ref, ref)], "t2": [(0.6, ref, 3 * ref)]}
    assert run.run_seconds(passes) == pytest.approx(1.0 + 2.0 + 0.5)
    assert passes[1].step_seconds == 7.0


def test_workloads_without_rho_calls_report_no_query_latency():
    plain = run.Pass(traced=False)
    assert run.query_latency([plain])[0] == {"query.p50_us": 0.0, "query.tail_us": 0.0}


def test_declared_names_match_benchmark_json():
    assert [(m["name"], m["unit"]) for m in SPEC["end_to_end"]] == list(run.END_TO_END)
    assert [(m["name"], m["unit"]) for m in SPEC["per_layer"]] == list(run.PER_LAYER)
    assert tuple(w["name"] for w in SPEC["workloads"]) == run.WORKLOAD_NAMES


@pytest.mark.parametrize("trace", [0, 1])
def test_printed_metric_names_are_declared(trace):
    proc = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", "rho-queries", "--seed", "0",
         "--seconds", "1", "--trace", str(trace)],
        cwd=HERE.parent, capture_output=True, text=True, timeout=170)
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    declared = {m["name"]: m["unit"] for m in SPEC["per_layer" if trace else "end_to_end"]}
    assert {k: v["unit"] for k, v in result["metrics"].items()} == declared
    assert result["correct"] and result["failed"] == 0


def test_refuses_to_run_without_sources():
    proc = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", "rho-queries", "--seed", "0",
         "--seconds", "1", "--trace", "0"],
        cwd=HERE, capture_output=True, text=True, timeout=60)
    assert proc.returncode != 0 and proc.stdout == ""
