"""Each perfbench workload's first pass, run in this process, fails no job.

Pass 0 at seed 1 is checked by the workload's own checks and its exact
output digests are compared with perfbench/golden.json, as
``perfbench/run.py`` does; a change that breaks what the benchmark reads
(a tree attribute, a count, an exact output) fails here.  The float
digests are not compared: they may be stale.
"""

import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent.parent / "perfbench"
sys.path.insert(0, str(BENCH))

import run  # noqa: E402

SEED = 1


@pytest.mark.parametrize("name", run.WORKLOAD_NAMES)
def test_pass_zero_fails_no_job(name):
    workloads = run.import_workloads(run.find_source(BENCH.parent))
    workload = workloads.WORKLOADS[name]
    key = "any" if getattr(workload, "seed_free_outputs", False) else str(SEED)
    golden = run.load_golden()[name][key]
    tasks = workload.tasks(SEED)
    outcome = run.Outcome(workload, tasks, golden)
    outcome.add(run.run_pass(workload, tasks, traced=False))
    assert outcome.attempted > 0
    assert outcome.failed == 0, "\n".join(outcome.failures)
