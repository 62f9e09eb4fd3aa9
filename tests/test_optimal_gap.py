"""Tier-1 differential slice: heuristic vs exact scheduler, every loop.

The exhaustive cross-machine campaign lives in
``tools/bench_optimal_gap.py``; this is the slice tier-1 holds forever:
on ``itanium2``, every hot loop of all three workload suites and every
corpus reproducer compiles under both schedulers, the optimality
invariant ``optimal_ii <= heuristic_ii`` holds, both schedules pass the
full SA1xx–SA6xx translation validator, and the campaign's report is
byte-deterministic across repeated runs and worker counts.
"""

import json
from pathlib import Path

import pytest

from repro.harness.gap import measure_loop, run_gap_campaign
from repro.harness.jobs import collect_profile
from repro.ir import parse_loop
from repro.machine import build_machine
from repro.workloads import suite_by_name

MACHINE = build_machine("itanium2")
SUITES = ("micro", "cpu2000", "cpu2006")
SEED = 2008
BUDGET = 200_000

CORPUS = sorted((Path(__file__).parent / "corpus").glob("*.loop"))

_BENCHES = [
    (suite, bench)
    for suite in SUITES
    for bench in suite_by_name(suite)
]


def assert_clean_pair(record, context):
    assert record["violations"] == [], (context, record["violations"])
    heur, opt = record["heuristic"], record["optimal"]
    assert heur["verify"]["ok"], (context, heur["verify"])
    assert opt["verify"]["ok"], (context, opt["verify"])
    if record["gaps"] is not None:
        assert opt["ii"] <= heur["ii"], context
        assert opt["status"] in ("optimal", "capped")
        if opt["status"] == "optimal":
            assert opt["lower_bound"] == opt["ii"], context


@pytest.mark.parametrize(
    "suite,bench", _BENCHES, ids=[f"{s}-{b.name}" for s, b in _BENCHES]
)
def test_every_suite_loop_pair_is_clean(suite, bench):
    loops = [lw.build()[0] for lw in bench.loops]
    profile = collect_profile(bench, loops, SEED)
    for loop in loops:
        record = measure_loop(loop, MACHINE, BUDGET, profile)
        assert_clean_pair(record, f"{suite}/{bench.name}/{loop.name}")


def test_suite_loops_all_proven_optimal():
    """On itanium2 the default budget proves optimality for every
    pipelined suite loop — the committed BENCH report's headline."""
    for suite, bench in _BENCHES:
        loops = [lw.build()[0] for lw in bench.loops]
        profile = collect_profile(bench, loops, SEED)
        for loop in loops:
            record = measure_loop(loop, MACHINE, BUDGET, profile)
            if record["gaps"] is not None:
                assert record["optimal"]["status"] == "optimal", (
                    suite, bench.name, loop.name, record["optimal"]
                )


@pytest.mark.parametrize("path", CORPUS, ids=lambda p: p.stem)
def test_corpus_pair_is_clean(path):
    loop = parse_loop(path.read_text(encoding="utf-8"))
    record = measure_loop(loop, MACHINE, BUDGET)
    assert_clean_pair(record, path.stem)


class TestDeterminism:
    def campaign(self, jobs):
        return run_gap_campaign(
            suites=("micro",), machines=("itanium2",),
            fuzz_cases=3, jobs=jobs,
        )

    def test_repeated_runs_are_byte_identical(self):
        a, b = self.campaign(jobs=1), self.campaign(jobs=1)
        assert json.dumps(a, sort_keys=True) == json.dumps(b, sort_keys=True)
        assert a["fingerprint"] == b["fingerprint"]

    def test_worker_count_does_not_change_the_report(self):
        serial, pooled = self.campaign(jobs=1), self.campaign(jobs=2)
        assert json.dumps(serial, sort_keys=True) == json.dumps(
            pooled, sort_keys=True
        )


def test_committed_report_claims_hold():
    """The committed BENCH report has zero violations and proves every
    pipelined itanium2 suite pair optimal (its fingerprint is re-checked
    end to end by the CI optimal-smoke job)."""
    committed = json.loads(
        (Path(__file__).parent.parent / "benchmarks" / "results"
         / "BENCH_optimal_gap.json").read_text()
    )
    assert committed["violations"] == 0
    summary = committed["summary"]["itanium2"]["suite"]
    assert summary["proven_optimal"] == summary["pipelined_pairs"]
    assert summary["violations"] == 0
