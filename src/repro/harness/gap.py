"""Heuristic-vs-optimal modulo-scheduling gap measurement.

The exact scheduler (:mod:`repro.pipeliner.optimal`) exists to answer
one question about the paper's iterative heuristic: *how far from
optimal is it?*  This module is the campaign that measures it.  Every
hot loop of the workload suites — and a seeded slice of fuzz-generated
loops — is compiled twice under the same configuration, once per
scheduler, both results run through the full translation validator
(SA1xx–SA6xx), and the per-loop gaps recorded:

* **II gap** — ``heuristic_ii − optimal_ii`` (and the ratio that feeds
  the geomean).  The optimality invariant ``optimal_ii ≤ heuristic_ii``
  is checked on every pair; the exact driver falls back to the
  heuristic schedule whenever the solver is capped or its schedule
  cannot be register-allocated, which makes the invariant structural.
* **stage-count gap** — extra pipeline fill/drain and predicate
  registers the heuristic pays at its II.
* **register gap** — total allocated registers (rotating + static,
  all classes).

Everything here is deterministic: the solver is budgeted in
branch-and-bound *nodes*, not wall-clock, and the report carries no
timestamps — ``fingerprint(report)`` is stable across runs, machines
and ``--jobs`` values, which is what lets CI regenerate the committed
``benchmarks/results/BENCH_optimal_gap.json`` and compare digests.

``tools/bench_optimal_gap.py`` is the CLI; ``tests/test_optimal_gap.py``
holds the tier-1 differential slice.
"""

from __future__ import annotations

import math
from functools import partial

from repro.harness.cache import hash_key
from repro.harness.pool import run_tasks
from repro.pipeliner.optimal import (
    DEFAULT_OPTIMAL_BUDGET,
    optimal_pipeline_loop,
)

#: profile seed shared with the benchmark harness (PGO training runs)
GAP_SEED = 2008
#: fuzz-corpus slice defaults (seed offset keeps clear of nightly ranges)
DEFAULT_FUZZ_CASES = 25
DEFAULT_FUZZ_SEED = 2008


def _registers_total(stats) -> int:
    return sum(stats.registers.values())


def _verify_summary(report) -> dict:
    counts = report.counts()
    return {
        "ok": report.ok,
        "errors": counts["error"],
        "codes": sorted(set(report.codes())),
    }


def _side(compiled, *, optimal: bool) -> dict:
    """One scheduler's half of a gap record, fully verified."""
    from repro.analysis import verify_compiled

    stats = compiled.stats
    side = {
        "pipelined": stats.pipelined,
        "ii": stats.ii,
        "res_ii": stats.res_ii,
        "rec_ii": stats.rec_ii,
        "stage_count": stats.stage_count if stats.pipelined else None,
        "registers": _registers_total(stats) if stats.pipelined else None,
        "verify": _verify_summary(verify_compiled(compiled)),
    }
    if optimal:
        side["status"] = stats.optimal_status
        side["lower_bound"] = stats.ii_lower_bound
        side["nodes"] = stats.solver_nodes
    return side


def _violations(record: dict) -> list[str]:
    """The invariants every (heuristic, optimal) pair must satisfy."""
    heur, opt = record["heuristic"], record["optimal"]
    out = []
    if not heur["verify"]["ok"]:
        out.append("heuristic schedule fails verification")
    if not opt["verify"]["ok"]:
        out.append("optimal schedule fails verification")
    if heur["pipelined"] and not opt["pipelined"]:
        out.append("heuristic pipelined but optimal scheduler did not")
    if heur["pipelined"] and opt["pipelined"]:
        if opt["ii"] > heur["ii"]:
            out.append("optimal II exceeds heuristic II")
        bound = opt["lower_bound"]
        if bound is not None and bound > opt["ii"]:
            out.append("certified lower bound exceeds achieved II")
        if opt["status"] == "optimal" and bound != opt["ii"]:
            out.append("claimed optimal but bound differs from achieved II")
    return out


def measure_loop(loop, machine, budget: int, profile=None) -> dict:
    """Compile ``loop`` with both schedulers; return the gap record."""
    from repro.core.compiler import LoopCompiler

    compiler = LoopCompiler(machine)
    exact = partial(optimal_pipeline_loop, budget=budget)
    record = {
        "loop": loop.name,
        "machine": machine.name,
        "heuristic": _side(compiler.compile(loop, profile), optimal=False),
        "optimal": _side(
            compiler.compile(loop, profile, pipeliner=exact), optimal=True
        ),
    }
    heur, opt = record["heuristic"], record["optimal"]
    if heur["pipelined"] and opt["pipelined"]:
        record["gaps"] = {
            "ii": heur["ii"] - opt["ii"],
            "ii_ratio": heur["ii"] / opt["ii"],
            "stages": heur["stage_count"] - opt["stage_count"],
            "registers": heur["registers"] - opt["registers"],
        }
    else:
        record["gaps"] = None
    record["violations"] = _violations(record)
    return record


def _run_gap_task(payload: dict) -> list[dict]:
    """Pool worker: one (benchmark | fuzz seed) × machine cell."""
    from repro.machine import build_machine

    machine = build_machine(payload["machine"])
    budget = payload["budget"]
    if payload["kind"] == "bench":
        from repro.harness.jobs import collect_profile
        from repro.workloads import benchmark_by_name

        bench = benchmark_by_name(payload["benchmark"])
        loops = [lw.build()[0] for lw in bench.loops]
        profile = collect_profile(bench, loops, payload["seed"])
        records = []
        for loop in loops:
            record = measure_loop(loop, machine, budget, profile)
            record["suite"] = bench.suite
            record["benchmark"] = bench.name
            records.append(record)
        return records
    from repro.fuzz import GenConfig, generate_loop

    loop = generate_loop(payload["seed"], GenConfig())
    record = measure_loop(loop, machine, budget)
    record["fuzz_seed"] = payload["seed"]
    return [record]


def _geomean(ratios: list[float]) -> float | None:
    if not ratios:
        return None
    return math.exp(sum(math.log(r) for r in ratios) / len(ratios))


def _machine_summary(records: list[dict]) -> dict:
    pairs = [r for r in records if r["gaps"] is not None]
    opt = [r["optimal"] for r in pairs]
    return {
        "loops": len(records),
        "pipelined_pairs": len(pairs),
        "proven_optimal": sum(1 for o in opt if o["status"] == "optimal"),
        "capped": sum(1 for o in opt if o["status"] == "capped"),
        "ii_gap_total": sum(r["gaps"]["ii"] for r in pairs),
        "ii_gap_max": max((r["gaps"]["ii"] for r in pairs), default=0),
        "ii_geomean_ratio": _geomean([r["gaps"]["ii_ratio"] for r in pairs]),
        "stage_gap_total": sum(r["gaps"]["stages"] for r in pairs),
        "register_gap_total": sum(r["gaps"]["registers"] for r in pairs),
        "solver_nodes": sum(o["nodes"] for o in opt),
        "violations": sum(len(r["violations"]) for r in records),
    }


def fingerprint(report: dict) -> str:
    """Content digest of a gap report (order-insensitive, no volatiles)."""
    return hash_key(
        {k: v for k, v in report.items() if k != "fingerprint"}
    )


def run_gap_campaign(
    suites: tuple[str, ...] = ("micro", "cpu2000", "cpu2006"),
    machines: tuple[str, ...] | None = None,
    budget: int = DEFAULT_OPTIMAL_BUDGET,
    seed: int = GAP_SEED,
    fuzz_cases: int = DEFAULT_FUZZ_CASES,
    fuzz_seed: int = DEFAULT_FUZZ_SEED,
    jobs: int = 1,
) -> dict:
    """The full campaign: suites × machines (+ fuzz slice), summarised.

    Results are independent of ``jobs`` — tasks return in submission
    order and each task is pure in its payload.
    """
    from repro.machine import machine_names
    from repro.workloads import suite_by_name

    names = tuple(machines) if machines else tuple(machine_names())
    payloads = []
    for machine in names:
        for suite in suites:
            for bench in suite_by_name(suite):
                payloads.append({
                    "kind": "bench",
                    "benchmark": bench.name,
                    "machine": machine,
                    "budget": budget,
                    "seed": seed,
                })
        for i in range(fuzz_cases):
            payloads.append({
                "kind": "fuzz",
                "seed": fuzz_seed + i,
                "machine": machine,
                "budget": budget,
            })
    results = run_tasks(_run_gap_task, payloads, workers=jobs)

    loops: list[dict] = []
    fuzz_loops: list[dict] = []
    for payload, records in zip(payloads, results):
        (loops if payload["kind"] == "bench" else fuzz_loops).extend(records)

    summary = {
        machine: {
            "suite": _machine_summary(
                [r for r in loops if r["machine"] == machine]
            ),
            "fuzz": _machine_summary(
                [r for r in fuzz_loops if r["machine"] == machine]
            ),
        }
        for machine in names
    }
    report = {
        "bench": "optimal_gap",
        "seed": seed,
        "budget": budget,
        "suites": list(suites),
        "machines": list(names),
        "fuzz": {"cases": fuzz_cases, "seed": fuzz_seed},
        "loops": loops,
        "fuzz_loops": fuzz_loops,
        "summary": summary,
        "violations": sum(
            len(r["violations"]) for r in loops + fuzz_loops
        ),
    }
    report["fingerprint"] = fingerprint(report)
    return report


def harvestable(record: dict) -> bool:
    """Is this fuzz case worth committing to the regression corpus?

    A gap of more than one II cycle means the heuristic left real
    schedule quality on the table; a capped solve is a hard instance
    for the exact scheduler itself.  Both are the cases the corpus
    should pin (see :mod:`repro.fuzz.gapharvest`).
    """
    gaps = record.get("gaps")
    if gaps is not None and gaps["ii"] > 1:
        return True
    return record["optimal"].get("status") == "capped"
