"""Pure, picklable experiment jobs.

One job = one (benchmark, config) cell of a suite sweep.  The run logic
is a set of module-level functions of only their arguments, so that

* the serial and pooled paths of :func:`repro.harness.pool.run_suite`
  execute the *same* code (the equality tests hold them to bit-identical
  cycles and counters), and
* a job can be pickled to a worker process and its outcome memoised in
  the content-addressed artifact cache.

Cache granularity is one *loop run*: all hot loops of a benchmark under
one config.  A benchmark cell needs two loop runs — its own config and
the canonical-baseline anchor that prices the serial (non-loop) cycles —
and the anchor is shared by every config of the same benchmark, so an
N-config sweep stores N+1 entries per benchmark, not 2N.

Below a cell, the unit of work is one hot loop: :func:`loop_tasks`
compiles a benchmark's loops into :class:`LoopTask` values,
:func:`run_task` simulates one, and :func:`run_loops` folds the two.
"""

from __future__ import annotations

import dataclasses
import time

import numpy as np

from repro.config import CompilerConfig, baseline_config
from repro.core.compiler import CompiledLoop, LoopCompiler
from repro.core.results import SERIAL_SPLIT, BenchmarkResult, LoopOutcome
from repro.hlo.profiles import BlockProfile, collect_block_profile
from repro.ir.loop import Loop
from repro.ir.printer import format_loop
from repro.machine.itanium2 import ItaniumMachine
from repro.sim.address import StreamSpec, stable_hash
from repro.sim.counters import PerfCounters
from repro.sim.executor import LoopRunResult, simulate_loop
from repro.workloads.spec import Benchmark

@dataclasses.dataclass(frozen=True)
class BenchmarkJob:
    """One pure unit of work: a benchmark under a configuration."""

    benchmark: Benchmark
    config: CompilerConfig
    machine: ItaniumMachine = dataclasses.field(default_factory=ItaniumMachine)
    seed: int = 2008
    #: run the repro.analysis translation validator on every compiled loop
    verify: bool = False
    #: trace every loop run and attach a stall-attribution summary
    trace: bool = False

    @property
    def key(self) -> tuple[str, str]:
        return (self.benchmark.name, self.config.label)


@dataclasses.dataclass
class LoopRunOutcome:
    """All hot loops of one benchmark simulated under one config.

    ``outcomes`` holds the per-loop compile artifacts when the run
    happened in this process, and is empty when served from the cache.
    """

    loop_cycles: float
    counters: PerfCounters
    outcomes: list[LoopOutcome] = dataclasses.field(default_factory=list)
    #: aggregate verifier findings (see :func:`aggregate_verification`),
    #: present when the run was executed/cached with ``verify=True``
    verification: dict | None = None
    #: merged per-loop trace summary (see
    #: :func:`repro.trace.merge_trace_summaries`), present when the run
    #: was executed/cached with ``trace=True``
    trace: dict | None = None


@dataclasses.dataclass
class JobOutcome:
    """A finished job: the result plus provenance for the run manifest.

    ``status`` is ``"ok"`` for a completed job; a job whose worker was
    reaped at its deadline comes back as ``status="timeout"`` with
    ``result=None`` (see :func:`repro.harness.pool.run_jobs`), so the
    rest of the sweep can complete and the manifest records the loss.
    """

    result: BenchmarkResult | None
    #: True when both loop runs (config + baseline anchor) came from cache
    cache_hit: bool
    duration_s: float
    #: translation-validation summary of the variant run (None: not asked)
    verification: dict | None = None
    #: stall-attribution summary of the variant run (None: not asked)
    trace: dict | None = None
    #: "ok" or "timeout"
    status: str = "ok"


def collect_profile(
    bench: Benchmark, loops: list[Loop], seed: int
) -> BlockProfile:
    """The PGO block profile from the benchmark's training inputs.

    ``loops`` are the hot loops the caller built from ``bench.loops``,
    in the same order.
    """
    dists = {
        loop.name: lw.data.train
        for loop, lw in zip(loops, bench.loops, strict=True)
    }
    return collect_block_profile(dists, seed=seed)


def sample_trips(bench: Benchmark, pos: int, seed: int) -> np.ndarray:
    """Per-invocation trip counts of ``bench``'s ``pos``-th hot loop.

    Drawn from the reference input with a stream seeded by the run seed,
    the loop's position and the benchmark name, so every config of one
    benchmark replays the same trips.
    """
    lw = bench.loops[pos]
    rng = np.random.default_rng(seed + pos * 977 + stable_hash(bench.name))
    return lw.data.ref.sample(rng, lw.invocations)


def aggregate_verification(
    reports: list, bounds: tuple[int, int] | None = None
) -> dict:
    """Fold per-loop :class:`~repro.analysis.DiagnosticReport` values into
    the compact, JSON-serialisable form stored in cache payloads, job
    outcomes and manifest cells.  ``bounds`` is the post-simulation
    SA5xx cross-check tally as ``(loops checked, loops violating)``."""
    codes: set[str] = set()
    errors = warnings = notes = 0
    for report in reports:
        counts = report.counts()
        errors += counts["error"]
        warnings += counts["warning"]
        notes += counts["note"]
        codes.update(report.codes())
    summary = {
        "ok": errors == 0,
        "loops": len(reports),
        "errors": errors,
        "warnings": warnings,
        "notes": notes,
        "codes": sorted(codes),
    }
    if bounds is not None:
        summary["bounds"] = {
            "checked": bounds[0], "violations": bounds[1]
        }
    return summary


@dataclasses.dataclass(frozen=True)
class LoopTask:
    """One hot loop of a benchmark, compiled and ready to simulate.

    Picklable, so a task compiled in one process replays to identical
    cycles in another.
    """

    compiled: CompiledLoop
    layout: dict[str, StreamSpec]
    #: per-invocation trip counts (see :func:`sample_trips`)
    trips: np.ndarray
    #: stream seed of the run
    seed: int


def loop_tasks(
    bench: Benchmark,
    config: CompilerConfig,
    machine: ItaniumMachine,
    seed: int,
) -> list[LoopTask]:
    """Compile every hot loop of ``bench`` under ``config``.

    Loops compile against the benchmark's training profile when the
    config uses PGO; each loop's run replays its reference trip counts
    at stream seed ``seed + pos``.
    """
    built = [lw.build() for lw in bench.loops]
    profile = (
        collect_profile(bench, [loop for loop, _ in built], seed)
        if config.pgo else None
    )
    compiler = LoopCompiler(machine, config)
    return [
        LoopTask(
            compiled=compiler.compile(loop, profile),
            layout=layout,
            trips=sample_trips(bench, pos, seed),
            seed=seed + pos,
        )
        for pos, (loop, layout) in enumerate(built)
    ]


def run_task(
    task: LoopTask, machine: ItaniumMachine, sink=None
) -> LoopRunResult:
    """Simulate one compiled loop over its trip counts."""
    return simulate_loop(
        task.compiled.result,
        machine,
        task.layout,
        task.trips,
        seed=task.seed,
        sink=sink,
    )


def run_loops(
    bench: Benchmark,
    config: CompilerConfig,
    machine: ItaniumMachine,
    seed: int,
    verify: bool = False,
    trace: bool = False,
) -> LoopRunOutcome:
    """Compile and simulate every hot loop of ``bench`` under ``config``.

    A fold of :func:`run_task` over :func:`loop_tasks`; pure in all
    arguments: same inputs, bit-identical outputs.  ``verify`` runs the
    :mod:`repro.analysis` translation validator on each compiled loop and
    fills :attr:`LoopRunOutcome.verification`.  ``trace`` attaches a
    streaming :class:`repro.trace.StallAttribution` sink to every loop
    simulation, closed-accounts it against that loop's fresh counters and
    cycle total, and fills :attr:`LoopRunOutcome.trace` with the merged
    summary.  Neither switch affects simulation results.
    """
    if trace:
        from repro.trace import (
            StallAttribution,
            check_closed_accounting,
            merge_trace_summaries,
            trace_summary,
        )
    if verify:
        from repro.analysis import check_simulation, verify_compiled
    total = 0.0
    counters = PerfCounters()
    outcomes: list[LoopOutcome] = []
    reports = []
    summaries: list[dict] = []
    bounds_checked = bounds_violations = 0
    for task in loop_tasks(bench, config, machine, seed):
        if verify:
            reports.append(verify_compiled(task.compiled))
        sink = StallAttribution() if trace else None
        sim = run_task(task, machine, sink)
        if verify:
            # post-simulation translation validation for *performance*:
            # the cell's raw counters must land inside the SA5xx static
            # interval derived before the run
            bound_report = check_simulation(
                task.compiled.result, machine, task.layout, task.trips,
                sim.counters, sim.cycles,
            )
            bounds_checked += 1
            if not bound_report.ok:
                bounds_violations += 1
            reports[-1].extend(bound_report)
        if sink is not None:
            # closed accounting holds per loop, against the loop's own
            # fresh counters (merged counters group additions differently)
            check = check_closed_accounting(sink, sim.counters, sim.cycles)
            summaries.append(trace_summary(sink, check))
        total += sim.cycles
        counters.merge(sim.counters)
        outcomes.append(
            LoopOutcome(
                compiled=task.compiled,
                cycles=sim.cycles,
                counters=sim.counters,
            )
        )
    return LoopRunOutcome(
        loop_cycles=total,
        counters=counters,
        outcomes=outcomes,
        verification=aggregate_verification(
            reports, bounds=(bounds_checked, bounds_violations)
        ) if verify else None,
        trace=merge_trace_summaries(summaries) if trace else None,
    )


def assemble_result(
    bench: Benchmark,
    config: CompilerConfig,
    loop_run: LoopRunOutcome,
    serial_cycles: float,
) -> BenchmarkResult:
    """Fold the serial (non-loop) cycles into a finished result."""
    counters = loop_run.counters
    for bucket, share in SERIAL_SPLIT.items():
        setattr(
            counters, bucket, getattr(counters, bucket) + serial_cycles * share
        )
    return BenchmarkResult(
        name=bench.name,
        suite=bench.suite,
        config_label=config.label,
        loop_cycles=loop_run.loop_cycles,
        serial_cycles=serial_cycles,
        counters=counters,
        loops=loop_run.outcomes,
    )


# --- cache keys ---------------------------------------------------------------

def _describe_memref(ref) -> dict:
    return {
        "name": ref.name,
        "pattern": ref.pattern.value,
        "size": ref.size,
        "stride": ref.stride,
        "offset": ref.offset,
        "is_fp": ref.is_fp,
        "space": ref.space,
        "index": ref.index_ref.name if ref.index_ref is not None else None,
    }


def _describe_distribution(dist) -> dict:
    return dataclasses.asdict(dist)


def describe_benchmark(bench: Benchmark) -> dict:
    """Canonical content description of a benchmark's hot loops."""
    loops = []
    for lw in bench.loops:
        loop, layout = lw.build()
        refs = {
            inst.memref.name: inst.memref
            for inst in loop.body
            if inst.memref is not None
        }
        loops.append({
            "ir": format_loop(loop),
            "counted": loop.counted,
            "independent_spaces": sorted(loop.independent_spaces),
            "memrefs": [
                _describe_memref(refs[name]) for name in sorted(refs)
            ],
            "layout": {
                name: dataclasses.asdict(spec)
                for name, spec in sorted(layout.items())
            },
            "train": _describe_distribution(lw.data.train),
            "ref": _describe_distribution(lw.data.ref),
            "invocations": lw.invocations,
            # the retired loop weight, at the 1.0 every loop had; kept so
            # every loop-run cache key minted before its removal still
            # addresses its entry
            "weight": 1.0,
        })
    return {
        "name": bench.name,
        "suite": bench.suite,
        "serial_factor": bench.serial_factor,
        "loops": loops,
    }


#: config fields that no longer exist, at the one value every cached run
#: had; restored into the key material so every loop-run cache key
#: minted before their removal still addresses its entry
RETIRED_CONFIG_FIELDS = {
    "scheduler": "heuristic",
    "optimal_budget": 200_000,
    "criticality_threshold": "min_ii",
    "budget_ratio": 10,
    "default_trip_estimate": 100.0,
    "prefetch_target_latency": 180,
}


def describe_config(config: CompilerConfig) -> dict:
    desc = dataclasses.asdict(config)
    desc["hint_policy"] = config.hint_policy.value
    desc.update(RETIRED_CONFIG_FIELDS)
    return desc


def describe_machine(machine: ItaniumMachine) -> dict:
    return {
        "name": machine.name,
        "description_digest": machine.digest(),
        "timings": dataclasses.asdict(machine.timings),
        "translation": dataclasses.asdict(machine.translation),
        "ozq_capacity": machine.ozq_capacity,
        "resources": {
            "capacities": {
                unit.name: cap
                for unit, cap in sorted(
                    machine.resources.capacities.items(),
                    key=lambda item: item[0].name,
                )
            },
            "issue_width": machine.resources.issue_width,
        },
        "registers": {
            rclass.name: dataclasses.asdict(rf)
            for rclass, rf in sorted(
                machine.register_files.items(), key=lambda item: item[0].name
            )
        },
    }


def loop_run_key(
    bench: Benchmark,
    config: CompilerConfig,
    machine: ItaniumMachine,
    seed: int,
    trace: bool = False,
) -> dict:
    """The key material addressing one loop run in the artifact cache."""
    material = {
        "kind": "loop-run",
        "benchmark": describe_benchmark(bench),
        "config": describe_config(config),
        "machine": describe_machine(machine),
        "seed": seed,
    }
    # traced runs address separate entries (their payloads carry the trace
    # summary); the key material is only extended when tracing, so every
    # pre-trace cache hash is preserved
    if trace:
        material["trace"] = True
    # RegClass enum keys serialise via their names above; RegisterFile
    # asdict contains an enum — flatten it to its value.
    for rf in material["machine"]["registers"].values():
        rf["rclass"] = rf["rclass"].value if hasattr(rf["rclass"], "value") else rf["rclass"]
    return material


# --- counter (de)serialisation ------------------------------------------------

def counters_to_dict(counters: PerfCounters) -> dict:
    """Lossless JSON form (floats round-trip exactly through ``repr``)."""
    data = dataclasses.asdict(counters)
    data["loads_by_level"] = {
        str(level): count for level, count in counters.loads_by_level.items()
    }
    return data


def counters_from_dict(data: dict) -> PerfCounters:
    data = dict(data)
    data["loads_by_level"] = {
        int(level): count for level, count in data["loads_by_level"].items()
    }
    return PerfCounters(**data)


# --- cached execution ---------------------------------------------------------

def cached_loop_run(
    bench: Benchmark,
    config: CompilerConfig,
    machine: ItaniumMachine,
    seed: int,
    cache=None,
    verify: bool = False,
    trace: bool = False,
) -> tuple[LoopRunOutcome, bool]:
    """A loop run served from ``cache`` when possible; ``(run, was_hit)``.

    Verification status rides along in the cache payload.  A hit written
    by a non-verifying run does not satisfy a ``verify=True`` request: the
    run is re-executed with verification and the payload upgraded in place
    (the cache key is unchanged — cycles and counters are bit-identical).
    Traced runs address *separate* cache entries (``trace`` is part of the
    key), so a cache hit always carries the trace summary and returns it
    byte-identical to a live run.
    """
    if cache is None:
        return run_loops(
            bench, config, machine, seed, verify=verify, trace=trace,
        ), False
    from repro.harness.cache import hash_key

    key = hash_key(loop_run_key(bench, config, machine, seed, trace=trace))
    payload = cache.get(key)
    # a hit written before the SA5xx bound checks existed lacks the
    # "bounds" tally; re-run and upgrade the payload in place, like a
    # non-verified hit under verify=True
    stale = verify and (
        payload is None
        or payload.get("verification") is None
        or "bounds" not in payload["verification"]
    )
    if payload is not None and not stale:
        return (
            LoopRunOutcome(
                loop_cycles=payload["loop_cycles"],
                counters=counters_from_dict(payload["counters"]),
                verification=payload.get("verification"),
                trace=payload.get("trace"),
            ),
            True,
        )
    run = run_loops(
        bench, config, machine, seed, verify=verify, trace=trace,
    )
    cache.put(key, {
        "benchmark": bench.name,
        "config": config.label,
        "loop_cycles": run.loop_cycles,
        "counters": counters_to_dict(run.counters),
        "verification": run.verification,
        "trace": run.trace,
    })
    return run, False


def run_job(job: BenchmarkJob, cache=None) -> JobOutcome:
    """Execute one (benchmark, config) cell, through the cache when given.

    The serial-cycle anchor is priced off the canonical baseline config
    and is itself a cacheable loop run shared by every config of the same
    benchmark.
    """
    start = time.perf_counter()
    bench = job.benchmark
    variant_run, variant_hit = cached_loop_run(
        bench, job.config, job.machine, job.seed, cache,
        verify=job.verify, trace=job.trace,
    )
    anchor_cfg = baseline_config()
    if job.config.label == anchor_cfg.label:
        anchor_run, anchor_hit = variant_run, variant_hit
    else:
        # the anchor is only priced, never reported: its own (benchmark,
        # baseline) cell carries the verification status for that config
        anchor_run, anchor_hit = cached_loop_run(
            bench, anchor_cfg, job.machine, job.seed, cache
        )
    serial = bench.serial_factor * anchor_run.loop_cycles
    result = assemble_result(bench, job.config, variant_run, serial)
    return JobOutcome(
        result=result,
        cache_hit=variant_hit and anchor_hit,
        duration_s=time.perf_counter() - start,
        verification=variant_run.verification,
        trace=variant_run.trace,
    )
