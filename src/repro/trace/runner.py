"""High-level tracing entry points.

:func:`trace_simulation` runs a compiled loop through the simulator with
a capture sink and the streaming stall-attribution analyzer teed
together, then verifies closed accounting against the run's counters.
:func:`trace_summary` condenses an analyzer into the compact, JSON-
round-trippable dict the harness records per manifest cell and stores in
the artifact cache; :func:`merge_trace_summaries` folds the per-loop
summaries of a benchmark into one cell summary.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.machine.itanium2 import ItaniumMachine
from repro.pipeliner.driver import PipelineResult
from repro.sim.address import StreamSpec
from repro.sim.executor import LoopRunResult, simulate_loop
from repro.trace.attribution import (
    AccountingCheck,
    StallAttribution,
    check_closed_accounting,
)
from repro.trace.events import (
    CaptureSink,
    RingBufferSink,
    TeeSink,
    TraceEvent,
)


@dataclass
class TraceResult:
    """A traced simulation: the run, the events, and the roll-up."""

    run: LoopRunResult
    events: list[TraceEvent]
    attribution: StallAttribution
    check: AccountingCheck
    #: total events emitted (>= len(events) when a ring buffer dropped)
    total_events: int


def trace_simulation(
    result: PipelineResult,
    machine: ItaniumMachine,
    layout: dict[str, StreamSpec],
    trip_counts: list[int] | np.ndarray,
    *,
    seed: int = 11,
    ring: int | None = None,
) -> TraceResult:
    """Simulate ``result`` with full tracing and closed accounting.

    ``ring`` bounds event capture to the last N events (flight-recorder
    mode); the attribution analyzer always sees the complete stream, so
    the per-load reports and accounting stay exact either way.
    """
    capture = RingBufferSink(ring) if ring else CaptureSink()
    attribution = StallAttribution()
    sink = TeeSink(capture, attribution)
    run = simulate_loop(
        result, machine, layout, trip_counts, seed=seed, sink=sink
    )
    check = check_closed_accounting(attribution, run.counters, run.cycles)
    return TraceResult(
        run=run,
        events=capture.events,
        attribution=attribution,
        check=check,
        total_events=capture.total,
    )


# --- compact summaries (manifest cells / cache payloads) ----------------------

def trace_summary(
    attribution: StallAttribution, check: AccountingCheck
) -> dict:
    """The compact cell summary: totals, coverage, clustering, status.

    Every value is JSON-native (str keys, ints, floats), so a summary
    loaded back from a cache payload or a manifest compares equal to the
    in-process one — the property the harness determinism tests pin.
    """
    return {
        "ok": check.ok,
        "failures": list(check.failures),
        "events": attribution.events,
        "loops": 1,
        "sites": len(attribution.sites),
        # plain floats: numpy scalars leaking in from the address streams
        # would not round-trip through the JSON cache layer unchanged
        "stall_on_use": float(attribution.stall_on_use_total),
        "ozq_stall": float(attribution.ozq_stall_total),
        "ozq_full": float(attribution.ozq_full_total),
        "coverage": float(attribution.coverage),
        "mean_clustering": float(attribution.mean_clustering),
        "clustering": {
            str(k): n for k, n in sorted(attribution.clustering.items())
        },
        "prefetches_issued": attribution.prefetches_issued,
        "prefetches_dropped": attribution.prefetches_dropped,
    }


def merge_trace_summaries(summaries: list[dict]) -> dict:
    """Fold per-loop summaries into one benchmark-cell summary.

    Sums are added; ``coverage`` and ``mean_clustering`` are re-derived
    as stall-weighted/latency-weighted means are not reconstructible from
    the compact form, so the merged values are the event-weighted means —
    documented in docs/trace.md.
    """
    if not summaries:
        return {"ok": True, "failures": [], "events": 0, "loops": 0,
                "sites": 0, "stall_on_use": 0.0, "ozq_stall": 0.0,
                "ozq_full": 0.0, "coverage": 1.0, "mean_clustering": 0.0,
                "clustering": {}, "prefetches_issued": 0,
                "prefetches_dropped": 0}
    out = {
        "ok": all(s["ok"] for s in summaries),
        "failures": [f for s in summaries for f in s["failures"]],
        "events": sum(s["events"] for s in summaries),
        "loops": sum(s["loops"] for s in summaries),
        "sites": sum(s["sites"] for s in summaries),
        "stall_on_use": float(sum(s["stall_on_use"] for s in summaries)),
        "ozq_stall": float(sum(s["ozq_stall"] for s in summaries)),
        "ozq_full": float(sum(s["ozq_full"] for s in summaries)),
        "prefetches_issued": sum(s["prefetches_issued"] for s in summaries),
        "prefetches_dropped": sum(s["prefetches_dropped"] for s in summaries),
    }
    clustering: dict[str, int] = {}
    for s in summaries:
        for k, n in s["clustering"].items():
            clustering[k] = clustering.get(k, 0) + n
    out["clustering"] = {k: clustering[k] for k in sorted(clustering, key=int)}
    stalls = sum(sum(s["clustering"].values()) for s in summaries)
    out["mean_clustering"] = float(
        sum(s["mean_clustering"] * sum(s["clustering"].values())
            for s in summaries) / stalls
        if stalls else 0.0
    )
    weights = sum(s["events"] for s in summaries)
    out["coverage"] = float(
        sum(s["coverage"] * s["events"] for s in summaries) / weights
        if weights else 1.0
    )
    return out


# --- text rendering -----------------------------------------------------------

def render_attribution_text(attribution: StallAttribution) -> str:
    """The per-load stall/coverage table plus the clustering histogram."""
    lines = []
    sites = sorted(
        attribution.sites.values(),
        key=lambda s: (-s.stall_cycles, s.tag),
    )
    total_stall = attribution.stall_on_use_total
    lines.append(
        f"stall attribution: {total_stall:,.0f} stall-on-use cycles "
        f"over {len(sites)} load site(s)"
    )
    if sites:
        width = max(len(s.tag) for s in sites) + 2
        lines.append(
            f"  {'site':<{width}}{'loads':>8}{'lat(avg)':>10}"
            f"{'coverage':>10}{'stall cyc':>12}{'share':>8}"
        )
        for s in sites:
            share = 100.0 * s.stall_cycles / total_stall if total_stall else 0.0
            lines.append(
                f"  {s.tag:<{width}}{s.instances:>8}{s.mean_latency:>10.1f}"
                f"{100.0 * s.coverage:>9.1f}%{s.stall_cycles:>12.0f}"
                f"{share:>7.1f}%"
            )
    lines.append(
        f"OzQ: {attribution.ozq_stall_total:,.0f} issue-stall cycles, "
        f"{attribution.ozq_full_total:,.0f} cycles at capacity"
    )
    if attribution.prefetches_issued or attribution.prefetches_dropped:
        lines.append(
            f"prefetches: {attribution.prefetches_issued} issued, "
            f"{attribution.prefetches_dropped} dropped"
        )
    if attribution.clustering:
        lines.append(
            "clustering (k = misses in flight at each stall, Sec. 2.1):"
        )
        for k in sorted(attribution.clustering):
            n = attribution.clustering[k]
            cycles = attribution.clustering_cycles.get(k, 0.0)
            lines.append(
                f"  k={k:<3} {n:>8} stall(s) {cycles:>12,.0f} cycles"
            )
        lines.append(
            f"  mean k = {attribution.mean_clustering:.2f} "
            f"(cycle-weighted)"
        )
    lines.append(
        f"measured latency coverage: {100.0 * attribution.coverage:.1f}%"
    )
    return "\n".join(lines)
