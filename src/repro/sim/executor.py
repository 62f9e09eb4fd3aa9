"""Whole-loop simulation across invocations.

:func:`simulate_loop` is the one driver that runs a compiled loop over a
list of per-invocation trip counts; trip-count versioning and miss
sampling (the Sec. 6 outlook extensions) run through it too.  It adds the
per-invocation fixed costs around the kernel (Sec. 2.2/4.5):

* prolog/epilog spill and fill instructions from static register pressure;
* register stack engine (RSE) traffic proportional to the stacked frame —
  "a side effect of the increased number of allocated stacked registers,
  which are automatically spilled and filled by this hardware engine";
* a pipeline flush at loop exit (the back-edge misprediction) and a small
  front-end refill.

Cache and TLB state persist across invocations of the same loop, so
short-trip loops with temporal reuse (the h264ref/gobmk scenarios) run
warm, exactly the situation where boosting latencies buys nothing.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.machine.itanium2 import ItaniumMachine
from repro.pipeliner.driver import PipelineResult
from repro.sim.address import LoopStreams, StreamSpec, build_streams
from repro.sim.core import ExecutionSetup, prepare_execution, run_iterations
from repro.sim.counters import PerfCounters
from repro.sim.memory import MemorySystem

#: cycles of RSE activity per stacked register per invocation
RSE_CYCLES_PER_REG = 0.20
#: pipeline flush on loop exit (back-edge misprediction)
FLUSH_CYCLES = 8.0
#: front-end refill after the flush
FRONTEND_CYCLES = 4.0
#: cycles per spill/fill instruction pair in prolog/epilog
SPILL_CYCLES = 3.0
#: cycles of the runtime trip-count test + branch selecting the version
VERSION_CHECK_CYCLES = 2.0
#: distinct lines the pre-warm installs at most
_PREWARM_MAX_LINES = 250_000


@dataclass
class LoopRunResult:
    """Aggregate outcome of simulating one loop workload."""

    loop_name: str
    cycles: float
    counters: PerfCounters
    invocations: int
    total_iterations: int

    @property
    def cycles_per_iteration(self) -> float:
        return self.cycles / max(1, self.total_iterations)


def simulate_loop(
    result: PipelineResult,
    machine: ItaniumMachine,
    layout: dict[str, StreamSpec],
    trip_counts: list[int] | np.ndarray,
    seed: int = 11,
    sink=None,
    *,
    fallback: PipelineResult | None = None,
    threshold: int = 0,
) -> LoopRunResult:
    """Run a compiled loop for the given per-invocation trip counts.

    The run starts from a fresh ``machine.memory_system()``.  ``sink``
    (a :class:`repro.trace.events.TraceSink`) receives the structured
    event stream of the invocations; the cache pre-warm emits nothing,
    so one-time warm-up fills stay out of traces.  ``sink=None`` keeps
    the run event-free and bit-identical to an untraced one.

    ``fallback`` makes the run trip-count versioned: invocations of
    fewer than ``threshold`` iterations execute the ``fallback`` kernel
    instead of ``result``, and every invocation pays
    :data:`VERSION_CHECK_CYCLES` for the runtime test.  Both kernels
    share one memory system, which is pre-warmed from ``result``'s
    streams.
    """
    counters = PerfCounters()
    memory = machine.memory_system()
    trips = [int(t) for t in trip_counts]
    primary = _lower(result, machine, layout, trips, seed)
    _prewarm_resident_regions(result, layout, primary[1], memory)
    if fallback is not None:
        secondary = _lower(fallback, machine, layout, trips, seed)

    cycle = 0.0
    running_base = 0
    for n in trips:
        if fallback is None:
            lowered = primary
            cycle += _invocation_overhead(result, counters)
        else:
            version, lowered = (
                (result, primary) if n >= threshold else (fallback, secondary)
            )
            cycle += (
                _invocation_overhead(version, counters) + VERSION_CHECK_CYCLES
            )
            counters.unstalled += VERSION_CHECK_CYCLES
        setup, streams, restart_uids = lowered
        cycle = run_iterations(
            setup, streams, running_base, n, memory, machine, counters,
            cycle, sink, restart_uids=restart_uids,
        )
        running_base += n
        counters.invocations += 1

    return LoopRunResult(
        loop_name=result.loop.name,
        cycles=cycle,
        counters=counters,
        invocations=len(trips),
        total_iterations=sum(trips),
    )


def _lower(
    result: PipelineResult,
    machine: ItaniumMachine,
    layout: dict[str, StreamSpec],
    trips: list[int],
    seed: int,
) -> tuple[ExecutionSetup, LoopStreams, set[int]]:
    """The execution setup, the address streams and the restarting refs
    of one compiled loop run for ``trips``."""
    setup = prepare_execution(result, machine)
    # streams for reused spaces are indexed from 0 each invocation, so the
    # array only needs max(trips); streaming spaces need the running total
    stream_len = max(sum(trips), max(trips) if trips else 0)
    streams = build_streams(result.loop, layout, stream_len, seed=seed)
    # split shared stream table into reuse (restarting) vs streaming refs
    reuse_spaces = {s for s, spec in layout.items() if spec.reuse}
    restart_uids = {
        inst.memref.uid
        for inst in result.loop.body
        if inst.memref is not None and inst.memref.space in reuse_spaces
    }
    return setup, streams, restart_uids


def _invocation_overhead(result: PipelineResult, counters: PerfCounters) -> float:
    """Charge one invocation's fixed costs; returns their cycles."""
    static = result.static
    spills = static.spills if static is not None else 0
    stacked = static.stacked_frame if static is not None else 8
    overhead = 0.0
    if spills:
        overhead += spills * SPILL_CYCLES
        counters.spill_instructions += 2 * spills
    rse = stacked * RSE_CYCLES_PER_REG
    counters.be_rse_bubble += rse
    counters.be_flush_bubble += FLUSH_CYCLES
    counters.back_end_bubble_fe += FRONTEND_CYCLES
    counters.unstalled += overhead
    return overhead + rse + FLUSH_CYCLES + FRONTEND_CYCLES


def _prewarm_resident_regions(
    result: PipelineResult,
    layout: dict[str, StreamSpec],
    streams: LoopStreams,
    memory: MemorySystem,
) -> None:
    """Pre-touch reused regions so they start cache-resident.

    Spaces with ``reuse=True`` model data the program revisits across
    invocations (lookup tables, small blocks, board state); in steady
    state those are warm, and measuring their one-time cold fill would
    swamp the per-iteration behaviour the experiments compare.  Streaming
    spaces (``reuse=False``) stay cold, as in reality.
    """
    line = memory.l2.geometry.line_size
    seen: set[int] = set()
    for inst in result.loop.body:
        ref = inst.memref
        if ref is None:
            continue
        spec = layout.get(ref.space)
        if spec is None or not spec.reuse:
            continue
        stream = streams.by_ref.get(ref.uid)
        if stream is None:
            continue
        for addr in np.unique(stream // line):
            if addr in seen or len(seen) >= _PREWARM_MAX_LINES:
                continue
            seen.add(int(addr))
            memory.load(int(addr) * line, now=-1e9, is_fp=ref.is_fp)
