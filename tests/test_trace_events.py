"""Tests for the trace event vocabulary and the sink zoo."""

from repro.config import CompilerConfig, baseline_config
from repro.ir import parse_loop
from repro.machine import ItaniumMachine
from repro.pipeliner import pipeline_loop
from repro.sim import prepare_execution, run_iterations
from repro.sim.address import StreamSpec, build_streams
from repro.sim.counters import PerfCounters
from repro.trace import (
    CacheFill,
    CaptureSink,
    CountingSink,
    LoadIssue,
    NullSink,
    OpIssue,
    RingBufferSink,
    TeeSink,
    TraceSink,
    UseStall,
)
from tests.conftest import RUNNING_EXAMPLE

LAYOUT = {
    "a": StreamSpec(size=1 << 22, reuse=False),
    "b": StreamSpec(size=1 << 22, reuse=False),
}


def simulate(sink, n=200):
    machine = ItaniumMachine()
    loop = parse_loop(RUNNING_EXAMPLE)
    result = pipeline_loop(loop, machine, baseline_config())
    setup = prepare_execution(result, machine)
    streams = build_streams(loop, LAYOUT, n)
    counters = PerfCounters()
    cycles = run_iterations(
        setup, streams, 0, n, machine.memory_system(), machine, counters,
        sink=sink,
    )
    return cycles, counters


class TestEventShape:
    def test_to_dict_carries_kind_and_fields(self):
        ev = LoadIssue(
            cycle=3.0, tag="l#0:ld4", slot=0, source_iter=7, ref="A",
            addr=128, level=4, latency=180.0, occupies_ozq=True,
        )
        d = ev.to_dict()
        assert d["kind"] == "load" and d["slot"] == 0 and d["addr"] == 128

    def test_all_sinks_satisfy_the_protocol(self):
        for sink in (NullSink(), CountingSink(), RingBufferSink(4),
                     CaptureSink(), TeeSink(NullSink())):
            assert isinstance(sink, TraceSink)


class TestSinks:
    def test_null_sink_wants_nothing(self):
        sink = NullSink()
        assert not (sink.wants_issues or sink.wants_uses
                    or sink.wants_stalls or sink.wants_memory)

    def test_counting_sink_counts_by_kind(self):
        sink = CountingSink()
        _, counters = simulate(sink, n=200)
        assert sink.total == sum(sink.counts.values()) > 0
        # each of the 3 ops issues exactly once per source iteration
        assert sink.counts["issue"] == 3 * 200
        assert sink.stall_cycles == counters.be_exe_bubble

    def test_ring_buffer_keeps_only_the_tail(self):
        full = CaptureSink()
        ring = RingBufferSink(16)
        simulate(full)
        simulate(ring)
        assert ring.total == len(full.events) > 16
        assert len(ring.events) == 16
        assert [e.to_dict() for e in ring.events] == [
            e.to_dict() for e in full.events[-16:]
        ]

    def test_capture_preserves_emission_order(self):
        sink = CaptureSink()
        simulate(sink)
        cycles = [e.cycle for e in sink.events]
        assert cycles == sorted(cycles)
        kinds = {e.kind for e in sink.events}
        assert {"issue", "load", "store"} <= kinds

    def test_tee_unions_interest_and_fans_out(self):
        counting = CountingSink()
        capture = CaptureSink()
        tee = TeeSink(counting, capture)
        assert tee.wants_issues and tee.wants_memory
        simulate(tee)
        assert counting.total == len(capture.events) > 0

    def test_tee_respects_member_interest(self):
        # a stall-only member must not see issue events
        class StallsOnly:
            wants_issues = False
            wants_uses = False
            wants_stalls = True
            wants_memory = False

            def __init__(self):
                self.kinds = set()

            def emit(self, event):
                self.kinds.add(event.kind)

        member = StallsOnly()
        simulate(TeeSink(member))
        assert member.kinds <= {"stall", "ozq-stall", "ozq-full"}


class TestZeroCostWhenOff:
    def test_null_sink_matches_no_sink_bit_exactly(self):
        cycles_off, counters_off = simulate(None)
        cycles_null, counters_null = simulate(NullSink())
        assert cycles_off == cycles_null
        assert counters_off == counters_null

    def test_tracing_does_not_change_results(self):
        cycles_off, counters_off = simulate(None)
        cycles_on, counters_on = simulate(CaptureSink())
        assert cycles_off == cycles_on
        assert counters_off == counters_on


class TestEventSemantics:
    def test_stall_events_sum_to_be_exe_bubble(self):
        sink = CaptureSink()
        _, counters = simulate(sink)
        stalls = [e for e in sink.events if isinstance(e, UseStall)]
        assert sum(e.wait for e in stalls) == counters.be_exe_bubble

    def test_issue_events_cover_every_source_iteration(self):
        sink = CaptureSink()
        simulate(sink, n=50)
        issues = [e for e in sink.events if isinstance(e, OpIssue)]
        loads = [e for e in issues if e.op_kind == "load"]
        assert sorted(e.source_iter for e in loads) == list(range(50))

    def test_every_access_is_preceded_by_its_cache_fill(self):
        """The interpreter emits each ``CacheFill`` directly before the
        issue event of the same access, with the same address, level and
        latency — and nothing else emits fills."""
        from repro.core.compiler import LoopCompiler
        from repro.harness.jobs import collect_profile
        from repro.sim import simulate_loop
        from repro.workloads import micro_suite

        machine = ItaniumMachine()
        config = CompilerConfig(trip_count_threshold=32)  # prefetching on
        seen = set()
        for bench in micro_suite():
            built = [lw.build() for lw in bench.loops]
            profile = collect_profile(
                bench, [loop for loop, _ in built], seed=2008
            )
            for loop, layout in built:
                compiled = LoopCompiler(machine, config).compile(loop, profile)
                sink = CaptureSink()
                simulate_loop(compiled.result, machine, layout, [60, 40],
                              seed=7, sink=sink)
                events = sink.events
                for pos, event in enumerate(events):
                    if event.kind not in ("load", "store", "prefetch"):
                        assert event.kind != "fill" or (
                            events[pos + 1].kind
                            in ("load", "store", "prefetch")
                        )
                        continue
                    fill = events[pos - 1]
                    assert isinstance(fill, CacheFill)
                    assert (fill.access, fill.cycle, fill.addr, fill.level,
                            fill.latency) == (event.kind, event.cycle,
                                              event.addr, event.level,
                                              event.latency)
                    seen.add(event.kind)
        assert seen == {"load", "store", "prefetch"}
