"""Tests for whole-loop simulation across invocations."""

import numpy as np
import pytest

from repro.config import CompilerConfig, baseline_config
from repro.core.compiler import LoopCompiler
from repro.sim import (
    build_streams,
    prepare_execution,
    run_iterations,
    simulate_loop,
)
from repro.sim.counters import PerfCounters
from repro.sim.executor import FLUSH_CYCLES, FRONTEND_CYCLES
from repro.workloads.loops import low_trip_linear, pointer_chase, stream_int


def _compile(loop, machine, cfg=None):
    return LoopCompiler(machine, cfg or baseline_config()).compile(loop).result


class TestSimulateLoop:
    def test_basic_run(self, machine):
        loop, layout = stream_int("s", streams=1)
        loop.trip_count.estimate = 500.0
        result = _compile(loop, machine)
        run = simulate_loop(result, machine, layout, [500, 500])
        assert run.invocations == 2
        assert run.total_iterations == 1000
        assert run.cycles > 1000  # at least II per iteration
        assert run.counters.total_cycles == pytest.approx(run.cycles, rel=0.01)

    def test_per_invocation_overheads(self, machine):
        loop, layout = low_trip_linear("h")
        loop.trip_count.estimate = 10.0
        result = _compile(loop, machine)
        one = simulate_loop(result, machine, layout, [10])
        many = simulate_loop(result, machine, layout, [10] * 5)
        assert many.counters.be_flush_bubble == pytest.approx(
            5 * FLUSH_CYCLES
        )
        assert many.counters.back_end_bubble_fe == pytest.approx(
            5 * FRONTEND_CYCLES
        )
        assert many.counters.be_rse_bubble > one.counters.be_rse_bubble

    def test_prewarm_makes_resident_loops_stall_free(self, machine):
        loop, layout = low_trip_linear("h", working_set=8 * 1024)
        loop.trip_count.estimate = 10.0
        result = _compile(loop, machine)
        run = simulate_loop(result, machine, layout, [10] * 20)
        # data is L1-resident and prewarmed: essentially no memory stalls
        assert run.counters.be_exe_bubble < 50

    def test_streaming_spaces_stay_cold(self, machine):
        loop, layout = stream_int("s", streams=1, working_set=64 << 20)
        loop.trip_count.estimate = 1000.0
        result = _compile(loop, machine, baseline_config().with_(prefetch=False))
        run = simulate_loop(result, machine, layout, [1000])
        assert run.counters.loads_by_level.get(4, 0) > 0
        assert run.counters.be_exe_bubble > 1000

    def test_cache_state_persists_across_invocations(self, machine):
        """Two invocations over one memory system, without the pre-warm:
        the second rereads the reused space from the caches the first
        filled, so it hits more and runs faster."""
        loop, layout = stream_int("s", streams=1, working_set=32 * 1024,
                                  reuse=True)
        loop.trip_count.estimate = 100.0
        result = _compile(loop, machine, baseline_config().with_(prefetch=False))
        setup = prepare_execution(result, machine)
        streams = build_streams(result.loop, layout, 200)
        # the one space is reused: every reference restarts at position 0
        restart_uids = {
            inst.memref.uid
            for inst in result.loop.body
            if inst.memref is not None
        }
        assert restart_uids
        memory = machine.memory_system()
        first, second = PerfCounters(), PerfCounters()
        end1 = run_iterations(setup, streams, 0, 100, memory, machine, first,
                              restart_uids=restart_uids)
        end2 = run_iterations(setup, streams, 100, 100, memory, machine,
                              second, end1, restart_uids=restart_uids)

        def near_hits(counters):
            levels = counters.loads_by_level
            return levels.get(1, 0) + levels.get(2, 0)

        assert near_hits(second) > near_hits(first)
        assert first.loads_by_level.get(4, 0) > 0
        assert second.loads_by_level.get(4, 0) == 0
        assert end2 - end1 < end1

    def test_deterministic(self, machine):
        loop, layout = pointer_chase("m", heap=1 << 20)
        loop.trip_count.estimate = 3.0
        result = _compile(loop, machine)
        a = simulate_loop(result, machine, layout, [3] * 20, seed=9)
        loop2, layout2 = pointer_chase("m", heap=1 << 20)
        loop2.trip_count.estimate = 3.0
        result2 = _compile(loop2, machine)
        b = simulate_loop(result2, machine, layout2, [3] * 20, seed=9)
        assert a.cycles == b.cycles

    def test_non_pipelined_fallback_executes(self, machine):
        from repro.hlo.profiles import TripDistribution, collect_block_profile

        loop, layout = low_trip_linear("h")
        profile = collect_block_profile(
            {loop.name: TripDistribution(kind="constant", mean=1)}
        )  # below the pipelining gate
        compiled = LoopCompiler(machine, baseline_config()).compile(
            loop, profile
        )
        assert not compiled.pipelined
        run = simulate_loop(compiled.result, machine, layout, [2] * 10)
        assert run.cycles > 0
        assert run.counters.kernel_iterations == 20

    def test_cycles_per_iteration(self, machine):
        loop, layout = stream_int("s", streams=1, working_set=8 * 1024,
                                  reuse=True)
        loop.trip_count.estimate = 200.0
        result = _compile(loop, machine)
        run = simulate_loop(result, machine, layout, [200])
        assert run.cycles_per_iteration >= result.stats.ii
