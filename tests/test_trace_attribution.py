"""Tests for stall attribution and the closed-accounting invariant.

The fixed-latency memory makes stalls exactly predictable (the Sec. 2.1
setup of ``test_sim_core``), so per-site attribution, coverage and the
clustering histogram can be checked against known values — and closed
accounting is pinned on real workloads across configs.
"""

import pytest

from repro.config import CompilerConfig, baseline_config
from repro.harness.jobs import collect_profile
from repro.ir import parse_loop
from repro.machine import ItaniumMachine
from repro.machine.description import ITANIUM2
from repro.pipeliner import pipeline_loop
from repro.sim import prepare_execution, run_iterations, simulate_loop
from repro.sim.address import StreamSpec, build_streams
from repro.sim.counters import PerfCounters
from repro.sim.memory import MemorySystem
from repro.trace import (
    CaptureSink,
    StallAttribution,
    TeeSink,
    check_closed_accounting,
    trace_simulation,
)
from repro.workloads import micro_suite
from tests.conftest import RUNNING_EXAMPLE


class FixedLatencyMemory(MemorySystem):
    """Every load takes exactly ``latency`` cycles; stores are free."""

    def __init__(self, latency: float) -> None:
        super().__init__(ITANIUM2)
        self.fixed = float(latency)

    def load(self, addr, now, is_fp=False):
        return (self.fixed, 3, True)

    def store(self, addr, now, is_fp=False):
        return (1.0, 2, False)

    def prefetch(self, addr, now, l2_only=False, is_fp=False):
        return (0.0, 1, False)


LAYOUT = {
    "a": StreamSpec(size=1 << 20, reuse=False),
    "b": StreamSpec(size=1 << 20, reuse=False),
}


def run_attributed(latency, n=400, d_extra=0):
    machine = ItaniumMachine()
    loop = parse_loop(RUNNING_EXAMPLE)
    if d_extra > 0:
        from repro.ir.memref import LatencyHint
        from repro.machine.hints import HintTranslation

        loop.body[0].memref.hint = LatencyHint.L2
        machine = machine.with_translation(
            HintTranslation(name="x", l2=1 + d_extra, max_scheduled=100)
        )
        config = CompilerConfig(trip_count_threshold=0, prefetch=False)
    else:
        config = baseline_config()
    result = pipeline_loop(loop, machine, config)
    assert result.pipelined and result.ii == 1
    setup = prepare_execution(result, machine)
    streams = build_streams(loop, LAYOUT, n)
    counters = PerfCounters()
    attribution = StallAttribution()
    cycles = run_iterations(
        setup, streams, 0, n, FixedLatencyMemory(latency), machine,
        counters, sink=attribution,
    )
    return cycles, counters, attribution


class TestPerSiteAttribution:
    def test_all_stalls_attributed_to_the_single_load(self):
        cycles, counters, attr = run_attributed(latency=12.0)
        assert counters.be_exe_bubble > 0
        assert attr.stall_on_use_total == counters.be_exe_bubble
        assert attr.unattributed_stall == 0.0
        assert list(attr.sites) == ["copy_add#0:ld4"]
        site = attr.sites["copy_add#0:ld4"]
        assert site.stall_cycles == counters.be_exe_bubble
        assert site.instances == 400
        assert site.mean_latency == 12.0

    def test_consumer_tagging(self):
        _, _, attr = run_attributed(latency=12.0)
        # the add consumes the load's value; it takes all the stalls
        assert list(attr.stall_by_consumer) == ["copy_add#1:add"]

    def test_every_instance_used_exactly_once(self):
        _, _, attr = run_attributed(latency=12.0, n=250)
        site = attr.sites["copy_add#0:ld4"]
        assert site.used == 250
        assert site.stalled_uses + (site.used - site.stalled_uses) == 250


class TestCoverage:
    def test_fully_covered_when_latency_fits_the_schedule(self):
        # latency 1 always completes before the next-cycle use
        _, counters, attr = run_attributed(latency=1.0)
        assert counters.be_exe_bubble == 0.0
        assert attr.coverage == 1.0
        site = attr.sites["copy_add#0:ld4"]
        assert site.stalled_uses == 0

    def test_partial_coverage_matches_residual_wait(self):
        _, _, attr = run_attributed(latency=12.0)
        site = attr.sites["copy_add#0:ld4"]
        # every stall here is a first-use stall (single consumer), so the
        # covered latency is the total latency minus the residual waits:
        # coverage = 1 - stall_cycles / (latency * used)
        assert site.coverage == pytest.approx(
            1.0 - site.stall_cycles / (12.0 * site.used)
        )
        assert 0.0 < site.coverage < 1.0
        # clustering means only every k-th instance stalls
        assert 0 < site.stalled_uses < site.used
        assert 0.0 < attr.coverage < 1.0


class TestClustering:
    def test_histogram_counts_every_stall(self):
        _, _, attr = run_attributed(latency=30.0)
        site = attr.sites["copy_add#0:ld4"]
        assert sum(attr.clustering.values()) == site.stalled_uses
        assert sum(attr.clustering_cycles.values()) == pytest.approx(
            attr.stall_on_use_total
        )

    def test_mean_k_grows_with_scheduled_distance(self):
        # k is set by the *scheduled* use distance (Equ. 3), not by the
        # runtime latency: boosting the hint moves the use further out and
        # every stall then shadows more in-flight instances
        _, _, near = run_attributed(latency=60.0)
        _, _, far = run_attributed(latency=60.0, d_extra=8)
        assert far.mean_clustering > near.mean_clustering >= 2.0


class TestReplay:
    def test_replay_of_captured_stream_matches_streaming(self):
        machine = ItaniumMachine()
        loop = parse_loop(RUNNING_EXAMPLE)
        result = pipeline_loop(loop, machine, baseline_config())
        setup = prepare_execution(result, machine)
        streams = build_streams(loop, LAYOUT, 300)
        capture, streaming = CaptureSink(), StallAttribution()
        run_iterations(
            setup, streams, 0, 300, machine.memory_system(), machine,
            PerfCounters(),
            sink=TeeSink(capture, streaming),
        )
        replayed = StallAttribution().replay(capture.events)
        assert replayed.to_dict() == streaming.to_dict()


class TestClosedAccounting:
    def test_fixed_latency_accounting_closes(self):
        cycles, counters, attr = run_attributed(latency=25.0)
        check = check_closed_accounting(attr, counters, cycles)
        assert check.ok, check.failures

    @pytest.mark.parametrize("policy", ["baseline", "hlo"])
    def test_micro_suite_accounting_closes(self, policy):
        machine = ItaniumMachine()
        config = (
            baseline_config() if policy == "baseline"
            else CompilerConfig(trip_count_threshold=32)
        )
        for bench in micro_suite():
            built = [lw.build() for lw in bench.loops]
            profile = collect_profile(
                bench, [loop for loop, _ in built], seed=2008
            )
            for loop, layout in built:
                from repro.core.compiler import LoopCompiler

                compiled = LoopCompiler(machine, config).compile(loop, profile)
                traced = trace_simulation(
                    compiled.result, machine, layout, [60, 40], seed=7,
                )
                assert traced.check.ok, (bench.name, traced.check.failures)

    def test_failure_reports_name_the_bucket(self):
        _, counters, attr = run_attributed(latency=25.0)
        counters.be_exe_bubble += 1.0  # poison one bucket
        check = check_closed_accounting(attr, counters)
        assert not check.ok
        assert any("be_exe_bubble" in f for f in check.failures)

    def test_cycle_identity_is_checked_when_cycles_given(self):
        cycles, counters, attr = run_attributed(latency=25.0)
        check = check_closed_accounting(attr, counters, cycles + 5.0)
        assert not check.ok
        assert any("cycle identity" in f for f in check.failures)

    def test_tracing_leaves_simulation_untouched(self):
        machine = ItaniumMachine()
        loop = parse_loop(RUNNING_EXAMPLE)
        result = pipeline_loop(loop, machine, baseline_config())
        plain = simulate_loop(result, machine, LAYOUT, [100, 50], seed=3)
        traced = trace_simulation(result, machine, LAYOUT, [100, 50], seed=3)
        assert traced.run.cycles == plain.cycles
        assert traced.run.counters == plain.counters
