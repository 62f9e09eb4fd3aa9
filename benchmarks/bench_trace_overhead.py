"""Tracing overhead on the micro suite (real timing rounds).

The ``repro.trace`` acceptance criterion: with a :class:`NullSink`
attached (all interest flags off), the simulator's hoisted flag tests
must cost <5% over an untraced run on the micro suite.  A full
:class:`StallAttribution` capture is timed too, for scale — that one is
allowed to cost whatever the event volume costs.
"""

import statistics
import time

import pytest

from benchmarks.conftest import hlo_cfg
from repro.harness.jobs import run_loops
from repro.machine import ItaniumMachine
from repro.sim import simulate_loop
from repro.trace import NullSink, StallAttribution
from repro.workloads import micro_suite


@pytest.fixture(scope="module")
def compiled_micro(machine):
    """Every micro loop compiled under HLO, with its layout and trips."""
    from repro.core.compiler import LoopCompiler
    from repro.harness.jobs import collect_profile

    cells = []
    for bench in micro_suite():
        built = [lw.build() for lw in bench.loops]
        profile = collect_profile(
            bench, [loop for loop, _ in built], seed=2008
        )
        for loop, layout in built:
            compiled = LoopCompiler(machine, hlo_cfg()).compile(loop, profile)
            cells.append((compiled.result, layout))
    return cells


def _simulate_suite(cells, machine, sink):
    for result, layout in cells:
        simulate_loop(
            result, machine, layout, [400],
            seed=11, sink=sink,
        )


def _time_suite(cells, machine, sink, rounds=9):
    times = []
    for _ in range(rounds):
        start = time.perf_counter()
        _simulate_suite(cells, machine, sink)
        times.append(time.perf_counter() - start)
    return statistics.median(times)


def test_null_sink_overhead_under_5_percent(compiled_micro, machine, record):
    base = _time_suite(compiled_micro, machine, sink=None)
    null = _time_suite(compiled_micro, machine, sink=NullSink())
    attributed = _time_suite(compiled_micro, machine, sink=StallAttribution())
    overhead = (null / base - 1.0) * 100.0
    # host timings vary run to run: printed, never written to results/
    print("\n".join([
        f"untraced:          {base * 1e3:8.2f} ms/suite",
        f"NullSink:          {null * 1e3:8.2f} ms/suite "
        f"({overhead:+.1f}%)",
        f"StallAttribution:  {attributed * 1e3:8.2f} ms/suite "
        f"({(attributed / base - 1.0) * 100.0:+.1f}%)",
    ]))
    # medians jitter a couple of percent on shared CI runners; the
    # acceptance bound is 5 with a little slack for the timer itself
    assert overhead < 5.0, f"NullSink overhead {overhead:.1f}% >= 5%"
    record(
        "trace_overhead",
        "\n".join([
            f"cells:     {len(compiled_micro)} micro loops under HLO, "
            "400 trips each, median of 9 timed rounds",
            "NullSink:  overhead over untraced < 5% (holds)",
        ]),
    )


def test_trace_flag_through_harness(benchmark, machine):
    """`run_loops(trace=True)` end to end, as `--trace` pays it."""
    bench = micro_suite()[0]

    def run():
        return run_loops(bench, hlo_cfg(), machine, seed=2008, trace=True)

    out = benchmark(run)
    assert out.trace is not None and out.trace["ok"]
