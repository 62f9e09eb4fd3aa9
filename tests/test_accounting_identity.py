"""The cycle-accounting identity, suite-wide.

For every loop of every workload suite, the sum of the PerfCounters
bubble buckets plus unstalled execution must equal the total simulated
cycles (``counters.total_cycles == sim.cycles``) — the invariant that
makes the counter-based analysis of Sec. 4.5 (and the trace analyzer's
closed accounting, which reuses :func:`verify_cycle_identity`) sound.
"""

import pytest

from repro.config import CompilerConfig, HintPolicy, baseline_config
from repro.core.accounting import cycle_identity_residual, verify_cycle_identity
from repro.core.compiler import LoopCompiler
from repro.harness.jobs import collect_profile
from repro.machine import ItaniumMachine
from repro.sim import simulate_loop
from repro.sim.counters import PerfCounters
from repro.workloads import suite_by_name

SUITES = ["micro", "cpu2006", "cpu2000"]
CONFIGS = {
    "baseline": baseline_config(),
    "hlo": CompilerConfig(hint_policy=HintPolicy.HLO,
                          trip_count_threshold=32),
}


def _loops(suite_name):
    for bench in suite_by_name(suite_name):
        built = [lw.build() for lw in bench.loops]
        loops = [loop for loop, _ in built]
        for loop, layout in built:
            yield bench, loops, loop, layout


@pytest.mark.parametrize("suite_name", SUITES)
@pytest.mark.parametrize("config_name", ["baseline", "hlo"])
def test_identity_holds_for_every_suite_loop(suite_name, config_name):
    machine = ItaniumMachine()
    config = CONFIGS[config_name]
    failures = []
    for bench, loops, loop, layout in _loops(suite_name):
        profile = (
            collect_profile(bench, loops, seed=2008) if config.pgo else None
        )
        compiled = LoopCompiler(machine, config).compile(loop, profile)
        sim = simulate_loop(
            compiled.result, machine, layout, [50, 30],
            seed=17,
        )
        if not verify_cycle_identity(sim.cycles, sim.counters):
            failures.append(
                f"{bench.name}/{loop.name}: residual "
                f"{cycle_identity_residual(sim.cycles, sim.counters)!r}"
            )
    assert not failures, failures


def test_residual_reports_the_gap():
    counters = PerfCounters()
    counters.unstalled = 90.0
    counters.be_exe_bubble = 10.0
    assert cycle_identity_residual(100.0, counters) == 0.0
    assert cycle_identity_residual(103.0, counters) == 3.0
    assert verify_cycle_identity(100.0, counters)
    assert not verify_cycle_identity(103.0, counters)


def test_identity_tolerates_float_summation_noise():
    counters = PerfCounters()
    counters.unstalled = 1e9
    # a few ulps of drift from different summation order must pass
    assert verify_cycle_identity(1e9 * (1.0 + 1e-12), counters)
    assert not verify_cycle_identity(1e9 * 1.001, counters)
