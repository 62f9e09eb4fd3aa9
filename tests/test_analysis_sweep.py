"""Translation-validate the whole workload suite across the paper's grid.

Every hot loop of every shipped benchmark, compiled under the Fig. 7
threshold sweep (ALL_LOADS_L3 at n = 0..64) and the Fig. 8 policy sweep
(baseline / FP-L2 / HLO), must come out of the compiler with zero
error-severity findings from ``repro.analysis``.  This is the
tier-1 guarantee that the numbers the benches report are derived from
schedules, kernels and allocations that actually satisfy the paper's
invariants — not just from code paths the unit tests happen to cover.
"""

import pytest

from repro.analysis import verify_compiled
from repro.config import CompilerConfig, HintPolicy, baseline_config
from repro.core.compiler import LoopCompiler
from repro.harness.jobs import collect_profile
from repro.machine import ItaniumMachine
from repro.workloads import suite_by_name

SEED = 2008

#: Fig. 7: the trip-count threshold sweep under blanket L3 hints.
FIG7_CONFIGS = [
    CompilerConfig(
        hint_policy=HintPolicy.ALL_LOADS_L3,
        trip_count_threshold=n,
        name=f"l3-n{n}",
    )
    for n in (0, 8, 32, 64)
]

#: Fig. 8: the hint-policy comparison at the default threshold.
FIG8_CONFIGS = [
    baseline_config(),
    CompilerConfig(hint_policy=HintPolicy.ALL_FP_L2, name="fp-l2"),
    CompilerConfig(hint_policy=HintPolicy.HLO, name="hlo"),
]

CONFIGS = FIG7_CONFIGS + FIG8_CONFIGS
SUITES = ("micro", "cpu2000", "cpu2006")


@pytest.mark.parametrize("config", CONFIGS, ids=lambda c: c.label)
@pytest.mark.parametrize("suite", SUITES)
def test_suite_verifies_clean(suite, config):
    compiler = LoopCompiler(ItaniumMachine(), config)
    failures = []
    for bench in suite_by_name(suite):
        loops = [lw.build()[0] for lw in bench.loops]
        profile = collect_profile(bench, loops, SEED) if config.pgo else None
        for loop in loops:
            report = verify_compiled(compiler.compile(loop, profile))
            if report.errors:
                failures.append(
                    f"{bench.name}/{loop.name}:\n{report.render_text()}"
                )
    assert not failures, "\n\n".join(failures)


def test_grid_covers_both_figures():
    """The grid really sweeps Fig. 7 thresholds and Fig. 8 policies."""
    thresholds = {
        c.trip_count_threshold
        for c in CONFIGS
        if c.hint_policy is HintPolicy.ALL_LOADS_L3
    }
    assert thresholds == {0, 8, 32, 64}
    policies = {c.hint_policy for c in CONFIGS}
    assert {
        HintPolicy.BASELINE,
        HintPolicy.ALL_LOADS_L3,
        HintPolicy.ALL_FP_L2,
        HintPolicy.HLO,
    } <= policies
