"""Sec. 4.4: the 429.mcf refresh_potential() example.

"The indirect references ... are delinquent with average latencies of up
to a hundred cycles; they cannot be prefetched since they depend on a
pointer-chasing recurrence.  Hence they are marked for higher-latency
scheduling according to heuristic (1) ... and, since not on a recurrence
cycle, scheduled accordingly ... Although this occurs on average only for
two respective instances per loop execution — the average trip count of
this loop is 2.3 — there is a 40% speedup for the loop."
"""

import numpy as np
import pytest

from benchmarks.conftest import base_cfg, hlo_cfg
from repro.core.compiler import LoopCompiler
from repro.hlo.profiles import collect_block_profile
from repro.ir.memref import LatencyHint
from repro.sim import simulate_loop
from repro.workloads import benchmark_by_name


@pytest.fixture(scope="module")
def mcf_runs(machine):
    bench = benchmark_by_name("429.mcf")
    lw = bench.loops[0]  # the refresh_potential archetype
    profile = collect_block_profile(
        {lw.build()[0].name: lw.data.train}, seed=2008
    )
    runs = {}
    for cfg in (base_cfg(), hlo_cfg()):
        loop, layout = lw.build()
        compiled = LoopCompiler(machine, cfg).compile(loop, profile)
        rng = np.random.default_rng(2008)
        trips = lw.data.ref.sample(rng, 1200)
        sim = simulate_loop(
            compiled.result, machine, layout, list(trips),
        )
        runs[cfg.name or cfg.label] = (compiled, sim)
    return runs


def test_sec44_mcf_loop(benchmark, record, machine, mcf_runs):
    (base_c, base_sim) = mcf_runs["baseline"]
    (hlo_c, hlo_sim) = mcf_runs["hlo"]
    benchmark.pedantic(lambda: None, rounds=1, iterations=1)

    speedup = (base_sim.cycles / hlo_sim.cycles - 1.0) * 100.0
    lines = [
        f"trip count (avg)    : 2.5 (paper: 2.3)",
        f"baseline loop cycles: {base_sim.cycles:.0f}",
        f"hinted loop cycles  : {hlo_sim.cycles:.0f}",
        f"loop speedup        : {speedup:+.1f}%  (paper: ~40%)",
        f"II                  : {hlo_c.stats.ii}, stages "
        f"{base_c.stats.stage_count} -> {hlo_c.stats.stage_count}",
    ]
    record("sec44_mcf_refresh_potential", "\n".join(lines))

    # marked by rule 1 (unprefetchable), chase stays critical
    for load in hlo_c.loop.loads[:-1]:
        assert load.memref.hint is LatencyHint.L2
        assert load.memref.hint_source == "hlo"
        assert not load.memref.prefetched
    assert hlo_c.stats.critical_loads == 1
    assert hlo_c.stats.boosted_loads == 2

    # the paper's ~40% loop speedup band
    assert speedup > 25.0

    # II unchanged; only stages grow
    assert hlo_c.stats.ii == base_c.stats.ii
    assert hlo_c.stats.stage_count > base_c.stats.stage_count


def test_sec44_clustering_limited_by_trip_count(benchmark, machine, mcf_runs):
    benchmark.pedantic(lambda: None, rounds=1, iterations=1)
    """With ~2.5 iterations per invocation, only ~2 instances of each
    field load can actually cluster, regardless of the scheduled k."""
    (hlo_c, _) = mcf_runs["hlo"]
    placements = [p for p in hlo_c.stats.placements if p.boosted]
    for p in placements:
        assert p.clustering_factor(hlo_c.stats.ii) >= 2
