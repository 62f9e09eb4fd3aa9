"""Ablations for the design choices DESIGN.md calls out.

1. **Hint translation**: typical (11/21) vs best-case (5/14) scheduling
   latencies.  The paper chooses typical values to leave headroom for
   dynamic hazards (bank conflicts, conflicting stores) — best-case
   translation covers less and gains less.
2. **Criticality analysis off**: boosting loads on recurrence cycles
   inflates the II, which is exactly what Sec. 3.3's analysis prevents.
3. **Memory-level parallelism**: with an OzQ depth of 1, clustering can no
   longer overlap stalls and the benefit collapses toward pure coverage.
"""

import numpy as np
import pytest

from benchmarks.conftest import base_cfg, hlo_cfg, run_compare
from repro.config import CompilerConfig
from repro.core.compiler import LoopCompiler
from repro.hlo.profiles import collect_block_profile
from repro.ir.memref import LatencyHint
from repro.machine import BEST_CASE_TRANSLATION, ItaniumMachine
from repro.sim import simulate_loop
from repro.workloads import benchmark_by_name


def test_ablation_hint_translation(benchmark, record, harness_cache,
                                   harness_jobs):
    """Typical-latency translation beats best-case translation.

    Both machine variants run through the harness; the machine parameters
    are part of the cache key, so the two sweeps never cross-contaminate.
    """
    bench_names = ["444.namd", "481.wrf", "429.mcf"]
    benches = [benchmark_by_name(n) for n in bench_names]

    res_typical = run_compare(
        benches, base_cfg(), [hlo_cfg()],
        machine=ItaniumMachine(),
        cache=harness_cache, workers=harness_jobs,
        suite_name="ablation-typical",
    )[hlo_cfg().label]

    best_machine = ItaniumMachine().with_translation(BEST_CASE_TRANSLATION)
    res_best = run_compare(
        benches, base_cfg(), [hlo_cfg()],
        machine=best_machine,
        cache=harness_cache, workers=harness_jobs,
        suite_name="ablation-best-case",
    )[hlo_cfg().label]

    benchmark.pedantic(lambda: None, rounds=1, iterations=1)
    lines = [f"{'bench':<12}{'typical':>10}{'best-case':>11}"]
    for name in bench_names:
        lines.append(
            f"{name:<12}{res_typical.gains[name]:>9.1f}%"
            f"{res_best.gains[name]:>10.1f}%"
        )
    lines.append(
        f"{'geomean':<12}{res_typical.geomean_gain:>9.1f}%"
        f"{res_best.geomean_gain:>10.1f}%"
    )
    record("ablation_hint_translation", "\n".join(lines))
    assert res_typical.geomean_gain > res_best.geomean_gain


def test_ablation_criticality_off(benchmark, record, machine):
    """Boosting a recurrence-cycle load inflates the II."""
    from repro.workloads.loops import pointer_chase

    bench = benchmark_by_name("429.mcf")
    lw = bench.loops[0]
    profile = collect_block_profile({lw.build()[0].name: lw.data.train},
                                    seed=2008)

    results = {}
    for label, respect in (("criticality-on", True), ("criticality-off", False)):
        loop, layout = lw.build()
        cfg = hlo_cfg().with_(respect_criticality=respect, name=label)
        compiled = LoopCompiler(machine, cfg).compile(loop, profile)
        rng = np.random.default_rng(2008)
        trips = lw.data.ref.sample(rng, 800)
        sim = simulate_loop(
            compiled.result, machine, layout, list(trips),
        )
        results[label] = (compiled, sim)

    benchmark.pedantic(lambda: None, rounds=1, iterations=1)
    on_c, on_sim = results["criticality-on"]
    off_c, off_sim = results["criticality-off"]
    record(
        "ablation_criticality",
        (
            f"criticality on : II={on_c.stats.ii}, "
            f"boosted={on_c.stats.boosted_loads}, "
            f"cycles={on_sim.cycles:.0f}\n"
            f"criticality off: II={off_c.stats.ii}, "
            f"boosted={off_c.stats.boosted_loads}, "
            f"cycles={off_sim.cycles:.0f}\n"
            "(without the analysis, boosting the node->child chase load\n"
            " pushes the Recurrence II past the Resource II; the Sec. 3.3\n"
            " retry ladder then demotes ALL loads to rescue the II, and\n"
            " the entire benefit is lost)"
        ),
    )
    # boosting the chase load either inflates the II or (via the retry
    # ladder) forfeits every boost; both are strictly worse
    assert (
        off_c.stats.ii > on_c.stats.ii
        or off_c.stats.boosted_loads < on_c.stats.boosted_loads
    )
    assert off_sim.cycles > on_sim.cycles * 1.2


def test_ablation_mlp(benchmark, record, harness_cache, harness_jobs):
    """Clustering needs memory-level parallelism: a 1-entry OzQ kills it."""
    bench = benchmark_by_name("429.mcf")
    results = {}
    for label, capacity in (("ozq-48", 48), ("ozq-1", 1)):
        machine = ItaniumMachine().with_ozq_capacity(capacity)
        res = run_compare(
            [bench], base_cfg(), [hlo_cfg()],
            machine=machine,
            cache=harness_cache, workers=harness_jobs,
            suite_name=f"ablation-{label}",
        )[hlo_cfg().label]
        results[label] = res.gains["429.mcf"]
    benchmark.pedantic(lambda: None, rounds=1, iterations=1)
    record(
        "ablation_mlp",
        (
            f"gain with OzQ depth 48: {results['ozq-48']:+.1f}%\n"
            f"gain with OzQ depth 1 : {results['ozq-1']:+.1f}%"
        ),
    )
    assert results["ozq-48"] > results["ozq-1"]
