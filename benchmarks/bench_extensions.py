"""Benches for the Sec. 6 outlook extensions and the Sec. 5 comparisons.

1. **Dynamic cache-miss sampling** vs the static HLO heuristics on the
   mcf archetype: measured miss levels should match or beat the
   heuristic hints.
2. **Trip-count versioning** removes the mesa train/ref pathology while
   keeping the long-invocation gains.
3. **Balanced scheduling** (Kerns & Eggers) vs hint-directed boosting:
   uniform budgets pay pipeline depth on loads that never miss.
4. **Modulo variable expansion** vs register rotation: the code-size cost
   of clustering without rotating registers (Sec. 5: "Without rotating
   registers, this effect could only be achieved with unrolling").
"""

from functools import partial

import numpy as np
import pytest

from benchmarks.conftest import base_cfg, hlo_cfg
from repro.config import CompilerConfig, HintPolicy
from repro.core.compiler import LoopCompiler
from repro.core.versioning import compile_versions, simulate_versioned
from repro.hlo.profiles import TripDistribution, collect_block_profile
from repro.hlo.sampling import collect_miss_profile, hints_from_miss_profile
from repro.pipeliner.balanced import balanced_pipeline
from repro.pipeliner.mve import generate_mve_kernel
from repro.sim import simulate_loop
from repro.workloads.loops import low_trip_linear, pointer_chase

MB = 1 << 20


def _simulate(machine, result, layout, trips, seed=7):
    return simulate_loop(
        result, machine, layout, trips,
        seed=seed,
    )


def test_ext_sampled_hints(benchmark, record, machine):
    """Sampling-directed hints on the mcf archetype."""
    factory = partial(pointer_chase, "smp", heap=64 * MB)
    dist = TripDistribution(kind="uniform", low=1, high=4)
    profile = collect_block_profile({"smp": dist}, seed=2008)
    rng = np.random.default_rng(2008)
    trips = list(dist.sample(rng, 900))

    runs = {}
    miss_profile = collect_miss_profile(factory, machine, [3] * 60)
    for label in ("baseline", "hlo", "sampled"):
        loop, layout = factory()
        if label == "sampled":
            hints_from_miss_profile(loop, miss_profile)
            cfg = CompilerConfig(hint_policy=HintPolicy.SAMPLED,
                                 trip_count_threshold=32, name="sampled")
        elif label == "hlo":
            cfg = hlo_cfg()
        else:
            cfg = base_cfg()
        compiled = LoopCompiler(machine, cfg).compile(loop, profile)
        runs[label] = _simulate(machine, compiled.result, layout, trips)

    benchmark.pedantic(lambda: None, rounds=1, iterations=1)
    base = runs["baseline"].cycles
    lines = [
        f"{label:<10} {run.cycles:>12,.0f} cycles  "
        f"{100 * (base / run.cycles - 1):+6.1f}%"
        for label, run in runs.items()
    ]
    record("ext_sampled_hints", "\n".join(lines))
    # sampling matches (or beats) the static heuristics on this loop
    assert runs["sampled"].cycles < base * 0.8
    assert runs["sampled"].cycles <= runs["hlo"].cycles * 1.1


def test_ext_trip_count_versioning(benchmark, record, machine):
    """Versioning vs the mesa pathology under blanket L3 hints."""
    factory = partial(low_trip_linear, "ver")
    profile = collect_block_profile(
        {"ver": TripDistribution(kind="constant", mean=154)}, seed=2008
    )
    cfg = CompilerConfig(hint_policy=HintPolicy.ALL_LOADS_L3,
                         trip_count_threshold=32, name="l3")
    trips = [8] * 500  # the reference inputs run short

    loop, layout = factory()
    plain = LoopCompiler(machine, cfg).compile(loop, profile)
    plain_sim = _simulate(machine, plain.result, layout, trips)

    versioned, layout_v = compile_versions(
        factory, machine, cfg, profile=profile, threshold=32
    )
    multi = simulate_versioned(
        versioned, machine, layout_v, trips,
    )
    benchmark.pedantic(lambda: None, rounds=1, iterations=1)
    gain = 100 * (plain_sim.cycles / multi.cycles - 1)
    record(
        "ext_trip_count_versioning",
        (
            f"boosted-only build : {plain_sim.cycles:,.0f} cycles\n"
            f"versioned build    : {multi.cycles:,.0f} cycles "
            f"({gain:+.1f}%)\n"
            "(the runtime check routes 8-iteration invocations to the\n"
            " conventional kernel, undoing the mesa regression)"
        ),
    )
    assert multi.cycles < plain_sim.cycles * 0.92


def test_ext_balanced_vs_hints(benchmark, record, machine):
    """Uniform latency budgets vs selective hint-directed boosting."""
    results = {}
    # a loop that needs deep boosting (mcf fields)...
    chase_factory = partial(pointer_chase, "balmcf", heap=64 * MB)
    dist = TripDistribution(kind="uniform", low=1, high=4)
    profile = collect_block_profile({"balmcf": dist}, seed=2008)
    rng = np.random.default_rng(2008)
    chase_trips = list(dist.sample(rng, 700))
    # ...and one that needs none (L1-resident SAD)
    resident_factory = partial(low_trip_linear, "balres",
                               working_set=8 * 1024)
    resident_trips = [12] * 300

    for label in ("hlo", "balanced"):
        per_loop = {}
        for key, factory, trips, est in (
            ("delinquent", chase_factory, chase_trips, 2.5),
            ("resident", resident_factory, resident_trips, 12.0),
        ):
            loop, layout = factory()
            loop.trip_count.estimate = est
            if label == "balanced":
                result = balanced_pipeline(loop, machine, total_budget=22)
            else:
                result = LoopCompiler(machine, hlo_cfg()).compile(
                    loop, profile
                ).result
            per_loop[key] = _simulate(machine, result, layout, trips).cycles
        results[label] = per_loop

    benchmark.pedantic(lambda: None, rounds=1, iterations=1)
    lines = [f"{'loop':<12}{'hint-directed':>15}{'balanced':>12}"]
    for key in ("delinquent", "resident"):
        lines.append(
            f"{key:<12}{results['hlo'][key]:>15,.0f}"
            f"{results['balanced'][key]:>12,.0f}"
        )
    lines.append(
        "(uniform budgets add pipeline depth to cache-resident loads\n"
        " the paper's case for selective, prefetcher-guided boosting)"
    )
    record("ext_balanced_vs_hints", "\n".join(lines))
    # on the loop that never misses, the uniform budget is pure cost
    assert results["balanced"]["resident"] > results["hlo"]["resident"] * 1.05
    # on the delinquent loop both approaches recover the stalls
    assert results["balanced"]["delinquent"] < results["hlo"]["delinquent"] * 1.15


def test_ext_mve_code_size(benchmark, record, machine):
    """Rotation vs unrolling: static code size of clustered pipelines."""
    from repro.ir import parse_loop
    from repro.ir.memref import LatencyHint
    from repro.pipeliner import pipeline_loop
    from tests.conftest import RUNNING_EXAMPLE

    rows = ["d   k   rotation-ops   MVE-ops   expansion"]
    for hint, label in ((None, 0), (LatencyHint.L2, 10), (LatencyHint.L3, 20)):
        loop = parse_loop(RUNNING_EXAMPLE)
        if hint is not None:
            loop.body[0].memref.hint = hint
            cfg = CompilerConfig(trip_count_threshold=0, prefetch=False)
        else:
            cfg = base_cfg(prefetch=False)
        result = pipeline_loop(loop, machine, cfg)
        mve = generate_mve_kernel(result.schedule)
        body = len(loop.body)
        k = result.stats.placements[0].clustering_factor(result.ii)
        rows.append(
            f"{label:<3} {k:<3} {len(result.kernel.ops):>12} "
            f"{mve.total_ops:>9}   x{mve.expansion_factor(body):.1f}"
        )
        if hint is LatencyHint.L3:
            assert mve.unroll_factor >= k
            assert mve.total_ops > 10 * len(result.kernel.ops)
    benchmark.pedantic(lambda: None, rounds=1, iterations=1)
    record("ext_mve_code_size", "\n".join(rows))
