#!/usr/bin/env python
"""The paper's Sec. 6 outlook, implemented: sampling and versioning.

"To make this information more precise and consequently increase the net
gain from the optimization, we are looking into dynamic cache-miss
sampling, more refined HLO and pipeliner heuristics, and/or trip-count
versioning."

Part 1 — dynamic cache-miss sampling: run a training execution in the
simulator, record per-reference effective latencies, and derive hints
from *measured* behaviour instead of prefetcher heuristics.

Part 2 — trip-count versioning: emit both a latency-tolerant and a
conventional kernel and pick at run time, which removes the 177.mesa
pathology (training said 154 iterations, the reference inputs run 8).

Run:  python examples/outlook_extensions.py
"""

from functools import partial

import numpy as np

from repro import ItaniumMachine, baseline_config, simulate_loop
from repro.config import CompilerConfig, HintPolicy
from repro.core.compiler import LoopCompiler
from repro.core.versioning import compile_versions, simulate_versioned
from repro.hlo.profiles import TripDistribution, collect_block_profile
from repro.hlo.sampling import collect_miss_profile, hints_from_miss_profile
from repro.workloads.loops import low_trip_linear, pointer_chase


def sampling_demo(machine) -> None:
    print("=== Part 1: dynamic cache-miss sampling (mcf archetype) ===\n")
    factory = partial(pointer_chase, "refresh", heap=64 << 20)

    miss_profile = collect_miss_profile(factory, machine, [3] * 60)
    print("sampled training run, per-reference effective latencies:")
    for (space, name), stats in sorted(miss_profile.stats.items()):
        print(f"  {name:<10} mean {stats.mean_latency:6.1f} cycles "
              f"over {stats.samples} samples "
              f"-> class L{stats.typical_level}")

    loop, layout = factory()
    marked = hints_from_miss_profile(loop, miss_profile)
    print(f"\n{marked} references hinted from the profile:")
    for ref in loop.memrefs:
        if ref.hint_source == "sampled":
            print(f"  {ref.name}: {ref.hint.name}")

    dist = TripDistribution(kind="uniform", low=1, high=4)
    pgo = collect_block_profile({"refresh": dist})
    rng = np.random.default_rng(1)
    trips = list(dist.sample(rng, 800))
    cycles = {}
    for label, build in (
        ("baseline", lambda: LoopCompiler(machine, baseline_config())
            .compile(factory()[0], pgo)),
        ("sampled", lambda: LoopCompiler(
            machine,
            CompilerConfig(hint_policy=HintPolicy.SAMPLED,
                           trip_count_threshold=32),
        ).compile(loop, pgo)),
    ):
        compiled = build()
        sim = simulate_loop(compiled.result, machine, layout, trips)
        cycles[label] = sim.cycles
    gain = 100 * (cycles["baseline"] / cycles["sampled"] - 1)
    print(f"\nloop speedup from sampled hints: {gain:+.1f}%\n")


def versioning_demo(machine) -> None:
    print("=== Part 2: trip-count versioning (the mesa pathology) ===\n")
    factory = partial(low_trip_linear, "span")
    pgo = collect_block_profile(
        {"span": TripDistribution(kind="constant", mean=154)}
    )
    cfg = CompilerConfig(hint_policy=HintPolicy.ALL_LOADS_L3,
                         trip_count_threshold=32)
    trips = [8] * 400  # reference inputs run short

    loop, layout = factory()
    plain = LoopCompiler(machine, cfg).compile(loop, pgo)
    plain_sim = simulate_loop(plain.result, machine, layout, trips)
    print(f"boosted-only build (trains at 154, runs at 8): "
          f"{plain_sim.cycles:,.0f} cycles, "
          f"{plain.stats.stage_count} stages")

    versioned, layout_v = compile_versions(factory, machine, cfg,
                                           profile=pgo, threshold=32)
    multi = simulate_versioned(versioned, machine, layout_v, trips)
    print(f"versioned build (runtime trip-count check @ "
          f"{versioned.threshold}): {multi.cycles:,.0f} cycles")
    print(f"regression recovered: "
          f"{100 * (plain_sim.cycles / multi.cycles - 1):+.1f}%")


def main() -> None:
    machine = ItaniumMachine()
    sampling_demo(machine)
    versioning_demo(machine)


if __name__ == "__main__":
    main()
