#!/usr/bin/env python
"""Prefetcher/pipeliner coupling on an indirect gather (Sec. 3.2).

For ``c[i] = f(data[idx[i]])`` the HLO prefetcher:

* prefetches the *index* stream at its full computed distance
  (``Lat / II_est`` iterations ahead);
* prefetches the *indirect* data side at a reduced distance — it may hop
  across memory pages, and far-ahead page-hopping prefetches stress the
  TLB (rule 2b);
* therefore marks the indirect reference with an expected-latency hint,
  and the pipeliner schedules it latency-tolerantly.

This example prints the prefetch plan and compares four compiler settings
on the same loop.

Run:  python examples/indirect_prefetch.py
"""

import numpy as np

from repro import ItaniumMachine, baseline_config, simulate_loop
from repro.config import CompilerConfig, HintPolicy
from repro.core.compiler import LoopCompiler
from repro.hlo.profiles import TripDistribution, collect_block_profile
from repro.workloads.loops import gather

MB = 1 << 20

CONFIGS = [
    ("baseline (prefetch, no hints)", baseline_config()),
    ("no prefetch, no hints", baseline_config(prefetch=False)),
    ("prefetch + HLO hints",
     CompilerConfig(hint_policy=HintPolicy.HLO, trip_count_threshold=32)),
    ("HLO hints, prefetch off",
     CompilerConfig(hint_policy=HintPolicy.HLO, trip_count_threshold=32,
                    prefetch=False, name="hlo-nopf")),
]


def main() -> None:
    machine = ItaniumMachine()
    data = TripDistribution(kind="constant", mean=400)
    profile = collect_block_profile({"spmv": data})

    print("loop: c[i] = scale * data[idx[i]] + bias   (FP gather, 10 MB)")
    print()
    results = {}
    for label, config in CONFIGS:
        loop, layout = gather("spmv", index_set=2 * MB, data_set=10 * MB,
                              fp=True)
        compiled = LoopCompiler(machine, config).compile(loop, profile)

        print(f"--- {label} ---")
        for ref in compiled.loop.memrefs:
            decision = compiled.plan.decision_for(ref)
            pf = (f"prefetch @ {ref.prefetch_distance} iters"
                  if ref.prefetched else "no prefetch")
            reduced = (f" (reduced: {decision.reduced})"
                       if decision and decision.reduced else "")
            print(f"  {ref.name:<6} {ref.pattern.value:<9} {pf}{reduced}"
                  f"   hint={ref.hint.name}")
        stats = compiled.stats
        print(f"  II={stats.ii}, stages={stats.stage_count}, "
              f"boosted {stats.boosted_loads}/{stats.total_loads} loads")

        rng = np.random.default_rng(3)
        trips = data.sample(rng, 10)
        sim = simulate_loop(compiled.result, machine, layout, list(trips))
        results[label] = sim.cycles
        print(f"  cycles: {sim.cycles:,.0f}  "
              f"(stalls {sim.counters.be_exe_bubble:,.0f})")
        print()

    base = results["baseline (prefetch, no hints)"]
    print("speedups over the baseline:")
    for label, cycles in results.items():
        print(f"  {label:<32} {100 * (base / cycles - 1):+6.1f}%")


if __name__ == "__main__":
    main()
