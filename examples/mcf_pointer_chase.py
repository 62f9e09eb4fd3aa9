#!/usr/bin/env python
"""The Sec. 4.4 case study: mcf's refresh_potential() pointer chase.

    while (node) {
        node->potential = node->basic_arc->cost + node->pred->potential;
        node = node->child;
    }

The ``node->child`` load is a self-recurrent pointer chase — it sits on
the recurrence cycle, cannot be prefetched, and must stay at its base
latency (the criticality analysis keeps it there).  The two field loads
are delinquent too, but OFF the cycle: HLO rule 1 marks them, the
pipeliner stretches their load-use distances, and instances from
successive iterations cluster even though the loop runs only ~2.3
iterations per invocation.

Run:  python examples/mcf_pointer_chase.py
"""

import numpy as np

from repro import ItaniumMachine, baseline_config, simulate_loop
from repro.config import CompilerConfig, HintPolicy
from repro.core.compiler import LoopCompiler
from repro.hlo.profiles import TripDistribution, collect_block_profile
from repro.workloads.loops import pointer_chase


def main() -> None:
    machine = ItaniumMachine()
    data = TripDistribution(kind="uniform", low=1, high=4)  # avg ~2.5
    profile = collect_block_profile({"refresh": data})

    runs = {}
    for label, config in (
        ("baseline", baseline_config()),
        ("hlo-hints", CompilerConfig(hint_policy=HintPolicy.HLO,
                                     trip_count_threshold=32)),
    ):
        loop, layout = pointer_chase("refresh", heap=96 << 20)
        compiled = LoopCompiler(machine, config).compile(loop, profile)
        stats = compiled.stats

        print(f"--- {label} ---")
        print(f"pipelined: {stats.pipelined}, II={stats.ii}, "
              f"stages={stats.stage_count}")
        print(f"critical loads: {stats.critical_loads} "
              f"(the node->child chase)")
        print(f"boosted loads : {stats.boosted_loads} (the field loads)")
        for p in stats.placements:
            kind = "critical" if not p.boosted else "boosted"
            print(f"  {p.load.memref.name:<10} use distance "
                  f"{p.use_distance:>2} cycles  [{kind}]")

        rng = np.random.default_rng(42)
        trips = data.sample(rng, 1500)
        sim = simulate_loop(
            compiled.result, machine, layout, list(trips),
        )
        runs[label] = sim
        print(f"simulated {sim.total_iterations} iterations over "
              f"{sim.invocations} invocations: {sim.cycles:,.0f} cycles")
        print(f"  data-stall cycles: {sim.counters.be_exe_bubble:,.0f}")
        print()

    speedup = (runs["baseline"].cycles / runs["hlo-hints"].cycles - 1) * 100
    print(f"loop speedup: {speedup:+.1f}%   (paper, Sec. 4.4: ~40%)")


if __name__ == "__main__":
    main()
