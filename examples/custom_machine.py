#!/usr/bin/env python
"""Exploring the machine-model knobs: what-if studies the paper hints at.

Sec. 4.5 closes with: "it indicates that the benefit could be much higher
if the queuing capacities in the cache hierarchy were increased."  This
example sweeps the OzQ depth and the hint-translation table on the mcf
archetype to quantify both statements:

* memory-level parallelism (OzQ depth) is what clustering converts into
  speedup — with depth 1 the benefit collapses;
* typical-latency translation (11/21) beats best-case translation (5/14)
  because the extra headroom absorbs dynamic hazards.

Run:  python examples/custom_machine.py
"""

import numpy as np

from repro import ItaniumMachine, baseline_config, simulate_loop
from repro.config import CompilerConfig, HintPolicy
from repro.core.compiler import LoopCompiler
from repro.hlo.profiles import TripDistribution, collect_block_profile
from repro.machine import BEST_CASE_TRANSLATION, TYPICAL_TRANSLATION
from repro.workloads.loops import pointer_chase


def run(machine, config, trips, invocations=1200):
    loop, layout = pointer_chase("refresh", heap=96 << 20)
    profile = collect_block_profile({"refresh": trips})
    compiled = LoopCompiler(machine, config).compile(loop, profile)
    rng = np.random.default_rng(7)
    sim = simulate_loop(
        compiled.result, machine, layout,
        list(trips.sample(rng, invocations)),
    )
    return sim.cycles


def main() -> None:
    trips = TripDistribution(kind="uniform", low=1, high=4)
    hlo = CompilerConfig(hint_policy=HintPolicy.HLO, trip_count_threshold=32)

    print("OzQ depth sweep (mcf archetype, HLO hints vs baseline):")
    for depth in (1, 2, 4, 8, 16, 48):
        machine = ItaniumMachine().with_ozq_capacity(depth)
        base = run(machine, baseline_config(), trips)
        boosted = run(machine, hlo, trips)
        gain = (base / boosted - 1) * 100
        print(f"  depth {depth:>2}: loop speedup {gain:+6.1f}%")
    print()

    print("Hint translation (48-entry OzQ):")
    for translation in (TYPICAL_TRANSLATION, BEST_CASE_TRANSLATION):
        machine = ItaniumMachine().with_translation(translation)
        base = run(machine, baseline_config(), trips)
        boosted = run(machine, hlo, trips)
        gain = (base / boosted - 1) * 100
        print(f"  {translation.name:<10} (L2->{translation.l2}, "
              f"L3->{translation.l3}): loop speedup {gain:+6.1f}%")


if __name__ == "__main__":
    main()
