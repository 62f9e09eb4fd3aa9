#!/usr/bin/env python
"""Quickstart: the paper's running example, end to end.

Builds the three-instruction loop of Fig. 1, software-pipelines it with
and without latency tolerance, prints the kernels of Figs. 3 and 6, and
simulates both over a memory-resident array to show the stall reduction.

Run:  python examples/quickstart.py
"""

from repro import (
    CompilerConfig,
    HintPolicy,
    ItaniumMachine,
    LoopCompiler,
    StreamSpec,
    baseline_config,
    parse_loop,
    simulate_loop,
)

LOOP_TEXT = """
memref A affine stride=4 space=a
memref B affine stride=4 space=b
loop copy_add trips=2000 source=pgo
  ld4 r4 = [r5], 4 !A
  add r7 = r4, r9
  st4 [r6] = r7, 4 !B
"""

# a 64 MB streaming array: most accesses miss all the way to memory
LAYOUT = {
    "a": StreamSpec(size=64 << 20, reuse=False),
    "b": StreamSpec(size=64 << 20, reuse=False),
}


def compile_and_run(machine, config):
    loop = parse_loop(LOOP_TEXT)
    compiled = LoopCompiler(machine, config).compile(loop)
    sim = simulate_loop(
        compiled.result,
        machine,
        LAYOUT,
        trip_counts=[2000] * 3,
    )
    return compiled, sim


def main() -> None:
    machine = ItaniumMachine()

    from repro.ir import format_loop

    print("=== source loop (Fig. 1) ===")
    print(format_loop(parse_loop(LOOP_TEXT)))
    print()

    # prefetching off in both configs: this demo isolates the pure
    # latency-tolerance mechanism of Sec. 2 (prefetcher coupling is shown
    # in examples/indirect_prefetch.py)
    base_c, base_sim = compile_and_run(
        machine, baseline_config(prefetch=False)
    )
    print("=== baseline kernel (Fig. 3): II=1, 3 stages ===")
    print(base_c.result.kernel.format())
    print(f"\ncycles: {base_sim.cycles:,.0f}   "
          f"data stalls: {base_sim.counters.be_exe_bubble:,.0f}")
    print()

    boosted_c, boosted_sim = compile_and_run(
        machine,
        CompilerConfig(
            hint_policy=HintPolicy.ALL_LOADS_L3,
            trip_count_threshold=0,
            prefetch=False,
        ),
    )
    from repro.core.diagram import pipeline_diagram
    from repro.machine.hints import HintTranslation
    from repro.pipeliner import pipeline_loop
    from repro.ir.memref import LatencyHint

    # the paper's Fig. 4 uses a 3-cycle load latency (d = 2)
    fig4_machine = machine.with_translation(
        HintTranslation(name="three-cycle", l2=3)
    )
    fig4_loop = parse_loop(LOOP_TEXT)
    fig4_loop.body[0].memref.hint = LatencyHint.L2
    fig4 = pipeline_loop(
        fig4_loop, fig4_machine,
        CompilerConfig(trip_count_threshold=0, prefetch=False),
    )
    print("=== conceptual pipeline view at a 3-cycle load latency "
          "(Fig. 4) ===")
    print(pipeline_diagram(fig4.schedule, iterations=5))
    print()

    stats = boosted_c.stats
    placement = stats.placements[0]
    print(f"=== latency-tolerant kernel (Fig. 6 style): II={stats.ii}, "
          f"{stats.stage_count} stages ===")
    print(boosted_c.result.kernel.format())
    print(f"\nload scheduled {placement.use_distance} cycles before its use "
          f"(d={placement.additional_latency}, "
          f"k={placement.clustering_factor(stats.ii)})")
    print(f"cycles: {boosted_sim.cycles:,.0f}   "
          f"data stalls: {boosted_sim.counters.be_exe_bubble:,.0f}")
    print()

    speedup = (base_sim.cycles / boosted_sim.cycles - 1.0) * 100.0
    print(f"speedup from latency-tolerant pipelining: {speedup:+.1f}%")


if __name__ == "__main__":
    main()
