"""Trip-count versioning (Sec. 6 outlook).

"... and/or trip-count versioning": emit *two* versions of a pipelined
loop — the latency-tolerant one and a conventional one — and select at
run time based on the actual trip count of the invocation.  The deep
pipeline only runs when there are enough iterations to amortise its
fill/drain cost, which removes exactly the failure mode behind the
177.mesa regression (training said 154 iterations, reference inputs ran
8) without giving up the gains on long invocations.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

import numpy as np

from repro.config import CompilerConfig
from repro.core.compiler import CompiledLoop, LoopCompiler
from repro.hlo.profiles import BlockProfile
from repro.ir.loop import Loop
from repro.machine.itanium2 import ItaniumMachine
from repro.sim.address import StreamSpec
# VERSION_CHECK_CYCLES is re-exported: the executor charges it, callers
# of this module import it from here
from repro.sim.executor import VERSION_CHECK_CYCLES, LoopRunResult, simulate_loop


@dataclass
class VersionedLoop:
    """Two compiled versions of one loop plus the selection threshold."""

    boosted: CompiledLoop
    fallback: CompiledLoop
    #: invocations with at least this many iterations run the boosted body
    threshold: int


def compile_versions(
    loop_factory: Callable[[], tuple[Loop, dict[str, StreamSpec]]],
    machine: ItaniumMachine,
    config: CompilerConfig,
    threshold: int | None = None,
    profile: BlockProfile | None = None,
) -> tuple[VersionedLoop, dict[str, StreamSpec]]:
    """Compile the boosted and conventional versions of one loop.

    The fallback version uses the same configuration with latency
    tolerance switched off, so prefetching and every other decision stay
    comparable.  The default threshold matches the boosted version's
    break-even point: its extra kernel iterations must cost no more than
    a modest fraction of the useful work.
    """
    loop_a, layout = loop_factory()
    boosted = LoopCompiler(machine, config).compile(loop_a, profile)
    loop_b, _ = loop_factory()
    fallback = LoopCompiler(
        machine,
        config.with_(latency_tolerant=False, name=f"{config.label}+fallback"),
    ).compile(loop_b, profile)

    if threshold is None:
        extra = max(
            0,
            boosted.stats.stage_count - fallback.stats.stage_count,
        )
        # amortise the extra fill/drain iterations over >= 4x useful work
        threshold = max(1, 4 * extra)
    return VersionedLoop(boosted=boosted, fallback=fallback,
                         threshold=threshold), layout


def simulate_versioned(
    versioned: VersionedLoop,
    machine: ItaniumMachine,
    layout: dict[str, StreamSpec],
    trip_counts: list[int] | np.ndarray,
    seed: int = 11,
) -> LoopRunResult:
    """Execute a versioned loop, switching per invocation at run time.

    Both versions share the cache and TLB state, exactly as the two
    kernels of one function would: this is one
    :func:`~repro.sim.executor.simulate_loop` run with the conventional
    version as its ``fallback``, so every invocation pays the version's
    usual loop overheads plus :data:`VERSION_CHECK_CYCLES`, and a
    versioned loop that always picks one version costs that version's
    plain run plus the checks.
    """
    return simulate_loop(
        versioned.boosted.result,
        machine,
        layout,
        trip_counts,
        seed=seed,
        fallback=versioned.fallback.result,
        threshold=versioned.threshold,
    )
