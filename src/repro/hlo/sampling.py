"""Dynamic cache-miss sampling (Sec. 6 outlook).

"To make this information more precise and consequently increase the net
gain from the optimization, we are looking into dynamic cache-miss
sampling ..."

This module implements that extension: a training run executes the loop
in the simulator and records, per memory reference, the distribution of
satisfying cache levels.  :func:`hints_from_miss_profile` then derives
latency-hint tokens directly from *measured* behaviour instead of the
prefetcher's static heuristics — the hint is the typical miss level, and
references that mostly hit where their base latency already lives get no
hint at all.

References are keyed by ``(space, name)`` so profiles survive the IR
cloning the compiler performs per configuration.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.config import CompilerConfig, baseline_config
from repro.ir.loop import Loop
from repro.ir.memref import LatencyHint, MemRef
from repro.machine.itanium2 import ItaniumMachine

RefKey = tuple[str, str]


def _key(ref: MemRef) -> RefKey:
    return (ref.space, ref.name)


#: effective-latency bucket boundaries mapping to L1/L2/L3/memory classes
_LATENCY_BUCKETS = (3.0, 8.0, 18.0)


@dataclass
class RefMissStats:
    """Observed cache behaviour of one memory reference.

    Samples record the *effective* latency, not just the satisfying
    level — a line still being filled by a late prefetch reports as an
    "L2 hit" but can cost a hundred cycles, and it is the latency the
    scheduler must cover.
    """

    #: hit counts per level {1: L1D, 2: L2, 3: L3, 4: memory}
    levels: dict[int, int] = field(default_factory=dict)
    #: counts per effective-latency class {1: <=3cy, 2: <=8, 3: <=18, 4: more}
    latency_classes: dict[int, int] = field(default_factory=dict)
    latency_sum: float = 0.0

    @property
    def samples(self) -> int:
        return sum(self.levels.values())

    @property
    def mean_latency(self) -> float:
        return self.latency_sum / self.samples if self.samples else 0.0

    def add(self, level: int, latency: float) -> None:
        self.levels[level] = self.levels.get(level, 0) + 1
        for cls, bound in enumerate(_LATENCY_BUCKETS, start=1):
            if latency <= bound:
                break
        else:
            cls = 4
        self.latency_classes[cls] = self.latency_classes.get(cls, 0) + 1
        self.latency_sum += latency

    @property
    def typical_level(self) -> int:
        """The deepest effective-latency class this reference reaches at
        least 20% of the time — misses are what hurt, so the tail matters
        more than the mode."""
        for cls in (4, 3, 2):
            tail = sum(self.latency_classes.get(c, 0) for c in range(cls, 5))
            if self.samples and tail / self.samples >= 0.2:
                return cls
        return 1


@dataclass
class MissProfile:
    """Per-reference miss statistics from a sampled training run."""

    stats: dict[RefKey, RefMissStats] = field(default_factory=dict)

    def for_ref(self, ref: MemRef) -> RefMissStats | None:
        return self.stats.get(_key(ref))

    def record(self, ref: MemRef, level: int, latency: float) -> None:
        entry = self.stats.setdefault(_key(ref), RefMissStats())
        entry.add(level, latency)


class _LoadSampler:
    """A trace sink that records every demand load against its reference.

    It wants memory events only; each ``LoadIssue`` carries the issuing
    load's slot, its position in the loop's load list.
    """

    wants_issues = False
    wants_uses = False
    wants_stalls = False
    wants_memory = True

    def __init__(self, profile: MissProfile, refs: list[MemRef]):
        self.profile = profile
        self.refs = refs

    def emit(self, event) -> None:
        if event.kind == "load":
            self.profile.record(
                self.refs[event.slot], event.level, event.latency
            )


def collect_miss_profile(
    loop_factory,
    machine: ItaniumMachine,
    trip_counts: list[int],
    config: CompilerConfig | None = None,
    seed: int = 17,
) -> MissProfile:
    """Run a sampled training execution and collect per-ref miss levels.

    ``loop_factory`` returns a fresh ``(loop, layout)`` pair (the workload
    templates have this shape).  The loop is compiled with the *baseline*
    configuration — sampling observes the unoptimised behaviour, the same
    way a sampling profiler observes a plain training binary — and run
    through :func:`~repro.sim.executor.simulate_loop`, so the training run
    sees the same pre-warm and restarting streams as a measured run.
    """
    from repro.core.compiler import LoopCompiler
    from repro.sim.executor import simulate_loop

    config = config or baseline_config()
    loop, layout = loop_factory()
    result = LoopCompiler(machine, config).compile(loop).result
    profile = MissProfile()
    sampler = _LoadSampler(
        profile, [inst.memref for inst in result.loop.loads]
    )
    simulate_loop(
        result, machine, layout, trip_counts, seed=seed, sink=sampler
    )
    return profile


#: miss level -> hint token
_LEVEL_TO_HINT = {
    1: LatencyHint.NONE,
    2: LatencyHint.L2,
    3: LatencyHint.L3,
    4: LatencyHint.MEM,
}


def hints_from_miss_profile(loop: Loop, profile: MissProfile) -> int:
    """Set hints on ``loop``'s loaded references from measured behaviour.

    Returns the number of references that received a hint.  FP references
    whose typical level is L2 get no hint — their base latency already
    covers an L2 hit.
    """
    marked = 0
    for inst in loop.body:
        if not inst.is_load or inst.memref is None:
            continue
        ref = inst.memref
        stats = profile.for_ref(ref)
        if stats is None or not stats.samples:
            continue
        level = stats.typical_level
        hint = _LEVEL_TO_HINT[level]
        if ref.is_fp and level <= 2:
            hint = LatencyHint.NONE
        if hint is not LatencyHint.NONE:
            ref.hint = hint
            ref.hint_source = "sampled"
            marked += 1
    return marked
