"""Performance counters mirroring the Itanium 2 cycle-accounting buckets.

Fig. 10 of the paper decomposes CPU2006 runtime into microarchitectural
states measured with HP Caliper; the simulator maintains the same buckets:

* ``unstalled``           — cycles the in-order pipeline issues normally;
* ``be_exe_bubble``       — back-end stalls waiting for (memory) data,
  i.e. the stall-on-use cycles latency-tolerant scheduling attacks;
* ``be_l1d_fpu_bubble``   — stalls from the L1D/FPU pipeline, dominated
  here by a full OzQ (``ozq_full_cycles`` is the matching sub-counter);
* ``be_rse_bubble``       — register stack engine spill/fill traffic;
* ``be_flush_bubble``     — pipeline flushes (branch mispredictions);
* ``back_end_bubble_fe``  — front-end starvation.
"""

from __future__ import annotations

from dataclasses import dataclass, field


@dataclass
class PerfCounters:
    """Cycle-accounting and event counters for one simulation run."""

    unstalled: float = 0.0
    be_exe_bubble: float = 0.0
    be_l1d_fpu_bubble: float = 0.0
    be_rse_bubble: float = 0.0
    be_flush_bubble: float = 0.0
    back_end_bubble_fe: float = 0.0

    ozq_full_cycles: float = 0.0
    #: use-stall cycles covered by load-delay tracking (ldt machines);
    #: overlapped with independent work, so NOT part of any cycle bucket
    ldt_hidden_cycles: float = 0.0
    #: speculative-LSQ ordering violations and the replay cycles they
    #: cost; the cycles are charged into ``be_flush_bubble``
    slsq_replays: int = 0
    slsq_replay_cycles: float = 0.0
    #: demand loads by satisfying level: {1: L1D, 2: L2, 3: L3, 4: memory}
    loads_by_level: dict[int, int] = field(default_factory=dict)
    prefetches_issued: int = 0
    #: prefetches dropped because the OzQ was full (hints are discarded)
    prefetches_dropped_ozq: int = 0
    kernel_iterations: int = 0
    source_iterations: int = 0
    invocations: int = 0
    spill_instructions: int = 0
    #: stall-on-use cycles attributed to the stalling consumer, keyed by
    #: "loopname#index:mnemonic" — diagnostic for tests and tuning
    stall_by_consumer: dict[str, float] = field(default_factory=dict)

    def attribute_stall(self, consumer: str, cycles: float) -> None:
        self.stall_by_consumer[consumer] = (
            self.stall_by_consumer.get(consumer, 0.0) + cycles
        )

    @property
    def total_cycles(self) -> float:
        return (
            self.unstalled
            + self.be_exe_bubble
            + self.be_l1d_fpu_bubble
            + self.be_rse_bubble
            + self.be_flush_bubble
            + self.back_end_bubble_fe
        )

    @property
    def stall_cycles(self) -> float:
        return self.total_cycles - self.unstalled

    def merge(self, other: "PerfCounters") -> None:
        self.unstalled += other.unstalled
        self.be_exe_bubble += other.be_exe_bubble
        self.be_l1d_fpu_bubble += other.be_l1d_fpu_bubble
        self.be_rse_bubble += other.be_rse_bubble
        self.be_flush_bubble += other.be_flush_bubble
        self.back_end_bubble_fe += other.back_end_bubble_fe
        self.ozq_full_cycles += other.ozq_full_cycles
        self.ldt_hidden_cycles += other.ldt_hidden_cycles
        self.slsq_replays += other.slsq_replays
        self.slsq_replay_cycles += other.slsq_replay_cycles
        for level, count in other.loads_by_level.items():
            self.loads_by_level[level] = (
                self.loads_by_level.get(level, 0) + count
            )
        self.prefetches_issued += other.prefetches_issued
        self.prefetches_dropped_ozq += other.prefetches_dropped_ozq
        self.kernel_iterations += other.kernel_iterations
        self.source_iterations += other.source_iterations
        self.invocations += other.invocations
        self.spill_instructions += other.spill_instructions
        for key, cycles in other.stall_by_consumer.items():
            self.stall_by_consumer[key] = (
                self.stall_by_consumer.get(key, 0.0) + cycles
            )

    def summary(self) -> str:
        total = self.total_cycles or 1.0
        parts = [f"total={total:.0f}"]
        for name in (
            "unstalled",
            "be_exe_bubble",
            "be_l1d_fpu_bubble",
            "be_rse_bubble",
            "be_flush_bubble",
            "back_end_bubble_fe",
        ):
            value = getattr(self, name)
            parts.append(f"{name}={value:.0f} ({100 * value / total:.1f}%)")
        return " ".join(parts)
