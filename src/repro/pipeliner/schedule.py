"""Schedule objects and the derived per-load placement metrics.

The scheduler assigns every operation an absolute time ``t >= 0`` for one
source iteration; the kernel executes operation ``op`` of source iteration
``i`` at absolute cycle ``i*II + t(op)`` (plus dynamic stalls).  Derived
quantities used throughout the paper:

* stage of ``op``      = ``t // II``
* stage count SC       = ``max stage + 1``
* load-use distance    = ``min over data uses of (t(use) + II*omega - t(load))``
* additional latency d = distance − base latency (Sec. 2.1)
* clustering factor k  = ``d // II + 1``  (Equ. (3): d = (k−1)·II)
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.ddg.graph import DDG
from repro.ir.instructions import Instruction
from repro.machine.itanium2 import ItaniumMachine
from repro.pipeliner.criticality import Criticality


@dataclass(frozen=True)
class LoadPlacement:
    """Scheduling facts about one load in a finished schedule."""

    load: Instruction
    time: int
    #: distance in cycles to the earliest data use (across iterations)
    use_distance: int | None
    base_latency: int
    scheduled_latency: int
    boosted: bool

    @property
    def additional_latency(self) -> int:
        """``d`` of Sec. 2.1: schedule distance beyond the base latency."""
        if self.use_distance is None:
            return 0
        return max(0, self.use_distance - self.base_latency)

    def clustering_factor(self, ii: int) -> int:
        """``k`` of Equ. (3): instances in flight before the first use."""
        return self.additional_latency // ii + 1

    def coverage_ratio(self, runtime_latency: int) -> float:
        """``c`` of Equ. (1) for an actual runtime latency ``L+1``."""
        exposable = runtime_latency - self.base_latency
        if exposable <= 0:
            return 1.0
        return min(1.0, self.additional_latency / exposable)


@dataclass
class Schedule:
    """A feasible modulo schedule for one loop."""

    ddg: DDG
    ii: int
    times: dict[Instruction, int]
    machine: ItaniumMachine
    criticality: Criticality

    def __post_init__(self) -> None:
        if self.times:
            shift = min(self.times.values())
            if shift:
                self.times = {i: t - shift for i, t in self.times.items()}

    # --- basic accessors ---------------------------------------------------
    @property
    def loop(self):
        return self.ddg.loop

    def time_of(self, inst: Instruction) -> int:
        return self.times[inst]

    def row_of(self, inst: Instruction) -> int:
        return self.times[inst] % self.ii

    def stage_of(self, inst: Instruction) -> int:
        return self.times[inst] // self.ii

    @property
    def makespan(self) -> int:
        """Schedule length of one source iteration (last issue time + 1)."""
        return max(self.times.values()) + 1 if self.times else 0

    @property
    def stage_count(self) -> int:
        """Number of pipeline stages SC."""
        if not self.times:
            return 1
        return max(self.times.values()) // self.ii + 1

    @property
    def extra_kernel_iterations(self) -> int:
        """Fill/drain cost: SC − 1 extra kernel iterations per execution."""
        return self.stage_count - 1

    # --- latency policy ------------------------------------------------------
    def scheduled_latency(self, load: Instruction) -> int:
        """The latency the scheduler assumed for ``load``'s data result."""
        if self.criticality.is_boosted(load):
            return self.machine.expected_load_latency(load)
        return self.machine.base_latency(load)

    # --- load metrics ----------------------------------------------------------
    def load_use_distance(self, load: Instruction) -> int | None:
        """Cycles between ``load`` and its earliest data use (or ``None``)."""
        edges = self.ddg.first_uses_of_load(load)
        if not edges:
            return None
        return min(
            self.times[e.dst] + self.ii * e.omega - self.times[load]
            for e in edges
        )

    def load_placements(self) -> list[LoadPlacement]:
        placements = []
        for load in self.loop.loads:
            placements.append(
                LoadPlacement(
                    load=load,
                    time=self.times[load],
                    use_distance=self.load_use_distance(load),
                    base_latency=self.machine.base_latency(load),
                    scheduled_latency=self.scheduled_latency(load),
                    boosted=self.criticality.is_boosted(load),
                )
            )
        return placements

    def verify(self) -> None:
        """Assert all dependence constraints hold (tests/invariants)."""
        from repro.errors import SchedulingError

        for edge in self.ddg.edges:
            lat = edge.latency(
                self.machine.latency_query, self.criticality.expected_fn(edge)
            )
            lhs = self.times[edge.dst]
            rhs = self.times[edge.src] + lat - self.ii * edge.omega
            if lhs < rhs:
                raise SchedulingError(
                    f"dependence violated in {self.loop.name}: {edge} "
                    f"t(dst)={lhs} < t(src)+lat-II*w={rhs}"
                )

    def format(self) -> str:
        """Human-readable schedule dump grouped by stage and row."""
        from repro.ir.printer import format_instruction

        lines = [
            f"schedule {self.loop.name}: II={self.ii} stages={self.stage_count}"
        ]
        for inst in sorted(self.loop.body, key=lambda i: (self.times[i], i.index)):
            lines.append(
                f"  t={self.times[inst]:3d} row={self.row_of(inst)} "
                f"stage={self.stage_of(inst)}  {format_instruction(inst)}"
            )
        return "\n".join(lines)
