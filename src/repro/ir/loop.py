"""Loop container and trip-count information.

A :class:`Loop` is a single-block, if-converted innermost loop ready for the
software pipeliner, plus the metadata the High-Level Optimizer needs: the
set of memory references and whatever is known about the trip count.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass, field

from repro.errors import IRError
from repro.ir.instructions import Instruction
from repro.ir.memref import MemRef
from repro.ir.registers import Reg

#: assumed trip count when nothing is known
DEFAULT_TRIP_ESTIMATE = 100.0


class TripCountSource(enum.Enum):
    """Where a trip-count estimate came from (Sec. 3.1/3.2).

    The quality ordering matters: PGO-derived average trip counts are
    trusted; static bounds (array sizes) give a maximum; pure heuristics
    from a static profile are low-accuracy (Sec. 4.3, "Results without
    PGO").
    """

    PGO = "pgo"
    STATIC_BOUND = "static-bound"
    SYMBOLIC = "symbolic"
    HEURISTIC = "heuristic"
    UNKNOWN = "unknown"


@dataclass(slots=True)
class TripCountInfo:
    """Compiler knowledge about a loop's trip count."""

    estimate: float | None = None
    source: TripCountSource = TripCountSource.UNKNOWN
    #: upper bound (e.g. from a static array size), if any
    max_trips: int | None = None
    #: True when outer-loop contiguity lets the prefetcher look beyond the
    #: inner loop (Sec. 3.2)
    contiguous_across_outer: bool = False

    @property
    def known(self) -> bool:
        return self.estimate is not None

    def effective_estimate(self, default: float) -> float:
        """The estimate, bounded by ``max_trips`` and defaulted."""
        value = self.estimate if self.estimate is not None else default
        if self.max_trips is not None:
            value = min(value, float(self.max_trips))
        return value


@dataclass(eq=False)
class Loop:
    """An innermost loop: body instructions plus metadata.

    ``body`` excludes the back-edge branch, which every counted loop
    implicitly ends with; the pipeliner materialises ``br.ctop`` in the
    generated kernel.  ``live_in`` registers are defined before the loop
    (loop invariants and initial induction values); ``live_out`` registers
    are read after it.
    """

    name: str
    body: list[Instruction] = field(default_factory=list)
    live_in: set[Reg] = field(default_factory=set)
    live_out: set[Reg] = field(default_factory=set)
    trip_count: TripCountInfo = field(default_factory=TripCountInfo)
    #: True for counted (``br.cloop``) loops; False for while-style loops.
    counted: bool = True
    #: memory spaces known not to alias each other (restrict-style info)
    independent_spaces: frozenset[str] = frozenset()

    def __post_init__(self) -> None:
        self._renumber()

    def _renumber(self) -> None:
        for i, inst in enumerate(self.body):
            inst.index = i

    def append(self, inst: Instruction) -> Instruction:
        inst.index = len(self.body)
        self.body.append(inst)
        return inst

    # --- queries ---------------------------------------------------------
    @property
    def memrefs(self) -> list[MemRef]:
        """All memory references in body order (duplicates removed)."""
        seen: dict[int, MemRef] = {}
        for inst in self.body:
            if inst.memref is not None and inst.memref.uid not in seen:
                seen[inst.memref.uid] = inst.memref
        return list(seen.values())

    @property
    def loads(self) -> list[Instruction]:
        return [i for i in self.body if i.is_load]

    @property
    def stores(self) -> list[Instruction]:
        return [i for i in self.body if i.is_store]

    @property
    def prefetches(self) -> list[Instruction]:
        return [i for i in self.body if i.is_prefetch]

    def defs_of(self, reg: Reg) -> list[Instruction]:
        """All instructions in the body that define ``reg``."""
        return [i for i in self.body if reg in i.all_defs()]

    def unique_def_of(self, reg: Reg) -> Instruction | None:
        """The single defining instruction of ``reg``, if exactly one."""
        defs = self.defs_of(reg)
        if len(defs) == 1:
            return defs[0]
        if len(defs) > 1:
            raise IRError(f"register {reg} has {len(defs)} defs in {self.name}")
        return None

    def uses_of(self, reg: Reg) -> list[Instruction]:
        """All instructions in the body that read ``reg``."""
        return [i for i in self.body if reg in i.all_uses()]

    def virtual_regs(self) -> set[Reg]:
        """All virtual registers referenced by the body."""
        regs: set[Reg] = set()
        for inst in self.body:
            for reg in inst.all_defs() + inst.all_uses():
                if reg.virtual:
                    regs.add(reg)
        return regs

    def without_prefetches(self) -> "Loop":
        """A shallow variant of this loop with lfetch instructions removed.

        Handy for ablations; shares instruction objects for the remainder.
        """
        clone = Loop(
            name=self.name,
            body=[i for i in self.body if not i.is_prefetch],
            live_in=set(self.live_in),
            live_out=set(self.live_out),
            trip_count=self.trip_count,
            counted=self.counted,
            independent_spaces=self.independent_spaces,
        )
        return clone

    def average_trips(self, default: float = DEFAULT_TRIP_ESTIMATE) -> float:
        """Best-effort average trip count for cost heuristics."""
        return self.trip_count.effective_estimate(default)

    def __len__(self) -> int:
        return len(self.body)

    def __iter__(self):
        return iter(self.body)

    def __repr__(self) -> str:
        trips = self.trip_count.estimate
        trips_s = "?" if trips is None else f"{trips:g}"
        return f"Loop({self.name}, {len(self.body)} insts, trips~{trips_s})"


def stage_count_cost(num_stages: int, trips: float) -> float:
    """Relative fill/drain overhead of a pipeline (Sec. 1.1/2.2).

    A pipeline with S stages needs S-1 extra kernel iterations per loop
    execution; relative to ``trips`` useful iterations the overhead factor
    is ``(S - 1) / trips``.
    """
    if trips <= 0:
        return math.inf
    return max(0, num_stages - 1) / trips
