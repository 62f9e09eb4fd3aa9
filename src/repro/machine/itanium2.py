"""The runtime machine model built from a :class:`MachineDescription`.

Bundles the resource model, the latency tables, and — most importantly —
the latency-query interface of Sec. 3.3: "the pipeliner queries the machine
model component of the code generator to obtain the latencies of
instructions.  For loads, an additional parameter is provided with the
query that specifies whether the machine model should return the minimum
(base) latency of the load, or a (possibly higher) expected latency value
specified by HLO hints."

The class keeps its historical name — ``ItaniumMachine()`` with no
arguments is still the paper's Dual-Core Itanium 2, bit-identical to the
pre-registry model — but any registered :class:`MachineDescription` can be
realised through :func:`build_machine`.  The description is the machine's
only state besides its register files: the resource model, timings, hint
translation, OzQ depth, hierarchy geometry, queue discipline and
scoreboard policy are all read from it.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from functools import cached_property

from repro.ir.instructions import Instruction
from repro.ir.opcodes import UnitClass
from repro.ir.registers import Reg, RegClass, RegisterFile, itanium_register_files
from repro.machine.description import (
    ITANIUM2,
    MachineDescription,
    MemoryTimings,
    QueueDiscipline,
    ScoreboardPolicy,
    machine_description,
)
from repro.machine.hints import HintTranslation
from repro.machine.resources import ResourceModel

__all__ = [
    "ItaniumMachine",
    "Machine",
    "MemoryTimings",
    "build_machine",
]


@dataclass(frozen=True)
class ItaniumMachine:
    """Everything the compiler and the simulator know about the target."""

    #: the declarative source of every machine fact below
    description: MachineDescription = ITANIUM2
    #: the one fact the description does not carry
    register_files: dict[RegClass, RegisterFile] = field(
        default_factory=itanium_register_files
    )

    # --- description views -------------------------------------------------
    @cached_property
    def resources(self) -> ResourceModel:
        """Issue capacities from the description's port map (cached: the
        scheduler reads it for every op it places)."""
        d = self.description
        return ResourceModel(
            capacities={UnitClass[unit]: cap for unit, cap in d.ports},
            issue_width=d.issue_width,
        )

    @property
    def timings(self) -> MemoryTimings:
        return self.description.timings

    @property
    def translation(self) -> HintTranslation:
        return self.description.translation

    @property
    def ozq_capacity(self) -> int:
        """Outstanding memory requests the queue sustains without stalling
        ("At least 48 outstanding requests can be active throughout the
        memory hierarchy without stalling the execution pipeline", Sec. 2)."""
        return self.description.queue.capacity

    # --- identity ----------------------------------------------------------
    @property
    def name(self) -> str:
        return self.description.name

    @property
    def queue(self) -> QueueDiscipline:
        return self.description.queue

    @property
    def scoreboard(self) -> ScoreboardPolicy:
        return self.description.scoreboard

    def digest(self) -> str:
        return self.description.digest()

    # --- latency queries ---------------------------------------------------
    def base_latency(self, inst: Instruction) -> int:
        """Minimum (base) result latency of ``inst``."""
        if self.description.latency_overrides:
            override = self.description.latency_override_map.get(
                inst.opcode.mnemonic
            )
            if override is not None:
                return override
        return inst.opcode.latency

    def expected_load_latency(self, inst: Instruction) -> int:
        """Hint-derived expected latency of a load (Sec. 3.3)."""
        base = self.base_latency(inst)
        if not inst.is_load or inst.memref is None:
            return base
        return self.translation.scheduling_latency(
            inst.memref.hint, inst.is_fp, base
        )

    def flow_latency(
        self, inst: Instruction, reg: Reg | None, expected: bool
    ) -> int:
        """Latency of the value ``inst`` produces in ``reg``.

        The post-incremented address register of a memory operation is an
        ALU-style result available after one cycle; only the *data* result
        of a load carries the memory latency.
        """
        if inst.is_memory and reg is not None and reg not in inst.defs:
            return 1  # post-increment address result
        if inst.is_load:
            if expected:
                return self.expected_load_latency(inst)
            return self.base_latency(inst)
        return max(1, self.base_latency(inst))

    @property
    def latency_query(self):
        """The query callable consumed by the DDG layer."""
        return self.flow_latency

    # --- derived structure -------------------------------------------------
    def memory_system(self):
        """A fresh :class:`~repro.sim.memory.MemorySystem` built from the
        description (caches, TLB, L2 banking, timings)."""
        from repro.sim.memory import MemorySystem

        return MemorySystem(self.description)

    def with_translation(self, translation: HintTranslation) -> "ItaniumMachine":
        """A copy of this machine using a different hint translation."""
        return self._with(translation=translation)

    def with_ozq_capacity(self, capacity: int) -> "ItaniumMachine":
        """A copy with a different OzQ depth (for MLP ablations)."""
        return self._with(
            queue=replace(self.description.queue, capacity=capacity)
        )

    def _with(self, **changes) -> "ItaniumMachine":
        return ItaniumMachine(
            description=self.description.with_(**changes),
            register_files=self.register_files,
        )

    def rotating_capacity(self, rclass: RegClass) -> int:
        return self.register_files[rclass].rotating_size


#: The runtime model is machine-agnostic; keep a neutral alias.
Machine = ItaniumMachine


def build_machine(source: str | MachineDescription) -> ItaniumMachine:
    """Realise a runtime machine from a description or a registered name.

    Unknown names raise :class:`~repro.errors.MachineModelError`.
    """
    if not isinstance(source, MachineDescription):
        source = machine_description(source)
    return ItaniumMachine(description=source)
