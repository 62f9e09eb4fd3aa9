"""Modulo reservation table (MRT).

Tracks per-row (cycle mod II) occupancy of execution resources.  An
operation placed at schedule time ``t`` occupies resources in row
``t mod II`` of *every* kernel iteration, which is exactly what the MRT
enforces.  ``A``-type operations may take an I or an M slot; the table
records which one was chosen so removal frees the right resource.  One
B-port slot and one issue slot in the last row are reserved for the
implicit ``br.ctop``.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.ir.instructions import Instruction
from repro.ir.opcodes import UnitClass
from repro.machine.resources import ResourceModel


@dataclass
class _Row:
    used: dict[UnitClass, int]
    issue: int


class ModuloReservationTable:
    """Resource occupancy for one candidate II."""

    def __init__(self, ii: int, resources: ResourceModel) -> None:
        if ii < 1:
            raise ValueError(f"II must be >= 1, got {ii}")
        self.ii = ii
        self.resources = resources
        self._rows = [
            _Row(used={u: 0 for u in UnitClass if u in resources.capacities}, issue=0)
            for _ in range(ii)
        ]
        # reserve the loop branch in the last row
        self._rows[ii - 1].used[UnitClass.B] += 1
        self._rows[ii - 1].issue += 1
        #: inst -> (row, concrete unit class charged)
        self._placed: dict[Instruction, tuple[int, UnitClass]] = {}

    # --- queries ---------------------------------------------------------
    def row_of(self, time: int) -> int:
        return time % self.ii

    def _unit_choices(self, inst: Instruction) -> tuple[UnitClass, ...]:
        unit = inst.opcode.unit
        if unit is UnitClass.A:
            return (UnitClass.I, UnitClass.M)
        if unit is UnitClass.NONE:
            return ()
        return (unit,)

    def fits(self, inst: Instruction, time: int) -> bool:
        """Whether ``inst`` can be placed at ``time`` given current occupancy."""
        row = self._rows[self.row_of(time)]
        if row.issue >= self.resources.issue_width:
            return False
        choices = self._unit_choices(inst)
        if not choices:
            return True
        return any(
            row.used[u] < self.resources.capacities[u] for u in choices
        )

    def branch_fits(self, row: int) -> bool:
        """Whether ``row`` has the issue slot and B port the loop branch
        takes (the reservation in the last row already holds them)."""
        r = self._rows[row]
        return (
            r.issue < self.resources.issue_width
            and r.used[UnitClass.B] < self.resources.capacities[UnitClass.B]
        )

    def place(self, inst: Instruction, time: int) -> None:
        if inst in self._placed:
            raise ValueError(f"{inst!r} already placed")
        if not self.fits(inst, time):
            raise ValueError(f"no resources for {inst!r} at t={time}")
        r = self.row_of(time)
        row = self._rows[r]
        charged = UnitClass.NONE
        for u in self._unit_choices(inst):
            if row.used[u] < self.resources.capacities[u]:
                row.used[u] += 1
                charged = u
                break
        row.issue += 1
        self._placed[inst] = (r, charged)

    def remove(self, inst: Instruction) -> None:
        r, charged = self._placed.pop(inst)
        row = self._rows[r]
        if charged is not UnitClass.NONE:
            row.used[charged] -= 1
        row.issue -= 1

    def occupants_of_row(self, row: int) -> list[Instruction]:
        return [inst for inst, (r, _) in self._placed.items() if r == row]

    def __contains__(self, inst: Instruction) -> bool:
        return inst in self._placed

    def __len__(self) -> int:
        return len(self._placed)
