"""Execution resources of an Itanium-2-class core.

The model is a per-cycle capacity table built from a machine
description's port map and issue width (the Dual-Core Itanium 2 has two
memory ports, two integer ports, two FP ports, three branch ports, and
a total issue width of six).  ``A``-type operations (simple integer ALU)
may execute on either a memory or an integer port, which both the
Resource II bound and the modulo reservation table honour.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from repro.errors import MachineModelError
from repro.ir.instructions import Instruction
from repro.ir.opcodes import UnitClass


@dataclass(frozen=True)
class ResourceModel:
    """Issue capacities plus the Resource II lower bound."""

    #: per-cycle issue capacity of each unit class
    capacities: dict[UnitClass, int]
    #: total instructions issued per cycle
    issue_width: int

    def capacity(self, unit: UnitClass) -> int:
        if unit is UnitClass.A:
            return self.capacities[UnitClass.M] + self.capacities[UnitClass.I]
        if unit is UnitClass.NONE:
            return self.issue_width
        try:
            return self.capacities[unit]
        except KeyError:
            raise MachineModelError(f"no capacity for unit class {unit}") from None

    def resource_ii(self, body: list[Instruction]) -> int:
        """Minimum II dictated by execution resources (Sec. 1.1).

        Accounts for A-type flexibility: M and I demands are combined with
        the A-type population against the pooled M+I capacity.
        """
        counts = {unit: 0 for unit in UnitClass}
        for inst in body:
            counts[inst.opcode.unit] += 1

        cap_m = self.capacities[UnitClass.M]
        cap_i = self.capacities[UnitClass.I]
        cap_f = self.capacities[UnitClass.F]

        bounds = [
            math.ceil(counts[UnitClass.M] / cap_m),
            math.ceil(counts[UnitClass.F] / cap_f),
            math.ceil(
                (counts[UnitClass.M] + counts[UnitClass.I] + counts[UnitClass.A])
                / (cap_m + cap_i)
            ),
            math.ceil(
                (len(body) + 1) / self.issue_width  # +1 for the implicit branch
            ),
        ]
        if counts[UnitClass.I]:
            bounds.append(math.ceil(counts[UnitClass.I] / cap_i))
        return max(1, *bounds)
