"""Dependence edges.

A scheduled loop must satisfy, for every edge ``e = (src, dst)``::

    t(dst) >= t(src) + latency(e) - II * omega(e)

where ``t`` are kernel schedule times and ``omega`` is the dependence
distance in source iterations.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from typing import Callable, Optional

from repro.ir.instructions import Instruction
from repro.ir.memref import MemRef
from repro.ir.registers import Reg

#: Resolves the result latency of ``inst`` producing ``reg``.  The boolean
#: asks for the *expected* (hint-derived) latency instead of the base one.
LatencyQuery = Callable[[Instruction, Optional[Reg], bool], int]


class DepKind(enum.Enum):
    """Kinds of dependences between loop-body instructions."""

    FLOW = "flow"  #: register true dependence (def -> use)
    ANTI = "anti"  #: register anti dependence (use -> def)
    OUTPUT = "output"  #: register output dependence (def -> def)
    MEM_FLOW = "mem-flow"  #: store -> load, may-alias
    MEM_ANTI = "mem-anti"  #: load -> store, may-alias
    MEM_OUTPUT = "mem-out"  #: store -> store, may-alias

    @property
    def is_register(self) -> bool:
        return self in (DepKind.FLOW, DepKind.ANTI, DepKind.OUTPUT)

    @property
    def is_memory(self) -> bool:
        return not self.is_register


#: Fixed latencies of non-flow edges: an anti dependence allows same-cycle
#: placement; output and memory ordering edges require one cycle.
_FIXED_LATENCY = {
    DepKind.ANTI: 0,
    DepKind.MEM_ANTI: 0,
    DepKind.OUTPUT: 1,
    DepKind.MEM_OUTPUT: 1,
    DepKind.MEM_FLOW: 1,
}


@dataclass(frozen=True, slots=True)
class DepEdge:
    """One dependence edge of the DDG."""

    src: Instruction
    dst: Instruction
    kind: DepKind
    omega: int
    reg: Reg | None = None
    memref: MemRef | None = None

    def __post_init__(self) -> None:
        from repro.errors import DependenceError

        if self.omega < 0:
            raise DependenceError(f"negative dependence distance: {self}")

    def latency(self, query: LatencyQuery, expected: bool = False) -> int:
        """Resolve this edge's latency.

        Register flow edges take the producing instruction's result latency
        (where load latencies depend on hints and criticality); all other
        kinds have fixed small latencies.
        """
        if self.kind is DepKind.FLOW:
            return query(self.src, self.reg, expected)
        return _FIXED_LATENCY[self.kind]

    def __repr__(self) -> str:
        what = self.reg or (self.memref.name if self.memref else "")
        return (
            f"DepEdge({self.src.index}->{self.dst.index} "
            f"{self.kind.value}[{what}] w={self.omega})"
        )
