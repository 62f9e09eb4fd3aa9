"""Modulo variable expansion (MVE): pipelining without register rotation.

Sec. 5 of the paper credits rotating registers for making clustering
cheap: "rotating registers easily enable clustering of load instances
from successive iterations ... Without rotating registers, this effect
could only be achieved with unrolling."

This module implements that alternative (Lam, PLDI'88): the kernel is
unrolled ``U`` times, where ``U`` is the longest value lifetime in kernel
iterations, and each unrolled copy ``k`` writes value ``v`` into register
instance ``v#(k mod u_v)``.  A use ``rot`` iterations after the
definition reads instance ``(k − rot) mod u_v``.  Register demand matches
the rotating allocation (Σ spans); the *cost* shows up as code size — the
kernel grows by the unroll factor and the prolog/epilog must be emitted
as explicit partial copies instead of being predicated away.  The code
size comparison is the quantitative version of the paper's argument.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.ir.instructions import Instruction
from repro.ir.registers import Reg
from repro.pipeliner.schedule import Schedule
from repro.regalloc.lifetimes import compute_lifetimes


@dataclass(frozen=True)
class MVEOp:
    """One operation of one unrolled kernel copy."""

    inst: Instruction
    copy: int
    row: int
    #: register instance names as written/read, e.g. ``vr4#2``
    renamed_defs: tuple[str, ...]
    renamed_uses: tuple[str, ...]

    def format(self) -> str:
        from repro.ir.printer import format_instruction

        text = format_instruction(self.inst)
        for reg, name in zip(
            [r for r in self.inst.all_defs() if r.virtual]
            + [r for r in self.inst.all_uses() if r.virtual],
            self.renamed_defs + self.renamed_uses,
        ):
            text = text.replace(str(reg), name, 1)
        return text


@dataclass
class UnrolledKernel:
    """The MVE form of a pipelined loop."""

    loop_name: str
    ii: int
    stage_count: int
    unroll_factor: int
    #: per-copy operation lists
    copies: list[list[MVEOp]] = field(default_factory=list)
    #: register instances required per expanded value
    instances: dict[Reg, int] = field(default_factory=dict)

    @property
    def kernel_ops(self) -> int:
        return sum(len(c) for c in self.copies)

    @property
    def prolog_ops(self) -> int:
        """Explicit fill code: stage ``s`` of the prolog executes only the
        operations of stages ``< s`` — one partial body per fill step."""
        per_stage = self._ops_per_stage()
        return sum(
            sum(per_stage[: s + 1]) for s in range(self.stage_count - 1)
        )

    @property
    def epilog_ops(self) -> int:
        """Explicit drain code: the mirror image of the prolog."""
        per_stage = self._ops_per_stage()
        return sum(
            sum(per_stage[s + 1 :]) for s in range(self.stage_count - 1)
        )

    def _ops_per_stage(self) -> list[int]:
        counts = [0] * self.stage_count
        for op in self.copies[0]:
            counts[self._stages[op.inst.index]] += 1
        return counts

    @property
    def total_ops(self) -> int:
        """Static code size including fill and drain copies."""
        return self.kernel_ops + self.prolog_ops + self.epilog_ops

    def expansion_factor(self, body_size: int) -> float:
        """Static code growth over the rotating-register kernel, whose
        size is exactly one loop body."""
        return self.total_ops / max(1, body_size)

    def format(self, max_copies: int = 2) -> str:
        lines = [
            f"L_{self.loop_name}_mve:  // II={self.ii}, "
            f"unrolled x{self.unroll_factor}, "
            f"{self.total_ops} static ops incl. fill/drain"
        ]
        for k, copy in enumerate(self.copies[:max_copies]):
            lines.append(f"  // copy {k}")
            for op in copy:
                lines.append(f"  {op.format()}")
        if len(self.copies) > max_copies:
            lines.append(f"  // ... {len(self.copies) - max_copies} more copies")
        return "\n".join(lines)


def generate_mve_kernel(schedule: Schedule) -> UnrolledKernel:
    """Unroll-and-rename the schedule for a rotation-less target."""
    from repro.ddg.edges import DepKind

    ii = schedule.ii
    lifetimes = compute_lifetimes(schedule)
    spans = {lt.reg: lt.span(ii) for lt in lifetimes}
    unroll = max(spans.values(), default=1)

    # rotation distance per (consumer index, reg), as in kernel generation
    rotations: dict[tuple[int, Reg], int] = {}
    for edge in schedule.ddg.edges:
        if edge.kind is not DepKind.FLOW or edge.reg is None:
            continue
        if edge.reg not in spans:
            continue
        t_def = schedule.time_of(edge.src)
        t_use = schedule.time_of(edge.dst) + ii * edge.omega
        rot = t_use // ii - t_def // ii
        key = (edge.dst.index, edge.reg)
        rotations[key] = max(rotations.get(key, 0), rot)

    kernel = UnrolledKernel(
        loop_name=schedule.loop.name,
        ii=ii,
        stage_count=schedule.stage_count,
        unroll_factor=unroll,
        instances=dict(spans),
    )
    kernel._stages = {
        inst.index: schedule.stage_of(inst) for inst in schedule.loop.body
    }

    order = sorted(
        schedule.loop.body,
        key=lambda i: (schedule.row_of(i), i.index),
    )
    for k in range(unroll):
        copy: list[MVEOp] = []
        for inst in order:
            defs = tuple(
                _instance_name(reg, k, spans)
                for reg in inst.all_defs()
                if reg.virtual
            )
            uses = []
            for reg in inst.all_uses():
                if not reg.virtual:
                    continue
                if reg in spans:
                    rot = rotations.get((inst.index, reg), 0)
                    uses.append(_instance_name(reg, k - rot, spans))
                else:
                    uses.append(str(reg))  # static / self-recurrent
            copy.append(
                MVEOp(
                    inst=inst,
                    copy=k,
                    row=schedule.row_of(inst),
                    renamed_defs=defs,
                    renamed_uses=tuple(uses),
                )
            )
        kernel.copies.append(copy)
    return kernel


def _instance_name(reg: Reg, k: int, spans: dict[Reg, int]) -> str:
    if reg not in spans:
        return str(reg)
    u = max(1, spans[reg])
    return f"{reg}#{k % u}"
