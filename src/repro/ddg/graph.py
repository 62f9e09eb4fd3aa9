"""DDG construction from a loop body.

Register dependences
    For every use of a virtual register with a definition in the body we add
    a FLOW edge.  If the definition appears at the same body position or
    later, the use reads the *previous* iteration's value, so the edge is
    loop-carried (``omega = 1``).  This covers post-incremented address
    registers (``ld4 r4 = [r5], 4`` both reads and increments ``r5``) and
    accumulator recurrences (``fadd acc = acc, x``).

    Anti and output register dependences are omitted for virtual registers:
    register rotation renames every iteration's definition into a fresh
    rotating register, which is exactly why the Itanium pipeliner does not
    need them either (Sec. 1.1).

Memory dependences
    Two references may alias when they touch the same ``space``.  Pairs of
    affine references with compile-time strides are assumed analysable and
    independent *across* iterations (the usual outcome of data-dependence
    analysis for the loops we model), but keep their intra-iteration
    ordering edges.  Any pair involving a symbolically-strided, indirect,
    pointer-chasing or invariant reference gets conservative loop-carried
    edges as well.  Prefetches are hints and never constrain the schedule.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.ddg.edges import DepEdge, DepKind
from repro.ir.instructions import Instruction
from repro.ir.loop import Loop
from repro.ir.memref import AccessPattern, MemRef


@dataclass
class DDG:
    """The dependence graph of one loop."""

    loop: Loop
    edges: list[DepEdge] = field(default_factory=list)
    _succs: dict[int, list[DepEdge]] = field(default_factory=dict)
    _preds: dict[int, list[DepEdge]] = field(default_factory=dict)

    @property
    def nodes(self) -> list[Instruction]:
        return self.loop.body

    def add_edge(self, edge: DepEdge) -> None:
        self.edges.append(edge)
        self._succs.setdefault(edge.src.index, []).append(edge)
        self._preds.setdefault(edge.dst.index, []).append(edge)

    def succs(self, inst: Instruction) -> list[DepEdge]:
        return self._succs.get(inst.index, [])

    def preds(self, inst: Instruction) -> list[DepEdge]:
        return self._preds.get(inst.index, [])

    def first_uses_of_load(self, load: Instruction) -> list[DepEdge]:
        """FLOW edges carrying the load's *data* result (not the post-inc)."""
        data_defs = set(load.defs)
        return [
            e
            for e in self.succs(load)
            if e.kind is DepKind.FLOW and e.reg in data_defs
        ]

    def __repr__(self) -> str:
        return f"DDG({self.loop.name}, {len(self.nodes)} nodes, {len(self.edges)} edges)"


def _affine_analysable(ref: MemRef) -> bool:
    return ref.pattern is AccessPattern.AFFINE and (ref.stride or 0) != 0


def _may_alias(a: MemRef, b: MemRef) -> bool:
    return a.space == b.space


def _memory_edge_kind(src: Instruction, dst: Instruction) -> DepKind | None:
    if src.is_store and dst.is_load:
        return DepKind.MEM_FLOW
    if src.is_load and dst.is_store:
        return DepKind.MEM_ANTI
    if src.is_store and dst.is_store:
        return DepKind.MEM_OUTPUT
    return None


def build_ddg(loop: Loop) -> DDG:
    """Construct the cyclic data-dependence graph of ``loop``."""
    ddg = DDG(loop)

    # one pass to map each virtual register to its unique defining site
    def_site: dict = {}
    for inst in loop.body:
        for reg in inst.all_defs():
            if reg.virtual:
                def_site[reg] = inst

    # register flow edges
    for inst in loop.body:
        for reg in inst.all_uses():
            producer = def_site.get(reg)
            if producer is None:
                continue  # live-in
            omega = 1 if producer.index >= inst.index else 0
            ddg.add_edge(DepEdge(producer, inst, DepKind.FLOW, omega, reg=reg))

    # memory ordering edges (prefetches excluded: they are hints)
    from repro.ddg.dependence import DependenceVerdict, test_dependence

    mem_ops = [i for i in loop.body if (i.is_load or i.is_store)]
    for a_pos, a in enumerate(mem_ops):
        for b in mem_ops[a_pos + 1 :]:
            if not (a.is_store or b.is_store):
                continue
            assert a.memref is not None and b.memref is not None
            if not _may_alias(a.memref, b.memref):
                continue
            if a.memref.space in loop.independent_spaces:
                continue

            result = test_dependence(a.memref, b.memref)
            if result.independent:
                continue
            if result.verdict is DependenceVerdict.DISTANCE:
                # exact distance from the affine test: A(i) touches the
                # address B(i + d) touches
                d = result.distance
                if d >= 0:
                    kind = _memory_edge_kind(a, b)
                    if kind is not None:
                        ddg.add_edge(DepEdge(a, b, kind, d, memref=a.memref))
                else:
                    kind = _memory_edge_kind(b, a)
                    if kind is not None:
                        ddg.add_edge(
                            DepEdge(b, a, kind, -d, memref=b.memref)
                        )
                continue

            # unanalysable pair: conservative intra- and cross-iteration
            kind = _memory_edge_kind(a, b)
            if kind is not None:
                ddg.add_edge(DepEdge(a, b, kind, 0, memref=a.memref))
            back_kind = _memory_edge_kind(b, a)
            if back_kind is not None:
                ddg.add_edge(DepEdge(b, a, back_kind, 1, memref=b.memref))

    # loop-carried self-dependences for non-analysable stores
    for inst in mem_ops:
        if not inst.is_store:
            continue
        assert inst.memref is not None
        if _affine_analysable(inst.memref):
            continue
        if inst.memref.space in loop.independent_spaces:
            continue
        ddg.add_edge(
            DepEdge(inst, inst, DepKind.MEM_OUTPUT, 1, memref=inst.memref)
        )

    return ddg
