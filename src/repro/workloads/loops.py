"""Loop templates: the hot-loop archetypes behind the paper's results.

Each template builds a fresh :class:`~repro.ir.loop.Loop` plus the
:class:`~repro.sim.address.StreamSpec` layout describing the runtime
behaviour of its memory spaces.  Templates are pure factories — every call
returns new IR, so compilations under different configs never share
mutable memrefs.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

from repro.ir.builder import LoopBuilder
from repro.ir.loop import Loop
from repro.ir.memref import AccessPattern
from repro.sim.address import StreamSpec

KB = 1024
MB = 1024 * 1024

LoopFactory = Callable[[], tuple[Loop, dict[str, StreamSpec]]]


@dataclass(frozen=True)
class LoopTemplate:
    """A named loop factory with a short description."""

    name: str
    build: LoopFactory
    description: str


def stream_int(
    name: str,
    streams: int = 1,
    working_set: int = 64 * MB,
    stride: int = 4,
    reuse: bool = False,
) -> tuple[Loop, dict[str, StreamSpec]]:
    """Integer streaming: ``c[i] = a0[i] + a1[i] + ... + k`` (the running
    example generalised).  With ``streams > 4`` the prefetcher's OzQ
    pressure rule kicks in (Sec. 3.2 rule 3)."""
    b = LoopBuilder()
    addend = b.live_greg("addend")
    acc = None
    for s in range(streams):
        ref = b.memref(f"a{s}", stride=stride, size=4, space=f"{name}.a{s}")
        addr = b.live_greg(f"pa{s}")
        x = b.load("ld4", addr, ref, post_inc=stride)
        acc = x if acc is None else b.alu("add", acc, x)
    assert acc is not None
    total = b.alu("add", acc, addend)
    out = b.memref("c", stride=stride, size=4, space=f"{name}.c")
    b.store("st4", b.live_greg("pc"), total, out, post_inc=stride)
    loop = b.build(name)
    layout = {
        f"{name}.a{s}": StreamSpec(size=working_set, reuse=reuse)
        for s in range(streams)
    }
    layout[f"{name}.c"] = StreamSpec(size=working_set, reuse=reuse)
    return loop, layout


def stream_fp(
    name: str,
    working_set: int = 64 * MB,
    reuse: bool = False,
    extra_flops: int = 1,
    stride: int = 8,
) -> tuple[Loop, dict[str, StreamSpec]]:
    """FP daxpy-style kernel: ``y[i] = a*x[i] + y[i]`` with optional extra
    dependent fma work per iteration (namd/wrf-style FP loops).  A stride
    wider than a cache line (lbm-style scattered lattice cells) makes every
    iteration miss and keeps many fills in flight — OzQ pressure."""
    b = LoopBuilder()
    a = b.live_freg("a")
    xref = b.memref("x", stride=stride, size=8, is_fp=True, space=f"{name}.x")
    yref = b.memref("y", stride=stride, size=8, is_fp=True, space=f"{name}.y")
    px, py, pz = b.live_greg("px"), b.live_greg("py"), b.live_greg("pz")
    x = b.load("ldfd", px, xref, post_inc=stride)
    y = b.load("ldfd", py, yref, post_inc=stride)
    v = b.fma(a, x, y)
    for _ in range(extra_flops - 1):
        v = b.fma(a, v, y)
    zref = b.memref("z", stride=stride, size=8, is_fp=True, space=f"{name}.z")
    b.store("stfd", pz, v, zref, post_inc=stride)
    loop = b.build(name)
    layout = {
        f"{name}.x": StreamSpec(size=working_set, reuse=reuse),
        f"{name}.y": StreamSpec(size=working_set, reuse=reuse),
        f"{name}.z": StreamSpec(size=working_set, reuse=reuse),
    }
    return loop, layout


def reduction_fp(
    name: str, working_set: int = 8 * MB, reuse: bool = False
) -> tuple[Loop, dict[str, StreamSpec]]:
    """FP sum reduction: the accumulator recurrence pins the Recurrence II
    at the fadd latency, so the *load* still has slack (non-critical)."""
    b = LoopBuilder()
    xref = b.memref("x", stride=8, size=8, is_fp=True, space=f"{name}.x")
    px = b.live_greg("px")
    acc = b.live_freg("acc")
    x = b.load("ldfd", px, xref, post_inc=8)
    b.alu_into("fadd", acc, acc, x)
    b.mark_live_out(acc)
    loop = b.build(name)
    return loop, {f"{name}.x": StreamSpec(size=working_set, reuse=reuse)}


def gather(
    name: str,
    index_set: int = 4 * MB,
    data_set: int = 64 * MB,
    reuse: bool = False,
    fp: bool = False,
) -> tuple[Loop, dict[str, StreamSpec]]:
    """Indirect gather ``c[i] = f(data[idx[i]])`` — Sec. 3.2 rule 2b: the
    indirect side is prefetched at a reduced distance and marked.  With
    ``fp=True`` the gathered data is floating point (the namd/wrf/art
    interaction-list archetype)."""
    b = LoopBuilder()
    elem = 8 if fp else 4
    iref = b.memref("idx", stride=4, size=4, space=f"{name}.idx")
    dref = b.memref(
        "data",
        pattern=AccessPattern.INDIRECT,
        size=elem,
        is_fp=fp,
        space=f"{name}.data",
        index_ref=iref,
    )
    pi = b.live_greg("pi")
    idx = b.load("ld4", pi, iref, post_inc=4)
    daddr = b.alu("shladd", idx, b.live_greg("base"))
    if fp:
        val = b.load("ldfd", daddr, dref)
        out = b.fma(b.live_freg("scale"), val, b.live_freg("bias"))
        cref = b.memref(
            "c", stride=8, size=8, is_fp=True, space=f"{name}.c"
        )
        b.store("stfd", b.live_greg("pc"), out, cref, post_inc=8)
    else:
        val = b.load("ld4", daddr, dref)
        out = b.alu_imm("adds", val, 1)
        cref = b.memref("c", stride=4, size=4, space=f"{name}.c")
        b.store("st4", b.live_greg("pc"), out, cref, post_inc=4)
    loop = b.build(name)
    return loop, {
        f"{name}.idx": StreamSpec(size=index_set, reuse=reuse),
        f"{name}.data": StreamSpec(size=data_set, reuse=reuse),
        f"{name}.c": StreamSpec(size=index_set, reuse=reuse),
    }


def pointer_chase(
    name: str,
    heap: int = 96 * MB,
    field_loads: int = 2,
    node_size: int = 64,
    predicated: bool = False,
) -> tuple[Loop, dict[str, StreamSpec]]:
    """The 429.mcf ``refresh_potential`` archetype (Sec. 4.4)::

        while (node) {
            node->potential = node->basic_arc->cost + node->pred->potential;
            node = node->child;
        }

    The ``node = node->child`` load is a self-recurrent pointer chase (on
    the recurrence cycle, hence *critical*); the field dereferences are
    delinquent, unprefetchable, and off-cycle — the loads the paper's
    rule 1 marks and clusters (k = 2 at the observed trip count)."""
    b = LoopBuilder()
    node = b.live_greg("node")

    # the original C has "if (node->orientation == UP) ... else ...";
    # after if-conversion the sides carry qualifying predicates
    qual = None
    if predicated:
        qual = b.cmp(node, b.live_greg("up_const"))

    # fields of the *current* node first (their addresses come from the
    # previous iteration's chase result — an omega-1 flow dependence that
    # keeps them OFF the recurrence cycle, hence boostable)
    total = None
    layout: dict[str, StreamSpec] = {}
    for f in range(field_loads):
        fref = b.memref(
            f"field{f}",
            pattern=AccessPattern.POINTER_CHASE,
            size=8,
            space=f"{name}.field{f}",
        )
        val = b.load("ld8", node, fref, qual_pred=qual)
        total = val if total is None else b.alu("add", total, val,
                                                qual_pred=qual)
        layout[f"{name}.field{f}"] = StreamSpec(
            size=heap, node_size=node_size, reuse=False
        )
    assert total is not None
    pref = b.memref(
        "potential",
        pattern=AccessPattern.POINTER_CHASE,
        size=8,
        space=f"{name}.potential",
    )
    b.store("st8", node, total, pref)
    layout[f"{name}.potential"] = StreamSpec(
        size=heap, node_size=node_size, reuse=False
    )

    # node = node->child last: self-recurrent load, ON the recurrence
    # cycle (the pipeliner must keep it at base latency — it is critical)
    chase_ref = b.memref(
        "child",
        pattern=AccessPattern.POINTER_CHASE,
        size=8,
        space=f"{name}.nodes",
    )
    b.load_into("ld8", node, node, chase_ref)
    layout[f"{name}.nodes"] = StreamSpec(
        size=heap, node_size=node_size, reuse=False
    )
    loop = b.build(name, counted=False)  # "while (node)" — a while loop
    return loop, layout


def low_trip_linear(
    name: str, working_set: int = 8 * KB, trips_bound: int | None = None
) -> tuple[Loop, dict[str, StreamSpec]]:
    """The 464.h264ref archetype: a hot, low-trip-count loop over
    L1-resident data (SAD-style).  Boosting its loads buys nothing and
    adds pipeline stages (Sec. 4.2)."""
    b = LoopBuilder()
    aref = b.memref("blk", stride=4, size=4, space=f"{name}.blk")
    bref = b.memref("refb", stride=4, size=4, space=f"{name}.ref")
    pa, pb = b.live_greg("pa"), b.live_greg("pb")
    acc = b.live_greg("acc")
    x = b.load("ld4", pa, aref, post_inc=4)
    y = b.load("ld4", pb, bref, post_inc=4)
    d = b.alu("sub", x, y)
    b.alu_into("add", acc, acc, d)
    b.mark_live_out(acc)
    loop = b.build(name, max_trips=trips_bound)
    return loop, {
        f"{name}.blk": StreamSpec(size=working_set, reuse=True),
        f"{name}.ref": StreamSpec(size=working_set, reuse=True),
    }


def symbolic_stride(
    name: str,
    working_set: int = 64 * MB,
    runtime_stride: int = 4096,
) -> tuple[Loop, dict[str, StreamSpec]]:
    """Column-walk with a stride unknown at compile time (rule 2a): the
    prefetch distance is capped for TLB pressure, exposing latency."""
    b = LoopBuilder()
    aref = b.memref(
        "col",
        pattern=AccessPattern.SYMBOLIC_STRIDE,
        size=8,
        is_fp=True,
        space=f"{name}.col",
    )
    pa = b.live_greg("pa")
    stride_reg = b.live_greg("stride")
    x = b.load("ldfd", pa, aref)
    b.alu_into("add", pa, pa, stride_reg)  # pa += stride (in place)
    acc = b.live_freg("acc")
    b.alu_into("fadd", acc, acc, x)
    b.mark_live_out(acc)
    loop = b.build(name)
    return loop, {
        f"{name}.col": StreamSpec(
            size=working_set, runtime_stride=runtime_stride, reuse=False
        )
    }


def stencil_fp(
    name: str, working_set: int = 32 * MB, taps: int = 3, reuse: bool = False
) -> tuple[Loop, dict[str, StreamSpec]]:
    """Multi-tap FP stencil: several references share cache lines, so the
    prefetcher picks one leading reference per group (Sec. 3.2)."""
    b = LoopBuilder()
    px = b.live_greg("px")
    coef = b.live_freg("coef")
    acc = None
    layout = {f"{name}.x": StreamSpec(size=working_set, reuse=reuse)}
    refs = [
        b.memref(
            "x",
            stride=8,
            size=8,
            is_fp=True,
            space=f"{name}.x",
            offset=8 * t,
        )
        for t in range(taps)
    ]
    first = b.load("ldfd", px, refs[0], post_inc=8)
    acc = first
    for t in range(1, taps):
        v = b.load("ldfd", px, refs[t])
        acc = b.fma(coef, v, acc)
    oref = b.memref("out", stride=8, size=8, is_fp=True, space=f"{name}.out")
    b.store("stfd", b.live_greg("po"), acc, oref, post_inc=8)
    layout[f"{name}.out"] = StreamSpec(size=working_set, reuse=reuse)
    loop = b.build(name)
    return loop, layout


def l2_resident_fp(
    name: str, working_set: int = 160 * KB
) -> tuple[Loop, dict[str, StreamSpec]]:
    """FP data that lives in L2: every FP load pays the L2 latency (FP
    bypasses L1), which the ALL_FP_L2 default hint covers (Sec. 4.3)."""
    return stream_fp(name, working_set=working_set, reuse=True)


def cache_resident_gather(
    name: str, working_set: int = 48 * KB
) -> tuple[Loop, dict[str, StreamSpec]]:
    """The 445.gobmk archetype: indirect references that *look* delinquent
    to the static heuristics but actually hit in cache, in loops whose
    real trip count is tiny (Sec. 4.3's worst case)."""
    return gather(
        name, index_set=working_set, data_set=working_set, reuse=True
    )


#: registry used by tests and the example scripts
TEMPLATES: dict[str, LoopTemplate] = {
    t.name: t
    for t in [
        LoopTemplate("stream_int", lambda: stream_int("stream_int"),
                     "integer streaming (running example)"),
        LoopTemplate("stream_fp", lambda: stream_fp("stream_fp"),
                     "FP daxpy streaming"),
        LoopTemplate("reduction_fp", lambda: reduction_fp("reduction_fp"),
                     "FP reduction with accumulator recurrence"),
        LoopTemplate("gather", lambda: gather("gather"),
                     "indirect gather a[b[i]]"),
        LoopTemplate("pointer_chase", lambda: pointer_chase("pointer_chase"),
                     "mcf refresh_potential pointer chase"),
        LoopTemplate("low_trip_linear", lambda: low_trip_linear("low_trip"),
                     "h264ref low-trip L1-resident loop"),
        LoopTemplate("symbolic_stride", lambda: symbolic_stride("symbolic"),
                     "symbolic-stride column walk"),
        LoopTemplate("stencil_fp", lambda: stencil_fp("stencil_fp"),
                     "multi-tap FP stencil with line groups"),
    ]
}
