"""The trace event vocabulary and the sink protocol.

The interpreter (:func:`repro.sim.core.run_iterations`) emits a
structured event stream describing *why* each cycle was spent: operation
issue, stall-on-use with the culprit load instance, OzQ-full stalls,
cache fills with the satisfying level, and prefetch issue/drop.  Emission
is guarded by a :class:`TraceSink`'s interest flags so that a disabled or
:class:`NullSink` run does no per-event work — the hot loops hoist the
flags into local booleans once per invocation, making tracing a handful
of branch tests when off.

Event ``cycle`` fields are simulation cycles (floats, the simulator's
native clock).  Load *instances* are identified by ``(slot, source_iter)``
— the per-loop load slot (see :class:`repro.sim.core.OpExec`) plus the
source-iteration index within the invocation — which is exactly the
granularity Diavastos & Carlson's load-delay tracking argues for.
"""

from __future__ import annotations

from collections import deque
from dataclasses import asdict, dataclass
from typing import ClassVar, Protocol, runtime_checkable


@dataclass(slots=True)
class TraceEvent:
    """Base class: every event carries the cycle it happened at."""

    kind: ClassVar[str] = "event"
    cycle: float

    def to_dict(self) -> dict:
        data = {"kind": self.kind}
        data.update(asdict(self))
        return data


@dataclass(slots=True)
class OpIssue(TraceEvent):
    """An operation issued (after its stall-on-use waits resolved)."""

    kind: ClassVar[str] = "issue"
    tag: str
    row: int
    stage: int
    kernel_iter: int
    source_iter: int
    op_kind: str  #: "load" | "store" | "prefetch" | "alu"


@dataclass(slots=True)
class UseStall(TraceEvent):
    """Stall-on-use: ``consumer`` waited on load instance
    ``(slot, source_iter)`` for ``wait`` cycles.  ``cycle`` is the stall
    *start*; ``inflight`` is the number of OzQ requests still outstanding
    at that moment — the paper's clustering factor k (Sec. 2.1): one
    stall shadows the remaining latency of all of them."""

    kind: ClassVar[str] = "stall"
    consumer: str
    slot: int
    source_iter: int
    wait: float
    inflight: int


@dataclass(slots=True)
class UseReady(TraceEvent):
    """A load-consuming operand check that did *not* stall: the load
    instance ``(slot, source_iter)`` was already complete — its latency
    was fully covered by the schedule (Sec. 3.1)."""

    kind: ClassVar[str] = "use"
    consumer: str
    slot: int
    source_iter: int


@dataclass(slots=True)
class OzqStall(TraceEvent):
    """A demand access found the OzQ full and waited ``wait`` cycles for
    the oldest entry to drain (``BE_L1D_FPU_BUBBLE``)."""

    kind: ClassVar[str] = "ozq-stall"
    tag: str
    wait: float


@dataclass(slots=True)
class OzqFull(TraceEvent):
    """The OzQ sat at capacity for ``duration`` wall-clock cycles
    starting at ``cycle`` (the ``L2D_OZQ_FULL`` counter's semantics)."""

    kind: ClassVar[str] = "ozq-full"
    duration: float


@dataclass(slots=True)
class LoadIssue(TraceEvent):
    """A demand load accessed the hierarchy: which level satisfied it,
    the end-to-end latency, and whether it holds an OzQ entry."""

    kind: ClassVar[str] = "load"
    tag: str
    slot: int
    source_iter: int
    ref: str
    addr: int
    level: int
    latency: float
    occupies_ozq: bool


@dataclass(slots=True)
class StoreIssue(TraceEvent):
    """A store accessed the hierarchy."""

    kind: ClassVar[str] = "store"
    tag: str
    ref: str
    addr: int
    level: int
    latency: float
    occupies_ozq: bool


@dataclass(slots=True)
class PrefetchIssue(TraceEvent):
    """An ``lfetch`` was issued to the hierarchy."""

    kind: ClassVar[str] = "prefetch"
    tag: str
    ref: str
    addr: int
    level: int
    latency: float
    occupies_ozq: bool


@dataclass(slots=True)
class PrefetchDrop(TraceEvent):
    """An ``lfetch`` was discarded: ``"ozq-full"`` (hardware drops hints
    when the queue is full) or ``"stream-end"`` (prefetch distance ran
    past the address stream)."""

    kind: ClassVar[str] = "prefetch-drop"
    tag: str
    reason: str


@dataclass(slots=True)
class CacheFill(TraceEvent):
    """One hierarchy access resolved by :class:`repro.sim.memory
    .MemorySystem`: the satisfying level and the resulting latency.
    ``access`` is ``"load"``/``"store"``/``"prefetch"``; the event comes
    directly before the issue event of the same access."""

    kind: ClassVar[str] = "fill"
    access: str
    addr: int
    level: int
    latency: float


@runtime_checkable
class TraceSink(Protocol):
    """Receives trace events; the four flags gate emission categories.

    * ``wants_issues`` — :class:`OpIssue` per executed operation;
    * ``wants_uses``   — :class:`UseReady` (non-stalling operand checks);
    * ``wants_stalls`` — :class:`UseStall`, :class:`OzqStall`,
      :class:`OzqFull` (required for closed stall accounting);
    * ``wants_memory`` — :class:`LoadIssue`, :class:`StoreIssue`,
      :class:`PrefetchIssue`, :class:`PrefetchDrop`, :class:`CacheFill`.
    """

    wants_issues: bool
    wants_uses: bool
    wants_stalls: bool
    wants_memory: bool

    def emit(self, event: TraceEvent) -> None: ...


class NullSink:
    """Wants nothing, discards everything — the zero-cost baseline.

    With a ``NullSink`` attached the simulator's hoisted interest flags
    are all ``False``, so per-event work never happens; the residual cost
    is a few branch tests per operation (<5% on the micro suite, see
    ``benchmarks/bench_trace_overhead.py``).
    """

    wants_issues = False
    wants_uses = False
    wants_stalls = False
    wants_memory = False

    def emit(self, event: TraceEvent) -> None:  # pragma: no cover - never called
        pass


class CountingSink:
    """Counts events per kind and totals stall cycles; stores nothing."""

    wants_issues = True
    wants_uses = True
    wants_stalls = True
    wants_memory = True

    def __init__(self) -> None:
        self.counts: dict[str, int] = {}
        self.stall_cycles = 0.0
        self.ozq_stall_cycles = 0.0

    @property
    def total(self) -> int:
        return sum(self.counts.values())

    def emit(self, event: TraceEvent) -> None:
        kind = event.kind
        self.counts[kind] = self.counts.get(kind, 0) + 1
        if kind == "stall":
            self.stall_cycles += event.wait
        elif kind == "ozq-stall":
            self.ozq_stall_cycles += event.wait


class RingBufferSink:
    """Keeps the last ``capacity`` events (flight-recorder mode) plus a
    total count, so long runs stay bounded in memory."""

    wants_issues = True
    wants_uses = True
    wants_stalls = True
    wants_memory = True

    def __init__(self, capacity: int = 65536) -> None:
        if capacity <= 0:
            raise ValueError("ring buffer capacity must be positive")
        self.capacity = capacity
        self.buffer: deque[TraceEvent] = deque(maxlen=capacity)
        self.total = 0

    @property
    def dropped(self) -> int:
        return self.total - len(self.buffer)

    @property
    def events(self) -> list[TraceEvent]:
        return list(self.buffer)

    def emit(self, event: TraceEvent) -> None:
        self.total += 1
        self.buffer.append(event)


class CaptureSink:
    """Keeps every event — full-fidelity capture for the exporters."""

    wants_issues = True
    wants_uses = True
    wants_stalls = True
    wants_memory = True

    def __init__(self) -> None:
        self.events: list[TraceEvent] = []

    @property
    def total(self) -> int:
        return len(self.events)

    def emit(self, event: TraceEvent) -> None:
        self.events.append(event)


class TeeSink:
    """Fans one event stream out to several sinks.

    The tee's interest flags are the union of its children's, so a child
    may receive categories it did not ask for — children must ignore
    kinds they don't handle (all the sinks here do).
    """

    def __init__(self, *sinks: TraceSink) -> None:
        if not sinks:
            raise ValueError("TeeSink needs at least one sink")
        self.sinks = sinks
        self.wants_issues = any(s.wants_issues for s in sinks)
        self.wants_uses = any(s.wants_uses for s in sinks)
        self.wants_stalls = any(s.wants_stalls for s in sinks)
        self.wants_memory = any(s.wants_memory for s in sinks)

    def emit(self, event: TraceEvent) -> None:
        for sink in self.sinks:
            sink.emit(event)
