"""Software prefetch planning (Sec. 3.2).

The prefetch distance is "computed generally by applying the formula
``Lat/II_est``, where ``Lat`` is the average memory latency that needs to
be covered and ``II_est`` is the HLO estimate of the initiation interval".
Reductions below that optimum — and outright inability to prefetch — are
exactly the situations in which references get latency-hint candidates:

1. a non-loop-invariant reference that could not be prefetched at all;
2. (a) symbolic strides (TLB pressure caps the distance),
   (b) indirect references (prefetched at a lower distance than their
   index reference, also for TLB reasons);
3. loops with many integer references missing L1 stress the OzQ, so data
   is prefetched into L2 only and those references carry the L2 latency.

The hint *candidates* computed here are applied (or not) by the policy in
:mod:`repro.hlo.hintpass`.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

from repro.config import CompilerConfig
from repro.hlo.locality import leading_references, line_groups
from repro.hlo.tripcount import prefetch_lookahead_trips
from repro.ir.instructions import Instruction
from repro.ir.loop import DEFAULT_TRIP_ESTIMATE, Loop, TripCountInfo
from repro.ir.memref import AccessPattern, LatencyHint, MemRef
from repro.ir.opcodes import opcode
from repro.machine.itanium2 import ItaniumMachine

#: assumed average memory latency the prefetcher tries to cover
PREFETCH_TARGET_LATENCY = 180
#: distance cap for symbolic-stride references (rule 2a): each prefetch may
#: touch a new page, so the compiler keeps few pages in flight
SYMBOLIC_STRIDE_DISTANCE_CAP = 2
#: distance cap for the data side of indirect references (rule 2b)
INDIRECT_DISTANCE_CAP = 4
#: number of integer L1-missing references beyond which the prefetcher
#: switches to L2-only prefetching (rule 3, OzQ pressure)
OZQ_PRESSURE_REFS = 4


@dataclass
class PrefetchDecision:
    """What the prefetcher decided for one (leading) memory reference."""

    ref: MemRef
    emitted: bool = False
    distance: int = 0
    optimal_distance: int = 0
    l2_only: bool = False
    #: why the distance was reduced below optimal (None if it was not)
    reduced: str | None = None
    efficiency: float = 0.0


@dataclass
class PrefetchPlan:
    """All prefetch decisions and the derived hint candidates for a loop."""

    decisions: dict[int, PrefetchDecision] = field(default_factory=dict)
    #: reference uid -> latency hint candidate (Sec. 3.2 marking rules)
    hint_candidates: dict[int, LatencyHint] = field(default_factory=dict)

    def decision_for(self, ref: MemRef) -> PrefetchDecision | None:
        return self.decisions.get(ref.uid)


def _hint_for(ref: MemRef) -> LatencyHint:
    """"An L2 hint is set for integer loads and an L3 hint for FP loads —
    one level lower than the highest cache level where these loads can
    hit (FP loads bypass the L1 cache)." (Sec. 3.2)"""
    return LatencyHint.L3 if ref.is_fp else LatencyHint.L2


def plan_prefetches(
    loop: Loop,
    machine: ItaniumMachine,
    config: CompilerConfig,
    trip_info: TripCountInfo | None = None,
) -> PrefetchPlan:
    """Compute prefetch decisions and hint candidates for ``loop``."""
    trip_info = trip_info or loop.trip_count
    plan = PrefetchPlan()
    leaders = leading_references(loop)
    groups = line_groups(loop)

    ii_est = max(1, machine.resources.resource_ii(loop.body))
    optimal = max(1, math.ceil(PREFETCH_TARGET_LATENCY / ii_est))
    lookahead = prefetch_lookahead_trips(trip_info, DEFAULT_TRIP_ESTIMATE)

    # rule 3 precondition: many integer references that will miss L1
    int_streams = [
        g[0]
        for g in groups
        if not g[0].is_fp
        and g[0].pattern is not AccessPattern.INVARIANT
        and g[0].prefetchable
    ]
    ozq_pressure = len(int_streams) > OZQ_PRESSURE_REFS

    for group in groups:
        leader = group[0]
        decision = PrefetchDecision(ref=leader, optimal_distance=optimal)
        plan.decisions[leader.uid] = decision

        if leader.pattern is AccessPattern.INVARIANT:
            continue  # one access, stays in cache; no prefetch, no hint

        if not leader.prefetchable or not config.prefetch:
            # rule 1: cannot be prefetched at all
            _mark_group(plan, group)
            continue

        distance = optimal
        if leader.pattern is AccessPattern.SYMBOLIC_STRIDE:
            # rule 2a: unknown, possibly large stride -> TLB pressure
            distance = min(distance, SYMBOLIC_STRIDE_DISTANCE_CAP)
            decision.reduced = "symbolic"
            _mark_group(plan, group)
        elif leader.pattern is AccessPattern.INDIRECT:
            # rule 2b: the indirect side gets a lower distance than the
            # index side (whose own decision covers the index array)
            distance = min(distance, INDIRECT_DISTANCE_CAP)
            decision.reduced = "indirect"
            _mark_group(plan, group)

        # trip-count adjustment: at least half the prefetches must be useful
        if math.isfinite(lookahead) and distance > lookahead / 2:
            distance = max(1, int(lookahead // 2))
            if decision.reduced is None:
                decision.reduced = "tripcount"

        if ozq_pressure and not leader.is_fp:
            # rule 3: prefetch into L2 only; reference runs at L2 latency
            decision.l2_only = True
            _mark_group(plan, group, LatencyHint.L2)

        decision.emitted = True
        decision.distance = distance
        covered = distance * ii_est
        decision.efficiency = min(1.0, covered / PREFETCH_TARGET_LATENCY)

    return plan


def _mark_group(
    plan: PrefetchPlan, group: list[MemRef], hint: LatencyHint | None = None
) -> None:
    """Attach hint candidates to every reference in a line group."""
    for ref in group:
        candidate = hint if hint is not None else _hint_for(ref)
        current = plan.hint_candidates.get(ref.uid, LatencyHint.NONE)
        if candidate.value > current.value:
            plan.hint_candidates[ref.uid] = candidate


def apply_prefetch_plan(loop: Loop, plan: PrefetchPlan) -> list[Instruction]:
    """Materialise the plan: annotate references and emit lfetch ops.

    The lfetch reuses the leading reference's address register; the
    *distance* (in iterations, i.e. ``distance*stride`` bytes of lookahead)
    is carried on the reference and honoured by the simulator.  Returns
    the inserted instructions.
    """
    inserted: list[Instruction] = []
    addr_by_ref: dict[int, Instruction] = {}
    for inst in loop.body:
        if inst.memref is not None and not inst.is_prefetch:
            addr_by_ref.setdefault(inst.memref.uid, inst)

    for decision in plan.decisions.values():
        ref = decision.ref
        ref.prefetched = decision.emitted
        ref.prefetch_distance = decision.distance
        ref.prefetch_efficiency = decision.efficiency
        ref.prefetch_l2_only = decision.l2_only
        if not decision.emitted:
            continue
        carrier = addr_by_ref.get(ref.uid)
        if carrier is None:
            continue
        lfetch = Instruction(
            opcode("lfetch"),
            defs=(),
            uses=(carrier.uses[0],),
            memref=ref,
        )
        loop.append(lfetch)
        inserted.append(lfetch)
    return inserted
