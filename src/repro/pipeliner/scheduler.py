"""Iterative modulo scheduling (Rau, MICRO-27).

Operation-driven scheduling with eviction: operations are taken in
height-priority order; each gets the earliest slot in a window of II cycles
starting at its dependence-earliest time.  When no slot fits, the operation
is *forced* into place, displacing the resource conflicts and any
successors whose dependence constraints break; a budget bounds the total
number of placements so an infeasible II fails finitely.

The latency-tolerant twist enters purely through the latency policy: the
scheduler resolves edge latencies through the machine-model query with the
per-load critical/non-critical decision (Sec. 3.3), so boosted loads
naturally get larger load-use distances while everything else is packed
as usual.
"""

from __future__ import annotations

from repro.ddg.graph import DDG
from repro.ddg.slack import modulo_heights
from repro.errors import DependenceError
from repro.ir.instructions import Instruction
from repro.ir.opcodes import UnitClass
from repro.machine.itanium2 import ItaniumMachine
from repro.pipeliner.criticality import Criticality
from repro.pipeliner.mrt import ModuloReservationTable
from repro.pipeliner.schedule import Schedule

#: placement budget of iterative modulo scheduling, per DDG node
BUDGET_RATIO = 10


def _blocking_occupants(
    mrt: ModuloReservationTable, inst: Instruction, time: int
) -> list[Instruction]:
    """Occupants of the target row whose eviction could admit ``inst``."""
    row = time % mrt.ii
    occupants = mrt.occupants_of_row(row)
    if not occupants:
        return []
    row_state = mrt._rows[row]
    if row_state.issue >= mrt.resources.issue_width:
        return occupants
    wanted = set(mrt._unit_choices(inst))
    if not wanted:
        return occupants
    return [o for o in occupants if mrt._placed[o][1] in wanted]


def modulo_schedule(
    ddg: DDG,
    machine: ItaniumMachine,
    ii: int,
    criticality: Criticality,
) -> Schedule | None:
    """Attempt to schedule ``ddg`` at initiation interval ``ii``.

    Returns ``None`` when the II is infeasible (below the recurrence bound
    for the chosen latency policy, or the placement budget is exhausted).
    """
    query = machine.latency_query
    expected = criticality.expected_fn
    try:
        heights = modulo_heights(ddg, ii, query, expected)
    except DependenceError:
        return None

    order = sorted(ddg.nodes, key=lambda i: (-heights[i], i.index))
    priority = {inst: pos for pos, inst in enumerate(order)}

    mrt = ModuloReservationTable(ii, machine.resources)
    times: dict[Instruction, int] = {}
    prev_time: dict[Instruction, int] = {}
    unscheduled: set[Instruction] = set(ddg.nodes)
    budget = max(BUDGET_RATIO * len(ddg.nodes), 32)

    def unschedule(inst: Instruction) -> None:
        mrt.remove(inst)
        del times[inst]
        unscheduled.add(inst)

    while True:
        if not unscheduled:
            # Schedule normalises the times to start at 0.  A shift that
            # is not a multiple of II rotates every row, and the row that
            # lands last must then also issue the loop branch, which the
            # MRT reserved in its own last row: evict from that row
            shift = min(times.values(), default=0)
            last = (shift - 1) % ii
            if shift % ii == 0 or mrt.branch_fits(last):
                break
            unschedule(max(mrt.occupants_of_row(last),
                           key=lambda i: priority[i]))
        if budget <= 0:
            return None
        budget -= 1
        op = min(unscheduled, key=lambda i: priority[i])

        estart = 0
        for edge in ddg.preds(op):
            src = edge.src
            if src is op or src not in times:
                continue
            lat = edge.latency(query, expected(edge))
            estart = max(estart, times[src] + lat - ii * edge.omega)

        min_time = estart
        if op in prev_time:
            min_time = max(estart, prev_time[op] + 1)

        chosen = None
        for t in range(min_time, estart + ii):
            if mrt.fits(op, t):
                chosen = t
                break
        if chosen is None:
            chosen = min_time
            # force: displace the lowest-priority resource conflicts
            while not mrt.fits(op, chosen):
                victims = _blocking_occupants(mrt, op, chosen)
                if not victims:  # pragma: no cover - defensive
                    return None
                victim = max(victims, key=lambda i: priority[i])
                unschedule(victim)

        mrt.place(op, chosen)
        times[op] = chosen
        prev_time[op] = chosen
        unscheduled.discard(op)

        # displace successors whose dependence constraints now break
        for edge in ddg.succs(op):
            dst = edge.dst
            if dst is op or dst not in times:
                continue
            lat = edge.latency(query, expected(edge))
            if times[dst] < chosen + lat - ii * edge.omega:
                unschedule(dst)

    schedule = Schedule(
        ddg=ddg,
        ii=ii,
        times=dict(times),
        machine=machine,
        criticality=criticality,
    )
    schedule.verify()
    return schedule


def list_schedule(
    ddg: DDG, machine: ItaniumMachine
) -> dict[Instruction, int]:
    """Greedy acyclic list schedule of one iteration (base latencies).

    Used for loops that are not pipelined (the acyclic global scheduler of
    Sec. 3.3) and as the II cap beyond which pipelining is pointless.
    Loop-carried edges are ignored except that the next iteration starts
    only after the current one's schedule completes.
    """
    query = machine.latency_query
    times: dict[Instruction, int] = {}
    # per-cycle resource usage (list grows on demand)
    usage: list[dict[UnitClass, int]] = []
    issue: list[int] = []

    def fits(inst: Instruction, t: int) -> bool:
        while len(usage) <= t:
            usage.append({u: 0 for u in machine.resources.capacities})
            issue.append(0)
        if issue[t] >= machine.resources.issue_width:
            return False
        unit = inst.opcode.unit
        if unit is UnitClass.NONE:
            return True
        choices = (
            (UnitClass.I, UnitClass.M) if unit is UnitClass.A else (unit,)
        )
        return any(
            usage[t][u] < machine.resources.capacities[u] for u in choices
        )

    def place(inst: Instruction, t: int) -> None:
        unit = inst.opcode.unit
        choices = (
            (UnitClass.I, UnitClass.M) if unit is UnitClass.A else (unit,)
        )
        if unit is not UnitClass.NONE:
            for u in choices:
                if usage[t][u] < machine.resources.capacities[u]:
                    usage[t][u] += 1
                    break
        issue[t] += 1

    for inst in ddg.nodes:  # body order is topological for omega-0 edges
        ready = 0
        for edge in ddg.preds(inst):
            if edge.omega or edge.src not in times:
                continue
            lat = edge.latency(query, False)
            ready = max(ready, times[edge.src] + lat)
        t = ready
        while not fits(inst, t):
            t += 1
        place(inst, t)
        times[inst] = t
    return times


def list_schedule_length(ddg: DDG, machine: ItaniumMachine) -> int:
    """Cycles per iteration of the non-pipelined (list-scheduled) loop.

    The loop-carried flow results must be ready before the next iteration
    starts, so the iteration length covers producer latencies of carried
    values; the loop branch adds the final cycle.
    """
    times = list_schedule(ddg, machine)
    if not times:
        return 1
    query = machine.latency_query
    end = max(times.values()) + 1
    for edge in ddg.edges:
        if edge.omega:
            lat = edge.latency(query, False)
            end = max(end, times[edge.src] + lat)
    return end
