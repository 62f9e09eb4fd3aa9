"""The pipeliner driver: Sec. 3.3's retry ladder.

For each candidate II starting at Min II:

1. try to schedule with the boosted (expected) latencies for hinted,
   non-critical loads and allocate rotating registers;
2. if register allocation fails, "the pipeliner will first reduce the
   non-critical load latencies in the loop to the base level and then try
   scheduling/allocating at the same II";
3. "if this still fails, it will continue to iterate at successively
   higher IIs (reducing the register pressure) until either the register
   requirements for the loop can be met or we estimate that pipelining at
   this II is not profitable" — our profitability cap is the acyclic
   list-schedule length, past which pipelining cannot win.

Latency boosting is gated on the loop's average trip count against the
configured threshold (the n of the Fig. 7 headroom experiment).

:func:`retry_ladder` is the only implementation of this policy.  A
scheduler plugs into it as a *step*: given one (II, policy) rung it
yields candidate schedules, and the ladder keeps the first that
allocates.  :func:`pipeline_loop` steps with the heuristic modulo
scheduler; :func:`repro.pipeliner.optimal.optimal_pipeline_loop` steps
with the exact one.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Iterable

from repro.config import CompilerConfig
from repro.ddg.graph import DDG, build_ddg
from repro.errors import RegisterAllocationError
from repro.ir.loop import Loop
from repro.ir.registers import RegClass
from repro.machine.itanium2 import ItaniumMachine
from repro.pipeliner.bounds import IIBounds, compute_bounds
from repro.pipeliner.criticality import Criticality, classify_loads
from repro.pipeliner.kernel import Kernel, generate_kernel
from repro.pipeliner.schedule import Schedule
from repro.pipeliner.scheduler import list_schedule_length, modulo_schedule
from repro.pipeliner.stats import PipelineStats
from repro.regalloc.nonrotating import StaticAllocation, allocate_static
from repro.regalloc.rotating import RotatingAllocation, allocate_rotating

#: one rung of the ladder: ``step(ddg, ii, criticality, last_try)``
#: yields candidate schedules at ``ii`` in order of preference;
#: ``last_try`` is set on the II's final (weakest) latency policy
ScheduleStep = Callable[[DDG, int, Criticality, bool], Iterable[Schedule]]


@dataclass
class PipelineResult:
    """Outcome of compiling one loop through the pipeliner."""

    loop: Loop
    ddg: DDG
    bounds: IIBounds
    pipelined: bool
    stats: PipelineStats
    #: cycles per iteration of the non-pipelined fallback
    seq_length: int
    schedule: Schedule | None = None
    kernel: Kernel | None = None
    rotating: RotatingAllocation | None = None
    static: StaticAllocation | None = None
    criticality: Criticality | None = None

    @property
    def ii(self) -> int:
        return self.stats.ii


def resolve_criticality(
    loop: Loop,
    ddg: DDG,
    machine: ItaniumMachine,
    bounds: IIBounds,
    config: CompilerConfig,
) -> Criticality:
    """The latency policy after every driver gate has been applied.

    The first rung of every II of :func:`retry_ladder`, whichever
    scheduler steps it.
    """
    criticality = classify_loads(ddg, machine, bounds)
    if not config.respect_criticality:
        # ablation: boost every hinted load, recurrence cycles included
        from repro.ir.memref import LatencyHint

        criticality = Criticality(
            critical=frozenset(),
            boosted={
                load
                for load in loop.loads
                if load.memref is not None
                and load.memref.hint is not LatencyHint.NONE
            },
        )
    # gates: master switch and the trip-count threshold (Fig. 7)
    if not config.latency_tolerant:
        criticality = criticality.demote_all()
    elif config.trip_count_threshold > 0:
        trips = loop.average_trips()
        if trips < config.trip_count_threshold:
            criticality = criticality.demote_policy_hints()
    return criticality


def pipeline_loop(
    loop: Loop,
    machine: ItaniumMachine,
    config: CompilerConfig | None = None,
) -> PipelineResult:
    """Software-pipeline ``loop`` under ``config`` (Sec. 3.3 flow)."""

    def step(ddg: DDG, ii: int, crit: Criticality, last_try: bool):
        schedule = modulo_schedule(ddg, machine, ii, crit)
        if schedule is not None:
            yield schedule

    return retry_ladder(loop, machine, config, step)


def retry_ladder(
    loop: Loop,
    machine: ItaniumMachine,
    config: CompilerConfig | None,
    step: ScheduleStep,
) -> PipelineResult:
    """Walk the Sec. 3.3 ladder, asking ``step`` for schedules per rung.

    The first candidate that allocates rotating registers is pipelined;
    when no rung up to the profitability cap yields one, the loop falls
    back to its acyclic schedule.
    """
    config = config or CompilerConfig()
    ddg = build_ddg(loop)
    bounds = compute_bounds(ddg, machine)
    seq_length = list_schedule_length(ddg, machine)

    criticality = resolve_criticality(loop, ddg, machine, bounds, config)

    # pipelining is pointless once the II reaches the sequential length
    max_ii = max(bounds.min_ii, seq_length)
    attempts = 0

    for ii in range(bounds.min_ii, max_ii + 1):
        tries = [criticality]
        if criticality.boosted:
            tries.append(criticality.demote_all())
        for try_no, crit in enumerate(tries):
            attempts += 1
            for schedule in step(ddg, ii, crit, try_no == len(tries) - 1):
                try:
                    rotating = allocate_rotating(schedule, machine)
                except RegisterAllocationError:
                    continue
                static = allocate_static(schedule, rotating.used)
                kernel = generate_kernel(schedule, rotating)
                stats = _collect_stats(
                    loop, bounds, schedule, rotating, static, crit,
                    attempts, latency_fallback=try_no > 0,
                )
                return PipelineResult(
                    loop=loop,
                    ddg=ddg,
                    bounds=bounds,
                    pipelined=True,
                    stats=stats,
                    seq_length=seq_length,
                    schedule=schedule,
                    kernel=kernel,
                    rotating=rotating,
                    static=static,
                    criticality=crit,
                )

    stats = PipelineStats(
        loop_name=loop.name,
        pipelined=False,
        ii=seq_length,
        res_ii=bounds.res_ii,
        rec_ii=bounds.rec_ii,
        attempts=attempts,
        total_loads=len(loop.loads),
    )
    return PipelineResult(
        loop=loop,
        ddg=ddg,
        bounds=bounds,
        pipelined=False,
        stats=stats,
        seq_length=seq_length,
    )


def _collect_stats(
    loop: Loop,
    bounds: IIBounds,
    schedule: Schedule,
    rotating: RotatingAllocation,
    static: StaticAllocation,
    criticality: Criticality,
    attempts: int,
    latency_fallback: bool,
) -> PipelineStats:
    registers = {}
    for rclass in (RegClass.GR, RegClass.FR, RegClass.PR):
        registers[rclass] = rotating.used.get(rclass, 0) + static.demand.get(
            rclass, 0
        )
    return PipelineStats(
        loop_name=loop.name,
        pipelined=True,
        ii=schedule.ii,
        res_ii=bounds.res_ii,
        rec_ii=bounds.rec_ii,
        stage_count=schedule.stage_count,
        attempts=attempts,
        latency_fallback=latency_fallback,
        boosted_loads=len(criticality.boosted),
        critical_loads=len(criticality.critical),
        total_loads=len(loop.loads),
        registers=registers,
        rotating=dict(rotating.used),
        spills=static.spills,
        stacked_frame=static.stacked_frame,
        placements=schedule.load_placements(),
    )
