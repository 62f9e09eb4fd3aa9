"""Pipeliner statistics, mirroring the compiler counters of Sec. 4.5."""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.ir.registers import RegClass
from repro.pipeliner.schedule import LoadPlacement


@dataclass
class PipelineStats:
    """Everything the experiment harness aggregates per compiled loop."""

    loop_name: str
    pipelined: bool
    ii: int
    res_ii: int
    rec_ii: int
    stage_count: int = 1
    #: scheduling/allocation attempts the driver made (compile-time proxy)
    attempts: int = 1
    #: the Sec. 3.3 fallback fired: latencies were reduced back to base
    latency_fallback: bool = False
    #: loads scheduled with expected (boosted) latencies
    boosted_loads: int = 0
    critical_loads: int = 0
    total_loads: int = 0
    #: allocated registers per class (rotating + static), Sec. 4.5
    registers: dict[RegClass, int] = field(default_factory=dict)
    rotating: dict[RegClass, int] = field(default_factory=dict)
    spills: int = 0
    stacked_frame: int = 0
    placements: list[LoadPlacement] = field(default_factory=list)
    #: which scheduler produced this result ("heuristic" or "optimal")
    scheduler: str = "heuristic"
    #: exact-scheduler verdict: "optimal" (achieved II equals the
    #: certified lower bound), "capped" (node budget left a gap) or
    #: "infeasible" (no II up to the profitability cap schedules);
    #: ``None`` for heuristic results
    optimal_status: str | None = None
    #: certified lower bound on any schedulable II (exact scheduler only)
    ii_lower_bound: int | None = None
    #: branch-and-bound nodes spent across all IIs (exact scheduler only)
    solver_nodes: int = 0

    def summary(self) -> str:
        mode = "pipelined" if self.pipelined else "not pipelined"
        boosts = f", boosted {self.boosted_loads}/{self.total_loads} loads"
        return (
            f"{self.loop_name}: {mode}, II={self.ii} "
            f"(res {self.res_ii}, rec {self.rec_ii}), SC={self.stage_count}"
            f"{boosts if self.pipelined else ''}"
        )
