"""The loop compiler: HLO + pipeliner under one configuration.

This is the library's main entry point::

    from repro import LoopCompiler, CompilerConfig, ItaniumMachine

    compiler = LoopCompiler(ItaniumMachine(), CompilerConfig())
    compiled = compiler.compile(loop)
    print(compiled.result.kernel.format())

Compilation never mutates the caller's loop: the pipeline clones the IR
(including memory references, so hint annotations cannot leak between
configurations — important when the experiment harness compiles the same
workload under baseline and variant settings).
"""

from __future__ import annotations

import copy
from collections.abc import Callable
from dataclasses import dataclass

from repro.config import CompilerConfig
from repro.hlo.hintpass import run_hlo
from repro.hlo.prefetcher import PrefetchPlan
from repro.hlo.profiles import BlockProfile
from repro.ir.loop import Loop
from repro.machine.itanium2 import ItaniumMachine
from repro.pipeliner.driver import PipelineResult, pipeline_loop
from repro.pipeliner.stats import PipelineStats

#: loops estimated to run fewer iterations than this are left to the
#: acyclic scheduler — with fewer than two overlappable iterations,
#: pipelining cannot even fill (the paper's mcf loop runs at 2.3
#: iterations on average and *is* pipelined, Sec. 4.4)
MIN_PIPELINE_TRIPS = 2


@dataclass
class CompiledLoop:
    """Everything compilation produced for one loop."""

    loop: Loop
    config: CompilerConfig
    plan: PrefetchPlan
    result: PipelineResult

    @property
    def stats(self) -> PipelineStats:
        return self.result.stats

    @property
    def pipelined(self) -> bool:
        return self.result.pipelined


class LoopCompiler:
    """Compiles loops: HLO passes, then the software pipeliner."""

    def __init__(
        self,
        machine: ItaniumMachine | None = None,
        config: CompilerConfig | None = None,
    ) -> None:
        self.machine = machine or ItaniumMachine()
        self.config = config or CompilerConfig()

    def compile(
        self,
        loop: Loop,
        profile: BlockProfile | None = None,
        *,
        pipeliner: Callable[..., PipelineResult] | None = None,
    ) -> CompiledLoop:
        """Compile one loop; ``profile`` supplies PGO trip counts.

        ``pipeliner`` replaces the paper's heuristic driver with another
        ``(loop, machine, config) -> PipelineResult`` callable behind the
        same HLO front half, e.g. the exact scheduler the gap campaign
        measures against
        (:func:`repro.pipeliner.optimal.optimal_pipeline_loop`).
        """
        work = copy.deepcopy(loop)
        plan = run_hlo(work, self.machine, self.config, profile)

        trips = work.average_trips()
        if trips >= MIN_PIPELINE_TRIPS:
            # counted loops pipeline with br.ctop; while loops with
            # br.wtop and speculative fill (the mcf refresh_potential
            # loop of Sec. 4.4 is a while loop).  ``pipeline_loop`` is
            # looked up at call time, so profilers can wrap it.
            result = (pipeliner or pipeline_loop)(
                work, self.machine, self.config
            )
        else:
            # too few iterations: the acyclic global scheduler handles it
            result = self._unpipelined(work)
        return CompiledLoop(loop=work, config=self.config, plan=plan, result=result)

    def _unpipelined(self, loop: Loop) -> PipelineResult:
        from repro.ddg.graph import build_ddg
        from repro.pipeliner.bounds import compute_bounds
        from repro.pipeliner.scheduler import list_schedule_length

        ddg = build_ddg(loop)
        bounds = compute_bounds(ddg, self.machine)
        seq = list_schedule_length(ddg, self.machine)
        stats = PipelineStats(
            loop_name=loop.name,
            pipelined=False,
            ii=seq,
            res_ii=bounds.res_ii,
            rec_ii=bounds.rec_ii,
            total_loads=len(loop.loads),
        )
        return PipelineResult(
            loop=loop,
            ddg=ddg,
            bounds=bounds,
            pipelined=False,
            stats=stats,
            seq_length=seq,
        )
