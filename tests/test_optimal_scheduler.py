"""Unit tests for the exact modulo scheduler (``repro.pipeliner.optimal``).

The solver's contract is sharper than the heuristic's: FEASIBLE comes
with a canonical witness, INFEASIBLE is a proof, UNKNOWN only ever means
the node budget ran out, and everything — verdict, witness, node count —
is a pure function of the inputs.  These tests pin each clause on small
hand-written loops; the suite-wide differential evidence lives in
``tests/test_optimal_gap.py``.
"""

from functools import partial
from pathlib import Path

from repro.analysis import verify_result
from repro.config import CompilerConfig, HintPolicy, baseline_config
from repro.core.compiler import LoopCompiler
from repro.ddg.graph import build_ddg
from repro.harness.jobs import collect_profile
from repro.ir import parse_loop
from repro.machine import ItaniumMachine
from repro.pipeliner import (
    SolveStatus,
    compute_bounds,
    optimal_pipeline_loop,
    pipeline_loop,
    solve_ii,
)
from repro.workloads import suite_by_name

COPY_ADD = """
memref A affine stride=4 space=a
memref B affine stride=4 space=b
loop copy_add trips=200 source=pgo
  ld4 r4 = [r5], 4 !A
  add r7 = r4, r9
  st4 [r6] = r7, 4 !B
"""

# three M-unit memory ops: at II=1 they cannot share two M slots
DAXPY = """
memref X affine fp stride=8 size=8 space=x
memref Y affine fp stride=8 size=8 space=y
loop daxpy trips=1000 source=pgo
  ldfd f4 = [r5], 8 !X
  ldfd f5 = [r6] !Y
  fma f6 = f4, f2, f5
  stfd [r6] = f6, 8 !Y
"""

# a serial FP accumulation: RecII is the fadd latency
REDUCE = """
memref X affine fp stride=8 size=8 space=x
loop reduce trips=1000 source=pgo
  ldfd f4 = [r5], 8 !X
  fadd f2 = f2, f4
"""

# two interchangeable accumulator chains (twins for symmetry breaking)
TWINS = """
memref X affine fp stride=16 size=8 space=x
memref Y affine fp stride=16 size=8 space=y
loop twins trips=1000 source=pgo
  ldfd f4 = [r5], 16 !X
  ldfd f5 = [r6], 16 !Y
  fadd f2 = f2, f4
  fadd f3 = f3, f5
"""


def solver_inputs(text):
    machine = ItaniumMachine()
    loop = parse_loop(text)
    ddg = build_ddg(loop)
    bounds = compute_bounds(ddg, machine)
    return machine, loop, ddg, bounds


def solve(machine, ddg, ii, budget=200_000):
    return solve_ii(
        ddg, ii, machine.latency_query,
        lambda edge: False,  # base latencies: no boosted loads
        machine.resources, budget,
    )


class TestSolveII:
    def test_feasible_at_min_ii(self):
        machine, loop, ddg, bounds = solver_inputs(COPY_ADD)
        outcome = solve(machine, ddg, bounds.min_ii)
        assert outcome.status is SolveStatus.FEASIBLE
        assert outcome.nodes > 0

    def test_witness_is_canonical_and_valid(self):
        from repro.pipeliner.schedule import Schedule

        machine, loop, ddg, bounds = solver_inputs(COPY_ADD)
        outcome = solve(machine, ddg, bounds.min_ii)
        times = outcome.times
        assert min(times.values()) == 0
        assert set(times) == set(ddg.nodes)
        from repro.pipeliner.criticality import Criticality

        # wrapping in a Schedule performs no shift and verifies clean
        schedule = Schedule(
            ddg=ddg, ii=bounds.min_ii, times=dict(times), machine=machine,
            criticality=Criticality(critical=frozenset()),
        )
        assert schedule.times == times
        schedule.verify()

    def test_infeasible_below_recurrence_bound(self):
        machine, loop, ddg, bounds = solver_inputs(REDUCE)
        assert bounds.rec_ii > 1
        outcome = solve(machine, ddg, bounds.rec_ii - 1)
        assert outcome.status is SolveStatus.INFEASIBLE
        # the positive MinDist diagonal proves it before any search
        assert outcome.nodes == 0

    def test_infeasible_below_resource_bound(self):
        machine, loop, ddg, bounds = solver_inputs(DAXPY)
        assert bounds.res_ii >= 2  # three M ops over two M units
        outcome = solve(machine, ddg, 1)
        assert outcome.status is SolveStatus.INFEASIBLE

    def test_budget_exhaustion_is_unknown(self):
        machine, loop, ddg, bounds = solver_inputs(COPY_ADD)
        outcome = solve(machine, ddg, bounds.min_ii, budget=1)
        assert outcome.status is SolveStatus.UNKNOWN
        assert outcome.nodes <= 1

    def test_deterministic_replay(self):
        machine, loop, ddg, bounds = solver_inputs(TWINS)
        first = solve(machine, ddg, bounds.min_ii)
        second = solve(machine, ddg, bounds.min_ii)
        assert first.status is second.status is SolveStatus.FEASIBLE
        assert first.times == second.times
        assert first.nodes == second.nodes

    def test_twins_scheduled_in_body_order(self):
        machine, loop, ddg, bounds = solver_inputs(TWINS)
        outcome = solve(machine, ddg, bounds.min_ii)
        assert outcome.status is SolveStatus.FEASIBLE
        by_index = {inst.index: t for inst, t in outcome.times.items()}
        # symmetry breaking orders each twin pair by body index
        assert by_index[0] <= by_index[1]  # the two loads
        assert by_index[2] <= by_index[3]  # the two accumulators


class TestOptimalDriver:
    def test_matches_pipeline_loop_gates(self):
        machine = ItaniumMachine()
        loop = parse_loop(COPY_ADD)
        config = CompilerConfig()
        heur = pipeline_loop(parse_loop(COPY_ADD), machine, config)
        opt = optimal_pipeline_loop(loop, machine, config)
        assert opt.pipelined and heur.pipelined
        assert opt.stats.ii <= heur.stats.ii
        assert opt.stats.scheduler == "optimal"
        assert opt.stats.optimal_status == "optimal"
        assert opt.stats.ii_lower_bound == opt.stats.ii
        assert verify_result(opt).ok

    def test_tiny_budget_at_min_ii_is_still_optimal(self):
        """Budget exhaustion at the theory bound loses no certificate:
        the heuristic fallback lands on min_ii, which ResII/RecII
        certify without any search."""
        machine = ItaniumMachine()
        opt = optimal_pipeline_loop(
            parse_loop(COPY_ADD), machine, CompilerConfig(), budget=1
        )
        assert opt.pipelined
        assert opt.stats.ii == opt.bounds.min_ii
        assert opt.stats.optimal_status == "optimal"
        assert verify_result(opt).ok

    def test_capped_budget_falls_back_to_heuristic(self):
        """A hard instance above its theory bound under a tiny budget:
        the driver returns the heuristic schedule marked "capped" with a
        certified bound no higher than the achieved II."""
        from repro.fuzz import GenConfig, generate_loop

        machine = ItaniumMachine()
        loop = generate_loop(49, GenConfig(max_ops=28))
        opt = optimal_pipeline_loop(
            loop, machine, CompilerConfig(), budget=60
        )
        heur = pipeline_loop(
            generate_loop(49, GenConfig(max_ops=28)), machine,
            CompilerConfig(),
        )
        assert opt.pipelined
        assert opt.stats.optimal_status == "capped"
        assert opt.stats.ii == heur.stats.ii  # the fallback schedule
        assert opt.stats.ii_lower_bound <= opt.stats.ii
        assert verify_result(opt).ok

    def test_compiler_runs_the_solver_behind_hlo(self):
        machine = ItaniumMachine()
        compiled = LoopCompiler(machine, CompilerConfig()).compile(
            parse_loop(DAXPY), pipeliner=optimal_pipeline_loop
        )
        assert compiled.stats.scheduler == "optimal"
        assert compiled.stats.optimal_status == "optimal"
        heuristic = LoopCompiler(machine, CompilerConfig()).compile(
            parse_loop(DAXPY)
        )
        assert heuristic.stats.scheduler == "heuristic"
        assert heuristic.stats.optimal_status is None
        assert compiled.stats.ii <= heuristic.stats.ii

    def test_boosted_policy_ladder(self):
        """Under ALL_LOADS_L3 the driver walks the same boosted-then-
        demoted ladder as the heuristic and stays verifiable."""
        machine = ItaniumMachine()
        config = CompilerConfig(
            hint_policy=HintPolicy.ALL_LOADS_L3,
            trip_count_threshold=0,
        )
        compiled = LoopCompiler(machine, config).compile(
            parse_loop(COPY_ADD), pipeliner=optimal_pipeline_loop
        )
        assert compiled.stats.pipelined
        assert compiled.stats.scheduler == "optimal"
        report = verify_result(compiled.result)
        assert report.ok, report.render_text()


def _ladder_cases():
    """(name, loop, profile) for every suite loop and corpus loop."""
    for suite in ("cpu2000", "cpu2006", "micro"):
        for bench in suite_by_name(suite):
            loops = [lw.build()[0] for lw in bench.loops]
            profile = collect_profile(bench, loops, seed=2008)
            for loop in loops:
                yield f"{bench.name}/{loop.name}", loop, profile
    corpus = Path(__file__).parent / "corpus"
    for path in sorted(corpus.glob("*.loop")):
        yield path.stem, parse_loop(path.read_text()), None


def _ladder_walk(result):
    stats = result.stats
    times = None
    if result.schedule is not None:
        times = sorted(
            (inst.index, t) for inst, t in result.schedule.times.items()
        )
    return (
        result.pipelined, stats.ii, stats.stage_count, stats.attempts,
        stats.latency_fallback, times,
    )


class TestSharedLadder:
    def test_zero_budget_retraces_the_heuristic_ladder(self):
        """With no node budget every exact step falls back to the
        heuristic schedule, so the exact driver must walk
        ``pipeline_loop``'s ladder rung for rung: same outcome, II,
        stages, attempt count, latency fallback and schedule."""
        machine = ItaniumMachine()
        configs = [
            baseline_config(),
            CompilerConfig(hint_policy=HintPolicy.HLO, name="hlo"),
            CompilerConfig(
                hint_policy=HintPolicy.ALL_LOADS_L3,
                trip_count_threshold=0,
                name="l3-n0",
            ),
        ]
        exact = partial(optimal_pipeline_loop, budget=0)
        cases = list(_ladder_cases())
        drifts = []
        for config in configs:
            compiler = LoopCompiler(machine, config)
            for name, loop, profile in cases:
                heur = compiler.compile(loop, profile).result
                opt = compiler.compile(loop, profile, pipeliner=exact).result
                if _ladder_walk(opt) != _ladder_walk(heur):
                    drifts.append(f"{config.label}: {name}")
        assert len(cases) > 60
        assert not drifts, drifts
