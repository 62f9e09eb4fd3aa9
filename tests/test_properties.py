"""Cross-cutting property-based tests on compiler invariants.

These complement the per-module tests with end-to-end invariants that
must hold for *any* loop the pipeline accepts:

* rotating blades of distinct values never overlap;
* kernel renaming is consistent: every use reads the register its
  producer's rotated definition lands in;
* the simulator never finishes a loop faster than its nominal issue time;
* compiling the same loop twice is deterministic;
* MinDist path weights are monotone under latency boosting, and acyclic
  slack is a well-formed non-negative quantity with a tight minimum.
"""

import numpy as np
from hypothesis import given, settings, strategies as st

from repro.config import CompilerConfig, baseline_config
from repro.ddg.edges import DepKind
from repro.ddg.graph import build_ddg
from repro.ddg.mindist import NO_PATH, mindist_matrix
from repro.ddg.slack import acyclic_slacks
from repro.ir import LoopBuilder
from repro.ir.memref import LatencyHint
from repro.ir.registers import RegClass
from repro.machine import ItaniumMachine
from repro.pipeliner import pipeline_loop


@st.composite
def pipelinable_loops(draw):
    """Random loops with mixed hinted/unhinted loads and an optional
    accumulator recurrence."""
    b = LoopBuilder()
    n_loads = draw(st.integers(1, 4))
    values = []
    for i in range(n_loads):
        fp = draw(st.booleans())
        ref = b.memref(
            f"a{i}",
            stride=8 if fp else 4,
            size=8 if fp else 4,
            is_fp=fp,
            space=f"s{i}",
        )
        ref.hint = draw(st.sampled_from(
            [LatencyHint.NONE, LatencyHint.L2, LatencyHint.L3]
        ))
        ref.hint_source = "hlo" if ref.hint is not LatencyHint.NONE else ""
        mnemonic = "ldfd" if fp else "ld4"
        values.append(
            b.load(mnemonic, b.live_greg(f"p{i}"), ref, post_inc=ref.stride)
        )
    int_vals = [v for v in values if v.rclass is RegClass.GR]
    for _ in range(draw(st.integers(0, 4))):
        src_pool = int_vals or [b.live_greg("z")]
        int_vals.append(b.alu_imm("adds", draw(st.sampled_from(src_pool)), 1))
    if draw(st.booleans()):
        acc = b.live_freg("acc")
        fp_vals = [v for v in values if v.rclass is RegClass.FR]
        if fp_vals:
            b.alu_into("fadd", acc, acc, fp_vals[0])
            b.mark_live_out(acc)
    if int_vals and draw(st.booleans()):
        out = b.memref("c", stride=4, space="out")
        b.store("st4", b.live_greg("pc"), int_vals[-1], out, post_inc=4)
    return b.build("prop", trips=1000.0)


CFG = CompilerConfig(trip_count_threshold=0, prefetch=False)


class TestAllocationInvariants:
    @settings(max_examples=40, deadline=None)
    @given(pipelinable_loops())
    def test_blades_disjoint(self, loop):
        machine = ItaniumMachine()
        result = pipeline_loop(loop, machine, CFG)
        if not result.pipelined:
            return
        by_class: dict = {}
        for reg, (base, span) in result.rotating.blades.items():
            by_class.setdefault(reg.rclass, []).append((base, base + span))
        for intervals in by_class.values():
            intervals.sort()
            for (s1, e1), (s2, e2) in zip(intervals, intervals[1:]):
                assert e1 <= s2, "overlapping rotating blades"

    @settings(max_examples=40, deadline=None)
    @given(pipelinable_loops())
    def test_kernel_renaming_consistent(self, loop):
        """use register == def register + rotations between def and use."""
        machine = ItaniumMachine()
        result = pipeline_loop(loop, machine, CFG)
        if not result.pipelined:
            return
        schedule, alloc = result.schedule, result.rotating
        kernel_ops = {op.inst.index: op for op in result.kernel.ops}
        for edge in result.ddg.edges:
            if edge.kind is not DepKind.FLOW or edge.reg is None:
                continue
            if edge.reg not in alloc.blades:
                continue
            t_def = schedule.time_of(edge.src)
            t_use = schedule.time_of(edge.dst) + schedule.ii * edge.omega
            rot = t_use // schedule.ii - t_def // schedule.ii
            def_num = dict(kernel_ops[edge.src.index].phys_defs)[edge.reg]
            use_nums = dict(kernel_ops[edge.dst.index].phys_uses)
            if edge.reg in use_nums:
                # the kernel reads the max-rotation instance; it must be
                # at least as far along as this edge's rotation
                assert use_nums[edge.reg] >= def_num + rot or rot == 0

    @settings(max_examples=30, deadline=None)
    @given(pipelinable_loops())
    def test_stage_predicates_cover_stages(self, loop):
        machine = ItaniumMachine()
        result = pipeline_loop(loop, machine, CFG)
        if not result.pipelined:
            return
        preds = {op.stage_pred for op in result.kernel.ops}
        assert all(16 <= p < 16 + result.stats.stage_count for p in preds)


class TestDependenceProperties:
    """Sec. 1/3.3 analytics: MinDist and slack over arbitrary loops."""

    @settings(max_examples=40, deadline=None)
    @given(pipelinable_loops(), st.integers(2, 12))
    def test_mindist_monotone_under_latency_boost(self, loop, ii):
        """Boosting load latencies never shortens any dependence path.

        Per-edge weights are non-decreasing when every flow edge resolves
        at the expected (hinted) latency instead of the base one, so the
        Floyd-Warshall longest paths are non-decreasing too — the formal
        reason a boosted schedule can only *stretch* (Sec. 3.3), never
        relax, a constraint.  ``check=False`` tolerates the boosted
        Recurrence II exceeding ``ii``.
        """
        machine = ItaniumMachine()
        ddg = build_ddg(loop)
        query = machine.latency_query
        base = mindist_matrix(ddg, ii, query, check=False)
        boosted = mindist_matrix(
            ddg, ii, query, expected=lambda edge: True, check=False
        )
        # reachability is a property of the edges, not the latencies
        assert ((base == NO_PATH) == (boosted == NO_PATH)).all()
        reachable = base != NO_PATH
        assert (boosted[reachable] >= base[reachable]).all()

    @settings(max_examples=40, deadline=None)
    @given(pipelinable_loops())
    def test_acyclic_slack_nonnegative_with_tight_minimum(self, loop):
        """Slack is >= 0 everywhere and some critical op has zero slack.

        Slack is the latest-minus-earliest placement gap within the
        acyclic critical path; a negative value would mean Lstart <
        Estart (an infeasible window), and a loop where *every* op had
        positive slack would contradict the critical path being critical
        (Sec. 1: non-critical loads are the ones with slack to spend).
        """
        machine = ItaniumMachine()
        ddg = build_ddg(loop)
        slacks = acyclic_slacks(ddg, machine.latency_query)
        assert slacks, "non-empty loop must yield slacks"
        assert all(s >= 0 for s in slacks.values())
        assert min(slacks.values()) == 0

    @settings(max_examples=25, deadline=None)
    @given(pipelinable_loops())
    def test_schedule_respects_mindist(self, loop):
        """Any schedule the driver accepts satisfies the MinDist bound:
        ``t(j) - t(i) >= mindist[i][j]`` for every reachable pair."""
        machine = ItaniumMachine()
        result = pipeline_loop(loop, machine, CFG)
        if not result.pipelined:
            return
        schedule = result.schedule
        dist = mindist_matrix(
            result.ddg, schedule.ii, machine.latency_query, check=False
        )
        times = {i.index: t for i, t in schedule.times.items()}
        n = len(result.ddg.nodes)
        for i in range(n):
            for j in range(n):
                if dist[i, j] == NO_PATH:
                    continue
                assert times[j] - times[i] >= dist[i, j]


class TestExecutionInvariants:
    @settings(max_examples=20, deadline=None)
    @given(pipelinable_loops(), st.integers(10, 60))
    def test_cycles_at_least_nominal(self, loop, trips):
        from repro.core.compiler import LoopCompiler
        from repro.sim import simulate_loop
        from repro.sim.address import StreamSpec

        machine = ItaniumMachine()
        compiled = LoopCompiler(machine, baseline_config()).compile(loop)
        layout = {
            inst.memref.space: StreamSpec(size=1 << 20, reuse=True)
            for inst in compiled.loop.body
            if inst.memref is not None
        }
        run = simulate_loop(
            compiled.result, machine, layout, [trips],
        )
        stats = compiled.stats
        nominal = (trips + stats.stage_count - 1) * stats.ii
        assert run.cycles >= nominal

    @settings(max_examples=15, deadline=None)
    @given(pipelinable_loops())
    def test_compilation_deterministic(self, loop):
        import copy

        machine = ItaniumMachine()
        a = pipeline_loop(copy.deepcopy(loop), machine, CFG)
        b = pipeline_loop(copy.deepcopy(loop), machine, CFG)
        assert a.pipelined == b.pipelined
        if a.pipelined:
            assert a.ii == b.ii
            assert a.stats.stage_count == b.stats.stage_count
            assert [a.schedule.times[i] for i in a.loop.body] == [
                b.schedule.times[i] for i in b.loop.body
            ]
