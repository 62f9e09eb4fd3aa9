"""Tests for the prefetcher and the hint-marking rules of Sec. 3.2."""

import math

import pytest

from repro.config import CompilerConfig, HintPolicy, baseline_config
from repro.hlo import leading_references, plan_prefetches, run_hlo
from repro.hlo.prefetcher import (
    INDIRECT_DISTANCE_CAP,
    PREFETCH_TARGET_LATENCY,
    SYMBOLIC_STRIDE_DISTANCE_CAP,
    apply_prefetch_plan,
)
from repro.ir import LoopBuilder
from repro.ir.memref import AccessPattern, LatencyHint
from repro.workloads.loops import (
    gather,
    low_trip_linear,
    pointer_chase,
    stencil_fp,
    stream_int,
    symbolic_stride,
)


def _cfg(**kw):
    return CompilerConfig(hint_policy=HintPolicy.HLO_ONLY, **kw)


class TestLocality:
    def test_stencil_taps_share_leader(self, machine):
        loop, _ = stencil_fp("s", taps=3)
        leaders = leading_references(loop)
        tap_refs = [i.memref for i in loop.loads]
        leader_uids = {leaders[r.uid].uid for r in tap_refs}
        assert len(leader_uids) == 1

    def test_distinct_spaces_distinct_leaders(self, machine):
        loop, _ = stream_int("s", streams=3)
        leaders = leading_references(loop)
        loads = [i.memref for i in loop.loads]
        assert len({leaders[r.uid].uid for r in loads}) == 3


class TestDistanceComputation:
    def test_optimal_distance_formula(self, machine):
        loop, _ = stream_int("s", streams=1)
        loop.trip_count.estimate = 10_000.0
        cfg = _cfg()
        plan = plan_prefetches(loop, machine, cfg)
        decision = plan.decision_for(loop.loads[0].memref)
        ii_est = machine.resources.resource_ii(loop.body)
        assert decision.optimal_distance == math.ceil(
            PREFETCH_TARGET_LATENCY / ii_est
        )
        assert decision.emitted

    def test_trip_count_clipping(self, machine):
        """At least half of the prefetches must be useful (Sec. 3.2)."""
        loop, _ = stream_int("s", streams=1)
        loop.trip_count.estimate = 40.0
        plan = plan_prefetches(loop, machine, _cfg())
        decision = plan.decision_for(loop.loads[0].memref)
        assert decision.distance <= 20
        assert decision.reduced == "tripcount"

    def test_outer_contiguity_unclips(self, machine):
        loop, _ = stream_int("s", streams=1)
        loop.trip_count.estimate = 40.0
        loop.trip_count.contiguous_across_outer = True
        plan = plan_prefetches(loop, machine, _cfg())
        decision = plan.decision_for(loop.loads[0].memref)
        assert decision.distance == decision.optimal_distance


class TestMarkingRules:
    def test_rule1_unprefetchable(self, machine):
        loop, _ = pointer_chase("m")
        plan = plan_prefetches(loop, machine, _cfg())
        for load in loop.loads:
            assert not plan.decision_for(load.memref).emitted
            assert plan.hint_candidates[load.memref.uid] is LatencyHint.L2

    def test_rule1_fp_gets_l3(self, machine):
        b = LoopBuilder()
        p = b.live_greg("p")
        ref = b.memref("x", pattern=AccessPattern.POINTER_CHASE, size=8,
                       is_fp=True)
        b.load("ldfd", p, ref)
        q = b.load_into("ld8", p, p,
                        b.memref("n", pattern=AccessPattern.POINTER_CHASE,
                                 size=8, space="n"))
        loop = b.build("fpchase")
        plan = plan_prefetches(loop, machine, _cfg())
        assert plan.hint_candidates[ref.uid] is LatencyHint.L3

    def test_rule2a_symbolic_stride(self, machine):
        loop, _ = symbolic_stride("s")
        loop.trip_count.estimate = 10_000.0
        plan = plan_prefetches(loop, machine, _cfg())
        ref = loop.loads[0].memref
        decision = plan.decision_for(ref)
        assert decision.emitted
        assert decision.distance <= SYMBOLIC_STRIDE_DISTANCE_CAP
        assert decision.reduced == "symbolic"
        assert plan.hint_candidates[ref.uid] is LatencyHint.L3  # FP load

    def test_rule2b_indirect(self, machine):
        loop, _ = gather("g")
        loop.trip_count.estimate = 10_000.0
        plan = plan_prefetches(loop, machine, _cfg())
        data_ref = next(
            i.memref for i in loop.loads
            if i.memref.pattern is AccessPattern.INDIRECT
        )
        idx_ref = next(
            i.memref for i in loop.loads
            if i.memref.pattern is AccessPattern.AFFINE
        )
        d_data = plan.decision_for(data_ref)
        d_idx = plan.decision_for(idx_ref)
        assert d_data.distance <= INDIRECT_DISTANCE_CAP
        assert d_data.distance < d_idx.distance
        assert data_ref.uid in plan.hint_candidates
        assert idx_ref.uid not in plan.hint_candidates

    def test_rule3_ozq_pressure(self, machine):
        loop, _ = stream_int("s", streams=6)
        loop.trip_count.estimate = 10_000.0
        plan = plan_prefetches(loop, machine, _cfg())
        for load in loop.loads:
            decision = plan.decision_for(load.memref)
            assert decision.l2_only
            assert plan.hint_candidates[load.memref.uid] is LatencyHint.L2

    def test_few_streams_no_rule3(self, machine):
        loop, _ = stream_int("s", streams=2)
        loop.trip_count.estimate = 10_000.0
        plan = plan_prefetches(loop, machine, _cfg())
        for load in loop.loads:
            assert not plan.decision_for(load.memref).l2_only

    def test_invariant_never_marked(self, machine):
        b = LoopBuilder()
        ref = b.memref("k", pattern=AccessPattern.INVARIANT)
        x = b.load("ld4", b.live_greg("p"), ref)
        b.alu_imm("adds", x, 1)
        loop = b.build("inv")
        plan = plan_prefetches(loop, machine, _cfg())
        assert ref.uid not in plan.hint_candidates
        assert not plan.decision_for(ref).emitted


class TestPlanApplication:
    def test_lfetch_emitted(self, machine):
        loop, _ = stream_int("s", streams=1)
        loop.trip_count.estimate = 10_000.0
        plan = plan_prefetches(loop, machine, _cfg())
        inserted = apply_prefetch_plan(loop, plan)
        assert inserted and all(i.is_prefetch for i in inserted)
        assert loop.loads[0].memref.prefetched
        assert loop.loads[0].memref.prefetch_distance > 0

    def test_prefetch_disabled(self, machine):
        loop, _ = stream_int("s", streams=1)
        cfg = _cfg(prefetch=False)
        run_hlo(loop, machine, cfg)
        assert not loop.prefetches
        assert not loop.loads[0].memref.prefetched
        # rule 1 applies: not prefetched at all -> marked
        assert loop.loads[0].memref.hint is LatencyHint.L2
