"""Tests for balanced scheduling (the Kerns & Eggers comparison policy)."""

import numpy as np
import pytest

from repro.config import CompilerConfig, baseline_config
from repro.ir import parse_loop
from repro.pipeliner import pipeline_loop
from repro.pipeliner.balanced import PerLoadLatencyMachine, balanced_pipeline
from repro.sim import simulate_loop
from repro.workloads.loops import low_trip_linear, pointer_chase
from tests.conftest import RUNNING_EXAMPLE


class TestPerLoadLatencyMachine:
    def test_overrides_expected_only(self, running_example, machine):
        load = running_example.body[0]
        wrapped = PerLoadLatencyMachine(machine, {load.index: 9})
        data = load.defs[0]
        assert wrapped.flow_latency(load, data, expected=True) == 9
        assert wrapped.flow_latency(load, data, expected=False) == 1
        # the address result stays a 1-cycle post-increment either way
        assert wrapped.flow_latency(load, load.uses[0], expected=True) == 1

    def test_delegation(self, machine):
        wrapped = PerLoadLatencyMachine(machine, {})
        assert wrapped.resources is machine.resources
        assert wrapped.ozq_capacity == machine.ozq_capacity


class TestBalancedPipeline:
    def test_single_load_gets_whole_budget(self, machine):
        loop = parse_loop(RUNNING_EXAMPLE)
        result = balanced_pipeline(loop, machine, total_budget=12)
        assert result.pipelined
        p = result.stats.placements[0]
        assert p.boosted
        assert p.use_distance == 1 + 12

    def test_budget_split_across_loads(self, machine):
        loop, _ = low_trip_linear("bal")
        loop.trip_count.estimate = 1000.0
        result = balanced_pipeline(loop, machine, total_budget=12)
        distances = [p.use_distance for p in result.stats.placements]
        # two loads share the 12-cycle budget: 6 extra each
        assert all(d == 1 + 6 for d in distances)

    def test_recurrence_cycles_still_protected(self, machine):
        loop, _ = pointer_chase("bal", heap=1 << 20)
        loop.trip_count.estimate = 100.0
        result = balanced_pipeline(loop, machine, total_budget=24)
        # the chase load must stay at base latency despite the balancing
        chase = [p for p in result.stats.placements
                 if p.load.memref.name == "child"]
        assert chase[0].use_distance == 1
        assert result.ii == result.bounds.min_ii

    def test_balanced_wastes_effort_on_cache_resident_loads(self, machine):
        """The paper's argument for *selective* boosting: uniform budgets
        pay pipeline depth on loads that never miss."""
        trips = [12] * 300

        loop_h, layout = low_trip_linear("res", working_set=8 * 1024)
        loop_h.trip_count.estimate = 12.0
        hinted = pipeline_loop(loop_h, machine, baseline_config())
        base_sim = simulate_loop(
            hinted, machine, layout, trips,
        )

        loop_b, layout_b = low_trip_linear("res", working_set=8 * 1024)
        loop_b.trip_count.estimate = 12.0
        balanced = balanced_pipeline(loop_b, machine, total_budget=20)
        bal_sim = simulate_loop(
            balanced, machine, layout_b, trips,
        )
        # the loads are L1-resident: balancing adds stages for nothing
        assert balanced.stats.stage_count > hinted.stats.stage_count
        assert bal_sim.cycles > base_sim.cycles
