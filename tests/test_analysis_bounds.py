"""SA5xx static performance bounds: clean paths and one mutation per code.

PR-2 style: compile a real loop, simulate it, assert the checks are
silent; then break one invariant at a time and assert exactly the
matching diagnostic fires.
"""

from __future__ import annotations

import copy
import math

import pytest

from repro.analysis import (
    build_perf_model,
    check_simulation,
    max_live,
    verify_compiled,
    verify_pressure,
)
from repro.core.compiler import LoopCompiler
from repro.ir import parse_loop
from repro.ir.registers import RegClass
from repro.machine import ItaniumMachine
from repro.sim.address import StreamSpec
from repro.sim.executor import simulate_loop

TRIPS = [50, 7]
LAYOUT = {"a": StreamSpec(size=1 << 16), "b": StreamSpec(size=1 << 16)}

STORE_ONLY = """
memref B affine stride=4 space=b
loop store_only trips=200 source=pgo
  add r9 = r9, r4
  st4 [r6] = r9, 4 !B
"""


@pytest.fixture
def compiled(running_example, boost_all_config, machine):
    return LoopCompiler(machine, boost_all_config).compile(running_example)


@pytest.fixture
def simmed(compiled, machine):
    run = simulate_loop(
        compiled.result, machine, LAYOUT, TRIPS,
        seed=11,
    )
    model = build_perf_model(compiled.result, machine, LAYOUT)
    return model, run


class TestCleanPaths:
    def test_verify_result_is_error_free(self, compiled):
        report = verify_compiled(compiled)
        assert report.ok
        # the static observations are notes, present but non-fatal
        assert report.has("SA502") and report.has("SA503")

    def test_counters_inside_the_interval(self, simmed):
        model, run = simmed
        report = model.check_counters(TRIPS, run.counters, run.cycles)
        assert not len(report), report.render_text()
        lower, upper = model.cycle_interval(TRIPS)
        assert lower <= run.cycles * (1 + 1e-9) and run.cycles <= upper
        assert not math.isinf(upper)  # affine strides: bank bound provable

    def test_check_simulation_wrapper(self, compiled, machine, simmed):
        _, run = simmed
        report = check_simulation(
            compiled.result, machine, LAYOUT, TRIPS,
            run.counters, run.cycles,
        )
        assert not len(report)

    def test_zero_trip_invocations_still_pay_fixed_costs(
        self, compiled, machine
    ):
        trips = [0, 20, -3]
        run = simulate_loop(
            compiled.result, machine, LAYOUT, trips,
            seed=11,
        )
        model = build_perf_model(compiled.result, machine, LAYOUT)
        report = model.check_counters(trips, run.counters, run.cycles)
        assert not len(report), report.render_text()

    def test_trace_sites_within_residual_budget(self, compiled, machine):
        from repro.trace import trace_simulation

        traced = trace_simulation(
            compiled.result, machine, LAYOUT, TRIPS, seed=11
        )
        model = build_perf_model(compiled.result, machine, LAYOUT)
        stalls = {
            tag: site.stall_cycles
            for tag, site in traced.attribution.sites.items()
        }
        report = model.check_trace_sites(TRIPS, stalls)
        assert not len(report), report.render_text()

    def test_model_serialises_without_inf(self, simmed):
        import json

        model, _ = simmed
        json.dumps(model.to_dict())
        # an unprovable model serialises too (inf -> null)
        chase = parse_loop(
            "memref P chase space=p\n"
            "loop chase trips=200 source=pgo\n"
            "  ld8 r4 = [r4] !P\n"
            "  add r7 = r4, r9\n"
        )
        result = LoopCompiler(ItaniumMachine()).compile(chase).result
        unbounded = build_perf_model(result, ItaniumMachine())
        assert math.isinf(unbounded.l_max)
        assert json.dumps(unbounded.to_dict())


class TestPressure:
    def test_clean_allocation_passes(self, compiled):
        assert verify_pressure(compiled.result).ok

    def test_max_live_at_most_usage(self, compiled):
        peaks = max_live(compiled.result)
        used = compiled.result.rotating.used
        sc = compiled.result.schedule.stage_count
        for rclass, peak in peaks.items():
            extra = sc if rclass is RegClass.PR else 0
            assert peak + extra <= used[rclass]

    def test_sa501_fires_when_usage_shrunk(self, compiled):
        result = copy.deepcopy(compiled.result)
        result.rotating.used[RegClass.GR] -= 1
        report = verify_pressure(result)
        assert report.has("SA501")
        assert not report.ok


class TestStaticNotes:
    def test_sa502_fires_under_default_capacity(self, compiled, machine):
        model = build_perf_model(compiled.result, machine, LAYOUT)
        assert not model.ozq_zero_proof
        assert model.static_report().has("SA502")

    def test_sa502_absent_when_occupancy_provable(self, compiled, machine):
        roomy = machine.with_ozq_capacity(10**9)
        model = build_perf_model(compiled.result, roomy, LAYOUT)
        assert model.ozq_zero_proof
        assert not model.static_report().has("SA502")

    def test_sa503_fires_for_exposed_loads(self, compiled, machine):
        model = build_perf_model(compiled.result, machine, LAYOUT)
        assert not model.zero_stall_proof
        report = model.static_report()
        assert report.has("SA503")
        # one note per loop, with the per-site details in the payload
        notes = [d for d in report if d.code == "SA503"]
        assert len(notes) == 1
        assert notes[0].detail["sites"]

    def test_sa503_absent_without_load_sites(self, machine, base_config):
        compiled = LoopCompiler(machine, base_config).compile(
            parse_loop(STORE_ONLY)
        )
        model = build_perf_model(compiled.result, machine)
        assert model.zero_stall_proof
        assert not model.static_report().has("SA503")


class TestCounterMutations:
    """Break one counter at a time; the matching SA51x code must fire."""

    def test_sa511_event_count(self, simmed):
        model, run = simmed
        counters = copy.deepcopy(run.counters)
        counters.source_iterations += 1
        report = model.check_counters(TRIPS, counters, run.cycles)
        assert report.has("SA511")

    def test_sa511_load_count(self, simmed):
        model, run = simmed
        counters = copy.deepcopy(run.counters)
        level = next(iter(counters.loads_by_level))
        counters.loads_by_level[level] += 3
        assert model.check_counters(TRIPS, counters, run.cycles).has("SA511")

    def test_sa512_fixed_bucket(self, simmed):
        model, run = simmed
        counters = copy.deepcopy(run.counters)
        counters.be_flush_bubble += 1.0
        report = model.check_counters(TRIPS, counters, run.cycles)
        assert report.has("SA512")

    def test_sa513_bubble_over_bound(self, simmed):
        model, run = simmed
        counters = copy.deepcopy(run.counters)
        counters.be_exe_bubble = 1e12
        report = model.check_counters(TRIPS, counters, run.cycles)
        assert report.has("SA513")

    def test_sa514_ozq_counter(self, simmed):
        model, run = simmed
        counters = copy.deepcopy(run.counters)
        counters.ozq_full_cycles = run.cycles + 1000.0
        report = model.check_counters(TRIPS, counters, run.cycles)
        assert report.has("SA514")

    def test_sa514_under_zero_proof(self, compiled, machine, simmed):
        _, run = simmed
        roomy = machine.with_ozq_capacity(10**9)
        model = build_perf_model(compiled.result, roomy, LAYOUT)
        assert model.ozq_zero_proof
        counters = copy.deepcopy(run.counters)
        counters.be_l1d_fpu_bubble = 5.0
        report = model.check_counters(TRIPS, counters, run.cycles)
        assert report.has("SA514")

    def test_sa515_below_lower(self, simmed):
        model, run = simmed
        lower, _ = model.cycle_interval(TRIPS)
        report = model.check_counters(TRIPS, run.counters, lower - 50.0)
        assert report.has("SA515")

    def test_sa515_above_upper(self, simmed):
        model, run = simmed
        _, upper = model.cycle_interval(TRIPS)
        assert not math.isinf(upper)
        report = model.check_counters(TRIPS, run.counters, upper + 50.0)
        assert report.has("SA515")

    def test_sa516_site_over_budget(self, simmed):
        model, _ = simmed
        site = next(s for s in model.sites if s.residual > 0)
        report = model.check_trace_sites(TRIPS, {site.tag: 1e12})
        assert report.has("SA516")
        # unknown tags (non-load attribution keys) are ignored
        assert not len(model.check_trace_sites(TRIPS, {"other#9:st4": 1e12}))


class TestManifestIntegration:
    """A corrupted simulation must surface as manifest bound violations."""

    def test_corrupted_counters_reach_the_manifest(self, monkeypatch):
        import repro.harness.jobs as jobs
        from repro.config import baseline_config
        from repro.harness import run_suite
        from repro.workloads import micro_suite

        real = jobs.simulate_loop

        def corrupting(*args, **kwargs):
            run = real(*args, **kwargs)
            run.counters.source_iterations += 7
            return run

        monkeypatch.setattr(jobs, "simulate_loop", corrupting)
        bench = [b for b in micro_suite() if b.name == "micro.lowtrip"]
        run = run_suite(
            bench, [baseline_config()], workers=1, verify=True
        )
        cell = run.manifest.cells[0]
        assert cell.bounds_checked > 0
        assert cell.bounds_violations > 0
        assert cell.verify_errors > 0
        assert run.manifest.bounds_violations > 0
        assert "violation" in run.manifest.summary()

    def test_clean_run_records_zero_violations(self):
        from repro.config import baseline_config
        from repro.harness import run_suite
        from repro.workloads import micro_suite

        bench = [b for b in micro_suite() if b.name == "micro.lowtrip"]
        run = run_suite(
            bench, [baseline_config()], workers=1, verify=True
        )
        cell = run.manifest.cells[0]
        assert cell.bounds_checked > 0
        assert cell.bounds_violations == 0
        assert run.manifest.bounds_checked > 0

    def test_micro_suite_bounds_hold_on_every_cell(self):
        from repro.config import baseline_config
        from repro.harness import run_suite
        from repro.workloads import micro_suite

        run = run_suite(
            micro_suite(), [baseline_config()], workers=1, verify=True
        )
        for cell in run.manifest.cells:
            assert cell.bounds_checked > 0
            assert cell.bounds_violations == 0
            assert cell.verify_errors == 0
        assert run.manifest.bounds_violations == 0
