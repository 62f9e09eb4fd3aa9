"""Tests for the LoopCompiler and the experiment harness."""

import pytest

from repro.config import CompilerConfig, HintPolicy, baseline_config
from repro.core import (
    LoopCompiler,
    accumulate_account,
    format_account_table,
    format_gain_table,
    percent_gain,
    register_statistics,
)
from repro.core.statistics import format_register_table
from repro.errors import HarnessError
from repro.harness import (
    ArtifactCache,
    BenchmarkJob,
    compare_configs,
    run_job,
    run_suite,
)
from repro.hlo.profiles import TripDistribution, collect_block_profile
from repro.ir.memref import LatencyHint
from repro.workloads import benchmark_by_name
from repro.workloads.loops import pointer_chase, stream_int


class TestLoopCompiler:
    def test_compile_does_not_mutate_input(self, machine):
        loop, _ = stream_int("s", streams=1)
        n_insts = len(loop.body)
        compiler = LoopCompiler(
            machine, CompilerConfig(hint_policy=HintPolicy.ALL_LOADS_L3)
        )
        compiled = compiler.compile(loop)
        assert len(loop.body) == n_insts  # no lfetch leaked into the input
        assert loop.loads[0].memref.hint is LatencyHint.NONE
        assert compiled.loop is not loop

    def test_low_trip_loops_not_pipelined(self, machine):
        loop, _ = pointer_chase("m")
        profile = collect_block_profile(
            {loop.name: TripDistribution(kind="constant", mean=1)}
        )
        compiled = LoopCompiler(machine, baseline_config()).compile(
            loop, profile
        )
        assert not compiled.pipelined
        assert compiled.result.seq_length > 0

    def test_mcf_trip_count_still_pipelined(self, machine):
        """The paper's refresh_potential runs 2.3 iterations on average
        and is pipelined (Sec. 4.4)."""
        loop, _ = pointer_chase("m")
        profile = collect_block_profile(
            {loop.name: TripDistribution(kind="constant", mean=2.3)}
        )
        compiled = LoopCompiler(machine, baseline_config()).compile(
            loop, profile
        )
        assert compiled.pipelined

    def test_prefetches_added_by_hlo(self, machine):
        loop, _ = stream_int("s", streams=2)
        compiled = LoopCompiler(machine, CompilerConfig()).compile(loop)
        assert compiled.loop.prefetches
        assert compiled.plan.decisions


HLO = CompilerConfig(hint_policy=HintPolicy.HLO, trip_count_threshold=32,
                     name="hlo")


@pytest.fixture(scope="module")
def mini_experiment():
    """429.mcf and 464.h264ref, baseline vs HLO hints, seed 7."""
    benches = [benchmark_by_name("429.mcf"), benchmark_by_name("464.h264ref")]
    run = run_suite(benches, [baseline_config(), HLO], seed=7)
    return compare_configs(run, baseline_config().label, HLO.label)


class TestExperiment:
    def test_percent_gain(self):
        assert percent_gain(110, 100) == pytest.approx(10.0)
        assert percent_gain(100, 110) == pytest.approx(-9.0909, abs=1e-3)

    def test_compare_shapes(self, mini_experiment):
        res = mini_experiment
        assert set(res.gains) == {"429.mcf", "464.h264ref"}
        # mcf gains from HLO hints; h264ref is untouched at n=32
        assert res.gains["429.mcf"] > 5.0
        assert res.gains["464.h264ref"] == pytest.approx(0.0, abs=0.3)
        assert res.geomean_gain > 0

    def test_serial_cycles_constant_across_configs(self, mini_experiment):
        b = mini_experiment.baseline["429.mcf"]
        v = mini_experiment.variant["429.mcf"]
        assert b.serial_cycles == v.serial_cycles

    def test_gain_table_formatting(self, mini_experiment):
        table = format_gain_table({"hlo": mini_experiment}, title="T")
        assert "429.mcf" in table and "Geomean" in table and "%" in table


class TestAccountingAndStatistics:
    def test_cycle_account(self, mini_experiment):
        res = mini_experiment
        acc_b = accumulate_account(res.baseline, "baseline")
        acc_v = accumulate_account(res.variant, "hlo")
        assert acc_b.total > 0
        assert sum(acc_b.share(b) for b in (
            "unstalled", "be_exe_bubble", "be_l1d_fpu_bubble",
            "be_rse_bubble", "be_flush_bubble", "back_end_bubble_fe",
        )) == pytest.approx(1.0)
        # latency tolerance cuts data stalls on this pair (mcf dominates)
        assert acc_v.delta_percent(acc_b, "be_exe_bubble") < 0
        table = format_account_table(acc_b, acc_v)
        assert "be_exe_bubble" in table and "ozq-full" in table

    def test_register_statistics(self, mini_experiment):
        res = mini_experiment
        st_b = register_statistics(res.baseline, "baseline")
        st_v = register_statistics(res.variant, "hlo")
        from repro.ir.registers import RegClass

        # boosting grows register usage (Sec. 4.5) but never exhausts files
        assert st_v.increase_percent(st_b, RegClass.GR) > 0
        assert st_v.increase_percent(st_b, RegClass.PR) > 0
        assert st_v.utilization[RegClass.GR] < 0.5
        assert st_v.boosted_loads > 0
        table = format_register_table(st_b, st_v)
        assert "GR" in table and "spills" in table

    def test_register_statistics_rejects_cache_served_results(self, tmp_path):
        """A cache hit carries cycles but no loop artifacts; counting it
        would report zero registers, attempts and pipelined loops."""
        job = BenchmarkJob(
            benchmark=benchmark_by_name("micro.stencil"),
            config=baseline_config(),
        )
        cache = ArtifactCache(tmp_path)
        run_job(job, cache)
        hit = run_job(job, cache)
        assert hit.cache_hit and hit.result.loops == []
        with pytest.raises(HarnessError, match="micro.stencil"):
            register_statistics({"micro.stencil": hit.result}, "baseline")
