"""Focused tests for reporting, accounting, and experiment plumbing."""

import pytest

from repro.core.accounting import BUCKETS, CycleAccount
from repro.core.reporting import format_account_table, format_gain_table
from repro.sim.counters import PerfCounters


def _account(label, **buckets):
    counters = PerfCounters(**buckets)
    return CycleAccount(label=label, counters=counters)


class TestCycleAccount:
    def test_shares(self):
        acc = _account("a", unstalled=60, be_exe_bubble=40)
        assert acc.total == 100
        assert acc.share("unstalled") == pytest.approx(0.6)
        assert acc.share("be_exe_bubble") == pytest.approx(0.4)
        assert acc.share("be_rse_bubble") == 0.0

    def test_unknown_bucket_rejected(self):
        acc = _account("a", unstalled=1)
        with pytest.raises(KeyError):
            acc.share("bogus")

    def test_delta_percent(self):
        base = _account("base", be_exe_bubble=200)
        variant = _account("v", be_exe_bubble=150)
        assert variant.delta_percent(base, "be_exe_bubble") == pytest.approx(
            -25.0
        )

    def test_delta_percent_from_zero_baseline_is_infinite(self):
        """A bucket appearing out of nowhere is a regression, not a no-op."""
        import math

        variant = _account("v", be_exe_bubble=150)
        empty = _account("e")
        assert math.isinf(variant.delta_percent(empty, "be_exe_bubble"))
        # both zero really is "no change"
        assert empty.delta_percent(_account("e2"), "be_exe_bubble") == 0.0

    def test_ozq_full_percent(self):
        acc = _account("a", unstalled=90, be_l1d_fpu_bubble=10)
        acc.counters.ozq_full_cycles = 8.2
        assert acc.ozq_full_percent() == pytest.approx(8.2)

    def test_buckets_constant_is_complete(self):
        counters = PerfCounters(
            unstalled=1, be_exe_bubble=1, be_l1d_fpu_bubble=1,
            be_rse_bubble=1, be_flush_bubble=1, back_end_bubble_fe=1,
        )
        acc = CycleAccount("a", counters)
        assert sum(acc.share(b) for b in BUCKETS) == pytest.approx(1.0)


class TestAccountTable:
    def test_table_layout(self):
        base = _account("base", unstalled=100, be_exe_bubble=50)
        variant = _account("var", unstalled=101, be_exe_bubble=40)
        text = format_account_table(base, variant)
        lines = text.splitlines()
        assert lines[0].split()[0] == "bucket"
        assert any("be_exe_bubble" in l and "-20.0%" in l for l in lines)
        assert any(l.startswith("TOTAL") for l in lines)
        assert lines[-1].startswith("ozq-full %")

    def test_bucket_appearing_from_zero_renders_as_new(self):
        base = _account("base", unstalled=100)
        variant = _account("var", unstalled=100, be_exe_bubble=40)
        text = format_account_table(base, variant)
        row = next(
            l for l in text.splitlines() if l.startswith("be_exe_bubble")
        )
        assert row.endswith("new")
        assert "inf" not in row


class TestGainTable:
    def test_empty(self):
        assert format_gain_table({}) == "(no results)"

    def test_multi_column_alignment(self):
        class FakeResult:
            def __init__(self, gains, geo):
                self.gains = gains
                self.geomean_gain = geo

        results = {
            "a": FakeResult({"x.bench": 1.234, "y.bench": -0.5}, 0.3),
            "b": FakeResult({"x.bench": 2.0, "y.bench": 0.0}, 1.0),
        }
        text = format_gain_table(results, title="T")
        lines = text.splitlines()
        assert lines[0] == "T"
        assert "x.bench" in lines[2]
        assert lines[-1].startswith("Geomean")
        # every data row carries one cell per column
        assert lines[2].count("%") == 2


class TestExperimentDeterminism:
    @staticmethod
    def _total(name, seed):
        from repro.config import baseline_config
        from repro.harness import BenchmarkJob, run_job
        from repro.workloads import benchmark_by_name

        job = BenchmarkJob(
            benchmark=benchmark_by_name(name),
            config=baseline_config(),
            seed=seed,
        )
        return run_job(job).result.total_cycles

    def test_same_seed_same_result(self):
        assert self._total("464.h264ref", 3) == self._total("464.h264ref", 3)

    def test_different_seed_different_streams(self):
        assert self._total("429.mcf", 3) != self._total("429.mcf", 4)
