"""Integration checks of the paper's evaluation *shapes* (Sec. 4).

These run single benchmarks (not whole suites) to stay fast; the full
suite sweeps live in benchmarks/.  Each test pins a qualitative result the
paper reports:

* 429.mcf gains double digits from HLO-directed hints despite its 2.3-
  iteration hot loop, via k=2-style clustering of the delinquent field
  loads (Sec. 4.4);
* 464.h264ref regresses badly without a trip-count threshold and is
  rescued by n=32 (Sec. 4.2);
* 177.mesa's train/ref mismatch defeats the threshold but not the
  HLO-directed hints (Sec. 4.2/4.3);
* 445.gobmk only loses without PGO, when the static profile pipelines
  and boosts its tiny cache-resident loops (Sec. 4.3).
"""

import pytest

from repro.config import CompilerConfig, HintPolicy, baseline_config
from repro.harness import compare_configs, run_suite
from repro.workloads import benchmark_by_name


def _grid(name, *configs):
    """One benchmark under ``configs`` (seed 7)."""
    return run_suite([benchmark_by_name(name)], list(configs), seed=7)


def _gain(name, base, variant):
    """``variant``'s percent gain over ``base`` on one benchmark."""
    run = _grid(name, base, variant)
    return compare_configs(run, base.label, variant.label).gains[name]


def _l3(n, pgo=True):
    return CompilerConfig(
        hint_policy=HintPolicy.ALL_LOADS_L3, trip_count_threshold=n,
        pgo=pgo, name=f"l3-n{n}-{pgo}",
    )


def _hlo(pgo=True):
    return CompilerConfig(
        hint_policy=HintPolicy.HLO, trip_count_threshold=32,
        pgo=pgo, name=f"hlo-{pgo}",
    )


class TestMcf:
    def test_hlo_gain_double_digit(self):
        assert _gain("429.mcf", baseline_config(), _hlo()) > 8.0

    def test_refresh_loop_pipelined_and_boosted(self):
        run = _grid("429.mcf", _hlo()).config(_hlo().label)["429.mcf"]
        refresh = run.loops[0].compiled
        assert refresh.pipelined
        stats = refresh.stats
        assert stats.boosted_loads == 2  # the two field loads
        assert stats.critical_loads == 1  # node = node->child

    def test_loop_level_speedup_band(self):
        """Sec. 4.4 reports ~40% for the loop itself."""
        res = compare_configs(
            _grid("429.mcf", baseline_config(), _hlo()),
            baseline_config().label, _hlo().label,
        )
        base, var = res.baseline["429.mcf"], res.variant["429.mcf"]
        loop_gain = (
            base.loops[0].cycles / var.loops[0].cycles - 1.0
        ) * 100.0
        assert 25.0 < loop_gain < 90.0


class TestH264ref:
    def test_regression_without_threshold(self):
        assert _gain("464.h264ref", baseline_config(), _l3(0)) < -10.0

    def test_threshold_rescues(self):
        gain = _gain("464.h264ref", baseline_config(), _l3(32))
        assert gain == pytest.approx(0.0, abs=0.5)

    def test_hlo_hints_never_fire(self):
        """Linear L1-resident loads prefetch fine: no hints, no cost."""
        gain = _gain("464.h264ref", baseline_config(), _hlo())
        assert gain == pytest.approx(0.0, abs=0.5)


class TestMesa:
    def test_headroom_loss_persists_across_thresholds(self):
        """Trains at 154 iterations, runs at 8: every threshold <= 64
        passes, and the boosted stages hurt (Sec. 4.2)."""
        base = baseline_config()
        variants = [_l3(n) for n in (0, 32, 64)]
        run = _grid("177.mesa", base, *variants)
        for cfg in variants:
            res = compare_configs(run, base.label, cfg.label)
            assert res.gains["177.mesa"] < -8.0, cfg.label

    def test_hlo_hints_remove_the_loss(self):
        gain = _gain("177.mesa", baseline_config(), _hlo())
        assert gain == pytest.approx(0.0, abs=0.5)


class TestGobmk:
    def test_with_pgo_not_pipelined_no_loss(self):
        res = compare_configs(
            _grid("445.gobmk", baseline_config(), _hlo()),
            baseline_config().label, _hlo().label,
        )
        assert res.gains["445.gobmk"] == pytest.approx(0.0, abs=0.5)
        assert not res.variant["445.gobmk"].loops[0].compiled.pipelined

    def test_without_pgo_loss_persists(self):
        """The Sec. 4.3 worst case: wrong trip count *and* wrong latency
        estimate."""
        base = baseline_config(pgo=False)
        res = compare_configs(
            _grid("445.gobmk", base, _hlo(pgo=False)),
            base.label, _hlo(pgo=False).label,
        )
        assert res.gains["445.gobmk"] < -2.0
        run = res.variant["445.gobmk"]
        assert run.loops[0].compiled.pipelined
        assert run.loops[0].compiled.stats.boosted_loads > 0


class TestNamd:
    def test_fp_gather_gains(self):
        assert _gain("444.namd", baseline_config(), _hlo()) > 6.0

    def test_gain_survives_without_pgo(self):
        """Load latency information compensates for missing trip counts
        (Sec. 3.1, Fig. 9)."""
        gain = _gain("444.namd", baseline_config(pgo=False), _hlo(pgo=False))
        assert gain > 6.0


class TestPrefetchInteraction:
    def test_disabling_prefetch_raises_headroom(self):
        """Sec. 4.2: without software prefetching the headroom grows."""
        with_pf = _gain("462.libquantum", baseline_config(), _l3(32))
        no_pf_base = baseline_config(prefetch=False)
        no_pf_l3 = _l3(32).with_(prefetch=False, name="l3-nopf")
        without_pf = _gain("462.libquantum", no_pf_base, no_pf_l3)
        assert without_pf > with_pf
