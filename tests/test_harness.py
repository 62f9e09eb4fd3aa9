"""Tests for the parallel experiment harness (``repro.harness``).

Covers the ISSUE checklist: cache hit/miss determinism (same key serves
bit-identical ``PerfCounters``), pool-vs-serial result equality on a
four-benchmark suite, manifest round-trips, and the ``compare`` geomean
math — plus the second-run cache-hit-rate acceptance criterion.
"""

import dataclasses
import json
import math

import pytest

from repro.config import CompilerConfig, HintPolicy, baseline_config
from repro.errors import HarnessError
from repro.harness import (
    ArtifactCache,
    BenchmarkJob,
    CellRecord,
    RunManifest,
    compare_configs,
    compare_manifests,
    format_comparison,
    hash_key,
    loop_run_key,
    run_job,
    run_jobs,
    run_suite,
)
from repro.harness.jobs import cached_loop_run
from repro.machine import ItaniumMachine
from repro.workloads import benchmark_by_name, micro_suite, suite_by_name


def hlo_cfg() -> CompilerConfig:
    return CompilerConfig(
        hint_policy=HintPolicy.HLO, trip_count_threshold=32, name="hlo"
    )


def assert_counters_equal(a, b):
    """Field-by-field bit-identity of two PerfCounters."""
    for field in dataclasses.fields(a):
        assert getattr(a, field.name) == getattr(b, field.name), field.name


# --- cache -------------------------------------------------------------------

class TestArtifactCache:
    def test_hash_key_is_canonical(self):
        # key order and float formatting must not change the digest
        assert hash_key({"a": 1, "b": 2.5}) == hash_key({"b": 2.5, "a": 1})
        assert hash_key({"a": 1}) != hash_key({"a": 2})

    def test_put_get_roundtrip(self, tmp_path):
        cache = ArtifactCache(tmp_path)
        key = hash_key({"kind": "test"})
        assert cache.get(key) is None
        assert cache.stats.misses == 1
        cache.put(key, {"cycles": 1.25, "nested": {"x": [1, 2]}})
        assert key in cache
        assert cache.get(key) == {"cycles": 1.25, "nested": {"x": [1, 2]}}
        assert cache.stats.hits == 1
        assert len(cache) == 1

    def test_corrupt_entry_is_a_miss(self, tmp_path):
        cache = ArtifactCache(tmp_path)
        key = hash_key({"kind": "test"})
        cache.put(key, {"cycles": 1.0})
        cache.path_for(key).write_text("{not json")
        assert cache.get(key) is None

    def test_loop_run_key_material_is_json_and_sensitive(self):
        bench = benchmark_by_name("micro.stream")
        machine = ItaniumMachine()
        base = loop_run_key(bench, baseline_config(), machine, 2008)
        json.dumps(base)  # must be JSON-serialisable as-is
        assert hash_key(base) == hash_key(
            loop_run_key(bench, baseline_config(), machine, 2008)
        )
        # every key ingredient perturbs the digest
        assert hash_key(base) != hash_key(
            loop_run_key(bench, hlo_cfg(), machine, 2008)
        )
        assert hash_key(base) != hash_key(
            loop_run_key(bench, baseline_config(), machine, 2009)
        )
        assert hash_key(base) != hash_key(
            loop_run_key(
                bench,
                baseline_config(),
                ItaniumMachine().with_ozq_capacity(1),
                2008,
            )
        )
        assert hash_key(base) != hash_key(
            loop_run_key(
                benchmark_by_name("micro.chase"),
                baseline_config(),
                machine,
                2008,
            )
        )


#: loop-run cache keys of micro.stream on itanium2 (seed 2008), minted
#: while configs still carried the retired scheduler fields: every
#: default-config cache entry stays addressable
PINNED_LOOP_RUN_KEYS = {
    "baseline": "d3b70f538cefc15595c15b4069ac20226b6e474ddbd734465bed484d7bedef3d",
    "hlo,n=32,pgo": "6c733924e81abdd8ced7c8de5b547b9af4d1c5ef953244a54714892bc2953070",
}


def test_loop_run_keys_match_pinned_digests():
    bench = benchmark_by_name("micro.stream")
    machine = ItaniumMachine()
    for config in (baseline_config(), CompilerConfig()):
        key = hash_key(loop_run_key(bench, config, machine, 2008))
        assert key == PINNED_LOOP_RUN_KEYS[config.label]


class TestCacheDeterminism:
    def test_hit_serves_identical_counters(self, tmp_path):
        """Same key: the cached replay is bit-identical to the live run."""
        bench = benchmark_by_name("micro.chase")
        cache = ArtifactCache(tmp_path)
        live, hit1 = cached_loop_run(
            bench, hlo_cfg(), ItaniumMachine(), 2008, cache
        )
        replay, hit2 = cached_loop_run(
            bench, hlo_cfg(), ItaniumMachine(), 2008, cache
        )
        assert (hit1, hit2) == (False, True)
        assert replay.loop_cycles == live.loop_cycles
        assert_counters_equal(replay.counters, live.counters)

    def test_job_through_cache_matches_uncached(self, tmp_path):
        job = BenchmarkJob(
            benchmark=benchmark_by_name("micro.stencil"), config=hlo_cfg()
        )
        bare = run_job(job, cache=None)
        cache = ArtifactCache(tmp_path)
        miss = run_job(job, cache)
        hit = run_job(job, cache)
        assert not bare.cache_hit and not miss.cache_hit and hit.cache_hit
        for outcome in (miss, hit):
            assert outcome.result.total_cycles == bare.result.total_cycles
            assert outcome.result.serial_cycles == bare.result.serial_cycles
            assert_counters_equal(
                outcome.result.counters, bare.result.counters
            )


# --- pool vs serial ----------------------------------------------------------

class TestPoolEquality:
    def test_parallel_matches_serial_on_four_benchmarks(self, tmp_path):
        """workers=2 + cache reproduces a serial uncached run bit-for-bit."""
        suite = micro_suite()
        assert len(suite) == 4
        base, variant = baseline_config(), hlo_cfg()

        serial = run_suite(suite, [base, variant], seed=2008)
        run = run_suite(
            suite,
            [base, variant],
            workers=2,
            cache=tmp_path / "cache",
            seed=2008,
        )

        assert (compare_configs(run, base.label, variant.label).gains
                == compare_configs(serial, base.label, variant.label).gains)
        for label in (base.label, variant.label):
            for name, theirs in serial.config(label).items():
                mine = run.config(label)[name]
                assert mine.total_cycles == theirs.total_cycles
                assert mine.loop_cycles == theirs.loop_cycles
                assert mine.serial_cycles == theirs.serial_cycles
                assert_counters_equal(mine.counters, theirs.counters)

    def test_results_come_back_in_submission_order(self, tmp_path):
        suite = micro_suite()
        jobs = [
            BenchmarkJob(benchmark=bench, config=baseline_config())
            for bench in reversed(suite)
        ]
        outcomes = run_jobs(jobs, workers=2, cache=tmp_path)
        assert [o.result.name for o in outcomes] == [
            bench.name for bench in reversed(suite)
        ]

    def test_timeout_is_recorded_not_raised(self, tmp_path):
        """A job over its deadline is reaped and recorded as a structured
        timeout outcome; the sweep itself completes instead of aborting."""
        jobs = [
            BenchmarkJob(
                benchmark=benchmark_by_name("micro.chase"),
                config=baseline_config(),
            )
        ]
        outcomes = run_jobs(jobs, workers=2, timeout=1e-4)
        assert len(outcomes) == 1
        assert outcomes[0].status == "timeout"
        assert outcomes[0].result is None
        assert not outcomes[0].cache_hit

    def test_timed_out_cells_land_in_the_manifest(self, tmp_path):
        run = run_suite(
            micro_suite()[:2],
            [baseline_config()],
            workers=2,
            timeout=1e-4,
            seed=2008,
        )
        manifest = run.manifest
        assert manifest.timeouts == len(manifest.cells) == 2
        assert "2 timeout(s)" in manifest.summary()
        for cell in manifest.cells:
            assert cell.status == "timeout"
            assert cell.total_cycles == 0.0
        # timed-out cells carry no results and are skipped by compare
        assert run.config(baseline_config().label) == {}


# --- suite runs and the second-run hit rate ----------------------------------

class TestRunSuite:
    def test_second_run_hits_cache_everywhere(self, tmp_path):
        suite = suite_by_name("micro")
        configs = [baseline_config(), hlo_cfg()]
        cold = run_suite(suite, configs, cache=tmp_path, seed=2008)
        warm = run_suite(suite, configs, cache=tmp_path, seed=2008)
        assert cold.manifest.cache_hit_rate == 0.0
        # acceptance criterion: >= 90% hits on an unchanged sweep
        assert warm.manifest.cache_hit_rate >= 0.9
        assert warm.manifest.cache_hit_rate == 1.0
        for config in configs:
            for bench in suite:
                assert (
                    warm.config(config.label)[bench.name].total_cycles
                    == cold.config(config.label)[bench.name].total_cycles
                )

    def test_duplicate_configs_are_deduplicated(self, tmp_path):
        run = run_suite(
            micro_suite()[:1],
            [baseline_config(), baseline_config()],
            cache=tmp_path,
        )
        assert len(run.manifest.configs) == 1
        assert len(run.manifest.cells) == 1

    def test_unknown_config_label_raises(self, tmp_path):
        run = run_suite(micro_suite()[:1], [baseline_config()])
        with pytest.raises(HarnessError, match="no config"):
            run.config("nonsense")


# --- manifests ---------------------------------------------------------------

def make_manifest(run_id, cells):
    return RunManifest(
        run_id=run_id,
        created_utc="20260805T000000Z",
        git_sha="deadbeef",
        suite="micro",
        seed=2008,
        workers=1,
        configs=sorted({cell.config for cell in cells}),
        cells=cells,
        wall_time_s=1.0,
    )


def make_cell(benchmark, config, cycles, hit=False):
    return CellRecord(
        benchmark=benchmark,
        suite="micro",
        config=config,
        total_cycles=cycles,
        loop_cycles=cycles * 0.8,
        serial_cycles=cycles * 0.2,
        cache_hit=hit,
        duration_s=0.1,
    )


class TestManifest:
    def test_roundtrip(self, tmp_path):
        manifest = make_manifest(
            "run-a", [make_cell("b1", "base", 100.0, hit=True),
                      make_cell("b2", "base", 250.5)]
        )
        path = manifest.save(tmp_path / "runs" / "m.json")
        loaded = RunManifest.load(path)
        assert loaded == manifest
        assert loaded.cache_hits == 1
        assert loaded.cache_hit_rate == 0.5
        assert "2 cells" in loaded.summary()

    def test_version_guard(self, tmp_path):
        path = tmp_path / "m.json"
        data = make_manifest("run-a", [make_cell("b1", "base", 1.0)]).to_dict()
        data["version"] = 99
        path.write_text(json.dumps(data))
        with pytest.raises(HarnessError, match="version"):
            RunManifest.load(path)

    def test_unreadable_file(self, tmp_path):
        with pytest.raises(HarnessError, match="cannot read"):
            RunManifest.load(tmp_path / "missing.json")

    def test_run_suite_writes_manifest(self, tmp_path):
        path = tmp_path / "out.json"
        run = run_suite(
            micro_suite()[:1], [baseline_config()], manifest_path=path
        )
        assert RunManifest.load(path) == run.manifest


# --- compare -----------------------------------------------------------------

class TestCompare:
    def test_geomean_math(self):
        # ratios 1.21 and 1.0 -> geomean gain = sqrt(1.21) - 1 = 10%
        a = make_manifest("run-a", [make_cell("b1", "base", 121.0),
                                    make_cell("b2", "base", 70.0)])
        b = make_manifest("run-b", [make_cell("b1", "base", 100.0),
                                    make_cell("b2", "base", 70.0)])
        cmp = compare_manifests(a, b)
        assert cmp.matched_cells == 2
        deltas = {d.benchmark: d for d in cmp.deltas["base"]}
        assert deltas["b1"].delta_percent == pytest.approx(21.0)
        assert deltas["b2"].delta_percent == pytest.approx(0.0)
        expected = (math.sqrt(1.21) - 1.0) * 100.0
        assert cmp.geomean("base") == pytest.approx(expected)
        assert cmp.overall_geomean == pytest.approx(expected)

    def test_unmatched_cells_are_reported(self):
        a = make_manifest("run-a", [make_cell("b1", "base", 100.0),
                                    make_cell("b2", "base", 100.0)])
        b = make_manifest("run-b", [make_cell("b1", "base", 100.0),
                                    make_cell("b3", "base", 100.0)])
        cmp = compare_manifests(a, b)
        assert cmp.only_in_a == [("b2", "base")]
        assert cmp.only_in_b == [("b3", "base")]
        text = format_comparison(cmp)
        assert "removed (only in A): 1 cell(s)" in text
        assert "added (only in B): 1 cell(s)" in text
        assert "- b2 [base]" in text and "+ b3 [base]" in text
        # the geomean covers the intersection only
        assert "over 1 matched cells" in text

    def test_disjoint_manifests_do_not_raise(self):
        a = make_manifest("run-a", [make_cell("b1", "base", 100.0)])
        b = make_manifest("run-b", [make_cell("b2", "hlo", 90.0)])
        cmp = compare_manifests(a, b)
        assert cmp.matched_cells == 0
        assert cmp.only_in_a == [("b1", "base")]
        assert cmp.only_in_b == [("b2", "hlo")]
        # per-config and overall geomeans stay defined (empty intersection)
        assert cmp.geomean("base") == 0.0
        assert cmp.geomean("no-such-config") == 0.0
        assert cmp.overall_geomean == 0.0
        text = format_comparison(cmp)
        assert "(no matching cells)" in text
        assert "- b1 [base]" in text and "+ b2 [hlo]" in text
        assert "n/a (no matched cells)" in text

    def test_partial_overlap_geomean_uses_intersection_only(self):
        # matched: b1 ratio 1.21; the unmatched b2 (ratio would be 2.0)
        # must not leak into the geomean
        a = make_manifest("run-a", [make_cell("b1", "base", 121.0),
                                    make_cell("b2", "base", 200.0)])
        b = make_manifest("run-b", [make_cell("b1", "base", 100.0),
                                    make_cell("b3", "base", 100.0)])
        cmp = compare_manifests(a, b)
        assert cmp.matched_cells == 1
        assert cmp.geomean("base") == pytest.approx(21.0)
        assert cmp.overall_geomean == pytest.approx(21.0)

    def test_identical_runs_show_zero_drift(self, tmp_path):
        suite = micro_suite()[:2]
        configs = [baseline_config(), hlo_cfg()]
        run_a = run_suite(suite, configs, cache=tmp_path, seed=2008)
        run_b = run_suite(suite, configs, cache=tmp_path, seed=2008)
        cmp = compare_manifests(run_a.manifest, run_b.manifest)
        assert cmp.matched_cells == 4
        assert cmp.overall_geomean == pytest.approx(0.0, abs=1e-12)
        assert not cmp.only_in_a and not cmp.only_in_b


# --- verification plumbing ---------------------------------------------------

class TestVerification:
    def test_cached_cell_upgraded_in_place(self, tmp_path):
        """A verify=True request must not accept an unverified payload:
        the run is re-executed and the cache entry upgraded under the
        same key (cycles stay bit-identical)."""
        bench = micro_suite()[0]
        config = baseline_config()
        machine = ItaniumMachine()
        cache = ArtifactCache(tmp_path)
        cold, hit = cached_loop_run(bench, config, machine, 2008, cache)
        assert not hit and cold.verification is None
        upgraded, hit = cached_loop_run(
            bench, config, machine, 2008, cache, verify=True
        )
        assert not hit  # unverified payload rejected, run re-executed
        assert upgraded.verification is not None
        assert upgraded.verification["ok"]
        assert upgraded.loop_cycles == cold.loop_cycles
        served, hit = cached_loop_run(
            bench, config, machine, 2008, cache, verify=True
        )
        assert hit and served.verification == upgraded.verification
        # the upgraded payload still serves plain (non-verifying) requests
        _, hit = cached_loop_run(bench, config, machine, 2008, cache)
        assert hit

    def test_run_suite_records_verification(self, tmp_path):
        suite = micro_suite()[:2]
        run = run_suite(
            suite, [hlo_cfg()], cache=tmp_path, seed=2008, verify=True
        )
        manifest = run.manifest
        assert manifest.verified_cells == len(manifest.cells) == 2
        assert manifest.verify_errors == 0
        assert "verified 2/2 cells (0 error(s))" in manifest.summary()
        for cell in manifest.cells:
            assert cell.verified and cell.verify_errors == 0
        # the legacy summary contract the CI grep relies on still holds
        assert "cache 0/2 hits" in manifest.summary()

    def test_unverified_cells_stay_unverified(self, tmp_path):
        run = run_suite(micro_suite()[:1], [baseline_config()], cache=tmp_path)
        manifest = run.manifest
        assert manifest.verified_cells == 0
        assert "verified" not in manifest.summary()

    def test_manifests_without_verify_fields_still_load(self):
        """Cells written before verification existed lack the new keys;
        the dataclass defaults must absorb that.  Cells written while a
        second simulator existed carry a retired ``backend`` key, which
        loading drops."""
        data = dataclasses.asdict(make_cell("b1", "base", 1.0))
        for key in ("verified", "verify_errors", "verify_warnings"):
            data.pop(key)
        cell = CellRecord(**data)
        assert not cell.verified
        assert cell.verify_errors == 0 and cell.verify_warnings == 0

        manifest = make_manifest("run-a", [make_cell("b2", "base", 2.0)])
        legacy = manifest.to_dict()
        legacy["cells"][0]["backend"] = "fast"
        loaded = RunManifest.from_dict(legacy)
        assert loaded.cells == manifest.cells
        assert loaded.fingerprint() == manifest.fingerprint()
