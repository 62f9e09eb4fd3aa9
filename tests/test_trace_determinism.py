"""Determinism tests: repeat runs, OzQ tie-breaking, and the harness.

Covers two ISSUE satellites: the uid-keyed OzQ heap (repeat runs of the
same simulation are bit-identical, trace and all) and trace determinism
across harness execution modes — serial, parallel (``--jobs``), and
cache-hit runs must produce identical trace summaries.
"""

import dataclasses

from repro.config import CompilerConfig, HintPolicy, baseline_config
from repro.harness import run_suite
from repro.harness.jobs import run_loops
from repro.machine import ItaniumMachine
from repro.trace import trace_simulation, trace_summary
from repro.workloads import micro_suite


def hlo_cfg() -> CompilerConfig:
    return CompilerConfig(
        hint_policy=HintPolicy.HLO, trip_count_threshold=32, name="hlo"
    )


def assert_counters_equal(a, b):
    for field in dataclasses.fields(a):
        assert getattr(a, field.name) == getattr(b, field.name), field.name


def trace_stream(seed=13):
    """The chase benchmark traced twice must agree event for event."""
    from repro.core.compiler import LoopCompiler
    from repro.harness.jobs import collect_profile

    bench = next(b for b in micro_suite() if "stream" in b.name)
    (lw,) = bench.loops
    loop, layout = lw.build()
    machine = ItaniumMachine()
    compiled = LoopCompiler(machine, hlo_cfg()).compile(
        loop, collect_profile(bench, [loop], seed)
    )
    return trace_simulation(
        compiled.result, machine, layout, [120, 80], seed=seed
    )


class TestRepeatRunEquality:
    def test_cycles_counters_and_events_are_bit_identical(self):
        a, b = trace_stream(), trace_stream()
        assert a.run.cycles == b.run.cycles
        assert_counters_equal(a.run.counters, b.run.counters)
        assert len(a.events) == len(b.events)
        assert all(
            x.to_dict() == y.to_dict() for x, y in zip(a.events, b.events)
        )

    def test_summaries_are_identical(self):
        a, b = trace_stream(), trace_stream()
        assert (trace_summary(a.attribution, a.check)
                == trace_summary(b.attribution, b.check))

    def test_ozq_pop_order_is_deterministic_under_ties(self):
        # the stream benchmark fills the OzQ with same-latency misses, so
        # completion-time ties are routine; the uid tie-break keeps the
        # inflight counts (and with them the clustering histogram) stable
        a, b = trace_stream(), trace_stream()
        assert a.attribution.clustering == b.attribution.clustering
        assert a.attribution.clustering_cycles == b.attribution.clustering_cycles


class TestRunLoopsTraceDeterminism:
    def test_traced_run_matches_untraced_bit_exactly(self):
        bench = micro_suite()[0]
        machine = ItaniumMachine()
        plain = run_loops(bench, hlo_cfg(), machine, seed=2008)
        traced = run_loops(bench, hlo_cfg(), machine, seed=2008, trace=True)
        assert plain.loop_cycles == traced.loop_cycles
        assert_counters_equal(plain.counters, traced.counters)
        assert plain.trace is None
        assert traced.trace is not None and traced.trace["ok"]

    def test_repeat_traces_agree(self):
        bench = micro_suite()[1]
        machine = ItaniumMachine()
        a = run_loops(bench, baseline_config(), machine, seed=2008, trace=True)
        b = run_loops(bench, baseline_config(), machine, seed=2008, trace=True)
        assert a.trace == b.trace


class TestHarnessTraceDeterminism:
    def test_serial_parallel_and_cache_hit_summaries_agree(self, tmp_path):
        suite = micro_suite()
        configs = [baseline_config(), hlo_cfg()]

        def summaries(run):
            return [
                (c.benchmark, c.config, c.trace) for c in run.manifest.cells
            ]

        serial = run_suite(suite, configs, seed=2008, workers=1, trace=True)
        parallel = run_suite(suite, configs, seed=2008, workers=4, trace=True)
        assert summaries(serial) == summaries(parallel)
        assert all(cell.trace["ok"] for cell in serial.manifest.cells)

        cold = run_suite(
            suite, configs, seed=2008, workers=1,
            cache=tmp_path / "cache", trace=True,
        )
        warm = run_suite(
            suite, configs, seed=2008, workers=1,
            cache=tmp_path / "cache", trace=True,
        )
        assert warm.manifest.cache_hits == len(warm.manifest.cells)
        assert summaries(cold) == summaries(warm) == summaries(serial)

    def test_traced_and_untraced_runs_share_cycles_not_cache_keys(
        self, tmp_path
    ):
        suite = micro_suite()[:2]
        configs = [baseline_config()]
        plain = run_suite(
            suite, configs, seed=2008, cache=tmp_path / "cache"
        )
        traced = run_suite(
            suite, configs, seed=2008, cache=tmp_path / "cache", trace=True
        )
        # tracing never changes simulation results...
        for cell_p, cell_t in zip(plain.manifest.cells, traced.manifest.cells):
            assert cell_p.total_cycles == cell_t.total_cycles
        # ...but addresses separate cache entries, so the traced sweep
        # cannot be served a summary-less payload
        assert traced.manifest.cache_hits == 0
        assert all(c.trace is not None for c in traced.manifest.cells)

    def test_manifest_roundtrip_preserves_trace_summaries(self, tmp_path):
        from repro.harness import RunManifest

        run = run_suite(
            micro_suite()[:1], [baseline_config()], seed=2008, trace=True,
            manifest_path=tmp_path / "m.json",
        )
        loaded = RunManifest.load(tmp_path / "m.json")
        assert loaded == run.manifest
        assert loaded.traced_cells == len(loaded.cells)
        assert "traced" in loaded.summary()
