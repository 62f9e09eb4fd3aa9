"""Tests for the Sec. 6 outlook extensions: dynamic cache-miss sampling
and trip-count versioning."""

from functools import partial

import numpy as np
import pytest

from repro.config import CompilerConfig, HintPolicy, baseline_config
from repro.core.compiler import LoopCompiler
from repro.core.versioning import (
    VERSION_CHECK_CYCLES,
    compile_versions,
    simulate_versioned,
)
from repro.hlo.profiles import TripDistribution, collect_block_profile
from repro.hlo.sampling import (
    MissProfile,
    RefMissStats,
    collect_miss_profile,
    hints_from_miss_profile,
)
from repro.ir.memref import LatencyHint
from repro.machine import TlbGeometry, build_machine
from repro.sim import simulate_loop
from repro.sim.address import StreamSpec
from repro.workloads.loops import gather, low_trip_linear, pointer_chase

MB = 1 << 20


class TestMissStats:
    def test_latency_classes(self):
        stats = RefMissStats()
        stats.add(1, 1.0)
        stats.add(2, 6.0)
        stats.add(2, 170.0)  # "L2 hit" on a pending line: memory-class
        assert stats.samples == 3
        assert stats.latency_classes == {1: 1, 2: 1, 4: 1}
        assert stats.mean_latency == pytest.approx(59.0)

    def test_typical_level_uses_tail(self):
        stats = RefMissStats()
        for _ in range(8):
            stats.add(1, 1.0)
        for _ in range(2):
            stats.add(4, 200.0)  # 20% tail at memory latency
        assert stats.typical_level == 4

    def test_mostly_l1_is_level_one(self):
        stats = RefMissStats()
        for _ in range(99):
            stats.add(1, 1.0)
        stats.add(4, 200.0)
        assert stats.typical_level == 1


class TestMissSampling:
    def test_profile_attributes_by_reference(self, machine):
        factory = partial(gather, "g", index_set=2 * MB, data_set=10 * MB,
                          fp=True)
        profile = collect_miss_profile(factory, machine, [100] * 4)
        loop, _ = factory()
        idx_ref = loop.body[0].memref
        data_ref = next(i.memref for i in loop.loads if i.memref.name == "data")
        idx_stats = profile.for_ref(idx_ref)
        data_stats = profile.for_ref(data_ref)
        assert idx_stats is not None and data_stats is not None
        # the affine index stream prefetches into L1; the gathered data
        # pays real latency
        assert idx_stats.typical_level == 1
        assert data_stats.typical_level >= 3

    def test_sampling_runs_on_the_machine_it_is_given(self, machine):
        """The training run reads the whole description: a slower TLB
        walk shows up in the sampled latencies."""
        slow_tlb = build_machine(machine.description.with_(
            name="slow-tlb", tlb=TlbGeometry(miss_penalty=200),
        ))
        factory = partial(pointer_chase, "m", heap=64 * MB)
        fast = collect_miss_profile(factory, machine, [4] * 40)
        slow = collect_miss_profile(factory, slow_tlb, [4] * 40)
        loop, _ = factory()
        for load in loop.loads:
            assert (
                slow.for_ref(load.memref).mean_latency
                > fast.for_ref(load.memref).mean_latency
            )

    def test_hints_from_profile(self, machine):
        factory = partial(pointer_chase, "m", heap=64 * MB)
        profile = collect_miss_profile(factory, machine, [4] * 80)
        loop, _ = factory()
        marked = hints_from_miss_profile(loop, profile)
        assert marked >= 2
        for load in loop.loads[:-1]:  # the field loads
            assert load.memref.hint in (LatencyHint.L3, LatencyHint.MEM)
            assert load.memref.hint_source == "sampled"

    def test_sampled_policy_preserves_annotations(self, machine):
        factory = partial(pointer_chase, "m", heap=64 * MB)
        profile = collect_miss_profile(factory, machine, [4] * 40)
        loop, _ = factory()
        hints_from_miss_profile(loop, profile)
        cfg = CompilerConfig(hint_policy=HintPolicy.SAMPLED,
                             trip_count_threshold=32)
        compiled = LoopCompiler(machine, cfg).compile(loop)
        # sampled hints survive HLO and bypass the trip gate; criticality
        # still protects the chase recurrence
        assert compiled.stats.boosted_loads == 2
        assert compiled.stats.critical_loads == 1

    def test_sampled_hints_beat_baseline(self, machine):
        factory = partial(pointer_chase, "m", heap=64 * MB)
        profile = collect_miss_profile(factory, machine, [4] * 40)
        cycles = {}
        for label, cfg in (
            ("base", baseline_config()),
            ("sampled", CompilerConfig(hint_policy=HintPolicy.SAMPLED,
                                       trip_count_threshold=32)),
        ):
            loop, layout = factory()
            if label == "sampled":
                hints_from_miss_profile(loop, profile)
            compiled = LoopCompiler(machine, cfg).compile(loop)
            rng = np.random.default_rng(5)
            trips = TripDistribution(kind="uniform", low=1, high=4).sample(
                rng, 600
            )
            sim = simulate_loop(
                compiled.result, machine, layout, list(trips),
            )
            cycles[label] = sim.cycles
        assert cycles["sampled"] < cycles["base"] * 0.8

    def test_training_run_sees_what_simulate_loop_runs(self, machine):
        """The sampled run is a plain simulate_loop run: reused spaces
        start pre-warmed and restart every invocation, so no cold
        misses appear that the measured run never has."""
        factory = partial(low_trip_linear, "h", working_set=4 * MB)
        trips = [10] * 60
        profile = collect_miss_profile(factory, machine, trips, seed=17)
        sampled: dict[int, int] = {}
        for stats in profile.stats.values():
            for level, n in stats.levels.items():
                sampled[level] = sampled.get(level, 0) + n
        loop, layout = factory()
        result = LoopCompiler(machine, baseline_config()).compile(loop).result
        run = simulate_loop(result, machine, layout, trips, seed=17)
        assert sampled == run.counters.loads_by_level

    def test_unsampled_loop_gets_no_hints(self, machine):
        loop, _ = gather("fresh", index_set=1 * MB, data_set=1 * MB)
        assert hints_from_miss_profile(loop, MissProfile()) == 0


class TestTripCountVersioning:
    @pytest.fixture
    def mesa_like(self, machine):
        """A loop that trains long but runs short (the mesa pathology),
        under the blanket L3 policy that ruins it (Fig. 7)."""
        factory = partial(low_trip_linear, "mesa")
        profile = collect_block_profile(
            {"mesa": TripDistribution(kind="constant", mean=154)}
        )
        cfg = CompilerConfig(hint_policy=HintPolicy.ALL_LOADS_L3,
                             trip_count_threshold=32)
        return factory, profile, cfg

    def test_versions_differ(self, machine, mesa_like):
        factory, profile, cfg = mesa_like
        versioned, _ = compile_versions(factory, machine, cfg,
                                        profile=profile)
        assert versioned.boosted.stats.boosted_loads > 0
        assert versioned.fallback.stats.boosted_loads == 0
        assert (
            versioned.boosted.stats.stage_count
            > versioned.fallback.stats.stage_count
        )
        assert versioned.threshold > 1

    def test_versioning_removes_the_mesa_loss(self, machine, mesa_like):
        """Run at 8 iterations per invocation: the plain boosted build
        loses badly; the versioned build tracks the fallback."""
        factory, profile, cfg = mesa_like
        trips = [8] * 400

        loop, layout = factory()
        boosted_only = LoopCompiler(machine, cfg).compile(loop, profile)
        plain = simulate_loop(
            boosted_only.result, machine, layout, trips,
        )

        versioned, layout_v = compile_versions(
            factory, machine, cfg, profile=profile, threshold=32
        )
        multi = simulate_versioned(
            versioned, machine, layout_v, trips,
        )
        assert multi.cycles < plain.cycles * 0.9

        loop_f, layout_f = factory()
        fallback_only = LoopCompiler(
            machine, cfg.with_(latency_tolerant=False)
        ).compile(loop_f, profile)
        base = simulate_loop(
            fallback_only.result, machine, layout_f, trips,
        )
        # within the version-check overhead of the conventional build
        overhead = len(trips) * VERSION_CHECK_CYCLES
        assert multi.cycles <= base.cycles + overhead * 1.5

    def test_versioning_keeps_gains_on_long_invocations(self, machine):
        """A bimodal workload: short invocations take the fallback,
        long ones the boosted pipeline — versioning beats either alone."""
        factory = partial(pointer_chase, "bimodal", heap=64 * MB)
        profile = collect_block_profile(
            {"bimodal": TripDistribution(kind="bimodal", low=2, high=64,
                                         p_low=0.5)}
        )
        cfg = CompilerConfig(hint_policy=HintPolicy.HLO,
                             trip_count_threshold=0)
        versioned, layout = compile_versions(
            factory, machine, cfg, profile=profile, threshold=16
        )
        rng = np.random.default_rng(11)
        trips = TripDistribution(kind="bimodal", low=2, high=64,
                                 p_low=0.5).sample(rng, 200)
        multi = simulate_versioned(
            versioned, machine, layout, list(trips),
        )
        loop_f, layout_f = factory()
        fallback_only = LoopCompiler(
            machine, cfg.with_(latency_tolerant=False)
        ).compile(loop_f, profile)
        base = simulate_loop(
            fallback_only.result, machine, layout_f, list(trips),
        )
        assert multi.cycles < base.cycles

    def test_one_version_costs_its_plain_run_plus_checks(self, machine):
        """Threshold 0 always picks the boosted kernel, as does a
        threshold equal to every trip (the ``n >= threshold`` boundary),
        and a threshold above every trip always the fallback, so the
        versioned run is that kernel's plain run plus one check per
        invocation — also when only some spaces restart per invocation."""

        def factory():
            loop, layout = low_trip_linear("mix")
            layout["mix.ref"] = StreamSpec(size=1 * MB, reuse=False)
            return loop, layout

        cfg = CompilerConfig(hint_policy=HintPolicy.ALL_LOADS_L3,
                             trip_count_threshold=0)
        trips = [8] * 50
        for threshold, picked in (
            (0, "boosted"), (8, "boosted"), (9, "fallback")
        ):
            versioned, layout = compile_versions(factory, machine, cfg,
                                                 threshold=threshold)
            multi = simulate_versioned(versioned, machine, layout, trips)
            plain = simulate_loop(
                getattr(versioned, picked).result, machine, layout, trips
            )
            assert multi.cycles == pytest.approx(
                plain.cycles + len(trips) * VERSION_CHECK_CYCLES
            ), picked
