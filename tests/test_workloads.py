"""Tests for the synthetic workload suite."""

import pytest

from repro.config import baseline_config
from repro.core.compiler import LoopCompiler
from repro.hlo.profiles import TripDistribution
from repro.ir.validate import validate_loop
from repro.workloads import (
    TEMPLATES,
    benchmark_by_name,
    cpu2000_suite,
    cpu2006_suite,
)
from repro.workloads.datasets import DataSet
from repro.workloads.loops import gather, pointer_chase, stream_int


class TestTemplates:
    @pytest.mark.parametrize("name", sorted(TEMPLATES))
    def test_templates_build_valid_loops(self, name):
        loop, layout = TEMPLATES[name].build()
        validate_loop(loop)
        spaces = {i.memref.space for i in loop.body if i.memref is not None}
        assert spaces <= set(layout), f"{name}: missing StreamSpec"

    @pytest.mark.parametrize("name", sorted(TEMPLATES))
    def test_templates_compile(self, name, machine):
        loop, _ = TEMPLATES[name].build()
        loop.trip_count.estimate = 1000.0
        compiled = LoopCompiler(machine, baseline_config()).compile(loop)
        assert compiled.result.stats.ii >= 1

    def test_factories_return_fresh_ir(self):
        a, _ = stream_int("s")
        b, _ = stream_int("s")
        assert a.body[0] is not b.body[0]
        assert a.body[0].memref.uid != b.body[0].memref.uid

    def test_gather_fp_variant(self):
        loop, _ = gather("g", fp=True)
        data = next(i for i in loop.loads if i.memref.name == "data")
        assert data.is_fp and data.mnemonic == "ldfd"

    def test_pointer_chase_shape(self):
        """Field loads first (off-cycle), chase last (on-cycle)."""
        loop, _ = pointer_chase("m", field_loads=2)
        assert loop.body[-1].defs == loop.body[-1].uses  # self-recurrent
        assert loop.body[0].is_load and not loop.body[0].post_increment


class TestDataSets:
    def test_steady(self):
        ds = DataSet.steady(42)
        assert ds.train.average() == ds.ref.average() == 42

    def test_mismatch(self):
        ds = DataSet.mismatch(154, 8)
        assert ds.train.average() == 154
        assert ds.ref.average() == 8

    def test_variable(self):
        ds = DataSet.variable(1, 4)
        assert ds.ref.average() == 2.5

    def test_bimodal(self):
        ds = DataSet.bimodal(2, 100, p_low=0.9)
        assert ds.ref.average() == pytest.approx(0.9 * 2 + 0.1 * 100)


class TestSuites:
    def test_suite_sizes(self):
        assert len(cpu2006_suite()) == 29
        assert len(cpu2000_suite()) == 26

    def test_unique_names(self):
        names = [b.name for b in cpu2006_suite() + cpu2000_suite()]
        assert len(names) == len(set(names))

    def test_all_loops_build_and_validate(self):
        for bench in cpu2006_suite() + cpu2000_suite():
            for lw in bench.loops:
                loop, layout = lw.build()
                validate_loop(loop)
                assert lw.invocations >= 1

    def test_benchmark_by_name(self):
        bench = benchmark_by_name("429.mcf")
        assert bench.suite == "CPU2006"
        assert len(bench.loops) == 2
        with pytest.raises(KeyError):
            benchmark_by_name("999.nope")

    def test_paper_archetypes_present(self):
        mesa = benchmark_by_name("177.mesa")
        lw = mesa.loops[0]
        assert lw.data.train.average() > 100
        assert lw.data.ref.average() < 10

        gobmk = benchmark_by_name("445.gobmk")
        assert gobmk.loops[0].data.ref.average() < 2  # not pipelined w/ PGO

        h264 = benchmark_by_name("464.h264ref")
        assert h264.loops[0].data.ref.average() == 10


class TestPredicatedWorkloads:
    def test_predicated_chase_compiles_and_runs(self, machine):
        """Qualifying predicates (post-if-conversion IR) flow through the
        whole stack: DDG edges from the cmp, scheduling, allocation and
        simulation."""
        import numpy as np

        from repro.config import CompilerConfig, HintPolicy
        from repro.core.compiler import LoopCompiler
        from repro.hlo.profiles import TripDistribution, collect_block_profile
        from repro.sim import simulate_loop
        from repro.workloads.loops import pointer_chase

        loop, layout = pointer_chase("pred", heap=1 << 22, predicated=True)
        cmp_inst = next(i for i in loop.body if i.mnemonic == "cmp")
        field = next(i for i in loop.body if i.is_load and i.qual_pred)
        assert field.qual_pred in cmp_inst.defs

        profile = collect_block_profile(
            {"pred": TripDistribution(kind="uniform", low=1, high=4)}
        )
        cfg = CompilerConfig(hint_policy=HintPolicy.HLO,
                             trip_count_threshold=32)
        compiled = LoopCompiler(machine, cfg).compile(loop, profile)
        assert compiled.pipelined
        assert compiled.stats.boosted_loads >= 2

        rng = np.random.default_rng(3)
        trips = TripDistribution(kind="uniform", low=1, high=4).sample(
            rng, 100
        )
        run = simulate_loop(
            compiled.result, machine, layout, list(trips),
        )
        assert run.cycles > 0
