"""Tests for the pipeliner driver: gates and the Sec. 3.3 retry ladder."""

import pytest

from repro.config import CompilerConfig, baseline_config
from repro.ir import LoopBuilder, parse_loop
from repro.ir.memref import AccessPattern, LatencyHint
from repro.machine import ItaniumMachine
from repro.ir.registers import RegClass, RegisterFile, ROTATING_PR_BASE
from repro.pipeliner import pipeline_loop


def _hinted_example(text_loop, hint=LatencyHint.L3, source="policy"):
    for load in text_loop.loads:
        load.memref.hint = hint
        load.memref.hint_source = source
    return text_loop


class TestGates:
    def test_master_switch(self, running_example, machine):
        _hinted_example(running_example)
        result = pipeline_loop(
            running_example, machine,
            CompilerConfig(latency_tolerant=False, trip_count_threshold=0),
        )
        assert result.stats.boosted_loads == 0

    def test_trip_threshold_gates_policy_hints(self, machine):
        loop = parse_loop(
            """
            memref A affine stride=4
            loop small trips=10 source=pgo
              ld4 r1 = [r2], 4 !A
              add r3 = r1, r9
              st4 [r4] = r3, 4 !A
            """
        )
        _hinted_example(loop, source="policy")
        gated = pipeline_loop(loop, machine, CompilerConfig(trip_count_threshold=32))
        assert gated.stats.boosted_loads == 0
        open_ = pipeline_loop(loop, machine, CompilerConfig(trip_count_threshold=8))
        assert open_.stats.boosted_loads == 1

    def test_hlo_hints_bypass_threshold(self, machine):
        """Sec. 3.1/4.4: expected-long-latency loads are boosted even in
        low-trip-count loops."""
        loop = parse_loop(
            """
            memref A affine stride=4
            loop small trips=3 source=pgo
              ld4 r1 = [r2], 4 !A
              add r3 = r1, r9
              st4 [r4] = r3, 4 !A
            """
        )
        _hinted_example(loop, hint=LatencyHint.L2, source="hlo")
        result = pipeline_loop(loop, machine, CompilerConfig(trip_count_threshold=32))
        assert result.stats.boosted_loads == 1


class TestRetryLadder:
    def _wide_fp_loop(self, loads=12):
        """Many hinted FP loads: boosting blows the FP rotating file."""
        b = LoopBuilder()
        acc = None
        for i in range(loads):
            ref = b.memref(f"x{i}", stride=8, size=8, is_fp=True,
                           space=f"s{i}")
            ref.hint = LatencyHint.L3
            ref.hint_source = "hlo"
            v = b.load("ldfd", b.live_greg(f"p{i}"), ref, post_inc=8)
            acc = v if acc is None else b.alu("fadd", acc, v)
        out = b.memref("c", stride=8, size=8, is_fp=True)
        b.store("stfd", b.live_greg("pc"), acc, out, post_inc=8)
        return b.build("wide", trips=1000.0)

    def test_register_pressure_fallback(self, machine):
        """When rotating allocation fails, the driver first reduces the
        non-critical latencies at the same II (latency_fallback), rather
        than giving up or spilling (Sec. 3.3)."""
        small_files = dict(machine.register_files)
        small_files[RegClass.FR] = RegisterFile(RegClass.FR, 64, 32, 32)
        tight = ItaniumMachine(
            description=machine.description, register_files=small_files
        )
        loop = self._wide_fp_loop()
        result = pipeline_loop(loop, tight, CompilerConfig(trip_count_threshold=0))
        assert result.pipelined
        assert result.stats.latency_fallback
        assert result.stats.boosted_loads == 0
        assert result.stats.attempts >= 2

    def test_no_fallback_with_ample_registers(self, machine):
        loop = self._wide_fp_loop(loads=4)
        result = pipeline_loop(loop, machine, CompilerConfig(trip_count_threshold=0))
        assert result.pipelined
        assert not result.stats.latency_fallback
        assert result.stats.boosted_loads == 4

    def test_seq_length_fallback_exists(self, running_example, machine):
        result = pipeline_loop(running_example, machine, baseline_config())
        assert result.seq_length == 3


class TestStats:
    def test_stats_fields(self, running_example, machine):
        result = pipeline_loop(running_example, machine, baseline_config())
        st = result.stats
        assert st.pipelined and st.ii == 1
        assert st.total_loads == 1
        assert st.registers[RegClass.GR] > 0
        assert st.registers[RegClass.PR] >= st.stage_count
        assert "copy_add" in st.summary()

    def test_register_growth_with_boosting(self, running_example, machine):
        base = pipeline_loop(running_example, machine, baseline_config())
        running_example.body[0].memref.hint = LatencyHint.L3
        boosted = pipeline_loop(
            running_example, machine, CompilerConfig(trip_count_threshold=0)
        )
        # longer lifetimes need more rotating registers (Sec. 2.2)
        assert (
            boosted.stats.registers[RegClass.GR]
            > base.stats.registers[RegClass.GR]
        )
        assert (
            boosted.stats.registers[RegClass.PR]
            > base.stats.registers[RegClass.PR]
        )
