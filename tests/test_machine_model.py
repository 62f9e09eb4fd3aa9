"""Tests for the machine model: resources, hint translation, latency query."""

import pytest

from repro.errors import ConfigError, MachineModelError
from repro.ir import LoopBuilder, parse_loop
from repro.ir.memref import LatencyHint
from repro.ir.opcodes import UnitClass
from repro.ir.registers import RegClass
from repro.machine import (
    BEST_CASE_TRANSLATION,
    TYPICAL_TRANSLATION,
    HintTranslation,
    ItaniumMachine,
)

#: the default machine's ports
RESOURCES = ItaniumMachine().resources


class TestResourceModel:
    def test_capacities(self):
        rm = RESOURCES
        assert rm.capacity(UnitClass.M) == 2
        assert rm.capacity(UnitClass.F) == 2
        # A-type pools M and I
        assert rm.capacity(UnitClass.A) == 4

    def test_resource_ii_running_example(self, running_example):
        rm = RESOURCES
        # ld (M) + st (M) + add (A) fit in one cycle
        assert rm.resource_ii(running_example.body) == 1

    def test_memory_bound_resource_ii(self):
        b = LoopBuilder()
        refs = [b.memref(f"a{i}", stride=4, space=f"s{i}") for i in range(5)]
        vals = [b.load("ld4", b.live_greg(f"p{i}"), refs[i], post_inc=4)
                for i in range(5)]
        out = vals[0]
        for v in vals[1:]:
            out = b.alu("add", out, v)
        loop = b.build("mem")
        # 5 loads on 2 M ports -> ceil(5/2) = 3
        assert RESOURCES.resource_ii(loop.body) == 3

    def test_fp_bound_resource_ii(self):
        b = LoopBuilder()
        x = b.live_freg("x")
        vals = [b.fma(x, x, x) for _ in range(6)]
        loop = b.build("fp", validate=False)
        assert RESOURCES.resource_ii(loop.body) == 3

    def test_issue_width_bound(self):
        b = LoopBuilder()
        x = b.live_greg("x")
        for _ in range(12):
            x = b.alu_imm("adds", x, 1)
        loop = b.build("wide")
        # 12 A-type on 4 M+I slots -> 3
        assert RESOURCES.resource_ii(loop.body) == 3


class TestHintTranslation:
    def test_typical_values(self):
        t = TYPICAL_TRANSLATION
        assert t.scheduling_latency(LatencyHint.L2, False, base=1) == 11
        assert t.scheduling_latency(LatencyHint.L3, False, base=1) == 21
        # FP loads pay one extra format-conversion cycle
        assert t.scheduling_latency(LatencyHint.L2, True, base=6) == 12
        assert t.scheduling_latency(LatencyHint.L3, True, base=6) == 22

    def test_best_case_values(self):
        t = BEST_CASE_TRANSLATION
        assert t.scheduling_latency(LatencyHint.L2, False, base=1) == 5
        assert t.scheduling_latency(LatencyHint.L3, False, base=1) == 14

    def test_none_returns_base(self):
        assert TYPICAL_TRANSLATION.scheduling_latency(
            LatencyHint.NONE, False, base=1
        ) == 1

    def test_mem_hint_clipped(self):
        # scheduling for more than 20-30 cycles is not advisable (Sec. 2.1)
        got = TYPICAL_TRANSLATION.scheduling_latency(
            LatencyHint.MEM, True, base=6
        )
        assert got <= TYPICAL_TRANSLATION.max_scheduled

    def test_hint_never_lowers_below_base(self):
        t = HintTranslation(name="t", l2=3)
        assert t.scheduling_latency(LatencyHint.L2, False, base=6) == 6


class TestItaniumMachine:
    def test_base_vs_expected_latency(self, machine):
        loop = parse_loop(
            """
            memref A affine stride=4
            loop l
              ld4 r1 = [r2], 4 !A
              add r3 = r1, r9
            """
        )
        load = loop.body[0]
        assert machine.base_latency(load) == 1
        assert machine.expected_load_latency(load) == 1  # no hint
        load.memref.hint = LatencyHint.L3
        assert machine.expected_load_latency(load) == 21

    def test_flow_latency_post_increment_is_one(self, machine):
        loop = parse_loop(
            """
            memref A affine stride=4
            loop l
              ld4 r1 = [r2], 4 !A
              add r3 = r1, r9
            """
        )
        load = loop.body[0]
        load.memref.hint = LatencyHint.L3
        addr = load.uses[0]
        data = load.defs[0]
        assert machine.flow_latency(load, addr, expected=True) == 1
        assert machine.flow_latency(load, data, expected=True) == 21
        assert machine.flow_latency(load, data, expected=False) == 1

    def test_with_translation(self, machine):
        best = machine.with_translation(BEST_CASE_TRANSLATION)
        assert best.translation.name == "best-case"
        assert machine.translation.name == "typical"

    def test_with_ozq_capacity(self, machine):
        tiny = machine.with_ozq_capacity(1)
        assert tiny.ozq_capacity == 1
        assert machine.ozq_capacity == 48

    def test_rotating_capacity(self, machine):
        assert machine.rotating_capacity(RegClass.GR) == 96
        assert machine.rotating_capacity(RegClass.PR) == 48

    def test_memory_timings(self, machine):
        t = machine.timings
        assert (t.l1, t.l2, t.l3) == (1, 5, 14)
        assert t.memory > 100
        assert t.latency_of_level(2, is_fp=True) == 6


class TestConfig:
    def test_labels(self):
        from repro.config import CompilerConfig, HintPolicy, baseline_config

        assert baseline_config().label == "baseline"
        cfg = CompilerConfig(hint_policy=HintPolicy.HLO,
                             trip_count_threshold=16, pgo=False)
        assert "hlo" in cfg.label and "n=16" in cfg.label and "nopgo" in cfg.label

    def test_invalid_threshold(self):
        from repro.config import CompilerConfig

        with pytest.raises(ConfigError):
            CompilerConfig(trip_count_threshold=-1)

    def test_with_(self):
        from repro.config import baseline_config

        cfg = baseline_config().with_(pgo=False)
        assert not cfg.pgo and not cfg.latency_tolerant
