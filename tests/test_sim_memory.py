"""Tests for the memory system: hierarchy walk, prefetches, banks, OzQ flags."""

import pytest

from repro.machine import BankGeometry
from repro.sim.memory import MemorySystem


def _unbanked(machine):
    return MemorySystem(
        machine.description.with_(banks=BankGeometry(enabled=False))
    )


@pytest.fixture
def mem(machine):
    return _unbanked(machine)


class TestDemandLoads:
    def test_cold_miss_walks_to_memory(self, mem, machine):
        res = mem.load(0x100000, now=0)
        assert res.level == 4
        assert res.latency >= machine.timings.memory
        assert res.occupies_ozq

    def test_warm_hit_in_l1(self, mem):
        mem.load(0x100000, now=0)
        res = mem.load(0x100000, now=1000)
        assert res.level == 1
        assert res.latency == 1.0
        assert not res.occupies_ozq

    def test_fp_bypasses_l1(self, mem, machine):
        mem.load(0x100000, now=0, is_fp=True)
        res = mem.load(0x100000, now=1000, is_fp=True)
        assert res.level == 2
        # L2 best case + format conversion
        assert res.latency == machine.timings.l2 + machine.timings.fp_extra

    def test_pending_fill_partial_latency(self, mem, machine):
        mem.tlb.access(0x100000)  # keep TLB effects out
        mem.load(0x100000, now=0)  # fill completes at ~now+memory
        res = mem.load(0x100000, now=10)
        assert res.level == 1
        assert res.latency > machine.timings.memory / 2
        assert not res.occupies_ozq  # merged into the in-flight fill

    def test_tlb_penalty_added(self, machine):
        mem = _unbanked(machine)
        first = mem.load(0x100000, now=0)
        mem2 = _unbanked(machine)
        mem2.tlb.access(0x100000)
        second = mem2.load(0x100000, now=0)
        assert first.latency == second.latency + mem.tlb.geometry.miss_penalty


class TestStores:
    def test_store_allocates_in_l2(self, mem):
        mem.store(0x200000, now=0)
        res = mem.store(0x200000, now=1000)
        assert res.level == 2

    def test_store_miss_occupies_ozq(self, mem):
        res = mem.store(0x300000, now=0)
        assert res.level == 4 and res.occupies_ozq


class TestPrefetch:
    def test_prefetch_tlb_miss_walks_and_fills(self, mem, machine):
        """The VHPT walker services lfetch TLB misses: slower fill, and
        the translation is installed for the demand stream."""
        res = mem.prefetch(0x400000, now=0)
        assert res.latency == machine.timings.memory + mem.tlb.geometry.miss_penalty
        assert mem.tlb.probe(0x400000)

    def test_prefetch_fills_ahead(self, mem, machine):
        mem.tlb.access(0x400000)
        res = mem.prefetch(0x400000, now=0)
        assert res is not None and res.level == 4
        # demand access after the fill completes: L1 hit
        demand = mem.load(0x400000, now=machine.timings.memory + 10)
        assert demand.level == 1 and demand.latency == 1.0

    def test_late_prefetch_partially_covers(self, mem, machine):
        mem.tlb.access(0x400000)
        mem.prefetch(0x400000, now=0)
        demand = mem.load(0x400000, now=50)
        assert demand.latency == pytest.approx(
            machine.timings.l1 + machine.timings.memory - 50
        )

    def test_l2_only_prefetch_skips_l1(self, mem, machine):
        mem.tlb.access(0x400000)
        mem.prefetch(0x400000, now=0, l2_only=True)
        demand = mem.load(0x400000, now=machine.timings.memory + 10)
        assert demand.level == 2


class TestBankConflicts:
    def test_same_bank_back_to_back_delays(self, machine):
        mem = machine.memory_system()
        addr = 0x100000
        mem.load(addr, now=0)  # warm the line (and the TLB)
        first = mem.load(addr, now=1000, is_fp=True)
        second = mem.load(addr, now=1000, is_fp=True)
        assert second.latency > first.latency
        assert mem.bank_conflict_count >= 1

    def test_disabled_banks_no_delay(self, machine):
        mem = _unbanked(machine)
        addr = 0x100000
        mem.load(addr, now=0)
        a = mem.load(addr, now=1000, is_fp=True)
        b = mem.load(addr, now=1000, is_fp=True)
        assert a.latency == b.latency

    def test_different_banks_no_delay(self, machine):
        mem = machine.memory_system()
        mem.load(0x100000, now=0)
        width = machine.description.banks.width
        mem.load(0x100000 + width, now=0)
        a = mem.load(0x100000, now=1000, is_fp=True)
        b = mem.load(0x100000 + width, now=1000, is_fp=True)
        assert a.latency == b.latency

    def test_reset_clears_banks(self, machine):
        mem = machine.memory_system()
        mem.load(0x100000, now=0)
        mem.reset()
        assert mem.bank_conflict_count == 0
        assert not mem.l1d.contains(0x100000)
