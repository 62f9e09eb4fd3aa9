"""Tests for the memory system: hierarchy walk, prefetches, banks, OzQ flags.

Every access returns ``(latency, level, occupies_ozq)``.
"""

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
        latency, level, occupies_ozq = mem.load(0x100000, now=0)
        assert level == 4
        assert latency >= machine.timings.memory
        assert occupies_ozq

    def test_warm_hit_in_l1(self, mem):
        mem.load(0x100000, now=0)
        assert mem.load(0x100000, now=1000) == (1.0, 1, False)

    def test_fp_bypasses_l1(self, mem, machine):
        mem.load(0x100000, now=0, is_fp=True)
        latency, level, _ = mem.load(0x100000, now=1000, is_fp=True)
        assert level == 2
        # L2 best case + format conversion
        assert latency == machine.timings.l2 + machine.timings.fp_extra

    def test_pending_fill_partial_latency(self, mem, machine):
        mem.tlb.access(0x100000)  # keep TLB effects out
        mem.load(0x100000, now=0)  # fill completes at ~now+memory
        latency, level, occupies_ozq = mem.load(0x100000, now=10)
        assert level == 1
        assert latency > machine.timings.memory / 2
        assert not occupies_ozq  # merged into the in-flight fill

    def test_tlb_penalty_added(self, machine):
        mem = _unbanked(machine)
        first, _, _ = mem.load(0x100000, now=0)
        mem2 = _unbanked(machine)
        mem2.tlb.access(0x100000)
        second, _, _ = mem2.load(0x100000, now=0)
        assert first == second + mem.tlb.geometry.miss_penalty


class TestStores:
    def test_store_allocates_in_l2(self, mem):
        mem.store(0x200000, now=0)
        _, level, _ = mem.store(0x200000, now=1000)
        assert level == 2

    def test_store_miss_occupies_ozq(self, mem):
        _, level, occupies_ozq = mem.store(0x300000, now=0)
        assert level == 4 and occupies_ozq


class TestPrefetch:
    def test_prefetch_tlb_miss_walks_and_fills(self, mem, machine):
        """The VHPT walker services lfetch TLB misses: slower fill, and
        the translation is installed for the demand stream."""
        latency, _, _ = mem.prefetch(0x400000, now=0)
        assert latency == machine.timings.memory + mem.tlb.geometry.miss_penalty
        assert mem.tlb.access(0x400000) == 0  # translation installed

    def test_prefetch_fills_ahead(self, mem, machine):
        mem.tlb.access(0x400000)
        _, level, _ = mem.prefetch(0x400000, now=0)
        assert level == 4
        # demand access after the fill completes: L1 hit
        demand = mem.load(0x400000, now=machine.timings.memory + 10)
        assert demand == (1.0, 1, False)

    def test_late_prefetch_partially_covers(self, mem, machine):
        mem.tlb.access(0x400000)
        mem.prefetch(0x400000, now=0)
        latency, _, _ = mem.load(0x400000, now=50)
        assert latency == pytest.approx(
            machine.timings.l1 + machine.timings.memory - 50
        )

    def test_l2_only_prefetch_skips_l1(self, mem, machine):
        mem.tlb.access(0x400000)
        mem.prefetch(0x400000, now=0, l2_only=True)
        _, level, _ = mem.load(0x400000, now=machine.timings.memory + 10)
        assert level == 2


class TestBankConflicts:
    def test_same_bank_back_to_back_delays(self, machine):
        mem = machine.memory_system()
        addr = 0x100000
        mem.load(addr, now=0)  # warm the line (and the TLB)
        first, _, _ = mem.load(addr, now=1000, is_fp=True)
        second, _, _ = mem.load(addr, now=1000, is_fp=True)
        assert second > first
        assert mem.bank_conflict_count >= 1

    def test_disabled_banks_no_delay(self, machine):
        mem = _unbanked(machine)
        addr = 0x100000
        mem.load(addr, now=0)
        a, _, _ = mem.load(addr, now=1000, is_fp=True)
        b, _, _ = mem.load(addr, now=1000, is_fp=True)
        assert a == b

    def test_different_banks_no_delay(self, machine):
        mem = machine.memory_system()
        mem.load(0x100000, now=0)
        width = machine.description.banks.width
        mem.load(0x100000 + width, now=0)
        a, _, _ = mem.load(0x100000, now=1000, is_fp=True)
        b, _, _ = mem.load(0x100000 + width, now=1000, is_fp=True)
        assert a == b

    def test_reset_clears_banks(self, machine):
        mem = machine.memory_system()
        mem.load(0x100000, now=0)
        mem.reset()
        assert mem.bank_conflict_count == 0
        assert not mem.l1d.contains(0x100000)


class TestInlinedHitPaths:
    """Loads and prefetches inline the TLB and L1D hit paths."""

    def test_l1_hit_on_pending_fill_pays_remaining_fill(self, mem, machine):
        t = machine.timings
        mem.tlb.access(0x500000)
        latency, _, _ = mem.load(0x500000, now=0)  # fill lands at `latency`
        assert mem.load(0x500000, now=40) == (t.l1 + latency - 40, 1, False)
        # once the fill has landed, only the L1 latency is left
        assert mem.load(0x500000, now=latency + 5) == (t.l1, 1, False)

    def test_prefetch_l1_hit_is_free(self, mem):
        mem.load(0x500000, now=0)
        assert mem.prefetch(0x500000, now=1) == (0.0, 1, False)

    def test_tlb_miss_on_l1_hit_adds_walk_penalty(self, machine):
        geometry = machine.description.tlb
        mem = _unbanked(machine)
        mem.load(0x100000, now=0)  # line in L1D, page translated
        # touch enough other pages to evict the translation, not the line
        for page in range(1, geometry.entries + 1):
            mem.tlb.access(0x100000 + page * geometry.page_size)
        latency, level, _ = mem.load(0x100000, now=1000)
        assert level == 1
        assert latency == machine.timings.l1 + geometry.miss_penalty
        assert mem.load(0x100000, now=1001) == (machine.timings.l1, 1, False)

    def test_reset_empties_the_pages_the_hit_path_reads(self, mem, machine):
        mem.load(0x100000, now=0)
        assert mem.tlb.access(0x100000) == 0
        mem.reset()
        latency, level, _ = mem.load(0x100000, now=0)
        assert level == 4
        assert latency == (machine.timings.memory
                           + machine.description.tlb.miss_penalty)
        # the miss walked the TLB and installed the translation again
        assert mem.tlb.access(0x100000) == 0
