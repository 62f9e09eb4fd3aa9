"""Tests for the cache and TLB models."""

import pytest

from repro.errors import MachineModelError
from repro.machine import CacheLevel, TlbGeometry
from repro.sim.cache import Cache
from repro.sim.tlb import TLB


def _small_cache(assoc=2, sets=4, line=64):
    return Cache(CacheLevel("t", size=line * assoc * sets, line_size=line,
                            associativity=assoc))


class TestCache:
    def test_miss_then_hit(self):
        c = _small_cache()
        assert c.lookup(0x100, now=0) is None
        c.fill(0x100, ready_time=0)
        assert c.lookup(0x100, now=1) == 0.0
        assert c.lookup(0x13F, now=1) == 0.0  # same 64B line

    def test_pending_fill_charges_remaining_time(self):
        c = _small_cache()
        c.fill(0x100, ready_time=50)
        assert c.lookup(0x100, now=10) == 40.0
        assert c.lookup(0x100, now=60) == 0.0

    def test_lru_eviction(self):
        c = _small_cache(assoc=2, sets=1, line=64)
        c.fill(0 * 64, 0)
        c.fill(1 * 64, 0)
        c.lookup(0 * 64, 0)  # refresh line 0
        c.fill(2 * 64, 0)  # evicts line 1 (LRU)
        assert c.lookup(0 * 64, 0) is not None
        assert c.lookup(1 * 64, 0) is None
        assert c.lookup(2 * 64, 0) is not None

    def test_set_mapping(self):
        c = _small_cache(assoc=1, sets=4, line=64)
        c.fill(0, 0)
        c.fill(64, 0)  # different set: no eviction
        assert c.contains(0) and c.contains(64)
        c.fill(4 * 64, 0)  # same set as address 0: evicts it
        assert not c.contains(0)

    def test_refill_keeps_earlier_ready_time(self):
        c = _small_cache()
        c.fill(0x100, ready_time=100)
        c.fill(0x100, ready_time=200)
        assert c.lookup(0x100, now=0) == 100.0

    def test_lookup_hit_miss_and_reset(self):
        c = _small_cache()
        assert c.lookup(0, 0) is None
        c.fill(0, 0)
        assert c.lookup(0, 0) == 0.0
        c.reset()
        assert c.lookup(0, 0) is None
        assert not c.contains(0)

    def test_bad_geometry_rejected(self):
        with pytest.raises(MachineModelError):
            CacheLevel("bad", size=1000, line_size=64, associativity=4)


class TestTLB:
    def test_miss_penalty_then_hit(self):
        tlb = TLB(TlbGeometry(entries=2, page_size=16384, miss_penalty=25))
        assert tlb.access(0) == 25
        assert tlb.access(100) == 0  # same page
        assert tlb.access(16384) == 25

    def test_lru_capacity(self):
        tlb = TLB(TlbGeometry(entries=2, page_size=16384))
        tlb.access(0)
        tlb.access(16384)
        tlb.access(2 * 16384)  # evicts page 0
        assert tlb.access(0) == tlb.geometry.miss_penalty

    def test_reset(self):
        tlb = TLB(TlbGeometry())
        tlb.access(0)
        assert tlb.access(0) == 0
        tlb.reset()
        assert tlb.access(0) == tlb.geometry.miss_penalty  # not resident
