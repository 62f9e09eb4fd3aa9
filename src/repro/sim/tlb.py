"""Data TLB model.

Software prefetches (``lfetch``) are dropped when they miss the TLB — the
hardware will not take a fault or walk the page table on a hint.  This is
the mechanism behind prefetch-distance limiting for symbolically-strided
and indirect references (Sec. 3.2, rules 2a/2b): prefetching far ahead
through many pages evicts TLB entries and the prefetches stop landing.
"""

from __future__ import annotations

from collections import OrderedDict

from repro.machine.description import TlbGeometry


class TLB:
    """Fully-associative LRU data TLB, shaped by a :class:`TlbGeometry`."""

    def __init__(self, geometry: TlbGeometry) -> None:
        self.geometry = geometry
        # hoisted out of the geometry: access() is on every memory walk
        self._entries = geometry.entries
        self._page_size = geometry.page_size
        self._penalty = geometry.miss_penalty
        self._pages: OrderedDict[int, None] = OrderedDict()
        self.hits = 0
        self.misses = 0

    def _page(self, addr: int) -> int:
        return addr // self._page_size

    def access(self, addr: int) -> int:
        """Demand access: returns the added penalty (0 on a hit)."""
        page = addr // self._page_size  # _page inlined: hot path
        if page in self._pages:
            self._pages.move_to_end(page)
            self.hits += 1
            return 0
        self.misses += 1
        if len(self._pages) >= self._entries:
            self._pages.popitem(last=False)
        self._pages[page] = None
        return self._penalty

    def probe(self, addr: int) -> bool:
        """Non-faulting probe used by prefetches; does not refill."""
        page = self._page(addr)
        if page in self._pages:
            self._pages.move_to_end(page)
            self.hits += 1
            return True
        self.misses += 1
        return False

    def reset(self) -> None:
        self._pages.clear()
        self.hits = 0
        self.misses = 0
