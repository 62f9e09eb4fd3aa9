"""Data TLB model.

Demand accesses and software prefetches (``lfetch``) alike pay the walk
penalty on a miss and install the translation: the hardware VHPT walker
services both.  Prefetching far ahead through many pages therefore evicts
entries the demand stream still needs and adds walk traffic, which is why
the prefetcher limits distances for symbolically-strided and indirect
references (Sec. 3.2, rules 2a/2b).
"""

from __future__ import annotations

from collections import OrderedDict

from repro.machine.description import TlbGeometry


class TLB:
    """Fully-associative LRU data TLB, shaped by a :class:`TlbGeometry`.

    :class:`~repro.sim.memory.MemorySystem` inlines the hit path of
    :meth:`access` against ``_pages``, which :meth:`reset` clears in place.
    """

    def __init__(self, geometry: TlbGeometry) -> None:
        self.geometry = geometry
        # hoisted out of the geometry: access() is on every memory walk
        self._entries = geometry.entries
        self._page_size = geometry.page_size
        self._penalty = geometry.miss_penalty
        self._pages: OrderedDict[int, None] = OrderedDict()

    def access(self, addr: int) -> int:
        """Translate ``addr``: returns the added penalty (0 on a hit)."""
        page = addr // self._page_size
        if page in self._pages:
            self._pages.move_to_end(page)
            return 0
        if len(self._pages) >= self._entries:
            self._pages.popitem(last=False)
        self._pages[page] = None
        return self._penalty

    def reset(self) -> None:
        self._pages.clear()
