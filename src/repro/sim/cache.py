"""Set-associative LRU caches with prefetch ready-times.

Each resident line remembers when its fill completes (``ready_time``), so
a demand access that arrives before an in-flight prefetch finishes pays
the *remaining* latency — modelling late prefetches instead of treating
prefetched lines as magically present.
"""

from __future__ import annotations

from collections import OrderedDict

from repro.machine.description import CacheLevel


class Cache:
    """One level of the hierarchy, shaped by a :class:`CacheLevel`.

    :class:`~repro.sim.memory.MemorySystem` inlines the L1D hit path of
    :meth:`lookup` against ``_sets``, which :meth:`reset` clears in place.
    """

    def __init__(self, geometry: CacheLevel) -> None:
        self.geometry = geometry
        # the geometry is fixed for the cache's life; the memory walk
        # reads these once per access instead of recomputing num_sets
        self._line_size = geometry.line_size
        self._num_sets = geometry.num_sets
        self._ways = geometry.associativity
        self._sets: dict[int, OrderedDict[int, float]] = {}

    def _locate(self, addr: int) -> tuple[int, int]:
        line = addr // self._line_size
        return line % self._num_sets, line

    def lookup(self, addr: int, now: float) -> float | None:
        """Extra delay if resident (0.0 for a settled line), else ``None``.

        A hit refreshes LRU order.  A line still being filled returns the
        remaining fill time.
        """
        # _locate inlined: this is the hottest call of the memory walk
        tag = addr // self._line_size
        ways = self._sets.get(tag % self._num_sets)
        if ways is None or tag not in ways:
            return None
        ways.move_to_end(tag)
        ready = ways[tag]
        return max(0.0, ready - now)

    def fill(self, addr: int, ready_time: float) -> None:
        """Install a line (evicting LRU as needed)."""
        tag = addr // self._line_size
        set_idx = tag % self._num_sets
        ways = self._sets.get(set_idx)
        if ways is None:
            ways = self._sets[set_idx] = OrderedDict()
        if tag in ways:
            ways.move_to_end(tag)
            ways[tag] = min(ways[tag], ready_time)
            return
        if len(ways) >= self._ways:
            ways.popitem(last=False)
        ways[tag] = ready_time

    def contains(self, addr: int) -> bool:
        set_idx, tag = self._locate(addr)
        ways = self._sets.get(set_idx)
        return bool(ways) and tag in ways

    def reset(self) -> None:
        self._sets.clear()

    def __repr__(self) -> str:
        g = self.geometry
        return f"Cache({g.name}: {g.size>>10}KB {g.associativity}-way)"
