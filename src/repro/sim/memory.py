"""The memory hierarchy: L1D/L2/L3/main memory plus the TLB.

Latency model (Sec. 2): best-case delays of 1 / 5 / 14 / ~180 cycles for
L1D / L2 / L3 / memory; FP accesses bypass L1 and pay one extra format-
conversion cycle.  Lines being filled (e.g. by a prefetch that has not
completed) charge the remaining fill time, so prefetch *distance* matters,
not just presence.

Every access returns a plain ``(latency, level, occupies_ozq)`` tuple:
``level`` is 1=L1D, 2=L2, 3=L3, 4=memory, and ``occupies_ozq`` says the
request goes past L1 and holds an OzQ entry until it completes.
"""

from __future__ import annotations

from repro.machine.description import MachineDescription
from repro.sim.cache import Cache
from repro.sim.tlb import TLB

#: ``(latency, level, occupies_ozq)`` of one hierarchy access
Access = tuple[float, int, bool]


class MemorySystem:
    """Three cache levels, a TLB, and the latency walk.

    Every latency and every geometry comes from the machine description:
    its ``timings``, the ``l1d``/``l2``/``l3`` levels, the ``tlb`` and
    the L2 ``banks``.

    The L2 is banked: accesses mapping to a recently-busy bank pay extra
    cycles.  This is the "latency-increasing dynamic hazard" (conflicting
    stores, bank conflicts) of Sec. 3.3 — the reason hint translation uses
    *typical* latencies (11/21) rather than best-case (5/14): the headroom
    absorbs exactly this jitter.  "The latter can occur if multiple
    accesses to the same L2 cache bank are issued in the same cycle [10]."

    Loads and prefetches inline the TLB and L1D hit paths, the hottest
    lookups of a run, against the structures of :class:`~repro.sim.tlb.TLB`
    and :class:`~repro.sim.cache.Cache`.  Both reset those structures in
    place, so the references taken at construction stay valid; misses go
    through the owning object.
    """

    def __init__(self, description: MachineDescription) -> None:
        self.timings = t = description.timings
        self.l1d = Cache(description.l1d)
        self.l2 = Cache(description.l2)
        self.l3 = Cache(description.l3)
        self.tlb = TLB(description.tlb)
        # hoisted out of the description: read on every access
        self._l1, self._l2, self._l3 = t.l1, t.l2, t.l3
        self._memory, self._fp_extra = t.memory, t.fp_extra
        self._page_size = self.tlb._page_size
        self._tlb_pages = self.tlb._pages
        self._l1_line = self.l1d._line_size
        self._l1_num_sets = self.l1d._num_sets
        self._l1_sets = self.l1d._sets
        banks = description.banks
        self._banked = banks.enabled
        self._bank_count = banks.banks
        self._bank_width = banks.width
        self._bank_occupancy = banks.occupancy
        self._bank_busy_until = [float("-inf")] * self._bank_count
        self.bank_conflict_count = 0

    def _l2_bank_delay(self, addr: int, now: float) -> float:
        """Extra delay (and occupancy update) for the L2 bank of ``addr``;
        only called when banking is enabled."""
        bank = (addr // self._bank_width) % self._bank_count
        busy = self._bank_busy_until[bank]
        delay = max(0.0, busy - now)
        if delay > 0:
            self.bank_conflict_count += 1
        self._bank_busy_until[bank] = now + delay + self._bank_occupancy
        return delay

    # --- demand accesses --------------------------------------------------
    def load(self, addr: int, now: float, is_fp: bool = False) -> Access:
        """A demand load: walk the hierarchy, fill lines on the way out."""
        page = addr // self._page_size
        pages = self._tlb_pages
        if page in pages:
            pages.move_to_end(page)
            penalty = 0
        else:
            penalty = self.tlb.access(addr)

        if is_fp:  # FP loads bypass the L1D
            fp_extra = self._fp_extra
        else:
            fp_extra = 0
            tag = addr // self._l1_line
            ways = self._l1_sets.get(tag % self._l1_num_sets)
            if ways is not None and tag in ways:
                ways.move_to_end(tag)
                ready = ways[tag]
                pending = ready - now if ready > now else 0.0
                # requests merging into an in-flight fill share its OzQ entry
                return (self._l1 + pending + penalty, 1, False)

        pending = self.l2.lookup(addr, now)
        if pending is not None:
            latency = self._l2 + pending + penalty + fp_extra
            if self._banked:
                latency += self._l2_bank_delay(addr, now)
            if not is_fp:
                self.l1d.fill(addr, now + latency)
            return (latency, 2, pending == 0)

        pending = self.l3.lookup(addr, now)
        if pending is not None:
            latency = self._l3 + pending + penalty + fp_extra
            self._fill_upward(addr, now + latency, is_fp)
            return (latency, 3, pending == 0)

        latency = self._memory + penalty + fp_extra
        self.l3.fill(addr, now + latency)
        self._fill_upward(addr, now + latency, is_fp)
        return (latency, 4, True)

    def store(self, addr: int, now: float, is_fp: bool = False) -> Access:
        """A store: write-through L1, allocate in L2.

        Stores do not stall the pipeline directly, but misses occupy OzQ
        entries while the line is fetched.
        """
        penalty = self.tlb.access(addr)
        pending = self.l2.lookup(addr, now)
        if pending is not None:
            latency = self._l2 + pending + penalty
            if self._banked:
                latency += self._l2_bank_delay(addr, now)
            return (latency, 2, False)
        pending = self.l3.lookup(addr, now)
        if pending is not None:
            latency = self._l3 + pending + penalty
            self.l2.fill(addr, now + latency)
            return (latency, 3, pending == 0)
        latency = self._memory + penalty
        self.l3.fill(addr, now + latency)
        self.l2.fill(addr, now + latency)
        return (latency, 4, True)

    # --- prefetches -----------------------------------------------------------
    def prefetch(
        self, addr: int, now: float, l2_only: bool = False, is_fp: bool = False
    ) -> Access:
        """An ``lfetch``.

        A TLB miss does not drop the prefetch: the hardware VHPT walker
        services it (adding the walk latency to the fill and installing
        the translation) — that walk traffic is the TLB *pressure* the
        prefetcher's distance reductions contain (Sec. 3.2 rule 2a).
        """
        page = addr // self._page_size
        pages = self._tlb_pages
        if page in pages:
            pages.move_to_end(page)
            penalty = 0
        else:
            penalty = self.tlb.access(addr)
        if not is_fp:
            tag = addr // self._l1_line
            ways = self._l1_sets.get(tag % self._l1_num_sets)
            if ways is not None and tag in ways:
                ways.move_to_end(tag)
                return (0.0, 1, False)
        pending = self.l2.lookup(addr, now)
        if pending is not None:
            if not (l2_only or is_fp):
                self.l1d.fill(addr, now + self._l2 + (pending or 0))
            return (0.0, 2, pending > 0)
        pending = self.l3.lookup(addr, now)
        if pending is not None:
            latency = self._l3 + pending + penalty
            self._fill_prefetch(addr, now + latency, l2_only, is_fp)
            return (latency, 3, pending == 0)
        latency = self._memory + penalty
        self.l3.fill(addr, now + latency)
        self._fill_prefetch(addr, now + latency, l2_only, is_fp)
        return (latency, 4, True)

    # --- helpers -------------------------------------------------------------
    def _fill_upward(self, addr: int, ready: float, is_fp: bool) -> None:
        self.l2.fill(addr, ready)
        if not is_fp:
            self.l1d.fill(addr, ready)

    def _fill_prefetch(
        self, addr: int, ready: float, l2_only: bool, is_fp: bool
    ) -> None:
        self.l2.fill(addr, ready)
        if not (l2_only or is_fp):
            self.l1d.fill(addr, ready)

    def reset(self) -> None:
        self.l1d.reset()
        self.l2.reset()
        self.l3.reset()
        self.tlb.reset()
        self._bank_busy_until = [float("-inf")] * self._bank_count
        self.bank_conflict_count = 0
