"""The memory hierarchy: L1D/L2/L3/main memory plus the TLB.

Latency model (Sec. 2): best-case delays of 1 / 5 / 14 / ~180 cycles for
L1D / L2 / L3 / memory; FP accesses bypass L1 and pay one extra format-
conversion cycle.  Lines being filled (e.g. by a prefetch that has not
completed) charge the remaining fill time, so prefetch *distance* matters,
not just presence.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.machine.description import MachineDescription
from repro.sim.cache import Cache
from repro.sim.tlb import TLB


@dataclass(frozen=True, slots=True)
class AccessResult:
    """Outcome of one demand access."""

    latency: float
    level: int  # 1=L1D, 2=L2, 3=L3, 4=memory
    #: the request goes past L1 and occupies an OzQ entry until completion
    occupies_ozq: bool


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
    """

    def __init__(self, description: MachineDescription) -> None:
        self.timings = description.timings
        self.l1d = Cache(description.l1d)
        self.l2 = Cache(description.l2)
        self.l3 = Cache(description.l3)
        self.tlb = TLB(description.tlb)
        banks = description.banks
        # hoisted out of the geometry: the bank check is on every L2 access
        self._banked = banks.enabled
        self._bank_count = banks.banks
        self._bank_width = banks.width
        self._bank_occupancy = banks.occupancy
        self._bank_busy_until = [float("-inf")] * self._bank_count
        self.bank_conflict_count = 0
        #: optional :class:`repro.trace.events.TraceSink`; when set and
        #: interested in memory events, every access emits a ``CacheFill``
        #: with the satisfying level (attached by the executor after the
        #: pre-warm phase so warm-up fills stay out of traces)
        self.sink = None

    def _l2_bank_delay(self, addr: int, now: float) -> float:
        """Extra delay (and occupancy update) for the L2 bank of ``addr``."""
        if not self._banked:
            return 0.0
        bank = (addr // self._bank_width) % self._bank_count
        busy = self._bank_busy_until[bank]
        delay = max(0.0, busy - now)
        if delay > 0:
            self.bank_conflict_count += 1
        self._bank_busy_until[bank] = now + delay + self._bank_occupancy
        return delay

    def _emit_fill(self, access: str, addr: int, now: float,
                   res: AccessResult) -> AccessResult:
        """Report the satisfying level to an attached trace sink."""
        sink = self.sink
        if sink is not None and sink.wants_memory:
            from repro.trace.events import CacheFill

            sink.emit(CacheFill(
                cycle=now, access=access, addr=addr,
                level=res.level, latency=res.latency,
            ))
        return res

    # --- demand accesses --------------------------------------------------
    def load(self, addr: int, now: float, is_fp: bool = False) -> AccessResult:
        """A demand load: walk the hierarchy, fill lines on the way out."""
        return self._emit_fill("load", addr, now, self._load(addr, now, is_fp))

    def _load(self, addr: int, now: float, is_fp: bool) -> AccessResult:
        t = self.timings
        penalty = self.tlb.access(addr)
        fp_extra = t.fp_extra if is_fp else 0

        if not is_fp:  # FP loads bypass the L1D
            pending = self.l1d.lookup(addr, now)
            if pending is not None:
                # requests merging into an in-flight fill share its OzQ entry
                return AccessResult(t.l1 + pending + penalty, 1, False)

        pending = self.l2.lookup(addr, now)
        if pending is not None:
            latency = t.l2 + pending + penalty + fp_extra
            latency += self._l2_bank_delay(addr, now)
            if not is_fp:
                self.l1d.fill(addr, now + latency)
            return AccessResult(latency, 2, pending == 0)

        pending = self.l3.lookup(addr, now)
        if pending is not None:
            latency = t.l3 + pending + penalty + fp_extra
            self._fill_upward(addr, now + latency, is_fp)
            return AccessResult(latency, 3, pending == 0)

        latency = t.memory + penalty + fp_extra
        self.l3.fill(addr, now + latency)
        self._fill_upward(addr, now + latency, is_fp)
        return AccessResult(latency, 4, True)

    def store(self, addr: int, now: float, is_fp: bool = False) -> AccessResult:
        """A store: write-through L1, allocate in L2.

        Stores do not stall the pipeline directly, but misses occupy OzQ
        entries while the line is fetched.
        """
        return self._emit_fill("store", addr, now,
                               self._store(addr, now, is_fp))

    def _store(self, addr: int, now: float, is_fp: bool) -> AccessResult:
        t = self.timings
        penalty = self.tlb.access(addr)
        pending = self.l2.lookup(addr, now)
        if pending is not None:
            latency = t.l2 + pending + penalty
            latency += self._l2_bank_delay(addr, now)
            return AccessResult(latency, 2, False)
        pending = self.l3.lookup(addr, now)
        if pending is not None:
            latency = t.l3 + pending + penalty
            self.l2.fill(addr, now + latency)
            return AccessResult(latency, 3, pending == 0)
        latency = t.memory + penalty
        self.l3.fill(addr, now + latency)
        self.l2.fill(addr, now + latency)
        return AccessResult(latency, 4, True)

    # --- prefetches -----------------------------------------------------------
    def prefetch(
        self, addr: int, now: float, l2_only: bool = False, is_fp: bool = False
    ) -> AccessResult:
        """An ``lfetch``.

        A TLB miss does not drop the prefetch: the hardware VHPT walker
        services it (adding the walk latency to the fill and installing
        the translation) — that walk traffic is the TLB *pressure* the
        prefetcher's distance reductions contain (Sec. 3.2 rule 2a).
        """
        return self._emit_fill(
            "prefetch", addr, now, self._prefetch(addr, now, l2_only, is_fp)
        )

    def _prefetch(
        self, addr: int, now: float, l2_only: bool, is_fp: bool
    ) -> AccessResult:
        penalty = self.tlb.access(addr)
        t = self.timings
        pending = None if is_fp else self.l1d.lookup(addr, now)
        if pending is not None:
            return AccessResult(0.0, 1, False)
        pending = self.l2.lookup(addr, now)
        if pending is not None:
            if not (l2_only or is_fp):
                self.l1d.fill(addr, now + t.l2 + (pending or 0))
            return AccessResult(0.0, 2, pending > 0)
        pending = self.l3.lookup(addr, now)
        if pending is not None:
            latency = t.l3 + pending + penalty
            self._fill_prefetch(addr, now + latency, l2_only, is_fp)
            return AccessResult(latency, 3, pending == 0)
        latency = t.memory + penalty
        self.l3.fill(addr, now + latency)
        self._fill_prefetch(addr, now + latency, l2_only, is_fp)
        return AccessResult(latency, 4, True)

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
