"""Critical / non-critical load classification (Sec. 3.3).

"Initially, all loads in the loop are marked as non-critical.  Then the
pipeliner iterates over all recurrence cycles and checks for each cycle if
increasing the latencies of all loads in this cycle to the expected latency
values would increase the Recurrence II to a value higher than the Resource
II, and hence would likely lead to an overall II increase.  If this is the
case, all loads in this cycle are marked as critical, indicating that
minimum latencies should be used for them during modulo scheduling."

A load only ever *gets* a longer scheduled latency when its memory
reference carries a latency hint, so loads without hints are excluded from
"boosted" regardless of criticality.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.ddg.edges import DepEdge, DepKind
from repro.ddg.graph import DDG
from repro.ir.instructions import Instruction
from repro.ir.memref import LatencyHint
from repro.machine.itanium2 import ItaniumMachine
from repro.pipeliner.bounds import IIBounds

#: what "would likely lead to an overall II increase" compares against
#: by default (Sec. 3.3); see :func:`classify_loads`
CRITICALITY_THRESHOLD = "min_ii"


@dataclass
class Criticality:
    """Result of the classification.

    ``boosted`` is the set of loads that will be scheduled with their
    expected latencies: hinted, non-critical loads (possibly emptied by the
    driver's register-pressure fallback).
    """

    critical: frozenset[Instruction]
    boosted: set[Instruction] = field(default_factory=set)

    def is_boosted(self, inst: Instruction) -> bool:
        return inst in self.boosted

    def expected_fn(self, edge: DepEdge) -> bool:
        """Edge-level policy for DDG latency resolution.

        Only the *data* result of a boosted load uses the expected latency;
        post-increment address results and everything else stay at base.
        """
        return (
            edge.kind is DepKind.FLOW
            and edge.src.is_load
            and edge.reg in edge.src.defs
            and edge.src in self.boosted
        )

    def demote_all(self) -> "Criticality":
        """The register-pressure fallback: no load keeps a boosted latency."""
        return Criticality(critical=self.critical, boosted=set())

    def demote_policy_hints(self) -> "Criticality":
        """The trip-count-threshold gate (Fig. 7): drop blanket-policy
        boosts, but keep HLO-directed ones — when long latencies are
        expected, "the optimization may be profitable even in a loop with
        a low trip count" (Sec. 3.1, demonstrated on mcf in Sec. 4.4)."""
        kept = {
            load
            for load in self.boosted
            if load.memref is not None
            and load.memref.hint_source in ("hlo", "sampled")
        }
        return Criticality(critical=self.critical, boosted=kept)


def classify_loads(
    ddg: DDG,
    machine: ItaniumMachine,
    bounds: IIBounds,
    threshold: str = CRITICALITY_THRESHOLD,
) -> Criticality:
    """Run the paper's cycle-wise criticality analysis.

    ``threshold`` selects what "would likely lead to an overall II
    increase" means: ``"res_ii"`` is the paper's literal wording (compare
    against the Resource II); ``"min_ii"`` compares against
    ``max(ResII, base RecII)``, which avoids pointless demotions in loops
    whose recurrence bound already exceeds the resource bound.
    """
    if threshold == "res_ii":
        limit = bounds.res_ii
    elif threshold == "min_ii":
        limit = bounds.min_ii
    else:
        raise ValueError(f"unknown criticality threshold {threshold!r}")

    critical: set[Instruction] = set()
    for cycle in bounds.cycles:
        loads = cycle.loads
        if not loads:
            continue

        def boosted_in_cycle(edge: DepEdge, _loads=frozenset(loads)) -> bool:
            return (
                edge.kind is DepKind.FLOW
                and edge.src.is_load
                and edge.reg in edge.src.defs
                and edge.src in _loads
            )

        if cycle.ii_bound(machine.latency_query, boosted_in_cycle) > limit:
            critical.update(loads)

    boosted = {
        load
        for load in ddg.loop.loads
        if load not in critical
        and load.memref is not None
        and load.memref.hint is not LatencyHint.NONE
    }
    return Criticality(critical=frozenset(critical), boosted=boosted)
