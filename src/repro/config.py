"""Compiler configuration: the knobs the paper's experiments turn.

Each experiment in Sec. 4 is a pair of :class:`CompilerConfig` values —
a baseline ("no non-critical latency increases at all") and a variant.
The knobs:

* :attr:`hint_policy` — how latency-hint tokens are assigned:
  ``BASELINE`` (none), ``ALL_LOADS_L3`` (the headroom experiment of
  Sec. 4.2), ``ALL_FP_L2`` (the moderate default of Sec. 4.3), and
  ``HLO`` (prefetcher-directed hints of Sec. 3.2 *plus* the FP-L2
  default, Sec. 4.3).
* :attr:`trip_count_threshold` — boost only loops whose average trip
  count meets the threshold (the n of Fig. 7; n=32 is the paper's pick).
* :attr:`pgo` — whether profile feedback supplies trip counts, or the
  low-accuracy static profile heuristic is used (Fig. 9).
* :attr:`prefetch` — software prefetching on/off (the prefetch-disabled
  headroom run of Sec. 4.2).
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field, replace

from repro.errors import ConfigError


class HintPolicy(enum.Enum):
    """How expected-latency hints get assigned to memory references."""

    BASELINE = "baseline"  #: no hints: schedule every load at base latency
    ALL_LOADS_L3 = "all-loads-l3"  #: headroom: every load gets an L3 hint
    ALL_FP_L2 = "all-fp-l2"  #: every FP load gets an L2 hint
    HLO = "hlo"  #: prefetcher-directed hints + the FP-L2 default
    HLO_ONLY = "hlo-only"  #: prefetcher-directed hints without the default
    #: hints from a dynamic cache-miss sampling run (Sec. 6 outlook);
    #: expects the caller to have annotated the loop via
    #: :func:`repro.hlo.sampling.hints_from_miss_profile`
    SAMPLED = "sampled"


@dataclass(frozen=True)
class CompilerConfig:
    """One complete compiler setting."""

    hint_policy: HintPolicy = HintPolicy.HLO
    #: minimum average trip count for latency boosting (n in Fig. 7)
    trip_count_threshold: int = 32
    #: profile feedback available (trip counts from training runs)
    pgo: bool = True
    #: software prefetching enabled in HLO
    prefetch: bool = True
    #: master switch for latency-tolerant pipelining
    latency_tolerant: bool = True
    #: ablation switch: when False, hinted loads on recurrence cycles are
    #: boosted too, demonstrating the II growth the criticality analysis
    #: exists to prevent (Sec. 3.3)
    respect_criticality: bool = True
    name: str = ""

    def __post_init__(self) -> None:
        if self.trip_count_threshold < 0:
            raise ConfigError("trip_count_threshold must be >= 0")

    @property
    def label(self) -> str:
        if self.name:
            return self.name
        parts = [self.hint_policy.value]
        parts.append(f"n={self.trip_count_threshold}")
        parts.append("pgo" if self.pgo else "nopgo")
        if not self.prefetch:
            parts.append("nopf")
        return ",".join(parts)

    def with_(self, **kwargs) -> "CompilerConfig":
        """A modified copy (dataclasses.replace wrapper)."""
        return replace(self, **kwargs)


def baseline_config(pgo: bool = True, prefetch: bool = True) -> CompilerConfig:
    """The paper's baseline compiler: no non-critical latency increases."""
    return CompilerConfig(
        hint_policy=HintPolicy.BASELINE,
        latency_tolerant=False,
        pgo=pgo,
        prefetch=prefetch,
        name=f"baseline{'' if pgo else '-nopgo'}{'' if prefetch else '-nopf'}",
    )
