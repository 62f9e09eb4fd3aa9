"""Profiles: runtime trip-count behaviour and block-count profiling.

A :class:`TripDistribution` describes how many iterations a loop actually
runs per invocation — workloads carry one distribution for the *training*
input and one for the *reference* input, which is how the paper's
177.mesa pathology arises (trains at 154 iterations, runs at 8; Sec. 4.2).

:func:`collect_block_profile` plays the role of a PGO training run:
it samples the training distribution and records average trip counts.
:func:`static_profile_estimate` is the fallback "static profile based on
heuristic rules" whose accuracy "is naturally low" (Sec. 4.3).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from repro.errors import WorkloadError
from repro.ir.loop import (
    DEFAULT_TRIP_ESTIMATE,
    Loop,
    TripCountInfo,
    TripCountSource,
)


@dataclass(frozen=True)
class TripDistribution:
    """Per-invocation trip counts of a loop at runtime.

    ``kind`` selects the generator:

    * ``constant`` — every invocation runs ``mean`` iterations;
    * ``uniform`` — uniform in ``[low, high]``;
    * ``bimodal`` — ``low`` with probability ``p_low``, else ``high``
      (the "large variance" case discussed in Sec. 3.1).
    """

    kind: str = "constant"
    mean: float = 100.0
    low: int = 1
    high: int = 1
    p_low: float = 0.5

    def __post_init__(self) -> None:
        if self.kind not in ("constant", "uniform", "bimodal"):
            raise WorkloadError(f"unknown trip distribution kind {self.kind!r}")

    def average(self) -> float:
        if self.kind == "constant":
            return self.mean
        if self.kind == "uniform":
            return (self.low + self.high) / 2.0
        return self.p_low * self.low + (1.0 - self.p_low) * self.high

    def sample(self, rng: np.random.Generator, n: int) -> np.ndarray:
        """``n`` per-invocation trip counts (always >= 1)."""
        if self.kind == "constant":
            trips = np.full(n, max(1, round(self.mean)), dtype=np.int64)
        elif self.kind == "uniform":
            trips = rng.integers(self.low, self.high + 1, size=n)
        else:
            choice = rng.random(n) < self.p_low
            trips = np.where(choice, self.low, self.high).astype(np.int64)
        return np.maximum(trips, 1)


@dataclass
class BlockProfile:
    """Average trip counts per loop name, as PGO block counts provide."""

    average_trips: dict[str, float] = field(default_factory=dict)
    invocations: dict[str, int] = field(default_factory=dict)

    def trip_info(self, loop_name: str) -> TripCountInfo | None:
        if loop_name not in self.average_trips:
            return None
        return TripCountInfo(
            estimate=self.average_trips[loop_name],
            source=TripCountSource.PGO,
        )


def collect_block_profile(
    loops: dict[str, TripDistribution],
    invocations: dict[str, int] | None = None,
    seed: int = 7,
    samples: int = 64,
) -> BlockProfile:
    """Simulate a PGO training run over the given training distributions.

    "Classic block count profiles are more common, and from the execution
    counts of basic blocks we can easily calculate the average trip counts
    of loops." (Sec. 3.1)
    """
    rng = np.random.default_rng(seed)
    profile = BlockProfile()
    for name, dist in loops.items():
        trips = dist.sample(rng, samples)
        profile.average_trips[name] = float(np.mean(trips))
        profile.invocations[name] = (invocations or {}).get(name, 1)
    return profile


def static_profile_estimate(
    loop: Loop, default: float = DEFAULT_TRIP_ESTIMATE
) -> TripCountInfo:
    """The no-PGO static profile heuristic (Sec. 4.3).

    Static array bounds cap the estimate; otherwise a generic default is
    assumed — which is exactly how genuinely short loops get mistaken for
    long ones without profile feedback.
    """
    estimate = default
    if loop.trip_count.max_trips is not None:
        estimate = min(estimate, float(loop.trip_count.max_trips))
    return TripCountInfo(
        estimate=estimate,
        source=TripCountSource.HEURISTIC,
        max_trips=loop.trip_count.max_trips,
        contiguous_across_outer=loop.trip_count.contiguous_across_outer,
    )


def geometric_mean(ratios: list[float]) -> float:
    """Geomean helper used by the experiment harness and benches."""
    if not ratios:
        return 1.0
    return math.exp(sum(math.log(max(r, 1e-12)) for r in ratios) / len(ratios))
