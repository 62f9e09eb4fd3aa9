"""Trip-count estimation (Sec. 3.2).

"If the compilation options include the use of dynamic profiles, the
trip-count information is readily available.  In other cases, the
trip-count estimation [...] makes use of information such as: static array
sizes [...]; if the data access occurs in a loop-nest, and the compiler can
prove that the data access is contiguous across outer-loop iterations,
then the prefetch distance can be high even if the inner-loop trip-count
is small."
"""

from __future__ import annotations

from repro.config import CompilerConfig
from repro.hlo.profiles import BlockProfile, static_profile_estimate
from repro.ir.loop import Loop, TripCountInfo, TripCountSource


def estimate_trip_count(
    loop: Loop,
    config: CompilerConfig,
    profile: BlockProfile | None = None,
) -> TripCountInfo:
    """The compiler's view of the loop's trip count under ``config``."""
    if config.pgo and profile is not None:
        info = profile.trip_info(loop.name)
        if info is not None:
            info.max_trips = loop.trip_count.max_trips
            info.contiguous_across_outer = (
                loop.trip_count.contiguous_across_outer
            )
            return info
    if config.pgo and loop.trip_count.source is TripCountSource.PGO:
        # the loop was built with PGO-quality information already attached
        return loop.trip_count
    return static_profile_estimate(loop)


def prefetch_lookahead_trips(info: TripCountInfo, default: float) -> float:
    """How far ahead the prefetcher may reach, in iterations.

    Contiguity across outer-loop iterations lets prefetches run past the
    inner loop's end, so the inner trip count stops being the limit.
    """
    if info.contiguous_across_outer:
        return float("inf")
    return info.effective_estimate(default)
