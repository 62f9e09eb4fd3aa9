"""Synthetic SPEC-archetype workloads.

The paper evaluates on SPEC CPU2000/CPU2006 binaries we cannot run, so the
suite is replaced by synthetic benchmarks whose hot loops reproduce the
archetypes the paper attributes its per-benchmark results to: pointer
chasing (429.mcf), integer streaming (462.libquantum), FP kernels
(444.namd, 481.wrf, 200.sixtrack), low-trip-count L1-resident loops
(464.h264ref), training/reference trip-count mismatches (177.mesa),
and cache-resident indirect accesses with bad static estimates
(445.gobmk).  See DESIGN.md for the substitution argument.
"""

from repro.workloads.loops import LoopTemplate, TEMPLATES
from repro.workloads.spec import (
    SUITE_NAMES,
    Benchmark,
    LoopWorkload,
    cpu2006_suite,
    cpu2000_suite,
    micro_suite,
    suite_by_name,
    benchmark_by_name,
)

__all__ = [
    "LoopTemplate",
    "TEMPLATES",
    "SUITE_NAMES",
    "Benchmark",
    "LoopWorkload",
    "cpu2006_suite",
    "cpu2000_suite",
    "micro_suite",
    "suite_by_name",
    "benchmark_by_name",
]
