"""Cycle-level simulation of an Itanium-2-class in-order core.

The simulator executes compiled (pipelined or list-scheduled) loops over
concrete address streams and models the microarchitectural mechanisms the
paper's optimization exploits and stresses:

* **stall-on-use** — a cache miss stalls the pipeline only when an
  instruction reads the not-yet-ready register (Sec. 2);
* **memory-level parallelism** — outstanding requests proceed in the
  shadow of a stall, which is what makes load *clustering* profitable;
* **the OzQ** — the out-of-order memory request queue between L1 and L2;
  when its 48 entries fill up, issue stalls (the
  ``BE_L1D_FPU_BUBBLE``/``L2D_OZQ_FULL`` growth of Fig. 10);
* **caches and the TLB** — set-associative L1D/L2/L3 with realistic
  latencies; demand and prefetch TLB misses both pay the walk and evict
  translations, which is why the prefetcher limits distances for
  page-hopping references (Sec. 3.2).
"""

from repro.sim.cache import Cache
from repro.sim.tlb import TLB
from repro.sim.memory import MemorySystem
from repro.sim.counters import PerfCounters
from repro.sim.address import (
    Region,
    AddressMap,
    StreamSpec,
    build_streams,
)
from repro.sim.core import ExecutionSetup, prepare_execution, run_iterations
from repro.sim.executor import LoopRunResult, simulate_loop

__all__ = [
    "Cache",
    "TLB",
    "MemorySystem",
    "PerfCounters",
    "Region",
    "AddressMap",
    "StreamSpec",
    "build_streams",
    "ExecutionSetup",
    "prepare_execution",
    "run_iterations",
    "LoopRunResult",
    "simulate_loop",
]
