"""Latency-tolerant software pipelining — a full reproduction.

Reproduces Winkel, Krishnaiyer & Sampson, *"Latency-Tolerant Software
Pipelining in a Production Compiler"* (CGO 2008): an Itanium-style loop
compiler (IR, dependence analysis, iterative modulo scheduling with
non-critical-load latency boosting, rotating register allocation), the
High-Level Optimizer's prefetcher and latency-hint heuristics, a
cycle-level in-order core + memory hierarchy simulator, and a synthetic
SPEC-archetype benchmark suite that regenerates the paper's evaluation.

Quickstart::

    from repro import LoopCompiler, CompilerConfig, ItaniumMachine, parse_loop

    loop = parse_loop('''
        memref A affine stride=4
        memref B affine stride=4
        loop copy_add trips=200 source=pgo
          ld4 r4 = [r5], 4 !A
          add r7 = r4, r9
          st4 [r6] = r7, 4 !B
    ''')
    compiled = LoopCompiler(ItaniumMachine(), CompilerConfig()).compile(loop)
    print(compiled.result.kernel.format())
"""

from repro.config import CompilerConfig, HintPolicy, baseline_config
from repro.core.compiler import CompiledLoop, LoopCompiler
from repro.core.results import ExperimentResult, percent_gain
from repro.core.theory import (
    additional_latency_for_clustering,
    clustering_factor,
    coverage_ratio,
    fig5_series,
    stall_reduction_percent,
)
from repro.errors import ReproError
from repro.ir import Loop, LoopBuilder, parse_loop
from repro.ir.memref import AccessPattern, LatencyHint, MemRef
from repro.machine import ItaniumMachine
from repro.pipeliner import pipeline_loop
from repro.sim import MemorySystem, StreamSpec, simulate_loop
from repro.workloads import cpu2000_suite, cpu2006_suite

__version__ = "1.0.0"

__all__ = [
    "CompilerConfig",
    "HintPolicy",
    "baseline_config",
    "CompiledLoop",
    "LoopCompiler",
    "ExperimentResult",
    "percent_gain",
    "additional_latency_for_clustering",
    "clustering_factor",
    "coverage_ratio",
    "fig5_series",
    "stall_reduction_percent",
    "ReproError",
    "Loop",
    "LoopBuilder",
    "parse_loop",
    "AccessPattern",
    "LatencyHint",
    "MemRef",
    "ItaniumMachine",
    "pipeline_loop",
    "MemorySystem",
    "StreamSpec",
    "simulate_loop",
    "cpu2000_suite",
    "cpu2006_suite",
    "__version__",
]
