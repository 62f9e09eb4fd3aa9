"""Top-level library: the compiler driver, theory, and experiments.

:class:`~repro.core.compiler.LoopCompiler` is the public entry point: it
runs HLO (prefetching + hint marking), the latency-tolerant pipeliner, and
register allocation under one :class:`~repro.config.CompilerConfig`.
:mod:`repro.core.results` holds the per-benchmark and per-suite result
containers that :func:`repro.harness.run_suite` fills when it reruns the
paper's Sec. 4 evaluations on the synthetic SPEC-archetype suite.
"""

from repro.core.theory import (
    coverage_ratio,
    stall_reduction_percent,
    clustering_factor,
    additional_latency_for_clustering,
    fig5_series,
)
from repro.core.compiler import CompiledLoop, LoopCompiler
from repro.core.results import (
    BenchmarkResult,
    ExperimentResult,
    percent_gain,
)
from repro.core.accounting import (
    CycleAccount,
    accumulate_account,
    cycle_identity_residual,
    verify_cycle_identity,
)
from repro.core.diagram import pipeline_diagram, stage_table
from repro.core.reporting import format_gain_table, format_account_table
from repro.core.statistics import (
    RegisterStatistics,
    register_statistics,
    format_register_table,
)

__all__ = [
    "coverage_ratio",
    "stall_reduction_percent",
    "clustering_factor",
    "additional_latency_for_clustering",
    "fig5_series",
    "CompiledLoop",
    "LoopCompiler",
    "BenchmarkResult",
    "ExperimentResult",
    "percent_gain",
    "CycleAccount",
    "accumulate_account",
    "cycle_identity_residual",
    "verify_cycle_identity",
    "pipeline_diagram",
    "stage_table",
    "format_gain_table",
    "format_account_table",
    "RegisterStatistics",
    "register_statistics",
    "format_register_table",
]
