"""Result containers for benchmark and suite experiments.

They follow the paper's Sec. 4.1 method: each benchmark is run by
itself, its percentage gain over the baseline compiler is reported, and
a suite is summarised by the geometric mean of the runtime ratios.

:func:`repro.harness.run_suite` fills a :class:`BenchmarkResult` per
(benchmark, config) cell, serially or on a worker pool, and
:func:`repro.harness.compare_configs` folds two configs of one grid into
an :class:`ExperimentResult`; the equality tests in
``tests/test_harness.py`` hold serial and pooled runs to bit-identical
cycle counts.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.core.compiler import CompiledLoop
from repro.hlo.profiles import geometric_mean
from repro.sim.counters import PerfCounters

#: how the serial (non-loop) component of a benchmark splits into the
#: cycle-accounting buckets — identical under every config by construction
SERIAL_SPLIT = {
    "unstalled": 0.52,
    "be_exe_bubble": 0.28,
    "be_l1d_fpu_bubble": 0.07,
    "be_rse_bubble": 0.04,
    "be_flush_bubble": 0.05,
    "back_end_bubble_fe": 0.04,
}


@dataclass
class LoopOutcome:
    """Per-loop compile + simulate outcome within one benchmark run."""

    compiled: CompiledLoop
    cycles: float
    counters: PerfCounters


@dataclass
class BenchmarkResult:
    """One benchmark under one configuration.

    ``loops`` carries the full per-loop compile artifacts when the result
    was produced in-process; results loaded from the artifact cache carry
    an empty list (the cycles and counters are cached, the compiled IR is
    not).
    """

    name: str
    suite: str
    config_label: str
    loop_cycles: float
    serial_cycles: float
    counters: PerfCounters
    loops: list[LoopOutcome] = field(default_factory=list)

    @property
    def total_cycles(self) -> float:
        return self.loop_cycles + self.serial_cycles


@dataclass
class ExperimentResult:
    """A baseline-vs-variant comparison over one suite."""

    baseline_label: str
    variant_label: str
    #: benchmark name -> percent gain over baseline (positive = faster)
    gains: dict[str, float]
    baseline: dict[str, BenchmarkResult]
    variant: dict[str, BenchmarkResult]

    @property
    def geomean_gain(self) -> float:
        ratios = [
            self.baseline[name].total_cycles / self.variant[name].total_cycles
            for name in self.gains
        ]
        return (geometric_mean(ratios) - 1.0) * 100.0

    def gain(self, name: str) -> float:
        return self.gains[name]


def percent_gain(baseline_cycles: float, variant_cycles: float) -> float:
    """Speedup percentage: positive when the variant is faster."""
    return (baseline_cycles / variant_cycles - 1.0) * 100.0
