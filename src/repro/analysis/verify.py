"""Top-level translation validation: run every analysis over one loop.

This is the entry point the CLI (``python -m repro lint``, ``--verify``)
and the harness use.  It composes the four passes:

* :func:`repro.analysis.irlint.lint_loop` (SA1xx) on the compiled loop
  (after HLO, so inserted prefetches are linted too);
* :func:`repro.analysis.schedverify.verify_schedule` (SA2xx),
* :func:`repro.analysis.kernelverify.verify_kernel` (SA3xx), and
* :func:`repro.analysis.hintcheck.verify_hints` (SA4xx)
  when the loop was actually software-pipelined;
* :func:`repro.analysis.pressure.verify_pressure` and the static
  findings of :mod:`repro.analysis.perfmodel` (SA5xx) for pipelined
  loops — re-derived register pressure plus saturation/stall-exposure
  notes.  The post-simulation SA51x counter cross-checks live in
  :func:`repro.analysis.perfmodel.check_simulation` and run from the
  harness after each cell simulates;
* :func:`repro.analysis.optimality.verify_optimality` (SA6xx) when the
  result came from the exact scheduler — the optimality claim and the
  certified lower bound are re-derived with an independent search.

Loops the driver left sequential (low trip counts, scheduling failures)
only get the IR lint — there is no schedule to validate.
"""

from __future__ import annotations

from repro.analysis.diagnostics import DiagnosticReport
from repro.analysis.hintcheck import verify_hints
from repro.analysis.irlint import lint_loop
from repro.analysis.kernelverify import verify_kernel
from repro.analysis.optimality import verify_optimality
from repro.analysis.perfmodel import build_perf_model
from repro.analysis.pressure import verify_pressure
from repro.analysis.schedverify import verify_schedule
from repro.core.compiler import CompiledLoop
from repro.pipeliner.driver import PipelineResult


def verify_result(result: PipelineResult) -> DiagnosticReport:
    """Validate one pipeliner result end to end."""
    report = lint_loop(result.loop)
    if result.pipelined and result.schedule is not None:
        report.extend(verify_schedule(result.schedule, result.stats))
        if result.kernel is not None and result.rotating is not None:
            report.extend(
                verify_kernel(result.kernel, result.schedule, result.rotating)
            )
        report.extend(verify_hints(result.schedule, result.stats))
        report.extend(verify_pressure(result))
        model = build_perf_model(result, result.schedule.machine)
        report.extend(model.static_report())
        if result.stats.scheduler == "optimal":
            report.extend(verify_optimality(result))
    return report


def verify_compiled(compiled: CompiledLoop) -> DiagnosticReport:
    """Validate one compiled loop (the HLO-transformed IR + its schedule)."""
    return verify_result(compiled.result)
