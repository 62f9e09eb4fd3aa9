"""Static analysis / translation validation for the pipeliner.

An independent safety net over the modulo scheduler, kernel generator,
rotating allocator and hint plumbing: every invariant is re-derived from
first principles and any disagreement is reported as a
:class:`~repro.analysis.diagnostics.Diagnostic` with a stable ``SAnnn``
code.  See ``docs/analysis.md`` for the code reference.
"""

from repro.analysis.diagnostics import (
    CODES,
    CodeInfo,
    Diagnostic,
    DiagnosticReport,
    Severity,
)
from repro.analysis.hintcheck import verify_hints
from repro.analysis.irlint import lint_loop
from repro.analysis.kernelverify import verify_kernel
from repro.analysis.optimality import verify_optimality
from repro.analysis.perfmodel import (
    SiteBound,
    StaticPerfModel,
    build_perf_model,
    check_simulation,
)
from repro.analysis.pressure import max_live, verify_pressure
from repro.analysis.schedverify import verify_schedule
from repro.analysis.verify import (
    verify_compiled,
    verify_result,
)

__all__ = [
    "CODES",
    "CodeInfo",
    "Diagnostic",
    "DiagnosticReport",
    "Severity",
    "lint_loop",
    "verify_schedule",
    "verify_kernel",
    "verify_hints",
    "verify_optimality",
    "verify_result",
    "verify_compiled",
    "SiteBound",
    "StaticPerfModel",
    "build_perf_model",
    "check_simulation",
    "max_live",
    "verify_pressure",
]
