"""Exception hierarchy for the repro package.

Every error raised by the library derives from :class:`ReproError` so that
callers can catch library failures with a single ``except`` clause while
still letting programming errors (``TypeError`` etc.) propagate.
"""

from __future__ import annotations


class ReproError(Exception):
    """Base class for all errors raised by this library."""


class IRError(ReproError):
    """Malformed IR: bad operands, unknown opcodes, invalid loop structure."""


class ParseError(IRError):
    """Raised by the textual loop parser on malformed input."""

    def __init__(self, message: str, line_no: int | None = None) -> None:
        self.line_no = line_no
        if line_no is not None:
            message = f"line {line_no}: {message}"
        super().__init__(message)


class DependenceError(ReproError):
    """Inconsistent dependence information (e.g. negative distance)."""


class SchedulingError(ReproError):
    """The modulo scheduler could not produce a schedule."""


class RegisterAllocationError(ReproError):
    """Rotating or static register allocation failed."""


class MachineModelError(ReproError):
    """Invalid machine-model query (unknown unit class, bad hint, ...)."""


class WorkloadError(ReproError):
    """A synthetic workload definition is inconsistent."""


class ConfigError(ReproError):
    """An invalid compiler configuration was supplied."""


class HarnessError(ReproError):
    """The experiment harness failed (job timeout, bad manifest, ...)."""


class ServiceError(ReproError):
    """A repro-as-a-service failure: invalid request, overload, transport.

    ``status`` carries the HTTP status code when the error crossed the
    wire (400 for a malformed request, 404 for an unknown job, 429 for
    backpressure, ...); it is ``None`` for purely local failures.
    """

    def __init__(self, message: str, status: int | None = None) -> None:
        self.status = status
        super().__init__(message)
