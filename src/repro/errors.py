"""Exception hierarchy shared across the :mod:`repro` package.

Every error raised by the library derives from :class:`ReproError` so that
callers can catch library failures with a single ``except`` clause while
still being able to discriminate between circuit-construction problems,
analysis failures and optimization failures.
"""

from __future__ import annotations


class ReproError(Exception):
    """Base class for every error raised by the :mod:`repro` library."""


class CircuitError(ReproError):
    """A circuit is malformed (bad topology, duplicate names, bad values)."""


class NetlistSyntaxError(CircuitError):
    """A textual netlist could not be parsed.

    Parameters
    ----------
    message:
        Human readable description of the problem.
    line_number:
        1-based line number in the netlist source, when known.
    line:
        The offending source line, when known.
    """

    def __init__(self, message: str, line_number: int = 0, line: str = ""):
        self.line_number = line_number
        self.line = line
        if line_number:
            message = f"line {line_number}: {message}"
        super().__init__(message)


class AnalysisError(ReproError):
    """An analysis (AC sweep, pole extraction, ...) failed."""


class SingularCircuitError(AnalysisError):
    """The MNA system is singular at the requested frequency.

    This typically indicates a floating node, a loop of ideal voltage
    sources, or an ideal opamp without feedback.
    """


class FaultModelError(ReproError):
    """A fault refers to a component that does not exist or cannot host it."""


class ConfigurationError(ReproError):
    """An invalid DFT configuration was requested."""


class CampaignError(ReproError):
    """A campaign could not be planned or completed.

    Raised by the campaign engine when work units fail beyond their retry
    budget (chained to the first failure's own error), or when a plan is
    malformed (no configuration, no fault, colliding fault labels).
    """


class ServiceError(ReproError):
    """The job service could not satisfy a request.

    Base class for every error raised by :mod:`repro.service` — job
    validation, admission control, cancellation and client-side
    transport failures all derive from it.
    """


class JobValidationError(ServiceError):
    """A submitted job payload is malformed (unknown kind, bad params)."""


class JobNotFoundError(ServiceError):
    """The requested job id is not known to the scheduler."""


class QueueFullError(ServiceError):
    """Admission control rejected a submission: the job queue is full.

    ``retry_after_s`` is the server's backoff hint, surfaced over HTTP
    as a ``Retry-After`` header on the 429 response.
    """

    def __init__(self, message: str, retry_after_s: float = 1.0):
        super().__init__(message)
        self.retry_after_s = retry_after_s


class JobCancelledError(ServiceError):
    """A job observed its cancellation flag and stopped cooperatively."""


class JobTimeoutError(ServiceError):
    """A job exceeded its deadline and was stopped cooperatively."""


class OptimizationError(ReproError):
    """The covering/optimization layer could not produce a solution."""


class InfeasibleCoverError(OptimizationError):
    """No configuration set can reach the maximum fault coverage.

    Raised when a fault is detectable in no configuration at all yet the
    caller required it to be covered.
    """


class InsufficientDetectionsError(InfeasibleCoverError):
    """A fault cannot reach the requested n-detection multiplicity.

    Raised by the n-detect covering solvers when some fault is detected
    by fewer than ``n_detect`` configurations — a partial cover would be
    silently weaker than what the caller asked for, so the failure is
    typed and names the offending fault.

    Parameters
    ----------
    fault:
        Name of the first fault that cannot be detected ``required``
        times.
    required:
        The requested detection multiplicity ``n_detect``.
    available:
        How many configurations actually detect the fault.
    """

    def __init__(self, fault: str, required: int, available: int):
        self.fault = fault
        self.required = required
        self.available = available
        super().__init__(
            f"fault {fault!r} is detectable by {available} "
            f"configuration(s) but n_detect={required} requires "
            f"{required}; drop n_detect or widen the configuration set"
        )
