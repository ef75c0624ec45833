"""Exception hierarchy for the quench-entropy library.

The CLI maps these onto exit codes: a SpectralSpecError, like a bad value
(ValueError) or an unreadable file (OSError), exits with 2; every other
library error exits with 3; a failed verification or curve ordering exits
with 1.
"""


class QuenchEntropyError(Exception):
    """Base class for all library errors."""


class SpectralSpecError(QuenchEntropyError):
    """A spectral-function specification could not be parsed or is invalid."""


class CriticalSymbolError(QuenchEntropyError):
    """An operation that requires a gapped spectral function got a critical one."""


class DivergenceError(QuenchEntropyError):
    """The ODE integrator diverged; the step size is too large."""


class QuadratureError(QuenchEntropyError):
    """Fourier-coefficient quadrature failed to converge under grid doubling."""


class TailCriterionError(QuenchEntropyError):
    """A coefficient sum was truncated before its tail became negligible."""


class IllConditionedError(QuenchEntropyError):
    """A dense matrix was too ill-conditioned to partition reliably."""

    def __init__(self, message, condition_estimate=None):
        super().__init__(message)
        self.condition_estimate = condition_estimate


class ConsistencyError(QuenchEntropyError):
    """Two independent computations of the same quantity disagree."""
