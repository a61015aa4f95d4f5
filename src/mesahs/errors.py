"""Exception types shared across the package.

The CLI maps these onto distinct exit codes; library code raises them
directly so callers can tell apart bad input, a solver that failed to
converge, and a run that outgrew its truncated domain.
"""


class MesaHSError(Exception):
    """Base class for all package errors."""

    def at(self, where):
        """The same failure, with its message prefixed by where it happened.

        Subclasses take their attributes as keyword arguments.
        """
        return type(self)(f"{where}: {self}", **vars(self))


class ConfigError(MesaHSError):
    """Invalid scenario, geometry, or parameter data."""


class SolverError(MesaHSError):
    """An iterative solve failed to converge.

    Carries the tail of the residual history for post-mortem inspection.
    """

    def __init__(self, message, residual_history=None):
        super().__init__(message)
        self.residual_history = list(residual_history or [])


class EnvelopeError(MesaHSError):
    """The active region reached (or would reach) the farfield band."""
