"""Exception types shared across the package."""


class DomainError(ValueError):
    """An argument lies outside the mathematical domain of an operation."""


class ConfigurationError(ValueError):
    """A configuration value violates a documented invariant."""


class EnvelopeError(RuntimeError):
    """Rejection sampling failed because the proposal envelope is misconfigured."""


class SignProblemError(RuntimeError):
    """The signed-weight normalisation is statistically indistinguishable from zero."""


class IntegrationFailure(RuntimeError):
    """A trajectory integration produced a non-finite state."""

    def __init__(self, message, trajectory_ids=(), time=None):
        super().__init__(message)
        self.trajectory_ids = tuple(int(i) for i in trajectory_ids)
        self.time = time
