"""Exception types shared across the package."""

from __future__ import annotations


class DomainViolationError(ValueError):
    """A point required to lie in the operator domain closure does not."""

    def __init__(self, message: str, point=None, distance: float | None = None):
        super().__init__(message)
        self.point = point
        self.distance = distance


class NonConvergenceError(RuntimeError):
    """An iterative routine exhausted its budget without stabilizing.

    Carries the last iterate and the residual at the point of failure so
    callers can report or retry with a larger budget.
    """

    def __init__(self, message: str, last=None, residual: float | None = None):
        super().__init__(message)
        self.last = last
        self.residual = residual


class ConfigError(ValueError):
    """Invalid experiment configuration; ``field`` names the offending key."""

    def __init__(self, field: str, message: str):
        super().__init__(f"{field}: {message}")
        self.field = field
        self.message = message

    def __reduce__(self):
        # the default rebuilds from ``args`` (the joined text), which does not
        # fit this constructor; errors raised in pool workers must unpickle
        return type(self), (self.field, self.message), self.__dict__
