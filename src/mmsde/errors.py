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


class ExplosionError(NonConvergenceError):
    """A scheme's driven increment dy = dH + f(x) dZ left the floating-point range.

    Names the trajectory (``None`` for a realization built from given paths),
    the grid step ``step`` = j and its time ``time`` = t_j; ``last`` is the
    last finite state, x at t_{j-1}.  ``at_level`` adds the partition level of
    the run that raised it, and whether that run was a study's reference.
    """

    def __init__(self, message: str, last=None, trajectory: int | None = None,
                 step: int | None = None, time: float | None = None,
                 level: int | None = None, reference: bool = False):
        super().__init__(message, last=last)
        self.trajectory = trajectory
        self.step = step
        self.time = time
        self.level = level
        self.reference = reference

    def at_level(self, level: int, reference: bool = False) -> "ExplosionError":
        run = "reference run, level" if reference else "level"
        return ExplosionError(f"{self} ({run} {level})", self.last, self.trajectory,
                              self.step, self.time, level, reference)


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
