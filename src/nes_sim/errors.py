"""Exception types, and the integer-argument check, shared across the package."""

import numbers


def positive_int(value, name):
    """``value`` as an int: a Python or numpy integer of at least 1, not a bool.

    Anything else raises ``ValueError`` naming ``name``.
    """
    if isinstance(value, bool) or not isinstance(value, numbers.Integral) or value < 1:
        raise ValueError(f"{name} must be a positive integer")
    return int(value)


class DimensionMismatchError(ValueError):
    """A vector or matrix has the wrong size for the game or graph at hand."""

    def __init__(self, what, expected, actual):
        self.what = what
        self.expected = expected
        self.actual = actual
        super().__init__(f"{what}: expected length {expected}, got {actual}")


class LayoutMismatchError(ValueError):
    """A flat state vector does not match the strategy's state layout."""


class NotStronglyMonotoneError(ValueError):
    """The pseudo-gradient is not strongly monotone; bounds and the unique
    equilibrium certificate are unavailable."""


class DisconnectedGraphError(ValueError):
    """The communication graph is not connected."""


class IllConditionedError(ValueError):
    """A dense linear solve was refused because its condition estimate is
    beyond the trustworthy range."""


class DivergenceError(RuntimeError):
    """Integration produced a non-finite state component."""


class ConfigError(ValueError):
    """An experiment configuration document is malformed."""
