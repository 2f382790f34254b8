"""Exceptions shared across the library."""


class ChipfireError(Exception):
    """Base class for all library errors."""


class InvalidGraph(ChipfireError):
    """Malformed graph input (loop arc, empty arc list, bad index)."""


class NotStronglyConnected(ChipfireError):
    """Operation requires a strongly connected digraph."""


class DimensionError(ChipfireError):
    """Vector dimension does not match the graph."""


class InvalidBase(ChipfireError):
    """Base vertex outside range(n)."""


class ZeroStrategy(ChipfireError):
    """Natural form is undefined for the zero strategy."""


class NotSandpileForm(ChipfireError):
    """Divisor must be nonnegative away from the base vertex."""


class NotStable(ChipfireError):
    """Sandpile operation requires a stable configuration."""


class NotArithmetical(ChipfireError):
    """Multiplicity vector does not give integral vertex degrees."""


class NotPrimitive(ChipfireError):
    """Multiplicity vector entries must have gcd 1."""


class BudgetExceeded(ChipfireError):
    """Enumeration would exceed the configured candidate budget."""

    def __init__(self, needed, budget):
        super().__init__(f"enumeration needs {needed} candidates, budget is {budget}")
        self.needed = needed
        self.budget = budget
