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
    """A search would pass, or has passed, its configured work budget.

    ``count`` is how far it got, in one of six units: table residues, walk
    Dhar runs, window classes, box candidates, ``arith star`` matrix cells
    or oracle strategies; ``reached`` says which, in words.
    """

    def __init__(self, count, budget, reached):
        super().__init__(f"{reached}, budget is {budget}")
        self.count = count
        self.budget = budget
