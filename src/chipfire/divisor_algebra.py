"""Divisor degrees, equivalence, and natural form."""

from .errors import DimensionError, ZeroStrategy


def degree(weight, divisor):
    """Weighted degree D . w."""
    if len(weight) != len(divisor):
        raise DimensionError("weight/divisor dimension mismatch")
    return sum(a * b for a, b in zip(weight, divisor))


def degree_plus(weight, divisor):
    """Weighted degree of the positive part: sum_i w[i] * max(D[i], 0)."""
    if len(weight) != len(divisor):
        raise DimensionError("weight/divisor dimension mismatch")
    return sum(w * d for w, d in zip(weight, divisor) if d > 0)


def equivalent(lattice, d1, d2):
    """True iff D1 - D2 lies in the lattice."""
    if len(d1) != len(d2):
        raise DimensionError("divisor dimension mismatch")
    return lattice.contains([a - b for a, b in zip(d1, d2)])


def natural_form(period, strategy):
    """The unique translate f - k*S with f - k*S <= S and f - k*S not <= 0.

    k = max_i ceil(f_i / S_i) - 1.
    """
    if not any(strategy):
        raise ZeroStrategy("natural form is undefined for the zero strategy")
    k = max(-(-f // s) for f, s in zip(strategy, period)) - 1
    return tuple(f - k * s for f, s in zip(strategy, period))
