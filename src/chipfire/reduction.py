"""Base-vertex reduction: the generalized Dhar's algorithm and its consumers."""

from collections import namedtuple

from .errors import BudgetExceeded, NotSandpileForm
from . import games as _games


class DharTrace(namedtuple("DharTrace", "steps terminal reduced_witnesses")):
    """Record of one run of the generalized Dhar's algorithm.

    steps: ordered (strategy after the step, decremented vertex) pairs, one
    per bulk step: a debtor drops all its forced decrements at once, the base
    one at a time.
    terminal: the final strategy; zero iff the input divisor is reduced.
    reduced_witnesses: the divisor D - f F at each base-vertex decrement;
    these are reduced divisors equivalent to D.
    """

    __slots__ = ()


def check_sandpile_form(game, base, divisor):
    """Raise unless base and divisor fit the game and the divisor is nonnegative off the base."""
    game.check_base(base)
    game.check_divisor(divisor)
    if any(d < 0 for v, d in enumerate(divisor) if v != base):
        raise NotSandpileForm("divisor must be nonnegative away from the base")


def _burn(game, base, divisor, steps=None, witnesses=None, start=None):
    """The generalized Dhar loop; returns the terminal strategy.

    Start at f = S, or at start * S.  Sweep the non-base vertices in debt
    under D - f F in index order, decrementing each f[v] by
    ceil(debt / F[v][v]) at once; when none is in debt, decrement the base
    while its count is positive.  Un-firing one vertex never lifts another
    out of debt (off-diagonal entries are <= 0), so a debtor stays one until
    its turn and each decrement is forced: the terminal is the greatest
    strategy below the start with f[base] = 0 that leaves D - f F out of
    debt off the base, and from S it equals the unit-step loop's.  Without a
    trace the base drops to 0 in one step, since the loop only stops there;
    with one (``steps`` and ``witnesses`` lists) the base steps by one,
    recording D - f F before each base decrement as a reduced witness.

    Without ``start`` the divisor must be in sandpile form, and the terminal
    is nonnegative.  With ``start`` (a multiple, which may be 0) the divisor
    may be any, and the terminal may be negative: ``reduce`` passes a
    positive multiple, and ``stabilize`` passes 0 on the recurrence dual.
    """
    if start is None:
        check_sandpile_form(game, base, divisor)
        f = list(game.period)
    else:
        f = [start * s for s in game.period]
    n = game.n_vertices
    rows = game.firing_rows
    current = list(divisor)  # D - f F with f a multiple of S is D itself
    while True:
        debtors = [u for u in range(n) if u != base and current[u] < 0]
        if not debtors:
            if f[base] == 0:
                return f
            if witnesses is not None:
                witnesses.append(tuple(current))
            debtors = [base]
        for v in debtors:
            if v != base:
                k = -(current[v] // rows[v][v])
            else:
                k = 1 if witnesses is not None else f[base]
            if f[v] < k and start is None:
                raise AssertionError("Dhar strategy went negative")
            f[v] -= k
            row = rows[v]
            for i in range(n):
                current[i] += k * row[i]
            if steps is not None:
                steps.append((tuple(f), v))


def dhar(game, base, divisor):
    """Run the generalized Dhar's algorithm, recording the full trace."""
    steps, witnesses = [], []
    terminal = _burn(game, base, divisor, steps, witnesses)
    return DharTrace(tuple(steps), tuple(terminal), tuple(witnesses))


def is_reduced(game, base, divisor):
    """True iff Dhar's algorithm terminates at the zero strategy."""
    return not any(_burn(game, base, divisor))


# Work a search may do unless told otherwise: the candidates of a box scan,
# the residues of a class table, or the classes of a degree window.
DEFAULT_BUDGET = 10_000_000


def check_budget(need, budget, reached):
    """Raise ValueError for a negative budget, BudgetExceeded if need passes it."""
    if budget < 0:
        raise ValueError(f"budget must be nonnegative, got {budget}")
    if need > budget:
        raise BudgetExceeded(need, budget, reached)


def reduce(game, base, divisor):
    """A reduced divisor equivalent to the input, plus the strategy used.

    The valid strategies (0 at the base, D - f F out of debt off it) are
    closed under entrywise max; their greatest, g, gives the reduced divisor
    D - g F.  The Dhar loop from t * S returns phi(t), the greatest valid
    strategy below t * S; t doubles until phi(t) <= (t - 1) * S, and then
    phi(t) = g.  Proof: y = phi(t + 1) and y - S leave the same divisor
    (S F = 0), so max(y - S, phi(t)) is valid and below t * S; hence
    y - S <= phi(t) <= (t - 1) * S, so y <= t * S and y = phi(t).  By
    induction phi is constant from t on, so it is g (reached once g <= t * S).
    """
    game.check_base(base)
    game.check_divisor(divisor)
    t = 1
    while True:
        f = _burn(game, base, divisor, start=t)
        if all(x <= (t - 1) * s for x, s in zip(f, game.period)):
            return game.apply(divisor, f), tuple(f)
        t *= 2


def all_reduced_representatives(game, base, divisor):
    """The r0 = S[base] distinct reduced divisors equivalent to the input.

    The witnesses of one burn from a reduced representative: D - f F before
    each unit base decrement, sorted lexicographically.
    """
    reduced, _ = reduce(game, base, divisor)
    witnesses = []
    _burn(game, base, reduced, witnesses=witnesses)
    reps = tuple(sorted(set(witnesses)))
    if len(reps) != game.period[base]:
        raise AssertionError(
            f"expected {game.period[base]} representatives, found {len(reps)}"
        )
    return reps


def is_effective_class(game, base, divisor):
    """True iff the divisor is equivalent to an effective divisor.

    Criterion: some reduced representative is effective.
    """
    return any(
        min(rep) >= 0 for rep in all_reduced_representatives(game, base, divisor)
    )


def is_gparking(digraph, base, divisor):
    """True iff the divisor is a directed G-parking function at the base.

    This is exactly column-game reducedness, decided by the burning run of
    Dhar's algorithm for the column game.
    """
    return is_reduced(_games.column_game(digraph), base, divisor)


def column_reduce(digraph, base, divisor):
    """Reduce in the column game: the G-parking representative at the base."""
    return reduce(_games.column_game(digraph), base, divisor)
