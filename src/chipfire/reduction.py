"""Base-vertex reduction: the generalized Dhar's algorithm and its consumers."""

from dataclasses import dataclass
from itertools import product
from math import prod

from .errors import BudgetExceeded, NotSandpileForm, NotStronglyConnected
from . import games as _games


@dataclass(frozen=True)
class DharTrace:
    """Record of one run of the generalized Dhar's algorithm.

    steps: ordered (strategy after the step, decremented vertex) pairs, one
    per bulk step: a debtor drops all its forced decrements at once, the base
    one at a time.
    terminal: the final strategy; zero iff the input divisor is reduced.
    reduced_witnesses: the divisor D - f F at each base-vertex decrement;
    these are reduced divisors equivalent to D.
    """

    steps: tuple
    terminal: tuple
    reduced_witnesses: tuple


def check_sandpile_form(game, base, divisor):
    """Raise unless base and divisor fit the game and the divisor is nonnegative off the base."""
    game.check_base(base)
    game.check_divisor(divisor)
    if any(d < 0 for v, d in enumerate(divisor) if v != base):
        raise NotSandpileForm("divisor must be nonnegative away from the base")


def _burn(game, base, divisor, steps=None, witnesses=None):
    """The generalized Dhar loop; returns the terminal strategy.

    Start at f = S.  While some non-base vertex v is in debt under D - f F,
    decrement f[v] by ceil(debt / F[v][v]) at once; otherwise decrement the
    base while its count is positive.  Un-firing one vertex never lifts
    another out of debt (off-diagonal entries are <= 0), so each of those
    decrements is forced and the terminal equals the unit-step loop's.
    Without a trace the base drops to 0 in one step, since the loop only
    stops there; with one (``steps`` and ``witnesses`` lists) the base steps
    by one, recording D - f F before each base decrement as a reduced witness.
    """
    check_sandpile_form(game, base, divisor)
    n = game.n_vertices
    rows = game.firing_rows
    f = list(game.period)
    current = list(divisor)  # D - f F with f = S is D itself
    while True:
        v = next((u for u in range(n) if u != base and current[u] < 0), None)
        if v is not None:
            k = -(current[v] // rows[v][v])
        elif f[base] > 0:
            v = base
            if witnesses is None:
                k = f[base]
            else:
                k = 1
                witnesses.append(tuple(current))
        else:
            return f
        if f[v] < k:
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


DEFAULT_BUDGET = 10_000_000  # candidates a scan may visit unless told otherwise


def stable_box(game, base, budget):
    """Every divisor with 0 <= D(v) < F[v][v] off the base and D(base) = 0.

    Checks the base, then the budget (ValueError if negative) and that the box
    size is within it, before yielding the first divisor.
    """
    game.check_base(base)
    if budget < 0:
        raise ValueError(f"budget must be nonnegative, got {budget}")
    others = [v for v in range(game.n_vertices) if v != base]
    total = prod(game.threshold(v) for v in others)
    if total > budget:
        raise BudgetExceeded(total, budget)
    for combo in product(*[range(game.threshold(v)) for v in others]):
        yield combo[:base] + (0,) + combo[base:]


def _bfs_layers(game, base):
    """Distance layers from the base along chip-flow arcs (negative entries)."""
    n = game.n_vertices
    rows = game.firing_rows
    dist = [None] * n
    dist[base] = 0
    frontier = [base]
    d = 0
    while frontier:
        d += 1
        nxt = []
        for u in frontier:
            for v in range(n):
                if rows[u][v] < 0 and dist[v] is None:
                    dist[v] = d
                    nxt.append(v)
        frontier = nxt
    if any(x is None for x in dist):
        raise NotStronglyConnected("some vertex receives no chips from the base")
    return dist


def reduce(game, base, divisor):
    """A reduced divisor equivalent to the input, plus the strategy used.

    Step 1 clears debt layer by layer: for each distance layer, farthest
    first, fire the set of strictly nearer vertices enough times to lift the
    layer out of debt.  Vertices farther than the fired set only gain chips,
    so a single descending pass leaves everything except the base nonnegative.
    Step 2 applies failing Dhar terminals until the divisor is reduced.
    """
    game.check_base(base)
    game.check_divisor(divisor)
    n = game.n_vertices
    rows = game.firing_rows
    dist = _bfs_layers(game, base)
    current = list(divisor)
    total = [0] * n
    for layer in range(max(dist), 0, -1):
        need = max(
            (-current[v] for v in range(n) if dist[v] == layer), default=0
        )
        if need <= 0:
            continue
        inner = [v for v in range(n) if dist[v] < layer]
        for u in inner:
            total[u] += need
            row = rows[u]
            for i in range(n):
                current[i] -= need * row[i]
    while True:
        terminal = _burn(game, base, current)
        if not any(terminal):
            break
        for v in range(n):
            total[v] += terminal[v]
        current = list(game.apply(current, terminal))
    return tuple(current), tuple(total)


def all_reduced_representatives(game, base, divisor):
    """The r0 = S[base] distinct reduced divisors equivalent to the input.

    Collected from the Dhar trace witnesses of a reduced representative,
    sorted lexicographically.
    """
    reduced, _ = reduce(game, base, divisor)
    trace = dhar(game, base, reduced)
    reps = tuple(sorted(set(trace.reduced_witnesses)))
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
