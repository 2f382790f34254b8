"""Directed sandpile dynamics: stabilization, recurrence, minimal recurrents."""

from itertools import product

from .errors import NotStable
from .divisor_algebra import degree
from .rank_extremes import in_sigma
from .reduction import (
    DEFAULT_BUDGET,
    all_reduced_representatives,
    check_sandpile_form,
    is_reduced,
    stable_box,
)
from .riemann_roch import natural_divisor


def is_stable(game, base, divisor):
    game.check_divisor(divisor)
    return all(
        divisor[v] < game.threshold(v)
        for v in range(game.n_vertices)
        if v != base
    )


def stabilize(game, base, divisor, step_cap=None):
    """Fire the lowest-index overfull non-base vertex until none remains.

    An overfull vertex v fires floor(D(v) / F[v][v]) times at once: firing
    other vertices only adds chips to v, so each of those firings stays
    legal.  ``step_cap`` bounds the number of unit firings.  Returns the
    stable configuration and the total firing vector.  The result is
    independent of the firing order (asserted by tests, not assumed here).
    """
    check_sandpile_form(game, base, divisor)
    n = game.n_vertices
    rows = game.firing_rows
    current = list(divisor)
    fired = [0] * n
    steps = 0
    while True:
        v = next(
            (
                u
                for u in range(n)
                if u != base and current[u] >= rows[u][u]
            ),
            None,
        )
        if v is None:
            return tuple(current), tuple(fired)
        k = current[v] // rows[v][v]
        row = rows[v]
        for i in range(n):
            current[i] -= k * row[i]
        fired[v] += k
        steps += k
        if step_cap is not None and steps > step_cap:
            raise RuntimeError("stabilization exceeded the step cap")


def dual_divisor(game, divisor):
    """The recurrence dual: entrywise threshold - 1 - D."""
    game.check_divisor(divisor)
    return tuple(
        game.threshold(v) - 1 - divisor[v] for v in range(game.n_vertices)
    )


def is_recurrent(game, base, divisor):
    """Recurrence via duality: D is recurrent iff threshold-1-D is reduced."""
    check_sandpile_form(game, base, divisor)
    if not is_stable(game, base, divisor):
        raise NotStable("recurrence is defined for stable configurations")
    return is_reduced(game, base, dual_divisor(game, divisor))


def is_recurrent_oracle(game, base, divisor, headroom):
    """Bounded reachability check: search for an overfull configuration that
    stabilizes to D off the base.  One-sided: False may mean the headroom was
    too small."""
    check_sandpile_form(game, base, divisor)
    if not is_stable(game, base, divisor):
        raise NotStable("recurrence is defined for stable configurations")
    n = game.n_vertices
    others = [v for v in range(n) if v != base]
    ranges = [
        range(game.threshold(v), game.threshold(v) + headroom + 1)
        for v in others
    ]
    for combo in product(*ranges):
        start = list(divisor)
        for v, value in zip(others, combo):
            start[v] = value
        stable, _ = stabilize(game, base, start)
        if all(stable[v] == divisor[v] for v in others):
            return True
    return False


def minimal_recurrents(game, base, budget=DEFAULT_BUDGET):
    """All recurrent stable configurations minimal under dominance off the base.

    The base entry is stored as 0, so comparing it never decides dominance.
    """
    recurrents = [d for d in stable_box(game, base, budget) if is_recurrent(game, base, d)]
    minimal = [
        d
        for d in recurrents
        if not any(
            other != d and all(a <= b for a, b in zip(other, d))
            for other in recurrents
        )
    ]
    return sorted(minimal)


def natural_rr_via_sandpile(game, base, budget=DEFAULT_BUDGET):
    """Natural Riemann-Roch via the sandpile model.

    True iff every minimal recurrent configuration D, shifted at the base so
    that D - 1 has the natural degree g - 1, becomes an extreme divisor:
    it lies in Sigma and for every vertex v some v-reduced representative has
    value exactly -1 at v.  The genus comes from the natural canonical divisor
    (entrywise threshold - 2) via deg K = 2g - 2.
    """
    naturals = natural_divisor(game)
    deg_k = degree(game.weight, naturals)
    if deg_k % 2 != 0:
        return False
    g = deg_k // 2 + 1
    n = game.n_vertices
    for config in minimal_recurrents(game, base, budget=budget):
        shifted = [d - 1 for d in config]
        gap = (g - 1) - degree(game.weight, shifted)
        if gap % game.weight[base] != 0:
            return False
        shifted[base] += gap // game.weight[base]
        shifted = tuple(shifted)
        if not in_sigma(game, base, shifted):
            return False
        for v in range(n):
            reps = all_reduced_representatives(game, v, shifted)
            if not any(rep[v] == -1 for rep in reps):
                return False
    return True
