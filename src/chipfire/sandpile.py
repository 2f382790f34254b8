"""Directed sandpile dynamics: stabilization, recurrence, minimal recurrents."""

from .errors import NotStable
from .divisor_algebra import degree
from .rank_extremes import is_extreme
from .reduction import DEFAULT_BUDGET, _burn, check_sandpile_form, is_reduced, stable_box
from .riemann_roch import natural_divisor


def is_stable(game, base, divisor):
    game.check_divisor(divisor)
    return all(
        divisor[v] < game.threshold(v)
        for v in range(game.n_vertices)
        if v != base
    )


def stabilize(game, base, divisor):
    """Fire overfull non-base vertices until none remains.

    Stabilization is the Dhar loop on the recurrence dual, started from the
    zero strategy: v is overfull in D - fired F exactly when it is in debt
    in dual_divisor(D) + fired F, and floor(D(v) / F[v][v]) is the ceiling
    of that debt over F[v][v].  Returns the stable configuration and the
    total firing vector.  The result is independent of the firing order
    (asserted by tests, not assumed here).
    """
    check_sandpile_form(game, base, divisor)
    fired = tuple(-x for x in _burn(game, base, dual_divisor(game, divisor), start=0))
    return game.apply(divisor, fired), fired


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


def minimal_recurrents(game, base, budget=DEFAULT_BUDGET):
    """All recurrent stable configurations minimal under dominance off the base.

    Recurrence is upward closed among stable configurations (its dual,
    reducedness, is downward closed off the base: a strategy that lifts
    D' <= D out of debt also lifts D), so a recurrent c is minimal iff no
    c - e_v with c[v] > 0, v != base, is recurrent.
    """
    recurrents = {d for d in stable_box(game, base, budget) if is_recurrent(game, base, d)}
    others = [v for v in range(game.n_vertices) if v != base]
    return sorted(
        d
        for d in recurrents
        if not any(
            d[v] and d[:v] + (d[v] - 1,) + d[v + 1:] in recurrents for v in others
        )
    )


def natural_rr_via_sandpile(game, base, budget=DEFAULT_BUDGET):
    """Natural Riemann-Roch via the sandpile model.

    True iff every minimal recurrent configuration D, shifted at the base so
    that D - 1 has the natural degree g - 1, becomes an extreme divisor.
    The paper's form of the test, that D lies in Sigma and for every vertex v
    some v-reduced representative has value exactly -1 at v, is
    ``is_extreme``: R + e_v of such an R is v-reduced and effective, and an
    effective v-reduced E of D + e_v gives the v-reduced E - e_v of D, whose
    value at v is at least -1 and, as D is in Sigma, negative.  The genus
    comes from the natural canonical divisor (entrywise threshold - 2) via
    deg K = 2g - 2.
    """
    naturals = natural_divisor(game)
    deg_k = degree(game.weight, naturals)
    if deg_k % 2 != 0:
        return False
    g = deg_k // 2 + 1
    for config in minimal_recurrents(game, base, budget=budget):
        shifted = [d - 1 for d in config]
        gap = (g - 1) - degree(game.weight, shifted)
        if gap % game.weight[base] != 0:
            return False
        shifted[base] += gap // game.weight[base]
        if not is_extreme(game, base, shifted):
            return False
    return True
