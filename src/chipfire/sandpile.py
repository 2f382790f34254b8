"""Directed sandpile dynamics: stabilization, recurrence, minimal recurrents."""

from .errors import NotStable
from .divisor_algebra import degree
from .rank_extremes import is_extreme
from .reduction import DEFAULT_BUDGET, _burn, check_budget, check_sandpile_form, is_reduced
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

    They are the duals threshold - 1 - m (0 at the base) of the maximal reduced
    configurations m.  Reducedness is downward closed off the base (a strategy
    that lifts D' <= D out of debt also lifts D), so the reduced set grows from
    0 one chip at a time, breadth first: a candidate c below the threshold is
    met after every c - e_u, and runs one Dhar test if all of them are reduced.
    Checks the base, then the budget (ValueError if negative), which bounds the Dhar runs.
    """
    game.check_base(base)
    check_budget(0, budget, "")
    n = game.n_vertices
    top = [0 if v == base else game.threshold(v) - 1 for v in range(n)]
    walk = [(0,) * n]
    known = {walk[0]: True}  # Dhar verdicts; 0 is always reduced
    duals = []
    for d in walk:
        ups = [d[:v] + (d[v] + 1,) + d[v + 1:] for v in range(n) if d[v] < top[v]]
        for c in ups:
            lower = (c[:u] + (c[u] - 1,) + c[u + 1:] for u in range(n) if c[u])
            if c not in known and all(map(known.get, lower)):
                check_budget(len(known), budget, f"the walk reached {len(known)} Dhar runs")
                known[c] = is_reduced(game, base, c)
                if known[c]:
                    walk.append(c)
        if not any(map(known.get, ups)):
            duals.append(tuple(t - x for t, x in zip(top, d)))
    return sorted(duals)


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

    The paper states the criterion for the row game.  It has agreed with
    ``rr_verdict(...).natural_rr`` only on unit weights at a base with
    S[base] = 1, and not at every such base: on the row game of star(5,2)'s
    associated digraph it answers False at every base, the verdict True.
    """
    deg_k = degree(game.weight, natural_divisor(game))
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
