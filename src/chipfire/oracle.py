"""Independent brute-force reference implementations for tiny instances."""

from itertools import product

from .divisor_algebra import degree, valid_strategies
from .errors import NotSandpileForm
from .rank_extremes import ExtremeClass, ExtremeClassSet, in_sigma, is_extreme
from .reduction import DEFAULT_BUDGET, all_reduced_representatives, is_reduced, stable_box


def effective_bruteforce(game, divisor, box):
    """Search strategies with entries in [-box, box] for an effective translate.

    The base-vertex (index 0) coordinate only matters modulo the strategy
    period, so it ranges over [0, period - 1].  One-sided: False may mean the
    box was too small.
    """
    n = game.n_vertices
    ranges = [range(min(game.period[0], box + 1))] + [
        range(-box, box + 1)
    ] * (n - 1)
    for f in product(*ranges):
        moved = game.apply(divisor, f)
        if min(moved) >= 0:
            return True
    return False


def rank_bruteforce(game, base, divisor, box=4):
    """Rank by direct enumeration of effective E in increasing weighted degree,
    with the brute-force effectivity search as the Sigma test."""
    weight = game.weight
    if not effective_bruteforce(game, divisor, box):
        return -1
    deg = degree(weight, divisor)
    d = 0
    while True:
        d += 1
        if deg - d < 0:
            if _exists_effective_of_degree(weight, d):
                return d - 1
            continue
        for eff in _effective_of_degree(weight, d):
            cand = tuple(a - b for a, b in zip(divisor, eff))
            if not effective_bruteforce(game, cand, box):
                return d - 1


def _effective_of_degree(weight, target):
    def rec(prefix, idx, remaining):
        if idx == len(weight) - 1:
            q, r = divmod(remaining, weight[idx])
            if r == 0:
                yield tuple(prefix + [q])
            return
        for e in range(remaining // weight[idx] + 1):
            yield from rec(prefix + [e], idx + 1, remaining - e * weight[idx])

    yield from rec([], 0, target)


def _exists_effective_of_degree(weight, target):
    return next(iter(_effective_of_degree(weight, target)), None) is not None


def reduced_bruteforce(game, base, divisor):
    """Exhaustive reducedness check over all valid strategies: exact."""
    if any(d < 0 for v, d in enumerate(divisor) if v != base):
        raise NotSandpileForm("divisor must be nonnegative away from the base")
    for f in valid_strategies(game, base):
        moved = game.apply(divisor, f)
        if all(moved[v] >= 0 for v in range(game.n_vertices) if v != base):
            return False
    return True


def gparking_subset_bruteforce(digraph, base, divisor):
    """Directed G-parking test by subset enumeration: for every nonempty
    vertex set A avoiding the base, some v in A has fewer chips than arcs
    leaving A from v."""
    n = digraph.n_vertices
    others = [v for v in range(n) if v != base]
    for picks in product((False, True), repeat=len(others)):
        subset = [v for v, take in zip(others, picks) if take]
        if not subset:
            continue
        inside = set(subset)
        ok = any(
            divisor[v]
            < sum(digraph.arcs[v][u] for u in range(n) if u not in inside)
            for v in subset
        )
        if not ok:
            return False
    return True


def extremes_bruteforce(game, base, budget=DEFAULT_BUDGET):
    """All extreme classes, by exhaustive scan over reduced normal forms.

    Scans the stable box (the reduced-divisor coordinate bound) with value -1
    at the base, keeping the divisors that are reduced, in Sigma, and
    extreme; classes are deduplicated by their full representative sets.
    """
    classes = {}
    for stable in stable_box(game, base, budget):
        divisor = stable[:base] + (-1,) + stable[base + 1:]
        if not is_reduced(game, base, divisor):
            continue
        if not in_sigma(game, base, divisor):
            continue
        if not is_extreme(game, base, divisor):
            continue
        reps = tuple(all_reduced_representatives(game, base, divisor))
        if reps not in classes:
            classes[reps] = ExtremeClass(
                rep=divisor,
                degree=degree(game.weight, divisor),
                all_reps=reps,
            )
    ordered = tuple(sorted(classes.values(), key=lambda c: c.rep))
    if not ordered:
        raise AssertionError("no extreme classes found; scan bounds violated")
    degrees = [c.degree for c in ordered]
    return ExtremeClassSet(
        classes=ordered, g_min=min(degrees) + 1, g_max=max(degrees) + 1
    )
