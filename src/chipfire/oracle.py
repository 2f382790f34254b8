"""Independent brute-force reference implementations for tiny instances."""

from itertools import product
from math import prod

from .divisor_algebra import degree, degree_plus
from .errors import NotSandpileForm, NotStable
from .rank_extremes import ExtremeClass, ExtremeClassSet, enumerate_extremes, in_sigma, is_extreme
from .reduction import DEFAULT_BUDGET, all_reduced_representatives, check_budget
from .reduction import check_sandpile_form, is_reduced, reduce
from .sandpile import is_stable, stabilize


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


def valid_strategies(game, base):
    """All nonzero f with 0 <= f <= S and f[base] = 0, in lexicographic order."""
    ranges = [range(1 if v == base else s + 1) for v, s in enumerate(game.period)]
    return (f for f in product(*ranges) if any(f))


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


def stable_box(game, base, budget):
    """Every divisor with 0 <= D(v) < F[v][v] off the base and D(base) = 0.

    Checks the base, then the budget (ValueError if negative) and that the box
    size is within it, before yielding the first divisor.
    """
    game.check_base(base)
    others = [v for v in range(game.n_vertices) if v != base]
    total = prod(game.threshold(v) for v in others)
    check_budget(total, budget, f"enumeration needs {total} candidates")
    for combo in product(*[range(game.threshold(v)) for v in others]):
        yield combo[:base] + (0,) + combo[base:]


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


def rank_via_extremes(game, base, divisor, box_radius, extremes=None):
    """Bounded rank cross-check via extreme translates.

    min over extreme classes and lattice translates (basis coefficients in
    [-box_radius, box_radius]) of the positive-part degree of the difference,
    minus 1.  Monotone nonincreasing in the radius; equals the rank once the
    box is large enough.
    """
    if extremes is None:
        extremes = enumerate_extremes(game, base)
    basis = game.lattice.basis()
    n = game.n_vertices
    best = None
    for cls in extremes.classes:
        # Center the translate search on the reduced difference; the raw
        # difference may sit far from the minimizing coset representative.
        start = list(
            reduce(
                game, base, tuple(d - r for d, r in zip(divisor, cls.rep))
            )[0]
        )
        for coeffs in product(
            range(-box_radius, box_radius + 1), repeat=len(basis)
        ):
            diff = list(start)
            for c, b in zip(coeffs, basis):
                if c:
                    for i in range(n):
                        diff[i] -= c * b[i]
            val = degree_plus(game.weight, diff)
            if best is None or val < best:
                best = val
    return best - 1
