"""The Sigma region, the rank function, and extreme divisor classes."""

from collections import namedtuple
from math import gcd, prod

from .divisor_algebra import degree
from .reduction import DEFAULT_BUDGET, all_reduced_representatives, check_budget, is_effective_class


class ExtremeClass(namedtuple("ExtremeClass", "rep degree all_reps")):
    """One extreme class: the least reduced representative with -1 at the
    base, the weighted degree, and all reduced representatives."""

    __slots__ = ()


class ExtremeClassSet(namedtuple("ExtremeClassSet", "classes g_min g_max")):
    __slots__ = ()

    @property
    def uniform(self):
        return self.g_min == self.g_max


def in_sigma(game, base, divisor):
    """True iff the divisor is not equivalent to an effective divisor.

    Memoized per equivalence class (keyed by the lattice residue), after the
    base and the divisor are checked.
    """
    game.check_base(base)
    game.check_divisor(divisor)
    if degree(game.weight, divisor) < 0:
        return True
    key = game.lattice.residue(divisor)
    cached = game.sigma_cache.get(key)
    if cached is None:
        cached = not is_effective_class(game, base, divisor)
        game.sigma_cache[key] = cached
    return cached


def _effective_classes_by_degree(game, target):
    """Residues of effective-divisor classes of one weighted degree, cached.

    Built by the one-chip recursion: every effective divisor of degree d is an
    effective divisor of degree d - w[v] plus one chip at v.
    """
    cache = game.eff_class_cache
    lat = game.lattice
    n = game.n_vertices
    if not cache:
        cache.append({lat.residue((0,) * n)})
    for d in range(len(cache), target + 1):
        found = set()
        for v in range(n):
            prev = d - game.weight[v]
            if prev >= 0:
                for res in cache[prev]:
                    found.add(lat.bump(res, v, 1))
        cache.append(found)
    return cache[target]


def _classes_per_degree(game):
    """How many classes each attainable degree (a multiple of gcd(w)) holds.

    Z^n / (L + Z e_free) has order P, the product of the Hermite pivots.
    Each of its P cosets is a class plus the multiples of e_free, which adds
    w_free to the degree, so it meets w_free / gcd(w) consecutive attainable
    degrees once; as every degree holds equally many classes, each holds
    P gcd(w) / w_free.
    """
    lat = game.lattice
    pivot_cols = {col for col, _ in lat.pivots}
    free = next(v for v in range(game.n_vertices) if v not in pivot_cols)
    return prod(row[col] for col, row in lat.pivots) * gcd(*game.weight) // game.weight[free]


def _classes_of_degree(game, g_max, d):
    """The residues of every class of attainable degree d, g_max being the game's.

    Every class of degree g_max or more is effective (Sigma's top degree is
    g_max - 1).  So with v0 of least weight and k = ceil((g_max - d) / w_v0),
    adding k chips at v0 maps the classes of degree d one to one onto the
    table's full degree d + k w_v0, and one residue shifts each back.
    """
    weight = game.weight
    v0 = min(range(game.n_vertices), key=weight.__getitem__)
    k = (g_max - d + weight[v0] - 1) // weight[v0]
    lat = game.lattice
    for res in _effective_classes_by_degree(game, d + k * weight[v0]):
        shifted = list(res)
        shifted[v0] -= k
        yield lat.residue(shifted)


def rank(game, base, divisor):
    """The rank: min weighted degree of effective E with D - E in Sigma, minus 1.

    Works on lattice residues, memoized per class: the Sigma test and the
    degree are both class invariants, and the effective classes of each
    degree come from the one-chip recursion, from Eff_0 = {0} up.

    Past twice cut = sum_{v != base} (F[v][v] - 1) w_v - w_base the rank is
    deg D - g_max, with g_max = T + 1 from ``_sigma_top``.  A reduced
    representative lies in the stable box, so every class of degree above cut
    is effective and T <= cut.  If D - E is in Sigma then deg E >= deg D - T;
    and for a class c of Sigma of degree T, [D] - c has degree deg D - T > T,
    so it holds an effective E with D - E in c.
    """
    game.check_base(base)
    game.check_divisor(divisor)
    res = game.lattice.residue(divisor)
    memo = game.rank_cache
    if res in memo:
        return memo[res]
    weight = game.weight
    deg = degree(weight, res)
    cut = sum((game.threshold(v) - 1) * w for v, w in enumerate(weight) if v != base) - weight[base]
    if deg > 2 * cut:
        value = deg - _sigma_top(game) - 1
    else:
        value = None
        d = 0
        while value is None:
            eff_classes = _effective_classes_by_degree(game, d)
            if eff_classes and (deg < d or any(
                in_sigma(game, base, tuple(a - b for a, b in zip(res, res_e)))
                for res_e in eff_classes
            )):
                value = d - 1
            d += 1
    memo[res] = value
    return value


def is_extreme(game, base, divisor):
    """True iff D is in Sigma and every single added chip leaves Sigma."""
    if not in_sigma(game, base, divisor):
        return False
    n = game.n_vertices
    for v in range(n):
        bumped = list(divisor)
        bumped[v] += 1
        if in_sigma(game, base, bumped):
            return False
    return True


def _sigma_top(game, budget=DEFAULT_BUDGET):
    """Sigma's top degree T, the highest attainable degree not full; g_max = T + 1.

    Eff_d grows from degree 0 until a run of full degrees (each holding every
    class of its degree) spans the largest weight; every higher class is then
    a full class plus one chip, so all degrees past the run's start are full.
    No extreme class lies above T, where all are effective; a class of degree
    T that is not effective is extreme, as one more chip lands on a full
    degree.  The budget (ValueError if negative) bounds the residues held.
    """
    step = gcd(*game.weight)
    full = _classes_per_degree(game)
    held = run = d = 0
    while run * step < max(game.weight):
        size = len(_effective_classes_by_degree(game, d))
        held += size
        check_budget(held, budget, f"class table size {held} after degree {d}")
        run = run + 1 if size == full else 0
        d += step
    return d - (run + 1) * step


def enumerate_extremes(game, base, budget=DEFAULT_BUDGET):
    """All extreme classes, the local maxima of Sigma, from the class table.

    A class c is extreme iff c is not effective and c + e_u is for every u.
    The base is checked, then ``_sigma_top`` builds the table and checks the
    budget.  An extreme c has c + e_v0 effective, so the candidates are
    c' - e_v0 over the table, with v0 of least weight.  No Dhar burn runs
    until each extreme class's reduced representatives are collected.
    ``rep`` is the least reduced representative with -1 at the base: one
    exists, as reducedness ignores the base entry, so an effective reduced
    representative E of c + e_base gives the reduced E - e_base of c, with
    base entry E(base) - 1 < 0 as c is not effective.
    """
    game.check_base(base)
    top = _sigma_top(game, budget)
    lat = game.lattice
    weight = game.weight
    full = _classes_per_degree(game)
    table = game.eff_class_cache
    v0 = min(range(game.n_vertices), key=weight.__getitem__)
    classes = []
    for j in range(top + weight[v0] + 1):  # empty off the multiples of gcd(w)
        k = j - weight[v0]
        for above in table[j]:
            c = lat.bump(above, v0, -1)
            if k >= 0 and c in table[k]:
                continue
            if all(
                u == v0
                or len(table[k + weight[u]]) == full
                or lat.bump(c, u, 1) in table[k + weight[u]]
                for u in range(game.n_vertices)
            ):
                reps = all_reduced_representatives(game, base, c)
                rep = min(r for r in reps if r[base] == -1)
                classes.append(ExtremeClass(rep=rep, degree=k, all_reps=reps))
    ordered = tuple(sorted(classes, key=lambda c: c.rep))
    if not ordered:
        raise AssertionError("no extreme classes found; class table bounds violated")
    degrees = [c.degree for c in ordered]
    return ExtremeClassSet(
        classes=ordered, g_min=min(degrees) + 1, g_max=max(degrees) + 1
    )

