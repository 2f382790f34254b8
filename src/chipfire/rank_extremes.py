"""The Sigma region, the rank function, and extreme divisor classes."""

from dataclasses import dataclass
from itertools import product

from .divisor_algebra import degree, degree_plus
from .reduction import (
    DEFAULT_BUDGET,
    all_reduced_representatives,
    is_effective_class,
    is_reduced,
    stable_box,
)


@dataclass(frozen=True)
class ExtremeClass:
    """One extreme class: scan representative, weighted degree, all reduced reps."""

    rep: tuple
    degree: int
    all_reps: tuple


@dataclass(frozen=True)
class ExtremeClassSet:
    classes: tuple
    g_min: int
    g_max: int

    @property
    def uniform(self):
        return self.g_min == self.g_max


def in_sigma(game, base, divisor):
    """True iff the divisor is not equivalent to an effective divisor.

    Memoized per equivalence class (keyed by the lattice residue).
    """
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
                    bumped = list(res)
                    bumped[v] += 1
                    found.add(lat.residue(bumped))
        cache.append(found)
    return cache[target]


def rank(game, base, divisor):
    """The rank: min weighted degree of effective E with D - E in Sigma, minus 1.

    Works on lattice residues, memoized per class: the Sigma test and the
    degree are both class invariants, and the effective classes of each
    degree come from the one-chip recursion.
    """
    game.check_base(base)
    game.check_divisor(divisor)
    res = game.lattice.residue(divisor)
    memo = game.rank_cache
    if res in memo:
        return memo[res]
    value = None
    if in_sigma(game, base, res):
        value = -1
    else:
        deg = degree(game.weight, res)
        d = 0
        while value is None:
            d += 1
            eff_classes = _effective_classes_by_degree(game, d)
            if not eff_classes:
                continue
            if deg - d < 0:
                value = d - 1
                break
            for res_e in eff_classes:
                cand = tuple(a - b for a, b in zip(res, res_e))
                if in_sigma(game, base, cand):
                    value = d - 1
                    break
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


def enumerate_extremes(game, base, budget=DEFAULT_BUDGET):
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


def rank_via_extremes(game, base, divisor, box_radius, extremes=None):
    """Bounded rank cross-check via extreme translates.

    min over extreme classes and lattice translates (basis coefficients in
    [-box_radius, box_radius]) of the positive-part degree of the difference,
    minus 1.  Monotone nonincreasing in the radius; equals the rank once the
    box is large enough.
    """
    from . import reduction

    if extremes is None:
        extremes = enumerate_extremes(game, base)
    basis = game.lattice.basis()
    n = game.n_vertices
    best = None
    for cls in extremes.classes:
        # Center the translate search on the reduced difference; the raw
        # difference may sit far from the minimizing coset representative.
        start = list(
            reduction.reduce(
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
