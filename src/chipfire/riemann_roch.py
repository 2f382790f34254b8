"""Uniformity, reflection invariance, the Riemann-Roch verdict, and scaling."""

from collections import namedtuple
from fractions import Fraction
from math import gcd

from .divisor_algebra import degree, equivalent
from .errors import DimensionError
from .games import scaled_game
from .rank_extremes import _classes_of_degree, _classes_per_degree, enumerate_extremes, rank
from .reduction import DEFAULT_BUDGET, all_reduced_representatives, check_budget


class RRReport(namedtuple("RRReport", "extremes uniform reflection_invariant rr_property"
                          " canonical natural_rr g reflection_witness pairing")):
    """Verdict record for one lattice.  ``canonical``, ``reflection_witness``
    and ``pairing`` are None unless it is reflection invariant, ``g`` unless
    it is uniform."""

    __slots__ = ()


def project(weight, point):
    """Exact projection along the weight vector onto its orthogonal hyperplane.

    pi(p) = p - ((p . R) / ||R||^2) R.
    """
    coords = [Fraction(x) for x in point]
    r = [Fraction(x) for x in weight]
    lam = sum(a * b for a, b in zip(coords, r)) / sum(x * x for x in r)
    return tuple(a - lam * b for a, b in zip(coords, r))


def delta_distance(weight, p, q):
    """The gauge max_i (q_i - p_i) / r_i, exact rational."""
    if not len(weight) == len(p) == len(q):
        raise DimensionError("weight/point dimension mismatch")
    return max(
        (Fraction(qi) - Fraction(pi)) / Fraction(ri)
        for pi, qi, ri in zip(p, q, weight)
    )


def crit_points(extremes, weight):
    """One critical point per extreme class: pi(rep + 1)."""
    return [
        project(weight, [x + 1 for x in cls.rep]) for cls in extremes.classes
    ]


def reflection_invariant(extremes, lattice, weight):
    """Decide whether the negated critical set is a lattice translate of itself.

    Any valid translation must send some critical point to -p_0, so the
    candidates are v = -p_0 - p_j, and -p_i - v - p_k is the projection of
    nu_0 + nu_j - nu_i - nu_k for the extreme representatives nu.  The lattice
    is orthogonal to w, so an integer x projects into it iff x is in
    lattice + Z u, u = w / gcd(w); shifting x by multiples of u until x . u
    lies in [0, u . u) and taking its residue keys that class.  So each
    candidate is k key lookups, each hit the first class with that key.

    Returns (flag, translation witness or None, matching or None).
    """
    u = [x // gcd(*weight) for x in weight]
    s = sum(x * x for x in u)

    def key(x):
        t = sum(a * b for a, b in zip(x, u)) // s
        return lattice.residue([a - t * b for a, b in zip(x, u)])

    reps = [cls.rep for cls in extremes.classes]
    first = {}
    for i, nu in enumerate(reps):
        first.setdefault(key(nu), i)
    nu0 = reps[0]
    for nu_j in reps:
        sigma = []
        for nu in reps:
            hit = first.get(key([a + b - c for a, b, c in zip(nu0, nu_j, nu)]))
            if hit is None:
                break
            sigma.append(hit)
        if sorted(sigma) == list(range(len(reps))):
            translation = project(weight, [-a - b - 2 for a, b in zip(nu0, nu_j)])
            return True, translation, tuple(sigma)
    return False, None, None


def _canonical_from_pairing(game, base, extremes, sigma):
    """The canonical divisor nu_i + nu_sigma(i) of maximal weighted degree,
    normalized to its lexicographically least reduced representative."""
    best = None
    for i, cls in enumerate(extremes.classes):
        partner = extremes.classes[sigma[i]]
        candidate = tuple(a + b for a, b in zip(cls.rep, partner.rep))
        deg = degree(game.weight, candidate)
        if best is None or deg > best[0]:
            best = (deg, candidate)
    _, raw = best
    return min(all_reduced_representatives(game, base, raw))


def natural_divisor(game):
    """The entrywise divisor F[v][v] - 2: out-degree minus 2 in the row game,
    delta minus 2 in the chip game."""
    return tuple(game.threshold(v) - 2 for v in range(game.n_vertices))


def rr_verdict(game, base, budget=DEFAULT_BUDGET):
    """Full Riemann-Roch report for the game's lattice."""
    extremes = enumerate_extremes(game, base, budget=budget)
    uniform = extremes.uniform
    invariant, witness, sigma = reflection_invariant(
        extremes, game.lattice, game.weight
    )
    rr = uniform and invariant
    canonical = None
    if invariant:
        canonical = _canonical_from_pairing(game, base, extremes, sigma)
    natural = bool(
        rr and equivalent(game.lattice, canonical, natural_divisor(game))
    )
    return RRReport(
        extremes=extremes,
        uniform=uniform,
        reflection_invariant=invariant,
        rr_property=rr,
        canonical=canonical,
        natural_rr=natural,
        g=extremes.g_min if uniform else None,
        reflection_witness=witness,
        pairing=sigma,
    )


def canonical_inequality_check(game, base, report, budget=DEFAULT_BUDGET):
    """Whether every divisor D satisfies the two-sided canonical inequality

    deg(D) - 3 g_max + 2 g_min + 1 <= r(D) - r(K-D) <= deg(D) - g_min + 1.

    With T = g_max - 1 the top degree of Sigma, r(D) = -1 when deg D < 0 and
    r(D) = deg D - g_max when deg D > 2T (see ``rank``).  Above the window
    [min(0, deg K - 2T), max(2T, deg K)], deg D > 2T and deg K - D < 0, so
    the difference is deg D - g_max + 1, which lies within both bounds as
    g_min <= g_max.  Below it, deg D < 0 and deg K - D > 2T, so the
    difference is deg D + g_max - 1 - deg K, and the bounds reduce to
    g_min + g_max - 2 <= deg K <= 4 g_max - 2 g_min - 2.  So the inequality
    holds everywhere iff deg K is in that range and it holds on every class
    of the window.  Both ranks are class invariants, so each class is taken
    once; the window's class count is checked against the budget first.
    """
    if not report.reflection_invariant:
        raise ValueError("inequality check requires reflection invariance")
    g_min = report.extremes.g_min
    g_max = report.extremes.g_max
    canonical = report.canonical
    deg_k = degree(game.weight, canonical)
    lo, hi = min(0, deg_k - 2 * g_max + 2), max(2 * g_max - 2, deg_k)
    degrees = range(lo, hi + 1, gcd(*game.weight))
    count = len(degrees) * _classes_per_degree(game)
    check_budget(count, budget, f"degree window {lo}..{hi} holds {count} classes")
    return g_min + g_max - 2 <= deg_k <= 4 * g_max - 2 * g_min - 2 and all(
        d - 3 * g_max + 2 * g_min + 1
        <= rank(game, base, res) - rank(game, base, tuple(a - b for a, b in zip(canonical, res)))
        <= d - g_min + 1
        for d in degrees
        for res in _classes_of_degree(game, g_max, d)
    )


def rr_formula_check(game, base, report, budget=DEFAULT_BUDGET):
    """Whether r(D) - r(K - D) = deg D - g + 1 holds for every divisor D.

    As deg D grows the difference is deg D - g_max + 1 (see
    ``canonical_inequality_check``), so the formula needs g = g_max.  With
    g = g_min = g_max both bounds of the canonical inequality are
    deg D - g + 1, so the formula is that inequality: it holds everywhere
    iff deg K = 2g - 2 and it holds on every class of degree 0 .. 2g - 2.
    """
    if not report.rr_property:
        raise ValueError("formula check requires the Riemann-Roch property")
    extremes = report.extremes
    return report.g == extremes.g_min == extremes.g_max and canonical_inequality_check(
        game, base, report, budget
    )


def transport_canonical(weight, canonical_scaled):
    """Pull a canonical divisor of the scaled lattice back through the scaling:
    R^{-1}(K + 2*1) - 2*1.  Returns None when the result is not integral."""
    out = []
    for w, k in zip(weight, canonical_scaled):
        num = k + 2
        if num % w != 0:
            return None
        out.append(num // w - 2)
    return tuple(out)


def scaling_bridge(game, base, budget=DEFAULT_BUDGET):
    """Riemann-Roch verdicts agree before and after weight scaling, and the
    canonical divisors relate by the transport formula.  Returns True iff both
    assertions hold."""
    report = rr_verdict(game, base, budget=budget)
    scaled = scaled_game(game)
    scaled_report = rr_verdict(scaled, base, budget=budget)
    if report.rr_property != scaled_report.rr_property:
        return False
    if report.rr_property:
        pulled = transport_canonical(game.weight, scaled_report.canonical)
        if pulled is None:
            return False
        if not equivalent(game.lattice, pulled, report.canonical):
            return False
    return True
