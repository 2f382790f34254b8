"""Arithmetical graphs: validation, the chip game, Euclidean stars, staircases."""

from collections import namedtuple
from itertools import permutations
from math import gcd

from .errors import InvalidGraph, NotArithmetical, NotPrimitive
from .divisor_algebra import degree
from .games import Game, column_game
from .graph_core import DirectedMultigraph, reachable
from .rank_extremes import enumerate_extremes
from .reduction import DEFAULT_BUDGET
from .riemann_roch import rr_verdict


class ArithmeticalGraph(namedtuple("ArithmeticalGraph", "adjacency multiplicities deltas")):
    """Undirected multigraph with multiplicities R satisfying (diag(delta) - A) R = 0."""

    # adjacency: symmetric multiplicity matrix, no loops
    __slots__ = ()

    @property
    def n_vertices(self):
        return len(self.multiplicities)

    def laplacian(self):
        n = self.n_vertices
        return [
            [
                self.deltas[i] if i == j else -self.adjacency[i][j]
                for j in range(n)
            ]
            for i in range(n)
        ]


def validate_arithmetical(adjacency, multiplicities):
    """Validate (G, R): connected base, integral deltas, primitive R."""
    n = len(adjacency)
    if n < 2:
        raise InvalidGraph("need at least two vertices")
    if any(len(row) != n or any(type(a) is not int or a < 0 for a in row) for row in adjacency):
        raise InvalidGraph("adjacency matrix must be square, with nonnegative int entries (not bool)")
    if any(adjacency[i][j] != adjacency[j][i] for i in range(n) for j in range(n)):
        raise InvalidGraph("adjacency matrix must be symmetric")
    if any(adjacency[i][i] != 0 for i in range(n)):
        raise InvalidGraph("loop edges are not allowed")
    if len(multiplicities) != n or any(type(r) is not int or r < 1 for r in multiplicities):
        raise InvalidGraph("multiplicities must be positive integers (not bool)")
    if len(reachable(adjacency, 0)) != n:
        raise InvalidGraph("base graph must be connected")
    if gcd(*multiplicities) != 1:
        raise NotPrimitive("multiplicities must have gcd 1")
    deltas = []
    for i in range(n):
        neighbor_sum = sum(
            adjacency[i][j] * multiplicities[j] for j in range(n)
        )
        if neighbor_sum % multiplicities[i] != 0:
            raise NotArithmetical(
                f"vertex {i}: neighbor sum {neighbor_sum} not divisible by r={multiplicities[i]}"
            )
        deltas.append(neighbor_sum // multiplicities[i])
    return ArithmeticalGraph(
        adjacency=tuple(tuple(row) for row in adjacency),
        multiplicities=tuple(multiplicities),
        deltas=tuple(deltas),
    )


def g0(ag):
    """The invariant with 2 g0 - 2 = sum_i r_i (delta_i - 2)."""
    total = sum(
        r * (d - 2) for r, d in zip(ag.multiplicities, ag.deltas)
    )
    if total % 2 != 0:
        raise NotArithmetical("g0 is not an integer")
    return total // 2 + 1


def associated_digraph(ag):
    """Replace each edge (v_i, v_j) by r_j arcs i->j and r_i arcs j->i."""
    n = ag.n_vertices
    arcs = [
        [ag.adjacency[i][j] * ag.multiplicities[j] for j in range(n)]
        for i in range(n)
    ]
    return DirectedMultigraph(arcs)


def chip_game(ag):
    """The chip game on (G, R): firing matrix Q = diag(delta) - A, period and
    degree weight both R."""
    return Game(ag.laplacian(), ag.multiplicities, ag.multiplicities)


def column_rr_always(ag, base=0, budget=DEFAULT_BUDGET):
    """Riemann-Roch verdict for the column game on the associated digraph."""
    game = column_game(associated_digraph(ag))
    return rr_verdict(game, base, budget=budget).rr_property


def digraph_natural_rr(ag, base=0, budget=DEFAULT_BUDGET):
    """Natural Riemann-Roch for the row game on the associated digraph.

    The scaled chip game is the digraph row game, whose canonical is the
    transported chip canonical K' = R(K + 2) - 2 and whose natural divisor is
    delta R - 2.  Their difference diag(R)(K - (delta - 2)) lies in the scaled
    lattice iff K ~ delta - 2 in the chip lattice: the chip verdict's own
    natural Riemann-Roch test.
    """
    return rr_verdict(chip_game(ag), base, budget=budget).natural_rr


class EuclideanSequence(namedtuple("EuclideanSequence", "values deltas")):
    """Strictly decreasing r_0 > r_1 > ... > r_m with r_{i+1} = delta_i r_i - r_{i-1}."""

    # deltas: interior deltas delta_1 ... delta_{m-1}
    __slots__ = ()

    @property
    def chain_deltas(self):
        """Delta values along a chain realizing the sequence: the interior
        recursion deltas followed by the chain-end value r_{m-1} / r_m."""
        values = self.values
        return self.deltas + (values[-2] // values[-1],)


def euclidean_sequence(r0, r1):
    """The unique decreasing sequence ending at gcd(r0, r1)."""
    if not r0 > r1 >= 1:
        raise ValueError("need r0 > r1 >= 1")
    values = [r0, r1]
    deltas = []
    while values[-2] % values[-1] != 0:
        prev, cur = values[-2], values[-1]
        delta = prev // cur + 1
        values.append(delta * cur - prev)
        deltas.append(delta)
    assert values[-1] == gcd(r0, r1)
    return EuclideanSequence(values=tuple(values), deltas=tuple(deltas))


class GoodRepresentation(namedtuple("GoodRepresentation", "coefficients")):
    # coefficients: t_1 ... t_m with 0 <= t_i <= delta_i - 1
    __slots__ = ()


def good_representation(r0, r1, x):
    """The unique good representation of x over the Euclidean sequence, or None.

    x = sum t_i r_i with 0 <= t_i <= delta_i - 1 and no run
    (delta-1, delta-2, ..., delta-2, delta-1).  Exists iff 0 <= x <= r0 - 1.

    It is the greedy digits t_i = rem // r_i, rem being what is left of x.
    rem < r_{i-1} = delta_i r_i - r_{i+1} holds before each digit, so
    t_i <= delta_i - 1, and r_m = 1 leaves rem = 0 after the last digit.
    After a digit delta - 1, and after each delta - 2 that follows one,
    rem < r_i - r_{i+1} holds instead; that keeps the next digit below
    delta - 1, so the forbidden run never appears, and uniqueness makes the
    digits the good representation.
    """
    if gcd(r0, r1) != 1:
        raise ValueError("good representations require gcd(r0, r1) = 1")
    if not 0 <= x < r0:
        return None
    rem, digits = x, []
    for r in euclidean_sequence(r0, r1).values[1:]:
        t, rem = divmod(rem, r)
        digits.append(t)
    return GoodRepresentation(coefficients=tuple(digits))


def euclidean_star(r0, r1):
    """The Euclidean star: center of multiplicity r0 with r0 identical chains."""
    seq = euclidean_sequence(r0, r1)
    chain = seq.values[1:]
    m = len(chain)
    n = 1 + r0 * m
    adjacency = [[0] * n for _ in range(n)]
    mults = [r0] + list(chain) * r0
    for c in range(r0):
        first = 1 + c * m
        adjacency[0][first] = adjacency[first][0] = 1
        for i in range(m - 1):
            a, b = first + i, first + i + 1
            adjacency[a][b] = adjacency[b][a] = 1
    return validate_arithmetical(adjacency, mults)


def staircase_divisors(star_ag, r0, r1):
    """All staircase divisors of the Euclidean star: -1 at the center and one
    good representation of each of 0 .. r0-1 laid along the chains, over all
    r0! chain labelings."""
    if gcd(r0, r1) != 1:
        raise ValueError("staircase divisors require gcd(r0, r1) = 1")
    seq = euclidean_sequence(r0, r1)
    m = len(seq.values) - 1
    reps = []
    for x in range(r0):
        rep = good_representation(r0, r1, x)
        assert rep is not None
        reps.append(rep.coefficients)
    out = set()
    for perm in permutations(range(r0)):
        divisor = [-1] + [0] * (r0 * m)
        for c, which in enumerate(perm):
            for i, t in enumerate(reps[which]):
                divisor[1 + c * m + i] = t
        out.add(tuple(divisor))
    return sorted(out)


def gmax_bound_check(ag, base=0, budget=DEFAULT_BUDGET):
    """Assert g_max <= g0 for the chip game; when equal, also check the
    canonical pairing with K = (delta - 2): a class of top degree g_max - 1
    pairs with K minus itself inside the extreme set, and conversely."""
    game = chip_game(ag)
    extremes = enumerate_extremes(game, base, budget=budget)
    bound = g0(ag)
    if extremes.g_max > bound:
        return False
    if extremes.g_max == bound:
        k = tuple(d - 2 for d in ag.deltas)
        residues = {game.lattice.residue(c.rep) for c in extremes.classes}
        for cls in extremes.classes:
            partner = game.lattice.residue(
                tuple(a - b for a, b in zip(k, cls.rep))
            )
            top = degree(game.weight, cls.rep) == extremes.g_max - 1
            if top != (partner in residues):
                return False
    return True
