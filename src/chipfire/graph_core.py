"""Directed multigraphs, Laplacians, the period vector, and exact lattice membership.

All arithmetic is arbitrary-precision ``int``: the period vector and every
membership test come from one integer Hermite basis.
"""

from math import gcd

from .errors import InvalidGraph, NotStronglyConnected


class DirectedMultigraph:
    """Vertex-indexed arc-multiplicity matrix.

    ``arcs[i][j]`` is the number of arcs from vertex i to vertex j.  No loops,
    at least one arc, at least two vertices.
    """

    def __init__(self, arcs):
        n = len(arcs)
        if n < 2:
            raise InvalidGraph("need at least two vertices")
        if any(len(row) != n for row in arcs):
            raise InvalidGraph("arc matrix must be square")
        if any(arcs[i][i] != 0 for i in range(n)):
            raise InvalidGraph("loop arcs are not allowed")
        if any(type(m) is not int or m < 0 for row in arcs for m in row):
            raise InvalidGraph("arc multiplicities must be nonnegative integers (not bool)")
        if not any(m for row in arcs for m in row):
            raise InvalidGraph("graph must have at least one arc")
        self.arcs = tuple(tuple(row) for row in arcs)
        self.n_vertices = n

    def out_degree(self, v):
        return sum(self.arcs[v])

    def __eq__(self, other):
        return isinstance(other, DirectedMultigraph) and self.arcs == other.arcs

    def __hash__(self):
        return hash(self.arcs)

    def __repr__(self):
        return f"DirectedMultigraph({[list(r) for r in self.arcs]})"


def build_digraph(arc_list, n_vertices=None):
    """Build a DirectedMultigraph from (tail, head, multiplicity) triples."""
    if not arc_list:
        raise InvalidGraph("empty arc list")
    if n_vertices is None:
        n_vertices = 1 + max(max(t, h) for t, h, _ in arc_list)
    arcs = [[0] * n_vertices for _ in range(n_vertices)]
    for tail, head, mult in arc_list:
        if {type(tail), type(head), type(mult)} != {int}:
            raise InvalidGraph(f"arc ({tail},{head},{mult}) needs integer entries (not bool)")
        if not (0 <= tail < n_vertices and 0 <= head < n_vertices):
            raise InvalidGraph(f"arc ({tail},{head}) out of range")
        if tail == head:
            raise InvalidGraph(f"loop arc at vertex {tail}")
        if mult < 1:
            raise InvalidGraph("arc multiplicity must be at least 1")
        arcs[tail][head] += mult
    return DirectedMultigraph(arcs)


def reachable(matrix, start):
    """The set of vertices reachable from start along nonzero matrix entries."""
    seen = {start}
    stack = [start]
    while stack:
        u = stack.pop()
        for v, m in enumerate(matrix[u]):
            if m and v not in seen:
                seen.add(v)
                stack.append(v)
    return seen


def is_strongly_connected(g):
    """True iff every ordered vertex pair is joined by a directed path."""
    return pattern_strongly_connected(g.arcs)


def pattern_strongly_connected(matrix):
    """True iff the nonzero entries of a nonempty square matrix, read as arcs
    i -> j, form a strongly connected digraph."""
    n = len(matrix)
    return n > 0 and all(len(reachable(m, 0)) == n for m in (matrix, tuple(zip(*matrix))))


def laplacian(g):
    """The directed Laplacian Q = diag(out-degree) - arcs."""
    n = g.n_vertices
    return [
        [g.out_degree(i) if i == j else -g.arcs[i][j] for j in range(n)]
        for i in range(n)
    ]


def period_vector(g):
    """The primitive positive integer R with Q^T R = 0.

    Unique on a strongly connected digraph: the kernel of the Hermite basis
    of the rows of Q^T, whose sign convention already makes it positive.
    """
    return _transposed_lattice(g)[1]


def _transposed_lattice(g):
    """(Hermite basis of the rows of Q^T, period vector R), for the column game."""
    if not is_strongly_connected(g):
        raise NotStronglyConnected("period vector requires strong connectivity")
    lattice = LatticeHandle(list(zip(*laplacian(g))))
    r = lattice.kernel()
    if any(v <= 0 for v in r):
        raise NotStronglyConnected("kernel vector is not strictly positive")
    return lattice, r


class LatticeHandle:
    """Integer lattice given by generator rows, with exact membership queries.

    The reduced Hermite basis is computed once; each membership query is a
    single back-substitution pass.
    """

    def __init__(self, generators):
        if not generators:
            raise ValueError("need at least one generator")
        self.dim = len(generators[0])
        if any(len(gen) != self.dim for gen in generators):
            raise ValueError("generators must all have the same length")
        # pivots: (column, row) with strictly increasing columns, row[column]
        # > 0, zeros left of the pivot and entries above it in [0, pivot).
        # One pass, column by column: Euclid steps among the rows nonzero
        # there leave one pivot row, and rows reduced to 0 there stay pooled.
        pool = [list(gen) for gen in generators]
        pivots = []
        for col in range(self.dim):
            live = [row for row in pool if row[col]]
            if not live:
                continue
            pool = [row for row in pool if not row[col]]
            while len(live) > 1:
                least = min(live, key=lambda row: abs(row[col]))
                rest = []
                for row in live:
                    if row is not least:
                        q = row[col] // least[col]
                        row = [x - q * y for x, y in zip(row, least)]
                        (rest if row[col] else pool).append(row)
                live = rest + [least]
            row = live[0] if live[0][col] > 0 else [-x for x in live[0]]
            for j, (c, upper) in enumerate(pivots):
                q = upper[col] // row[col]
                if q:
                    pivots[j] = (c, [x - q * y for x, y in zip(upper, row)])
            pivots.append((col, row))
        self.pivots = tuple((c, tuple(r)) for c, r in pivots)
        self.rank = len(pivots)
        # Per pivot: (column, pivot entry, nonzero (index, entry) pairs right of it).
        self._tails = tuple((c, r[c], tuple((i, b) for i, b in enumerate(r) if i > c and b))
                            for c, r in pivots)
        self._position = {c: i for i, (c, _) in enumerate(pivots)}  # a free column has none

    def contains(self, x):
        """True iff x (int or Fraction entries) is an integer combination of generators."""
        if len(x) != self.dim or any(v != int(v) for v in x):
            return False
        return not any(self.residue([int(v) for v in x]))

    def residue(self, x):
        """Canonical coset representative of x modulo the lattice.

        Two integer vectors have the same residue iff they are equivalent.
        """
        rem = list(x)
        for col, p, tail in self._tails:
            q = rem[col] // p
            if q:
                rem[col] -= q * p
                for i, b in tail:
                    rem[i] -= q * b
        return tuple(rem)

    def bump(self, res, v, k):
        """residue(res + k e_v) for a residue res and k = +1 or -1.

        The pivots left of column v see entries already reduced, so the pass
        starts at column v; it stops there unless that entry leaves its range
        [0, pivot), and a free column needs no pass at all.
        """
        rem = list(res)
        rem[v] += k
        start = self._position.get(v)
        if start is not None and not 0 <= rem[v] < self._tails[start][1]:
            for col, p, tail in self._tails[start:]:
                q = rem[col] // p
                if q:
                    rem[col] -= q * p
                    for i, b in tail:
                        rem[i] -= q * b
        return tuple(rem)

    def kernel(self):
        """The primitive integer x with B x = 0, for a basis B of corank 1.

        Back-substitutes over the pivots from the last one up, with the free
        coordinate set to 1, scaling x whenever a pivot does not divide;
        the free coordinate stays positive.
        """
        corank = self.dim - self.rank
        if corank != 1:
            raise ValueError(f"kernel needs corank 1, basis has corank {corank}")
        x = [0] * self.dim
        x[next(c for c in range(self.dim) if c not in self._position)] = 1
        for col, row in reversed(self.pivots):
            rest = sum(a * b for a, b in zip(row[col + 1:], x[col + 1:]))
            g = gcd(row[col], rest)
            x = [v * (row[col] // g) for v in x]
            x[col] = -rest // g
        g_all = gcd(*x)
        return tuple(v // g_all for v in x)

    def basis(self):
        return tuple(row for _, row in self.pivots)

    def __eq__(self, other):
        return isinstance(other, LatticeHandle) and self.pivots == other.pivots

    def __hash__(self):
        return hash(self.pivots)
