"""Directed multigraphs, Laplacians, the period vector, and exact lattice membership.

All arithmetic is arbitrary-precision: plain ``int`` and ``fractions.Fraction``.
"""

from fractions import Fraction
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
        if any(m < 0 for row in arcs for m in row):
            raise InvalidGraph("arc multiplicities must be nonnegative")
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
        if not (0 <= tail < n_vertices and 0 <= head < n_vertices):
            raise InvalidGraph(f"arc ({tail},{head}) out of range")
        if tail == head:
            raise InvalidGraph(f"loop arc at vertex {tail}")
        if mult < 1:
            raise InvalidGraph("arc multiplicity must be at least 1")
        arcs[tail][head] += mult
    return DirectedMultigraph(arcs)


def is_strongly_connected(g):
    """True iff every ordered vertex pair is joined by a directed path."""
    n = g.n_vertices

    def reachable(start, matrix):
        seen = [False] * n
        seen[start] = True
        stack = [start]
        while stack:
            u = stack.pop()
            for v in range(n):
                if matrix[u][v] and not seen[v]:
                    seen[v] = True
                    stack.append(v)
        return all(seen)

    reverse = [[g.arcs[j][i] for j in range(n)] for i in range(n)]
    return reachable(0, g.arcs) and reachable(0, reverse)


def laplacian(g):
    """The directed Laplacian Q = diag(out-degree) - arcs."""
    n = g.n_vertices
    return [
        [g.out_degree(i) if i == j else -g.arcs[i][j] for j in range(n)]
        for i in range(n)
    ]


def period_vector(g):
    """The primitive positive integer R with Q^T R = 0.

    Unique on a strongly connected digraph; computed by exact rational
    elimination followed by clearing denominators and dividing by the gcd.
    """
    if not is_strongly_connected(g):
        raise NotStronglyConnected("period vector requires strong connectivity")
    n = g.n_vertices
    q = laplacian(g)
    # Solve x Q = 0, i.e. Q^T x = 0, by Gaussian elimination on Q^T.
    rows = [[Fraction(q[j][i]) for j in range(n)] for i in range(n)]
    pivot_cols = []
    r = 0
    for col in range(n):
        pivot = next((k for k in range(r, n) if rows[k][col] != 0), None)
        if pivot is None:
            continue
        rows[r], rows[pivot] = rows[pivot], rows[r]
        inv = rows[r][col]
        rows[r] = [x / inv for x in rows[r]]
        for k in range(n):
            if k != r and rows[k][col] != 0:
                factor = rows[k][col]
                rows[k] = [a - factor * b for a, b in zip(rows[k], rows[r])]
        pivot_cols.append(col)
        r += 1
    if r != n - 1:
        raise NotStronglyConnected("Laplacian corank is not 1")
    free = next(c for c in range(n) if c not in pivot_cols)
    x = [Fraction(0)] * n
    x[free] = Fraction(1)
    for row, col in zip(rows, pivot_cols):
        x[col] = -row[free]
    denom_lcm = 1
    for v in x:
        denom_lcm = denom_lcm * v.denominator // gcd(denom_lcm, v.denominator)
    ints = [int(v * denom_lcm) for v in x]
    if all(v < 0 for v in ints):
        ints = [-v for v in ints]
    if any(v <= 0 for v in ints):
        raise NotStronglyConnected("kernel vector is not strictly positive")
    g_all = 0
    for v in ints:
        g_all = gcd(g_all, v)
    return tuple(v // g_all for v in ints)


class LatticeHandle:
    """Integer lattice given by generator rows, with exact membership queries.

    A canonical upper-triangular (Hermite-style) basis is computed once; each
    membership query is a single back-substitution pass.
    """

    def __init__(self, generators):
        if not generators:
            raise ValueError("need at least one generator")
        self.dim = len(generators[0])
        self.generators = tuple(tuple(row) for row in generators)
        # pivots: list of (column, row) with strictly increasing columns,
        # row[column] > 0 and zeros left of the pivot column.
        pivots = []
        for gen in self.generators:
            self._insert(pivots, list(gen))
        self._normalize(pivots)
        self.pivots = tuple((c, tuple(r)) for c, r in pivots)
        self.rank = len(pivots)

    @staticmethod
    def _insert(pivots, row):
        while True:
            col = next((c for c, x in enumerate(row) if x != 0), None)
            if col is None:
                return
            match = next((i for i, (c, _) in enumerate(pivots) if c == col), None)
            if match is None:
                if row[col] < 0:
                    row = [-x for x in row]
                pos = next(
                    (i for i, (c, _) in enumerate(pivots) if c > col), len(pivots)
                )
                pivots.insert(pos, (col, row))
                return
            _, base = pivots[match]
            a, b = base[col], row[col]
            if b % a == 0:
                q = b // a
                row = [x - q * y for x, y in zip(row, base)]
            else:
                # Extended gcd: replace the pivot row with the gcd combination
                # and continue reducing the remainder.
                g, s, t = _xgcd(a, b)
                new_base = [s * x + t * y for x, y in zip(base, row)]
                new_row = [(a // g) * y - (b // g) * x for x, y in zip(base, row)]
                pivots[match] = (col, new_base)
                row = new_row

    @staticmethod
    def _normalize(pivots):
        # Reduce entries above each pivot so the basis is canonical.
        for i, (col, row) in enumerate(pivots):
            for j in range(i):
                _, upper = pivots[j]
                if upper[col] != 0:
                    q = upper[col] // row[col]
                    if q:
                        pivots[j] = (
                            pivots[j][0],
                            [x - q * y for x, y in zip(upper, row)],
                        )

    def contains(self, x):
        """True iff x (int or Fraction entries) is an integer combination of generators."""
        if len(x) != self.dim:
            return False
        if any(v != int(v) for v in x):
            return False
        rem = [int(v) for v in x]
        for col, row in self.pivots:
            if rem[col] % row[col] != 0:
                return False
            q = rem[col] // row[col]
            if q:
                rem = [a - q * b for a, b in zip(rem, row)]
        return not any(rem)

    def residue(self, x):
        """Canonical coset representative of x modulo the lattice.

        Two integer vectors have the same residue iff they are equivalent.
        """
        rem = list(x)
        for col, row in self.pivots:
            q = rem[col] // row[col]
            if q:
                rem = [a - q * b for a, b in zip(rem, row)]
        return tuple(rem)

    def basis(self):
        return tuple(row for _, row in self.pivots)

    def __eq__(self, other):
        return isinstance(other, LatticeHandle) and self.pivots == other.pivots

    def __hash__(self):
        return hash(self.pivots)


def _xgcd(a, b):
    old_r, r = a, b
    old_s, s = 1, 0
    old_t, t = 0, 1
    while r:
        q = old_r // r
        old_r, r = r, old_r - q * r
        old_s, s = s, old_s - q * s
        old_t, t = t, old_t - q * t
    if old_r < 0:
        old_r, old_s, old_t = -old_r, -old_s, -old_t
    return old_r, old_s, old_t


def scale_lattice(lattice, weights):
    """The image of the lattice under coordinatewise multiplication by weights."""
    scaled = [
        [v * w for v, w in zip(gen, weights)] for gen in lattice.generators
    ]
    return LatticeHandle(scaled)
