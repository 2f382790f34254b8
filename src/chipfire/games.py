"""The unified chip-firing game abstraction.

A game is a triple (F, S, w) on a fixed vertex set:

- ``firing_rows``: firing vertex j once subtracts row F[j] from the divisor,
  so a strategy f moves D to D - sum_j f[j] * F[j].
- ``period``: the strategy period S, a positive integer vector with
  sum_j S[j] * F[j] = 0; strategies act modulo S.
- ``weight``: the degree weight w with F[j] . w = 0 for every j, so every
  firing conserves the w-weighted degree.

The row game on a digraph has F = Q (rows), S = the period vector R, w = 1.
The column game has F = Q^T, S = 1, w = R.  The chip game on an arithmetical
graph (G, R) has F = Q = diag(delta) - A, S = w = R.
"""

from operator import mul

from .errors import DimensionError, InvalidBase
from .graph_core import LatticeHandle, laplacian, pattern_strongly_connected, period_vector
from .graph_core import _transposed_lattice


class _built_once:
    """Non-data descriptor: the first read on an instance builds the value and
    stores it as a plain instance attribute, which later reads find first.

    ``functools.cached_property`` does the same through ``instance.__dict__``;
    on CPython 3.11 that access turns the instance's inline attribute values
    into a dict and makes every later attribute read on it about three times
    slower.
    """

    def __init__(self, build):
        self.build = build
        self.__doc__ = build.__doc__

    def __set_name__(self, owner, name):
        self.name = name

    def __get__(self, obj, owner=None):
        if obj is None:
            return self
        value = self.build(obj)
        setattr(obj, self.name, value)
        return value


class Game:
    """Immutable chip-firing game; carries its equivalence lattice and caches.

    Every entry is an ``int``.  Every firing row has a positive diagonal
    entry and no positive entry off it: firing a vertex sends chips only
    outward.  The bulk steps of Dhar's algorithm and of stabilization rely
    on this.

    With a positive period S and weight w, the rows form a singular M-matrix
    with positive left and right kernel vectors.  Such a matrix has corank 1
    exactly when it is irreducible (Perron-Frobenius): a reducible one splits
    into diagonal blocks, each singular.  So corank 1 is checked as strong
    connectivity of the firing pattern, and the Hermite basis is built only
    when a lattice query first needs it.
    """

    def __init__(self, firing_rows, period, weight):
        n = len(firing_rows)
        if len(period) != n or len(weight) != n or any(len(r) != n for r in firing_rows):
            raise DimensionError("game components must have matching dimensions")
        self.firing_rows = tuple(tuple(r) for r in firing_rows)
        if any(
            type(x) is not int or ((x <= 0) if i == j else (x > 0))
            for i, row in enumerate(self.firing_rows)
            for j, x in enumerate(row)
        ):
            raise ValueError(
                "firing rows need integer entries, a positive diagonal and off-diagonal entries <= 0"
            )
        self.period = tuple(period)
        self.weight = tuple(weight)
        self.n_vertices = n
        if any(type(x) is not int or x <= 0 for x in self.period + self.weight):
            raise ValueError("period and weight must be positive integers (not bool)")
        if any(sum(map(mul, self.period, col)) for col in zip(*self.firing_rows)):
            raise ValueError("period is not a strategy period: S^T F != 0")
        if any(sum(map(mul, row, self.weight)) for row in self.firing_rows):
            raise ValueError("weight is not conserved: F w != 0")
        if not pattern_strongly_connected(self.firing_rows):
            raise ValueError("firing lattice must have corank 1")
        self.sigma_cache = {}
        self.rank_cache = {}
        self.eff_class_cache = []

    @_built_once
    def lattice(self):
        """Hermite basis of the firing rows, built on the first lattice query."""
        return LatticeHandle(self.firing_rows)

    def apply(self, divisor, strategy):
        """D - sum_j f[j] F[j], exact."""
        if len(divisor) != self.n_vertices or len(strategy) != self.n_vertices:
            raise DimensionError("divisor/strategy dimension mismatch")
        out = list(divisor)
        for fj, row in zip(strategy, self.firing_rows):
            if fj:
                for i, x in enumerate(row):
                    out[i] -= fj * x
        return tuple(out)

    def check_base(self, base):
        """Raise InvalidBase unless the base is a vertex index in range(n)."""
        if not 0 <= base < self.n_vertices:
            raise InvalidBase(f"base {base} is not in range({self.n_vertices})")

    def check_divisor(self, divisor):
        """Raise DimensionError unless one entry per vertex, ValueError unless each is an int."""
        if len(divisor) != self.n_vertices:
            raise DimensionError(f"divisor needs {self.n_vertices} entries, got {len(divisor)}")
        if not all(type(x) is int for x in divisor):
            raise ValueError(f"divisor entries must be integers (not bool), got {divisor!r}")

    def threshold(self, v):
        """Diagonal entry F[v][v]: chips lost at v when v fires once."""
        return self.firing_rows[v][v]

    def __repr__(self):
        return f"Game(n={self.n_vertices}, period={self.period}, weight={self.weight})"


def row_game(g):
    """Row chip-firing game on a strongly connected digraph."""
    q = laplacian(g)
    r = period_vector(g)
    one = (1,) * g.n_vertices
    return Game(q, r, one)


def column_game(g):
    """Column chip-firing game on a strongly connected digraph.

    Its firing rows are Q^T, so the basis behind the period vector is the
    game's lattice and is kept rather than built again.
    """
    lattice, r = _transposed_lattice(g)
    game = Game(list(zip(*laplacian(g))), (1,) * g.n_vertices, r)
    game.lattice = lattice
    return game


def scaled_game(game):
    """The game with every divisor coordinate scaled by its weight.

    Sends the lattice into the weight-one hyperplane lattice: the scaled game
    has weight 1 and the same strategy period.
    """
    w = game.weight
    rows = [[x * w[i] for i, x in enumerate(row)] for row in game.firing_rows]
    one = (1,) * game.n_vertices
    return Game(rows, game.period, one)
