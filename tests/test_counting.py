"""A counting certificate that ties the Dhar loop to linear algebra.

Off the base, the reduced configurations of the stable box number
|det F^(b)|, F^(b) being F without row and column b: on a column game they
are the G-parking functions, counted by the oriented spanning trees into b
(the directed matrix-tree theorem), and on a row game they are the duals of
the recurrents.  The same determinant is the class count of the Hermite
basis: |det F^(b)| gcd(w) = N S[b] w[b], N the classes per degree.  No
brute-force oracle decides reducedness here; only the box is enumerated.
"""

import random
from math import gcd, prod

import pytest

from chipfire import fixtures
from chipfire.arithmetical import associated_digraph, chip_game
from chipfire.games import column_game, row_game
from chipfire.graph_core import DirectedMultigraph
from chipfire.oracle import stable_box
from chipfire.rank_extremes import _classes_per_degree
from chipfire.reduction import is_reduced

from conftest import random_arithmetical, small_games

MAX_BOX = 20_000


def fraction_free_det(matrix):
    """Determinant by Bareiss elimination, in integers: each division is exact.

    No pivot search: a principal submatrix of an irreducible singular
    M-matrix is a nonsingular M-matrix, whose leading minors are positive.
    """
    a = [list(row) for row in matrix]
    previous = 1
    for k in range(len(a) - 1):
        for i in range(k + 1, len(a)):
            for j in range(k + 1, len(a)):
                a[i][j] = (a[i][j] * a[k][k] - a[i][k] * a[k][j]) // previous
        previous = a[k][k]
    return a[-1][-1]


def random_digraph(rng):
    """A digraph on 3 to 5 vertices: a Hamiltonian cycle plus random arcs."""
    n = rng.randint(3, 5)
    arcs = [[0 if i == j else rng.choice((0, 0, 1, 2)) for j in range(n)] for i in range(n)]
    for i in range(n):
        arcs[i][(i + 1) % n] += 1
    return DirectedMultigraph(arcs)


def counting_games():
    ex_b = associated_digraph(fixtures.ex_b())
    games = small_games() + [
        ("ex_a", chip_game(fixtures.ex_a())),
        ("ex_b", chip_game(fixtures.ex_b())),
        ("ex_c", chip_game(fixtures.ex_c())),
        ("uniform_only", chip_game(fixtures.uniform_only())),
        ("star(4,3)", chip_game(fixtures.star(4, 3))),
        ("col(ex_b)", column_game(ex_b)),
        ("row(ex_b)", row_game(ex_b)),
    ]
    rng = random.Random(20261019)
    for i in range(8):
        games.append((f"random_arithmetical[{i}]", chip_game(random_arithmetical(rng))))
    for i in range(8):
        g = random_digraph(rng)
        games += [(f"row(random[{i}])", row_game(g)), (f"col(random[{i}])", column_game(g))]
    return games


@pytest.mark.parametrize("name,game", counting_games())
def test_reduced_configurations_number_the_minor_determinant(name, game):
    n = game.n_vertices
    per_degree = _classes_per_degree(game)
    for b in range(n):
        others = [v for v in range(n) if v != b]
        minor = [[game.firing_rows[i][j] for j in others] for i in others]
        det = abs(fraction_free_det(minor))
        assert det * gcd(*game.weight) == per_degree * game.period[b] * game.weight[b], b
        if prod(game.threshold(v) for v in others) <= MAX_BOX:
            assert sum(is_reduced(game, b, d) for d in stable_box(game, b, MAX_BOX)) == det, b
