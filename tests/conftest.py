"""Shared helpers: small game collections and exhaustive divisor boxes."""

import os
import sys

# No bytecode cache under src/: a cached tree imports in under half the time,
# which would skew the benchmark's setup_s on the next run.  The environment
# variable carries this to the subprocesses the tests start.
sys.dont_write_bytecode = True
os.environ["PYTHONDONTWRITEBYTECODE"] = "1"

import random
from itertools import product

import pytest

from chipfire import fixtures, graph_core
from chipfire.arithmetical import chip_game
from chipfire.fixtures import uniform_only  # noqa: F401  (re-exported for the tests)
from chipfire.games import row_game


def small_row_games():
    """Row games on digraphs with at most 4 vertices, cheap to brute-force."""
    return [
        ("t3", row_game(fixtures.t3())),
        ("b2", row_game(fixtures.b2())),
        ("p3", row_game(fixtures.p3())),
        ("k4u", row_game(fixtures.k4u())),
    ]


def small_chip_games():
    """Chip games with nontrivial periods, still at most 4 vertices."""
    return [
        ("two_vertex(2,3)", chip_game(fixtures.two_vertex(2, 3))),
        ("cycle_mult(3)", chip_game(fixtures.cycle_mult(3))),
        ("ec(2)", chip_game(fixtures.ec(2))),
    ]


def small_games():
    return small_row_games() + small_chip_games()


def sandpile_box(game, base, slack=1, base_values=(-2, -1, 0, 1)):
    """All divisors that are nonnegative away from the base, with each
    non-base entry below threshold + slack."""
    n = game.n_vertices
    ranges = [
        base_values if v == base else range(game.threshold(v) + slack)
        for v in range(n)
    ]
    return product(*ranges)


def divisor_box(n, radius):
    return product(range(-radius, radius + 1), repeat=n)


def random_arithmetical(rng):
    """A small random arithmetical graph.

    Edge multiplicities r_i * r_j * c_ij keep every delta integral for any
    choice of vertex multiplicities.  A cycle backbone keeps it connected.
    """
    from chipfire.arithmetical import validate_arithmetical

    n = rng.randint(3, 4)
    r = [rng.randint(1, 3) for _ in range(n)]
    if all(x == r[0] for x in r) and r[0] > 1:
        r[0] = 1
    from math import gcd
    from functools import reduce as fold

    if fold(gcd, r) != 1:
        r[rng.randrange(n)] = 1
    c = [[0] * n for _ in range(n)]
    for i in range(n):
        j = (i + 1) % n
        c[i][j] = c[j][i] = rng.randint(1, 2)
    for i in range(n):
        for j in range(i + 2, n):
            if (i, j) != (0, n - 1) and rng.random() < 0.5:
                c[i][j] = c[j][i] = 1
    adjacency = [
        [c[i][j] * r[i] * r[j] if i != j else 0 for j in range(n)]
        for i in range(n)
    ]
    return validate_arithmetical(adjacency, tuple(r))


@pytest.fixture
def rng():
    return random.Random(20260826)


@pytest.fixture
def lattice_builds(monkeypatch):
    """Counts Hermite basis builds (LatticeHandle constructions)."""
    count = [0]
    init = graph_core.LatticeHandle.__init__

    def counting_init(self, generators):
        count[0] += 1
        init(self, generators)

    monkeypatch.setattr(graph_core.LatticeHandle, "__init__", counting_init)
    return count
