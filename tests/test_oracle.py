import ast
from pathlib import Path

import pytest

from chipfire import fixtures, oracle
from chipfire.arithmetical import chip_game
from chipfire.errors import NotSandpileForm
from chipfire.games import row_game


def test_effective_bruteforce_trivial_cases():
    game = row_game(fixtures.t3())
    assert oracle.effective_bruteforce(game, (0, 0, 0), 2)
    assert oracle.effective_bruteforce(game, (3, 0, 0), 2)
    assert not oracle.effective_bruteforce(game, (-1, 0, 0), 3)


def test_effective_bruteforce_finds_hidden_effective():
    game = chip_game(fixtures.two_vertex(2, 3))
    # (-3, 2) + Q row 1 = (-3 + 6, 2 - 4) = (3, -2); + row 0 = (1, 1): effective
    assert oracle.effective_bruteforce(game, (-3, 2), 3)


def test_rank_bruteforce_small_values():
    game = row_game(fixtures.t3())
    assert oracle.rank_bruteforce(game, 0, (0, 0, 0)) == 0
    assert oracle.rank_bruteforce(game, 0, (-1, 0, 0)) == -1
    assert oracle.rank_bruteforce(game, 0, (1, 1, 1)) >= 1


def test_reduced_bruteforce_rejects_debt_off_base():
    game = row_game(fixtures.t3())
    with pytest.raises(NotSandpileForm):
        oracle.reduced_bruteforce(game, 0, (0, -1, 0))


def test_reduced_bruteforce_on_known_cases():
    game = row_game(fixtures.p3())
    # all of v1, v2 below their thresholds and no subset can fire
    assert oracle.reduced_bruteforce(game, 0, (0, 0, 0))
    # v1 can fire alone: (0, 2, 0) -> (1, 0, 1)
    assert not oracle.reduced_bruteforce(game, 0, (0, 2, 0))


def test_gparking_subset_bruteforce_on_k4u():
    g = fixtures.k4u()
    assert oracle.gparking_subset_bruteforce(g, 0, (0, 0, 1, 2))
    assert not oracle.gparking_subset_bruteforce(g, 0, (0, 3, 3, 3))


def test_valid_strategies_lexicographic_and_complete():
    game = chip_game(fixtures.two_vertex(2, 3))
    got = list(oracle.valid_strategies(game, 0))
    assert got == [(0, 1), (0, 2), (0, 3)]
    game2 = row_game(fixtures.t3())
    got2 = list(oracle.valid_strategies(game2, 0))
    assert got2 == [(0, 0, 1), (0, 1, 0), (0, 1, 1)]


def test_only_the_oracles_import_itertools_product():
    """Box walks are the oracles' business: no other module under
    src/chipfire imports itertools.product."""
    package = Path(oracle.__file__).parent
    importers = set()
    for path in package.glob("*.py"):
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.ImportFrom) and node.module == "itertools":
                if any(alias.name == "product" for alias in node.names):
                    importers.add(path.name)
            elif isinstance(node, ast.Attribute) and node.attr == "product":
                if isinstance(node.value, ast.Name) and node.value.id == "itertools":
                    importers.add(path.name)
    assert importers == {"oracle.py"}
