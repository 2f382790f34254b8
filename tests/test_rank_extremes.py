import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from chipfire import fixtures, oracle
from chipfire.arithmetical import chip_game
from chipfire.divisor_algebra import degree
from chipfire.games import row_game
from chipfire.rank_extremes import (
    enumerate_extremes,
    in_sigma,
    is_extreme,
    rank,
    rank_via_extremes,
)
from chipfire.reduction import is_effective_class

from conftest import divisor_box, small_games


def oracle_rank(game, base, d, fast_value):
    """Bruteforce rank, retrying with a larger strategy box on disagreement;
    the bruteforce search is one-sided in the box size."""
    got = oracle.rank_bruteforce(game, base, d, box=3)
    if got != fast_value:
        got = oracle.rank_bruteforce(game, base, d, box=6)
    return got


@pytest.mark.parametrize("name,game", small_games())
def test_rank_agrees_with_bruteforce_and_extremes(name, game):
    n = game.n_vertices
    extremes = enumerate_extremes(game, 0)
    for d in divisor_box(n, 2):
        r = rank(game, 0, d)
        assert r == oracle_rank(game, 0, d, r), d
        # the translate box is one-sided: escalate until it settles
        via = rank_via_extremes(game, 0, d, 3, extremes=extremes)
        if via != r:
            via = rank_via_extremes(game, 0, d, 8, extremes=extremes)
        assert r == via, d


@pytest.mark.parametrize("name,game", small_games())
def test_in_sigma_consistency(name, game):
    for d in divisor_box(game.n_vertices, 2):
        assert in_sigma(game, 0, d) == (not is_effective_class(game, 0, d)), d


GAME = chip_game(fixtures.ec(2))


@given(st.lists(st.integers(-2, 3), min_size=4, max_size=4),
       st.lists(st.integers(-2, 2), min_size=4, max_size=4))
@settings(max_examples=120, deadline=None)
def test_rank_is_a_class_invariant(divisor, strategy):
    d = tuple(divisor)
    moved = GAME.apply(d, tuple(strategy))
    assert rank(GAME, 0, d) == rank(GAME, 0, moved)


@given(st.lists(st.integers(0, 3), min_size=4, max_size=4))
@settings(max_examples=80, deadline=None)
def test_effective_divisors_have_nonnegative_rank(divisor):
    assert rank(GAME, 0, tuple(divisor)) >= 0


def test_rank_monotone_under_adding_chips():
    game = row_game(fixtures.k4u())
    for d in divisor_box(4, 1):
        r = rank(game, 0, d)
        bumped = (d[0] + 1,) + d[1:]
        assert rank(game, 0, bumped) >= r


def test_negative_degree_has_rank_minus_one():
    for name, game in small_games():
        d = tuple([-1] * game.n_vertices)
        if degree(game.weight, d) < 0:
            assert rank(game, 0, d) == -1


def test_extreme_classes_are_extreme_and_maximal():
    game = chip_game(fixtures.ex_a())
    ex = enumerate_extremes(game, 0)
    for cls in ex.classes:
        assert is_extreme(game, 0, cls.rep)
        assert in_sigma(game, 0, cls.rep)
        for v in range(game.n_vertices):
            bumped = tuple(
                x + (1 if u == v else 0) for u, x in enumerate(cls.rep)
            )
            assert not in_sigma(game, 0, bumped)


def test_extreme_set_degrees_and_uniformity_flag():
    game = chip_game(fixtures.ex_b())
    ex = enumerate_extremes(game, 0)
    degrees = sorted(c.degree for c in ex.classes)
    assert degrees == [4, 4, 4]
    assert ex.g_min == ex.g_max == 5
    assert ex.uniform

    game_a = chip_game(fixtures.ex_a())
    ex_a = enumerate_extremes(game_a, 0)
    assert not ex_a.uniform
    assert (ex_a.g_min, ex_a.g_max) == (3, 4)
