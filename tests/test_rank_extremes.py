import random
from math import prod

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from chipfire import fixtures, oracle
from chipfire.arithmetical import associated_digraph, chip_game
from chipfire.divisor_algebra import degree
from chipfire.errors import InvalidBase
from chipfire.games import column_game, row_game
from chipfire import rank_extremes
from chipfire.rank_extremes import (
    _effective_classes_by_degree,
    _sigma_top,
    enumerate_extremes,
    in_sigma,
    is_extreme,
    rank,
)
from chipfire.reduction import is_effective_class

from conftest import divisor_box, random_arithmetical, small_games, uniform_only


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
        via = oracle.rank_via_extremes(game, 0, d, 3, extremes=extremes)
        if via != r:
            via = oracle.rank_via_extremes(game, 0, d, 8, extremes=extremes)
        assert r == via, d


@pytest.mark.parametrize("name,game", small_games())
def test_in_sigma_consistency(name, game):
    for d in divisor_box(game.n_vertices, 2):
        assert in_sigma(game, 0, d) == (not is_effective_class(game, 0, d)), d


def test_in_sigma_checks_its_input_before_its_cache():
    """A cached class once answered False for an out-of-range base and for
    float entries, where an uncached one raised InvalidBase."""
    game = chip_game(fixtures.ex_b())
    zero = (0,) * 6
    assert in_sigma(game, 0, zero) is False
    with pytest.raises(InvalidBase):
        in_sigma(game, 99, zero)
    with pytest.raises(ValueError, match="must be integers"):
        in_sigma(game, 0, (0.0,) * 6)
    with pytest.raises(InvalidBase):
        is_extreme(game, 99, zero)
    with pytest.raises(InvalidBase):
        in_sigma(chip_game(fixtures.ex_b()), 99, zero)


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


SCAN_ORACLE_MAX_BOX = 50_000


def _small_cases():
    """The small games, at every base."""
    for name, game in small_games():
        yield name, game, range(game.n_vertices)


def _ladder_cases():
    """The benchmark's rr-ladder games (stable boxes up to 46,656) and
    uniform_only, at base 0."""
    assoc = associated_digraph(fixtures.ex_b())
    yield "k4u", row_game(fixtures.k4u()), (0,)
    for name in ("ex_a", "ex_b", "ex_c"):
        yield name, chip_game(getattr(fixtures, name)()), (0,)
    for n in (4, 5):
        yield f"ec({n})", chip_game(fixtures.ec(n)), (0,)
    for r0, r1 in ((4, 3), (5, 1), (5, 2), (5, 3)):
        yield f"star({r0},{r1})", chip_game(fixtures.star(r0, r1)), (0,)
    yield "col(ex_b)", column_game(assoc), (0,)
    yield "row(ex_b)", row_game(assoc), (0,)
    yield "star(6,1)", chip_game(fixtures.star(6, 1)), (0,)
    yield "uniform_only", chip_game(uniform_only()), (0,)


def _random_cases():
    """The chip, row and column games of random_arithmetical for seeds 0-29,
    at base 0.  A game whose stable box passes SCAN_ORACLE_MAX_BOX is left
    out, because the scan there takes minutes."""
    for seed in range(30):
        ag = random_arithmetical(random.Random(seed))
        digraph = associated_digraph(ag)
        for kind, make, graph in (
            ("chip", chip_game, ag),
            ("row", row_game, digraph),
            ("column", column_game, digraph),
        ):
            game = make(graph)
            if prod(game.threshold(v) for v in range(1, game.n_vertices)) <= SCAN_ORACLE_MAX_BOX:
                yield f"seed {seed} {kind}", game, (0,)


@pytest.mark.parametrize("cases", [_small_cases, _ladder_cases, _random_cases])
def test_extremes_match_the_box_scan_oracle(cases):
    """The class-table search returns the box scan's ExtremeClassSet: the
    same classes, reps, degrees, representative sets, g_min and g_max.
    Games are built one at a time, so each class table is freed in turn."""
    for name, game, bases in cases():
        for base in bases:
            got = enumerate_extremes(game, base)
            assert got == oracle.extremes_bruteforce(game, base), (name, base)


def loop_rank(game, base, divisor):
    """Reference: the degree loop alone, with no closed form and no memo.
    The least d with some effective class E of degree d and D - E in Sigma
    is the rank plus one."""
    res = game.lattice.residue(divisor)
    deg = degree(game.weight, res)
    d = 0
    while True:
        eff_classes = _effective_classes_by_degree(game, d)
        if eff_classes and (deg < d or any(
            in_sigma(game, base, tuple(a - b for a, b in zip(res, e))) for e in eff_classes
        )):
            return d - 1
        d += 1


def stable_box_cut(game, base):
    """Every class of weighted degree above this is effective."""
    w = game.weight
    return sum((game.threshold(v) - 1) * x for v, x in enumerate(w) if v != base) - w[base]


def divisor_of_degree(rng, game, base, target):
    """A small random divisor moved to the target degree at the base."""
    w = game.weight
    while True:
        d = [rng.randint(-3, 3) for _ in w]
        gap = target - degree(w, d)
        if gap % w[base] == 0:
            d[base] += gap // w[base]
            return tuple(d)


@pytest.mark.parametrize("name,game", small_games())
def test_rank_matches_the_degree_loop_across_twice_the_cut(name, game):
    """One divisor per degree from cut - 2 to 2 cut + 3 at every base: the
    closed form past 2 cut and the loop below it give the loop's rank."""
    rng = random.Random(name)
    for base in range(game.n_vertices):
        cut = stable_box_cut(game, base)
        for target in range(cut - 2, 2 * cut + 4):
            d = divisor_of_degree(rng, game, base, target)
            assert rank(game, base, d) == loop_rank(game, base, d), (base, d)


@pytest.mark.parametrize("name,game", [
    (name, game) for name, game, _ in _ladder_cases()
    if name in ("k4u", "ex_a", "ex_b", "ex_c", "ec(4)", "ec(5)")
    or name.startswith("star(4") or name.startswith("star(5")
])
def test_rank_is_degree_minus_g_max_above_twice_the_top_sigma_degree(name, game):
    """Above 2 (g_max - 1), Sigma's top degree doubled, r(D) = deg D - g_max,
    through the loop up to 2 cut and the closed form past it."""
    rng = random.Random(name)
    g_max = enumerate_extremes(game, 0).g_max
    for target in [*range(2 * g_max - 1, 2 * g_max + 3), 10**6, 10**20]:
        d = divisor_of_degree(rng, game, 0, target)
        assert rank(game, 0, d) == target - g_max, d


@pytest.mark.parametrize("name,game", small_games())
def test_sigma_top_is_one_below_g_max(name, game):
    """The highest degree the class table finds not full is the top degree
    of the extreme classes, at every base."""
    for base in range(game.n_vertices):
        assert _sigma_top(game) + 1 == enumerate_extremes(game, base).g_max, base


def test_rank_past_twice_the_cut_reads_g_max_from_the_class_table(monkeypatch):
    """col(ex_b) at base 0 has cut 104 and g_max 54.  Past 2 cut the rank is
    deg D - 54, read from the class table without collecting any extreme
    class's reduced representatives (each new class once reran the whole
    extreme-class search for g_max)."""
    def collect(*args):
        raise AssertionError("all_reduced_representatives called")

    game = column_game(associated_digraph(fixtures.ex_b()))
    assert stable_box_cut(game, 0) == 104
    rng = random.Random(20261021)
    with monkeypatch.context() as patch:
        patch.setattr(rank_extremes, "all_reduced_representatives", collect)
        for target in range(209, 217):
            assert rank(game, 0, divisor_of_degree(rng, game, 0, target)) == target - 54
    assert enumerate_extremes(game, 0).g_max == 54
