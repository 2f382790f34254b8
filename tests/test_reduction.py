import random
from math import prod

import pytest

from chipfire import fixtures, oracle, reduction
from chipfire.arithmetical import associated_digraph, chip_game
from chipfire.divisor_algebra import equivalent
from chipfire.errors import BudgetExceeded, DimensionError, NotSandpileForm
from chipfire.games import Game, column_game, row_game, scaled_game
from chipfire.graph_core import build_digraph, period_vector
from chipfire.rank_extremes import enumerate_extremes, rank
from chipfire.reduction import (
    _burn,
    all_reduced_representatives,
    column_reduce,
    dhar,
    is_gparking,
    is_reduced,
    reduce,
)
from chipfire.sandpile import dual_divisor, is_recurrent, is_stable, minimal_recurrents, stabilize

from conftest import sandpile_box, small_games


@pytest.mark.parametrize("name,game", small_games())
def test_dhar_matches_bruteforce_reducedness(name, game):
    """Exhaustive over the sandpile-form box: Dhar terminal zero iff no valid
    strategy clears the non-base vertices."""
    for d in sandpile_box(game, 0, slack=1, base_values=(-1, 0)):
        assert is_reduced(game, 0, d) == oracle.reduced_bruteforce(game, 0, d), d


@pytest.mark.parametrize("name,game", small_games())
def test_reduce_returns_equivalent_reduced_divisor(name, game):
    for d in sandpile_box(game, 0, slack=2, base_values=(-3, 0, 4)):
        red, strategy = reduce(game, 0, d)
        assert is_reduced(game, 0, red)
        assert game.apply(d, strategy) == red
        assert equivalent(game.lattice, d, red)


LARGE_ENTRY_GAMES = [
    ("k4u", lambda: row_game(fixtures.k4u()), 10**12),
    ("ex_b", lambda: chip_game(fixtures.ex_b()), 10**12),
    ("column(ex_b)", lambda: column_game(associated_digraph(fixtures.ex_b())), 10**12),
    ("star(5,3)", lambda: chip_game(fixtures.star(5, 3)), 10**6),
    ("ec(5)", lambda: chip_game(fixtures.ec(5)), 10**6),
]


@pytest.mark.parametrize("name,make,bound", LARGE_ENTRY_GAMES,
                         ids=[name for name, _, _ in LARGE_ENTRY_GAMES])
def test_reduce_large_entries_at_every_base(name, make, bound):
    """Entries far beyond the stable box: the result is reduced, equivalent
    through the returned strategy, and that strategy is 0 at the base."""
    game = make()
    rng = random.Random(name)
    n = game.n_vertices
    for base in range(n):
        # the oracle walks prod(S[v] + 1) strategies; keep it to small games
        exact = prod(s + 1 for v, s in enumerate(game.period) if v != base) <= 2000
        for _ in range(3):
            d = tuple(rng.randint(-bound, bound) for _ in range(n))
            red, strategy = reduce(game, base, d)
            assert strategy[base] == 0, (base, d)
            assert game.apply(d, strategy) == red, (base, d)
            assert is_reduced(game, base, red), (base, d)
            if exact:
                assert oracle.reduced_bruteforce(game, base, red), (base, d)


STOPPING_RULE_GAMES = [
    ("row(k4u)", lambda: row_game(fixtures.k4u())),
    ("row(b2)", lambda: row_game(fixtures.b2())),
    ("column(t3)", lambda: column_game(fixtures.t3())),
    ("column(p3)", lambda: column_game(fixtures.p3())),
    ("column(ex_b)", lambda: column_game(associated_digraph(fixtures.ex_b()))),
    ("chip(ex_b)", lambda: chip_game(fixtures.ex_b())),
    ("chip(ex_c)", lambda: chip_game(fixtures.ex_c())),
    ("chip(star(4,3))", lambda: chip_game(fixtures.star(4, 3))),
]
STOPPING_RULE_IDS = [name for name, _ in STOPPING_RULE_GAMES]


@pytest.mark.parametrize("name,make", STOPPING_RULE_GAMES, ids=STOPPING_RULE_IDS)
def test_burn_is_fixed_once_below_the_previous_multiple(name, make):
    """Once the burn from t * S returns f <= (t - 1) * S off the base, the
    burns from 2t * S and 4t * S return the same f: the lemma behind
    reduce's one stopping rule."""
    game = make()
    rng = random.Random(name)
    n, period = game.n_vertices, game.period
    for base in range(n):
        for _ in range(8):
            d = tuple(rng.randint(-60, 60) for _ in range(n))
            t = 1
            while True:
                f = _burn(game, base, d, start=t)
                if all(f[v] <= (t - 1) * period[v] for v in range(n) if v != base):
                    break
                t *= 2
            assert f[base] == 0
            for k in (2, 4):
                assert _burn(game, base, d, start=k * t) == f, (base, d, t, k)


@pytest.mark.parametrize("name,make", STOPPING_RULE_GAMES, ids=STOPPING_RULE_IDS)
def test_reduce_and_representatives_run_no_reducedness_check(name, make, monkeypatch):
    """reduce stops on the bound alone and the representatives come from one
    witness burn: neither calls is_reduced or builds a Dhar trace."""
    def forbidden(*args):
        raise AssertionError("called")

    game = make()
    rng = random.Random(name)
    n = game.n_vertices
    results = []
    with monkeypatch.context() as patched:
        patched.setattr(reduction, "is_reduced", forbidden)
        patched.setattr(reduction, "dhar", forbidden)
        for base in range(n):
            for _ in range(4):
                d = tuple(rng.randint(-60, 60) for _ in range(n))
                results.append((base, d, reduce(game, base, d),
                                all_reduced_representatives(game, base, d)))
    for base, d, (red, strategy), reps in results:
        assert strategy[base] == 0 and game.apply(d, strategy) == red
        assert is_reduced(game, base, red) and red in reps
        assert len(reps) == game.period[base]


def test_dhar_rejects_negative_off_base():
    game = row_game(fixtures.t3())
    with pytest.raises(NotSandpileForm):
        dhar(game, 0, (0, -1, 0))


def dual_divisor_at(game, base, divisor):
    return dual_divisor(game, divisor)


@pytest.mark.parametrize("entry", [reduce, dhar, is_reduced, stabilize, is_recurrent, rank,
                                   is_stable, dual_divisor_at],
                         ids=lambda f: f.__name__)
@pytest.mark.parametrize("extra", [-1, 1], ids=["n-1", "n+1"])
def test_entry_points_reject_a_divisor_of_the_wrong_length(entry, extra):
    game = row_game(fixtures.k4u())
    with pytest.raises(DimensionError):
        entry(game, 0, (1,) * (game.n_vertices + extra))


@pytest.mark.parametrize("entry", [reduce, dhar, is_reduced, stabilize, is_recurrent, rank,
                                   is_stable, dual_divisor_at],
                         ids=lambda f: f.__name__)
@pytest.mark.parametrize("value", [1.5, 0.5, True], ids=["1.5", "0.5", "True"])
def test_entry_points_reject_an_entry_that_is_not_an_int(entry, value):
    """reduce once returned (1.5, 0, 0, 0) as reduced, and rank gave 0 for
    (0.5, 0, 0, 0) and (True, 0, 0, 0)."""
    game = row_game(fixtures.k4u())
    with pytest.raises(ValueError, match="divisor entries must be integers"):
        entry(game, 0, (value, 0, 0, 0))


@pytest.mark.parametrize("name,game", small_games())
def test_dhar_witnesses_are_the_reduced_representatives(name, game):
    r0 = game.period[0]
    seen = set()
    for d in sandpile_box(game, 0, slack=0, base_values=(-1, 0, 1)):
        if not is_reduced(game, 0, d):
            continue
        reps = all_reduced_representatives(game, 0, d)
        assert len(reps) == r0
        assert d in reps
        assert all(is_reduced(game, 0, r) for r in reps)
        assert all(equivalent(game.lattice, d, r) for r in reps)
        seen.add(reps)
    assert seen


def test_representative_count_on_exb_chip_game():
    """The chip game of the subdivided K4 has r0 = 2; the nu_1 class has the
    two witnesses nu_1 and -chi(v0) + chi(v3) + chi(v5)."""
    game = chip_game(fixtures.ex_b())
    nu1 = (-1, 0, 1, 0, 1, 0)
    reps = all_reduced_representatives(game, 0, nu1)
    assert len(reps) == 2
    assert nu1 in reps
    assert (-1, 0, 0, 1, 0, 1) in reps


def test_representative_count_matches_base_period():
    for game, expected in [
        (row_game(fixtures.b2()), 2),
        (chip_game(fixtures.ec(2)), 1),
    ]:
        reps = all_reduced_representatives(
            game, 0, tuple([-1] + [0] * (game.n_vertices - 1))
        )
        assert len(reps) == expected


def test_first_dhar_witness_is_the_divisor_itself():
    game = chip_game(fixtures.two_vertex(2, 3))
    d = (-1, 1)
    assert is_reduced(game, 0, d)
    trace = dhar(game, 0, d)
    assert trace.reduced_witnesses[0] == d
    assert len(set(trace.reduced_witnesses)) == game.period[0]


@pytest.mark.parametrize("g", [fixtures.t3(), fixtures.b2(), fixtures.p3()])
def test_gparking_matches_subset_oracle(g):
    game = column_game(g)
    for d in sandpile_box(game, 0, slack=1, base_values=(0,)):
        assert is_gparking(g, 0, d) == oracle.gparking_subset_bruteforce(g, 0, d), d


def test_column_reduce_lands_on_gparking():
    g = fixtures.k4u()
    for d in [(0, 4, 0, 2), (-3, 1, 1, 5), (7, 0, 0, 0)]:
        red, _ = column_reduce(g, 0, d)
        assert is_gparking(g, 0, red)


def eulerian_transform(g):
    """The digraph H with arcs i->j of multiplicity arcs[j][i] * R[j]: its row
    game coincides with the scaled column game of g."""
    r = period_vector(g)
    n = g.n_vertices
    arcs = []
    for i in range(n):
        for j in range(n):
            if i != j and g.arcs[j][i]:
                arcs.append((i, j, g.arcs[j][i] * r[j]))
    return build_digraph(arcs, n_vertices=n)


@pytest.mark.parametrize("g", [fixtures.t3(), fixtures.b2(), fixtures.p3(),
                               fixtures.k4u()])
def test_scaled_column_game_is_row_game_on_eulerian_transform(g):
    h = eulerian_transform(g)
    # H is Eulerian: in-degree equals out-degree at each vertex
    n = g.n_vertices
    for v in range(n):
        assert sum(h.arcs[v]) == sum(h.arcs[u][v] for u in range(n))
    scaled = scaled_game(column_game(g))
    hrow = row_game(h)
    assert scaled.firing_rows == hrow.firing_rows
    assert scaled.period == hrow.period
    assert scaled.weight == hrow.weight


@pytest.mark.parametrize("scan", [enumerate_extremes, minimal_recurrents])
@pytest.mark.parametrize("budget", [-1, -5])
def test_scans_reject_a_negative_budget(scan, budget):
    with pytest.raises(ValueError, match=f"budget must be nonnegative, got {budget}"):
        scan(chip_game(fixtures.ex_a()), 0, budget=budget)


@pytest.mark.parametrize("scan", [enumerate_extremes, minimal_recurrents])
def test_scans_accept_a_zero_budget(scan):
    with pytest.raises(BudgetExceeded, match="budget is 0"):
        scan(chip_game(fixtures.ex_a()), 0, budget=0)


def test_extremes_budget_bounds_the_class_table():
    """On ex_b the class table holds 23 residues and the stable box has 72
    divisors: a budget between them is enough for the table search, not for
    the scan, and one below the table reports how far the table got."""
    game = chip_game(fixtures.ex_b())
    assert len(enumerate_extremes(game, 0, budget=23).classes) == 3
    assert sum(len(s) for s in game.eff_class_cache) == 23
    with pytest.raises(BudgetExceeded, match="budget is 23"):
        oracle.extremes_bruteforce(game, 0, budget=23)
    with pytest.raises(BudgetExceeded, match="budget is 22") as info:
        enumerate_extremes(chip_game(fixtures.ex_b()), 0, budget=22)
    assert (info.value.count, info.value.budget) == (23, 22)
