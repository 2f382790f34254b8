"""Game construction: the corank-1 check by strong connectivity, positivity of
period and weight, and the lazily built firing lattice."""

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from chipfire import fixtures
from chipfire.arithmetical import associated_digraph, chip_game
from chipfire.errors import DimensionError
from chipfire.games import Game, column_game, row_game, scaled_game
from chipfire.graph_core import DirectedMultigraph, LatticeHandle

from conftest import random_arithmetical

CORANK = "firing lattice must have corank 1"

DIGRAPHS = [fixtures.t3(), fixtures.b2(), fixtures.p3(), fixtures.k4u()]
ARITHMETICAL = [
    fixtures.ex_a(),
    fixtures.ex_b(),
    fixtures.ex_c(),
    fixtures.ec(2),
    fixtures.ec(5),
    fixtures.two_vertex(2, 3),
    fixtures.cycle_mult(4),
    fixtures.star(3, 2),
    fixtures.star(5, 3),
]


def fixture_games():
    games = []
    for g in DIGRAPHS + [associated_digraph(ag) for ag in ARITHMETICAL]:
        games += [row_game(g), column_game(g)]
    for ag in ARITHMETICAL:
        games += [chip_game(ag), scaled_game(chip_game(ag))]
    return games


def accepts(rows, period, weight):
    """Game's verdict on a triple that passes every check but corank 1."""
    try:
        Game(rows, period, weight)
    except ValueError as exc:
        assert str(exc) == CORANK
        return False
    return True


def hermite_corank_one(rows):
    return LatticeHandle(rows).rank == len(rows) - 1


def block_sum(a, b):
    """The block-diagonal sum of two games' firing rows, periods and weights."""
    n, m = a.n_vertices, b.n_vertices
    rows = [list(r) + [0] * m for r in a.firing_rows]
    rows += [[0] * n + list(r) for r in b.firing_rows]
    return rows, a.period + b.period, a.weight + b.weight


def strongly_connected_digraph(draw_arcs, n):
    """A digraph on n vertices with a Hamiltonian cycle plus the drawn arcs."""
    arcs = [[0 if i == j else draw_arcs[i * n + j] for j in range(n)] for i in range(n)]
    for i in range(n):
        arcs[i][(i + 1) % n] += 1
    return DirectedMultigraph(arcs)


@pytest.mark.parametrize("game", fixture_games(), ids=repr)
def test_check_agrees_with_hermite_rank_on_fixtures(game):
    assert accepts(game.firing_rows, game.period, game.weight)
    assert hermite_corank_one(game.firing_rows)


@given(st.integers(2, 5), st.data())
@settings(max_examples=150, deadline=None)
def test_check_agrees_with_hermite_rank_on_random_digraph_games(n, data):
    extra = data.draw(st.lists(st.integers(0, 3), min_size=n * n, max_size=n * n))
    g = strongly_connected_digraph(extra, n)
    for game in (row_game(g), column_game(g)):
        assert accepts(game.firing_rows, game.period, game.weight)
        assert hermite_corank_one(game.firing_rows)


def test_check_agrees_with_hermite_rank_on_random_arithmetical_games():
    rng = random.Random(20261018)
    for _ in range(60):
        game = chip_game(random_arithmetical(rng))
        assert accepts(game.firing_rows, game.period, game.weight)
        assert hermite_corank_one(game.firing_rows)


def test_block_diagonal_sums_are_rejected():
    rng = random.Random(7)
    games = fixture_games()[:12] + [chip_game(random_arithmetical(rng)) for _ in range(6)]
    pairs = [(games[i], games[(3 * i + 1) % len(games)]) for i in range(len(games))]
    for a, b in pairs:
        rows, period, weight = block_sum(a, b)
        assert not hermite_corank_one(rows)
        assert not accepts(rows, period, weight)


@pytest.mark.parametrize("game", [
    chip_game(fixtures.ex_b()),
    row_game(fixtures.b2()),
    column_game(fixtures.b2()),
], ids=["chip(ex_b)", "row(b2)", "column(b2)"])
@pytest.mark.parametrize("side", ["period", "weight"])
@pytest.mark.parametrize("how", ["zero", "negated"])
def test_nonpositive_period_or_weight_is_rejected(game, side, how):
    parts = {"period": game.period, "weight": game.weight}
    parts[side] = tuple(0 if how == "zero" else -x for x in parts[side])
    with pytest.raises(ValueError, match="period and weight must be positive"):
        Game(game.firing_rows, parts["period"], parts["weight"])


def bumped(v):
    return (v[0] + 1,) + tuple(v[1:])


def _cycle_game_parts():
    """Firing rows, period and weight of the row game of the 3-cycle."""
    return [[1, -1, 0], [0, 1, -1], [-1, 0, 1]], [1, 1, 1], [1, 1, 1]


@pytest.mark.parametrize("kind", [float, bool])
@pytest.mark.parametrize("part,index,message", [
    ("rows", (0, 0), "firing rows need integer entries"),
    ("rows", (0, 2), "firing rows need integer entries"),
    ("period", (0,), "period and weight must be positive integers"),
    ("weight", (0,), "period and weight must be positive integers"),
], ids=["diagonal", "off-diagonal", "period", "weight"])
def test_an_entry_that_is_not_an_int_is_rejected(part, index, message, kind):
    """One entry of a valid game replaced by the float or bool equal to it."""
    Game(*_cycle_game_parts())
    rows, period, weight = parts = _cycle_game_parts()
    target = {"rows": rows, "period": period, "weight": weight}[part]
    if len(index) == 2:
        target = target[index[0]]
    target[index[-1]] = kind(target[index[-1]])
    with pytest.raises(ValueError, match=message):
        Game(*parts)


@pytest.mark.parametrize("game", [chip_game(fixtures.ex_b()), row_game(fixtures.k4u())],
                         ids=["chip(ex_b)", "row(k4u)"])
def test_earlier_checks_keep_their_messages(game):
    rows, period, weight = game.firing_rows, game.period, game.weight
    with pytest.raises(DimensionError):
        Game(rows, period[1:], weight)
    positive_off_diagonal = [list(r) for r in rows]
    positive_off_diagonal[0][1] = 1
    with pytest.raises(ValueError, match="positive diagonal and off-diagonal entries <= 0"):
        Game(positive_off_diagonal, period, weight)
    with pytest.raises(ValueError, match="period is not a strategy period"):
        Game(rows, bumped(period), weight)
    with pytest.raises(ValueError, match="weight is not conserved"):
        Game(rows, period, bumped(weight))


def test_empty_game_is_rejected():
    with pytest.raises(ValueError, match=CORANK):
        Game([], [], [])


def test_game_builds_no_basis(lattice_builds):
    ag = fixtures.ex_b()
    game = Game(ag.laplacian(), ag.multiplicities, ag.multiplicities)
    chip_game(fixtures.star(5, 3))
    assert lattice_builds[0] == 0
    assert game.lattice is game.lattice
    assert lattice_builds[0] == 1
    assert game.lattice == LatticeHandle(game.firing_rows)
