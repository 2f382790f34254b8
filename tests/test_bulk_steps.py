"""The bulk-step Dhar loop and stabilization against unit-step references.

The library's loops take every forced decrement (Dhar) or every legal firing
(stabilization) of one vertex at once.  The reference loops below take one
unit per turn, lowest-index vertex first, as the algorithms are stated.
"""

import random

import pytest

from chipfire.arithmetical import chip_game
from chipfire.games import Game
from chipfire.reduction import _burn, dhar, is_reduced
from chipfire.sandpile import stabilize

from conftest import random_arithmetical, small_games


def unit_dhar(game, base, divisor, start=None):
    """(terminal, reduced witnesses, unit decrements) of the unit-step loop,
    from S or, given ``start``, from start * S."""
    n = game.n_vertices
    f = [(start or 1) * s for s in game.period]
    current = list(divisor)
    witnesses = []
    decrements = 0
    while True:
        v = next((u for u in range(n) if u != base and current[u] <= -1), None)
        if v is None:
            if f[base] == 0:
                return tuple(f), tuple(witnesses), decrements
            witnesses.append(tuple(current))
            v = base
        assert f[v] > 0 or start is not None
        f[v] -= 1
        decrements += 1
        for i, x in enumerate(game.firing_rows[v]):
            current[i] += x


def unit_stabilize(game, base, divisor):
    """Fire the lowest-index overfull non-base vertex once per turn."""
    n = game.n_vertices
    current = list(divisor)
    fired = [0] * n
    while True:
        v = next(
            (u for u in range(n) if u != base and current[u] >= game.threshold(u)),
            None,
        )
        if v is None:
            return tuple(current), tuple(fired)
        for i, x in enumerate(game.firing_rows[v]):
            current[i] -= x
        fired[v] += 1


def games_under_test():
    rng = random.Random(20261018)
    extra = [
        (f"random_arithmetical[{i}]", chip_game(random_arithmetical(rng)))
        for i in range(6)
    ]
    return small_games() + extra


@pytest.mark.parametrize("name,game", games_under_test())
def test_bulk_loops_match_unit_step_references(name, game):
    rng = random.Random(name)
    n = game.n_vertices
    for base in range(n):
        for _ in range(150):
            d = tuple(
                rng.randint(-4, 4) if v == base else rng.randint(0, 3 * game.threshold(v))
                for v in range(n)
            )
            terminal, witnesses, decrements = unit_dhar(game, base, d)
            trace = dhar(game, base, d)
            assert trace.terminal == terminal, (base, d)
            assert trace.reduced_witnesses == witnesses, (base, d)
            assert tuple(_burn(game, base, d)) == terminal, (base, d)
            assert is_reduced(game, base, d) == (not any(terminal)), (base, d)
            assert sum(game.period) - sum(trace.terminal) == decrements

            expect = unit_stabilize(game, base, d)
            assert stabilize(game, base, d) == expect, (base, d)


@pytest.mark.parametrize("name,game", games_under_test())
def test_started_burn_matches_unit_step_reference(name, game):
    """From t * S, on divisors with debt off the base, as ``reduce`` runs it."""
    rng = random.Random(name)
    n = game.n_vertices
    for base in range(n):
        for _ in range(40):
            start = rng.randint(1, 3)
            d = tuple(
                rng.randint(-2 * game.threshold(v), 2 * game.threshold(v)) for v in range(n)
            )
            terminal, witnesses, decrements = unit_dhar(game, base, d, start)
            steps, traced = [], []
            assert tuple(_burn(game, base, d, steps, traced, start)) == terminal, (base, d)
            assert tuple(traced) == witnesses, (base, d)
            assert start * sum(game.period) - sum(terminal) == decrements
            assert tuple(_burn(game, base, d, start=start)) == terminal, (base, d)


def test_game_rejects_firing_rows_that_send_chips_inward():
    """Both games below pass every other check of the constructor."""
    one = (1, 1, 1)
    with pytest.raises(ValueError):
        Game([[2, 1, -3], [-1, 2, -1], [-1, -3, 4]], one, one)
    with pytest.raises(ValueError):
        Game([[-1, 1], [1, -1]], (1, 1), (1, 1))
