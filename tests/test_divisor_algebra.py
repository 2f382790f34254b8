import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from chipfire import fixtures
from chipfire.arithmetical import chip_game
from chipfire.divisor_algebra import degree, degree_plus, equivalent, natural_form
from chipfire.errors import DimensionError, ZeroStrategy
from chipfire.games import row_game


GAME = chip_game(fixtures.ex_a())


@given(st.lists(st.integers(-5, 5), min_size=6, max_size=6),
       st.lists(st.integers(-3, 3), min_size=6, max_size=6))
@settings(max_examples=150, deadline=None)
def test_firing_preserves_weighted_degree(divisor, strategy):
    moved = GAME.apply(tuple(divisor), tuple(strategy))
    assert degree(GAME.weight, moved) == degree(GAME.weight, tuple(divisor))


def test_equivalent_rejects_mismatched_dimensions():
    lattice = row_game(fixtures.t3()).lattice
    with pytest.raises(DimensionError):
        equivalent(lattice, (1, 0, 0, 5), (0, 1, 0))


def test_degree_plus_counts_only_positive_part():
    assert degree_plus((1, 2, 3), (-5, 1, 2)) == 8
    assert degree_plus((1, 1), (-1, -1)) == 0


def test_equivalent_is_translation_by_lattice():
    game = row_game(fixtures.t3())
    d = (3, 0, 0)
    moved = game.apply(d, (1, 0, 0))
    assert equivalent(game.lattice, d, moved)
    assert not equivalent(game.lattice, d, (2, 0, 0))


def test_natural_form_rejects_zero():
    with pytest.raises(ZeroStrategy):
        natural_form((1, 1, 1), (0, 0, 0))


@given(st.lists(st.integers(-6, 6), min_size=3, max_size=3))
@settings(max_examples=200, deadline=None)
def test_natural_form_window(strategy):
    period = (2, 3, 1)
    if not any(strategy):
        return
    nf = natural_form(period, tuple(strategy))
    # below the period everywhere, but not everywhere nonpositive
    assert all(f <= s for f, s in zip(nf, period))
    assert any(f > 0 for f in nf)
    # translate of the input by an integer multiple of the period
    diffs = [(f - g, s) for f, g, s in zip(strategy, nf, period)]
    assert all(d % s == 0 for d, s in diffs)
    ks = {d // s for d, s in diffs}
    assert len(ks) == 1
