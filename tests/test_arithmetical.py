from itertools import product
from math import gcd

import pytest

from chipfire import fixtures
from chipfire.arithmetical import (
    associated_digraph,
    chip_game,
    column_rr_always,
    digraph_natural_rr,
    euclidean_sequence,
    euclidean_star,
    g0,
    gmax_bound_check,
    good_representation,
    staircase_divisors,
    validate_arithmetical,
)
from chipfire.errors import NotArithmetical, NotPrimitive
from chipfire.graph_core import is_strongly_connected, period_vector
from chipfire.rank_extremes import enumerate_extremes
from chipfire.reduction import all_reduced_representatives

from conftest import random_arithmetical


ALL_FIXTURES = [
    ("ex_a", fixtures.ex_a()),
    ("ex_b", fixtures.ex_b()),
    ("ex_c", fixtures.ex_c()),
    ("ec(2)", fixtures.ec(2)),
    ("ec(3)", fixtures.ec(3)),
    ("two_vertex(2,3)", fixtures.two_vertex(2, 3)),
    ("two_vertex(3,4)", fixtures.two_vertex(3, 4)),
    ("cycle_mult(4)", fixtures.cycle_mult(4)),
    ("star(3,2)", fixtures.star(3, 2)),
    ("star(4,3)", fixtures.star(4, 3)),
]


def test_validate_rejects_fractional_deltas():
    # triangle with multiplicities (1, 1, 2): vertex 2 gets delta 1 but
    # vertex 0 needs (1 + 2)/1 = 3, vertex 1 too; vertex 2 needs 2/2 = 1. OK.
    # Break it instead with (1, 2, 2): vertex 1 needs (1 + 2)/2, not integral.
    adjacency = [[0, 1, 1], [1, 0, 1], [1, 1, 0]]
    with pytest.raises(NotArithmetical):
        validate_arithmetical(adjacency, (1, 2, 2))


def test_validate_rejects_imprimitive_multiplicities():
    adjacency = [[0, 4], [4, 0]]
    with pytest.raises(NotPrimitive):
        validate_arithmetical(adjacency, (2, 2))


def test_validate_rejects_asymmetric_adjacency():
    from chipfire.errors import InvalidGraph

    with pytest.raises(InvalidGraph):
        validate_arithmetical([[0, 1], [2, 0]], (1, 1))


@pytest.mark.parametrize("adjacency,multiplicities", [
    ([[0, 1.0], [1.0, 0]], (1, 1)),
    ([[0, 1], [1, 0]], (True, 1)),
    ([[0, 1], [1, 0]], (1.0, 1)),
], ids=["float-adjacency", "bool-multiplicity", "float-multiplicity"])
def test_validate_rejects_entries_that_are_not_ints(adjacency, multiplicities):
    """Float adjacency once gave float deltas (and g0 of 0.0), a bool
    multiplicity passed, and a float one raised a bare TypeError from gcd."""
    from chipfire.errors import InvalidGraph

    with pytest.raises(InvalidGraph, match="not bool"):
        validate_arithmetical(adjacency, multiplicities)


def test_validate_rejects_a_negative_adjacency_entry():
    """This graph once passed with deltas (1, 1, 4) and g0 1."""
    from chipfire.errors import InvalidGraph

    with pytest.raises(InvalidGraph, match="nonnegative"):
        validate_arithmetical([[0, -1, 2], [-1, 0, 2], [2, 2, 0]], (1, 1, 1))


def test_validate_rejects_disconnected_base_graph():
    from chipfire.errors import InvalidGraph

    adjacency = [[0, 1, 0, 0], [1, 0, 0, 0], [0, 0, 0, 1], [0, 0, 1, 0]]
    with pytest.raises(InvalidGraph, match="connected"):
        validate_arithmetical(adjacency, (1, 1, 1, 1))


def test_g0_values():
    assert g0(fixtures.ex_b()) == 7
    assert g0(fixtures.ec(3)) == 1
    assert g0(fixtures.cycle_mult(5)) == 1
    assert g0(fixtures.star(5, 3)) == 6


def test_g0_star_closed_form():
    for r0, r1 in ((3, 2), (4, 3), (5, 2), (5, 3), (7, 4)):
        assert g0(fixtures.star(r0, r1)) == r0 * (r0 - 3) // 2 + 1


@pytest.mark.parametrize("name,ag", ALL_FIXTURES)
def test_associated_digraph_period_is_multiplicities(name, ag):
    h = associated_digraph(ag)
    assert is_strongly_connected(h)
    assert period_vector(h) == ag.multiplicities


def test_euclidean_sequence_recurrence():
    for r0, r1 in ((5, 3), (8, 5), (21, 13), (9, 2), (40, 39)):
        seq = euclidean_sequence(r0, r1)
        vals, deltas = seq.values, seq.deltas
        assert vals[0] == r0 and vals[1] == r1
        for i, d in enumerate(deltas):
            assert vals[i + 2] == d * vals[i + 1] - vals[i]
            assert 0 < vals[i + 2] < vals[i + 1]
        assert vals[-2] % vals[-1] == 0
        assert vals[-1] == gcd(r0, r1)


def bruteforce_good_representation(r0, r1, x):
    """Direct search over all chain labellings for small chains."""
    seq = euclidean_sequence(r0, r1)
    deltas = seq.chain_deltas
    qs = seq.values[1:]
    for t in product(*[range(d) for d in deltas]):
        if sum(a * b for a, b in zip(t, qs)) % r0 != x % r0:
            continue
        if sum(a * b for a, b in zip(t, qs)) != x:
            continue
        # forbidden pattern: t_j = delta_j - 1 followed by a (possibly empty)
        # run of delta - 2 and then a delta - 1
        bad = False
        for j in range(len(t)):
            if t[j] != deltas[j] - 1:
                continue
            k = j + 1
            while k < len(t) and t[k] == deltas[k] - 2:
                k += 1
            if k < len(t) and t[k] == deltas[k] - 1:
                bad = True
        if not bad:
            return t
    return None


@pytest.mark.parametrize("r0,r1", [
    (r0, r1) for r0 in range(2, 14) for r1 in range(1, r0) if gcd(r0, r1) == 1
])
def test_good_representation_matches_bruteforce(r0, r1):
    """The same digits as the search, so the forbidden run is checked too."""
    for x in range(-2, r0 + 2):
        got = good_representation(r0, r1, x)
        want = bruteforce_good_representation(r0, r1, x)
        assert (None if got is None else got.coefficients) == want, (r0, r1, x)


def test_good_representation_exists_iff_in_window():
    """Existence exactly for 0 <= x <= r0 - 1, over all coprime pairs up to 40."""
    for r0 in range(2, 41):
        for r1 in range(1, r0):
            if gcd(r0, r1) != 1:
                continue
            for x in (-2, -1, r0, r0 + 1):
                assert good_representation(r0, r1, x) is None, (r0, r1, x)
            for x in range(r0):
                assert good_representation(r0, r1, x) is not None, (r0, r1, x)


def test_euclidean_star_shape():
    ag = euclidean_star(5, 3)
    # center plus r0 chains of equal length
    chains = (ag.n_vertices - 1) // 5
    assert ag.n_vertices == 1 + 5 * chains
    assert ag.multiplicities[0] == 5


@pytest.mark.parametrize("r0,r1", [(3, 2), (4, 3), (5, 2), (5, 3)])
def test_staircases_are_the_extreme_classes(r0, r1):
    ag = fixtures.star(r0, r1)
    game = chip_game(ag)
    ex = enumerate_extremes(game, 0)
    stairs = staircase_divisors(ag, r0, r1)
    stair_classes = {
        min(all_reduced_representatives(game, 0, d)) for d in stairs
    }
    extreme_classes = {min(c.all_reps) for c in ex.classes}
    assert stair_classes == extreme_classes
    assert ex.g_min == ex.g_max == g0(ag)


def test_star_6_5_extremes_are_the_staircase_classes():
    """Past the box scan (2^30 candidates): under the default budget the
    class table finds the 120 staircase classes of degree 9, g = 10."""
    r0, r1 = 6, 5
    ag = fixtures.star(r0, r1)
    game = chip_game(ag)
    ex = enumerate_extremes(game, 0)
    assert len(ex.classes) == 120
    assert ex.g_min == ex.g_max == r0 * (r0 - 3) // 2 + 1 == 10
    residue = game.lattice.residue
    assert {residue(c.rep) for c in ex.classes} == {
        residue(d) for d in staircase_divisors(ag, r0, r1)
    }


@pytest.mark.parametrize("r0,r1", [(3, 2), (4, 3), (5, 2), (5, 3)])
def test_staircase_degree(r0, r1):
    ag = fixtures.star(r0, r1)
    from chipfire.divisor_algebra import degree

    for d in staircase_divisors(ag, r0, r1):
        assert degree(ag.multiplicities, d) == r0 * (r0 - 3) // 2


@pytest.mark.parametrize("name,ag", ALL_FIXTURES)
def test_gmax_bounded_by_g0(name, ag):
    assert gmax_bound_check(ag)


def test_gmax_bound_on_random_graphs(rng):
    for _ in range(20):
        ag = random_arithmetical(rng)
        assert gmax_bound_check(ag), (ag.adjacency, ag.multiplicities)


@pytest.mark.parametrize(
    "name,ag",
    [("ex_a", fixtures.ex_a()), ("ex_c", fixtures.ex_c()),
     ("ec(2)", fixtures.ec(2)), ("ec(3)", fixtures.ec(3)),
     ("two_vertex(2,3)", fixtures.two_vertex(2, 3)),
     ("cycle_mult(3)", fixtures.cycle_mult(3)),
     ("star(3,2)", fixtures.star(3, 2))],
)
def test_column_game_rr_on_associated_digraphs(name, ag):
    assert column_rr_always(ag, 0)


def test_column_rr_on_exb():
    assert column_rr_always(fixtures.ex_b(), 0)


@pytest.mark.parametrize("r0,r1", [(3, 2), (4, 3), (5, 2), (5, 3)])
def test_star_digraph_natural_rr(r0, r1):
    assert digraph_natural_rr(fixtures.star(r0, r1))
