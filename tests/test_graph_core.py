import importlib
import json
import os
import random
import subprocess
import sys
from math import gcd, prod
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from chipfire import fixtures
from chipfire.errors import InvalidGraph, NotStronglyConnected
from chipfire.games import column_game, row_game
from chipfire.graph_core import (
    DirectedMultigraph,
    LatticeHandle,
    build_digraph,
    is_strongly_connected,
    laplacian,
    period_vector,
    reachable,
)


def test_build_digraph_rejects_loops():
    with pytest.raises(InvalidGraph):
        build_digraph([(0, 0, 1), (0, 1, 1), (1, 0, 1)])


def test_build_digraph_rejects_single_vertex():
    with pytest.raises(InvalidGraph):
        build_digraph([], n_vertices=1)


@pytest.mark.parametrize("arc", [(0, 1, 1.5), (0, 1, 1.0), (0, 1, True), (0, True, 1), (0.0, 1, 1)])
def test_build_digraph_rejects_an_arc_entry_that_is_not_an_int(arc):
    """A float multiplicity used to pass and make row_game raise a bare
    TypeError; True used to count as one arc."""
    with pytest.raises(InvalidGraph, match="needs integer entries"):
        build_digraph([arc, (1, 0, 1)])


@pytest.mark.parametrize("m", [1.5, 1.0, True])
def test_multigraph_rejects_a_multiplicity_that_is_not_an_int(m):
    with pytest.raises(InvalidGraph, match="nonnegative integers"):
        DirectedMultigraph([[0, m], [1, 0]])
    assert row_game(DirectedMultigraph([[0, 1], [1, 0]])).period == (1, 1)


def test_strong_connectivity():
    assert is_strongly_connected(fixtures.t3())
    assert is_strongly_connected(fixtures.k4u())
    one_way = build_digraph([(0, 1, 1)], n_vertices=2)
    assert not is_strongly_connected(one_way)


def test_laplacian_row_sums_vanish():
    g = fixtures.k4u()
    q = laplacian(g)
    for row in q:
        assert sum(row) == 0


def test_column_game_fires_transposed_rows():
    from chipfire.games import column_game, row_game

    g = fixtures.b2()
    q = row_game(g).firing_rows
    qt = column_game(g).firing_rows
    n = g.n_vertices
    assert all(q[i][j] == qt[j][i] for i in range(n) for j in range(n))


def test_period_vector_cycle_is_ones():
    assert period_vector(fixtures.t3()) == (1, 1, 1)


def test_period_vector_b2():
    # Q = [[1,-1],[-2,2]]; kernel of Q^T is spanned by (2,1).
    assert period_vector(fixtures.b2()) == (2, 1)


def test_period_vector_requires_connectivity():
    g = build_digraph([(0, 1, 1)], n_vertices=2)
    with pytest.raises(NotStronglyConnected):
        period_vector(g)


def test_period_vector_of_associated_digraph_is_multiplicities():
    from chipfire.arithmetical import associated_digraph

    for ag in (fixtures.ex_a(), fixtures.ex_b(), fixtures.ec(3),
               fixtures.two_vertex(3, 4), fixtures.star(4, 3)):
        assert period_vector(associated_digraph(ag)) == ag.multiplicities


def test_period_vector_on_random_strongly_connected_digraphs():
    """R is positive, primitive and satisfies R^T Q = 0, which fixes it."""
    rng = random.Random(20261018)
    checked = 0
    while checked < 200:
        n = rng.randint(2, 6)
        arcs = [(i, j, rng.randint(1, 3)) for i in range(n) for j in range(n)
                if i != j and rng.random() < 0.4]
        if not arcs:
            continue
        g = build_digraph(arcs, n_vertices=n)
        if not is_strongly_connected(g):
            continue
        r = period_vector(g)
        q = laplacian(g)
        assert all(v > 0 for v in r), arcs
        assert gcd(*r) == 1, arcs
        assert all(sum(r[i] * q[i][j] for i in range(n)) == 0 for j in range(n)), arcs
        checked += 1


@pytest.mark.parametrize("gens", [
    [(1, 0, 0)],
    [(1, 0), (0, 2)],
    [(2, -2, 0), (1, -1, 0)],
], ids=["corank-2", "corank-0", "corank-2-dependent"])
def test_kernel_requires_corank_one(gens):
    with pytest.raises(ValueError):
        LatticeHandle(gens).kernel()


def test_lattice_rejects_generators_of_unequal_length():
    """zip once truncated the longer row, and the short row reduced to zero."""
    with pytest.raises(ValueError, match="same length"):
        LatticeHandle([(1, 2, 3), (1, 2)])


def test_period_vector_of_a_24_vertex_digraph_returns():
    """Run in a subprocess with a timeout: inserting generators one at a time
    with extended-gcd steps blew the entries up, and this took 28 s.  The
    graph is the 11th seeded draw; its R has entries up to 113 bits."""
    rng = random.Random(1)
    for _ in range(11):
        arcs = [(i, j, rng.randint(1, 9)) for i in range(24) for j in range(24)
                if i != j and rng.random() < 0.25]
    g = build_digraph(arcs, n_vertices=24)
    assert len(arcs) == 156 and is_strongly_connected(g)
    package_root = Path(importlib.import_module("chipfire").__file__).resolve().parents[1]
    script = (
        "import json, sys\n"
        "from chipfire.graph_core import build_digraph, period_vector\n"
        "print(json.dumps(period_vector(build_digraph(json.load(sys.stdin), n_vertices=24))))\n"
    )
    proc = subprocess.run(
        [sys.executable, "-S", "-c", script], input=json.dumps(arcs),
        capture_output=True, text=True, timeout=10,
        env=dict(os.environ, PYTHONPATH=str(package_root)),
    )
    assert proc.returncode == 0, proc.stderr
    r = json.loads(proc.stdout)
    q = laplacian(g)
    assert all(v > 0 for v in r) and gcd(*r) == 1
    assert all(sum(r[i] * q[i][j] for i in range(24)) == 0 for j in range(24))


def test_kernel_is_primitive_with_positive_free_coordinate():
    # Rows (2, 3, 0) and (0, 2, -1): the kernel is spanned by (-3, 2, 4).
    assert LatticeHandle([(2, 3, 0), (0, 2, -1)]).kernel() == (-3, 2, 4)


def test_reachable_follows_nonzero_entries():
    matrix = [[0, 1, 0, 0], [0, 0, 2, 0], [0, 0, 0, 0], [1, 0, 0, 0]]
    assert reachable(matrix, 0) == {0, 1, 2}
    assert reachable(matrix, 3) == {0, 1, 2, 3}
    assert reachable(matrix, 2) == {2}


GENS = st.lists(
    st.lists(st.integers(-4, 4), min_size=3, max_size=3),
    min_size=1,
    max_size=3,
)


@given(GENS)
@settings(max_examples=200, deadline=None)
def test_lattice_basis_is_in_reduced_hermite_form(gens):
    pivots = LatticeHandle(gens).pivots
    cols = [c for c, _ in pivots]
    assert cols == sorted(set(cols))
    for i, (col, row) in enumerate(pivots):
        assert row[col] > 0
        assert not any(row[:col])
        assert all(0 <= upper[col] < row[col] for _, upper in pivots[:i])


def _det3(m):
    (a, b, c), (d, e, f), (g, h, i) = m
    return a * (e * i - f * h) - b * (d * i - f * g) + c * (d * h - e * g)


@given(st.lists(st.lists(st.integers(-4, 4), min_size=3, max_size=3),
                min_size=3, max_size=3))
@settings(max_examples=200, deadline=None)
def test_full_rank_basis_has_pivot_product_the_determinant(gens):
    """The containment test puts the generated lattice inside the basis's;
    equal indices, |det| and the pivot product, make the two equal."""
    det = _det3(gens)
    if det:
        assert prod(row[col] for col, row in LatticeHandle(gens).pivots) == abs(det)


@given(GENS, st.lists(st.integers(-3, 3), min_size=3, max_size=3))
@settings(max_examples=200, deadline=None)
def test_lattice_contains_integer_combinations(gens, coeffs):
    lat = LatticeHandle(gens)
    combo = [0, 0, 0]
    for g, c in zip(gens, coeffs):
        for i in range(3):
            combo[i] += c * g[i]
    assert lat.contains(tuple(combo))


@given(GENS, st.lists(st.integers(-6, 6), min_size=3, max_size=3),
       st.lists(st.integers(-2, 2), min_size=3, max_size=3))
@settings(max_examples=200, deadline=None)
def test_residue_is_coset_invariant(gens, point, coeffs):
    lat = LatticeHandle(gens)
    shifted = list(point)
    for g, c in zip(gens, coeffs):
        for i in range(3):
            shifted[i] += c * g[i]
    assert lat.residue(tuple(point)) == lat.residue(tuple(shifted))
    # the residue differs from the point by a lattice element
    res = lat.residue(tuple(point))
    assert lat.contains(tuple(p - r for p, r in zip(point, res)))


def test_lattice_membership_fractional_rejection():
    lat = LatticeHandle([(3, -2)])
    from fractions import Fraction

    assert lat.contains((Fraction(3), Fraction(-2)))
    assert not lat.contains((Fraction(3, 2), Fraction(-1)))
    assert not lat.contains((Fraction(1), Fraction(0)))


BUMP_LATTICES = [
    LatticeHandle(laplacian(fixtures.k4u())),
    LatticeHandle(fixtures.star(4, 3).laplacian()),
    LatticeHandle(list(zip(*laplacian(fixtures.b2())))),
    LatticeHandle([[2, -1, 0, -1], [0, 3, -3, 0], [-4, 0, 5, -1]]),
    LatticeHandle([[2, 1, 0], [0, 0, 3]]),  # column 1 is free
]


@given(
    st.sampled_from(BUMP_LATTICES),
    st.lists(st.integers(-50, 50), min_size=16, max_size=16),
    st.sampled_from((1, -1)),
)
@settings(max_examples=200, deadline=None)
def test_bump_is_the_residue_of_one_chip_more_or_less(lattice, entries, k):
    res = lattice.residue(entries[: lattice.dim])
    for v in range(lattice.dim):
        moved = list(res)
        moved[v] += k
        assert lattice.bump(res, v, k) == lattice.residue(moved), v


def dense_residue(lattice, x):
    """Reference: subtract q times the whole pivot row, all n entries."""
    rem = list(x)
    for col, row in lattice.pivots:
        q = rem[col] // row[col]
        if q:
            rem = [a - q * b for a, b in zip(rem, row)]
    return tuple(rem)


def _fixture_games():
    """Row and column games of every fixture digraph and associated digraph,
    and the chip game of every arithmetical fixture."""
    from chipfire.arithmetical import associated_digraph, chip_game

    arith = [
        ("ex_a", fixtures.ex_a()), ("ex_b", fixtures.ex_b()), ("ex_c", fixtures.ex_c()),
        ("ec(3)", fixtures.ec(3)), ("ec(4)", fixtures.ec(4)),
        ("uniform_only", fixtures.uniform_only()), ("two_vertex(2,3)", fixtures.two_vertex(2, 3)),
        ("cycle_mult(3)", fixtures.cycle_mult(3)), ("star(4,3)", fixtures.star(4, 3)),
    ]
    digraphs = [(name, getattr(fixtures, name)()) for name in ("t3", "b2", "p3", "k4u")]
    digraphs += [(f"assoc({name})", associated_digraph(ag)) for name, ag in arith]
    for name, g in digraphs:
        yield f"row({name})", row_game(g)
        yield f"col({name})", column_game(g)
    for name, ag in arith:
        yield f"chip({name})", chip_game(ag)


def _seeded_games():
    """Row and column games of 20 seeded strongly connected digraphs, n <= 7."""
    rng = random.Random(20261021)
    found = 0
    while found < 20:
        n = rng.randint(2, 7)
        arcs = [(i, j, rng.randint(1, 4)) for i in range(n) for j in range(n)
                if i != j and rng.random() < 0.4]
        if not arcs:
            continue
        g = build_digraph(arcs, n_vertices=n)
        if is_strongly_connected(g):
            yield f"seed {found} row", row_game(g)
            yield f"seed {found} col", column_game(g)
            found += 1


GAME_LATTICES = [(name, game.firing_rows, game.lattice)
                 for name, game in [*_fixture_games(), *_seeded_games()]]


@pytest.mark.parametrize("name,gens,lattice", GAME_LATTICES, ids=[n for n, _, _ in GAME_LATTICES])
def test_residue_matches_the_dense_reference(name, gens, lattice):
    """Small entries, entries in the range of the class tables, and entries
    up to 10^18."""
    rng = random.Random(name)
    for scale in (3, 60, 10**9, 10**18):
        for _ in range(25):
            x = tuple(rng.randint(-scale, scale) for _ in range(lattice.dim))
            assert lattice.residue(x) == dense_residue(lattice, x), x


BUMP_CASES = GAME_LATTICES + [(f"bump {i}", None, lat) for i, lat in enumerate(BUMP_LATTICES)]


@pytest.mark.parametrize("name,gens,lattice", BUMP_CASES, ids=[n for n, _, _ in BUMP_CASES])
def test_bump_is_the_dense_residue_of_one_chip_more_or_less_at_every_column(name, gens, lattice):
    """Every column, so the free one of each game lattice and the free
    middle column of the last hand-made lattice too."""
    assert len({c for c, _ in lattice.pivots}) < lattice.dim
    rng = random.Random(name)
    for scale in (60, 10**18):
        for _ in range(8):
            res = dense_residue(lattice, [rng.randint(-scale, scale) for _ in range(lattice.dim)])
            for v in range(lattice.dim):
                for k in (1, -1):
                    moved = list(res)
                    moved[v] += k
                    assert lattice.bump(res, v, k) == dense_residue(lattice, moved), (res, v, k)


# The pivots of three of the lattices above, written out.
PINNED_PIVOTS = {
    "row(k4u)": ((0, (1, 1, 1, -3)), (1, (0, 4, 0, -4)), (2, (0, 0, 4, -4))),
    "col(b2)": ((0, (1, -2)),),
    "chip(star(4,3))": (
        (0, (1, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, -4)),
        (1, (0, 1, 0, 0, 0, 0, 3, 0, 0, 3, 0, 0, -9)),
        (2, (0, 0, 1, 0, 0, 0, 2, 0, 0, 2, 0, 0, -6)),
        (3, (0, 0, 0, 1, 0, 0, 1, 0, 0, 1, 0, 0, -3)),
        (4, (0, 0, 0, 0, 1, 0, 1, 0, 0, 0, 0, 0, -4)),
        (5, (0, 0, 0, 0, 0, 1, 2, 0, 0, 0, 0, 0, -4)),
        (6, (0, 0, 0, 0, 0, 0, 4, 0, 0, 0, 0, 0, -4)),
        (7, (0, 0, 0, 0, 0, 0, 0, 1, 0, 1, 0, 0, -4)),
        (8, (0, 0, 0, 0, 0, 0, 0, 0, 1, 2, 0, 0, -4)),
        (9, (0, 0, 0, 0, 0, 0, 0, 0, 0, 4, 0, 0, -4)),
        (10, (0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 1, 0, -3)),
        (11, (0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 1, -2)),
    ),
}


@pytest.mark.parametrize("name,gens,lattice", GAME_LATTICES, ids=[n for n, _, _ in GAME_LATTICES])
def test_pivots_stay_the_reduced_hermite_basis_of_the_firing_rows(name, gens, lattice):
    """The reduced Hermite basis of a lattice is unique, so a basis in that
    form in which every firing row reduces to zero is the one the pivots
    held before the sparse tails."""
    pivots = lattice.pivots
    assert LatticeHandle(gens).pivots == pivots
    cols = [c for c, _ in pivots]
    assert cols == sorted(set(cols)) and len(cols) == lattice.dim - 1
    for i, (col, row) in enumerate(pivots):
        assert row[col] > 0 and not any(row[:col])
        assert all(0 <= upper[col] < row[col] for _, upper in pivots[:i])
    assert not any(any(dense_residue(lattice, g)) for g in gens)
    if name in PINNED_PIVOTS:
        assert pivots == PINNED_PIVOTS[name]
