import random
from math import prod

import pytest

from chipfire import fixtures, oracle, sandpile
from chipfire.arithmetical import associated_digraph, chip_game, digraph_natural_rr
from chipfire.errors import BudgetExceeded, NotSandpileForm, NotStable
from chipfire.divisor_algebra import equivalent
from chipfire.games import column_game, row_game
from chipfire.rank_extremes import in_sigma, is_extreme
from chipfire.oracle import stable_box
from chipfire.reduction import all_reduced_representatives, is_reduced
from chipfire.riemann_roch import rr_verdict
from chipfire.sandpile import (
    dual_divisor,
    is_recurrent,
    is_stable,
    minimal_recurrents,
    natural_rr_via_sandpile,
    stabilize,
)

from conftest import random_arithmetical, sandpile_box, small_games


def random_schedule_stabilize(game, base, divisor, rng):
    """Fire a uniformly random unstable non-base vertex until stable."""
    d = list(divisor)
    fired = [0] * game.n_vertices
    while True:
        hot = [
            v for v in range(game.n_vertices)
            if v != base and d[v] >= game.threshold(v)
        ]
        if not hot:
            return tuple(d), tuple(fired)
        v = rng.choice(hot)
        row = game.firing_rows[v]
        for i in range(game.n_vertices):
            d[i] -= row[i]
        fired[v] += 1


@pytest.mark.parametrize("name,game", small_games())
def test_stabilization_is_schedule_independent(name, game):
    rng = random.Random(name)
    n = game.n_vertices
    for _ in range(200):
        d = tuple(
            rng.randint(-2, 6) if v == 0 else rng.randint(0, 2 * game.threshold(v))
            for v in range(n)
        )
        expect = stabilize(game, 0, d)
        for _ in range(3):
            assert random_schedule_stabilize(game, 0, d, rng) == expect


@pytest.mark.parametrize("name,game", [
    ("ec(5)", chip_game(fixtures.ec(5))),
    ("star(5,3)", chip_game(fixtures.star(5, 3))),
    ("k4u", row_game(fixtures.k4u())),
])
def test_stabilize_of_huge_configurations(name, game):
    """Entries up to 10**18 at every base: the result is stable, reached by a
    nonnegative firing vector that leaves the base alone, and firing one
    overfull vertex first only takes that firing off the vector."""
    rng = random.Random(name)
    n = game.n_vertices
    for base in range(n):
        for high in (10**6, 10**12, 10**18):
            d = tuple(rng.randint(-5, 5) if v == base else rng.randint(0, high)
                      for v in range(n))
            stable, fired = stabilize(game, base, d)
            assert is_stable(game, base, stable), (base, d)
            assert min(fired) >= 0 and fired[base] == 0, (base, d)
            assert game.apply(d, fired) == stable, (base, d)
            v = rng.choice([u for u in range(n) if u != base and d[u] >= game.threshold(u)])
            unit = tuple(int(u == v) for u in range(n))
            rest = tuple(f - e for f, e in zip(fired, unit))
            assert stabilize(game, base, game.apply(d, unit)) == (stable, rest), (base, d)


def test_stabilize_rejects_negative_configurations():
    game = row_game(fixtures.t3())
    with pytest.raises(NotSandpileForm):
        stabilize(game, 0, (0, -1, 2))


@pytest.mark.parametrize("name,game", small_games())
def test_stable_output_and_fire_counts(name, game):
    d = tuple(
        3 * game.threshold(v) if v else 0 for v in range(game.n_vertices)
    )
    stable, fired = stabilize(game, 0, d)
    assert is_stable(game, 0, stable)
    moved = list(d)
    for v, count in enumerate(fired):
        row = game.firing_rows[v]
        for i in range(game.n_vertices):
            moved[i] -= count * row[i]
    assert tuple(moved) == stable


@pytest.mark.parametrize("name,game", small_games())
def test_recurrence_duality_matches_reachability_oracle(name, game):
    for d in sandpile_box(game, 0, slack=0, base_values=(0,)):
        assert is_recurrent(game, 0, d) == oracle.is_recurrent_oracle(game, 0, d, 3), d


def test_is_recurrent_requires_stability():
    game = row_game(fixtures.t3())
    with pytest.raises(NotStable):
        is_recurrent(game, 0, (0, 5, 0))


def test_duality_involution():
    game = row_game(fixtures.k4u())
    for d in sandpile_box(game, 0, slack=0, base_values=(0,)):
        assert dual_divisor(game, dual_divisor(game, d)) == d


def test_k4u_minimal_recurrents_are_dual_to_maximal_reduced():
    """threshold - 1 - D maps minimal recurrent configurations onto reduced
    divisors of maximal non-base degree."""
    from chipfire.reduction import is_reduced

    game = row_game(fixtures.k4u())
    mins = minimal_recurrents(game, 0)
    assert len(mins) == 6
    for m in mins:
        assert is_recurrent(game, 0, m)
        dual = dual_divisor(game, m)
        assert is_reduced(game, 0, dual)
        for v in range(1, 4):
            if m[v] == 0:
                continue
            lowered = tuple(x - (1 if u == v else 0) for u, x in enumerate(m))
            assert not is_recurrent(game, 0, lowered)


@pytest.mark.parametrize("name,game", small_games())
def test_minimal_recurrents_are_minimal(name, game):
    """Lowering any positive non-base entry of a minimal recurrent breaks
    recurrence, and every recurrent config dominates some minimal one."""
    mins = minimal_recurrents(game, 0)
    assert mins
    others = [v for v in range(game.n_vertices) if v != 0]
    for m in mins:
        for v in others:
            if m[v] == 0:
                continue
            lowered = tuple(x - (1 if u == v else 0) for u, x in enumerate(m))
            assert not is_recurrent(game, 0, lowered)
    for d in sandpile_box(game, 0, slack=0, base_values=(0,)):
        if is_recurrent(game, 0, d):
            assert any(all(m[v] <= d[v] for v in others) for m in mins), d


def pairwise_minimal_recurrents(game, base):
    """Reference: the recurrent configurations of the stable box that
    dominate no other recurrent one, found by comparing every pair."""
    recurrents = [d for d in stable_box(game, base, 10**7) if is_recurrent(game, base, d)]
    return sorted(
        d
        for d in recurrents
        if not any(
            other != d and all(a <= b for a, b in zip(other, d))
            for other in recurrents
        )
    )


def minimal_recurrent_games():
    """small_games plus the first four seeded random chip games whose stable
    boxes hold at most 6,000 configurations at every base, since the
    reference is quadratic in the number of recurrents."""
    rng = random.Random(20261019)
    extra = []
    while len(extra) < 4:
        game = chip_game(random_arithmetical(rng))
        n = game.n_vertices
        if all(prod(game.threshold(v) for v in range(n) if v != b) <= 6000 for b in range(n)):
            extra.append((f"random_arithmetical[{len(extra)}]", game))
    return small_games() + extra


@pytest.mark.parametrize("name,game", minimal_recurrent_games())
def test_minimal_recurrents_match_pairwise_reference(name, game):
    for base in range(game.n_vertices):
        assert minimal_recurrents(game, base) == pairwise_minimal_recurrents(game, base), base


def test_minimal_recurrents_of_col_exb_match_pairwise_reference():
    """At base 0 only: 5,184 recurrents, and each other base has more."""
    game = column_game(associated_digraph(fixtures.ex_b()))
    assert minimal_recurrents(game, 0) == pairwise_minimal_recurrents(game, 0)


def test_minimal_recurrents_run_fewer_dhar_tests_than_the_box(monkeypatch):
    """On every case the pairwise reference covers, the walk's Dhar runs
    stay below the stable box; the budget bounds exactly those runs."""
    runs = [0]

    def counting(game, base, divisor):
        runs[0] += 1
        return is_reduced(game, base, divisor)

    monkeypatch.setattr(sandpile, "is_reduced", counting)
    col_exb = column_game(associated_digraph(fixtures.ex_b()))
    cases = [(game, base) for _, game in minimal_recurrent_games()
             for base in range(game.n_vertices)] + [(col_exb, 0)]
    for game, base in cases:
        runs[0] = 0
        minimal_recurrents(game, base)
        box = prod(game.threshold(v) for v in range(game.n_vertices) if v != base)
        assert runs[0] < box, (game, base)
    needed = runs[0]
    assert minimal_recurrents(col_exb, 0, budget=needed) == minimal_recurrents(col_exb, 0)
    with pytest.raises(BudgetExceeded) as info:
        minimal_recurrents(col_exb, 0, budget=needed - 1)
    assert (info.value.count, info.value.budget) == (needed, needed - 1)


def test_minimal_recurrents_of_star_5_4_past_the_box():
    """The stable box holds 2^20 configurations; the walk meets the 3,125
    reduced ones and returns the 1,024 minimal recurrents."""
    game = chip_game(fixtures.star(5, 4))
    mins = minimal_recurrents(game, 0)
    assert len(mins) == 1024
    assert prod(game.threshold(v) for v in range(1, game.n_vertices)) == 2**20
    for m in mins:
        assert is_recurrent(game, 0, m)
        for v in range(1, game.n_vertices):
            if m[v]:
                assert not is_recurrent(game, 0, m[:v] + (m[v] - 1,) + m[v + 1:]), (m, v)


def per_vertex_extreme(game, base, divisor):
    """Reference: the sandpile form of the extreme test.  D lies in Sigma and
    for every vertex v some v-reduced representative has value -1 at v."""
    return in_sigma(game, base, divisor) and all(
        any(rep[v] == -1 for rep in all_reduced_representatives(game, v, divisor))
        for v in range(game.n_vertices)
    )


def sandpile_criterion_games():
    row = [fixtures.k4u(), fixtures.p3(), fixtures.t3(), fixtures.b2(),
           associated_digraph(fixtures.ec(2)), associated_digraph(fixtures.ex_a())]
    chip = [fixtures.ex_a(), fixtures.ex_b(), fixtures.ex_c(), fixtures.uniform_only()]
    column = [fixtures.b2(), fixtures.p3(), associated_digraph(fixtures.ex_a())]
    return ([row_game(g) for g in row] + [chip_game(ag) for ag in chip]
            + [column_game(g) for g in column])


def test_per_vertex_criterion_is_is_extreme_on_shifted_minimal_recurrents():
    """Every minimal recurrent minus 1, moved by -3..3 at the base, at every
    base: the per-vertex test and is_extreme agree."""
    for game in sandpile_criterion_games():
        for base in range(game.n_vertices):
            for config in minimal_recurrents(game, base):
                for shift in range(-3, 4):
                    d = [c - 1 for c in config]
                    d[base] += shift
                    assert per_vertex_extreme(game, base, d) == is_extreme(game, base, d), (
                        game, base, d,
                    )


def test_natural_rr_via_sandpile_agrees_on_unit_weight_games():
    """The minimal-recurrent criterion is stated for the row game; agreement
    with the direct canonical-class check on the stock digraphs."""
    from chipfire.arithmetical import associated_digraph

    digraphs = [
        fixtures.k4u(), fixtures.p3(), fixtures.t3(), fixtures.b2(),
        associated_digraph(fixtures.ec(2)),
        associated_digraph(fixtures.ex_a()),
    ]
    for g in digraphs:
        game = row_game(g)
        assert natural_rr_via_sandpile(game, 0) == rr_verdict(game, 0).natural_rr


def test_natural_rr_via_sandpile_agrees_only_where_s_base_is_one():
    """Row games of associated digraphs, all of natural Riemann-Roch: the
    route agrees with the verdict at every base with S[base] = 1 and answers
    False at every base with S[base] > 1."""
    for ag in (fixtures.star(3, 1), fixtures.star(3, 2), fixtures.star(4, 1), fixtures.ec(2)):
        game = row_game(associated_digraph(ag))
        for base in range(game.n_vertices):
            assert rr_verdict(game, base).natural_rr, (ag, base)
            assert natural_rr_via_sandpile(game, base) == (game.period[base] == 1), (ag, base)


def test_sandpile_route_differs_from_the_verdict_on_star_3_1_where_s_base_is_3():
    """Row game of star(3,1)'s associated digraph, base 0, S = (3, 1, 1, 1):
    the one minimal recurrent 0, shifted to the natural degree g - 1 = 2, is
    (5, -1, -1, -1), which is effective, so the route answers False.  The
    verdict finds natural Riemann-Roch: K = (-2, 2, 2, 2) ~ (1, 1, 1, 1)."""
    game = row_game(associated_digraph(fixtures.star(3, 1)))
    assert game.period == (3, 1, 1, 1)
    assert minimal_recurrents(game, 0) == [(0, 0, 0, 0)]
    assert not in_sigma(game, 0, (5, -1, -1, -1))
    assert natural_rr_via_sandpile(game, 0) is False
    report = rr_verdict(game, 0)
    assert report.natural_rr and report.canonical == (-2, 2, 2, 2)
    assert equivalent(game.lattice, report.canonical, (1, 1, 1, 1))


def test_sandpile_route_differs_from_the_verdict_on_star_5_2_where_s_base_is_1():
    """Row game of star(5,2)'s associated digraph at base 2, S[2] = 1 and a
    stable box of 1,244,160: among the 36 minimal recurrents is
    (5, 4, 0, 2, 0, 4, 0, 4, 0, 4, 1), whose shift to the natural degree
    g - 1 = 14 is effective, so the route answers False; the chip verdict of
    star(5,2), which the row game carries, has natural Riemann-Roch."""
    game = row_game(associated_digraph(fixtures.star(5, 2)))
    assert game.period[2] == 1
    mins = minimal_recurrents(game, 2)
    assert len(mins) == 36 and (5, 4, 0, 2, 0, 4, 0, 4, 0, 4, 1) in mins
    assert not in_sigma(game, 2, (4, 3, 0, 1, -1, 3, -1, 3, -1, 3, 0))
    assert natural_rr_via_sandpile(game, 2) is False
    assert digraph_natural_rr(fixtures.star(5, 2))


def test_digraph_natural_rr_matches_sandpile_route():
    from chipfire.arithmetical import associated_digraph
    from chipfire.games import row_game as rg

    for ag in (fixtures.ec(2), fixtures.ex_a()):
        direct = natural_rr_via_sandpile(rg(associated_digraph(ag)), 0)
        assert digraph_natural_rr(ag) == direct


def test_natural_rr_via_sandpile_needs_an_extreme_not_only_sigma():
    """On this column game at base 2 the one minimal recurrent (0, 2, 0),
    shifted to the natural degree g - 1 = 1, is (-1, 1, 2): in Sigma, but
    so is its bump (-1, 1, 3), so it is not extreme.  A bare Sigma test
    would answer True."""
    from chipfire.graph_core import build_digraph

    game = column_game(build_digraph([(0, 1, 2), (1, 0, 2), (1, 2, 1), (2, 0, 2)]))
    assert minimal_recurrents(game, 2) == [(0, 2, 0)]
    shifted = (-1, 1, 2)
    assert in_sigma(game, 2, shifted)
    assert in_sigma(game, 2, (-1, 1, 3))
    assert not is_extreme(game, 2, shifted)
    assert natural_rr_via_sandpile(game, 2) is False
