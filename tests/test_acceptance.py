"""Acceptance gate: one test per criterion, exact arithmetic throughout.

Each test prints a single PASS/FAIL line; all ten criteria and the
abstract's four verdict cases pass.
Criteria 2 and 6 once asserted reference values that are wrong for the
graphs they build; their comments give the derivation of the corrected
values, with integer certificates that the tests check.
"""

import random
from fractions import Fraction
from functools import wraps

from chipfire import fixtures, oracle
from chipfire.arithmetical import (
    chip_game,
    digraph_natural_rr,
    g0,
    gmax_bound_check,
    good_representation,
    staircase_divisors,
)
from chipfire.divisor_algebra import degree, equivalent
from chipfire.games import row_game, column_game
from chipfire.rank_extremes import enumerate_extremes, rank
from chipfire.reduction import all_reduced_representatives, is_reduced
from chipfire.riemann_roch import (
    canonical_inequality_check,
    crit_points,
    natural_divisor,
    rr_formula_check,
    rr_verdict,
    scaling_bridge,
    transport_canonical,
)
from chipfire.sandpile import is_recurrent, stabilize

from conftest import divisor_box, random_arithmetical, sandpile_box


def reported(label):
    def deco(fn):
        @wraps(fn)
        def wrapper(*args, **kwargs):
            try:
                fn(*args, **kwargs)
            except BaseException:
                print(f"ACCEPTANCE {label}: FAIL")
                raise
            print(f"ACCEPTANCE {label}: PASS")

        return wrapper

    return deco


def frac(num, den):
    return Fraction(num, den)


@reported("1 (six-cycle example)")
def test_criterion_1_ex_a():
    game = chip_game(fixtures.ex_a())
    report = rr_verdict(game, 0)
    assert sorted(c.degree for c in report.extremes.classes) == [2, 2, 3]
    assert report.uniform is False
    assert report.reflection_invariant is False
    expected = {
        tuple(frac(x, 5) for x in (-4, -3, 6, 2, 6, -3)),
        tuple(frac(x, 15) for x in (-11, -7, 19, -7, 34, -7)),
        tuple(frac(x, 15) for x in (-11, -7, 34, -7, 19, -7)),
    }
    assert set(crit_points(report.extremes, game.weight)) == expected


@reported("2 (subdivided-K4 example)")
def test_criterion_2_ex_b():
    ag = fixtures.ex_b()
    game = chip_game(ag)
    report = rr_verdict(game, 0)
    assert [c.degree for c in report.extremes.classes] == [4, 4, 4]
    assert len(report.extremes.classes) == 3
    assert report.uniform is True
    assert g0(ag) == 7
    # An earlier reference gave "uniform but not reflection invariant" with
    #   Crit = {(-2,-1,4,-1,4,-1)/3, (-2,-1,7,-1,1,-1)/3, (-4,-3,1,7,1,-3)/5}.
    # Those points have p.R = 10/3, 10/3, -2/5 for R = (2,4,3,3,3,3), so they
    # are not projections along R.  They are exactly pi(nu + 1) projected
    # along (1,2,1,2,1,2), which is ex_a's R, for this graph's own extreme
    # representatives nu = (-1,0,1,0,1,0), (-1,0,2,0,0,0), (-1,0,0,2,0,0);
    # e.g. (0,1,2,1,2,1) projected along (1,2,1,2,1,2) is (-2,-1,4,-1,4,-1)/3.
    # Projected along the right R the critical set is reflection invariant:
    # with K = (2,1,0,0,0,0) the firing certificates below put
    # K - nu_0 - nu_0 and K - nu_1 - nu_2 in the lattice L.  Since
    # pi(K - nu_i - nu_j) = -p_i - p_j + pi(K + 2*1) and L is orthogonal
    # to R, v = -pi(K + 2*1) is a translation witness.
    assert report.reflection_invariant is True
    assert report.rr_property is True

    k = (2, 1, 0, 0, 0, 0)
    nu = ((-1, 0, 0, 1, 0, 1), (-1, 0, 0, 1, 1, 0), (-1, 0, 0, 2, 0, 0))
    assert report.canonical == k
    assert tuple(c.rep for c in report.extremes.classes) == nu
    q = ag.laplacian()

    def fire(z):
        return tuple(sum(zj * row[i] for zj, row in zip(z, q))
                     for i in range(ag.n_vertices))

    assert (tuple(a - 2 * b for a, b in zip(k, nu[0]))
            == fire((0, -1, -1, -2, -2, -3)))
    assert (tuple(a - b - c for a, b, c in zip(k, nu[1], nu[2]))
            == fire((0, -1, -1, -2, -2, -2)))
    witness = tuple(frac(x, 14) for x in (-34, 2, 5, 5, 5, 5))
    assert game.lattice.contains(
        [a - b for a, b in zip(report.reflection_witness, witness)]
    )

    # pi_R(nu + 1) for nu = (-1,0,1,0,1,0), (-1,0,2,0,0,0), (-1,0,0,2,0,0):
    # each lies on R's hyperplane and differs from nu + 1 by a multiple of R.
    weight = game.weight
    expected = {
        rep: tuple(frac(x, 28) for x in nums)
        for rep, nums in (
            ((-1, 0, 1, 0, 1, 0), (-22, -16, 23, -5, 23, -5)),
            ((-1, 0, 2, 0, 0, 0), (-22, -16, 51, -5, -5, -5)),
            ((-1, 0, 0, 2, 0, 0), (-22, -16, -5, 51, -5, -5)),
        )
    }
    for rep, p in expected.items():
        assert sum(a * w for a, w in zip(p, weight)) == 0
        lam = Fraction(rep[0] + 1 - p[0], weight[0])
        assert all(x + 1 - a == lam * w for x, a, w in zip(rep, p, weight))
    matches = sorted(
        [i for i, p in enumerate(expected.values())
         if game.lattice.contains([a - b for a, b in zip(c, p)])]
        for c in crit_points(report.extremes, weight)
    )
    assert matches == [[0], [1], [2]]


@reported("3 (three-vertex product example)")
def test_criterion_3_ex_c():
    game = chip_game(fixtures.ex_c())
    report = rr_verdict(game, 0)
    assert sorted(c.degree for c in report.extremes.classes) == [10, 11]
    assert len(report.extremes.classes) == 2
    assert (report.extremes.g_min, report.extremes.g_max) == (11, 12)
    assert report.uniform is False
    assert report.reflection_invariant is True
    points = crit_points(report.extremes, game.weight)
    want = tuple(-(a + b) for a, b in zip(points[0], points[1]))
    assert report.reflection_witness == want
    assert canonical_inequality_check(game, 0, report)


@reported("4 (even cycles)")
def test_criterion_4_even_cycles():
    for n in (2, 3, 4):
        ag = fixtures.ec(n)
        game = chip_game(ag)
        report = rr_verdict(game, 0)
        expected = sorted(
            tuple(-1 if v == 0 else (1 if v == 2 * i else 0)
                  for v in range(2 * n))
            for i in range(1, n)
        )
        assert sorted(c.rep for c in report.extremes.classes) == expected
        assert report.extremes.g_min == report.extremes.g_max == g0(ag) == 1
        assert report.rr_property
        assert rr_formula_check(game, 0, report)


@reported("5 (cycles with multiplicities 1..n)")
def test_criterion_5_cycle_mult():
    for n in (3, 4, 5, 6):
        game = chip_game(fixtures.cycle_mult(n))
        report = rr_verdict(game, 0)
        reps = [c.rep for c in report.extremes.classes]
        assert reps == [tuple(-1 if v == 0 else 0 for v in range(n))]
        assert report.rr_property


@reported("6 (two-vertex graphs)")
def test_criterion_6_two_vertex():
    # two_vertex(r0, r1) has lattice Z.(r1, -r0).  An earlier reference gave
    # the extreme -chi(v0) + (r0^2 - 1)chi(v1); it is not in Sigma, since one
    # lattice step takes it to the effective divisor (r1 - 1, r0^2 - r0 - 1).
    # The unique extreme class is that of nu = (-1, r0 - 1): in
    # nu + t(r1, -r0) the v0 entry -1 + t*r1 is negative for t <= 0 and the
    # v1 entry r0 - 1 - t*r0 is negative for t >= 1, while nu + chi(v0) and
    # nu + chi(v1) are effective up to equivalence.  Its weighted degree
    # r0*r1 - r0 - r1 is the Frobenius number of <r0, r1>.  For both pairs
    # below r0^2 - 1 = r1(r0 - 1), which hints at a slip between chip-game
    # and scaled coordinates in the earlier value.
    for r0, r1 in ((2, 3), (3, 4)):
        game = chip_game(fixtures.two_vertex(r0, r1))
        report = rr_verdict(game, 0)
        assert len(report.extremes.classes) == 1
        assert report.rr_property
        cls = report.extremes.classes[0]
        nu = (-1, r0 - 1)
        assert nu in cls.all_reps
        assert cls.degree == r0 * r1 - r0 - r1

        step = (r1, -r0)
        assert game.lattice.contains(step)
        assert nu[0] < 0 and nu[1] - r0 < 0  # t = 0 and t = 1 above
        box = r0 + r1
        assert not oracle.effective_bruteforce(game, nu, box)
        assert oracle.effective_bruteforce(game, (nu[0] + 1, nu[1]), box)
        assert oracle.effective_bruteforce(game, (nu[0], nu[1] + 1), box)

        claimed = (-1, r0 * r0 - 1)
        stepped = tuple(a + b for a, b in zip(claimed, step))
        assert stepped == (r1 - 1, r0 * r0 - r0 - 1) and min(stepped) >= 0
        assert equivalent(game.lattice, claimed, stepped)
        assert oracle.effective_bruteforce(game, claimed, box)


@reported("7 (Euclidean stars)")
def test_criterion_7_euclidean_stars():
    for r0, r1 in ((3, 2), (4, 3), (5, 2), (5, 3)):
        ag = fixtures.star(r0, r1)
        game = chip_game(ag)
        report = rr_verdict(game, 0)
        stair_classes = {
            min(all_reduced_representatives(game, 0, d))
            for d in staircase_divisors(ag, r0, r1)
        }
        extreme_classes = {min(c.all_reps) for c in report.extremes.classes}
        assert stair_classes == extreme_classes
        expected_g = r0 * (r0 - 3) // 2 + 1
        assert (report.extremes.g_min == report.extremes.g_max
                == g0(ag) == expected_g)
        assert report.rr_property
        assert digraph_natural_rr(ag)


@reported("8 (unit-weight sanity)")
def test_criterion_8_unit_weight():
    for g in (fixtures.k4u(), fixtures.p3()):
        game = row_game(g)
        report = rr_verdict(game, 0)
        n_edges = sum(sum(row) for row in g.arcs) // 2
        assert report.rr_property
        assert report.g == n_edges - g.n_vertices + 1
        assert equivalent(game.lattice, report.canonical, natural_divisor(game))
        assert rr_formula_check(game, 0, report)


@reported("9 (genus bound with pairing)")
def test_criterion_9_gmax_bound():
    for ag in (fixtures.ex_a(), fixtures.ex_b(), fixtures.ex_c(),
               fixtures.ec(2), fixtures.ec(3), fixtures.ec(4),
               fixtures.two_vertex(2, 3), fixtures.two_vertex(3, 4),
               fixtures.cycle_mult(3), fixtures.cycle_mult(4),
               fixtures.star(3, 2), fixtures.star(4, 3), fixtures.star(5, 2),
               fixtures.star(5, 3)):
        assert gmax_bound_check(ag)
    rng = random.Random(977)
    for _ in range(20):
        ag = random_arithmetical(rng)
        assert gmax_bound_check(ag), (ag.adjacency, ag.multiplicities)


@reported("10 (property suites)")
def test_criterion_10_property_suites():
    # Dhar versus exhaustive strategy search
    small = [row_game(fixtures.t3()), row_game(fixtures.b2()),
             row_game(fixtures.p3()), row_game(fixtures.k4u()),
             chip_game(fixtures.two_vertex(2, 3)),
             chip_game(fixtures.cycle_mult(3)), chip_game(fixtures.ec(2))]
    for game in small:
        for d in sandpile_box(game, 0, slack=1, base_values=(-1, 0)):
            assert is_reduced(game, 0, d) == oracle.reduced_bruteforce(game, 0, d)

    # r0 reduced representatives per class
    for game, r0 in ((row_game(fixtures.b2()), 2),
                     (chip_game(fixtures.ex_b()), 2),
                     (chip_game(fixtures.ec(2)), 1)):
        reps = all_reduced_representatives(
            game, 0, tuple([-1] + [0] * (game.n_vertices - 1))
        )
        assert len(reps) == r0

    # recurrence duality against the bounded reachability oracle
    for game in small[:4]:
        for d in sandpile_box(game, 0, slack=0, base_values=(0,)):
            assert is_recurrent(game, 0, d) == oracle.is_recurrent_oracle(game, 0, d, 3)

    # stabilization order-independence, 200 random schedules
    rng = random.Random(41)
    game = row_game(fixtures.k4u())
    for _ in range(200):
        d = tuple(rng.randint(0, 8) if v else 0 for v in range(4))
        stable, _ = stabilize(game, 0, d)
        cur = list(d)
        while True:
            hot = [v for v in range(1, 4) if cur[v] >= game.threshold(v)]
            if not hot:
                break
            v = rng.choice(hot)
            for i in range(4):
                cur[i] -= game.firing_rows[v][i]
        assert tuple(cur) == stable

    # rank agreement across the three computations
    for game in (row_game(fixtures.t3()), chip_game(fixtures.two_vertex(2, 3))):
        ex = enumerate_extremes(game, 0)
        for d in divisor_box(game.n_vertices, 2):
            r = rank(game, 0, d)
            got = oracle.rank_bruteforce(game, 0, d, box=3)
            if got != r:
                got = oracle.rank_bruteforce(game, 0, d, box=6)
            assert r == got
            via = oracle.rank_via_extremes(game, 0, d, 3, extremes=ex)
            if via != r:
                via = oracle.rank_via_extremes(game, 0, d, 8, extremes=ex)
            assert r == via

    # good representation window, all coprime pairs with r0 <= 40
    from math import gcd
    for r0 in range(2, 41):
        for r1 in range(1, r0):
            if gcd(r0, r1) != 1:
                continue
            assert good_representation(r0, r1, -1) is None
            assert good_representation(r0, r1, r0) is None
            for x in range(r0):
                assert good_representation(r0, r1, x) is not None

    # scaling bridge and canonical transport
    for ag in (fixtures.ec(2), fixtures.star(3, 2)):
        game = chip_game(ag)
        assert scaling_bridge(game, 0)
        from chipfire.games import scaled_game
        scaled = scaled_game(game)
        k_scaled = rr_verdict(scaled, 0).canonical
        pulled = transport_canonical(game.weight, k_scaled)
        assert pulled is not None
        assert equivalent(game.lattice, pulled, rr_verdict(game, 0).canonical)

    # column-game Riemann-Roch on associated digraphs
    from chipfire.arithmetical import column_rr_always
    for ag in (fixtures.ex_a(), fixtures.ex_b(), fixtures.ex_c(),
               fixtures.ec(2), fixtures.ec(3),
               fixtures.two_vertex(2, 3), fixtures.cycle_mult(3),
               fixtures.star(3, 2)):
        assert column_rr_always(ag, 0)


@reported("abstract (either, both, or neither)")
def test_abstract_four_verdicts():
    """The abstract's four cases, each named by a library fixture."""
    cases = {
        "neither": fixtures.ex_a(),
        "reflection only": fixtures.ex_c(),
        "uniform only": fixtures.uniform_only(),
        "both": fixtures.ex_b(),
    }
    verdicts = {}
    for name, ag in cases.items():
        report = rr_verdict(chip_game(ag), 0)
        verdicts[name] = (report.uniform, report.reflection_invariant)
    assert verdicts == {
        "neither": (False, False),
        "reflection only": (False, True),
        "uniform only": (True, False),
        "both": (True, True),
    }
