import random
from fractions import Fraction
from itertools import product
from math import gcd

import pytest

from chipfire import fixtures, oracle, riemann_roch
from chipfire.arithmetical import associated_digraph, chip_game
from chipfire.divisor_algebra import degree, equivalent
from chipfire.errors import BudgetExceeded, DimensionError
from chipfire.games import Game, column_game, row_game, scaled_game
from chipfire.rank_extremes import (
    _classes_of_degree,
    _classes_per_degree,
    _effective_classes_by_degree,
    enumerate_extremes,
    rank,
)
from chipfire.riemann_roch import (
    canonical_inequality_check,
    crit_points,
    delta_distance,
    natural_divisor,
    project,
    reflection_invariant,
    rr_formula_check,
    rr_verdict,
    scaling_bridge,
    transport_canonical,
)

from conftest import random_arithmetical, uniform_only


ALL_CHIP_GAMES = [
    ("ex_a", chip_game(fixtures.ex_a())),
    ("ex_b", chip_game(fixtures.ex_b())),
    ("ex_c", chip_game(fixtures.ex_c())),
    ("ec(2)", chip_game(fixtures.ec(2))),
    ("two_vertex(2,3)", chip_game(fixtures.two_vertex(2, 3))),
    ("cycle_mult(4)", chip_game(fixtures.cycle_mult(4))),
    ("star(3,2)", chip_game(fixtures.star(3, 2))),
]


def test_project_lands_in_orthogonal_complement():
    weight = (1, 2, 1, 2)
    p = project(weight, (3, 0, -1, 5))
    assert sum(w * x for w, x in zip(weight, p)) == 0


def test_project_fixes_orthogonal_vectors():
    weight = (1, 2)
    point = (Fraction(2), Fraction(-1))
    assert project(weight, point) == point


@pytest.mark.parametrize("name,game", ALL_CHIP_GAMES)
def test_crit_points_are_orthogonal_to_weight(name, game):
    report = rr_verdict(game, 0)
    for p in crit_points(report.extremes, game.weight):
        assert sum(w * x for w, x in zip(game.weight, p)) == 0


def test_delta_distance_gauge_properties():
    """Asymmetric gauge max_i (q_i - p_i) / r_i: vanishes on the diagonal,
    translation invariant, satisfies the directed triangle inequality."""
    w = (1, 2, 3)
    p = (Fraction(0), Fraction(0), Fraction(0))
    q = (Fraction(1), Fraction(-1), Fraction(0))
    r = (Fraction(2), Fraction(0), Fraction(-1))
    t = (Fraction(5), Fraction(-2), Fraction(1))
    assert delta_distance(w, p, p) == 0
    shifted = lambda a: tuple(x + y for x, y in zip(a, t))
    assert delta_distance(w, shifted(p), shifted(q)) == delta_distance(w, p, q)
    assert (delta_distance(w, p, r)
            <= delta_distance(w, p, q) + delta_distance(w, q, r))
    assert delta_distance(w, p, q) == Fraction(1)
    assert delta_distance(w, q, p) == Fraction(1, 2)


def test_delta_distance_rejects_mismatched_dimensions():
    with pytest.raises(DimensionError):
        delta_distance((1, 1, 1), (0, 0, 0), (5,))
    with pytest.raises(DimensionError):
        delta_distance((1, 1), (0, 0, 0), (5, 0, 0))


def _match_translation(points, lattice, translation):
    """Reference: the matching sigma with -p_i - v - p_sigma(i) in the
    lattice, if any, by exact membership tests (the earlier implementation)."""
    sigma = []
    for p in points:
        target = [-a - v for a, v in zip(p, translation)]
        hit = None
        for j, q in enumerate(points):
            if lattice.contains([t - b for t, b in zip(target, q)]):
                hit = j
                break
        if hit is None:
            return None
        sigma.append(hit)
    if sorted(sigma) != list(range(len(points))):
        return None
    return tuple(sigma)


def _reflection_reference(extremes, lattice, weight):
    points = crit_points(extremes, weight)
    p0 = points[0]
    for q in points:
        translation = tuple(-a - b for a, b in zip(p0, q))
        sigma = _match_translation(points, lattice, translation)
        if sigma is not None:
            return True, translation, sigma
    return False, None, None


def _reflection_cases():
    cases = list(ALL_CHIP_GAMES)
    cases.append(("uniform only", chip_game(uniform_only())))
    for name, g in (
        ("ex_b", associated_digraph(fixtures.ex_b())),
        ("k4u", fixtures.k4u()),
        ("uniform only", associated_digraph(uniform_only())),
    ):
        cases += [(f"row {name}", row_game(g)), (f"column {name}", column_game(g))]
    rng = random.Random(20261018)
    for i in range(12):
        cases.append((f"random {i}", chip_game(random_arithmetical(rng))))
    return cases


def test_reflection_invariant_matches_membership_reference():
    """The residue lookups give the flag, witness and matching of the
    membership scan, on invariant and non-invariant lattices alike."""
    flags = set()
    for name, game in _reflection_cases():
        extremes = enumerate_extremes(game, 0)
        got = reflection_invariant(extremes, game.lattice, game.weight)
        assert got == _reflection_reference(extremes, game.lattice, game.weight), name
        flags.add(got[0])
    assert flags == {True, False}


def test_verdicts_on_worked_examples():
    """Derived verdicts.  The subdivided-K4 example is genuinely reflection
    invariant (checked against the rank formula below), although it was
    originally reported otherwise."""
    a = rr_verdict(chip_game(fixtures.ex_a()), 0)
    assert (a.uniform, a.reflection_invariant, a.rr_property) == (False, False, False)
    assert a.canonical is None

    b = rr_verdict(chip_game(fixtures.ex_b()), 0)
    assert (b.uniform, b.reflection_invariant, b.rr_property) == (True, True, True)
    assert b.g == 5

    c = rr_verdict(chip_game(fixtures.ex_c()), 0)
    assert (c.uniform, c.reflection_invariant, c.rr_property) == (False, True, False)
    assert c.canonical is not None


def test_uniform_only_verdict_is_certified():
    """Uniform with g = 12 but not reflection invariant at base 0.  Each
    class's reduced representatives are reduced by brute force and none is
    effective, so the class is in Sigma; every one-chip bump has an effective
    translate; the membership reference finds no translation."""
    game = chip_game(uniform_only())
    report = rr_verdict(game, 0)
    assert (report.uniform, report.reflection_invariant, report.rr_property) == (True, False, False)
    assert report.g == 12 and len(report.extremes.classes) == 3
    for cls in report.extremes.classes:
        assert cls.degree == 11
        assert all(oracle.reduced_bruteforce(game, 0, rep) for rep in cls.all_reps)
        assert all(min(rep) < 0 for rep in cls.all_reps)
        for v in range(game.n_vertices):
            bump = tuple(x + (u == v) for u, x in enumerate(cls.rep))
            assert oracle.effective_bruteforce(game, bump, 3), (cls.rep, v)
    assert _reflection_reference(report.extremes, game.lattice, game.weight)[0] is False


def test_exb_rr_formula_holds():
    game = chip_game(fixtures.ex_b())
    report = rr_verdict(game, 0)
    assert rr_formula_check(game, 0, report)


def test_reflection_witness_replay():
    """If invariance is reported, every crit point must pair off with another
    one under p -> -p - v, modulo the lattice, bijectively."""
    for name, game in ALL_CHIP_GAMES:
        report = rr_verdict(game, 0)
        if not report.reflection_invariant:
            continue
        points = crit_points(report.extremes, game.weight)
        v = report.reflection_witness
        matched = set()
        for i, p in enumerate(points):
            partners = [
                j for j, q in enumerate(points)
                if game.lattice.contains(
                    tuple(-a - b - c for a, b, c in zip(p, v, q))
                )
            ]
            assert partners, (name, i)
            matched.add(partners[0])
        assert len(matched) == len(points)


def test_exc_witness_is_minus_p1_minus_p2():
    game = chip_game(fixtures.ex_c())
    report = rr_verdict(game, 0)
    points = crit_points(report.extremes, game.weight)
    assert len(points) == 2
    want = tuple(-(a + b) for a, b in zip(points[0], points[1]))
    assert report.reflection_witness == want


def test_exc_canonical_inequality():
    game = chip_game(fixtures.ex_c())
    report = rr_verdict(game, 0)
    assert canonical_inequality_check(game, 0, report)


def test_inequality_window_reaches_below_0_and_above_2t(monkeypatch):
    """On ex_c, 2T = 22 while deg K = 21, and a canonical moved to a class of
    degree 24 lies past 2T: the check asks for the classes of every degree
    of [min(0, deg K - 2T), max(2T, deg K)], not only of [0, 2T].  With no
    classes handed back every degree is reached, whatever the ranks say."""
    game = chip_game(fixtures.ex_c())
    report = rr_verdict(game, 0)
    g_max = report.extremes.g_max
    top = 2 * g_max - 2
    moved = next(_classes_of_degree(game, g_max, 24))
    asked = []
    monkeypatch.setattr(
        riemann_roch, "_classes_of_degree", lambda game, g_max, d: asked.append(d) or ()
    )
    for canonical, window in ((report.canonical, range(-1, 23)), (moved, range(0, 25))):
        deg_k = degree(game.weight, canonical)
        assert range(min(0, deg_k - top), max(top, deg_k) + 1, gcd(*game.weight)) == window
        asked.clear()
        assert canonical_inequality_check(game, 0, report._replace(canonical=canonical))
        assert asked == list(window)


def _box_rank_differences(game, canonical, radius):
    """The sampler the window replaced: (deg D, r(D) - r(K - D)) for one D
    per lattice residue in the (2 radius + 1)^n box, at base 0."""
    seen = set()
    for entries in product(range(-radius, radius + 1), repeat=game.n_vertices):
        res = game.lattice.residue(entries)
        if res not in seen:
            seen.add(res)
            diff = rank(game, 0, res) - rank(game, 0, tuple(a - b for a, b in zip(canonical, res)))
            yield degree(game.weight, res), diff


def _box_verdicts(game, report, radius=2):
    """(formula on the box or None, inequality on the box)."""
    g_min, g_max = report.extremes.g_min, report.extremes.g_max
    pairs = list(_box_rank_differences(game, report.canonical, radius))
    formula = all(diff == deg - report.g + 1 for deg, diff in pairs) if report.rr_property else None
    inequality = all(deg - 3 * g_max + 2 * g_min + 1 <= diff <= deg - g_min + 1
                     for deg, diff in pairs)
    return formula, inequality


WINDOW_CASES = [
    ("ec(2)", chip_game(fixtures.ec(2))),
    ("ec(3)", chip_game(fixtures.ec(3))),
    ("ec(4)", chip_game(fixtures.ec(4))),
    ("k4u", row_game(fixtures.k4u())),
    ("p3", row_game(fixtures.p3())),
    ("ex_b", chip_game(fixtures.ex_b())),
    ("ex_c", chip_game(fixtures.ex_c())),
]


@pytest.mark.parametrize("name,game", WINDOW_CASES, ids=[n for n, _ in WINDOW_CASES])
def test_window_checks_agree_with_the_box_sampler(name, game):
    report = rr_verdict(game, 0)
    assert report.reflection_invariant
    formula = rr_formula_check(game, 0, report) if report.rr_property else None
    inequality = canonical_inequality_check(game, 0, report)
    assert (formula, inequality) == _box_verdicts(game, report)
    assert formula is not False and inequality is True


def test_window_checks_hold_on_star_5_3():
    """5^16 points in a radius-2 box; 1,375 classes in the window."""
    game = chip_game(fixtures.star(5, 3))
    report = rr_verdict(game, 0)
    assert report.rr_property and report.g == 6
    assert rr_formula_check(game, 0, report)
    assert canonical_inequality_check(game, 0, report)
    with pytest.raises(BudgetExceeded, match="degree window 0..10 holds 1375 classes"):
        rr_formula_check(game, 0, report, budget=1374)


def test_window_checks_refute_a_wrong_canonical_or_genus():
    """K + e_0 - e_1 has the canonical degree but not its class."""
    game = row_game(fixtures.k4u())
    report = rr_verdict(game, 0)
    moved = tuple(k + (v == 0) - (v == 1) for v, k in enumerate(report.canonical))
    assert not equivalent(game.lattice, moved, report.canonical)
    wrong = report._replace(canonical=moved)
    assert not rr_formula_check(game, 0, wrong)
    assert not canonical_inequality_check(game, 0, wrong)
    assert _box_verdicts(game, wrong) == (False, False)
    for g in (report.g - 1, report.g + 1):
        assert not rr_formula_check(game, 0, report._replace(g=g))


def _wide_verdicts(game, report, canonical, margin=8):
    """Both properties on every class of a window `margin` degrees wider on
    each side than the checks' own, for a canonical moved anywhere."""
    g_min, g_max = report.extremes.g_min, report.extremes.g_max
    deg_k = degree(game.weight, canonical)
    formula = True if report.rr_property else None
    inequality = True
    for d in range(min(0, deg_k - 2 * g_max + 2) - margin, max(2 * g_max - 2, deg_k) + margin + 1):
        for res in _classes_of_degree(game, g_max, d):
            diff = rank(game, 0, res) - rank(game, 0, tuple(a - b for a, b in zip(canonical, res)))
            formula = formula and diff == d - report.g + 1
            inequality = inequality and d - 3 * g_max + 2 * g_min + 1 <= diff <= d - g_min + 1
    return formula, inequality


MOVED_CASES = [
    ("t3", row_game(fixtures.t3())),
    ("p3", row_game(fixtures.p3())),
    ("k4u", row_game(fixtures.k4u())),
    ("ec(2)", chip_game(fixtures.ec(2))),
    ("two_vertex(2,3)", chip_game(fixtures.two_vertex(2, 3))),
    ("ex_c", chip_game(fixtures.ex_c())),
]


@pytest.mark.parametrize("name,game", MOVED_CASES, ids=[n for n, _ in MOVED_CASES])
def test_window_checks_match_a_wider_window_for_any_canonical(name, game):
    """Every class of degree deg K - 6 .. deg K + 6 as the canonical: the
    checks' verdicts, with the condition on deg K, are those of a wider
    window, so the closed forms outside it hold."""
    report = rr_verdict(game, 0)
    deg_k = degree(game.weight, report.canonical)
    verdicts = set()
    for d in range(deg_k - 6, deg_k + 7):
        for canonical in _classes_of_degree(game, report.extremes.g_max, d):
            moved = report._replace(canonical=canonical)
            got = (
                rr_formula_check(game, 0, moved) if report.rr_property else None,
                canonical_inequality_check(game, 0, moved),
            )
            assert got == _wide_verdicts(game, report, canonical), canonical
            verdicts.add(got[1])
    assert verdicts == {True, False}


def test_window_checks_reject_a_negative_budget():
    game = chip_game(fixtures.ex_b())
    report = rr_verdict(game, 0)
    for check in (rr_formula_check, canonical_inequality_check):
        with pytest.raises(ValueError, match="budget must be nonnegative, got -1"):
            check(game, 0, report, budget=-1)


def _doubled_weight(game):
    return Game(game.firing_rows, game.period, tuple(2 * w for w in game.weight))


CLASS_CASES = WINDOW_CASES[3:] + [
    ("col(ex_b)", column_game(associated_digraph(fixtures.ex_b()))),
    ("2w(ex_b)", _doubled_weight(chip_game(fixtures.ex_b()))),
    ("uniform_only", chip_game(uniform_only())),
]


@pytest.mark.parametrize("name,game", CLASS_CASES, ids=[n for n, _ in CLASS_CASES])
def test_classes_of_degree_are_every_class_once(name, game):
    """Each attainable degree yields its classes-per-degree count of
    distinct residues of that degree, whether the shift to a full table
    degree adds chips or removes them; a full table degree holds as many."""
    extremes = enumerate_extremes(game, 0)
    step = gcd(*game.weight)
    per_degree = _classes_per_degree(game)
    assert len(_effective_classes_by_degree(game, extremes.g_max * step)) == per_degree
    for d in range(-3 * step, extremes.g_max + 2 * max(game.weight), step):
        classes = list(_classes_of_degree(game, extremes.g_max, d))
        assert len(set(classes)) == len(classes) == per_degree, d
        assert all(game.lattice.residue(c) == c and degree(game.weight, c) == d for c in classes)


def test_canonical_degree_is_2g_minus_2():
    for name, game in ALL_CHIP_GAMES:
        report = rr_verdict(game, 0)
        if report.rr_property:
            assert degree(game.weight, report.canonical) == 2 * report.g - 2, name


def test_natural_divisor_entries():
    game = chip_game(fixtures.ec(2))
    assert natural_divisor(game) == (2, -1, 2, -1)


def test_natural_rr_on_unit_weight_graphs():
    """With all weights 1 the chip game is the classical one and the natural
    divisor is canonical."""
    for g in (fixtures.k4u(), fixtures.p3()):
        game = row_game(g)
        report = rr_verdict(game, 0)
        assert report.rr_property
        assert report.natural_rr
        assert equivalent(game.lattice, report.canonical, natural_divisor(game))


def test_transport_canonical_values():
    assert transport_canonical((1, 2), (0, 4)) == (0, 1)
    assert transport_canonical((1, 2), (0, 3)) is None
    assert transport_canonical((1, 1, 1), (2, 0, -1)) == (2, 0, -1)


def test_scaling_bridge_on_small_fixtures():
    for ag in (fixtures.ec(2), fixtures.star(3, 2)):
        game = chip_game(ag)
        assert scaling_bridge(game, 0)


def test_scaled_game_preserves_verdict_fields():
    game = chip_game(fixtures.ec(2))
    scaled = scaled_game(game)
    r1 = rr_verdict(game, 0)
    r2 = rr_verdict(scaled, 0)
    assert r1.rr_property == r2.rr_property
    assert r1.uniform == r2.uniform
    assert len(r1.extremes.classes) == len(r2.extremes.classes)
