"""Reference checks for every answer, computed outside the code path under test.

Lattice questions are settled by ``ExactLattice``, which solves f F = z over
the rationals; it shares no code with chipfire's Hermite-form lattice.  The
brute-force oracles, ``staircase_divisors`` and closed-form invariants of the
paper supply the rest.  Each checker returns a list of problems per op; an
empty list means the answer is correct.
"""

import json
from fractions import Fraction
from math import gcd

from workloads import LADDER, make_game, make_graph

# reduced_bruteforce is used where the valid strategies number at most this:
# k4u has 8 and ex_b 1,280; ec(5), with 3,888, would make the check take
# seconds per run.
ORACLE_STRATEGIES = 1_300
# Reference verdicts for the cli-queries graphs that get rr-check requests;
# any other graph gets the checks every report must pass.
RR_CHECK_KINDS = {"k4u": "unit", "ex_b": "ex_b"}


def _inverse(matrix):
    """Inverse of a square rational matrix by Gauss-Jordan elimination."""
    k = len(matrix)
    aug = [list(row) + [Fraction(int(i == j)) for j in range(k)] for i, row in enumerate(matrix)]
    for col in range(k):
        pivot = next(r for r in range(col, k) if aug[r][col] != 0)
        aug[col], aug[pivot] = aug[pivot], aug[col]
        inv = 1 / aug[col][col]
        aug[col] = [x * inv for x in aug[col]]
        for r in range(k):
            if r != col and aug[r][col] != 0:
                factor = aug[r][col]
                aug[r] = [a - factor * b for a, b in zip(aug[r], aug[col])]
    return [row[k:] for row in aug]


class ExactLattice:
    """The integer row span of a firing matrix F whose left kernel is spanned
    by the period S, by exact rational solving.

    Every rational solution of f F = z is f0 + t S, where f0 has f0[base] = 0;
    an integral one exists iff some t = k / S[base], 0 <= k < S[base], makes
    f0 + t S integral.
    """

    def __init__(self, rows, period, base=0):
        self.rows = [list(r) for r in rows]
        self.period = list(period)
        self.base = base
        self.others = [v for v in range(len(rows)) if v != base]
        self.inv = _inverse(
            [[Fraction(self.rows[j][i]) for i in self.others] for j in self.others]
        )

    def solve(self, z):
        """Rational f with f[base] = 0 and f F = z, or None if there is none."""
        zo = [z[i] for i in self.others]
        k = len(zo)
        f = [Fraction(0)] * len(z)
        for r in range(k):
            f[self.others[r]] = sum(zo[c] * self.inv[c][r] for c in range(k))
        n = len(z)
        if any(sum(f[j] * self.rows[j][i] for j in range(n)) != z[i] for i in range(n)):
            return None
        return f

    def _shifted(self, f, k):
        sb = self.period[self.base]
        return [fi + Fraction(k * s, sb) for fi, s in zip(f, self.period)]

    def contains(self, z):
        f = self.solve(z)
        return f is not None and any(
            all(x.denominator == 1 for x in self._shifted(f, k))
            for k in range(self.period[self.base])
        )

    def key(self, z):
        """A canonical key of the class of z (which must lie in the row space)."""
        f = self.solve(z)
        if f is None:
            raise ValueError("vector is not in the rational row space")
        return frozenset(
            tuple(x % 1 for x in self._shifted(f, k)) for k in range(self.period[self.base])
        )

    def strategy(self, z, base_count):
        """The integral f with f F = z and f[base] = base_count, or None."""
        f = self.solve(z)
        if f is None:
            return None
        f = self._shifted(f, base_count)
        return [int(x) for x in f] if all(x.denominator == 1 for x in f) else None


def _dot(a, b):
    return sum(x * y for x, y in zip(a, b))


def _sub(a, b):
    return [x - y for x, y in zip(a, b)]


def _effective_of_degree(weight, target, prefix=()):
    idx = len(prefix)
    if idx == len(weight) - 1:
        q, r = divmod(target, weight[idx])
        if r == 0:
            yield list(prefix) + [q]
        return
    for e in range(target // weight[idx] + 1):
        yield from _effective_of_degree(weight, target - e * weight[idx], prefix + (e,))


class Facts:
    """What the checks need about one game: F, S, w and an exact lattice."""

    def __init__(self, game, graph=None):
        self.game = game
        self.graph = graph
        self.rows = [list(r) for r in game.firing_rows]
        self.period = list(game.period)
        self.weight = list(game.weight)
        self.n = game.n_vertices
        self.lattice = ExactLattice(self.rows, self.period)
        self._eff = {}
        strategies = 1
        for v in range(1, self.n):
            strategies *= self.period[v] + 1
        self.small = strategies <= ORACLE_STRATEGIES

    def fire(self, d, f):
        """D - f F."""
        return [d[i] - sum(f[j] * self.rows[j][i] for j in range(self.n)) for i in range(self.n)]

    def threshold(self, v):
        return self.rows[v][v]

    def in_sigma(self, x):
        """True iff x is not equivalent to an effective divisor."""
        m = _dot(x, self.weight)
        if m < 0:
            return True
        if m not in self._eff:
            divisors = list(_effective_of_degree(self.weight, m))
            ref = divisors[0] if divisors else None
            keys = {self.lattice.key(_sub(e, ref)) for e in divisors}
            self._eff[m] = (ref, keys)
        ref, keys = self._eff[m]
        return ref is None or self.lattice.key(_sub(x, ref)) not in keys

    def rank(self, d):
        """Rank by definition: least weighted degree of an effective E with
        D - E in Sigma, minus one."""
        if self.in_sigma(d):
            return -1
        k = 0
        while True:
            k += 1
            if any(self.in_sigma(_sub(d, e)) for e in _effective_of_degree(self.weight, k)):
                return k - 1


def g0_formula(ag):
    """2 g0 - 2 = sum_i r_i (delta_i - 2), with delta_i r_i = sum_j A_ij r_j."""
    r = ag.multiplicities
    n = len(r)
    total = sum(sum(ag.adjacency[i][j] * r[j] for j in range(n)) - 2 * r[i] for i in range(n))
    return total // 2 + 1


def check_report(ans, facts):
    """Consistency every Riemann-Roch report must have, whatever the graph."""
    problems = []
    classes = ans["classes"]
    if not classes:
        return ["no extreme classes"]
    degrees = [deg for _, deg, _ in classes]
    if any(_dot(rep, facts.weight) != deg for rep, deg, _ in classes):
        problems.append("class degree differs from w.rep")
    if (ans["g_min"], ans["g_max"]) != (min(degrees) + 1, max(degrees) + 1):
        problems.append("g_min/g_max differ from class degrees")
    if ans["uniform"] != (ans["g_min"] == ans["g_max"]):
        problems.append("uniform flag differs from g_min == g_max")
    if ans["rr"] != (ans["uniform"] and ans["reflection_invariant"]):
        problems.append("rr differs from uniform and reflection invariant")
    if any(n_reps != facts.period[0] for _, _, n_reps in classes):
        problems.append("a class does not have S[base] reduced representatives")
    by_degree = {}
    for rep, deg, _ in classes:
        ref = by_degree.setdefault(deg, (rep, set()))[0]
        by_degree[deg][1].add(facts.lattice.key(_sub(rep, ref)))
    if sum(len(keys) for _, keys in by_degree.values()) != len(classes):
        problems.append("two listed classes are equivalent")
    if ans["rr"]:
        if ans["g"] != ans["g_min"]:
            problems.append("g differs from g_min")
        elif _dot(ans["canonical"], facts.weight) != 2 * ans["g"] - 2:
            problems.append("deg K != 2g - 2")
    return problems


def check_rung(kind, ans, facts, extra):
    """The per-graph reference verdicts."""
    problems = check_report(ans, facts)
    degrees = sorted(deg for _, deg, _ in ans["classes"])
    graph = facts.graph
    if kind == "unit":
        n_edges = sum(map(sum, graph.arcs)) // 2
        natural = [facts.threshold(v) - 2 for v in range(facts.n)]
        if not ans["rr"] or ans["g"] != n_edges - graph.n_vertices + 1:
            problems.append("unit-weight graph: expected RR with g = |E| - |V| + 1")
        elif not facts.lattice.contains(_sub(ans["canonical"], natural)):
            problems.append("unit-weight graph: K is not the natural canonical divisor")
    elif kind == "ex_a":
        if degrees != [2, 2, 3] or ans["uniform"] or ans["reflection_invariant"]:
            problems.append("ex_a: expected degrees [2,2,3], not uniform, not reflection invariant")
    elif kind == "ex_c":
        if (
            degrees != [10, 11]
            or (ans["g_min"], ans["g_max"]) != (11, 12)
            or ans["uniform"]
            or not ans["reflection_invariant"]
        ):
            problems.append("ex_c: expected degrees [10,11], g 11..12, reflection invariant")
    elif kind == "ec":
        n = facts.n
        expected = sorted(
            [-1 if v == 0 else int(v == 2 * i) for v in range(n)] for i in range(1, n // 2)
        )
        if not (ans["rr"] and ans["g_min"] == ans["g_max"] == 1):
            problems.append("ec(n): expected RR with g = 1")
        if sorted(rep for rep, _, _ in ans["classes"]) != expected:
            problems.append("ec(n): extreme representatives differ")
    elif kind == "star":
        r0, r1 = extra["star"]
        g = r0 * (r0 - 3) // 2 + 1
        if not (ans["rr"] and ans["g_min"] == ans["g_max"] == g == g0_formula(graph)):
            problems.append(f"star: expected RR with g = g0 = {g}")
        else:
            stairs = extra["staircases"]
            ref = stairs[0]
            want = {facts.lattice.key(_sub(s, ref)) for s in stairs}
            got = {facts.lattice.key(_sub(rep, ref)) for rep, _, _ in ans["classes"]}
            if want != got:
                problems.append("star: extreme classes differ from the staircase classes")
    elif kind == "ex_b":
        if not ans["uniform"] or ans["g_max"] > g0_formula(graph):
            problems.append("ex_b: expected uniform with g_max <= g0")
        partner = extra.get("row(ex_b)")
        if partner is not None and partner["rr"] != ans["rr"]:
            problems.append("ex_b: verdict differs from its scaled game, the row game of the associated digraph")
    elif kind == "assoc_column":
        if not ans["rr"]:
            problems.append("column game of an associated digraph must have RR")
    elif kind == "assoc_row":
        partner = extra.get("ex_b")
        if partner is not None and partner["rr"] != ans["rr"]:
            problems.append("row game of the associated digraph: verdict differs from the chip game")
    return problems


def verify_rr_ladder(spec, refs, answers):
    from chipfire.arithmetical import staircase_divisors

    kinds = {gid: kind for gid, _, kind in LADDER}
    by_gid = {gid: ans for gid, ans in zip(spec["ops"], answers) if ans is not None}
    out = {}
    for i, (gid, ans) in enumerate(zip(spec["ops"], answers)):
        if ans is None:
            continue
        desc = spec["games"][gid]
        graph = make_graph(desc)
        facts = Facts(make_game(desc, graph), graph)
        extra = dict(by_gid)
        if kinds[gid] == "star":
            r0, r1 = desc["args"]
            extra["star"] = (r0, r1)
            extra["staircases"] = [list(s) for s in staircase_divisors(graph, r0, r1)]
        out[i] = check_rung(kinds[gid], ans, facts, extra)
    return out


def verify_rank_sweep(spec, refs, answers):
    from chipfire import oracle

    out = {}
    for p, (gid, deg, g) in enumerate(refs["pairs"]):
        r_d, r_kd = answers[2 * p], answers[2 * p + 1]
        if r_d is None or r_kd is None:
            continue
        problems = []
        if not (isinstance(r_d, int) and isinstance(r_kd, int) and r_d >= -1 and r_kd >= -1):
            problems.append("rank is not an integer >= -1")
        elif r_d - r_kd != deg - g + 1:
            problems.append(f"r(D) - r(K-D) = {r_d - r_kd}, deg D - g + 1 = {deg - g + 1}")
        elif deg < 0 and r_d != -1:
            problems.append("negative degree with rank >= 0")
        out[2 * p] = out[2 * p + 1] = problems
    games = {}
    for i in refs["oracle_ops"]:
        gid, divisor = spec["ops"][i]
        if answers[i] is None:
            continue
        game = games.setdefault(gid, make_game(spec["games"][gid]))
        want = oracle.rank_bruteforce(game, 0, tuple(divisor), box=3)
        if want != answers[i]:
            want = oracle.rank_bruteforce(game, 0, tuple(divisor), box=6)
        if want != answers[i]:
            out[i] = out.get(i, []) + [f"rank {answers[i]}, brute-force oracle {want}"]
    return out


def _check_info(out, facts):
    graph = facts.graph
    n = graph.n_vertices
    if "multiplicities" in out and hasattr(graph, "multiplicities"):
        r = list(graph.multiplicities)
        deltas = out["deltas"]
        ok = out["multiplicities"] == r and all(
            deltas[i] * r[i] == sum(graph.adjacency[i][j] * r[j] for j in range(n))
            for i in range(n)
        )
        return [] if ok and out["g0"] == g0_formula(graph) else ["info: arithmetical data wrong"]
    r = out.get("period_vector")
    q = [[sum(graph.arcs[i]) if i == j else -graph.arcs[i][j] for j in range(n)] for i in range(n)]
    problems = []
    if out["out_degrees"] != [sum(row) for row in graph.arcs] or not out["strongly_connected"]:
        problems.append("info: out-degrees or connectivity wrong")
    if r is None or any(x <= 0 for x in r) or gcd(*r) != 1:
        problems.append("info: period vector is not primitive and positive")
    elif any(sum(r[i] * q[i][j] for i in range(n)) for j in range(n)):
        problems.append("info: Q^T R != 0")
    return problems


def _oracle_reduced(facts, divisor):
    from chipfire import oracle

    return oracle.reduced_bruteforce(facts.game, 0, tuple(divisor))


def check_request(kind, d, code, out, facts, extra):
    if code != 0:
        return [f"exit code {code}"]
    n = facts.n
    if kind == "info":
        return _check_info(out, facts)
    if kind == "reduce":
        reduced = out["reduced"]
        problems = []
        if facts.fire(d, out["strategy"]) != reduced:
            problems.append("reduce: D - f F != result")
        if any(reduced[v] < 0 for v in range(1, n)):
            problems.append("reduce: result in debt off the base")
        elif facts.small and not _oracle_reduced(facts, reduced):
            problems.append("reduce: brute-force oracle says the result is not reduced")
        return problems
    if kind == "dhar":
        problems = []
        terminal, witnesses = out["terminal"], out["witnesses"]
        sb = facts.period[0]
        if out["reduced"] != (not any(terminal)):
            problems.append("dhar: reduced flag disagrees with the terminal strategy")
        if any(not 0 <= t <= s for t, s in zip(terminal, facts.period)):
            problems.append("dhar: terminal strategy outside [0, S]")
        if len(witnesses) != sb:
            problems.append("dhar: expected S[base] reduced witnesses")
        else:
            for j in sorted({0, sb // 2, sb - 1}):
                w = witnesses[j]
                f = facts.lattice.strategy(_sub(d, w), sb - j)
                if any(w[v] < 0 for v in range(1, n)) or f is None or any(
                    not 0 <= x <= s for x, s in zip(f, facts.period)
                ):
                    problems.append(f"dhar: witness {j} is not D - f F with 0 <= f <= S")
        if facts.small and out["reduced"] != _oracle_reduced(facts, d):
            problems.append("dhar: brute-force oracle disagrees on reducedness")
        return problems
    if kind == "sandpile-stabilize":
        stable, fired = out["stable"], out["fired"]
        problems = []
        if facts.fire(d, fired) != stable or min(fired) < 0:
            problems.append("stabilize: D - f F != result")
        if any(not 0 <= stable[v] < facts.threshold(v) for v in range(1, n)):
            problems.append("stabilize: result is not stable")
        return problems
    if kind == "sandpile-recurrent":
        if not isinstance(out["recurrent"], bool):
            return ["recurrent: not a boolean"]
        if facts.small:
            dual = [facts.threshold(v) - 1 - d[v] for v in range(n)]
            if out["recurrent"] != _oracle_reduced(facts, dual):
                return ["recurrent: brute-force oracle disagrees"]
        return []
    if kind == "rank":
        want = facts.rank(d)
        return [] if out["rank"] == want else [f"rank {out['rank']}, reference {want}"]
    report = {
        **out,
        "g": out.get("g"),
        "canonical": out.get("canonical"),
        "classes": [[c["rep"], c["degree"], len(c["all_reps"])] for c in out["classes"]],
    }
    return check_rung(extra["kind"], report, facts, extra)


def verify_cli_queries(spec, refs, answers):
    facts, extra = {}, {}
    for gid, desc in spec["games"].items():
        graph = make_graph(desc)
        facts[gid] = Facts(make_game(desc, graph), graph)
        extra[gid] = {"kind": RR_CHECK_KINDS.get(gid)}
    out, memo = {}, {}
    for i, ((kind, gid, d), ans) in enumerate(zip(refs["requests"], answers)):
        if ans is None:
            continue
        key = (kind, gid, None if d is None else tuple(d), ans[0], ans[1])
        if key not in memo:
            code, stdout = ans
            try:
                parsed = json.loads(stdout) if code == 0 else None
                memo[key] = check_request(kind, d, code, parsed, facts[gid], extra[gid])
            except (ValueError, KeyError, TypeError, IndexError, AttributeError) as exc:
                memo[key] = [f"malformed output: {type(exc).__name__}: {exc}"]
        out[i] = memo[key]
    return out


VERIFIERS = {
    "rr-ladder": verify_rr_ladder,
    "rank-sweep": verify_rank_sweep,
    "cli-queries": verify_cli_queries,
}
