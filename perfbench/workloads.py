"""Seeded inputs for the three benchmark workloads.

Everything here is built in the run.py process, untimed.  A workload is a
spec the worker runs (game descriptors and the op list) plus the facts the
reference checks need.  The same seed always gives the same spec.
"""

import json
import os
import random

WORKLOADS = {
    "rr-ladder": "rr_verdict on a fixed ladder of 13 games (scan boxes 27 to 46,656); "
    "every is_reduced call is a cache miss, so it writes the caches",
    "rank-sweep": "seeded rank(D), rank(K-D) pairs on six warm Games; "
    "mostly cache reads, dominated by residue and rank",
    "cli-queries": "seeded single CLI requests that each reload their graph, "
    "so no cache is reused; Game, lattice, argparse and Dhar set-up per request",
}

# rr-ladder rungs: (id, game descriptor, reference check).
LADDER = [
    ("k4u", {"fixture": "k4u", "game": "row"}, "unit"),
    ("ex_a", {"fixture": "ex_a", "game": "chip"}, "ex_a"),
    ("ex_b", {"fixture": "ex_b", "game": "chip"}, "ex_b"),
    ("ex_c", {"fixture": "ex_c", "game": "chip"}, "ex_c"),
    ("ec(4)", {"fixture": "ec", "args": [4], "game": "chip"}, "ec"),
    ("ec(5)", {"fixture": "ec", "args": [5], "game": "chip"}, "ec"),
    ("star(4,3)", {"fixture": "star", "args": [4, 3], "game": "chip"}, "star"),
    ("star(5,1)", {"fixture": "star", "args": [5, 1], "game": "chip"}, "star"),
    ("star(5,2)", {"fixture": "star", "args": [5, 2], "game": "chip"}, "star"),
    ("star(5,3)", {"fixture": "star", "args": [5, 3], "game": "chip"}, "star"),
    ("col(ex_b)", {"fixture": "ex_b", "assoc": True, "game": "column"}, "assoc_column"),
    ("row(ex_b)", {"fixture": "ex_b", "assoc": True, "game": "row"}, "assoc_row"),
    ("star(6,1)", {"fixture": "star", "args": [6, 1], "game": "chip"}, "star"),
]

RANK_GAMES = [
    ("k4u", {"fixture": "k4u", "game": "row"}),
    ("ex_b", {"fixture": "ex_b", "game": "chip"}),
    ("ec(4)", {"fixture": "ec", "args": [4], "game": "chip"}),
    ("star(4,3)", {"fixture": "star", "args": [4, 3], "game": "chip"}),
    ("star(5,3)", {"fixture": "star", "args": [5, 3], "game": "chip"}),
    ("col(ec(4))", {"fixture": "ec", "args": [4], "assoc": True, "game": "column"}),
]
RANK_PAIRS = 1000
RANK_ORACLE_SAMPLE = 8

CLI_GRAPHS = [
    ("k4u", {"fixture": "k4u", "game": "row"}),
    ("ex_b", {"fixture": "ex_b", "game": "chip"}),
    ("ec(5)", {"fixture": "ec", "args": [5], "game": "chip"}),
    ("star(5,3)", {"fixture": "star", "args": [5, 3], "game": "chip"}),
]
# Subcommands of the mix.  Each gets the same share of the requests: no
# measured traffic profile exists to weight them by, so an even mix is the
# stated assumption.
CLI_KINDS = [
    "reduce",
    "dhar",
    "sandpile-stabilize",
    "sandpile-recurrent",
    "info",
    "rank",
    "rr-check",
]
CLI_REQUESTS_PER_KIND = 150
RR_CHECK_MAX_BOX = 100
RANDOM_PERIOD_SUM = (1_000, 5_000)
# The random digraph comes from this fixed seed, not from --seed: its Dhar
# cost scales with its period sum, and a graph drawn per run made wall_s and
# op_p99_ms depend on the seed more than on the code.
RANDOM_GRAPH_SEED = 0


class WorkloadError(Exception):
    """The code under test gave an answer the workload cannot be built from."""


def make_graph(desc):
    """The graph a descriptor names (a fixture, or an explicit arc list)."""
    from chipfire import arithmetical, fixtures, graph_core

    if "arcs" in desc:
        graph = graph_core.build_digraph([tuple(a) for a in desc["arcs"]], desc["n"])
    else:
        graph = getattr(fixtures, desc["fixture"])(*desc.get("args", ()))
    if desc.get("assoc"):
        graph = arithmetical.associated_digraph(graph)
    return graph


def make_game(desc, graph=None):
    """A fresh Game for a descriptor."""
    from chipfire import arithmetical, games

    graph = make_graph(desc) if graph is None else graph
    kind = desc["game"]
    if kind == "chip":
        return arithmetical.chip_game(graph)
    return games.row_game(graph) if kind == "row" else games.column_game(graph)


def scan_box(game, base=0):
    """Number of candidates the extreme scan visits: product of thresholds off the base."""
    box = 1
    for v in range(game.n_vertices):
        if v != base:
            box *= game.threshold(v)
    return box


def rr_ladder(seed):
    rng = random.Random(seed)
    order = list(range(len(LADDER)))
    rng.shuffle(order)
    games = {gid: desc for gid, desc, _ in LADDER}
    return {"games": games, "ops": [LADDER[i][0] for i in order]}, {}


def _balanced(rng, items, count):
    """count items cycling through the list, in seeded order: every item
    appears count // len(items) or one more times, so seeds vary the inputs
    but not the mix."""
    items = list(items)
    out = [items[i % len(items)] for i in range(count)]
    rng.shuffle(out)
    return out


def _divisor_of_degree(rng, weight, low, high, entries=(-2, 2)):
    while True:
        d = tuple(rng.randint(*entries) for _ in weight)
        deg = sum(a * b for a, b in zip(d, weight))
        if low <= deg <= high:
            return d, deg


def rank_sweep(seed):
    """rank(D), rank(K-D) pairs with deg D in [-1, 2g+2], every game and
    every degree equally often.

    K and g come from rr_verdict on a separate Game, so the timed Games
    start cold.
    """
    from chipfire.riemann_roch import rr_verdict

    rng = random.Random(seed)
    canon = {}
    for gid, desc in RANK_GAMES:
        game = make_game(desc)
        report = rr_verdict(game, 0)
        if not report.rr_property:
            raise WorkloadError(f"{gid}: rr_verdict denies the Riemann-Roch property")
        canon[gid] = (report.canonical, report.g, game.weight)
    slots = _balanced(rng, [gid for gid, _ in RANK_GAMES], RANK_PAIRS)
    degrees = {
        gid: _balanced(rng, range(-1, 2 * canon[gid][1] + 3), slots.count(gid))
        for gid in canon
    }
    ops, pairs = [], []
    for gid in slots:
        k, g, weight = canon[gid]
        deg = degrees[gid].pop()
        d, _ = _divisor_of_degree(rng, weight, deg, deg)
        pairs.append((gid, deg, g))
        ops.append([gid, list(d)])
        ops.append([gid, [a - b for a, b in zip(k, d)]])
    k4u_pairs = [i for i, p in enumerate(pairs) if p[0] == "k4u"]
    sample = sorted(rng.sample(k4u_pairs, min(RANK_ORACLE_SAMPLE, len(k4u_pairs))))
    spec = {"games": dict(RANK_GAMES), "ops": ops}
    return spec, {"pairs": pairs, "oracle_ops": [2 * i for i in sample]}


def random_digraph(rng):
    """A strongly connected 5-vertex digraph whose period vector sum lies in
    RANDOM_PERIOD_SUM; Dhar starts from f = S, so its step count grows with
    that sum."""
    from chipfire.graph_core import build_digraph, is_strongly_connected, period_vector

    n = 5
    while True:
        arcs = [
            [i, j, rng.randint(1, 9)]
            for i in range(n)
            for j in range(n)
            if i != j and rng.random() < 0.4
        ]
        if not arcs:
            continue
        graph = build_digraph([tuple(a) for a in arcs], n)
        if not is_strongly_connected(graph):
            continue
        low, high = RANDOM_PERIOD_SUM
        if low <= sum(period_vector(graph)) <= high:
            return {"arcs": arcs, "n": n, "game": "row"}


def graph_file_json(graph):
    """The CLI's JSON graph format for a fixture graph or digraph."""
    from chipfire.arithmetical import ArithmeticalGraph

    n = graph.n_vertices
    if isinstance(graph, ArithmeticalGraph):
        edges = [
            [i, j, graph.adjacency[i][j]]
            for i in range(n)
            for j in range(i + 1, n)
            if graph.adjacency[i][j]
        ]
        return {
            "type": "arithmetical",
            "vertices": n,
            "edges": edges,
            "multiplicities": list(graph.multiplicities),
        }
    arcs = [[i, j, graph.arcs[i][j]] for i in range(n) for j in range(n) if graph.arcs[i][j]]
    return {"type": "digraph", "vertices": n, "arcs": arcs}


def cli_queries(seed, workdir):
    """Seeded single requests through chipfire.cli.main on graph files written here."""
    graphs = dict(CLI_GRAPHS + [("random", random_digraph(random.Random(RANDOM_GRAPH_SEED)))])
    rng = random.Random(seed)
    games, paths = {}, {}
    for gid, desc in graphs.items():
        graph = make_graph(desc)
        games[gid] = make_game(desc, graph)
        paths[gid] = os.path.join(workdir, f"graph{len(paths)}.json")
        with open(paths[gid], "w") as handle:
            json.dump(graph_file_json(graph), handle)
    eligible = {kind: list(graphs) for kind in CLI_KINDS}
    # rank's Sigma test walks all S[base] Dhar witnesses of a class, which
    # on the random digraph's large period would swamp the mix.
    eligible["rank"] = [gid for gid, _ in CLI_GRAPHS]
    eligible["rr-check"] = [g for g in graphs if scan_box(games[g]) <= RR_CHECK_MAX_BOX]
    mix = [
        (kind, gid)
        for kind in CLI_KINDS
        for gid in _balanced(rng, eligible[kind], CLI_REQUESTS_PER_KIND)
    ]
    rng.shuffle(mix)
    ops, requests = [], []
    for kind, gid in mix:
        game = games[gid]
        n = game.n_vertices
        if kind == "reduce":
            d = tuple(rng.randint(-20, 20) for _ in range(n))
        elif kind == "dhar":
            d = (rng.randint(-5, 5),) + tuple(rng.randint(0, 5) for _ in range(n - 1))
        elif kind == "sandpile-stabilize":
            d = (0,) + tuple(rng.randint(0, 30) for _ in range(n - 1))
        elif kind == "sandpile-recurrent":
            d = (0,) + tuple(rng.randrange(game.threshold(v)) for v in range(1, n))
        elif kind == "rank":
            d, _ = _divisor_of_degree(rng, game.weight, -1, 3, entries=(-1, 2))
        else:
            d = None
        argv = kind.split("-") if kind.startswith("sandpile") else [kind]
        argv.append(paths[gid])
        if d is not None:
            argv.append("--divisor=" + ",".join(map(str, d)))
        ops.append(argv)
        requests.append((kind, gid, d))
    spec = {"games": graphs, "paths": paths, "ops": ops}
    return spec, {"requests": requests}


def build(workload, seed, workdir):
    """(worker spec, reference facts) for one workload and seed."""
    if workload == "rr-ladder":
        return rr_ladder(seed)
    if workload == "rank-sweep":
        return rank_sweep(seed)
    return cli_queries(seed, workdir)
