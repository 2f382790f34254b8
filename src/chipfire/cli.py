"""Command-line front end: JSON reports on stdout, diagnostics on stderr.

Exit codes: 0 computed, 1 property-check failure, 2 invalid input,
3 budget exceeded.  Every request checks its inputs in one order: the graph
file, the game, ``--base``, then the subcommand's own options.
"""

import argparse
import functools
import json
import os
import sys
from math import prod

from . import arithmetical, rank_extremes, reduction, riemann_roch, sandpile
from .arithmetical import ArithmeticalGraph, chip_game
from .errors import BudgetExceeded, ChipfireError
from .games import column_game, row_game
from .graph_core import is_strongly_connected, period_vector
from .graph_io import load_graph, parse_divisor
from .reduction import DEFAULT_BUDGET, check_budget


def _budget(args):
    source, budget = "--budget", args.budget
    if budget is None:
        env = os.environ.get("CHIPFIRE_BUDGET")
        source, budget = "CHIPFIRE_BUDGET", DEFAULT_BUDGET
        if env:
            try:
                budget = int(env)
            except ValueError:
                raise ChipfireError(
                    f"CHIPFIRE_BUDGET must be a nonnegative integer, got {env!r}"
                ) from None
    if budget < 0:
        raise ChipfireError(f"{source} must be nonnegative, got {budget}")
    return budget


def _divisor(args, game):
    if args.divisor is None:
        raise ChipfireError("--divisor is required")
    return parse_divisor(args.divisor, game.n_vertices)


def _emit(payload, stream=None):
    """One sorted-key JSON line in one write; ``json.dumps`` uses the C encoder."""
    (stream or sys.stdout).write(json.dumps(payload, sort_keys=True) + "\n")


def _extremes_json(extremes):
    return {
        "classes": [
            {
                "rep": list(c.rep),
                "degree": c.degree,
                "all_reps": [list(r) for r in c.all_reps],
            }
            for c in extremes.classes
        ],
        "g_min": extremes.g_min,
        "g_max": extremes.g_max,
    }


def _report_json(report):
    out = _extremes_json(report.extremes)
    out.update(
        uniform=report.uniform,
        reflection_invariant=report.reflection_invariant,
        rr=report.rr_property,
        natural_rr=report.natural_rr,
    )
    if report.g is not None:
        out["g"] = report.g
    if report.canonical is not None:
        out["canonical"] = list(report.canonical)
    if report.reflection_witness is not None:
        out["reflection_witness"] = [str(x) for x in report.reflection_witness]
    return out


def _arith_summary(ag):
    return {
        "vertices": ag.n_vertices,
        "multiplicities": list(ag.multiplicities),
        "deltas": list(ag.deltas),
        "g0": arithmetical.g0(ag),
    }


def cmd_info(args, graph):
    if isinstance(graph, ArithmeticalGraph):
        _emit(dict(_arith_summary(graph), type="arithmetical"))
        return 0
    connected = is_strongly_connected(graph)
    out = {
        "type": "digraph",
        "vertices": graph.n_vertices,
        "strongly_connected": connected,
        "out_degrees": [graph.out_degree(v) for v in range(graph.n_vertices)],
    }
    if connected:
        out["period_vector"] = list(period_vector(graph))
    _emit(out)
    return 0


def cmd_reduce(args, game):
    divisor = _divisor(args, game)
    reduced, strategy = reduction.reduce(game, args.base, divisor)
    if args.trace:
        trace = reduction.dhar(game, args.base, reduced)
        for step, vertex in trace.steps:
            _emit({"strategy": list(step), "vertex": vertex}, sys.stderr)
    _emit({"reduced": list(reduced), "strategy": list(strategy)})
    return 0


def cmd_dhar(args, game):
    divisor = _divisor(args, game)
    witnesses = []
    terminal = reduction._burn(game, args.base, divisor, witnesses=witnesses)
    _emit(
        {
            "terminal": terminal,
            "reduced": not any(terminal),
            "witnesses": [list(w) for w in witnesses],
            "steps": sum(game.period) - sum(terminal),
        }
    )
    return 0


def cmd_rank(args, game):
    divisor = _divisor(args, game)
    _emit({"rank": rank_extremes.rank(game, args.base, divisor)})
    return 0


def cmd_extremes(args, game):
    extremes = rank_extremes.enumerate_extremes(game, args.base, budget=_budget(args))
    _emit(_extremes_json(extremes))
    return 0


def cmd_rr_check(args, game):
    budget = _budget(args)
    report = riemann_roch.rr_verdict(game, args.base, budget=budget)
    out = _report_json(report)
    if args.formula and report.rr_property:
        out["formula_ok"] = riemann_roch.rr_formula_check(game, args.base, report, budget)
    _emit(out)
    return 0 if out.get("formula_ok", True) else 1


def cmd_sandpile(args, game):
    if args.action == "minimal":
        configs = sandpile.minimal_recurrents(game, args.base, budget=_budget(args))
        _emit({"minimal_recurrents": [list(c) for c in configs]})
        return 0
    divisor = _divisor(args, game)
    if args.action == "stabilize":
        stable, fired = sandpile.stabilize(game, args.base, divisor)
        _emit({"stable": list(stable), "fired": list(fired)})
    else:
        _emit({"recurrent": sandpile.is_recurrent(game, args.base, divisor)})
    return 0


def cmd_arith(args, graph):
    if args.action == "star":
        r0, r1 = args.r0, args.r1
        if r0 is None or r1 is None:
            raise ChipfireError("arith star needs --r0 and --r1")
        if not r0 > r1 >= 1:
            raise ChipfireError(f"arith star needs --r0 > --r1 >= 1, got {r0} and {r1}")
        # The star has n = 1 + r0 m vertices, m >= 1 the length of a chain,
        # so r0 alone can refuse its n x n matrix before the Euclidean
        # sequence, up to r0 long, is built.
        budget = _budget(args)
        n = 1 + r0
        if n * n <= budget:
            n = 1 + r0 * (len(arithmetical.euclidean_sequence(r0, r1).values) - 1)
        check_budget(n * n, budget, f"star({r0},{r1}) needs a {n} x {n} matrix")
        _emit(_arith_summary(arithmetical.euclidean_star(r0, r1)))
        return 0
    if not isinstance(graph, ArithmeticalGraph):
        raise ChipfireError("this subcommand needs an arithmetical graph")
    if args.action == "check":
        ok = arithmetical.gmax_bound_check(graph, base=args.base, budget=_budget(args))
        _emit({"gmax_le_g0": ok})
        return 0 if ok else 1
    if args.action == "validate":
        _emit({"deltas": list(graph.deltas), "valid": True})
    elif args.action == "g0":
        _emit({"g0": arithmetical.g0(graph)})
    else:
        digraph = arithmetical.associated_digraph(graph)
        arcs = [[i, j, m] for i, row in enumerate(digraph.arcs) for j, m in enumerate(row) if m]
        period = list(period_vector(digraph))
        _emit({"vertices": digraph.n_vertices, "arcs": arcs, "period_vector": period})
    return 0


def cmd_oracle(args, game):
    from . import oracle  # here, not at the top: no other request pays for its import

    if args.box < 0:
        raise ChipfireError(f"--box must be nonnegative, got {args.box}")
    divisor = _divisor(args, game)
    if args.action == "reduced":
        count = prod(s + 1 for v, s in enumerate(game.period) if v != args.base)
    else:  # the box of one effectivity search, with vertex 0 taken modulo S[0]
        count = min(game.period[0], args.box + 1) * (2 * args.box + 1) ** (game.n_vertices - 1)
    budget = _budget(args)
    check_budget(count, budget, f"oracle {args.action} searches {count} strategies")
    if args.action == "rank":
        _emit({"rank_lower_bound": oracle.rank_bruteforce(game, args.base, divisor, box=args.box)})
    elif args.action == "effective":
        _emit({"effective": oracle.effective_bruteforce(game, divisor, args.box)})
    else:
        _emit({"reduced": oracle.reduced_bruteforce(game, args.base, divisor)})
    return 0


_GRAPH_FILE = {"help": "graph JSON file"}
_OPTIONS = {
    "--base": {"type": int, "default": 0},
    "--game": {"choices": ("row", "column"), "default": "row"},
    "--budget": {"type": int, "default": None},
    "--divisor": {"default": None},
}
_SCAN_OPTIONS = ("--base", "--game", "--budget")
_QUERY_OPTIONS = ("--base", "--game", "--divisor")


def _subcommand(sub, name, func, actions=(), graph=_GRAPH_FILE, options=tuple(_OPTIONS)):
    """One subparser: the action if it has one, then the graph file and shared options."""
    p = sub.add_parser(name)
    if actions:
        p.add_argument("action", choices=actions)
    p.add_argument("graph", **graph)
    for option in options:
        p.add_argument(option, **_OPTIONS[option])
    p.set_defaults(func=func)
    return p


def build_parser():
    parser = argparse.ArgumentParser(prog="chipfire")
    sub = parser.add_subparsers(dest="command", required=True)
    _subcommand(sub, "info", cmd_info, graph={}, options=())
    _subcommand(sub, "reduce", cmd_reduce, options=_QUERY_OPTIONS).add_argument(
        "--trace", action="store_true"
    )
    _subcommand(sub, "dhar", cmd_dhar, options=_QUERY_OPTIONS)
    _subcommand(sub, "rank", cmd_rank, options=_QUERY_OPTIONS)
    _subcommand(sub, "extremes", cmd_extremes, options=_SCAN_OPTIONS)
    _subcommand(sub, "rr-check", cmd_rr_check, options=_SCAN_OPTIONS).add_argument(
        "--formula", action="store_true"
    )
    _subcommand(sub, "sandpile", cmd_sandpile, ("stabilize", "recurrent", "minimal"))
    p = _subcommand(
        sub, "arith", cmd_arith, ("validate", "g0", "digraph", "star", "check"),
        graph={"nargs": "?", "default": None}, options=("--base", "--budget"),
    )
    p.add_argument("--r0", type=int, default=None)
    p.add_argument("--r1", type=int, default=None)
    _subcommand(sub, "oracle", cmd_oracle, ("rank", "effective", "reduced")).add_argument(
        "--box", type=int, default=3
    )
    return parser


@functools.cache
def _shared_parser():
    """Built on the first ``main`` call; each parse still fills a fresh namespace."""
    return build_parser()


def _request_input(args):
    """The graph a request works on, or its game if the subcommand takes ``--game``."""
    if args.command == "arith" and args.action == "star":
        return None
    if args.graph is None:
        raise ChipfireError(f"arith {args.action} needs a graph file")
    graph = load_graph(args.graph)
    if "game" not in args:
        return graph
    if isinstance(graph, ArithmeticalGraph):
        game = chip_game(graph)
    else:
        game = (column_game if args.game == "column" else row_game)(graph)
    game.check_base(args.base)
    return game


def main(argv=None):
    try:
        args = _shared_parser().parse_args(argv)
    except SystemExit as exc:
        return 2 if exc.code not in (0, None) else 0
    try:
        return args.func(args, _request_input(args))
    except BudgetExceeded as exc:
        print(f"budget exceeded: {exc}", file=sys.stderr)
        return 3
    except (ChipfireError, OSError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
