"""Command-line front end: JSON reports on stdout, diagnostics on stderr.

Exit codes: 0 computed, 1 property-check failure, 2 invalid input,
3 budget exceeded.
"""

import argparse
import functools
import json
import os
import sys

from . import arithmetical, fixtures, oracle, rank_extremes, reduction, riemann_roch, sandpile
from .arithmetical import ArithmeticalGraph, chip_game
from .errors import BudgetExceeded, ChipfireError
from .games import column_game, row_game
from .graph_core import is_strongly_connected, period_vector
from .graph_io import load_graph, parse_divisor
from .reduction import DEFAULT_BUDGET


def _budget(args):
    source, budget = "--budget", args.budget
    if budget is None:
        env = os.environ.get("CHIPFIRE_BUDGET")
        source, budget = "CHIPFIRE_BUDGET", int(env) if env else DEFAULT_BUDGET
    if budget < 0:
        raise ChipfireError(f"{source} must be nonnegative, got {budget}")
    return budget


def _game_for(graph, side):
    if isinstance(graph, ArithmeticalGraph):
        return chip_game(graph)
    if side == "column":
        return column_game(graph)
    return row_game(graph)


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


def cmd_info(args):
    graph = load_graph(args.graph)
    if isinstance(graph, ArithmeticalGraph):
        _emit(
            {
                "type": "arithmetical",
                "vertices": graph.n_vertices,
                "multiplicities": list(graph.multiplicities),
                "deltas": list(graph.deltas),
                "g0": arithmetical.g0(graph),
            }
        )
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


def cmd_reduce(args):
    graph = load_graph(args.graph)
    game = _game_for(graph, args.game)
    divisor = _divisor(args, game)
    reduced, strategy = reduction.reduce(game, args.base, divisor)
    if args.trace:
        trace = reduction.dhar(game, args.base, reduced)
        for step, vertex in trace.steps:
            _emit({"strategy": list(step), "vertex": vertex}, sys.stderr)
    _emit({"reduced": list(reduced), "strategy": list(strategy)})
    return 0


def cmd_dhar(args):
    graph = load_graph(args.graph)
    game = _game_for(graph, args.game)
    divisor = _divisor(args, game)
    trace = reduction.dhar(game, args.base, divisor)
    _emit(
        {
            "terminal": list(trace.terminal),
            "reduced": not any(trace.terminal),
            "witnesses": [list(w) for w in trace.reduced_witnesses],
            "steps": sum(game.period) - sum(trace.terminal),
        }
    )
    return 0


def cmd_rank(args):
    graph = load_graph(args.graph)
    game = _game_for(graph, args.game)
    divisor = _divisor(args, game)
    _emit({"rank": rank_extremes.rank(game, args.base, divisor)})
    return 0


def cmd_extremes(args):
    graph = load_graph(args.graph)
    game = _game_for(graph, args.game)
    extremes = rank_extremes.enumerate_extremes(
        game, args.base, budget=_budget(args)
    )
    _emit(_extremes_json(extremes))
    return 0


def cmd_rr_check(args):
    if args.formula_box < 0:
        raise ChipfireError(f"--formula-box must be nonnegative, got {args.formula_box}")
    graph = load_graph(args.graph)
    game = _game_for(graph, args.game)
    report = riemann_roch.rr_verdict(game, args.base, budget=_budget(args))
    out = _report_json(report)
    if args.formula_box and report.rr_property:
        out["formula_ok"] = riemann_roch.rr_formula_check(
            game, args.base, report, args.formula_box
        )
    _emit(out)
    if "formula_ok" in out and not out["formula_ok"]:
        return 1
    return 0


def cmd_sandpile(args):
    graph = load_graph(args.graph)
    game = _game_for(graph, args.game)
    if args.action == "stabilize":
        divisor = _divisor(args, game)
        stable, fired = sandpile.stabilize(game, args.base, divisor)
        _emit({"stable": list(stable), "fired": list(fired)})
        return 0
    if args.action == "recurrent":
        divisor = _divisor(args, game)
        _emit({"recurrent": sandpile.is_recurrent(game, args.base, divisor)})
        return 0
    configs = sandpile.minimal_recurrents(game, args.base, budget=_budget(args))
    _emit({"minimal_recurrents": [list(c) for c in configs]})
    return 0


def cmd_arith(args):
    if args.action == "star":
        if args.r0 is None or args.r1 is None:
            raise ChipfireError("arith star needs --r0 and --r1")
        ag = fixtures.star(args.r0, args.r1)
        _emit(
            {
                "vertices": ag.n_vertices,
                "multiplicities": list(ag.multiplicities),
                "deltas": list(ag.deltas),
                "g0": arithmetical.g0(ag),
            }
        )
        return 0
    graph = load_graph(args.graph)
    if not isinstance(graph, ArithmeticalGraph):
        raise ChipfireError("this subcommand needs an arithmetical graph")
    if args.action == "validate":
        _emit({"deltas": list(graph.deltas), "valid": True})
        return 0
    if args.action == "g0":
        _emit({"g0": arithmetical.g0(graph)})
        return 0
    if args.action == "digraph":
        digraph = arithmetical.associated_digraph(graph)
        _emit(
            {
                "vertices": digraph.n_vertices,
                "arcs": [
                    [i, j, digraph.arcs[i][j]]
                    for i in range(digraph.n_vertices)
                    for j in range(digraph.n_vertices)
                    if digraph.arcs[i][j]
                ],
                "period_vector": list(period_vector(digraph)),
            }
        )
        return 0
    ok = arithmetical.gmax_bound_check(graph, base=args.base, budget=_budget(args))
    _emit({"gmax_le_g0": ok})
    return 0 if ok else 1


def cmd_oracle(args):
    graph = load_graph(args.graph)
    game = _game_for(graph, args.game)
    game.check_base(args.base)
    if args.box < 0:
        raise ChipfireError(f"--box must be nonnegative, got {args.box}")
    divisor = _divisor(args, game)
    if args.action == "rank":
        _emit({"rank": oracle.rank_bruteforce(game, args.base, divisor, box=args.box)})
    elif args.action == "effective":
        _emit({"effective": oracle.effective_bruteforce(game, divisor, args.box)})
    else:
        _emit({"reduced": oracle.reduced_bruteforce(game, args.base, divisor)})
    return 0


def _add_common(parser, divisor=True):
    parser.add_argument("graph", help="graph JSON file")
    parser.add_argument("--base", type=int, default=0)
    parser.add_argument("--game", choices=("row", "column"), default="row")
    parser.add_argument("--budget", type=int, default=None)
    if divisor:
        parser.add_argument("--divisor", default=None)


def build_parser():
    parser = argparse.ArgumentParser(prog="chipfire")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("info")
    p.add_argument("graph")
    p.set_defaults(func=cmd_info)

    p = sub.add_parser("reduce")
    _add_common(p)
    p.add_argument("--trace", action="store_true")
    p.set_defaults(func=cmd_reduce)

    p = sub.add_parser("dhar")
    _add_common(p)
    p.set_defaults(func=cmd_dhar)

    p = sub.add_parser("rank")
    _add_common(p)
    p.set_defaults(func=cmd_rank)

    p = sub.add_parser("extremes")
    _add_common(p, divisor=False)
    p.set_defaults(func=cmd_extremes)

    p = sub.add_parser("rr-check")
    _add_common(p, divisor=False)
    p.add_argument("--formula-box", type=int, default=0, dest="formula_box")
    p.set_defaults(func=cmd_rr_check)

    p = sub.add_parser("sandpile")
    p.add_argument("action", choices=("stabilize", "recurrent", "minimal"))
    _add_common(p)
    p.set_defaults(func=cmd_sandpile)

    p = sub.add_parser("arith")
    p.add_argument(
        "action", choices=("validate", "g0", "digraph", "star", "check")
    )
    p.add_argument("graph", nargs="?", default=None)
    p.add_argument("--base", type=int, default=0)
    p.add_argument("--budget", type=int, default=None)
    p.add_argument("--r0", type=int, default=None)
    p.add_argument("--r1", type=int, default=None)
    p.set_defaults(func=cmd_arith)

    p = sub.add_parser("oracle")
    p.add_argument("action", choices=("rank", "effective", "reduced"))
    _add_common(p)
    p.add_argument("--box", type=int, default=3)
    p.set_defaults(func=cmd_oracle)

    return parser


@functools.cache
def _shared_parser():
    """Built on the first ``main`` call; each parse still fills a fresh namespace."""
    return build_parser()


def main(argv=None):
    try:
        args = _shared_parser().parse_args(argv)
    except SystemExit as exc:
        return 2 if exc.code not in (0, None) else 0
    try:
        return args.func(args)
    except BudgetExceeded as exc:
        print(f"budget exceeded: {exc}", file=sys.stderr)
        return 3
    except (ChipfireError, FileNotFoundError, json.JSONDecodeError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
