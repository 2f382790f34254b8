"""JSON graph formats and divisor literals for the command line."""

import json
import re
from itertools import chain

from .arithmetical import validate_arithmetical
from .errors import InvalidGraph
from .graph_core import build_digraph


def parse_graph(data):
    """Build a graph from the JSON object format.

    {"type":"digraph","vertices":N,"arcs":[[tail,head,mult],...]} or
    {"type":"arithmetical","vertices":N,"edges":[[i,j,mult],...],
     "multiplicities":[r0,...,rn]}.  Every number must be an integer.
    """
    if not isinstance(data, dict) or "type" not in data:
        raise InvalidGraph("graph JSON must be an object with a 'type' field")
    kind = data["type"]
    if kind not in ("digraph", "arithmetical"):
        raise InvalidGraph(f"unknown graph type {kind!r}")
    n = data.get("vertices")
    rows = data.get("arcs" if kind == "digraph" else "edges")
    mults = data.get("multiplicities") if kind == "arithmetical" else []
    if not (
        isinstance(rows, list) and isinstance(mults, list)
        and all(isinstance(row, list) and len(row) == 3 for row in rows)
        # type(), not isinstance(): a bool is an int too
        and set(map(type, [n, *mults, *chain.from_iterable(rows)])) == {int}
    ):
        raise InvalidGraph(
            f"{kind} graph: 'vertices', every [i, j, multiplicity] entry and"
            " every multiplicity must be integers"
        )
    # Before any n x n matrix: every vertex must lie on a listed arc or edge,
    # so n is at most twice the length of the list.
    touched = {i for row in rows for i in row[:2]}
    isolated = next((v for v in range(n) if v not in touched), None)
    if isolated is not None:
        raise InvalidGraph(f"vertex {isolated} lies on no {'arc' if kind == 'digraph' else 'edge'}")
    if kind == "digraph":
        return build_digraph([tuple(a) for a in rows], n_vertices=n)
    adjacency = [[0] * n for _ in range(n)]
    for i, j, mult in rows:
        if not (0 <= i < n and 0 <= j < n) or i == j or mult < 1:
            raise InvalidGraph(f"bad edge ({i},{j},{mult})")
        adjacency[i][j] += mult
        adjacency[j][i] += mult
    return validate_arithmetical(adjacency, tuple(mults))


def load_graph(path):
    with open(path) as handle:
        return parse_graph(json.load(handle))


def parse_divisor(text, n_vertices):
    """Comma-separated literal of ASCII integers, e.g. '-1,0,+1,1,1,0'."""
    parts = [p.strip() for p in text.split(",")]
    try:
        if not all(re.fullmatch("[+-]?[0-9]+", p) for p in parts):
            raise ValueError("not an optionally signed run of ASCII digits")
        entries = tuple(int(p) for p in parts)
    except ValueError as exc:
        raise InvalidGraph(f"bad divisor literal {text!r}") from exc
    if len(entries) != n_vertices:
        raise InvalidGraph(
            f"divisor has {len(entries)} entries, graph has {n_vertices} vertices"
        )
    return entries
