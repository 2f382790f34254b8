"""Shared fixture graphs used across the test-suite and documentation."""

from .arithmetical import euclidean_star, validate_arithmetical
from .graph_core import build_digraph


def t3():
    """Directed 3-cycle."""
    return build_digraph([(0, 1, 1), (1, 2, 1), (2, 0, 1)])


def b2():
    """Two vertices: one arc v0->v1, two arcs v1->v0."""
    return build_digraph([(0, 1, 1), (1, 0, 2)])


def p3():
    """Bidirected path on three vertices."""
    return build_digraph([(0, 1, 1), (1, 0, 1), (1, 2, 1), (2, 1, 1)])


def k4u():
    """Bidirected complete graph on four vertices."""
    arcs = []
    for i in range(4):
        for j in range(4):
            if i != j:
                arcs.append((i, j, 1))
    return build_digraph(arcs)


def ex_a():
    """Six-cycle v0..v5 plus a double edge v0-v3, R = (1,2,1,2,1,2)."""
    n = 6
    adjacency = [[0] * n for _ in range(n)]
    for i in range(n):
        j = (i + 1) % n
        adjacency[i][j] = adjacency[j][i] = 1
    adjacency[0][3] = adjacency[3][0] = 2
    return validate_arithmetical(adjacency, (1, 2, 1, 2, 1, 2))


def ex_b():
    """K4 on v0..v3 with edge v2v3 subdivided twice (path v2-v4-v5-v3),
    R = (2,4,3,3,3,3)."""
    n = 6
    adjacency = [[0] * n for _ in range(n)]
    edges = [(0, 1), (0, 2), (0, 3), (1, 2), (1, 3), (2, 4), (4, 5), (5, 3)]
    for i, j in edges:
        adjacency[i][j] = adjacency[j][i] = 1
    return validate_arithmetical(adjacency, (2, 4, 3, 3, 3, 3))


def ex_c():
    """Three vertices, r_i * r_j parallel edges between each pair, R = (1,2,3)."""
    r = (1, 2, 3)
    n = 3
    adjacency = [[0] * n for _ in range(n)]
    for i in range(n):
        for j in range(n):
            if i != j:
                adjacency[i][j] = r[i] * r[j]
    return validate_arithmetical(adjacency, r)


def ec(n):
    """Even cycle on 2n vertices with alternating multiplicities 1, 2."""
    size = 2 * n
    adjacency = [[0] * size for _ in range(size)]
    for i in range(size):
        j = (i + 1) % size
        adjacency[i][j] = adjacency[j][i] = 1
    mults = tuple(1 if i % 2 == 0 else 2 for i in range(size))
    return validate_arithmetical(adjacency, mults)


def uniform_only():
    """R = (1,1,2,3,1) with edges 0-2 x1, 0-3 x1, 1-2 x2, 2-3 x3, 2-4 x2,
    3-4 x2: its chip game is uniform (g = 12) but not reflection invariant,
    the abstract's "uniform only" case."""
    edges = {(0, 2): 1, (0, 3): 1, (1, 2): 2, (2, 3): 3, (2, 4): 2, (3, 4): 2}
    adjacency = [[0] * 5 for _ in range(5)]
    for (i, j), m in edges.items():
        adjacency[i][j] = adjacency[j][i] = m
    return validate_arithmetical(adjacency, (1, 1, 2, 3, 1))


def two_vertex(r0, r1):
    """Two vertices joined by r0 * r1 parallel edges, multiplicities (r0, r1)."""
    m = r0 * r1
    return validate_arithmetical([[0, m], [m, 0]], (r0, r1))


def cycle_mult(n):
    """Cycle on n vertices where vertex i has multiplicity i + 1."""
    adjacency = [[0] * n for _ in range(n)]
    for i in range(n):
        j = (i + 1) % n
        adjacency[i][j] = adjacency[j][i] = 1
    return validate_arithmetical(adjacency, tuple(range(1, n + 1)))


def star(r0, r1):
    """Euclidean star generated by r0 and r1."""
    return euclidean_star(r0, r1)
