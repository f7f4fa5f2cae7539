"""Distance-h coloring and its connection to the (k,h)-core (paper §5.1).

A distance-h coloring partitions V so same-colored vertices are more than h
hops apart in G (Definition 3) — equivalently, a proper coloring of the
power graph G^h. Theorem 1 bounds the distance-h chromatic number by
1 + h-degeneracy; we implement the greedy coloring from its proof (color in
reverse peel order) and report the empirical color count.
"""
from __future__ import annotations

import numpy as np

from repro.core import h_bz
from repro.core.kernels import bounded_reach, check_h, distance_matrix, substrate
from repro.graphs.graph import Graph


def greedy_distance_h_coloring(
    g: Graph, h: int, order: list[int] | None = None
) -> np.ndarray:
    """Greedy distance-h coloring in reverse (k,h)-core peel order.

    Each vertex gets the smallest color unused among already-colored vertices
    within G-distance h (the power-graph neighborhood, so the produced
    coloring is always *valid* per Definition 3), read from one h-BFS per
    vertex on the graph's kernel substrate.
    """
    check_h(h)
    if order is None:
        order = h_bz(g, h).order
    assert order is not None
    A = substrate(g)
    alive = np.ones(g.n, dtype=bool)
    colors = np.full(g.n, -1, dtype=np.int64)
    for v in reversed(order):
        taken = set(colors[bounded_reach(A, int(v), alive, h)[0]].tolist())
        c = 0
        while c in taken:
            c += 1
        colors[v] = c
    return colors


def is_valid_distance_h_coloring(g: Graph, h: int, colors: np.ndarray) -> bool:
    """Check Definition 3: same color => more than h hops apart in G."""
    check_h(h)
    dist = distance_matrix(g.adjacency)
    close = (dist >= 1) & (dist <= h)
    us, vs = np.nonzero(np.triu(close, k=1))
    return bool(np.all(colors[us] != colors[vs]))
