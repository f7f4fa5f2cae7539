"""Graph metrics for Table 1: degree statistics and exact diameter."""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.core.kernels import distance_matrix
from repro.graphs.graph import Graph


@dataclass
class GraphStats:
    """Table-1 row for one dataset."""

    n: int
    m: int
    avg_deg: float
    max_deg: int
    diameter: int


def diameter(g: Graph) -> int:
    """Exact diameter of the largest connected region (BFS from every vertex).

    0 for a graph without edges, the empty graph included. Unreachable pairs
    are ignored, matching the convention for the paper's connected datasets.
    """
    dist = distance_matrix(g.adjacency)
    return int(dist.max(initial=0))


def graph_stats(g: Graph) -> GraphStats:
    """All Table-1 statistics."""
    deg = g.degrees
    return GraphStats(
        n=g.n,
        m=g.m,
        avg_deg=float(2.0 * g.m / g.n) if g.n else 0.0,
        max_deg=int(deg.max()) if g.n else 0,
        diameter=diameter(g),
    )

