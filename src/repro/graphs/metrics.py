"""Graph metrics for Table 1: degree statistics and exact diameter.

Degree statistics have both a local (NumPy) and a Spark SQL implementation;
the Spark one is oracle-checked against DuckDB in the test suite.
"""
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
    """All Table-1 statistics computed locally."""
    deg = g.degrees
    return GraphStats(
        n=g.n,
        m=g.m,
        avg_deg=float(2.0 * g.m / g.n) if g.n else 0.0,
        max_deg=int(deg.max()) if g.n else 0,
        diameter=diameter(g),
    )


def degree_stats_spark(spark, g: Graph) -> tuple[float, int]:
    """(avg degree, max degree) via Spark SQL over the edge DataFrame.

    Counting both edge directions per vertex gives the undirected degree.
    """
    from repro.graphs.spark_graph import degrees_df, edges_to_df

    edges = edges_to_df(spark, g)
    row = degrees_df(edges).agg({"degree": "max"}).collect()[0]
    max_deg = int(row[0]) if row[0] is not None else 0
    total = edges.count()  # = 2m
    avg = total / g.n if g.n else 0.0
    return float(avg), max_deg
