"""Graph metrics, including the Spark SQL degree statistics vs DuckDB oracle."""
import numpy as np
import pandas as pd
import pytest

from repro.graphs.generators import erdos_renyi, grid2d
from repro.graphs.graph import Graph
from repro.graphs.metrics import degree_stats_spark, diameter, graph_stats
from repro.graphs.spark_graph import degrees_df, edges_to_df, edges_to_pandas
from repro.oracle import assert_equivalent


def test_diameter_path(path_graph):
    assert diameter(path_graph) == 4


def test_diameter_grid():
    assert diameter(grid2d(3, 3)) == 4  # corner-to-corner Manhattan


def test_graph_stats_fields():
    g = erdos_renyi(30, 0.2, seed=0)
    s = graph_stats(g)
    assert s.n == 30 and s.m == g.m
    assert s.avg_deg == pytest.approx(2 * g.m / 30)
    assert s.max_deg == int(g.degrees.max())
    for n in (0, 3):  # no edges, the empty graph included
        s = graph_stats(Graph.from_edges(n, np.zeros((0, 2), dtype=np.int64)))
        assert (s.n, s.m, s.avg_deg, s.max_deg, s.diameter) == (n, 0, 0.0, 0, 0)


def test_degree_stats_spark_matches_local(spark):
    g = erdos_renyi(40, 0.15, seed=3)
    avg, mx = degree_stats_spark(spark, g)
    assert avg == pytest.approx(2 * g.m / g.n)
    assert mx == int(g.degrees.max())


def test_degrees_df_oracle(spark):
    """Spark SQL per-vertex degree vs the same query in DuckDB."""
    g = erdos_renyi(50, 0.12, seed=5)
    got = degrees_df(edges_to_df(spark, g))
    assert_equivalent(
        got,
        "SELECT src, count(*) AS degree FROM edges GROUP BY src",
        edges=edges_to_pandas(g),
    )


def test_degree_histogram_oracle(spark):
    """Degree histogram — a second relational shape over the edge frame."""
    from pyspark.sql import functions as F

    g = erdos_renyi(60, 0.1, seed=6)
    edges = edges_to_df(spark, g)
    got = (
        edges.groupBy("src").agg(F.count("*").alias("degree"))
        .groupBy("degree").agg(F.count("*").alias("n_vertices"))
    )
    assert_equivalent(
        got,
        """
        SELECT degree, count(*) AS n_vertices FROM (
            SELECT src, count(*) AS degree FROM edges GROUP BY src
        ) GROUP BY degree
        """,
        edges=edges_to_pandas(g),
    )
