"""Spark DataFrame graph layer: edge frames and the co-purchase projection
(oracle-checked)."""
import numpy as np

from repro import synth_data
from repro.graphs.graph import Graph
from repro.graphs.spark_graph import copurchase_graph, edges_to_df
from repro.oracle import assert_equivalent


def test_edges_to_df_symmetric(spark):
    g = Graph.from_edges(4, np.array([[0, 1], [1, 2]]))
    rows = {(r.src, r.dst) for r in edges_to_df(spark, g).collect()}
    assert rows == {(0, 1), (1, 0), (1, 2), (2, 1)}


def test_copurchase_graph_oracle(spark):
    """The co-purchase projection SQL (self-join on l_orderkey) must match
    DuckDB's answer on the same TPC-H-lite lineitem input."""
    li = synth_data.lineitem(spark, sf=0.002, seed=9)
    g, pairs = copurchase_graph(spark, li, min_copurchases=1, max_parts=120)
    assert_equivalent(
        pairs,
        """
        SELECT a.l_partkey AS p1, b.l_partkey AS p2
        FROM (SELECT DISTINCT l_orderkey, l_partkey FROM lineitem
              WHERE l_partkey <= 120) a
        JOIN (SELECT DISTINCT l_orderkey, l_partkey FROM lineitem
              WHERE l_partkey <= 120) b
          ON a.l_orderkey = b.l_orderkey AND a.l_partkey < b.l_partkey
        GROUP BY 1, 2
        HAVING count(*) >= 1
        """,
        lineitem=li,
    )
    # And the in-memory projection is a sane undirected graph.
    assert g.n == 0 or g.edges[:, 0].max() < g.n
    assert (g.edges[:, 0] < g.edges[:, 1]).all() if g.m else True


def test_copurchase_min_threshold(spark):
    li = synth_data.lineitem(spark, sf=0.002, seed=9)
    g1, _ = copurchase_graph(spark, li, min_copurchases=1, max_parts=120)
    g2, _ = copurchase_graph(spark, li, min_copurchases=2, max_parts=120)
    assert g2.m <= g1.m

