"""Spark DataFrame graph layer: edge frames."""
import numpy as np

from repro.graphs.graph import Graph
from repro.graphs.spark_graph import edges_to_df


def test_edges_to_df_symmetric(spark):
    g = Graph.from_edges(4, np.array([[0, 1], [1, 2]]))
    rows = {(r.src, r.dst) for r in edges_to_df(spark, g).collect()}
    assert rows == {(0, 1), (1, 0), (1, 2), (2, 1)}

