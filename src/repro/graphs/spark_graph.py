"""Spark DataFrame layer over in-memory graphs.

Edges live as a symmetric (src, dst) DataFrame — the canonical relational
encoding for vertex-centric dataflow. Everything here sticks to the
DataFrame / Spark SQL API (Catalyst); results are oracle-checked against
DuckDB in the tests.
"""
from __future__ import annotations

import pandas as pd
from pyspark.sql import DataFrame, SparkSession
from pyspark.sql import functions as F

from repro.graphs.graph import Graph


def edges_to_df(spark: SparkSession, g: Graph) -> DataFrame:
    """Symmetric edge DataFrame (both directions) with long src/dst columns."""
    both = g.both_directions()
    pdf = pd.DataFrame({"src": both[:, 0], "dst": both[:, 1]})
    return spark.createDataFrame(pdf)


def edges_to_pandas(g: Graph) -> pd.DataFrame:
    """Symmetric edge table as pandas — the DuckDB-oracle side of edges_to_df."""
    both = g.both_directions()
    return pd.DataFrame({"src": both[:, 0], "dst": both[:, 1]})


def degrees_df(edges: DataFrame) -> DataFrame:
    """Per-vertex degree: count of outgoing rows in the symmetric edge frame."""
    return edges.groupBy("src").agg(F.count("*").alias("degree"))

