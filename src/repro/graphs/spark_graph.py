"""Spark DataFrame layer over in-memory graphs.

Edges live as a symmetric (src, dst) DataFrame — the canonical relational
encoding for vertex-centric dataflow. Everything here sticks to the
DataFrame / Spark SQL API (Catalyst); results are oracle-checked against
DuckDB in the tests.
"""
from __future__ import annotations

import numpy as np
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


def copurchase_graph(
    spark: SparkSession,
    lineitem: DataFrame,
    min_copurchases: int = 1,
    max_parts: int | None = None,
) -> tuple[Graph, DataFrame]:
    """Project TPC-H lineitem onto a part co-purchase graph (amzn analogue).

    Two parts are linked when they appear in the same order at least
    ``min_copurchases`` times — the same construction as the paper's
    com-amazon co-purchasing network, built relationally (self-join on
    l_orderkey) so the DuckDB oracle can verify it.

    Returns the in-memory Graph (vertices relabeled densely 0..n-1) and the
    edge DataFrame (p1 < p2, original part keys) that produced it.
    """
    li = lineitem.select("l_orderkey", "l_partkey").distinct()
    if max_parts is not None:
        li = li.where(F.col("l_partkey") <= max_parts)
    a, b = li.alias("a"), li.alias("b")
    pairs = (
        a.join(b, F.col("a.l_orderkey") == F.col("b.l_orderkey"))
        .where(F.col("a.l_partkey") < F.col("b.l_partkey"))
        .select(
            F.col("a.l_partkey").alias("p1"),
            F.col("b.l_partkey").alias("p2"),
        )
        .groupBy("p1", "p2")
        .agg(F.count("*").alias("n_orders"))
        .where(F.col("n_orders") >= min_copurchases)
        .select("p1", "p2")
    )
    pdf = pairs.toPandas()
    keys = np.unique(pdf[["p1", "p2"]].to_numpy().ravel()) if len(pdf) else np.array([], dtype=np.int64)
    remap = {int(k): i for i, k in enumerate(keys)}
    edges = np.array(
        [[remap[int(r.p1)], remap[int(r.p2)]] for r in pdf.itertuples(index=False)],
        dtype=np.int64,
    ).reshape(-1, 2)
    return Graph.from_edges(len(keys), edges), pairs

