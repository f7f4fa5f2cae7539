"""Distributed h-degree computation.

Two implementations of the same quantity deg^h_G(v):

1. :func:`h_degrees_dataframe` — pure DataFrame/Catalyst Pregel-style
   frontier expansion: (src, dst) reach pairs grow one hop per superstep
   via a join, with already-reached pairs subtracted to keep the frontier
   minimal. This is the vertex-centric dataflow analogue of an h-bounded
   BFS and is oracle-checked against DuckDB SQL.

2. :func:`h_degrees_spark` — mapInPandas fan-out of the NumPy BFS kernel
   over a broadcast bit-packed adjacency matrix: the faithful reproduction
   of the paper's §4.6 multithreading (one h-BFS batch per task), used by
   the decomposition algorithms when a SparkSession is supplied.
"""
from __future__ import annotations

from typing import Iterator

import numpy as np
import pandas as pd
from pyspark.sql import DataFrame, SparkSession
from pyspark.sql import functions as F

from repro.core.kernels import bounded_reach, check_h
from repro.graphs.graph import Graph, pack_adjacency, unpack_adjacency


def h_degrees_dataframe(edges: DataFrame, h: int) -> DataFrame:
    """deg^h for every non-isolated vertex, as a (v, hdeg) DataFrame.

    Args:
        edges: symmetric (src, dst) edge DataFrame.
        h: distance threshold >= 1.
    """
    check_h(h)
    reach = edges.select("src", "dst").distinct()
    frontier = reach
    for _ in range(h - 1):
        expanded = (
            frontier.alias("f")
            .join(edges.alias("e"), F.col("f.dst") == F.col("e.src"))
            .select(F.col("f.src").alias("src"), F.col("e.dst").alias("dst"))
            .where(F.col("src") != F.col("dst"))
            .distinct()
        )
        frontier = expanded.subtract(reach)
        reach = reach.unionByName(frontier)
    return reach.groupBy("src").agg(F.count("*").alias("hdeg")).withColumnRenamed(
        "src", "v"
    )


def h_degrees_spark(
    spark: SparkSession,
    A: np.ndarray,
    alive: np.ndarray,
    h: int,
) -> tuple[np.ndarray, int, int]:
    """Batch h-degrees of all alive vertices via mapInPandas fan-out.

    Returns ``(degrees, visits, bfs_calls)`` where visits/bfs_calls account
    the remote BFS work for the caller's Counter (paper's Table-3 metric).
    """
    n = A.shape[0]
    sc = spark.sparkContext
    b_adj = sc.broadcast(pack_adjacency(A))
    b_alive = sc.broadcast(np.packbits(alive).tobytes())
    ids = np.flatnonzero(alive)
    if len(ids) == 0:
        return np.zeros(n, dtype=np.int64), 0, 0
    parts = min(int(sc.defaultParallelism), max(1, len(ids) // 64))
    vdf = spark.createDataFrame(pd.DataFrame({"v": ids})).repartition(parts)

    def compute(batches: Iterator[pd.DataFrame]) -> Iterator[pd.DataFrame]:
        from repro.core.kernels import Counter

        A_task = unpack_adjacency(b_adj.value, n)
        alive_task = np.unpackbits(
            np.frombuffer(b_alive.value, dtype=np.uint8), count=n
        ).astype(bool)
        for pdf in batches:
            vs = pdf["v"].to_numpy()
            degs = np.zeros(len(vs), dtype=np.int64)
            visits = np.zeros(len(vs), dtype=np.int64)
            for i, v in enumerate(vs):
                c = Counter()
                reached, _ = bounded_reach(A_task, int(v), alive_task, h, c)
                degs[i] = int(reached.sum())
                visits[i] = c.visits
            yield pd.DataFrame({"v": vs, "hdeg": degs, "visits": visits})

    out = vdf.mapInPandas(compute, schema="v long, hdeg long, visits long").toPandas()
    degrees = np.zeros(n, dtype=np.int64)
    degrees[out["v"].to_numpy()] = out["hdeg"].to_numpy()
    return degrees, int(out["visits"].sum()), len(out)
