"""Distributed h-degree computation.

:func:`h_degrees_spark` is an RDD fan-out of the NumPy BFS kernel over a
broadcast bit-packed adjacency matrix: the faithful reproduction of the
paper's §4.6 multithreading (one h-BFS batch per task), used by the
decomposition algorithms when a SparkSession is supplied. It returns the
same values as the driver's :func:`repro.core.kernels.all_h_degrees`
(tested).
"""
from __future__ import annotations

import numpy as np

from repro.core.kernels import Counter, _count_nonzero, bounded_reach
from repro.graphs.graph import pack_adjacency, unpack_adjacency


def h_degrees_spark(
    spark,
    A: np.ndarray,
    alive: np.ndarray,
    h: int,
    sources: np.ndarray | None = None,
) -> tuple[np.ndarray, int, int]:
    """Batch h-degrees in G[alive] of the ``sources`` (default: every alive
    vertex) via an RDD fan-out; only the sources are sent to the tasks.

    Returns ``(degrees, visits, bfs_calls)`` where visits/bfs_calls account
    the remote BFS work for the caller's Counter (paper's Table-3 metric).
    With no source, nothing is broadcast and the result is all zeros.
    """
    n = A.shape[0]
    ids = np.flatnonzero(alive if sources is None else sources).tolist()
    if not ids:
        return np.zeros(n, dtype=np.int64), 0, 0
    sc = spark.sparkContext
    b_adj = sc.broadcast(pack_adjacency(A))
    b_alive = sc.broadcast(np.packbits(alive).tobytes())
    parts = min(int(sc.defaultParallelism), max(1, len(ids) // 64))

    def compute(vs):
        A_task = unpack_adjacency(b_adj.value, n)
        alive_task = np.unpackbits(
            np.frombuffer(b_alive.value, dtype=np.uint8), count=n
        ).astype(bool)
        for v in vs:
            c = Counter()
            reached, _ = bounded_reach(A_task, v, alive_task, h, c)
            yield v, _count_nonzero(reached), c.visits

    rows = sc.parallelize(ids, parts).mapPartitions(compute).collect()
    v, hdeg, visits = np.array(rows, dtype=np.int64).T
    degrees = np.zeros(n, dtype=np.int64)
    degrees[v] = hdeg
    return degrees, int(visits.sum()), len(rows)
