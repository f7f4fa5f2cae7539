"""Distributed h-degree computation.

:func:`h_degrees_spark` is a mapInPandas fan-out of the NumPy BFS kernel over
a broadcast bit-packed adjacency matrix: the faithful reproduction of the
paper's §4.6 multithreading (one h-BFS batch per task), used by the
decomposition algorithms when a SparkSession is supplied. It returns the
same values as the driver's :func:`repro.core.kernels.all_h_degrees`
(tested).
"""
from __future__ import annotations

from typing import Iterator

import numpy as np

from repro.core.kernels import bounded_reach
from repro.graphs.graph import pack_adjacency, unpack_adjacency


def h_degrees_spark(
    spark,
    A: np.ndarray,
    alive: np.ndarray,
    h: int,
    sources: np.ndarray | None = None,
) -> tuple[np.ndarray, int, int]:
    """Batch h-degrees in G[alive] of the ``sources`` (default: every alive
    vertex) via mapInPandas fan-out; only the sources become task rows.

    Returns ``(degrees, visits, bfs_calls)`` where visits/bfs_calls account
    the remote BFS work for the caller's Counter (paper's Table-3 metric).
    """
    import pandas as pd

    n = A.shape[0]
    sc = spark.sparkContext
    b_adj = sc.broadcast(pack_adjacency(A))
    b_alive = sc.broadcast(np.packbits(alive).tobytes())
    ids = np.flatnonzero(alive if sources is None else sources)
    if len(ids) == 0:
        return np.zeros(n, dtype=np.int64), 0, 0
    parts = min(int(sc.defaultParallelism), max(1, len(ids) // 64))
    vdf = spark.createDataFrame(pd.DataFrame({"v": ids})).repartition(parts)

    def compute(batches: Iterator[pd.DataFrame]) -> Iterator[pd.DataFrame]:
        from repro.core.kernels import Counter, _count_nonzero

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
                degs[i] = _count_nonzero(reached)
                visits[i] = c.visits
            yield pd.DataFrame({"v": vs, "hdeg": degs, "visits": visits})

    out = vdf.mapInPandas(compute, schema="v long, hdeg long, visits long").toPandas()
    degrees = np.zeros(n, dtype=np.int64)
    degrees[out["v"].to_numpy()] = out["hdeg"].to_numpy()
    return degrees, int(out["visits"].sum()), len(out)
