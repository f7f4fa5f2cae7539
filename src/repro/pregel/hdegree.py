"""The Spark fan-out behind both of the paper's §4.6 parallel modes.

:func:`fan_out` broadcasts the bit-packed dense matrix once, unpacks it once
per task and collects what the tasks yield; this module alone knows that
wire format. :func:`h_degrees_spark` runs the driver's
:func:`repro.core.kernels.all_h_degrees` batch in each task over its share
of the sources (one h-BFS batch per task), giving the driver's values,
visits and BFS calls (tested); ``hlbub._run_intervals_spark`` runs the
interval sub-computations through the same fan-out.
"""
from __future__ import annotations

import numpy as np

from repro.core.kernels import Counter, all_h_degrees


def _pack(bits: np.ndarray) -> bytes:
    """Bit-pack a boolean vector, or each row of a boolean matrix."""
    return np.packbits(bits, axis=-1).tobytes()


def _unpack(buf: bytes, shape: tuple[int, ...]) -> np.ndarray:
    """Inverse of :func:`_pack` for a result of the given shape."""
    packed = np.frombuffer(buf, dtype=np.uint8).reshape(*shape[:-1], -1)
    return np.unpackbits(packed, axis=-1, count=shape[-1]).astype(bool)


def fan_out(spark, A: np.ndarray, items: list, parts: int, task) -> list:
    """Split ``items`` into ``parts`` shares, run ``task(A_task, share)`` on
    each share in a Spark task and return everything the tasks yield.

    ``A`` goes out as one broadcast of its bit-packed rows, and each task
    unpacks it once into ``A_task``.
    """
    shape, b_adj = A.shape, spark.sparkContext.broadcast(_pack(A))

    def run(share):
        yield from task(_unpack(b_adj.value, shape), list(share))

    return spark.sparkContext.parallelize(items, parts).mapPartitions(run).collect()


def h_degrees_spark(
    spark,
    A: np.ndarray,
    alive: np.ndarray,
    h: int,
    sources: np.ndarray | None = None,
) -> tuple[np.ndarray, int, int]:
    """Batch h-degrees in G[alive] of the ``sources`` (default: every alive
    vertex) via :func:`fan_out`; only the sources are sent to the tasks.

    Returns ``(degrees, visits, bfs_calls)`` where visits/bfs_calls account
    the remote BFS work for the caller's Counter (paper's Table-3 metric).
    With no source, nothing is broadcast and the result is all zeros.
    """
    n = A.shape[0]
    ids = np.flatnonzero(alive if sources is None else sources).tolist()
    if not ids:
        return np.zeros(n, dtype=np.int64), 0, 0
    b_alive = spark.sparkContext.broadcast(_pack(alive))

    def task(A_task, share):
        mine = np.zeros(n, dtype=bool)
        mine[share] = True
        c = Counter()
        hdeg = all_h_degrees(A_task, _unpack(b_alive.value, (n,)), h, c, mine)
        yield share, hdeg[share], c.visits, c.bfs_calls

    parts = min(int(spark.sparkContext.defaultParallelism), max(1, len(ids) // 64))
    rows = fan_out(spark, A, ids, parts, task)
    degrees = np.zeros(n, dtype=np.int64)
    for share, hdeg, _, _ in rows:
        degrees[share] = hdeg
    return degrees, sum(r[2] for r in rows), sum(r[3] for r in rows)
