"""Bulk-synchronous distributed (k,h)-core decomposition.

The vertex-centric analogue of h-BZ, matching the repro target
("iterative pregel-style algorithm"): instead of peeling one vertex at a
time, every superstep removes *all* alive vertices whose current h-degree is
below the running threshold k, assigning them core index k-1. When a round
removes nothing, k advances. Equivalent to sequential peeling because the
(k,h)-core is unique (Property 1) and removal order is irrelevant to the
fix-point.

h-degrees per superstep come from the Spark mapInPandas batch
(:func:`repro.pregel.hdegree.h_degrees_spark`) or the local kernel.
"""
from __future__ import annotations

import numpy as np

from repro.core.kernels import Counter, all_h_degrees, check_h, kernel_name, substrate
from repro.core.types import CoreResult
from repro.graphs.graph import Graph


def kh_core_bsp(
    g: Graph,
    h: int,
    spark=None,
    counter: Counter | None = None,
) -> CoreResult:
    """Distributed/bulk-synchronous exact (k,h)-core decomposition."""
    check_h(h)
    counter = counter if counter is not None else Counter()
    # Spark tasks unpack the broadcast dense matrix; local runs pick by density.
    A = g.adjacency if spark is not None else substrate(g)
    n = g.n
    alive = np.ones(n, dtype=bool)
    core = np.zeros(n, dtype=np.int64)
    rounds = 0

    def degrees() -> np.ndarray:
        nonlocal rounds
        rounds += 1
        if spark is not None:
            from repro.pregel.hdegree import h_degrees_spark

            degs, visits, calls = h_degrees_spark(spark, A, alive, h)
            counter.merge_batch(visits, calls)
            return degs
        return all_h_degrees(A, alive, h, counter)

    degs = degrees()
    k = 1
    while alive.any():
        drop = alive & (degs < k)
        if drop.any():
            core[drop] = k - 1
            alive &= ~drop
            if alive.any():
                degs = degrees()
        else:
            k += 1
    return CoreResult(
        core=core,
        h=h,
        algo="BSP" + ("[spark]" if spark is not None else ""),
        visits=counter.visits,
        bfs_calls=counter.bfs_calls,
        extra={"supersteps": rounds, "kernel": kernel_name(A)},
    )
