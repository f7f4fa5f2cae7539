"""Algorithm 1 — h-BZ: the distance-generalized Batagelj–Zaveršnik baseline.

Processes vertices in increasing h-degree order via bucketing; every deletion
re-computes the h-degree of *all* vertices in the deleted vertex's
h-neighborhood (the cost the lower/upper bounds of h-LB and h-LB+UB avoid).
The peel itself is :func:`repro.core.decomp.core_decomp` with no decrements.
"""
from __future__ import annotations

import numpy as np

from repro.core.bounds import batch_h_degrees
from repro.core.decomp import core_decomp
# bounded_reach is unused here but bound so khbench/spans.py can wrap it.
from repro.core.kernels import (  # noqa: F401
    Counter, bounded_reach, check_h, kernel_name, substrate,
)
from repro.core.types import CoreResult
from repro.graphs.graph import Graph


def h_bz(g: Graph, h: int, counter: Counter | None = None) -> CoreResult:
    """Exact (k,h)-core decomposition by plain peeling (paper Algorithm 1)."""
    check_h(h)
    counter = counter if counter is not None else Counter()
    A = substrate(g)
    n = g.n
    alive = np.ones(n, dtype=bool)
    deg = batch_h_degrees(A, alive, h, counter)
    core = np.zeros(n, dtype=np.int64)
    order: list[int] = []
    core_decomp(A, h, 0, n, deg, alive, core, counter, order, decrement="none")
    return CoreResult(
        core=core,
        h=h,
        algo="h-BZ",
        visits=counter.visits,
        bfs_calls=counter.bfs_calls,
        order=order,
        extra={"kernel": kernel_name(A)},
    )
