"""Algorithm 2 — h-LB: peeling with per-vertex lower bounds.

Each vertex starts bucketed at a lower bound on its core index (LB2 by
default, LB1 for the Table 5 ablation); its h-degree is computed
lazily, only when the peel front reaches the bound. This skips the h-degree
re-computations that dominate h-BZ.
"""
from __future__ import annotations

from typing import Literal, get_args

import numpy as np

# batch_h_degrees is unused here but bound so khbench/spans.py can wrap it.
from repro.core.bounds import batch_h_degrees, lower_bounds  # noqa: F401
from repro.core.decomp import core_decomp
from repro.core.kernels import Counter, check_h, kernel_name, substrate
from repro.core.types import CoreResult
from repro.graphs.graph import Graph

LowerBoundKind = Literal["lb2", "lb1"]


def h_lb(
    g: Graph,
    h: int,
    counter: Counter | None = None,
    lb: LowerBoundKind = "lb2",
) -> CoreResult:
    """Exact (k,h)-core decomposition with lower-bound lazy bucketing.

    Args:
        lb: which lower bound seeds the buckets — "lb2" (the paper's h-LB)
            or "lb1" (Table 5 ablation).
    """
    check_h(h)
    if lb not in get_args(LowerBoundKind):
        raise ValueError(f"unknown lower bound {lb!r}")
    counter = counter if counter is not None else Counter()
    A = substrate(g)
    n = g.n
    lb1, lb2 = lower_bounds(A, h, counter)
    lb_vec = lb2 if lb == "lb2" else lb1
    core = np.zeros(n, dtype=np.int64)
    order: list[int] = []
    core_decomp(A, h, 0, n, lb_vec, np.ones(n, dtype=bool), core, counter, order)
    return CoreResult(
        core=core,
        h=h,
        algo=f"h-LB[{lb}]" if lb != "lb2" else "h-LB",
        visits=counter.visits,
        bfs_calls=counter.bfs_calls,
        order=order,
        extra={"lb": lb_vec, "kernel": kernel_name(A)},
    )
