"""Distance-generalized cocktail party (paper Appendix B, Problem 2).

Given query vertices Q, find a connected vertex set containing Q that
maximizes the minimum h-degree. The optimum is the connected component,
within the (k,h)-core of largest k, that contains all of Q — found by
descending k from the h-degeneracy (the paper adapts h-LB+UB's top-down
sweep; we reuse a finished decomposition, which is equivalent).
"""
from __future__ import annotations

import numpy as np

from repro.core import h_lb_ub
from repro.core.kernels import connected_components, substrate
from repro.core.types import CoreResult
from repro.graphs.graph import Graph


def cocktail_party(
    g: Graph,
    query: list[int],
    h: int,
    decomposition: CoreResult | None = None,
) -> tuple[np.ndarray, int]:
    """Solve Problem 2; returns (solution mask, its guaranteed min h-degree k).

    Returns an empty mask with k = -1 when the query vertices are not
    connected even in the 0-core (i.e., not in one component of G). Raises
    ``ValueError`` for an empty query or an id outside ``[0, n)``.
    """
    q = np.asarray(query, dtype=np.int64)
    if q.size == 0 or q.min() < 0 or q.max() >= g.n:
        raise ValueError(f"query must be non-empty ids in [0, {g.n}), got {query!r}")
    if decomposition is None:
        decomposition = h_lb_ub(g, h)
    core = decomposition.core
    k_max = int(core[q].min())  # Q must survive in the core, so k <= min core(Q)
    A = substrate(g)
    for k in range(k_max, -1, -1):
        labels = connected_components(A, core >= k)
        if labels[q[0]] >= 0 and (labels[q] == labels[q[0]]).all():
            return labels == labels[q[0]], k
    return np.zeros(g.n, dtype=bool), -1
