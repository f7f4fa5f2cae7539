"""Distance-generalized cocktail party (paper Appendix B, Problem 2).

Given query vertices Q, find a connected vertex set containing Q that
maximizes the minimum h-degree. The optimum is the connected component,
within the (k,h)-core of largest k, that contains all of Q — found by
descending k from the h-degeneracy (the paper adapts h-LB+UB's top-down
sweep; we reuse a finished decomposition, which is equivalent).
"""
from __future__ import annotations

import numpy as np

from repro.core.kernels import bounded_reach, check_decomposition, check_h, substrate
from repro.core.types import CoreResult
from repro.graphs.graph import Graph


def cocktail_party(
    g: Graph,
    query: list[int],
    h: int,
    decomposition: CoreResult,
) -> tuple[np.ndarray, int]:
    """Solve Problem 2 from ``decomposition``, the (k,h)-core decomposition
    of ``g``; returns (solution mask, its guaranteed min h-degree k).

    Returns an empty mask with k = -1 when the query vertices are not
    connected even in the 0-core (i.e., not in one component of G). Raises
    ``ValueError`` for an empty query or an id outside ``[0, n)``.
    """
    check_h(h)
    check_decomposition(g, decomposition.core, h, decomposition.h)
    q = np.asarray(query, dtype=np.int64)
    if q.size == 0 or q.min() < 0 or q.max() >= g.n:
        raise ValueError(f"query must be non-empty ids in [0, {g.n}), got {query!r}")
    core = decomposition.core
    k_max = int(core[q].min())  # Q must survive in the core, so k <= min core(Q)
    A = substrate(g)
    for k in range(k_max, -1, -1):
        # Q[0]'s component in G[core >= k]: an uncharged reach with h = n.
        comp = bounded_reach(A, int(q[0]), core >= k, g.n)[0]
        comp[q[0]] = True
        if comp[q].all():
            return comp, k
    return np.zeros(g.n, dtype=bool), -1
