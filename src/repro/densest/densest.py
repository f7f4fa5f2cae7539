"""Distance-h densest subgraph (Problem 1) and its core-based approximation.

Theorem 4: the core with maximum average h-degree is a
(sqrt(f_h(S*) + 0.25) - 0.5)-approximation of the distance-h densest
subgraph. Exact search is exponential; we provide it for tiny graphs so the
guarantee is testable.
"""
from __future__ import annotations

from itertools import combinations

import numpy as np

from repro.core import h_lb_ub
from repro.core.kernels import all_h_degrees, check_h, substrate
from repro.core.types import CoreResult
from repro.graphs.graph import Graph


def avg_h_degree(g: Graph, mask: np.ndarray, h: int) -> float:
    """f_h(S): average h-degree of the subgraph induced by ``mask``."""
    check_h(h)
    size = int(mask.sum())
    if size == 0:
        return 0.0
    degs = all_h_degrees(substrate(g), mask, h)
    return float(degs[mask].sum()) / size


def core_based_densest(
    g: Graph, h: int, decomposition: CoreResult | None = None
) -> tuple[np.ndarray, float]:
    """The core with maximum average h-degree (the paper's approximation)."""
    if decomposition is None:
        decomposition = h_lb_ub(g, h)
    core = decomposition.core
    best_mask = np.ones(g.n, dtype=bool)
    best_f = avg_h_degree(g, best_mask, h)
    for k in np.unique(core):
        if k == 0:
            continue
        mask = core >= k
        f = avg_h_degree(g, mask, h)
        if f > best_f:
            best_f, best_mask = f, mask
    return best_mask, best_f


def exact_densest_bruteforce(g: Graph, h: int) -> tuple[np.ndarray, float]:
    """Exhaustive distance-h densest subgraph — only for tiny graphs (n<=14)."""
    if g.n > 14:
        raise ValueError("brute force limited to n <= 14")
    best_mask = np.zeros(g.n, dtype=bool)
    best_f = 0.0
    vs = list(range(g.n))
    for size in range(1, g.n + 1):
        for subset in combinations(vs, size):
            mask = np.zeros(g.n, dtype=bool)
            mask[list(subset)] = True
            f = avg_h_degree(g, mask, h)
            if f > best_f:
                best_f, best_mask = f, mask
    return best_mask, best_f


def approximation_floor(f_star: float) -> float:
    """Theorem 4's guaranteed value: sqrt(f*(S) + 0.25) - 0.5."""
    return float(np.sqrt(f_star + 0.25) - 0.5)
