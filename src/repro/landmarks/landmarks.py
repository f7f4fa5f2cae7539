"""Landmark selection + triangle-inequality distance estimation (paper §6.6).

Estimator: with landmark set L and per-landmark BFS distances,
    LB(s,t) = max_u |d(s,u) - d(u,t)|,   UB(s,t) = min_u d(s,u) + d(u,t),
and the reported error is |(LB+UB)/2 - d(s,t)| / d(s,t), averaged over
sampled reachable pairs (Table 7, smaller is better).

Selection strategies: 20 random vertices from the maximum (k,h)-core for
h in 1..4, top-20 closeness, top-20 betweenness (Brandes), top-20 h-degree.
"""
from __future__ import annotations

import numpy as np

from repro.core.kernels import (
    all_h_degrees, check_decomposition, check_h, distance_matrix, substrate,
)
from repro.graphs.graph import Graph


def closeness_centrality(g: Graph, dist: np.ndarray | None = None) -> np.ndarray:
    """Closeness = (n-1) / sum of distances to reachable vertices."""
    if dist is None:
        dist = distance_matrix(g.adjacency)
    reach = dist > 0
    total = dist.sum(axis=1, where=reach, dtype=np.int64)
    return np.divide(np.count_nonzero(reach, axis=1), total,
                     out=np.zeros(g.n), where=total > 0)


def betweenness_centrality(g: Graph) -> np.ndarray:
    """Exact betweenness via Brandes' algorithm (unweighted)."""
    n = g.n
    adj = g.adjacency_lists
    # Python lists, not NumPy arrays: the loops read and write one element
    # at a time, and a NumPy scalar access costs several times a list's.
    bc = [0.0] * n
    for s in range(n):
        sigma = [0.0] * n
        sigma[s] = 1.0
        dist = [-1] * n
        dist[s] = 0
        order = [s]  # the BFS order is also its FIFO queue; ``head`` is the front
        preds: list[list[int]] = [[] for _ in range(n)]
        head = 0
        while head < len(order):
            v = order[head]
            head += 1
            for w in adj[v]:
                if dist[w] < 0:
                    dist[w] = dist[v] + 1
                    order.append(w)
                if dist[w] == dist[v] + 1:
                    sigma[w] += sigma[v]
                    preds[w].append(v)
        delta = [0.0] * n
        for w in reversed(order):
            for v in preds[w]:
                delta[v] += sigma[v] / sigma[w] * (1.0 + delta[w])
            if w != s:
                bc[w] += delta[w]
    return np.array(bc) / 2.0  # undirected: each pair counted twice


def select_landmarks(
    g: Graph,
    method: str,
    ell: int = 20,
    h: int = 1,
    core: np.ndarray | None = None,
    seed: int = 0,
    dist: np.ndarray | None = None,
) -> np.ndarray:
    """Pick ``ell`` landmark vertex ids by the named strategy.

    Methods: "core" (random from the maximum (k,h)-core — the paper's
    proposal), "cc" (top closeness), "bc" (top betweenness), "hdeg"
    (top h-degree in G). "core" reads ``core``, the (k,h)-core indexes of
    ``g`` at this h, and raises ``ValueError`` without it.
    """
    check_h(h)
    rng = np.random.default_rng(seed)
    if method == "core":
        if core is None:
            raise ValueError('method "core" requires the core indexes')
        check_decomposition(g, core)
        top = np.flatnonzero(core == core.max(initial=0))
        if len(top) <= ell:
            # Top core smaller than ell: fill from the next cores down.
            order = np.argsort(-core)
            return order[:ell]
        return rng.choice(top, size=ell, replace=False)
    if method == "cc":
        return np.argsort(-closeness_centrality(g, dist))[:ell]
    if method == "bc":
        return np.argsort(-betweenness_centrality(g))[:ell]
    if method == "hdeg":
        degs = all_h_degrees(substrate(g), np.ones(g.n, dtype=bool), h)
        return np.argsort(-degs)[:ell]
    raise ValueError(f"unknown landmark method {method!r}")


def estimate_error(
    g: Graph,
    landmarks: np.ndarray,
    n_pairs: int = 500,
    seed: int = 0,
    dist: np.ndarray | None = None,
) -> float:
    """Mean relative error of the midpoint estimator over sampled pairs."""
    if dist is None:
        dist = distance_matrix(g.adjacency)
    rng = np.random.default_rng(seed)
    ld = dist[np.asarray(landmarks, dtype=np.int64)]  # (ell, n)
    errs = []
    trials = 0
    while len(errs) < n_pairs and trials < n_pairs * 20:
        trials += 1
        s, t = rng.integers(0, g.n, size=2)
        if s == t or dist[s, t] <= 0:
            continue
        ds, dt = ld[:, s].astype(np.float64), ld[:, t].astype(np.float64)
        ok = (ds >= 0) & (dt >= 0)
        if not ok.any():
            continue
        lb = float(np.abs(ds[ok] - dt[ok]).max())
        ub = float((ds[ok] + dt[ok]).min())
        est = (lb + ub) / 2.0
        errs.append(abs(est - float(dist[s, t])) / float(dist[s, t]))
    return float(np.mean(errs)) if errs else float("nan")
