"""Exact maximum h-club solvers (substitutes for Gurobi-based DBC/ITDBC [45]).

An h-club is a vertex set S whose *induced* subgraph has diameter <= h
(Definition 5). h-clubs are not hereditary, so branch-and-bound works on the
complement direction: while the candidate set S has a pair u,w with
d_{G[S]}(u, w) > h, any h-club inside S excludes u or w — branch on the two
exclusions. When no far pair remains, S itself is an h-club.

``max_h_club_dbc`` runs that B&B on each whole connected component — like
DBC's single monolithic IP, it blows up on large sparse graphs.
``max_h_club_itdbc`` decomposes per vertex neighborhood with incumbent
pruning — like ITDBC it survives large graphs. Both are exact.

Every h-BFS a solver runs is charged to the caller's :class:`Counter`, the
same visit budget and deadline the decompositions run under. When it runs
out, the solver raises :class:`ClubBudgetExceeded` carrying the best club
found so far: the analogue of the paper's OM/NT cells.
"""
from __future__ import annotations

import numpy as np

from repro.core.kernels import (
    BudgetExceeded,
    Counter,
    all_h_degrees,
    bounded_reach,
    connected_components,
)
from repro.graphs.graph import Graph


class ClubBudgetExceeded(BudgetExceeded):
    """The counter's budget ran out mid-search; ``incumbent`` is the best
    h-club found so far (reproduces the paper's NT/OM cells)."""

    def __init__(self, incumbent: np.ndarray):
        super().__init__("h-club search budget exceeded")
        self.incumbent = incumbent


def _far_pair(
    A: np.ndarray,
    S: np.ndarray,
    h: int,
    degs: np.ndarray | None = None,
    counter: Counter | None = None,
) -> tuple[int, int] | None:
    """Some pair u,w in S with d_{G[S]}(u,w) > h, or None (=> h-club).

    With ``degs`` the scan tries the smallest-h-degree vertices first (they
    are the most likely to have a >h-distant partner, so it exits early).
    """
    ids = np.flatnonzero(S)
    if degs is not None:
        ids = ids[np.argsort(degs[ids])]
    for u in ids:
        reached, _ = bounded_reach(A, int(u), S, h, counter)
        missing = S & ~reached
        missing[u] = False
        if missing.any():
            return int(u), int(np.flatnonzero(missing)[0])
    return None


def is_h_club(A: np.ndarray, mask: np.ndarray, h: int) -> bool:
    """True iff the induced subgraph of ``mask`` has diameter <= h."""
    if int(mask.sum()) <= 1:
        return True
    return _far_pair(A, mask, h) is None


def drop_heuristic(
    A: np.ndarray,
    mask: np.ndarray,
    h: int,
    max_iter: int | None = None,
    counter: Counter | None = None,
) -> np.ndarray:
    """Feasible h-club by repeatedly dropping the vertex with most far pairs.

    Classic DROP heuristic (Bourjolly et al.). Each iteration costs |S|
    h-BFS traversals, so callers cap ``max_iter`` on large sets; if the cap
    is hit the (always feasible) star incumbent is returned instead.
    """
    cur = mask.copy()
    iters = 0
    while int(cur.sum()) > 1:
        # Far partners of each vertex = the rest of S minus its h-degree in G[S].
        cnt = int(cur.sum()) - 1 - all_h_degrees(A, cur, h, counter)
        cnt[~cur] = -1
        worst = int(np.argmax(cnt))
        if cnt[worst] <= 0:
            return cur
        cur[worst] = False
        iters += 1
        if max_iter is not None and iters >= max_iter:
            return star_incumbent(A, mask, h)
    return cur


def star_incumbent(A: np.ndarray, mask: np.ndarray, h: int) -> np.ndarray:
    """The best *star* inside ``mask``: a max-degree vertex plus its alive
    neighbors. For h >= 2 a star is always an h-club (any two leaves meet
    through the center), and for h = 2 it is often optimal in hub-skewed
    graphs — the paper's h=2 club sizes are ~ max degree + 1.
    """
    n = A.shape[0]
    out = np.zeros(n, dtype=bool)
    ids = np.flatnonzero(mask)
    if len(ids) == 0:
        return out
    if h < 2:
        # h=1 club = clique; a single edge is the safe incumbent.
        for u in ids:
            nb = np.flatnonzero(A[u] & mask)
            if len(nb):
                out[u] = out[int(nb[0])] = True
                return out
        out[int(ids[0])] = True
        return out
    deg_in = (A[ids][:, mask]).sum(axis=1)
    center = int(ids[int(np.argmax(deg_in))])
    out[center] = True
    out |= A[center] & mask
    return out


def _kernelize(
    A: np.ndarray, S: np.ndarray, h: int, lower: int, counter: Counter | None
) -> tuple[np.ndarray, np.ndarray]:
    """Peel S down to vertices that could belong to a club larger than the
    incumbent (Theorem-3-style pruning, applied at every B&B node).

    Every member of an h-club of size > ``lower`` has >= ``lower``
    h-neighbors inside the club, hence inside S. Peeling uses the sound
    decrement approximation (a deletion decrements its h-neighbors by one,
    an *upper bound* on their true h-degree — if even the upper bound falls
    below ``lower`` the vertex certainly cannot participate).

    Returns the peeled mask and the (approximate) h-degrees within it.
    """
    S = S.copy()
    degs = np.zeros(A.shape[0], dtype=np.int64)
    ids = np.flatnonzero(S)
    neigh: dict[int, np.ndarray] = {}
    for v in ids:
        reached, _ = bounded_reach(A, int(v), S, h, counter)
        neigh[int(v)] = reached
        degs[v] = np.count_nonzero(reached)
    stack = [int(v) for v in ids if degs[v] < lower]
    queued = set(stack)
    while stack:
        v = stack.pop()
        if not S[v]:
            continue
        S[v] = False
        for u in np.flatnonzero(neigh[v] & S):
            u = int(u)
            degs[u] -= 1
            if degs[u] < lower and u not in queued:
                queued.add(u)
                stack.append(u)
    return S, degs


def _bnb(
    A: np.ndarray,
    start: np.ndarray,
    h: int,
    best: np.ndarray,
    counter: Counter | None,
) -> None:
    """Depth-first far-pair branch-and-bound with per-node kernelization.

    Writes each larger club it finds into ``best`` in place, so the caller
    holds the incumbent when ``counter`` runs out mid-search.
    """
    stack = [start]
    while stack:
        S = stack.pop()
        if int(S.sum()) <= int(best.sum()):
            continue  # cannot beat the incumbent
        S, degs = _kernelize(A, S, h, int(best.sum()), counter)
        if int(S.sum()) <= int(best.sum()):
            continue
        pair = _far_pair(A, S, h, degs, counter)
        if pair is None:
            best[:] = S
            continue
        u, w = pair
        s1 = S.copy()
        s1[u] = False
        s2 = S.copy()
        s2[w] = False
        stack.append(s1)
        stack.append(s2)


def max_h_club_dbc(
    g: Graph,
    h: int,
    mask: np.ndarray | None = None,
    incumbent: np.ndarray | None = None,
    counter: Counter | None = None,
) -> np.ndarray:
    """Exact maximum h-club by whole-component branch-and-bound (DBC analogue).

    Returns the boolean membership mask of a maximum h-club within ``mask``
    (default: the full graph). Raises :class:`ClubBudgetExceeded` when
    ``counter`` runs out.
    """
    A = g.adjacency
    full = np.ones(g.n, dtype=bool) if mask is None else mask.copy()
    best = incumbent.copy() if incumbent is not None else np.zeros(g.n, dtype=bool)
    if not best.any() and full.any():
        best = np.zeros(g.n, dtype=bool)
        best[int(np.flatnonzero(full)[0])] = True
    labels = connected_components(A, full)
    comps = [labels == r for r in np.unique(labels[full])]
    comps.sort(key=lambda c: -int(c.sum()))
    try:
        for comp in comps:
            if int(comp.sum()) <= int(best.sum()):
                break
            seed = star_incumbent(A, comp, h)
            if int(seed.sum()) > int(best.sum()):
                best = seed
            if int(comp.sum()) <= 64:
                seed = drop_heuristic(A, comp, h, max_iter=64, counter=counter)
                if int(seed.sum()) > int(best.sum()):
                    best = seed
            _bnb(A, comp, h, best, counter)
    except BudgetExceeded:
        raise ClubBudgetExceeded(best) from None
    return best


def max_h_club_itdbc(
    g: Graph,
    h: int,
    mask: np.ndarray | None = None,
    incumbent: np.ndarray | None = None,
    counter: Counter | None = None,
) -> np.ndarray:
    """Exact maximum h-club by per-vertex decomposition (ITDBC analogue).

    Any h-club containing v lies inside v's closed h-neighborhood N_h[v]
    (induced distance >= graph distance). Iterate vertices by decreasing
    h-degree, solve the B&B restricted to N_h[v] with the global incumbent
    for pruning, and stop as soon as no remaining neighborhood can beat it.
    Raises :class:`ClubBudgetExceeded` when ``counter`` runs out.
    """
    A = g.adjacency
    full = np.ones(g.n, dtype=bool) if mask is None else mask.copy()
    best = incumbent.copy() if incumbent is not None else np.zeros(g.n, dtype=bool)
    ids = np.flatnonzero(full)
    if len(ids) == 0:
        return best
    if not best.any():
        best = star_incumbent(A, full, h)
    hdeg = np.zeros(g.n, dtype=np.int64)
    neigh: dict[int, np.ndarray] = {}
    try:
        for v in ids:
            reached, _ = bounded_reach(A, int(v), full, h, counter)
            neigh[int(v)] = reached
            hdeg[v] = np.count_nonzero(reached)
        order = ids[np.argsort(-hdeg[ids])]
        for v in order:
            v = int(v)
            if hdeg[v] + 1 <= int(best.sum()):
                break  # sorted descending: nothing below can beat the incumbent
            cand = neigh[v].copy()
            cand[v] = True
            cand &= full
            if int(cand.sum()) <= 64:
                seed = drop_heuristic(A, cand, h, max_iter=64, counter=counter)
                if int(seed.sum()) > int(best.sum()):
                    best = seed
            _bnb(A, cand, h, best, counter)
    except BudgetExceeded:
        raise ClubBudgetExceeded(best) from None
    return best
