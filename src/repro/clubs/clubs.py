"""Exact maximum h-club solvers (substitutes for Gurobi-based DBC/ITDBC [45]).

An h-club is a vertex set S whose *induced* subgraph has diameter <= h
(Definition 5). h-clubs are not hereditary, so branch-and-bound works on the
complement direction: while the candidate set S has a pair u,w with
d_{G[S]}(u, w) > h, any h-club inside S excludes u or w — branch on the two
exclusions. When no far pair remains, S itself is an h-club.

Both solvers run one search (``_search``) over a list of candidate regions,
largest first, and differ only in the regions: ``max_h_club_dbc`` searches
each whole connected component — like DBC's single monolithic IP, it blows
up on large sparse graphs; ``max_h_club_itdbc`` searches each vertex's
closed h-neighbourhood — like ITDBC it survives large graphs. Both are exact.
The only seed is the starting incumbent, the caller's or else the best star;
DESIGN.md §4.2 says why regions get no heuristic seed of their own.

Every h-BFS a solver runs walks :func:`~repro.core.kernels.substrate` and is
charged to the caller's :class:`Counter`: the same substrate, visit budget
and deadline the decompositions run under. When it runs out, the solver
raises :class:`ClubBudgetExceeded` carrying the best club found so far: the
analogue of the paper's OM/NT cells.
"""
from __future__ import annotations

from typing import Callable, Iterable, Iterator

import numpy as np

from repro.core.kernels import (
    Adjacency,
    BudgetExceeded,
    Counter,
    _count_nonzero,
    all_h_degrees,
    bounded_reach,
    check_h,
    connected_components,
    substrate,
)
from repro.graphs.graph import Graph


class ClubBudgetExceeded(BudgetExceeded):
    """The counter's budget ran out mid-search; ``incumbent`` is the best
    h-club found so far (reproduces the paper's NT/OM cells)."""

    def __init__(self, incumbent: np.ndarray):
        super().__init__("h-club search budget exceeded")
        self.incumbent = incumbent


def _far_pair(
    A: Adjacency,
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


def is_h_club(A: Adjacency, mask: np.ndarray, h: int) -> bool:
    """True iff the induced subgraph of ``mask`` has diameter <= h."""
    return _far_pair(A, mask, h) is None


def star_incumbent(A: Adjacency, mask: np.ndarray, h: int) -> np.ndarray:
    """The best *star* inside ``mask``: a max-degree vertex plus its alive
    neighbors. For h >= 2 a star is always an h-club (any two leaves meet
    through the center), and for h = 2 it is often optimal in hub-skewed
    graphs — the paper's h=2 club sizes are ~ max degree + 1. It charges
    no counter.
    """
    ids = np.flatnonzero(mask)
    if len(ids) == 0:
        return np.zeros(len(A), dtype=bool)
    deg = all_h_degrees(A, mask, 1)[ids]
    # h=1 club = clique: the first vertex with an alive neighbor and its
    # smallest one, a single edge, is the safe incumbent.
    center = int(ids[np.argmax(deg > 0) if h < 2 else np.argmax(deg)])
    out = bounded_reach(A, center, mask, 1)[0]
    if h < 2:
        out[np.flatnonzero(out)[1:]] = False
    out[center] = True
    return out


def _kernelize(
    A: Adjacency, S: np.ndarray, h: int, lower: int, counter: Counter | None
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
    degs = np.zeros(len(A), dtype=np.int64)
    ids = np.flatnonzero(S)
    neigh: dict[int, np.ndarray] = {}
    for v in ids:
        reached, _ = bounded_reach(A, int(v), S, h, counter)
        neigh[int(v)] = reached
        degs[v] = _count_nonzero(reached)
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
    A: Adjacency,
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
        for x in pair:  # any club inside S excludes one end of the pair
            child = S.copy()
            child[x] = False
            stack.append(child)


def _search(
    g: Graph,
    h: int,
    mask: np.ndarray | None,
    incumbent: np.ndarray | None,
    counter: Counter | None,
    regions: Callable[..., Iterable[np.ndarray]],
) -> np.ndarray:
    """The one search both solvers run: branch-and-bound on each region.

    ``regions(A, full, h, counter)`` gives candidate regions of the mask
    ``full``, largest first, such that every h-club lies inside one of
    them. The search starts from ``incumbent`` (else the best star inside
    ``full``), runs ``_bnb`` on each region, and stops at the first region
    no larger than the incumbent. A budget cut, also one raised while the
    regions are generated, becomes :class:`ClubBudgetExceeded`.
    """
    check_h(h)
    A = substrate(g)
    full = np.ones(g.n, dtype=bool) if mask is None else mask
    best = star_incumbent(A, full, h) if incumbent is None else incumbent.copy()
    try:
        for region in regions(A, full, h, counter):
            if int(region.sum()) <= int(best.sum()):
                break  # largest first: no later region can beat the incumbent
            _bnb(A, region, h, best, counter)
    except BudgetExceeded:
        raise ClubBudgetExceeded(best) from None
    return best


def _components(
    A: Adjacency, full: np.ndarray, h: int, counter: Counter | None
) -> list[np.ndarray]:
    """DBC's regions: the connected components of ``full``, largest first."""
    labels = connected_components(A, full)
    comps = [labels == r for r in np.unique(labels[full])]
    comps.sort(key=lambda c: -int(c.sum()))
    return comps


def _neighbourhoods(
    A: Adjacency, full: np.ndarray, h: int, counter: Counter | None
) -> Iterator[np.ndarray]:
    """ITDBC's regions: each vertex's closed h-neighbourhood N_h[v] in
    ``full``, by decreasing h-degree. Any h-club containing v lies inside
    N_h[v], since induced distances are at least graph distances."""
    ids = np.flatnonzero(full)
    hoods = [bounded_reach(A, int(v), full, h, counter)[0] for v in ids]
    hdeg = np.array([_count_nonzero(r) for r in hoods], dtype=np.int64)
    for i in np.argsort(-hdeg):
        hoods[i][ids[i]] = True
        yield hoods[i]


def max_h_club_dbc(
    g: Graph,
    h: int,
    mask: np.ndarray | None = None,
    incumbent: np.ndarray | None = None,
    counter: Counter | None = None,
) -> np.ndarray:
    """Exact maximum h-club by whole-component branch-and-bound (DBC analogue).

    Returns the boolean membership mask of a maximum h-club within ``mask``
    (default: the full graph), or ``incumbent`` if no club there is larger.
    Raises :class:`ClubBudgetExceeded` when ``counter`` runs out.
    """
    return _search(g, h, mask, incumbent, counter, _components)


def max_h_club_itdbc(
    g: Graph,
    h: int,
    mask: np.ndarray | None = None,
    incumbent: np.ndarray | None = None,
    counter: Counter | None = None,
) -> np.ndarray:
    """Exact maximum h-club by per-vertex decomposition (ITDBC analogue).

    Same contract as :func:`max_h_club_dbc`; searches each vertex's closed
    h-neighbourhood, largest first, with one global incumbent.
    """
    return _search(g, h, mask, incumbent, counter, _neighbourhoods)
