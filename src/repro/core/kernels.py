"""Instrumented h-bounded BFS kernels.

The paper's efficiency metric (Table 3) is "the total number of computed
point-to-point distances (i.e., the total number of possibly repeated
vertices visited in all h-bfs)". Every kernel here charges that count to a
:class:`Counter`, which can also enforce a visit budget and a wall-clock
deadline, so that a run the paper marks "NT" (did not terminate) stops
instead of running for 20 hours. The tables set only the wall-clock cap, so
NT follows the host's speed until ROADMAP item 11 gives a host-independent
rule.

The kernel walks one of two adjacency substrates of a :class:`Graph`, chosen
once per graph by :func:`substrate`: the dense boolean matrix (a NumPy row
scan per frontier vertex, O(n) each) or sorted neighbour lists (a pure
Python walk, O(degree) each). Both charge the same visits and return the
same masks, so the algorithms above the kernel never branch on it.
:func:`bounded_reach` is the one h-BFS per substrate: component labels are
its reach with h = n, uncharged. :meth:`Counter.charge` is the one way work
is added, by a kernel call or by a Spark batch's task totals.
"""
from __future__ import annotations

import time
from dataclasses import dataclass

import numpy as np
# NumPy 1.26's C-level count_nonzero: np.count_nonzero is a Python wrapper
# (array-function dispatch, an axis check) that costs about 0.3 µs per call
# on top of this, and the kernels call it once or twice per BFS.
from numpy.core.multiarray import count_nonzero as _count_nonzero

from repro.graphs.graph import Graph

# Fill ratio 2m/n² of the n x n matrix at or below which the h-BFS walks
# neighbour lists instead of the dense matrix. A list walk costs O(degree)
# per frontier vertex; a row scan costs O(n) per frontier vertex on top of a
# fixed NumPy overhead per BFS. Whole-graph sweeps at h=2 (min of 45 rounds,
# both substrates interleaved; DESIGN.md has the table): the dense kernel is
# 1.6-10x faster on every analogue at 1.53% fill (caAs) or more, and lists
# are 1.3-3x faster on every analogue at or below 1% fill (coli, sytb, doub,
# hyves, amzn, rnPA, rnTX) except lj (0.53%), where the dense kernel is 1.2x
# faster. The rule thus picks the faster kernel on 12 of the 13 analogues,
# and the list substrate keeps memory at O(n + m).
LISTS_MAX_FILL = 0.01

Adjacency = np.ndarray | list[list[int]]


class BudgetExceeded(RuntimeError):
    """Raised by :class:`Counter` when a visit budget or deadline is hit."""


@dataclass
class Counter:
    """Accumulates BFS work; optionally enforces budgets.

    Attributes:
        visits: total (possibly repeated) alive vertices scanned across all
            h-BFS traversals — the paper's "point-to-point distances".
        bfs_calls: number of h-BFS traversals executed.
        visit_budget: raise :class:`BudgetExceeded` once ``visits`` passes this.
        deadline: absolute ``time.monotonic()`` deadline, checked per charge.
    """

    visits: int = 0
    bfs_calls: int = 0
    visit_budget: int | None = None
    deadline: float | None = None

    def charge(self, visits: int, calls: int = 1) -> None:
        """Record ``calls`` h-BFS traversals that scanned ``visits`` vertices
        in all, then enforce the visit budget and the deadline.

        The one method that adds work: each kernel call charges one
        traversal, and a Spark fan-out charges its tasks' totals at once.
        """
        self.visits += visits
        self.bfs_calls += calls
        if self.visit_budget is not None and self.visits > self.visit_budget:
            raise BudgetExceeded(f"visit budget exceeded: {self.visits}")
        if self.deadline is not None and time.monotonic() > self.deadline:
            raise BudgetExceeded("wall-clock budget exceeded")


def check_h(h: int, name: str = "h") -> None:
    """Reject a distance threshold that is not an integer >= 1 (a BFS with
    h = 2.5 would silently run to distance 3); h-LB+UB's partition size S,
    checked as ``name="s"``, obeys the same rule."""
    if not isinstance(h, (int, np.integer)) or h < 1:
        raise ValueError(f"{name} must be >= 1 and an integer, got {h!r}")


def check_decomposition(g: Graph, core: np.ndarray, h: int | None = None,
                        core_h: int | None = None) -> None:
    """Reject core indexes that are not of ``g`` or, given ``core_h``, not
    at distance ``h``: an application reading them would answer for
    another graph or another h, silently or with a NumPy shape error."""
    if len(core) != g.n:
        raise ValueError(f"the decomposition has {len(core)} vertices, the graph {g.n}")
    if core_h != h:
        raise ValueError(f"the decomposition is at h={core_h}, not h={h}")


def substrate(g: Graph) -> Adjacency:
    """The adjacency the h-BFS kernel walks for ``g``: lists if sparse.

    This is the one place the substrate is chosen; the decomposition entry
    points call it once per graph. Neither substrate is built until asked
    for, so a sparse graph's dense matrix is never built here.
    """
    if 2 * g.m <= LISTS_MAX_FILL * g.n * g.n:
        return g.adjacency_lists
    return g.adjacency


def kernel_name(A: Adjacency) -> str:
    """``"lists"`` or ``"dense"``: which kernel ``bounded_reach`` runs on ``A``."""
    return "lists" if isinstance(A, list) else "dense"


def bounded_reach(
    A: Adjacency,
    v: int,
    alive: np.ndarray,
    h: int,
    counter: Counter | None = None,
) -> tuple[np.ndarray, np.ndarray]:
    """h-bounded BFS from ``v`` over the subgraph induced by ``alive``.

    Args:
        A: dense boolean adjacency matrix or sorted neighbour lists (see
           :func:`substrate`); both give identical results and visits.
        v: source vertex (its own ``alive`` flag is irrelevant: it is the
           source, never an intermediate of its own shortest paths).
        alive: boolean mask of vertices that may be reached / traversed.
        h: distance threshold (h >= 0). h = 0 is the empty reach: both
           masks are empty and the call charges 0 visits and one BFS call.
        counter: optional instrumentation.

    Returns:
        ``(reached, at_h)``: boolean masks of the vertices ``u != v`` with
        ``d(v, u) <= h``, and of those with ``d(v, u) == h`` exactly. The
        ``at_h`` mask backs Algorithm 3's line-17 optimization (a neighbor at
        distance exactly ``h`` loses exactly 1 from its h-degree when ``v``
        is deleted, because ``v`` cannot be interior to any of its <=h paths).
    """
    if isinstance(A, list):
        return _reach_lists(A, v, alive, h, counter)
    n = A.shape[0]
    if h <= 0:
        empty = np.zeros(n, dtype=bool)
        if counter is not None:
            counter.charge(0)
        return empty, empty.copy()
    # Count with count_nonzero, a byte test: a boolean .sum() widens every
    # element to int64 first and costs about twice as much per visit.
    frontier = A[v] & alive
    frontier[v] = False
    visits = _count_nonzero(frontier)
    # Level 1's frontier doubles as the reached mask; the first expansion
    # replaces ``reached`` with a new array, so neither is copied up front.
    reached = frontier
    level = 1
    while level < h:
        ids = frontier.nonzero()[0]
        if not len(ids):
            break
        scan = A[ids]
        scan &= alive
        visits += _count_nonzero(scan)
        nxt = np.logical_or.reduce(scan, axis=0)
        np.greater(nxt, reached, out=nxt)  # nxt & ~reached, in place
        nxt[v] = False
        reached = reached | nxt
        frontier = nxt
        level += 1
    if counter is not None:
        counter.charge(visits)
    if level < h:
        return reached, np.zeros(n, dtype=bool)
    # At h = 1 both masks are one array; the caller gets two.
    return reached, frontier.copy() if reached is frontier else frontier


def _reach_lists(
    adj: list[list[int]],
    v: int,
    alive: np.ndarray,
    h: int,
    counter: Counter | None,
) -> tuple[np.ndarray, np.ndarray]:
    """:func:`bounded_reach` over neighbour lists.

    Charges exactly what the dense kernel charges: one visit per alive
    neighbour of every vertex it expands (the source, then each frontier
    short of distance h), counting the source too whenever it is alive.
    Reached vertices are marked in a per-call ``bytearray`` that the
    returned mask views without a copy: a byte test and a byte write per
    visit. ``at_h`` is a second ``bytearray``, marked while the last level
    is expanded; for h = 0 nothing is expanded and both masks stay empty.
    Each call allocates its own buffers, so every result is a fresh,
    writable array (callers write into them).
    """
    live = memoryview(alive)
    n = len(adj)
    mark = bytearray(n)
    mark[v] = 1
    frontier = [v]
    visits = 0
    level = 0
    last = bytearray(n)
    while level < h and frontier:
        nxt = []
        final = level == h - 1
        for u in frontier:
            for w in adj[u]:
                if live[w]:
                    visits += 1
                    if not mark[w]:
                        mark[w] = 1
                        if final:
                            last[w] = 1
                        else:
                            nxt.append(w)
        frontier = nxt
        level += 1
    if counter is not None:
        counter.charge(visits)
    mark[v] = 0
    return np.frombuffer(mark, bool), np.frombuffer(last, bool)


def all_h_degrees(
    A: Adjacency,
    alive: np.ndarray,
    h: int,
    counter: Counter | None = None,
    sources: np.ndarray | None = None,
) -> np.ndarray:
    """h-degrees in G[alive] of every vertex of ``sources`` (default: alive).

    ``sources`` must lie within ``alive``; each source costs one h-BFS over
    the whole of G[alive]. Returns a full-length int64 array; entries for
    non-sources are 0. For h = 0 every entry is 0, and each source still
    costs one BFS call of 0 visits (see :func:`bounded_reach`). This is the
    batch the paper parallelizes in §4.6 — the Spark fan-out lives in
    :mod:`repro.pregel.hdegree` and produces identical values (tested).
    """
    out = np.zeros(len(A), dtype=np.int64)
    ids = np.flatnonzero(alive if sources is None else sources)
    out[ids] = [
        _count_nonzero(bounded_reach(A, v, alive, h, counter)[0]) for v in ids.tolist()
    ]
    return out


def distance_matrix(A: np.ndarray, alive: np.ndarray | None = None) -> np.ndarray:
    """All-pairs shortest-path distances over the alive-induced subgraph.

    Returns an ``(n, n)`` int32 matrix with -1 for unreachable pairs and for
    any pair involving a dead vertex; diagonal is 0 for alive vertices.
    Intended for the small graphs used in tests, metrics, clubs and landmarks.
    """
    n = A.shape[0]
    if alive is None:
        alive = np.ones(n, dtype=bool)
    dist = np.full((n, n), -1, dtype=np.int32)
    for v in np.flatnonzero(alive):
        dist[v, v] = 0
        frontier = A[v] & alive
        d = 1
        reached = frontier.copy()
        reached[v] = True
        while frontier.any():
            dist[v, frontier] = d
            rows = A[np.flatnonzero(frontier)]
            nxt = (rows & alive).any(axis=0) & ~reached
            reached |= nxt
            frontier = nxt
            d += 1
    return dist


def connected_components(A: Adjacency, alive: np.ndarray) -> np.ndarray:
    """Component labels of the alive-induced subgraph.

    ``A`` is either substrate (see :func:`substrate`); both give the same
    labels. Returns an int64 array holding, for each alive vertex, the
    smallest alive id in its component, and -1 for each dead vertex. Each
    component is one uncharged :func:`bounded_reach` with h = n from its
    smallest still-unlabelled id, over the vertices not yet labelled.
    """
    n = len(A)
    label = np.full(n, -1, dtype=np.int64)
    todo = alive.copy()
    while todo.any():
        root = int(todo.argmax())
        comp = bounded_reach(A, root, todo, n)[0]
        comp[root] = True
        label[comp] = root
        todo[comp] = False
    return label


def timed_deadline(seconds: float) -> float:
    """Absolute monotonic deadline ``seconds`` from now."""
    return time.monotonic() + seconds
