"""The bucket-peel engine: Algorithms 1, 3, 5 and 6's cleaning pass.

The paper's h-BZ (Alg. 1), its upper bound on the implicit power graph G^h
(Alg. 5), CoreDecomp (Alg. 3) and ImproveLB's cleaning of V[k] (Alg. 6) are
one Batagelj–Zaveršnik bucket peel. They differ only in how a peeled
vertex's still-alive h-neighbours get their new key, which ``decrement``
selects:

- ``"none"`` (h-BZ): a fresh h-BFS for each, so keys stay exact h-degrees;
- ``"all"`` (UB, and ImproveLB's cleaning, which peels only the buckets
  below kmin): an O(1) decrement for each, so keys become degrees in the
  implicit power graph (an upper bound on the core index);
- ``"at_h"`` (Alg. 3, shared by h-LB and each h-LB+UB partition): a
  decrement for the neighbours at distance exactly h (line 17: the peeled
  vertex cannot be interior to any of their <=h paths) and an h-BFS for the
  rest;
- ``"lazy"`` (beyond the paper; the default of h-LB and h-LB+UB): the same
  decrement at distance exactly h, but every other hit neighbour u not
  already settled at k (the guard below) goes back to the bucket of its
  lower bound, ``max(keys[u], k)``, flagged lazy, and is recomputed only
  when the sweep pops it. One h-BFS then covers every hit u took since its
  last exact h-degree.

The lazy rule stays exact for the reason the lower-bound start does (§4.3):
keys[u] <= core(u), and core(u) does not change while vertices of lower
core index are peeled, so a lazy key never lies above the level at which
exact peeling removes u. Since the sweep never goes back, a key below the
current k waits at k.

Two more steps of the lazy rule restore what Batagelj–Zaveršnik's own
``if deg[u] > k`` test saves, which the paper's ``max(deg, k)`` clamp drops:

- the guard: a hit neighbour u that is not lazy and has ``deg[u] <= k`` is
  left as it is. ``deg[u]`` is u's exact h-degree when last computed,
  lowered since only by exact at-h decrements; every peel since removed at
  least itself from u's h-neighbourhood, so ``deg[u]`` bounds u's current
  h-degree from above. u already sits in bucket k (its bucket is
  ``max(deg[u], k')`` for the k' of its last move, and every bucket below k
  is empty), so it is peeled at k whatever the hit changed;
- peel on confirm: a lazy pop whose recomputed h-degree d is at most k is
  peeled at once, from the h-BFS that just recomputed it. The graph has not
  changed since, so that BFS is the one its peel would run, and a vertex
  whose h-degree is at most k at level k has core index k whichever vertex
  of bucket k goes first.

Only the Alg. 3 and lazy rules start from lazy keys: a vertex sitting in
bucket i with ``setlb[v] == True`` is there because of a *lower bound*;
popping it computes its current h-degree and re-buckets it. The other rules
start from exact h-degrees. Popping a vertex with ``setlb[v] == False``
peels it: its core index is assigned iff k >= kmin (otherwise a later
partition will assign it).
"""
from __future__ import annotations

from typing import Literal

import numpy as np

from repro.core.buckets import Buckets
from repro.core.kernels import Adjacency, Counter, _count_nonzero, bounded_reach

Decrement = Literal["none", "all", "at_h", "lazy"]
# h-LB's and h-LB+UB's switch between this repo's reuse of lower bounds and
# the paper's rules, mapped to the CoreDecomp rule each runs ("reuse" also
# turns on h-LB+UB's ImproveLB skip of assigned vertices).
Rule = Literal["reuse", "paper"]
RULE_DECREMENT: dict[str, Decrement] = {"reuse": "lazy", "paper": "at_h"}


def core_decomp(
    A: Adjacency,
    h: int,
    kmin: int,
    kmax: int,
    keys: np.ndarray,
    alive: np.ndarray,
    core: np.ndarray,
    counter: Counter | None = None,
    order: list[int] | None = None,
    decrement: Decrement = "at_h",
) -> tuple[int, int, int]:
    """Peel ``alive`` in bucket order, assigning cores in [kmin, kmax].

    Args:
        keys: initial bucket of every alive vertex — a lower bound (``"at_h"``,
            ``"lazy"``) or the exact h-degree (``"none"``, ``"all"``). A vertex
            whose core index a previous partition already assigned sits above
            ``kmax`` and is never popped. Never written to.
        alive: the vertices to peel; mutated in place as they are peeled.
        core: mutated in place for vertices peeled at k >= kmin; entries of
            unassigned vertices must be 0.
        order: if given, append vertices in peel order (global peels only).
        decrement: which reached neighbours of a peeled vertex are decremented
            instead of recomputed (see the module docstring).

    Returns ``(lazy_pops, confirmed, guarded)``: how many pops found a lazy
    vertex and recomputed its h-degree; how many of those found it at most
    k, so ``"at_h"`` put the vertex back in bucket k and ``"lazy"`` peeled
    it at once; and how many hits the lazy rule's guard skipped because the
    neighbour's upper bound ``deg[u]`` was already at most k (see the module
    docstring). All three are 0 for ``"none"`` and ``"all"``, and
    ``guarded`` is 0 for ``"at_h"``.
    """
    n = len(A)
    bk = Buckets(n)
    # Valid only where not lazy; lazy vertices get theirs when popped.
    deg = keys.tolist()
    for v in np.flatnonzero(alive).tolist():
        bk.add(v, deg[v])
    # The lazy flags live in a bytearray, read and written a byte per vertex;
    # ``setlb`` views the same bytes for the one vectorized test per peel.
    from_lb = decrement in ("at_h", "lazy")
    lazy = bytearray([from_lb]) * n
    setlb = np.frombuffer(lazy, dtype=bool)
    # Which reached vertices are decremented: a byte per vertex, all set for
    # "all", none for "none", and at_h's bytes (taken per peel) otherwise.
    dec = b"\1" * n if decrement == "all" else bytes(n)
    eager = decrement != "lazy"
    # The lazy rule's fallback keys: ``deg`` is overwritten as the peel goes.
    lb = None if eager else keys.tolist()
    lazy_pops = confirmed = guarded = 0
    for k in range(max(0, kmin - 1), kmax + 1):
        while bk.nonempty(k):
            v = bk.pop(k)
            # The same h-BFS recomputes a lazy pop and peels a settled one.
            reached, at_h = bounded_reach(A, v, alive, h, counter)
            if lazy[v]:
                d = _count_nonzero(reached)
                deg[v] = d
                lazy_pops += 1
                lazy[v] = 0
                if d > k:
                    bk.add(v, d)
                    continue
                confirmed += 1
                # The paper re-buckets at B[deg]; deg >= k is guaranteed when
                # the bound is valid, and k keeps the sweep forward-only even
                # for partition stragglers whose true core is below kmin. The
                # lazy rule peels a confirmed pop at once, from this BFS.
                if eager:
                    bk.add(v, k)
                    continue
            if k >= kmin:
                core[v] = k
            if order is not None:
                order.append(v)
            alive[v] = False
            if from_lb:
                dec = at_h.tobytes()
            # One ascending pass over reached & ~setlb: a recompute reads only
            # ``alive``, so each neighbour is settled and moved in turn.
            for u in np.flatnonzero(reached > setlb).tolist():
                if dec[u]:
                    d = deg[u] - 1
                elif eager:
                    d = _count_nonzero(bounded_reach(A, u, alive, h, counter)[0])
                elif deg[u] <= k:
                    # Already in bucket k, and deg[u] bounds its h-degree.
                    guarded += 1
                    continue
                else:
                    lazy[u] = 1
                    d = lb[u]
                deg[u] = d
                bk.move(u, d if d > k else k)
    return lazy_pops, confirmed, guarded
