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
  rest.

Only the Alg. 3 rule starts from lazy keys: a vertex sitting in bucket i with
``setlb[v] == True`` is there because of a *lower bound*; popping it computes
its current h-degree and re-buckets it. The other rules start from exact
h-degrees. Popping a vertex with ``setlb[v] == False`` peels it: its core
index is assigned iff k >= kmin (otherwise a later partition will assign it).
"""
from __future__ import annotations

from typing import Literal

import numpy as np

from repro.core.buckets import Buckets
from repro.core.kernels import Adjacency, Counter, _count_nonzero, bounded_reach

Decrement = Literal["none", "all", "at_h"]


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
) -> None:
    """Peel ``alive`` in bucket order, assigning cores in [kmin, kmax].

    Args:
        keys: initial bucket of every alive vertex — a lower bound (``"at_h"``)
            or the exact h-degree (``"none"``, ``"all"``). A vertex whose core
            index a previous partition already assigned sits above ``kmax``
            and is never popped.
        alive: the vertices to peel; mutated in place as they are peeled.
        core: mutated in place for vertices peeled at k >= kmin; entries of
            unassigned vertices must be 0.
        order: if given, append vertices in peel order (global peels only).
        decrement: which reached neighbours of a peeled vertex are decremented
            instead of recomputed (see the module docstring).
    """
    n = len(A)
    bk = Buckets(n)
    # Valid only where not lazy; lazy vertices get theirs when popped.
    deg = keys.tolist()
    for v in np.flatnonzero(alive).tolist():
        bk.add(v, deg[v])
    # The lazy flags live in a bytearray, read and written a byte per vertex;
    # ``setlb`` views the same bytes for the one vectorized test per peel.
    lazy = bytearray([decrement == "at_h"]) * n
    setlb = np.frombuffer(lazy, dtype=bool)
    # Which reached vertices are decremented: a byte per vertex, all set for
    # "all", none for "none", and at_h's bytes (taken per peel) for "at_h".
    dec = b"\1" * n if decrement == "all" else bytes(n)
    for k in range(max(0, kmin - 1), kmax + 1):
        while bk.nonempty(k):
            v = bk.pop(k)
            if lazy[v]:
                d = _count_nonzero(bounded_reach(A, v, alive, h, counter)[0])
                deg[v] = d
                # The paper re-buckets at B[deg]; deg >= k is guaranteed when
                # the bound is valid, and k keeps the sweep forward-only even
                # for partition stragglers whose true core is below kmin.
                bk.add(v, d if d > k else k)
                lazy[v] = 0
                continue
            if k >= kmin:
                core[v] = k
            if order is not None:
                order.append(v)
            lazy[v] = 1
            reached, at_h = bounded_reach(A, v, alive, h, counter)
            alive[v] = False
            if decrement == "at_h":
                dec = at_h.tobytes()
            # One ascending pass over reached & ~setlb: a recompute reads only
            # ``alive``, so each neighbour is settled and moved in turn.
            for u in np.flatnonzero(reached > setlb).tolist():
                if dec[u]:
                    d = deg[u] - 1
                else:
                    d = _count_nonzero(bounded_reach(A, u, alive, h, counter)[0])
                deg[u] = d
                bk.move(u, d if d > k else k)
