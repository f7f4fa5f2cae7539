"""Lower and upper bounds on the (k,h)-core index (paper §4.2, §4.4, §4.5).

    LB1(v) = deg^{⌊h/2⌋}(v)                                  (Observation 1)
    LB2(v) = max(LB1(u) : d(u,v) <= ⌈h/2⌉) ∪ {LB1(v)}        (Observation 2)
    UB(v)  = classic core index of the implicit power graph G^h (Algorithm 5)
    LB3(v) = max(LB2(v), min h-degree in G[V[k]])   (Property 3, Algorithm 6)

LB1, LB2 and UB are computed on the full graph G[V]; LB3 on the subgraph
G[V[k]] of one h-LB+UB partition. ImproveLB takes the minimum over the
vertices of V[k] that higher partitions have not assigned; it is the same
minimum whenever any is unassigned (see :func:`improve_lb`).
``batch_h_degrees`` is the block the paper multithreads (§4.6); passing a
SparkSession fans the h-BFS batch out over the cluster via mapInPandas (see
repro.pregel.hdegree).
"""
from __future__ import annotations

import numpy as np

from repro.core.decomp import core_decomp
from repro.core.kernels import Adjacency, Counter, all_h_degrees, bounded_reach


def batch_h_degrees(
    A: Adjacency,
    alive: np.ndarray,
    h: int,
    counter: Counter | None = None,
    spark=None,
    sources: np.ndarray | None = None,
) -> np.ndarray:
    """h-degrees in G[alive] of every source (default: every alive vertex);
    Spark-parallel when a session is given (the Spark fan-out broadcasts
    ``A``, so it must then be the dense matrix)."""
    if spark is not None:
        from repro.pregel.hdegree import h_degrees_spark

        degs, visits, calls = h_degrees_spark(spark, A, alive, h, sources)
        if counter is not None:
            counter.merge_batch(visits, calls)
        return degs
    return all_h_degrees(A, alive, h, counter, sources)


def lower_bounds(
    A: Adjacency,
    h: int,
    counter: Counter | None = None,
    spark=None,
) -> tuple[np.ndarray, np.ndarray]:
    """Compute (LB1, LB2) for every vertex on the full graph.

    For h=1 both bounds degenerate to 0 (⌊1/2⌋ = 0) and no h-BFS runs: h-LB
    then behaves like h-BZ with one extra recomputation per vertex, matching
    the paper's scope (its bounds target h > 1).
    """
    n = len(A)
    h_lo = h // 2
    h_hi = (h + 1) // 2
    if h_lo == 0:
        return np.zeros(n, dtype=np.int64), np.zeros(n, dtype=np.int64)
    alive = np.ones(n, dtype=bool)
    lb1 = batch_h_degrees(A, alive, h_lo, counter, spark)
    # LB1 >= 0, so an empty reach's max of 0 leaves LB2(v) = LB1(v).
    reach_max = [lb1[bounded_reach(A, v, alive, h_hi, counter)[0]].max(initial=0)
                 for v in range(n)]
    return lb1, np.maximum(lb1, np.array(reach_max, dtype=np.int64))


def upper_bound(
    A: Adjacency,
    h: int,
    counter: Counter | None = None,
    init_h_degrees: np.ndarray | None = None,
) -> np.ndarray:
    """Algorithm 5: UB(v) = core index of v in the (implicit) power graph G^h.

    The power graph is never materialized: each deletion re-runs one h-BFS
    to find the neighbors whose approximated h-degree drops by exactly 1
    (:func:`repro.core.decomp.core_decomp` with ``decrement="all"``).
    Since a real deletion can drop h-degrees by more than 1, the result is an
    upper bound on the true (k,h)-core index, not the core index itself.

    Args:
        init_h_degrees: optional precomputed deg^h on the full graph (reused
            by h-LB+UB so the batch is not paid twice).
    """
    n = len(A)
    alive = np.ones(n, dtype=bool)
    if init_h_degrees is None:
        init_h_degrees = batch_h_degrees(A, alive, h, counter)
    ub = np.zeros(n, dtype=np.int64)
    core_decomp(A, h, 0, n, init_h_degrees, alive, ub, counter, decrement="all")
    return ub


def improve_lb(
    A: Adjacency,
    h: int,
    vk: np.ndarray,
    kmin: int,
    lb2: np.ndarray,
    assigned: np.ndarray,
    counter: Counter | None = None,
    spark=None,
) -> tuple[np.ndarray, np.ndarray]:
    """Algorithm 6 — ImproveLB: clean V[k] and tighten the lower bound.

    Computes h-degrees on G[V[k]]; LB3(v) = max(LB2(v), min h-degree) by
    Property 3 (computed before cleaning, as in the paper). Then it peels
    every vertex whose h-degree falls below kmin with the rule of
    Algorithm 5: each deletion only decrements its h-neighbours by 1, giving
    an upper bound on their true h-degree, so any vertex dropping below kmin
    certainly does not belong to the partition.

    ``assigned`` marks the vertices higher partitions already assigned, each
    with a core index above kmax; only the rest of V[k] are sources. The
    paper runs an h-BFS from every vertex of V[k], which is the all-False
    mask. The result is the same:

    - An assigned u lies in its own (core(u),h)-core C, which lies in V[k].
      So u's h-degree in G[V[k]] is at least core(u), above kmax, and if u
      held the minimum, all of V[k] would be in the (kmax+1,h)-core and
      already assigned. The minimum over the sources is the paper's.
    - The cleaning never removes a vertex of the (kmin,h)-core, which holds
      C. So u loses at most |V[k]| - |C| <= |V[k]| - 1 - core(u) decrements,
      and key n keeps it above core(u) >= kmin: u stays alive as an
      intermediate vertex and is never peeled.

    Returns ``(vk, lb3)``: the cleaned mask and per-vertex LB3 (0 outside
    the sources).
    """
    n = len(A)
    vk = vk.copy()
    sources = vk & ~assigned
    lb3 = np.zeros(n, dtype=np.int64)
    ids = np.flatnonzero(sources)
    if len(ids) == 0:
        return vk, lb3
    degs = batch_h_degrees(A, vk, h, counter, spark, sources)
    lb3[ids] = np.maximum(lb2[ids], int(degs[ids].min()))
    degs[vk & assigned] = n
    # The peel's core indexes (all below kmin) are not needed.
    core_decomp(A, h, 0, kmin - 1, degs, vk, np.zeros(n, dtype=np.int64), counter,
                decrement="all")
    return vk, lb3
