"""Algorithm 4 — h-LB+UB: upper-bound partitioned, top-down decomposition.

An upper bound UB(v) (classic core index of the implicit power graph G^h,
Algorithm 5) splits the computation into totally independent sub-computations
over contiguous core-index intervals. Intervals are visited top-down so that
the expensive high-core vertices are finished early; inside each interval
ImproveLB (Algorithm 6) cleans V[k] and tightens the lower bound to LB3, and
CoreDecomp (Algorithm 3) peels what is left. The bounds live in
:mod:`repro.core.bounds` and both peels in :mod:`repro.core.decomp`.

By default (``rule="reuse"``, beyond the paper) both steps reuse what is
already known: ImproveLB runs an h-BFS only from the vertices of V[k] that no
higher partition has assigned (:func:`repro.core.bounds.improve_lb`), and
CoreDecomp runs the ``"lazy"`` rule of :mod:`repro.core.decomp`; each says
why it stays exact. ``rule="paper"`` runs Algorithm 6's batch from every
vertex of V[k] and Algorithm 3's eager recompute (Tables 3 and 5). Cores
are the same; only visits and BFS calls differ.

Two execution modes reproduce the paper's §4.6 multithreading options:

- ``parallel="hdegree"`` (paper's shipped choice): the batch h-degree
  computations fan out over Spark as RDD tasks; the interval sweep stays
  sequential and top-down, keeping the knowledge-reuse benefits.
- ``parallel="intervals"`` (paper's option 1): the intervals run as
  independent sub-computations in Spark RDD tasks; the top-down knowledge
  (already-assigned cores, accumulated LB3) is forfeited, which is exactly
  the trade-off the paper describes. Each interval starts with no assigned
  vertex, so its ImproveLB runs the paper's batch; ``rule`` still selects
  its CoreDecomp rule.
"""
from __future__ import annotations

from typing import Literal, get_args

import numpy as np

from repro.core.bounds import batch_h_degrees, improve_lb, lower_bounds, upper_bound
from repro.core.decomp import RULE_DECREMENT, Rule, core_decomp
# bounded_reach is unused here but bound so khbench/spans.py can wrap it.
from repro.core.kernels import (  # noqa: F401
    Adjacency, Counter, bounded_reach, check_h, kernel_name, substrate,
)
from repro.core.types import CoreResult
from repro.graphs.graph import Graph

ParallelMode = Literal["none", "hdegree", "intervals"]
UpperBoundKind = Literal["ub", "hdegree"]


def build_intervals(ub: np.ndarray, lb2: np.ndarray, s: int) -> list[tuple[int, int]]:
    """Partition [min LB2, max UB] into intervals of S contiguous UB values.

    Follows Algorithm 4 lines 8–11 and reproduces Example 4:
    U = {5,10,15,20,25,30}, lb0 = 3, S = 2 -> [(21,30), (11,20), (3,10)].

    Returns (kmin, kmax) pairs in top-down (descending) order.
    """
    lb0 = int(lb2.min()) if len(lb2) else 0
    u_vals = sorted(set(int(x) for x in ub) | {lb0 - 1}, reverse=True)
    intervals: list[tuple[int, int]] = []
    for i in range(0, len(u_vals) - 1, s):
        kmax = u_vals[i]
        kmin = u_vals[min(i + s, len(u_vals) - 1)] + 1
        intervals.append((kmin, kmax))
    return intervals


def _run_interval(
    A: Adjacency,
    h: int,
    kmin: int,
    kmax: int,
    ub: np.ndarray,
    lb2: np.ndarray,
    core: np.ndarray,
    lb3_acc: np.ndarray,
    counter: Counter | None,
    spark=None,
    rule: Rule = "reuse",
) -> dict:
    """Process one partition (Algorithm 4 lines 12–18); mutates core.

    ``core`` holds the indexes earlier (higher) partitions assigned and 0
    for every vertex still unassigned. Returns the partition's record:
    |V[k]| before and after cleaning, how many h-BFS ImproveLB ran and
    skipped, and CoreDecomp's lazy pops, confirmed pops and guarded hits.
    """
    vk0 = ub >= kmin
    assigned = core > 0 if rule == "reuse" else np.zeros(len(core), dtype=bool)
    vk, lb3_star = improve_lb(A, h, vk0, kmin, lb2, assigned, counter, spark)
    vk_in = int(np.count_nonzero(vk0))
    skipped = int(np.count_nonzero(vk0 & assigned))
    rec = {"kmin": kmin, "kmax": kmax, "vk_in": vk_in,
           "vk_out": int(np.count_nonzero(vk)), "bfs_ran": vk_in - skipped,
           "bfs_skipped": skipped, "lazy_pops": 0, "confirmed": 0, "guarded": 0}
    if vk.any():
        lb3_acc[vk] = np.maximum(lb3_acc[vk], lb3_star[vk])
        keys = np.maximum(np.maximum(core, lb3_acc), kmin - 1)
        rec["lazy_pops"], rec["confirmed"], rec["guarded"] = core_decomp(
            A, h, kmin, kmax, keys, vk, core, counter, decrement=RULE_DECREMENT[rule])
    return rec


def h_lb_ub(
    g: Graph,
    h: int,
    s: int | None = None,
    counter: Counter | None = None,
    spark=None,
    parallel: ParallelMode = "none",
    ub_kind: UpperBoundKind = "ub",
    rule: Rule = "reuse",
) -> CoreResult:
    """Exact (k,h)-core decomposition with lower+upper bounds (Algorithm 4).

    Args:
        s: partition size S — how many contiguous upper-bound values each
           interval covers, an integer >= 1. ``None`` (default) picks S
           adaptively so the sweep has ~12 partitions: the paper leaves S
           as an input parameter, and a fixed small S degenerates on graphs
           with many distinct upper-bound values (each partition pays an
           ImproveLB batch scan of its subgraph).
        parallel: "none" (pure driver), "hdegree" (Spark fans out the batch
           h-degree computations) or "intervals" (independent interval
           sub-computations as Spark tasks); both Spark modes need ``spark``.
        ub_kind: "ub" = Algorithm 5's power-graph bound (the paper's h-LB+UB);
           "hdegree" = the plain h-degree baseline bound (Table 5 ablation).
        rule: "reuse" (default) = ImproveLB skips the vertices a higher
           partition assigned, and CoreDecomp runs the ``"lazy"`` rule;
           "paper" = Algorithm 6's batch from every vertex of V[k] and
           Algorithm 3's eager recompute (Tables 3 and 5).

    ``extra["partitions"]`` holds one record per interval of the sequential
    sweep (the intervals mode keeps none): kmin, kmax, |V[k]| before and
    after cleaning (``vk_in``, ``vk_out``), the h-BFS ImproveLB ran and
    skipped (``bfs_ran + bfs_skipped == vk_in``), and CoreDecomp's
    ``lazy_pops``, ``confirmed`` and ``guarded`` counts, as in
    :func:`repro.core.hlb.h_lb`. ``extra["lazy_pops"]``,
    ``extra["confirmed"]`` and ``extra["guarded"]`` are their totals.
    """
    check_h(h)
    if s is not None:
        check_h(s, "s")
    if ub_kind not in get_args(UpperBoundKind):
        raise ValueError(f"unknown upper bound {ub_kind!r}")
    if rule not in RULE_DECREMENT:
        raise ValueError(f"unknown rule {rule!r}")
    if parallel not in get_args(ParallelMode):
        raise ValueError(f"unknown parallel mode {parallel!r}")
    if parallel != "none" and spark is None:
        raise ValueError(f"parallel={parallel!r} requires a SparkSession")
    counter = counter if counter is not None else Counter()
    n = g.n
    spark_for_batches = spark if parallel == "hdegree" else None
    # Spark tasks walk the dense matrix, the one format pregel.hdegree ships.
    A = substrate(g) if spark_for_batches is None else g.adjacency
    deg0 = batch_h_degrees(A, np.ones(n, dtype=bool), h, counter, spark_for_batches)
    _, lb2 = lower_bounds(A, h, counter, spark_for_batches)
    if ub_kind == "ub":
        ub = upper_bound(A, h, counter, init_h_degrees=deg0)
    else:
        ub = deg0.copy()
    if s is None:
        n_ub_values = len(set(int(x) for x in ub))
        s = max(1, -(-n_ub_values // 12))  # ceil division: ~12 partitions
    intervals = build_intervals(ub, lb2, s)

    extra = {"intervals": intervals, "ub": ub, "lb2": lb2, "kernel": kernel_name(A),
             "rule": rule}
    if parallel == "intervals":
        core, extra["tasks"] = _run_intervals_spark(spark, g, h, intervals, ub, lb2, rule)
    else:
        core = np.zeros(n, dtype=np.int64)
        lb3_acc = np.zeros(n, dtype=np.int64)
        parts = extra["partitions"] = [
            _run_interval(A, h, kmin, kmax, ub, lb2, core, lb3_acc, counter,
                          spark_for_batches, rule)
            for kmin, kmax in intervals
        ]
        for key in ("lazy_pops", "confirmed", "guarded"):
            extra[key] = sum(p[key] for p in parts)
    name = "h-LB+UB" if ub_kind == "ub" else "h-LB+UB[hdeg]"
    if parallel != "none":
        name += "[spark-hdeg]" if parallel == "hdegree" else "[spark-intervals]"
    return CoreResult(
        core=core, h=h, algo=name,
        visits=counter.visits, bfs_calls=counter.bfs_calls, extra=extra,
    )


def _run_intervals_spark(
    spark, g: Graph, h: int, intervals: list[tuple[int, int]],
    ub: np.ndarray, lb2: np.ndarray, rule: Rule = "reuse",
) -> tuple[np.ndarray, int]:
    """Paper §4.6 option 1: the intervals as independent Spark sub-computations.

    :func:`repro.pregel.hdegree.fan_out` runs them in
    ``min(len(intervals), defaultParallelism)`` tasks, each taking its
    intervals in turn from fresh core and LB3 vectors; UB and LB2 ride in the
    task's closure. An interval re-derives V[kmin] from UB, runs ImproveLB +
    CoreDecomp on G[V[kmin]] and emits the ids and cores inside it, leaving
    higher ones to their own interval; the union is the full decomposition
    (tested equal to the sequential mode). Returns ``(core, len(intervals))``:
    ``extra["tasks"]`` counts interval sub-computations, not Spark tasks.
    With no interval nothing is broadcast.
    """
    from repro.pregel.hdegree import fan_out

    n = g.n
    if not intervals:
        return np.zeros(n, dtype=np.int64), 0

    def task(A_task, share):
        for kmin, kmax in share:
            core_t = np.zeros(n, dtype=np.int64)
            lb3_t = np.zeros(n, dtype=np.int64)
            _run_interval(A_task, h, kmin, kmax, ub, lb2, core_t, lb3_t, None, rule=rule)
            # Cores of 0 need no entry: the driver's vector starts at 0.
            ids = np.flatnonzero(core_t)
            yield ids, core_t[ids]

    parts = min(len(intervals), int(spark.sparkContext.defaultParallelism))
    core = np.zeros(n, dtype=np.int64)
    for ids, ks in fan_out(spark, g.adjacency, intervals, parts, task):
        core[ids] = ks
    return core, len(intervals)
