"""Algorithm 4 — h-LB+UB: upper-bound partitioned, top-down decomposition.

An upper bound UB(v) (classic core index of the implicit power graph G^h,
Algorithm 5) splits the computation into totally independent sub-computations
over contiguous core-index intervals. Intervals are visited top-down so that
the expensive high-core vertices are finished early; inside each interval
ImproveLB (Algorithm 6) cleans V[k] and tightens the lower bound to LB3, and
CoreDecomp (Algorithm 3) peels what is left. The bounds live in
:mod:`repro.core.bounds` and both peels in :mod:`repro.core.decomp`.

By default ImproveLB carries the top-down reuse into its batch: it runs an
h-BFS only from the vertices of V[k] that no higher partition has assigned
(still over the whole of G[V[k]]), which leaves the cleaned V[k], LB3 and
every core unchanged (see :func:`repro.core.bounds.improve_lb`).
``improve="all"`` runs the paper's batch from every vertex of V[k].

Two execution modes reproduce the paper's §4.6 multithreading options:

- ``parallel="hdegree"`` (paper's shipped choice): the batch h-degree
  computations fan out over Spark via mapInPandas; the interval sweep stays
  sequential and top-down, keeping the knowledge-reuse benefits.
- ``parallel="intervals"`` (paper's option 1): each interval runs as an
  independent Spark task (applyInPandas over the interval DataFrame); the
  top-down knowledge (already-assigned cores, accumulated LB3) is forfeited,
  which is exactly the trade-off the paper describes. Its tasks start with
  no assigned vertex, so their ImproveLB runs the paper's batch.
"""
from __future__ import annotations

from typing import Literal, get_args

import numpy as np

from repro.core.bounds import batch_h_degrees, improve_lb, lower_bounds, upper_bound
from repro.core.decomp import core_decomp
# bounded_reach is unused here but bound so khbench/spans.py can wrap it.
from repro.core.kernels import (  # noqa: F401
    Adjacency, Counter, bounded_reach, check_h, kernel_name, substrate,
)
from repro.core.types import CoreResult
from repro.graphs.graph import Graph, pack_adjacency, unpack_adjacency

ParallelMode = Literal["none", "hdegree", "intervals"]
UpperBoundKind = Literal["ub", "hdegree"]
ImproveRule = Literal["unassigned", "all"]


def build_intervals(ub: np.ndarray, lb2: np.ndarray, s: int) -> list[tuple[int, int]]:
    """Partition [min LB2, max UB] into intervals of S contiguous UB values.

    Follows Algorithm 4 lines 8–11 and reproduces Example 4:
    U = {5,10,15,20,25,30}, lb0 = 3, S = 2 -> [(21,30), (11,20), (3,10)].

    Returns (kmin, kmax) pairs in top-down (descending) order.
    """
    lb0 = int(lb2.min()) if len(lb2) else 0
    u_vals = sorted(set(int(x) for x in ub) | {lb0 - 1}, reverse=True)
    intervals: list[tuple[int, int]] = []
    for i in range(0, len(u_vals) - 1, max(1, s)):
        kmax = u_vals[i]
        kmin = u_vals[min(i + max(1, s), len(u_vals) - 1)] + 1
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
    improve: ImproveRule = "unassigned",
) -> dict:
    """Process one partition (Algorithm 4 lines 12–18); mutates core.

    ``core`` holds the indexes earlier (higher) partitions assigned and 0
    for every vertex still unassigned. Returns the partition's record:
    |V[k]| before and after cleaning, and how many h-BFS ImproveLB ran and
    skipped.
    """
    vk0 = ub >= kmin
    assigned = core > 0 if improve == "unassigned" else np.zeros(len(core), dtype=bool)
    vk, lb3_star = improve_lb(A, h, vk0, kmin, lb2, assigned, counter, spark)
    vk_in = int(np.count_nonzero(vk0))
    skipped = int(np.count_nonzero(vk0 & assigned))
    rec = {"kmin": kmin, "kmax": kmax, "vk_in": vk_in,
           "vk_out": int(np.count_nonzero(vk)), "bfs_ran": vk_in - skipped,
           "bfs_skipped": skipped}
    if vk.any():
        lb3_acc[vk] = np.maximum(lb3_acc[vk], lb3_star[vk])
        keys = np.maximum(np.maximum(core, lb3_acc), kmin - 1)
        core_decomp(A, h, kmin, kmax, keys, vk, core, counter)
    return rec


def h_lb_ub(
    g: Graph,
    h: int,
    s: int | None = None,
    counter: Counter | None = None,
    spark=None,
    parallel: ParallelMode = "none",
    ub_kind: UpperBoundKind = "ub",
    improve: ImproveRule = "unassigned",
) -> CoreResult:
    """Exact (k,h)-core decomposition with lower+upper bounds (Algorithm 4).

    Args:
        s: partition size S — how many contiguous upper-bound values each
           interval covers. ``None`` (default) picks S adaptively so the
           sweep has ~12 partitions: the paper leaves S as an input
           parameter, and a fixed small S degenerates on graphs with many
           distinct upper-bound values (each partition pays an ImproveLB
           batch scan of its subgraph).
        parallel: "none" (pure driver), "hdegree" (Spark fans out the batch
           h-degree computations) or "intervals" (independent interval
           sub-computations as Spark tasks); both Spark modes need ``spark``.
        ub_kind: "ub" = Algorithm 5's power-graph bound (the paper's h-LB+UB);
           "hdegree" = the plain h-degree baseline bound (Table 5 ablation).
        improve: "unassigned" (default) = ImproveLB runs an h-BFS only from
           the vertices of V[k] no higher partition has assigned; "all" =
           the paper's Algorithm 6 batch from every vertex of V[k] (Tables 3
           and 5). Cores are the same; only visits and BFS calls differ.

    ``extra["partitions"]`` holds one record per interval of the sequential
    sweep (the intervals mode keeps none): kmin, kmax, |V[k]| before and
    after cleaning (``vk_in``, ``vk_out``) and the h-BFS ImproveLB ran and
    skipped (``bfs_ran + bfs_skipped == vk_in``).
    """
    check_h(h)
    if ub_kind not in get_args(UpperBoundKind):
        raise ValueError(f"unknown upper bound {ub_kind!r}")
    if improve not in get_args(ImproveRule):
        raise ValueError(f"unknown ImproveLB rule {improve!r}")
    if parallel not in get_args(ParallelMode):
        raise ValueError(f"unknown parallel mode {parallel!r}")
    if parallel != "none" and spark is None:
        raise ValueError(f"parallel={parallel!r} requires a SparkSession")
    counter = counter if counter is not None else Counter()
    n = g.n
    spark_for_batches = spark if parallel == "hdegree" else None
    # The Spark fan-out broadcasts the bit-packed dense matrix.
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
             "improve": improve}
    if parallel == "intervals":
        core, extra["tasks"] = _run_intervals_spark(spark, g, h, intervals, ub, lb2)
    else:
        core = np.zeros(n, dtype=np.int64)
        lb3_acc = np.zeros(n, dtype=np.int64)
        extra["partitions"] = [
            _run_interval(A, h, kmin, kmax, ub, lb2, core, lb3_acc, counter,
                          spark_for_batches, improve)
            for kmin, kmax in intervals
        ]
    name = "h-LB+UB" if ub_kind == "ub" else "h-LB+UB[hdeg]"
    if parallel != "none":
        name += "[spark-hdeg]" if parallel == "hdegree" else "[spark-intervals]"
    return CoreResult(
        core=core, h=h, algo=name,
        visits=counter.visits, bfs_calls=counter.bfs_calls, extra=extra,
    )


def _run_intervals_spark(
    spark, g: Graph, h: int, intervals: list[tuple[int, int]],
    ub: np.ndarray, lb2: np.ndarray,
) -> tuple[np.ndarray, int]:
    """Paper §4.6 option 1: run each interval as an independent Spark task.

    Each task re-derives its V[kmin] from the broadcast UB vector, runs
    ImproveLB + CoreDecomp on the induced subgraph, and emits (vertex, core)
    rows for the vertices whose core index falls inside its interval;
    vertices with higher core indexes keep being re-bucketed above kmax and
    are simply left for the task owning their interval. The union over tasks
    is the full decomposition (tested equal to the sequential mode).
    """
    import pandas as pd

    n = g.n
    sc = spark.sparkContext
    b_adj = sc.broadcast(pack_adjacency(g.adjacency))
    b_ub = sc.broadcast(ub.tolist())
    b_lb2 = sc.broadcast(lb2.tolist())

    idf = spark.createDataFrame(
        pd.DataFrame(
            {
                "iid": np.arange(len(intervals), dtype=np.int64),
                "kmin": [kmin for kmin, _ in intervals],
                "kmax": [kmax for _, kmax in intervals],
            }
        )
    ).repartition(len(intervals), "iid")

    def run_one(pdf: pd.DataFrame) -> pd.DataFrame:
        A_task = unpack_adjacency(b_adj.value, n)
        ub_t = np.asarray(b_ub.value, dtype=np.int64)
        lb2_t = np.asarray(b_lb2.value, dtype=np.int64)
        out_v: list[int] = []
        out_c: list[int] = []
        for row in pdf.itertuples(index=False):
            kmin, kmax = int(row.kmin), int(row.kmax)
            core_t = np.zeros(n, dtype=np.int64)
            lb3_t = np.zeros(n, dtype=np.int64)
            _run_interval(
                A_task, h, kmin, kmax, ub_t, lb2_t, core_t, lb3_t, counter=None,
            )
            # Cores of 0 need no row: the driver's vector starts at 0.
            for v in np.flatnonzero(core_t):
                out_v.append(int(v))
                out_c.append(int(core_t[v]))
        return pd.DataFrame({"v": pd.Series(out_v, dtype="int64"),
                             "core": pd.Series(out_c, dtype="int64")})

    rows = (
        idf.groupBy("iid")
        .applyInPandas(run_one, schema="v long, core long")
        .toPandas()
    )
    core = np.zeros(n, dtype=np.int64)
    if len(rows):
        core[rows["v"].to_numpy()] = rows["core"].to_numpy()
    return core, len(intervals)
