"""Microbenchmarks of the peel's two leaf layers: the h-BFS kernel (µs per BFS
and ns per visit on each substrate) and the bucket structure (ns per op).

A sweep runs ``bounded_reach`` from every vertex of the graph with every
vertex alive. Each round sweeps both substrates, the dense matrix and the
neighbour lists, one after the other, and alternates which goes first, so
that both see the same host load; a run has ``ROUNDS`` rounds. rnPA h=4
(mean degree 3), amzn h=2 (mean degree 4) and hyves h=2 (mean degree 4) are
the three graphs of khbench's sparse-road workload and sit below
``repro.core.kernels.substrate``'s density rule; FBco h=2 (mean degree 34)
and caHe h=2 (mean degree 16), the dense-collab graphs, sit above it. The
record per graph shows which kernel wins there and by how much: its
``extra_info`` holds ``dense`` and ``lists`` entries with ``us_per_bfs``
and ``ns_per_visit`` (best round each), ``dense_over_lists`` (the median
over rounds of the dense sweep's time ÷ the lists sweep's time; above 1
means lists win) and ``visits`` (per sweep, equal on both substrates).

The bucket case records the ``Buckets.add``/``move``/``pop`` calls of one
Alg. 5 UB peel (caHe h=2, ``upper_bound``) and replays them on a fresh
``Buckets`` per round, without tracing. Its ``extra_info`` holds ``ops``
and ``ns_per_op`` (best round; the replay loop's own dispatch is included).

    pytest benchmarks/bench_kernels.py --benchmark-only
"""
import time

import numpy as np
import pytest

import repro.core.decomp as decomp_mod
from repro.core.bounds import upper_bound
from repro.core.buckets import Buckets
from repro.core.kernels import Counter, bounded_reach, substrate

ROUNDS = 15


@pytest.mark.parametrize(
    "graph,h", [("rnpa", 4), ("amzn", 2), ("hyves", 2), ("fbco", 2), ("cahe", 2)]
)
def test_bench_kernel_us_per_bfs(benchmark, request, graph, h):
    g = request.getfixturevalue(graph)
    substrates = {"dense": g.adjacency, "lists": g.adjacency_lists}
    alive = np.ones(g.n, dtype=bool)
    times: dict[str, list[float]] = {kernel: [] for kernel in substrates}
    counters: dict[str, Counter] = {}

    def sweep(kernel):
        A, c = substrates[kernel], Counter()
        t0 = time.perf_counter()
        for v in range(g.n):
            bounded_reach(A, v, alive, h, c)
        times[kernel].append(time.perf_counter() - t0)
        counters[kernel] = c

    def interleaved_round():
        order = list(substrates)
        if len(times["dense"]) % 2:
            order.reverse()
        for kernel in order:
            sweep(kernel)

    interleaved_round()  # warm-up, discarded
    for ts in times.values():
        ts.clear()
    benchmark.pedantic(interleaved_round, rounds=ROUNDS, iterations=1)
    visits = counters["dense"].visits
    assert counters["lists"].visits == visits
    assert counters["dense"].bfs_calls == counters["lists"].bfs_calls == g.n
    benchmark.extra_info["visits"] = visits
    for kernel, ts in times.items():
        best = min(ts)
        benchmark.extra_info[kernel] = {
            "us_per_bfs": best / g.n * 1e6,
            "ns_per_visit": best / visits * 1e9,
        }
    ratios = np.array(times["dense"]) / np.array(times["lists"])
    benchmark.extra_info["dense_over_lists"] = float(np.median(ratios))


def test_bench_buckets_ns_per_op(benchmark, cahe, monkeypatch):
    log: list[tuple[str, int, int]] = []

    class Recording(Buckets):
        def add(self, v, i):
            log.append(("add", v, i))
            super().add(v, i)

        def move(self, v, i):
            log.append(("move", v, i))
            super().move(v, i)

        def pop(self, i):
            v = super().pop(i)
            log.append(("pop", v, i))
            return v

    with monkeypatch.context() as m:
        m.setattr(decomp_mod, "Buckets", Recording)
        upper_bound(substrate(cahe), 2)
    # Warm-up, and proof that a fresh Buckets pops the recorded vertices, so
    # the timed replays repeat the peel's operations exactly.
    bk = Buckets(cahe.n)
    for op, v, i in log:
        if op == "pop":
            assert bk.pop(i) == v
        else:
            getattr(bk, op)(v, i)
    times: list[float] = []

    def replay():
        bk = Buckets(cahe.n)
        ops = {"add": bk.add, "move": bk.move, "pop": lambda v, i: bk.pop(i)}
        calls = [(ops[op], v, i) for op, v, i in log]
        t0 = time.perf_counter()
        for f, v, i in calls:
            f(v, i)
        times.append(time.perf_counter() - t0)
        return bk

    bk = benchmark.pedantic(replay, rounds=ROUNDS, iterations=1)
    assert not any(bk.cells) and all(w == -1 for w in bk.where)
    benchmark.extra_info["ops"] = len(log)
    benchmark.extra_info["ns_per_op"] = min(times) / len(log) * 1e9
