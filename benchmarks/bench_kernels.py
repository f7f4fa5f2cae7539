"""Microbenchmarks of the peel's layers: the h-BFS kernel (µs per BFS and ns
per visit on each substrate), the bucket structure (ns per op) and the peel
engine around them (µs per peeled vertex, kernel time excluded).

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

The peel case runs h-LB's ``core_decomp`` from a precomputed LB2 on amzn
h=2 (neighbour lists) and caHe h=2 (dense matrix) once per rule, Alg. 3's
``"at_h"`` and the default ``"lazy"``, recording the result of every
``bounded_reach`` call, and asserts the golden visits and BFS calls. Each
timed round repeats the peel with the kernel replaced by a stub that hands
back the recorded results in order, so it times the engine alone: buckets,
lazy pops, the per-peel mask test and neighbour loop. Its ``extra_info``
holds ``visits``, ``bfs_calls``, ``peels`` (vertices peeled) and
``us_per_peel`` (best round; the stub's own call is included).

    pytest benchmarks/bench_kernels.py --benchmark-only
"""
import time

import numpy as np
import pytest

import repro.core.decomp as decomp_mod
from repro.core.bounds import lower_bounds, upper_bound
from repro.core.buckets import Buckets
from repro.core.decomp import core_decomp
from repro.core.kernels import Counter, bounded_reach, kernel_name, substrate

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


@pytest.mark.parametrize(
    "graph,kernel,decrement,visits,bfs_calls",
    [("amzn", "lists", "at_h", 134_711, 7_467), ("amzn", "lists", "lazy", 64_565, 3_922),
     ("cahe", "dense", "at_h", 3_190_624, 8_717), ("cahe", "dense", "lazy", 1_155_012, 3_765)],
)
def test_bench_peel_us_per_peel(
    benchmark, request, monkeypatch, graph, kernel, decrement, visits, bfs_calls
):
    g = request.getfixturevalue(graph)
    A = substrate(g)
    assert kernel_name(A) == kernel
    _, lb2 = lower_bounds(A, 2)
    records: list[tuple[int, int, tuple[np.ndarray, np.ndarray]]] = []

    def recording(A, v, alive, h, counter):
        before = counter.visits
        out = bounded_reach(A, v, alive, h, counter)
        records.append((v, counter.visits - before, out))
        return out

    def peel():
        c, core, order = Counter(), np.zeros(g.n, dtype=np.int64), []
        core_decomp(A, 2, 0, g.n, lb2, np.ones(g.n, dtype=bool), core, c, order,
                    decrement)
        return c, core, order

    with monkeypatch.context() as m:
        m.setattr(decomp_mod, "bounded_reach", recording)
        c, core, order = peel()
    assert (c.visits, c.bfs_calls) == (visits, bfs_calls)
    times: list[float] = []

    def replay():
        calls = iter(records)

        def stub(A, v, alive, h, counter):
            src, n_visits, out = next(calls)
            assert src == v
            counter.charge(n_visits)
            return out

        with monkeypatch.context() as m:
            m.setattr(decomp_mod, "bounded_reach", stub)
            t0 = time.perf_counter()
            result = peel()
            times.append(time.perf_counter() - t0)
        assert next(calls, None) is None
        return result

    rc, rcore, rorder = benchmark.pedantic(replay, rounds=ROUNDS, iterations=1)
    # The replay is the recorded peel: same visits, cores and peel order.
    assert (rc.visits, rc.bfs_calls) == (visits, bfs_calls)
    assert np.array_equal(rcore, core) and rorder == order
    benchmark.extra_info.update(
        visits=visits, bfs_calls=bfs_calls, peels=len(order),
        us_per_peel=min(times) / len(order) * 1e6,
    )
