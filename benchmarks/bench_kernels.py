"""h-BFS kernel microbenchmark: µs per BFS and ns per visit on each substrate.

One round runs ``bounded_reach`` from every vertex of the graph with every
vertex alive. rnPA h=4 (mean degree 3), amzn h=2 (mean degree 4) and hyves
h=2 (mean degree 4) are the three graphs of khbench's sparse-road workload
and sit below ``repro.core.kernels.substrate``'s density rule; FBco h=2
(mean degree 34) and caHe h=2 (mean degree 16), the dense-collab graphs,
sit above it. The two records per graph show which kernel wins there and by
how much. Each record carries ``us_per_bfs`` and ``ns_per_visit`` (best
round) and ``visits`` in ``extra_info``.

    pytest benchmarks/bench_kernels.py --benchmark-only
"""
import numpy as np
import pytest

from repro.core.kernels import Counter, bounded_reach


@pytest.mark.parametrize("kernel", ["dense", "lists"])
@pytest.mark.parametrize(
    "graph,h", [("rnpa", 4), ("amzn", 2), ("hyves", 2), ("fbco", 2), ("cahe", 2)]
)
def test_bench_kernel_us_per_bfs(benchmark, request, graph, h, kernel):
    g = request.getfixturevalue(graph)
    A = g.adjacency if kernel == "dense" else g.adjacency_lists
    alive = np.ones(g.n, dtype=bool)

    def sweep():
        c = Counter()
        for v in range(g.n):
            bounded_reach(A, v, alive, h, c)
        return c

    c = benchmark.pedantic(sweep, rounds=5, iterations=1, warmup_rounds=1)
    assert c.bfs_calls == g.n
    benchmark.extra_info["visits"] = c.visits
    if benchmark.stats is not None:  # None under --benchmark-disable
        best = benchmark.stats.stats.min
        benchmark.extra_info["us_per_bfs"] = best / g.n * 1e6
        benchmark.extra_info["ns_per_visit"] = best / c.visits * 1e9
