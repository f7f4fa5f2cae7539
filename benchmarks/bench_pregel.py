"""Benchmarks for the distributed layer: Spark h-degree fan-out vs driver
kernel, and the BSP decomposition."""
import numpy as np

from repro.core.kernels import all_h_degrees
from repro.pregel import h_degrees_spark, kh_core_bsp


def test_bench_hdegrees_driver_kernel(benchmark, cele):
    alive = np.ones(cele.n, dtype=bool)
    degs = benchmark(all_h_degrees, cele.adjacency, alive, 2)
    assert degs.max() > 0


def test_bench_hdegrees_spark_mapinpandas(benchmark, spark, cele):
    alive = np.ones(cele.n, dtype=bool)
    degs, visits, calls = benchmark.pedantic(
        h_degrees_spark, args=(spark, cele.adjacency, alive, 2),
        rounds=3, iterations=1,
    )
    assert calls == cele.n


def test_bench_bsp_local(benchmark, coli):
    res = benchmark.pedantic(kh_core_bsp, args=(coli, 2), rounds=2, iterations=1)
    assert res.degeneracy > 0
