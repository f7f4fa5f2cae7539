"""Distributed layer: mapInPandas h-degree fan-out (values and visits vs the
driver kernel), BSP decomposition, Spark-parallel h-LB+UB."""
import numpy as np
import pytest

import repro.pregel.hdegree as hdegree_mod
from repro.core import h_bz, h_lb, h_lb_ub
from repro.core.kernels import Counter, all_h_degrees, bounded_reach
from repro.core.reference import brute_force_cores
from repro.graphs.generators import barabasi_albert, erdos_renyi
from repro.pregel import h_degrees_spark, kh_core_bsp


@pytest.mark.parametrize("h", [1, 2, 3])
def test_h_degrees_spark_matches_kernel(spark, h):
    g = barabasi_albert(80, 2, seed=2)
    alive = np.ones(g.n, dtype=bool)
    alive[::7] = False
    c = Counter()
    expect = all_h_degrees(g.adjacency, alive, h, c)
    got, visits, calls = h_degrees_spark(spark, g.adjacency, alive, h)
    assert np.array_equal(got, expect)
    # Tasks must report exactly the driver's work: traces sum Spark spans
    # into the totals.
    assert (visits, calls) == (c.visits, c.bfs_calls)
    assert calls == int(alive.sum())


def test_h_degrees_spark_visits_match_local():
    """Remote visit accounting must equal the driver kernel's accounting."""
    g = erdos_renyi(25, 0.15, seed=3)
    alive = np.ones(g.n, dtype=bool)
    c = Counter()
    all_h_degrees(g.adjacency, alive, 2, c)
    # Recompute per-vertex and sum — same arithmetic the executor does.
    total = 0
    for v in range(g.n):
        c2 = Counter()
        bounded_reach(g.adjacency, v, alive, 2, c2)
        total += c2.visits
    assert total == c.visits


@pytest.mark.parametrize("seed", [0, 1, 2])
@pytest.mark.parametrize("h", [1, 2, 3])
def test_bsp_matches_sequential(seed, h):
    g = erdos_renyi(26, 0.14, seed=seed)
    assert np.array_equal(kh_core_bsp(g, h).core, h_bz(g, h).core)


def test_bsp_with_spark_matches(spark):
    g = erdos_renyi(20, 0.18, seed=5)
    local = kh_core_bsp(g, 2)
    dist = kh_core_bsp(g, 2, spark=spark)
    assert np.array_equal(local.core, dist.core)
    assert dist.extra["supersteps"] == local.extra["supersteps"]


def test_hlbub_spark_intervals_matches(spark):
    g = barabasi_albert(40, 2, seed=6)
    for h in (2, 3):
        ref = brute_force_cores(g, h)
        res = h_lb_ub(g, h, s=2, spark=spark, parallel="intervals")
        assert np.array_equal(res.core, ref), h
        assert res.extra["tasks"] >= 1


def test_hlbub_spark_intervals_label_keeps_ub_kind(spark):
    g = erdos_renyi(20, 0.2, seed=4)
    res = h_lb_ub(g, 2, spark=spark, parallel="intervals", ub_kind="hdegree")
    assert res.algo == "h-LB+UB[hdeg][spark-intervals]"
    assert np.array_equal(res.core, brute_force_cores(g, 2))
    assert res.extra["tasks"] == len(res.extra["intervals"])


def test_hlbub_spark_hdegree_matches(spark, monkeypatch):
    """Fanned-out batches give the local run's cores, visits and BFS calls, and
    each ImproveLB batch sends Spark only the vertices still unassigned."""
    g = barabasi_albert(60, 3, seed=7)
    local = h_lb_ub(g, 2)
    assert np.array_equal(local.core, brute_force_cores(g, 2))
    batches = []
    real = hdegree_mod.h_degrees_spark

    def spy(spark, A, alive, h, sources=None):
        batches.append(int((alive if sources is None else sources).sum()))
        return real(spark, A, alive, h, sources)

    monkeypatch.setattr(hdegree_mod, "h_degrees_spark", spy)
    res = h_lb_ub(g, 2, spark=spark, parallel="hdegree")
    assert np.array_equal(res.core, local.core)
    assert (res.visits, res.bfs_calls) == (local.visits, local.bfs_calls)
    parts = local.extra["partitions"]
    # deg0 and LB1 over all n, then one batch per partition with a source.
    assert batches == [g.n, g.n] + [p["bfs_ran"] for p in parts if p["bfs_ran"]]
    assert any(p["bfs_skipped"] for p in parts)


def test_spark_paths_on_sparse_graph(spark):
    """On a graph the local kernel walks as neighbour lists, Spark tasks
    still get the broadcast dense matrix, and every path agrees with the
    local run."""
    g = barabasi_albert(300, 1, seed=8)  # a tree: 2m/n² = 0.66%
    local = kh_core_bsp(g, 2)
    dist = kh_core_bsp(g, 2, spark=spark)
    assert np.array_equal(dist.core, local.core)
    assert (local.extra["kernel"], dist.extra["kernel"]) == ("lists", "dense")
    res = h_lb_ub(g, 2, spark=spark, parallel="hdegree")
    assert np.array_equal(res.core, local.core)
    assert res.extra["kernel"] == "dense"
    res = h_lb_ub(g, 2, spark=spark, parallel="intervals")
    assert np.array_equal(res.core, local.core)
    assert res.extra["kernel"] == "lists"  # the bounds, computed locally


def test_hlbub_parallel_intervals_requires_spark():
    g = erdos_renyi(10, 0.3, seed=0)
    with pytest.raises(ValueError):
        h_lb_ub(g, 2, parallel="intervals")
    # A misspelt or Spark-less mode must not run something else under its name.
    for kw in ({"parallel": "hdegree"}, {"parallel": "interval"}, {"ub_kind": "UB"},
               {"improve": "paper"}):
        with pytest.raises(ValueError):
            h_lb_ub(g, 2, **kw)
    for lb in ("LB2", "none"):
        with pytest.raises(ValueError):
            h_lb(g, 2, lb=lb)
