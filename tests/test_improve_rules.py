"""h-LB+UB's two ImproveLB rules, compared interval by interval.

``improve="all"`` is the paper's Algorithm 6 batch (an h-BFS from every
vertex of V[k]); the default ``"unassigned"`` runs one only from the vertices
no higher partition has assigned. Each partition must then clean V[k] to the
same mask, give every unassigned vertex the same LB3, never clean an
assigned vertex, and leave CoreDecomp the same work.
"""
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import repro.core.hlbub as hlbub_mod
from repro.core import h_lb_ub
from repro.core.reference import brute_force_cores
from repro.graphs import datasets
from tests.conftest import small_graph
from tests.test_properties import _graph_from_bits


def _sweep(g, h, s, improve):
    """Run h-LB+UB and log, per partition, ImproveLB's input and output and
    the visits and BFS calls of that partition's CoreDecomp."""
    log = []
    real_improve, real_decomp = hlbub_mod.improve_lb, hlbub_mod.core_decomp

    def improve_lb(A, h, vk, kmin, lb2, assigned, counter=None, spark=None):
        vk_out, lb3 = real_improve(A, h, vk, kmin, lb2, assigned, counter, spark)
        log.append({"vk_in": vk.copy(), "vk_out": vk_out.copy(), "lb3": lb3,
                    "assigned": assigned, "decomp": (0, 0)})
        return vk_out, lb3

    def core_decomp(A, h, kmin, kmax, keys, alive, core, counter):
        v0, c0 = counter.visits, counter.bfs_calls
        real_decomp(A, h, kmin, kmax, keys, alive, core, counter)
        log[-1]["decomp"] = (counter.visits - v0, counter.bfs_calls - c0)

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(hlbub_mod, "improve_lb", improve_lb)
        mp.setattr(hlbub_mod, "core_decomp", core_decomp)
        res = h_lb_ub(g, h, s=s, improve=improve)
    return res, log


def _check_rules_agree(g, h, s=None) -> int:
    """Assert the two rules agree partition by partition; returns the number
    of h-BFS the default rule skipped."""
    ref = brute_force_cores(g, h)
    paper, paper_log = _sweep(g, h, s, "all")
    plus, plus_log = _sweep(g, h, s, "unassigned")
    assert np.array_equal(paper.core, ref) and np.array_equal(plus.core, ref)
    assert len(paper_log) == len(plus_log) == len(plus.extra["intervals"])
    for a, b, rec in zip(paper_log, plus_log, plus.extra["partitions"]):
        assert not a["assigned"].any()
        assigned = b["assigned"]
        assert np.array_equal(a["vk_in"], b["vk_in"])
        assert np.array_equal(a["vk_out"], b["vk_out"])  # same cleaned V[k]
        assert not (assigned & ~b["vk_out"] & b["vk_in"]).any()  # none cleaned
        free = b["vk_in"] & ~assigned
        assert np.array_equal(a["lb3"][free], b["lb3"][free])
        assert a["decomp"] == b["decomp"]
        assert rec["bfs_skipped"] == int((b["vk_in"] & assigned).sum())
    return sum(p["bfs_skipped"] for p in plus.extra["partitions"])


@pytest.mark.parametrize("model", ["er", "er-dense", "ba", "ws", "grid"])
@pytest.mark.parametrize("seed", [0, 1, 2])
@pytest.mark.parametrize("h", [2, 3])
@pytest.mark.parametrize("s", [1, None])
def test_rules_agree_per_partition(model, seed, h, s):
    _check_rules_agree(small_graph(model, seed), h, s)


def test_rules_agree_on_coli_and_skip():
    """A dataset cell where many partitions reuse what higher ones learned."""
    assert _check_rules_agree(datasets.load("coli"), 3) > 0


@settings(max_examples=30, deadline=None)
@given(n=st.integers(6, 12), h=st.integers(2, 3), s=st.sampled_from([1, 2, None]),
       data=st.data())
def test_hypothesis_rules_agree_per_partition(n, h, s, data):
    bits = data.draw(st.lists(st.booleans(), min_size=n * (n - 1) // 2,
                              max_size=n * (n - 1) // 2))
    _check_rules_agree(_graph_from_bits(n, bits), h, s)


@pytest.mark.parametrize("improve", ["all", "unassigned"])
def test_partition_records(improve):
    """Each partition reports |V[k]| before and after cleaning and the h-BFS
    ImproveLB ran and skipped; the paper's batch skips none."""
    res = h_lb_ub(datasets.load("coli"), 3, improve=improve)
    parts = res.extra["partitions"]
    assert res.extra["improve"] == improve
    assert [(p["kmin"], p["kmax"]) for p in parts] == res.extra["intervals"]
    for p in parts:
        assert p["bfs_ran"] + p["bfs_skipped"] == p["vk_in"] >= p["vk_out"]
        if improve == "all":
            assert p["bfs_skipped"] == 0
    if improve == "unassigned":
        assert sum(p["bfs_skipped"] for p in parts) > 0
