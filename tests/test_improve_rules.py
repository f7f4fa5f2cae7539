"""h-LB's and h-LB+UB's two rules: the paper's and the default reuse rule.

``rule="paper"`` runs Algorithm 3's eager recompute in CoreDecomp and
Algorithm 6's batch in ImproveLB (an h-BFS from every vertex of V[k]). The
default ``"reuse"`` puts a hit neighbour back at its lower bound until the
sweep pops it, and runs ImproveLB's h-BFS only from the vertices no higher
partition has assigned. Both rules must give the brute-force cores inside the
LB <= core <= UB sandwich. At each partition of a reuse sweep, ImproveLB must
clean V[k] to the mask the paper's batch gives, give every unassigned vertex
the same LB3, and never clean an assigned vertex.
"""
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import repro.core.hlb as hlb_mod
import repro.core.hlbub as hlbub_mod
from repro.coloring import greedy_distance_h_coloring, is_valid_distance_h_coloring
from repro.core import h_lb, h_lb_ub
from repro.core.bounds import lower_bounds
from repro.core.kernels import Counter, bounded_reach, substrate
from repro.core.reference import brute_force_cores
from repro.graphs import datasets
from tests.conftest import small_graph
from tests.test_properties import _graph_from_bits


def _reuse_sweep(g, h, s):
    """Run the default h-LB+UB, checking each partition's ImproveLB against
    the paper's batch (the same call with an all-False ``assigned``)."""
    real_improve = hlbub_mod.improve_lb
    skipped = []

    def improve_lb(A, h, vk, kmin, lb2, assigned, counter=None, spark=None):
        vk_out, lb3 = real_improve(A, h, vk, kmin, lb2, assigned, counter, spark)
        ref_vk, ref_lb3 = real_improve(A, h, vk, kmin, lb2, np.zeros_like(assigned))
        assert np.array_equal(vk_out, ref_vk)  # same cleaned V[k]
        assert not (assigned & vk & ~vk_out).any()  # no assigned vertex cleaned
        free = vk & ~assigned
        assert np.array_equal(lb3[free], ref_lb3[free])
        skipped.append(int((vk & assigned).sum()))
        return vk_out, lb3

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(hlbub_mod, "improve_lb", improve_lb)
        res = h_lb_ub(g, h, s=s)
    assert [p["bfs_skipped"] for p in res.extra["partitions"]] == skipped
    return res


def _check_rules_agree(g, h, s=None) -> int:
    """Assert both rules of h-LB and h-LB+UB give the brute-force cores
    within their bounds; returns the number of h-BFS ImproveLB skipped."""
    ref = brute_force_cores(g, h)
    plus = _reuse_sweep(g, h, s)
    for res in (plus, h_lb_ub(g, h, s=s, rule="paper")):
        assert np.array_equal(res.core, ref), res.extra["rule"]
        assert (res.extra["lb2"] <= ref).all() and (ref <= res.extra["ub"]).all()
    for res in (h_lb(g, h), h_lb(g, h, rule="paper")):
        assert np.array_equal(res.core, ref), res.extra["rule"]
        assert (res.extra["lb"] <= ref).all()
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


@pytest.mark.parametrize("rule", ["paper", "reuse"])
def test_partition_records(rule):
    """Each partition reports |V[k]| before and after cleaning, the h-BFS
    ImproveLB ran and skipped, its lazy pops, confirmed pops and guarded
    hits; the paper's batch skips none and its eager peel guards none."""
    res = h_lb_ub(datasets.load("coli"), 3, rule=rule)
    parts = res.extra["partitions"]
    assert res.extra["rule"] == rule
    assert [(p["kmin"], p["kmax"]) for p in parts] == res.extra["intervals"]
    for p in parts:
        assert p["bfs_ran"] + p["bfs_skipped"] == p["vk_in"] >= p["vk_out"]
        if rule == "paper":
            assert p["bfs_skipped"] == p["guarded"] == 0
    if rule == "reuse":
        assert sum(p["bfs_skipped"] for p in parts) > 0
        assert sum(p["guarded"] for p in parts) > 0
    for key in ("lazy_pops", "confirmed", "guarded"):
        assert sum(p[key] for p in parts) == res.extra[key]


@pytest.mark.parametrize("rule", ["paper", "reuse"])
def test_lazy_pops_are_counted(rule):
    """Every lazy pop runs one h-BFS, and a confirmed pop is a lazy pop
    whose recomputed h-degree was at most k: the paper's rule puts it back
    in bucket k, the reuse rule peels it at once. Only the reuse rule
    guards hits (skips a neighbour already settled at k). With no eager
    recompute, the reuse rule's h-LB peel runs one h-BFS per peeled vertex
    and one per lazy pop that is not confirmed."""
    g = datasets.load("coli")
    for res in (h_lb(g, 3, rule=rule), h_lb_ub(g, 3, rule=rule)):
        assert 0 <= res.extra["confirmed"] <= res.extra["lazy_pops"] <= res.bfs_calls
        if rule == "reuse":
            assert res.extra["confirmed"] > 0 and res.extra["guarded"] > 0
        else:
            assert res.extra["guarded"] == 0
    if rule == "reuse":
        c = Counter()
        lower_bounds(substrate(g), 3, c)
        res = h_lb(g, 3)
        assert res.bfs_calls == (c.bfs_calls + g.n + res.extra["lazy_pops"]
                                 - res.extra["confirmed"])


def _check_peel_order(g, h, order, core):
    """``order`` is a permutation of the vertices, each peeled with at most
    core(v) h-neighbours left, and the colouring built from it is valid."""
    assert sorted(order) == list(range(g.n))
    alive = np.ones(g.n, dtype=bool)
    for v in order:
        assert np.count_nonzero(bounded_reach(g.adjacency, v, alive, h)[0]) <= core[v]
        alive[v] = False
    assert is_valid_distance_h_coloring(g, h, greedy_distance_h_coloring(g, h, order))


@pytest.mark.parametrize("kernel", ["dense", "lists"])
def test_reuse_peel_matches_brute_force_on_both_kernels(kernel):
    """The default rule's guard and peel-on-confirm against the definitional
    cores, with each substrate handed to h-LB and h-LB+UB: equal cores inside
    LB <= core <= UB, a valid peel order, and both branches taken."""
    fired = {"h-LB": [0, 0], "h-LB+UB": [0, 0]}
    with pytest.MonkeyPatch.context() as mp:
        for mod in (hlb_mod, hlbub_mod):
            mp.setattr(mod, "substrate",
                       lambda g: g.adjacency if kernel == "dense" else g.adjacency_lists)
        for model in ("er", "er-dense", "ba", "ws", "grid"):
            for seed in (0, 1, 2):
                g = small_graph(model, seed)
                for h in (2, 3):
                    ref = brute_force_cores(g, h)
                    lb = h_lb(g, h)
                    assert lb.extra["kernel"] == kernel
                    assert np.array_equal(lb.core, ref)
                    assert (lb.extra["lb"] <= ref).all()
                    _check_peel_order(g, h, lb.order, ref)
                    for s in (1, None):
                        ub = h_lb_ub(g, h, s=s)
                        assert np.array_equal(ub.core, ref)
                        assert (ub.extra["lb2"] <= ref).all() and (ref <= ub.extra["ub"]).all()
                        fired["h-LB+UB"][0] += ub.extra["guarded"]
                        fired["h-LB+UB"][1] += ub.extra["confirmed"]
                    fired["h-LB"][0] += lb.extra["guarded"]
                    fired["h-LB"][1] += lb.extra["confirmed"]
    for algo, (guarded, confirmed) in fired.items():
        assert guarded > 0 and confirmed > 0, algo
