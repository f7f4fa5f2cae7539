"""Cross-validation battery: h-BZ, h-LB, h-LB+UB vs the definitional
brute-force reference, classic-core reduction at h=1, and hand-built cases."""
import hashlib

import numpy as np
import pytest

import repro.core.hlbub as hlbub_mod
from repro.clubs import max_h_club_dbc, max_h_club_itdbc, max_h_club_with_cores
from repro.coloring import greedy_distance_h_coloring, is_valid_distance_h_coloring
from repro.core import Counter, h_bz, h_lb, h_lb_ub
from repro.core.bounds import lower_bounds, upper_bound
from repro.core.decomp import core_decomp
from repro.core.kernels import all_h_degrees
from repro.core.reference import (
    brute_force_cores,
    classic_core_decomposition,
    kh_core_members,
    power_graph,
)
from repro.graphs import datasets
from repro.graphs.generators import erdos_renyi
from repro.graphs.graph import Graph
from repro.landmarks import select_landmarks
from repro.pregel.peeling import kh_core_bsp
from tests.conftest import small_graph

ALGOS = {
    "h-BZ": h_bz,
    "h-LB": h_lb,
    "h-LB+UB": lambda g, h: h_lb_ub(g, h),
}


@pytest.mark.parametrize("algo", sorted(ALGOS))
@pytest.mark.parametrize("model", ["er", "er-dense", "ba", "ws", "grid"])
@pytest.mark.parametrize("seed", [0, 1, 2, 3])
@pytest.mark.parametrize("h", [2, 3])
def test_algorithms_match_brute_force(algo, model, seed, h):
    g = small_graph(model, seed)
    ref = brute_force_cores(g, h)
    got = ALGOS[algo](g, h).core
    assert np.array_equal(got, ref), (algo, model, seed, h)


@pytest.mark.parametrize("algo", sorted(ALGOS))
@pytest.mark.parametrize("seed", [0, 1, 2])
def test_h1_reduces_to_classic_core(algo, seed):
    g = small_graph("er", seed)
    got = ALGOS[algo](g, 1).core
    assert np.array_equal(got, classic_core_decomposition(g)), (algo, seed)


@pytest.mark.parametrize("s", [1, 2, 3, 8, None])
@pytest.mark.parametrize("seed", [0, 1])
def test_hlbub_partition_size_invariant(s, seed):
    g = small_graph("ba", seed)
    ref = brute_force_cores(g, 2)
    assert np.array_equal(h_lb_ub(g, 2, s=s).core, ref)


@pytest.mark.parametrize("lb", ["lb1", "lb2"])
@pytest.mark.parametrize("seed", [0, 1])
def test_hlb_lower_bound_variants(lb, seed):
    g = small_graph("ws", seed)
    ref = brute_force_cores(g, 3)
    assert np.array_equal(h_lb(g, 3, lb=lb).core, ref)


@pytest.mark.parametrize("ub_kind", ["ub", "hdegree"])
def test_hlbub_upper_bound_variants(ub_kind):
    g = small_graph("er", 5)
    ref = brute_force_cores(g, 2)
    assert np.array_equal(h_lb_ub(g, 2, ub_kind=ub_kind).core, ref)


def test_path_graph_cores(path_graph):
    # P5, h=2: ends see 2 vertices, middle sees 4. The (2,2)-core is all of
    # P5; the (3,2)-core would need every vertex to see 3 others — peeling
    # the ends leaves P3 where ends see only 2 — so max core is 2.
    res = h_bz(path_graph, 2)
    assert res.core.tolist() == [2, 2, 2, 2, 2]


def test_star_graph_cores(star_graph):
    # Star K1,5 at h=2: everyone sees all 5 others -> (5,2)-core is the
    # whole graph.
    res = h_bz(star_graph, 2)
    assert res.core.tolist() == [5] * 6


def test_clique_all_h(clique_graph):
    for h in (1, 2, 3):
        res = h_lb(clique_graph, h)
        assert (res.core == 5).all()


def test_example1_finer_granularity(fig1_like_graph):
    """The paper's Example 1 claim: (k,2) distinguishes vertices that the
    classic decomposition lumps together (here v5 and v7 both have classic
    core 1 but (k,2)-core indexes 5 and 4)."""
    g = fig1_like_graph
    classic = classic_core_decomposition(g)
    kh = h_bz(g, 2).core
    assert classic[5] == classic[7]
    assert kh[5] == 5 and kh[7] == 4


def test_power_graph_decomposition_is_not_kh(fig1_like_graph):
    """Example 2: classic core of G^h upper-bounds but can differ from the
    (k,h)-core index."""
    g = fig1_like_graph
    h = 2
    gh = power_graph(g, h)
    power_core = classic_core_decomposition(gh)
    kh = brute_force_cores(g, h)
    assert (power_core >= kh).all()
    # v5/v6 (ids 5 and 6): power-core 6 vs true (k,2)-core 5.
    assert kh[5] == 5 and kh[7] == 4
    assert power_core[5] == 6
    assert (power_core != kh).any(), "expected a strict gap on this graph"


def test_kh_core_members_nested():
    g = small_graph("er", 7)
    prev = kh_core_members(g, 2, 1)
    for k in range(2, 6):
        cur = kh_core_members(g, 2, k)
        assert (prev | cur == prev).all(), "containment violated"
        prev = cur


def test_core_result_helpers():
    g = small_graph("ba", 0)
    res = h_bz(g, 2)
    assert res.degeneracy == int(res.core.max())
    assert res.members(0).all()
    assert res.distinct_cores() == len(np.unique(res.core))
    assert res.order is not None and len(res.order) == g.n
    assert sorted(res.order) == list(range(g.n))


def test_visits_ordering_lb_below_bz():
    """The whole point of the bounds: h-LB must do far fewer h-BFS visits."""
    g = small_graph("er-dense", 1)
    bz = h_bz(g, 3)
    lb = h_lb(g, 3)
    assert lb.visits < bz.visits


def test_empty_and_singleton_graphs():
    g0 = Graph.from_edges(1, np.zeros((0, 2), dtype=np.int64))
    for fn in ALGOS.values():
        assert fn(g0, 2).core.tolist() == [0]
    g3 = Graph.from_edges(3, np.zeros((0, 2), dtype=np.int64))
    assert h_lb(g3, 2).core.tolist() == [0, 0, 0]
    res = h_lb_ub(Graph.from_edges(0, np.zeros((0, 2), dtype=np.int64)), 2)
    assert res.core.shape == (0,) and res.extra["intervals"] == []


@pytest.mark.parametrize("fn", [h_bz, h_lb, h_lb_ub, kh_core_bsp])
@pytest.mark.parametrize("h", [0, -1, 2.5])
def test_rejects_h_below_one(fn, h, path_graph):
    with pytest.raises(ValueError, match="h must be >= 1"):
        fn(path_graph, h)


def test_accepts_numpy_integer_h(path_graph):
    assert np.array_equal(h_lb(path_graph, np.int64(2)).core, h_lb(path_graph, 2).core)


@pytest.mark.parametrize("call", [
    lambda g, h: max_h_club_dbc(g, h),
    lambda g, h: max_h_club_itdbc(g, h),
    lambda g, h: max_h_club_with_cores(g, h, max_h_club_dbc, h_lb_ub(g, 2)),
    lambda g, h: greedy_distance_h_coloring(g, h, list(range(g.n))),
    lambda g, h: is_valid_distance_h_coloring(g, h, np.arange(g.n)),
    lambda g, h: select_landmarks(g, "core", ell=3, h=h),
    lambda g, h: select_landmarks(g, "hdeg", ell=3, h=h),
], ids=["dbc", "itdbc", "alg7", "coloring", "coloring-check", "landmarks-core",
        "landmarks-hdeg"])
@pytest.mark.parametrize("h", [0, 2.5])
def test_applications_reject_bad_h(call, h):
    """A non-integral or sub-1 h must not run some other h (2.5 used to run
    as 3 in the club solvers and as 2 in the coloring; 0 ran the 1-cores)."""
    with pytest.raises(ValueError, match="h must be >= 1"):
        call(erdos_renyi(30, 0.1, seed=1), h)


def _digest(order) -> str:
    return hashlib.sha256(np.asarray(order, dtype=np.int64).tobytes()).hexdigest()[:16]


def test_golden_counts_coli_h3():
    """Pin the paper's metric: any change to visits, BFS calls or the peel
    order (coloring consumes it) on a fixed dataset cell shows up here."""
    g = datasets.load("coli")
    bz, lb, lbub = h_bz(g, 3), h_lb(g, 3), h_lb_ub(g, 3, improve="all")
    lbub_plus = h_lb_ub(g, 3)
    assert (bz.visits, bz.bfs_calls) == (2_682_312, 10_442)
    assert (lb.visits, lb.bfs_calls) == (236_938, 2_309)
    assert (lbub.visits, lbub.bfs_calls) == (722_220, 5_444)
    assert (lbub_plus.visits, lbub_plus.bfs_calls) == (216_370, 2_914)
    assert np.array_equal(lbub.core, lbub_plus.core)
    c = Counter()
    upper_bound(g.adjacency, 3, c)
    assert (c.visits, c.bfs_calls) == (63_637, 656)
    assert _digest(bz.order) == "0954513321731c6e"
    assert _digest(lb.order) == "4361e93c56fe800b"
    assert np.array_equal(bz.core, lb.core) and np.array_equal(bz.core, lbub.core)


@pytest.mark.parametrize("kernel", ["dense", "lists"])
def test_golden_counts_coli_h3_both_kernels(kernel, monkeypatch):
    """The coli h=3 golden counts, with each substrate handed to the engine
    directly (and to h-LB+UB in place of its own choice), so neither kernel
    can drift while the entry points use the other."""
    g = datasets.load("coli")
    A = g.adjacency if kernel == "dense" else g.adjacency_lists
    n = g.n
    c, core, order = Counter(), np.zeros(n, dtype=np.int64), []
    alive = np.ones(n, dtype=bool)
    deg = all_h_degrees(A, alive, 3, c)
    core_decomp(A, 3, 0, n, deg, alive, core, c, order, decrement="none")
    assert (c.visits, c.bfs_calls) == (2_682_312, 10_442)  # h-BZ
    assert _digest(order) == "0954513321731c6e"
    c, lb_core, order = Counter(), np.zeros(n, dtype=np.int64), []
    _, lb2 = lower_bounds(A, 3, c)
    core_decomp(A, 3, 0, n, lb2, np.ones(n, dtype=bool), lb_core, c, order)
    assert (c.visits, c.bfs_calls) == (236_938, 2_309)  # h-LB
    assert _digest(order) == "4361e93c56fe800b"
    assert np.array_equal(core, lb_core)
    c = Counter()
    upper_bound(A, 3, c)
    assert (c.visits, c.bfs_calls) == (63_637, 656)
    # The UB's peel from the same h-degrees (core_decomp leaves keys as is).
    c, order = Counter(), []
    core_decomp(A, 3, 0, n, deg, np.ones(n, dtype=bool), np.zeros(n, dtype=np.int64),
                c, order, decrement="all")
    assert (c.visits, c.bfs_calls) == (11_804, 328)
    assert _digest(order) == "6bd79123c936a552"
    monkeypatch.setattr(hlbub_mod, "substrate", lambda _: A)
    lbub = h_lb_ub(g, 3, improve="all")
    assert lbub.extra["kernel"] == kernel
    assert (lbub.visits, lbub.bfs_calls) == (722_220, 5_444)  # h-LB+UB
    assert np.array_equal(core, lbub.core)
    lbub = h_lb_ub(g, 3)
    assert (lbub.visits, lbub.bfs_calls) == (216_370, 2_914)  # ImproveLB skips
    assert np.array_equal(core, lbub.core)


@pytest.mark.parametrize("name,h,bz,lb,lbub,lbub_plus,ub,bz_digest,lb_digest", [
    ("amzn", 2, (1_023_010, 19_947), (151_547, 11_467), (406_456, 20_693),
     (299_723, 18_085), (84_769, 4_000), "7e1975548d00c85c", "d634a35612046973"),
    ("rnPA", 4, (928_417, 20_722), (584_239, 16_290), (1_272_661, 29_988),
     (810_125, 21_895), (114_212, 2_888), "039eb488137aa122", "4c155d3fa682d9ed"),
], ids=["amzn-h2", "rnPA-h4"])
def test_golden_counts_sparse_road(name, h, bz, lb, lbub, lbub_plus, ub, bz_digest,
                                   lb_digest):
    """Golden counts and peel orders on two list-substrate cells of khbench's
    sparse-road workload (seed 0), where the engine's per-peel cost shows.
    ``lbub`` is the paper's ImproveLB batch, ``lbub_plus`` the default rule."""
    g = datasets.load(name)
    r_bz, r_lb = h_bz(g, h), h_lb(g, h)
    r_lbub, r_plus = h_lb_ub(g, h, improve="all"), h_lb_ub(g, h)
    assert r_bz.extra["kernel"] == "lists"
    assert (r_bz.visits, r_bz.bfs_calls) == bz
    assert (r_lb.visits, r_lb.bfs_calls) == lb
    assert (r_lbub.visits, r_lbub.bfs_calls) == lbub
    assert (r_plus.visits, r_plus.bfs_calls) == lbub_plus
    assert np.array_equal(r_lbub.core, r_plus.core)
    c = Counter()
    upper_bound(g.adjacency_lists, h, c)
    assert (c.visits, c.bfs_calls) == ub
    assert _digest(r_bz.order) == bz_digest
    assert _digest(r_lb.order) == lb_digest
    assert np.array_equal(r_bz.core, r_lb.core)
    assert np.array_equal(r_bz.core, r_lbub.core)


@pytest.mark.parametrize("kernel", ["dense", "lists"])
@pytest.mark.parametrize("decrement", ["none", "all", "at_h"])
def test_core_decomp_leaves_keys_unchanged(decrement, kernel):
    """Callers keep the vector they pass as ``keys``: h-LB reports its lower
    bounds as ``extra["lb"]``, which the LB <= core checks read, so no rule
    may write into ``keys``."""
    g = datasets.load("coli")
    A = g.adjacency if kernel == "dense" else g.adjacency_lists
    n = g.n
    if decrement == "at_h":
        keys = lower_bounds(A, 3)[1]
    else:
        keys = all_h_degrees(A, np.ones(n, dtype=bool), 3)
    before = keys.copy()
    core = np.zeros(n, dtype=np.int64)
    core_decomp(A, 3, 0, n, keys, np.ones(n, dtype=bool), core, decrement=decrement)
    assert np.array_equal(keys, before)
    assert core.any()


def test_sparse_local_paths_never_build_the_dense_matrix():
    """On a sparse graph the non-Spark decompositions run on the O(n + m)
    neighbour lists and report it; the n x n matrix is never built."""
    coli = datasets.load("coli")
    g = Graph.from_edges(coli.n, coli.edges)
    ref = h_bz(coli, 2).core  # may build coli's matrix; g is a separate copy
    for fn in (h_bz, h_lb, h_lb_ub, kh_core_bsp):
        res = fn(g, 2)
        assert np.array_equal(res.core, ref), fn.__name__
        assert res.extra["kernel"] == "lists", fn.__name__
    assert g._adj is None
    dense = erdos_renyi(30, 0.5, seed=0)
    for fn in (h_bz, h_lb, h_lb_ub, kh_core_bsp):
        assert fn(dense, 2).extra["kernel"] == "dense", fn.__name__
