"""h-bounded BFS kernels: reach masks, exact-distance masks, counters, budgets."""
import numpy as np
import pytest

from repro.core.kernels import (
    BudgetExceeded,
    Counter,
    all_h_degrees,
    bounded_reach,
    connected_components,
    distance_matrix,
    kernel_name,
    substrate,
)
from repro.graphs.generators import barabasi_albert, hub_boost
from repro.graphs.graph import Graph
from tests.conftest import small_graph


def _agreement_graphs():
    for model in ("er", "er-dense", "ba", "ws", "grid"):
        for seed in (0, 1, 2, 3):
            yield f"{model}-{seed}", small_graph(model, seed)
    yield "hub", hub_boost(barabasi_albert(40, 1, seed=4), n_hubs=2, fanout=25, seed=5)
    yield "isolated", Graph.from_edges(8, np.array([[i, i + 1] for i in range(6)]))


@pytest.mark.parametrize("label,g", list(_agreement_graphs()))
def test_substrates_agree(label, g):
    """The list kernel returns the dense kernel's masks and charges its visits."""
    dense, lists = g.adjacency, g.adjacency_lists
    rng = np.random.default_rng(g.m)
    masks = [np.ones(g.n, dtype=bool)] + [rng.random(g.n) < p for p in (0.8, 0.5)]
    for alive in masks:
        for h in range(6):
            cd, cl = Counter(), Counter()
            for v in range(g.n):  # dead sources included
                rd, ad = bounded_reach(dense, v, alive, h, cd)
                rl, al = bounded_reach(lists, v, alive, h, cl)
                assert np.array_equal(rd, rl) and np.array_equal(ad, al), (v, h)
                assert rl.dtype == ad.dtype == bool
            assert (cd.visits, cd.bfs_calls) == (cl.visits, cl.bfs_calls), h
            cd, cl = Counter(), Counter()
            degs = all_h_degrees(dense, alive, h, cd)
            assert np.array_equal(degs, all_h_degrees(lists, alive, h, cl)), h
            assert (cd.visits, cd.bfs_calls) == (cl.visits, cl.bfs_calls), h


def _expected_visits(A, v, alive, h):
    """The paper's visit count, derived from distances instead of a BFS.

    An h-BFS from ``v`` expands every vertex at distance 0..h-1 and scans its
    alive neighbours. Distances are taken in the subgraph induced by the alive
    vertices plus ``v``: a dead source still starts its own BFS.
    """
    with_v = alive.copy()
    with_v[v] = True
    d = distance_matrix(A, with_v)[v]
    expanded = (d >= 0) & (d < h)
    return int((A[expanded] & alive).sum()), (d >= 1) & (d <= h), d == h


@pytest.mark.parametrize("label,g", list(_agreement_graphs())[::3])
def test_visits_match_distance_definition(label, g):
    """Both kernels charge the visits that distances predict, on random alive
    masks with dead sources, and return the distance-defined masks."""
    dense, lists = g.adjacency, g.adjacency_lists
    rng = np.random.default_rng(g.n)
    for alive in [np.ones(g.n, dtype=bool)] + [rng.random(g.n) < p for p in (0.8, 0.5)]:
        for h in range(1, 6):
            for v in range(g.n):
                visits, reach, exact = _expected_visits(dense, v, alive, h)
                for A in (dense, lists):
                    c = Counter()
                    reached, at_h = bounded_reach(A, v, alive, h, c)
                    assert (c.visits, c.bfs_calls) == (visits, 1), (kernel_name(A), v, h)
                    assert np.array_equal(reached, reach), (kernel_name(A), v, h)
                    assert np.array_equal(at_h, exact), (kernel_name(A), v, h)


@pytest.mark.parametrize("kernel", ["dense", "lists"])
def test_h_zero_is_the_empty_reach(kernel):
    """h = 0: empty masks, 0 visits and one BFS call per source, alive or not."""
    g = small_graph("er", 0)
    A = g.adjacency if kernel == "dense" else g.adjacency_lists
    alive = np.random.default_rng(0).random(g.n) < 0.7
    c = Counter()
    for v in range(g.n):
        reached, at_h = bounded_reach(A, v, alive, 0, c)
        assert reached.shape == at_h.shape == (g.n,)
        assert not reached.any() and not at_h.any()
    assert (c.visits, c.bfs_calls) == (0, g.n)
    c = Counter()
    assert np.array_equal(all_h_degrees(A, alive, 0, c), np.zeros(g.n))
    assert (c.visits, c.bfs_calls) == (0, int(alive.sum()))


@pytest.mark.parametrize("kernel", ["dense", "lists"])
def test_every_call_returns_fresh_masks(kernel):
    """Each call returns new writable (n,) boolean masks that share no memory
    with each other, the last call's, ``alive`` or the dense matrix, so a
    caller may write into a result (decomp's ``reached > setlb`` and friends)
    without corrupting the next one or the graph; and ``alive`` is left
    untouched."""
    g = small_graph("ba", 1)
    A = g.adjacency if kernel == "dense" else g.adjacency_lists
    alive = np.random.default_rng(1).random(g.n) < 0.8
    before = alive.copy()
    for h in range(5):
        prev = None
        for v in range(g.n):
            masks = bounded_reach(A, v, alive, h)
            for m in masks:
                assert m.dtype == bool and m.shape == (g.n,) and m.flags.writeable
            assert not np.shares_memory(*masks)
            assert not any(np.shares_memory(m, alive) for m in masks)
            if kernel == "dense":
                assert not any(np.shares_memory(m, A) for m in masks)
            if prev is not None:
                assert not any(np.shares_memory(m, p) for m in masks for p in prev)
            expect = [m.copy() for m in masks]
            for m in masks:
                m[:] = ~m
            again = bounded_reach(A, v, alive, h)
            assert all(np.array_equal(m, e) for m, e in zip(again, expect)), (v, h)
            prev = again
    assert np.array_equal(alive, before)


def test_substrate_chosen_by_fill_ratio():
    path = Graph.from_edges(300, np.array([[v, v + 1] for v in range(299)]))
    assert kernel_name(substrate(path)) == "lists"  # 2m/n² = 0.66%
    assert path._adj is None
    cycle = Graph.from_edges(150, np.array([[v, (v + 1) % 150] for v in range(150)]))
    assert kernel_name(substrate(cycle)) == "dense"  # 1.33%


@pytest.mark.parametrize("model", ["er", "ba", "ws", "grid"])
@pytest.mark.parametrize("seed", [0, 1, 2])
@pytest.mark.parametrize("h", [1, 2, 3, 4])
def test_bounded_reach_matches_distance_matrix(model, seed, h):
    g = small_graph(model, seed)
    A = g.adjacency
    alive = np.ones(g.n, dtype=bool)
    dist = distance_matrix(A)
    for v in range(0, g.n, 3):
        reached, at_h = bounded_reach(A, v, alive, h)
        expect = (dist[v] >= 1) & (dist[v] <= h)
        assert (reached == expect).all(), (v,)
        assert (at_h == (dist[v] == h)).all(), (v,)


@pytest.mark.parametrize("seed", [0, 1, 2, 3])
def test_bounded_reach_respects_alive_mask(seed):
    g = small_graph("er", seed)
    A = g.adjacency
    alive = np.ones(g.n, dtype=bool)
    alive[::4] = False  # kill every 4th vertex
    sub, ids = g.induced(alive)
    dist_sub = distance_matrix(sub.adjacency)
    pos = {int(orig): i for i, orig in enumerate(ids)}
    for v in np.flatnonzero(alive)[:8]:
        reached, _ = bounded_reach(A, int(v), alive, 2)
        expect = np.zeros(g.n, dtype=bool)
        dv = dist_sub[pos[int(v)]]
        for orig, i in pos.items():
            if 1 <= dv[i] <= 2:
                expect[orig] = True
        assert (reached == expect).all()


def test_bounded_reach_h_zero_and_h_one(path_graph):
    A = path_graph.adjacency
    alive = np.ones(5, dtype=bool)
    r0, e0 = bounded_reach(A, 2, alive, 0)
    assert not r0.any() and not e0.any()
    r1, e1 = bounded_reach(A, 2, alive, 1)
    assert np.flatnonzero(r1).tolist() == [1, 3]
    assert (e1 == r1).all()  # h=1: everything reached is at distance exactly 1


def test_h_degree_path(path_graph):
    A = path_graph.adjacency
    alive = np.ones(5, dtype=bool)
    assert bounded_reach(A, 0, alive, 2)[0].sum() == 2
    assert bounded_reach(A, 2, alive, 2)[0].sum() == 4
    assert bounded_reach(A, 2, alive, 4)[0].sum() == 4
    assert all_h_degrees(A, alive, 2).tolist() == [2, 3, 4, 3, 2]


def test_counter_counts_visits(star_graph):
    A = star_graph.adjacency
    alive = np.ones(6, dtype=bool)
    c = Counter()
    bounded_reach(A, 0, alive, 1, c)
    assert c.bfs_calls == 1
    assert c.visits == 5  # scanned the 5 leaves
    bounded_reach(A, 1, alive, 2, c)
    # level 1 scans the center (1 visit), level 2 scans its 5 alive nbrs.
    assert c.visits == 5 + 1 + 5


def test_visit_budget_raises(clique_graph):
    A = clique_graph.adjacency
    alive = np.ones(6, dtype=bool)
    c = Counter(visit_budget=3)
    with pytest.raises(BudgetExceeded):
        for v in range(6):
            bounded_reach(A, v, alive, 1, c)


def test_deadline_raises(clique_graph):
    A = clique_graph.adjacency
    alive = np.ones(6, dtype=bool)
    c = Counter(deadline=0.0)  # already in the past
    with pytest.raises(BudgetExceeded):
        bounded_reach(A, 0, alive, 2, c)


def test_distance_matrix_path(path_graph):
    dist = distance_matrix(path_graph.adjacency)
    assert dist[0, 4] == 4
    assert dist[1, 3] == 2
    assert (np.diag(dist) == 0).all()


def test_distance_matrix_disconnected():
    from repro.graphs.graph import Graph

    g = Graph.from_edges(4, np.array([[0, 1], [2, 3]]))
    dist = distance_matrix(g.adjacency)
    assert dist[0, 2] == -1
    assert dist[0, 1] == 1


def test_distance_matrix_alive_mask(path_graph):
    alive = np.array([True, True, False, True, True])
    dist = distance_matrix(path_graph.adjacency, alive)
    assert dist[0, 1] == 1
    assert dist[0, 3] == -1  # severed by removing vertex 2
    assert (dist[2] == -1).all()


@pytest.mark.parametrize("model", ["er", "er-dense", "ba", "ws", "grid"])
@pytest.mark.parametrize("seed", [0, 1, 2, 3])
def test_connected_components_match_distance_matrix(model, seed):
    """Each alive vertex is labelled with the smallest alive id it reaches
    inside the alive-induced subgraph; dead vertices get -1. Both substrates
    give these labels on every mask, the all-dead one included."""
    g = small_graph(model, seed)
    A = g.adjacency
    rng = np.random.default_rng(seed)
    masks = [np.ones(g.n, dtype=bool)] + [rng.random(g.n) < p for p in (0.9, 0.6, 0.3, 0)]
    for alive in masks[1:]:
        alive[0] = False  # a dead lowest id: labels must skip it
    masks[1][A[-1]] = False  # the last vertex alive but isolated
    masks[1][-1] = True
    for alive in masks:
        dist = distance_matrix(A, alive)
        expect = np.array([np.flatnonzero(row >= 0).min(initial=g.n) for row in dist])
        expect[~alive] = -1
        for walk in (A, g.adjacency_lists):
            labels = connected_components(walk, alive)
            assert labels.dtype == np.int64
            assert np.array_equal(labels, expect), kernel_name(walk)

