"""Bound correctness: LB1 <= LB2 <= core <= UB <= h-degree, and the
power-graph identity for UB."""
import numpy as np
import pytest

from repro.core.bounds import batch_h_degrees, improve_lb, lower_bounds, upper_bound
from repro.core.hlbub import build_intervals
from repro.core.kernels import Counter
from repro.core.reference import (
    brute_force_cores,
    classic_core_decomposition,
    kh_core_members,
    power_graph,
)
from tests.conftest import small_graph


@pytest.mark.parametrize("model", ["er", "er-dense", "ba", "ws", "grid"])
@pytest.mark.parametrize("seed", [0, 1, 2])
@pytest.mark.parametrize("h", [2, 3, 4])
def test_bound_sandwich(model, seed, h):
    g = small_graph(model, seed)
    A = g.adjacency
    core = brute_force_cores(g, h)
    lb1, lb2 = lower_bounds(A, h)
    ub = upper_bound(A, h)
    hdeg = batch_h_degrees(A, np.ones(g.n, dtype=bool), h)
    assert (lb1 <= lb2).all()
    assert (lb2 <= core).all(), "LB2 must lower-bound the core index (Obs. 2)"
    assert (core <= ub).all(), "UB must upper-bound the core index (Obs. 3)"
    assert (ub <= hdeg).all(), "power-graph core index <= degree in G^h"


def test_ub_at_h1_is_classic_core():
    """At h=1 the implicit power graph is G itself, so Algorithm 5 reduces
    to classic BZ exactly."""
    for seed in range(4):
        g = small_graph("er", seed)
        ub = upper_bound(g.adjacency, 1)
        assert np.array_equal(ub, classic_core_decomposition(g))


@pytest.mark.parametrize("seed", [0, 1, 2, 3])
@pytest.mark.parametrize("h", [2, 3])
def test_ub_and_power_graph_core_both_upper_bound(seed, h):
    """§4.4: Algorithm 5 peels the *implicit* power graph, recomputing
    h-neighborhoods in the shrinking graph, so it need not equal the classic
    core of the static G^h — but both must upper-bound the true core index.
    """
    g = small_graph("er", seed)
    ub = upper_bound(g.adjacency, h)
    static = classic_core_decomposition(power_graph(g, h))
    core = brute_force_cores(g, h)
    assert (ub >= core).all()
    assert (static >= core).all()


def test_lb1_is_half_h_degree(star_graph):
    A = star_graph.adjacency
    lb1, lb2 = lower_bounds(A, 2)  # floor(2/2)=1 -> LB1 = degree
    assert (lb1 == star_graph.degrees).all()
    # LB2: the max LB1 within the 1-neighborhood; leaves see the center.
    assert lb2[1] == 5 and lb2[0] == 5


def test_lower_bounds_h1_degenerate():
    """At h=1 both bounds are 0 (⌊1/2⌋ = 0), so no h-BFS is charged."""
    g = small_graph("er", 0)
    c = Counter()
    lb1, lb2 = lower_bounds(g.adjacency, 1, c)
    assert (lb1 == 0).all() and (lb2 == 0).all()
    assert (c.bfs_calls, c.visits) == (0, 0)


def test_build_intervals_matches_example4():
    """Example 4 verbatim: U={5,10,15,20,25,30}, lb0=3."""
    ub = np.array([5, 10, 15, 20, 25, 30])
    lb2 = np.array([3, 5, 7, 9, 11, 13])
    assert build_intervals(ub, lb2, s=2) == [(21, 30), (11, 20), (3, 10)]
    assert build_intervals(ub, lb2, s=1) == [
        (26, 30), (21, 25), (16, 20), (11, 15), (6, 10), (3, 5)
    ]


def test_build_intervals_cover_and_disjoint():
    g = small_graph("ba", 3)
    core = brute_force_cores(g, 2)
    lb1, lb2 = lower_bounds(g.adjacency, 2)
    ub = upper_bound(g.adjacency, 2)
    for s in (1, 2, 5):
        ivs = build_intervals(ub, lb2, s)
        # top-down, disjoint, contiguous
        for (k0, k1), (k0n, k1n) in zip(ivs, ivs[1:]):
            assert k0 <= k1 and k1n == k0 - 1
        # every true core index falls in exactly one interval
        for c in core:
            hits = [1 for k0, k1 in ivs if k0 <= c <= k1]
            assert sum(hits) == 1 or (c < min(k0 for k0, _ in ivs))


@pytest.mark.parametrize("seed", [0, 1, 2])
def test_improve_lb_is_sound(seed):
    """LB3 from Property 3 must never exceed the true core index, and the
    cleaning pass must never drop a vertex of the current partition."""
    g = small_graph("er", seed)
    A = g.adjacency
    h = 2
    core = brute_force_cores(g, h)
    _, lb2 = lower_bounds(A, h)
    ub = upper_bound(A, h)
    for kmin in (1, 2, int(ub.max())):
        vk0 = ub >= kmin
        vk, lb3 = improve_lb(A, h, vk0, kmin, lb2, np.zeros(g.n, dtype=bool))
        ids = np.flatnonzero(vk0)
        assert (lb3[ids] <= core[ids]).all(), "Property 3 violated"
        # no vertex with core >= kmin may be cleaned away
        keep = core >= kmin
        assert (vk[keep] | ~vk0[keep]).all()


@pytest.mark.parametrize("model", ["er", "er-dense", "ba", "ws", "grid"])
@pytest.mark.parametrize("seed", [0, 1])
def test_improve_lb_cleaning_reaches_fix_point(model, seed):
    """At h=1 a deletion lowers each neighbour's degree by exactly 1, so the
    decrement rule is exact and the cleaned mask must be the (kmin,1)-core
    of G[V[k]] itself, not merely a superset of it."""
    g = small_graph(model, seed)
    vk0 = np.random.default_rng(seed).random(g.n) < 0.8
    sub, ids = g.induced(vk0)
    cleaned_any = False
    nothing = np.zeros(g.n, dtype=bool)
    for kmin in range(1, 6):
        vk, _ = improve_lb(g.adjacency, 1, vk0, kmin, np.zeros(g.n, dtype=np.int64),
                           nothing)
        expect = np.zeros(g.n, dtype=bool)
        expect[ids] = kh_core_members(sub, 1, kmin)
        assert np.array_equal(vk, expect), kmin
        cleaned_any |= bool((vk != vk0).any())
    assert cleaned_any  # the battery must exercise the cleaning


def test_batch_h_degrees_respects_alive():
    g = small_graph("ws", 1)
    A = g.adjacency
    alive = np.ones(g.n, dtype=bool)
    alive[:5] = False
    degs = batch_h_degrees(A, alive, 2)
    assert (degs[:5] == 0).all()
    assert degs[alive].max() <= int(alive.sum()) - 1
    # A sources mask picks which vertices get a BFS; each still runs over
    # the whole of G[alive].
    sources = alive & (np.arange(g.n) % 3 == 0)
    c = Counter()
    part = batch_h_degrees(A, alive, 2, c, sources=sources)
    assert np.array_equal(part, np.where(sources, degs, 0))
    assert c.bfs_calls == int(sources.sum())
