"""Landmark selection and distance estimation (§6.6)."""
import numpy as np
import pytest

from repro.core.kernels import all_h_degrees, distance_matrix
from repro.graphs.datasets import load
from repro.graphs.generators import barabasi_albert, erdos_renyi
from repro.graphs.graph import Graph
from repro.landmarks import (
    betweenness_centrality,
    closeness_centrality,
    estimate_error,
    select_landmarks,
)


def test_closeness_star(star_graph):
    cc = closeness_centrality(star_graph)
    assert cc[0] == max(cc)  # the hub is most central
    assert np.allclose(cc[1:], cc[1])


def test_closeness_path(path_graph):
    cc = closeness_centrality(path_graph)
    assert np.argmax(cc) == 2  # middle of the path


def test_betweenness_path(path_graph):
    bc = betweenness_centrality(path_graph)
    # P5 exact: ends 0, v1/v3 carry 3 pairs, middle carries 4.
    assert bc.tolist() == [0.0, 3.0, 4.0, 3.0, 0.0]


def test_betweenness_star(star_graph):
    bc = betweenness_centrality(star_graph)
    assert bc[0] == 10.0  # C(5,2) pairs all through the hub
    assert np.allclose(bc[1:], 0.0)


def test_betweenness_clique(clique_graph):
    assert np.allclose(betweenness_centrality(clique_graph), 0.0)


@pytest.mark.parametrize("method", ["core", "cc", "bc", "hdeg"])
def test_select_landmarks_count_and_validity(method):
    g = barabasi_albert(60, 2, seed=5)
    lm = select_landmarks(g, method, ell=10, h=2, seed=3)
    assert len(lm) == 10
    assert len(set(int(v) for v in lm)) == 10
    assert all(0 <= int(v) < g.n for v in lm)


def test_select_landmarks_unknown_method():
    g = erdos_renyi(10, 0.3, seed=0)
    with pytest.raises(ValueError):
        select_landmarks(g, "nope", ell=2)


def test_select_landmarks_hdeg_rejects_h0():
    """h = 0 gives every vertex h-degree 0; it must not pick ids 0..ell-1."""
    g = erdos_renyi(10, 0.3, seed=0)
    with pytest.raises(ValueError):
        select_landmarks(g, "hdeg", ell=3, h=0)


def test_estimate_error_zero_with_all_landmarks():
    """With every vertex a landmark, UB(s,t) <= d(s,u*)+d(u*,t) where u*=s
    gives exactly d(s,t); LB also reaches d(s,t) -> error 0."""
    g = erdos_renyi(15, 0.3, seed=1)
    err = estimate_error(g, np.arange(g.n), n_pairs=50, seed=0)
    assert err == 0.0


def test_estimate_error_bounds_sandwich():
    g = barabasi_albert(50, 2, seed=2)
    dist = distance_matrix(g.adjacency)
    lm = select_landmarks(g, "cc", ell=5, dist=dist)
    err = estimate_error(g, lm, n_pairs=100, seed=0, dist=dist)
    assert 0.0 <= err < 1.5


def test_core_landmarks_top_core_membership():
    g = barabasi_albert(60, 3, seed=7)
    from repro.core import h_lb_ub

    res = h_lb_ub(g, 2)
    lm = select_landmarks(g, "core", ell=5, h=2, core=res.core, seed=0)
    top = res.core.max()
    assert (res.core[lm] == top).all() or len(np.flatnonzero(res.core == top)) < 5


def test_fewer_core_vertices_than_ell_falls_back():
    # Tiny graph where the top core is smaller than ell.
    g = Graph.from_edges(6, np.array([[0, 1], [1, 2], [2, 0], [3, 4]]))
    lm = select_landmarks(g, "core", ell=5, h=2, seed=0)
    assert len(lm) == 5
    g0 = Graph.from_edges(0, np.zeros((0, 2), dtype=np.int64))
    for h in (1, 2):
        assert len(select_landmarks(g0, "core", ell=5, h=h, seed=0)) == 0


@pytest.mark.parametrize("h", [1, 2, 3])
def test_hdeg_landmarks_sparse_stay_off_the_matrix(h):
    """On a sparse graph "hdeg" ranks h-degrees from the neighbour lists,
    picks what the dense matrix picks, and never builds the n x n matrix."""
    coli = load("coli")
    g = Graph.from_edges(coli.n, coli.edges)
    degs = all_h_degrees(coli.adjacency, np.ones(coli.n, dtype=bool), h)
    lm = select_landmarks(g, "hdeg", ell=10, h=h)
    assert np.array_equal(lm, np.argsort(-degs)[:10])
    assert g._adj is None
