"""Distance-h densest subgraph: Theorem 4's approximation guarantee."""
import numpy as np
import pytest

from repro.core import h_lb_ub
from repro.core.kernels import all_h_degrees
from repro.densest.densest import (
    approximation_floor,
    avg_h_degree,
    core_based_densest,
    exact_densest_bruteforce,
)
from repro.graphs.datasets import load
from repro.graphs.generators import erdos_renyi
from repro.graphs.graph import Graph


@pytest.mark.parametrize("seed", range(6))
@pytest.mark.parametrize("h", [1, 2, 3])
def test_theorem4_guarantee(seed, h):
    g = erdos_renyi(11, 0.25, seed=seed)
    _, f_star = exact_densest_bruteforce(g, h)
    _, f_core = core_based_densest(g, h, h_lb_ub(g, h))
    assert f_core <= f_star + 1e-9  # core is a candidate, cannot beat optimum
    assert f_core >= approximation_floor(f_star) - 1e-9


def test_avg_h_degree_clique(clique_graph):
    full = np.ones(6, dtype=bool)
    assert avg_h_degree(clique_graph, full, 1) == 5.0
    assert avg_h_degree(clique_graph, full, 3) == 5.0


def test_avg_h_degree_empty():
    g = erdos_renyi(5, 0.5, seed=0)
    assert avg_h_degree(g, np.zeros(5, dtype=bool), 2) == 0.0


def test_rejects_h0():
    """h = 0 has no h-degrees; it must not read as an all-zero density."""
    g = erdos_renyi(6, 0.5, seed=0)
    with pytest.raises(ValueError):
        avg_h_degree(g, np.ones(6, dtype=bool), 0)
    with pytest.raises(ValueError):
        exact_densest_bruteforce(g, 0)


def test_densest_prefers_dense_clump():
    # A K6 clump plus a long pendant path: the densest (avg 2-degree)
    # subgraph is the clump, not the whole graph.
    edges = [[i, j] for i in range(6) for j in range(i + 1, 6)]
    edges += [[5, 6], [6, 7], [7, 8], [8, 9]]
    g = Graph.from_edges(10, np.array(edges))
    mask, f = core_based_densest(g, 2, h_lb_ub(g, 2))
    assert mask[:6].all()
    assert not mask[9]
    assert f >= 5.0


def test_h1_matches_classic_densest_shape():
    g = erdos_renyi(12, 0.3, seed=2)
    _, f_star = exact_densest_bruteforce(g, 1)
    # avg degree of densest >= avg degree of G
    assert f_star >= 2 * g.m / g.n - 1e-9


def test_bruteforce_rejects_large():
    with pytest.raises(ValueError):
        exact_densest_bruteforce(erdos_renyi(20, 0.2, seed=0), 2)


@pytest.mark.parametrize("h", [1, 2, 3])
def test_avg_h_degree_sparse_stays_off_the_matrix(h):
    """On a sparse graph f_h runs on the neighbour lists, equals the dense
    matrix's value, and never builds the n x n matrix."""
    coli = load("coli")
    g = Graph.from_edges(coli.n, coli.edges)
    rng = np.random.default_rng(h)
    for mask in (np.ones(g.n, dtype=bool), rng.random(g.n) < 0.7):
        degs = all_h_degrees(coli.adjacency, mask, h)  # coli's own matrix
        assert avg_h_degree(g, mask, h) == float(degs[mask].sum()) / int(mask.sum())
    assert g._adj is None
