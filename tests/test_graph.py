"""Graph container and adjacency packing."""
import numpy as np
import pytest

from repro.graphs.graph import Graph, canonical_edges, pack_adjacency, unpack_adjacency


def test_canonical_edges_dedup_and_orient():
    e = canonical_edges(np.array([[1, 0], [0, 1], [2, 2], [3, 1]]))
    assert e.tolist() == [[0, 1], [1, 3]]


def test_canonical_edges_empty():
    assert canonical_edges(np.zeros((0, 2), dtype=np.int64)).shape == (0, 2)


def test_from_edges_rejects_out_of_range():
    with pytest.raises(ValueError):
        Graph.from_edges(3, np.array([[0, 5]]))


def test_from_edges_rejects_negative_ids():
    with pytest.raises(ValueError, match="negative"):
        Graph.from_edges(4, np.array([[0, -1], [1, 2]]))


def test_adjacency_symmetric_no_diag():
    g = Graph.from_edges(4, np.array([[0, 1], [1, 2], [2, 3]]))
    A = g.adjacency
    assert (A == A.T).all()
    assert not A.diagonal().any()
    assert A.sum() == 2 * g.m


def test_degrees_match_adjacency():
    g = Graph.from_edges(5, np.array([[0, 1], [0, 2], [0, 3], [3, 4]]))
    assert g.degrees.tolist() == [3, 1, 1, 2, 1]
    assert (g.degrees == g.adjacency.sum(axis=1)).all()


def test_neighbors_sorted():
    g = Graph.from_edges(5, np.array([[2, 4], [2, 0], [2, 1]]))
    assert g.neighbors(2).tolist() == [0, 1, 4]


def test_adjacency_lists_match_dense_without_building_it():
    g = Graph.from_edges(6, np.array([[2, 4], [2, 0], [2, 1], [0, 5], [4, 2]]))
    lists = g.adjacency_lists
    assert g._adj is None
    assert lists == [np.flatnonzero(row).tolist() for row in g.adjacency]
    assert lists[3] == []  # isolated vertex


def test_induced_subgraph_relabels():
    g = Graph.from_edges(5, np.array([[0, 1], [1, 2], [2, 3], [3, 4]]))
    mask = np.array([True, False, True, True, False])
    sub, ids = g.induced(mask)
    assert ids.tolist() == [0, 2, 3]
    assert sub.n == 3
    assert sub.edges.tolist() == [[1, 2]]  # only edge 2-3 survives


def test_both_directions_doubles():
    g = Graph.from_edges(3, np.array([[0, 1], [1, 2]]))
    both = g.both_directions()
    assert len(both) == 2 * g.m
    assert sorted(map(tuple, both.tolist())) == [(0, 1), (1, 0), (1, 2), (2, 1)]


@pytest.mark.parametrize("n", [1, 7, 17, 64, 65])
def test_pack_unpack_roundtrip(n):
    rng = np.random.default_rng(n)
    A = rng.random((n, n)) < 0.3
    A = np.triu(A, 1)
    A = A | A.T
    assert (unpack_adjacency(pack_adjacency(A), n) == A).all()
