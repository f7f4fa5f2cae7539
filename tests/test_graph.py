"""Graph container: canonical edges, both adjacency substrates, induced subgraphs."""
import numpy as np
import pytest

from repro.core.kernels import substrate
from repro.graphs.graph import DENSE_MAX_BYTES, Graph, canonical_edges


def test_canonical_edges_dedup_and_orient():
    e = canonical_edges(np.array([[1, 0], [0, 1], [2, 2], [3, 1]]), 4)
    assert e.tolist() == [[0, 1], [1, 3]]


def test_canonical_edges_empty():
    assert canonical_edges(np.zeros((0, 2), dtype=np.int64), 0).shape == (0, 2)


def _reference_canonical(edges):
    """The row-wise dedup the keyed ``canonical_edges`` replaces."""
    e = np.asarray(edges, dtype=np.int64).reshape(-1, 2)
    e = e[e[:, 0] != e[:, 1]]
    lo = np.minimum(e[:, 0], e[:, 1])
    hi = np.maximum(e[:, 0], e[:, 1])
    return np.unique(np.stack([lo, hi], axis=1), axis=0)


def _messy_edge_arrays():
    """``(n, edges)`` pairs with endpoints in ``0..n-1``."""
    rng = np.random.default_rng(2024)
    for n in (2, 3, 10, 97, 1000):
        for m in (1, 5, 60, 700):
            e = rng.integers(0, n, size=(m, 2))
            # Duplicates in both orientations, self-loops and the top id.
            dup = e[rng.integers(0, m, size=m // 3 + 1)]
            e = np.concatenate([e, dup, dup[:, ::-1], [[n - 1, n - 1]],
                                [[n - 1, 0]], [[0, n - 1]]])
            yield n, e[rng.permutation(len(e))]
    yield 0, np.zeros((0, 2), dtype=np.int64)
    yield 5, np.zeros((0, 2), dtype=np.int64)
    yield 5, np.array([[4, 4], [2, 2]])  # self-loops only
    yield 8, np.array([[7, 3]])  # a single edge
    yield 3, [1, 0, 2, 1, 0, 1]  # a flat list


@pytest.mark.parametrize("n,edges", list(_messy_edge_arrays()))
def test_canonical_edges_match_rowwise_unique(n, edges):
    got, ref = canonical_edges(edges, n), _reference_canonical(edges)
    assert got.dtype == ref.dtype == np.int64
    assert got.shape == ref.shape
    assert got.flags.c_contiguous and ref.flags.c_contiguous
    assert got.tobytes() == ref.tobytes()


def test_from_edges_rejects_out_of_range():
    with pytest.raises(ValueError, match=r"^edge endpoint 5 out of range for n=3$"):
        Graph.from_edges(3, np.array([[0, 5]]))
    with pytest.raises(ValueError, match=r"^edge endpoint 1099511627776 out of range for n=3$"):
        Graph.from_edges(3, np.array([[0, 2**40]]))


def test_from_edges_rejects_negative_ids():
    with pytest.raises(ValueError, match=r"^edge endpoint -1 is negative$"):
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
    cases = [(5, g.edges), (0, []), (4, []),
             (6, [[0, 1], [1, 2]]),  # trailing isolated vertices
             (50, np.random.default_rng(5).integers(0, 50, size=(300, 2)))]
    for n, edges in cases:
        g = Graph.from_edges(n, edges)
        assert g.degrees.dtype == np.int64 and g.degrees.shape == (n,)
        assert (g.degrees == g.adjacency.sum(axis=1)).all()


def test_adjacency_lists_match_dense_without_building_it():
    g = Graph.from_edges(6, np.array([[2, 4], [2, 0], [2, 1], [0, 5], [4, 2]]))
    lists = g.adjacency_lists
    assert g._adj is None
    assert lists == [np.flatnonzero(row).tolist() for row in g.adjacency]
    assert lists[3] == []  # isolated vertex


def test_dense_adjacency_over_cap_raises_but_lists_work():
    g = Graph.from_edges(40_000, np.zeros((0, 2), dtype=np.int64))
    assert 40_000 ** 2 > DENSE_MAX_BYTES
    with pytest.raises(ValueError, match="n=40000 would take 1,600,000,000 bytes"):
        g.adjacency
    assert g._adj is None
    assert len(g.adjacency_lists) == 40_000 and not any(g.adjacency_lists)
    assert isinstance(substrate(g), list)


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
