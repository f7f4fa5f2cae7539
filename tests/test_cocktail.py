"""Distance-generalized cocktail party (Appendix B)."""
import numpy as np
import pytest

from repro.cocktail import cocktail as cocktail_mod
from repro.cocktail import cocktail_party
from repro.core import h_lb_ub
from repro.core.kernels import all_h_degrees, connected_components
from repro.graphs.datasets import load
from repro.graphs.generators import erdos_renyi
from repro.graphs.graph import Graph


@pytest.mark.parametrize("seed", range(4))
def test_solution_contains_query_connected_min_degree(seed):
    g = erdos_renyi(20, 0.2, seed=seed)
    q = [0, 5]
    mask, k = cocktail_party(g, q, 2, h_lb_ub(g, 2))
    if k < 0:
        pytest.skip("query not connected in this draw")
    assert mask[q].all()
    degs = all_h_degrees(g.adjacency, mask, 2)
    assert int(degs[mask].min()) >= k


@pytest.mark.parametrize("seed", range(4))
def test_optimality_vs_bruteforce(seed):
    """No connected superset of Q achieves a larger minimum h-degree."""
    from itertools import combinations

    g = erdos_renyi(9, 0.3, seed=seed)
    q = [0, 1]
    h = 2
    mask, k = cocktail_party(g, q, h, h_lb_ub(g, h))
    best = -1
    others = [v for v in range(g.n) if v not in q]
    for r in range(len(others) + 1):
        for extra in combinations(others, r):
            trial = np.zeros(g.n, dtype=bool)
            trial[q] = True
            trial[list(extra)] = True
            # connectivity of the induced subgraph containing q
            labels = connected_components(g.adjacency, trial)
            if not (labels[trial] == labels[q[0]]).all():
                continue
            degs = all_h_degrees(g.adjacency, trial, h)
            best = max(best, int(degs[trial].min()))
    if k < 0:
        assert best == -1
    else:
        assert k == best


def test_disconnected_query_returns_empty():
    g = Graph.from_edges(4, np.array([[0, 1], [2, 3]]))
    mask, k = cocktail_party(g, [0, 2], 3, h_lb_ub(g, 3))
    assert k == -1 and not mask.any()


def test_single_query_vertex_gets_top_core_component():
    g = erdos_renyi(15, 0.3, seed=1)
    mask, k = cocktail_party(g, [3], 2, h_lb_ub(g, 2))
    assert mask[3]
    assert k >= 0


@pytest.mark.parametrize("query", [[], [-1], [0, 4], [1, -3]])
def test_rejects_empty_or_out_of_range_query(query):
    g = Graph.from_edges(4, np.array([[0, 1], [1, 2], [2, 3]]))
    with pytest.raises(ValueError, match="query"):
        cocktail_party(g, query, 2, h_lb_ub(g, 2))


@pytest.mark.parametrize("name", ["coli", "rnPA"])
def test_sparse_answer_matches_dense_and_stays_off_the_matrix(name, monkeypatch):
    """On a sparse graph the components are labelled on the neighbour lists:
    every answer equals the dense matrix's, and the n x n matrix is never
    built."""
    dense = load(name)
    g = Graph.from_edges(dense.n, dense.edges)
    dec = h_lb_ub(g, 2)
    rng = np.random.default_rng(len(name))
    queries = [[0], [g.n - 1], rng.integers(0, g.n, 2).tolist(),
               rng.integers(0, g.n, 3).tolist(), [int(np.argmin(dec.core))]]
    answers = [cocktail_party(g, q, 2, dec) for q in queries]
    assert g._adj is None
    monkeypatch.setattr(cocktail_mod, "substrate", lambda graph: graph.adjacency)
    for q, (mask, k) in zip(queries, answers):
        ref_mask, ref_k = cocktail_party(dense, q, 2, dec)
        assert k == ref_k, q
        assert np.array_equal(mask, ref_mask), q
    assert max(k for _, k in answers) > min(k for _, k in answers)
