"""Distance-h coloring: validity and the Theorem 1 / Theorem 2 bound chain."""
import numpy as np
import pytest

from repro.coloring import greedy_distance_h_coloring, is_valid_distance_h_coloring
from repro.core import h_bz
from repro.core.kernels import distance_matrix
from repro.core.reference import classic_core_decomposition, power_graph
from repro.graphs.datasets import DATASETS
from repro.graphs.generators import erdos_renyi, watts_strogatz
from tests.conftest import small_graph


@pytest.mark.parametrize("seed", range(5))
@pytest.mark.parametrize("h", [2, 3])
def test_coloring_valid(seed, h):
    g = erdos_renyi(20, 0.15, seed=seed)
    colors = greedy_distance_h_coloring(g, h, h_bz(g, h).order)
    assert (colors >= 0).all()
    assert is_valid_distance_h_coloring(g, h, colors)


@pytest.mark.parametrize("seed", range(5))
@pytest.mark.parametrize("h", [2, 3])
def test_colors_bounded_by_power_graph_degeneracy(seed, h):
    """Greedy smallest-last coloring of G^h uses <= 1 + degeneracy(G^h)
    colors — the provable version of the Theorem-1 bound chain."""
    g = erdos_renyi(18, 0.18, seed=seed)
    colors = greedy_distance_h_coloring(g, h, h_bz(g, h).order)
    gh_degeneracy = int(classic_core_decomposition(power_graph(g, h)).max())
    assert int(colors.max()) + 1 <= 1 + gh_degeneracy


@pytest.mark.parametrize("model,seed", [("er", 0), ("ba", 1), ("ws", 2)])
@pytest.mark.parametrize("h", [2, 3])
@pytest.mark.xfail(strict=False, reason=(
    "Theorem 1's greedy proof counts h-neighbors in the growing subgraph, "
    "but Definition 3 requires G-distances; our greedy colors by G-distance "
    "so its color count can exceed 1 + h-degeneracy on adversarial "
    "instances. Empirically the bound holds on these models — the test "
    "documents the check without hard-failing the suite (soundness note in "
    "EXPERIMENTS.md)."))
def test_theorem1_bound_empirical(model, seed, h):
    """Theorem 1: chi_h(G) <= 1 + h-degeneracy, checked via our greedy
    (an upper bound on chi_h) on three graph models."""
    g = small_graph(model, seed)
    res = h_bz(g, h)
    colors = greedy_distance_h_coloring(g, h, order=res.order)
    assert is_valid_distance_h_coloring(g, h, colors)
    assert int(colors.max()) + 1 <= 1 + res.degeneracy


def test_path_coloring(path_graph):
    colors = greedy_distance_h_coloring(path_graph, 2, h_bz(path_graph, 2).order)
    # On P5 with h=2, any window of 3 consecutive vertices needs distinct
    # colors -> at least 3 colors, and greedy achieves exactly 3.
    assert int(colors.max()) + 1 == 3
    assert is_valid_distance_h_coloring(path_graph, 2, colors)


def test_clique_coloring(clique_graph):
    colors = greedy_distance_h_coloring(clique_graph, 1, h_bz(clique_graph, 1).order)
    assert int(colors.max()) + 1 == 6  # K6 needs 6 colors
    assert is_valid_distance_h_coloring(clique_graph, 1, colors)


def test_invalid_coloring_detected(path_graph):
    bad = np.zeros(5, dtype=np.int64)  # all same color on a path, h=1
    assert not is_valid_distance_h_coloring(path_graph, 1, bad)


def test_ring_coloring_h2():
    g = watts_strogatz(12, 2, 0.0, seed=0)  # plain 12-cycle
    colors = greedy_distance_h_coloring(g, 2, h_bz(g, 2).order)
    assert is_valid_distance_h_coloring(g, 2, colors)
    assert int(colors.max()) + 1 >= 3


def _matrix_greedy(g, h, order):
    """The greedy over all-pairs distances: same colors, O(n^2) memory."""
    dist = distance_matrix(g.adjacency)
    close = (dist >= 1) & (dist <= h)
    colors = np.full(g.n, -1, dtype=np.int64)
    for v in reversed(order):
        taken = set(int(c) for c in colors[close[v]] if c >= 0)
        c = 0
        while c in taken:
            c += 1
        colors[v] = c
    return colors


@pytest.mark.parametrize("name", ["coli", "rnPA"])
@pytest.mark.parametrize("h", [2, 3])
def test_sparse_coloring_matches_distance_matrix_greedy(name, h):
    """On a sparse graph each h-neighbourhood is one h-BFS on the lists:
    the colors equal the distance-matrix greedy's, and the n x n matrix is
    never built."""
    g = DATASETS[name]()
    order = h_bz(g, h).order
    colors = greedy_distance_h_coloring(g, h, order)
    assert g._adj is None
    assert np.array_equal(colors, _matrix_greedy(g, h, order))


@pytest.mark.parametrize("order", [[0, 1, 2, 3], [0] + list(range(11))])
def test_coloring_rejects_order_that_is_not_a_permutation(order):
    """A partial order would leave the missing vertices at color -1, and a
    duplicated one would color a vertex twice; both are refused."""
    g = erdos_renyi(12, 0.3, seed=1)
    with pytest.raises(ValueError, match="permutation"):
        greedy_distance_h_coloring(g, 2, order=order)
