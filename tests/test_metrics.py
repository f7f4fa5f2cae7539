"""Graph metrics: degree statistics and exact diameter."""
import numpy as np
import pytest

from repro.graphs.generators import erdos_renyi, grid2d
from repro.graphs.graph import Graph
from repro.graphs.metrics import diameter, graph_stats


def test_diameter_path(path_graph):
    assert diameter(path_graph) == 4


def test_diameter_grid():
    assert diameter(grid2d(3, 3)) == 4  # corner-to-corner Manhattan


def test_graph_stats_fields():
    g = erdos_renyi(30, 0.2, seed=0)
    s = graph_stats(g)
    assert s.n == 30 and s.m == g.m
    assert s.avg_deg == pytest.approx(2 * g.m / 30)
    assert s.max_deg == int(g.degrees.max())
    for n in (0, 3):  # no edges, the empty graph included
        s = graph_stats(Graph.from_edges(n, np.zeros((0, 2), dtype=np.int64)))
        assert (s.n, s.m, s.avg_deg, s.max_deg, s.diameter) == (n, 0, 0.0, 0, 0)

