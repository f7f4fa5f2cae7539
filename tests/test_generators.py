"""Generators and the dataset registry."""
import numpy as np
import pytest

from repro.core.kernels import connected_components
from repro.graphs import generators as gen
from repro.graphs.datasets import DATASETS, PAPER_TABLE1, load
from repro.graphs.graph import Graph


@pytest.mark.parametrize("model,kwargs", [
    ("erdos_renyi", dict(n=40, p=0.1)),
    ("barabasi_albert", dict(n=40, m=2)),
    ("watts_strogatz", dict(n=40, k=4, p=0.1)),
    ("grid2d", dict(rows=5, cols=8, extra_p=0.3)),
    ("collab_cliques", dict(n=40, n_papers=30, max_authors=4)),
])
def test_generator_deterministic(model, kwargs):
    fn = getattr(gen, model)
    g1, g2 = fn(**kwargs, seed=7), fn(**kwargs, seed=7)
    assert np.array_equal(g1.edges, g2.edges)
    g3 = fn(**kwargs, seed=8)
    assert not np.array_equal(g1.edges, g3.edges) or g1.m == 0


@pytest.mark.parametrize("model,kwargs,n", [
    ("erdos_renyi", dict(p=0.1), 40),
    ("barabasi_albert", dict(m=2), 40),
    ("watts_strogatz", dict(k=4, p=0.1), 40),
])
def test_generator_vertex_count(model, kwargs, n):
    g = getattr(gen, model)(n, **kwargs, seed=0)
    assert g.n == n
    assert g.edges[:, 0].max() < n if g.m else True


def test_grid2d_structure():
    g = gen.grid2d(3, 4)
    assert g.n == 12
    # 3x4 grid: 3*3 horizontal + 2*4 vertical = 17 edges
    assert g.m == 3 * 3 + 2 * 4


def test_watts_strogatz_degree():
    g = gen.watts_strogatz(50, 4, 0.0, seed=0)
    assert (g.degrees == 4).all()  # pure ring lattice


def test_caveman_ring_heterogeneous():
    g = gen.caveman(3, 0, 0.0, n_inter=10, seed=1, ring=True,
                    sizes=[10, 6, 4], p_intras=[1.0, 1.0, 1.0])
    assert g.n == 20
    # First community is a clique of 10.
    assert g.adjacency[:10, :10].sum() == 10 * 9


def test_caveman_validates_lengths():
    with pytest.raises(ValueError):
        gen.caveman(3, 0, 0.0, 0, sizes=[5, 5], p_intras=[1, 1, 1])


def test_hub_boost_raises_max_degree():
    g0 = gen.erdos_renyi(60, 0.05, seed=3)
    g1 = gen.hub_boost(g0, n_hubs=1, fanout=40, seed=4)
    assert g1.degrees.max() >= 40
    assert g1.n == g0.n


def test_ensure_connected():
    g = Graph.from_edges(6, np.array([[0, 1], [2, 3], [4, 5]]))
    gc = gen.ensure_connected(g, seed=0)
    comp = connected_components(gc.adjacency, np.ones(gc.n, dtype=bool))
    assert len(np.unique(comp)) == 1


def test_connected_components_labels():
    g = Graph.from_edges(5, np.array([[0, 1], [2, 3]]))
    comp = connected_components(g.adjacency, np.ones(g.n, dtype=bool))
    assert comp[0] == comp[1]
    assert comp[2] == comp[3]
    assert comp[0] != comp[2]
    assert comp[4] == 4  # isolated


@pytest.mark.parametrize("name", sorted(DATASETS))
def test_dataset_builds_connected_and_deterministic(name):
    g = load(name)
    assert g is load(name)  # memoized
    comp = connected_components(g.adjacency, np.ones(g.n, dtype=bool))
    assert len(np.unique(comp)) == 1
    assert g.n > 100
    assert name in PAPER_TABLE1


@pytest.mark.parametrize("name,lo,hi", [
    ("coli", 2.0, 3.5), ("cele", 5.0, 11.0), ("jazz", 15.0, 32.0),
    ("doub", 3.0, 5.0), ("amzn", 3.0, 5.0), ("rnPA", 2.4, 3.5),
    ("rnTX", 2.4, 3.5), ("sytb", 3.0, 6.0), ("hyves", 3.0, 6.0),
])
def test_dataset_density_regime(name, lo, hi):
    g = load(name)
    avg = 2 * g.m / g.n
    assert lo <= avg <= hi, f"{name}: avg degree {avg} outside [{lo},{hi}]"


def test_road_networks_have_large_diameter():
    from repro.graphs.metrics import diameter

    assert diameter(load("rnPA")) > 40
    assert diameter(load("amzn")) > 15
