"""Generators and the dataset registry."""
import hashlib

import numpy as np
import pytest

from repro.core.kernels import LISTS_MAX_FILL, connected_components
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
    g = gen.caveman([10, 6, 4], [1.0, 1.0, 1.0], n_inter=10, seed=1)
    assert g.n == 20
    # First community is a clique of 10.
    assert g.adjacency[:10, :10].sum() == 10 * 9


def test_caveman_validates_lengths():
    with pytest.raises(ValueError):
        gen.caveman([5, 5], [1, 1, 1], 0)


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


# (n, m, sha256 of the edge array's bytes) of every analogue, recorded before
# graph construction switched to keyed edge dedup and list-substrate
# components. A generator change that moves a single edge shows up here.
GOLDEN_EDGES = {
    "coli": (328, 401, "84d5bffa8c2cc1c8cf348925dadc287b0a4effe7e90b87719b6dfc102e8bdcf6"),
    "cele": (346, 1185, "0ca0f3d742a11588b5f4324c97a6af8708046e6c9fcaf862403b80e0f0028e8e"),
    "jazz": (200, 2051, "26734a3d7ee4e1dc3b7f3fe9b23dd9c53796595b5df9ab3ca76c29d592fe6f97"),
    "FBco": (600, 10081, "5c924589318ff32cd8ac933ecf83b5a26e8cf7a07a740cb34a61579a7688a248"),
    "caHe": (900, 7063, "02cd3de7bc201f1789160b5b432cd9f6933df8d13a60e5993d503886e0ffdf70"),
    "caAs": (1100, 9256, "a75b7161cc0437d423a7d0813bbdbf5cbac3045b23931bae90b8b30e666d6822"),
    "doub": (1500, 2996, "3a3fadb6cf110c69d1cbd81f311c6d3b8f61ca921e5227deb064ef3404ba841c"),
    "amzn": (2000, 4209, "167d478c5c9e84eb75da8d452400ebca251b9c882f8370a27b1eed291598e29d"),
    "rnPA": (1444, 2153, "daa0dd771f476aa30c233c02bf1dc561918d21665c53e791ba25261030a6f631"),
    "rnTX": (2025, 3037, "7aacc36c91be5abe11a7ef8b32e4a5d64d7ceb0301dcd57b950e0c5db34774ed"),
    "sytb": (1200, 2510, "afada2d98b364ed9191a99a8396ee0c64d1adef5f0a07cdb89d410100650c29c"),
    "hyves": (1600, 3349, "b4f5b7c4f47c0f18f936b262576cf499e88ef3cb0a733961945e633c67c9e40f"),
    "lj": (2500, 16410, "c7bb97bc2e38f2e4f54fa4771a885edfb349f23085a336156ae01fd37b7688c2"),
}

# The analogues at or below the list substrate's fill (2m/n² <= 1%).
SPARSE = ["amzn", "coli", "doub", "hyves", "lj", "rnPA", "rnTX", "sytb"]


@pytest.mark.parametrize("name", sorted(DATASETS))
def test_dataset_edges_match_golden_digest(name):
    g = DATASETS[name]()  # a fresh build, not the memoized one
    assert g.edges.dtype == np.int64 and g.edges.flags.c_contiguous
    digest = hashlib.sha256(g.edges.tobytes()).hexdigest()
    assert (g.n, g.m, digest) == GOLDEN_EDGES[name]


def test_sparse_list_names_every_sparse_analogue():
    fill = {name: 2 * load(name).m / load(name).n ** 2 for name in DATASETS}
    assert SPARSE == sorted(name for name, f in fill.items() if f <= LISTS_MAX_FILL)


@pytest.mark.parametrize("name", SPARSE)
def test_sparse_dataset_builds_without_the_dense_matrix(name, monkeypatch):
    """Building a sparse analogue (generators, hub boost, thinning and
    ensure_connected) never reads the n x n matrix."""
    def no_matrix(self):
        raise AssertionError(f"dense matrix read while building {name}")

    monkeypatch.setattr(Graph, "adjacency", property(no_matrix))
    assert DATASETS[name]()._adj is None
