"""Synthetic analogues of the paper's 13 evaluation datasets (Table 1).

The container is offline, so each public graph is replaced by a seeded
generator tuned to the same structural regime (DESIGN.md §4, substitution 1).
Sizes are scaled down ~4–500x so the full table sweeps run on one machine;
the paper's relative findings (which algorithm wins where) depend on the
regime, not the absolute size.

Registry values are zero-argument builders returning a Graph; every graph is
made connected (one bridging edge per stray component) because the paper's
datasets are connected crawls.
"""
from __future__ import annotations

from typing import Callable

from repro.graphs.generators import (
    barabasi_albert,
    caveman,
    collab_cliques,
    ensure_connected,
    erdos_renyi,
    grid2d,
    hub_boost,
    watts_strogatz,
)
from repro.graphs.graph import Graph


def _coli() -> Graph:
    # E. coli metabolic-ish: ~330 vertices, avg deg ~2.8, a few hubs.
    g = barabasi_albert(328, 1, seed=11)
    g = hub_boost(g, n_hubs=2, fanout=40, seed=12)
    return ensure_connected(g, seed=13)


def _cele() -> Graph:
    # C. elegans metabolic: ~350 vertices, avg deg ~8.6, hubby.
    g = barabasi_albert(346, 3, seed=21)
    g = hub_boost(g, n_hubs=3, fanout=60, seed=22)
    return ensure_connected(g, seed=23)


def _jazz() -> Graph:
    # Jazz collaborations: 198 vertices, avg deg ~27, diameter 6.
    g = caveman(n_communities=8, size=25, p_intra=0.82, n_inter=120, seed=31,
                ring=True)
    return ensure_connected(g, seed=32)


def _fbco() -> Graph:
    # facebook-combined: heterogeneous ego-communities on a ring (diam ~8):
    # one dense nucleus + progressively sparser egonets, like the real
    # FBco's 10 ego-nets of wildly varying size/density. Scaled 4039 -> 600.
    g = caveman(
        n_communities=10, size=0, p_intra=0.0, n_inter=400, seed=41, ring=True,
        sizes=[150, 90, 70, 60, 55, 50, 40, 35, 30, 20],
        p_intras=[0.55, 0.35, 0.30, 0.28, 0.25, 0.22, 0.20, 0.18, 0.15, 0.12],
    )
    return ensure_connected(g, seed=42)


def _cahe() -> Graph:
    # ca-HepPh: localized overlapping author cliques with a dense nucleus,
    # avg deg ~20, diam ~13. Scaled 11204 -> 900.
    g = collab_cliques(900, n_papers=1450, max_authors=6, seed=51, sigma=17.0,
                       center_gamma=2.5)
    return ensure_connected(g, seed=52)


def _caas() -> Graph:
    # ca-AstroPh: like caHe, bigger, slightly denser, diam ~14.
    # Scaled 17903 -> 1100.
    g = collab_cliques(1100, n_papers=1900, max_authors=6, seed=61, sigma=19.0,
                       center_gamma=2.5)
    return ensure_connected(g, seed=62)


def _doub() -> Graph:
    # douban: sparse social graph, avg deg ~4.2. Scaled 154908 -> 1500.
    g = barabasi_albert(1500, 2, seed=71)
    return ensure_connected(g, seed=72)


def _amzn() -> Graph:
    # com-amazon: sparse co-purchase, avg deg ~3.4, large diameter, with a
    # few popular-product hubs (real max deg 549 on avg 3.4). Low-rewire
    # ring lattice + hub boost keeps the long-distance structure.
    g = watts_strogatz(2000, 4, 0.02, seed=81)
    g = hub_boost(g, n_hubs=3, fanout=70, seed=83)
    return ensure_connected(g, seed=82)


def _thin(g: Graph, keep: float, seed: int) -> Graph:
    """Drop a fraction of edges (then re-connect) to hit road-net sparsity."""
    import numpy as np

    rng = np.random.default_rng(seed)
    mask = rng.random(g.m) < keep
    return ensure_connected(Graph.from_edges(g.n, g.edges[mask]), seed=seed + 1)


def _rnpa() -> Graph:
    # roadNet-PA: planar lattice thinned to avg deg ~2.9, huge diameter.
    # 1.09M -> 1444.
    g = grid2d(38, 38, extra_p=0.05, seed=91)
    return _thin(g, keep=0.75, seed=92)


def _rntx() -> Graph:
    # roadNet-TX: like rnPA, larger. 1.39M -> 2025.
    g = grid2d(45, 45, extra_p=0.05, seed=101)
    return _thin(g, keep=0.75, seed=102)


def _sytb() -> Graph:
    # soc-youtube: sparse, extreme hub skew (max deg 25409 on avg 3.9).
    g = barabasi_albert(1200, 2, seed=111)
    g = hub_boost(g, n_hubs=2, fanout=60, seed=112)
    return ensure_connected(g, seed=113)


def _hyves() -> Graph:
    # hyves: like sytb, larger. 1.4M -> 1600.
    g = barabasi_albert(1600, 2, seed=121)
    g = hub_boost(g, n_hubs=2, fanout=80, seed=122)
    return ensure_connected(g, seed=123)


def _lj() -> Graph:
    # soc-livejournal: dense community structure at the largest scale we run.
    g = caveman(n_communities=25, size=100, p_intra=0.12, n_inter=1500, seed=131,
                ring=True)
    return ensure_connected(g, seed=132)


DATASETS: dict[str, Callable[[], Graph]] = {
    "coli": _coli,
    "cele": _cele,
    "jazz": _jazz,
    "FBco": _fbco,
    "caHe": _cahe,
    "caAs": _caas,
    "doub": _doub,
    "amzn": _amzn,
    "rnPA": _rnpa,
    "rnTX": _rntx,
    "sytb": _sytb,
    "hyves": _hyves,
    "lj": _lj,
}

# Paper Table 1, for side-by-side reporting by the Table 1 harness and EXPERIMENTS.md.
PAPER_TABLE1: dict[str, tuple[int, int, float, int, int]] = {
    # name: (|V|, |E|, avg deg, max deg, diameter)
    "coli": (328, 456, 2.78, 100, 14),
    "cele": (346, 1493, 8.63, 186, 7),
    "jazz": (198, 2742, 27.70, 100, 6),
    "FBco": (4039, 88234, 43.69, 1045, 8),
    "caHe": (11204, 117619, 19.74, 491, 13),
    "caAs": (17903, 196972, 21.10, 504, 14),
    "doub": (154908, 327162, 4.22, 287, 9),
    "amzn": (334863, 925872, 3.38, 549, 44),
    "rnPA": (1090920, 1541898, 2.83, 9, 786),
    "rnTX": (1393383, 1921660, 2.76, 12, 1054),
    "sytb": (495957, 1936748, 3.91, 25409, 21),
    "hyves": (1402673, 2777419, 3.96, 31883, 10),
    "lj": (4847571, 68993773, 14.23, 14815, 16),
}

_CACHE: dict[str, Graph] = {}


def load(name: str) -> Graph:
    """Build (and memoize) the named dataset analogue."""
    if name not in DATASETS:
        raise KeyError(f"unknown dataset {name!r}; known: {sorted(DATASETS)}")
    if name not in _CACHE:
        _CACHE[name] = DATASETS[name]()
    return _CACHE[name]
