"""The benchmark's graphs: the program's dataset analogues under seeded labels.

``build(name, seed)`` builds dataset ``name`` afresh from its recipe in
``repro.graphs.datasets`` (not the memoized ``datasets.load``, so that set-up
pays for it every time) and renames its vertices by a permutation drawn from
the seed. Seed 0 is the identity, so ``build(name, 0)`` has exactly the edges
of ``datasets.load(name)``; any other seed gives the same graph under other
vertex ids. Each seed thus hands the program different inputs of the same
cost, and a core vector can be mapped back to the dataset's ids and checked
against the digest recorded for it.
"""
from __future__ import annotations

import numpy as np

from repro.graphs.datasets import DATASETS
from repro.graphs.graph import Graph

RECIPES = ("coli", "FBco", "caHe", "amzn", "rnPA", "hyves")


def permutation(n: int, seed: int) -> np.ndarray:
    """``perm[v]`` is the id the dataset's vertex ``v`` gets at ``seed``."""
    if seed == 0:
        return np.arange(n)
    return np.random.default_rng([seed, n]).permutation(n)


def build(name: str, seed: int) -> tuple[Graph, np.ndarray]:
    """The ``name`` dataset relabelled for ``seed``, and its permutation."""
    g = DATASETS[name]()
    perm = permutation(g.n, seed)
    return Graph.from_edges(g.n, perm[g.edges]), perm
