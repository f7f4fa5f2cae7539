"""Deterministic random-graph generators (NumPy-only, seeded).

These back the synthetic analogues of the paper's 13 real datasets (see
DESIGN.md §4): each model is picked to match the structural *regime* that
drives the paper's findings — density, diameter, hub skew, community
structure — rather than exact statistics.
"""
from __future__ import annotations

import numpy as np

from repro.core.kernels import connected_components, substrate
from repro.graphs.graph import Graph


def erdos_renyi(n: int, p: float, seed: int = 0) -> Graph:
    """G(n, p) — uniform random graph."""
    g = np.random.default_rng(seed)
    us, vs = np.triu_indices(n, k=1)
    keep = g.random(len(us)) < p
    return Graph.from_edges(n, np.stack([us[keep], vs[keep]], axis=1))


def barabasi_albert(n: int, m: int, seed: int = 0) -> Graph:
    """Preferential attachment: each new vertex attaches to m earlier ones.

    Produces hub-skewed, small-diameter graphs (social / youtube regime).
    """
    g = np.random.default_rng(seed)
    edges: list[tuple[int, int]] = []
    # Repeated-endpoint list implements preferential attachment in O(1).
    repeated: list[int] = []
    for v in range(m, n):
        chosen = set()
        while len(chosen) < min(m, v):
            if repeated and g.random() < 0.9:
                chosen.add(repeated[int(g.integers(0, len(repeated)))])
            else:
                chosen.add(int(g.integers(0, v)))
        for u in chosen:
            edges.append((u, v))
            repeated.extend([u, v])
    return Graph.from_edges(n, np.array(edges, dtype=np.int64))


def watts_strogatz(n: int, k: int, p: float, seed: int = 0) -> Graph:
    """Ring lattice with k neighbors per side, rewired with probability p.

    Low p keeps the diameter large (amazon co-purchase regime, diam 44).
    """
    g = np.random.default_rng(seed)
    edges = []
    for v in range(n):
        for j in range(1, k // 2 + 1):
            u = (v + j) % n
            if g.random() < p:
                w = int(g.integers(0, n))
                while w == v:
                    w = int(g.integers(0, n))
                edges.append((v, w))
            else:
                edges.append((v, u))
    return Graph.from_edges(n, np.array(edges, dtype=np.int64))


def grid2d(rows: int, cols: int, extra_p: float = 0.0, seed: int = 0) -> Graph:
    """Road-network analogue: 2-D lattice, optionally with sparse diagonals.

    Average degree ~2.8–3, huge diameter — the roadNet-PA/TX regime where
    the paper finds h-LB beats h-LB+UB.
    """
    g = np.random.default_rng(seed)
    edges = []
    def vid(r: int, c: int) -> int:
        return r * cols + c
    for r in range(rows):
        for c in range(cols):
            if c + 1 < cols:
                edges.append((vid(r, c), vid(r, c + 1)))
            if r + 1 < rows:
                edges.append((vid(r, c), vid(r + 1, c)))
            if extra_p > 0 and r + 1 < rows and c + 1 < cols and g.random() < extra_p:
                edges.append((vid(r, c), vid(r + 1, c + 1)))
    return Graph.from_edges(rows * cols, np.array(edges, dtype=np.int64))


def caveman(sizes: list[int], p_intras: list[float], n_inter: int,
            seed: int = 0) -> Graph:
    """Dense communities on a ring, joined by sparse inter-community edges.

    Collaboration-band regime (jazz, facebook egonets): high average degree.
    Community c has sizes[c] vertices, each pair joined with probability
    p_intras[c]. Inter-community edges only connect *adjacent* communities,
    so the diameter grows like n_communities/2: the h-neighborhood stays a
    fraction of the graph at h=2..4, as in the paper's datasets. Unequal
    lists (a dense nucleus + sparse periphery) give the deep core hierarchy
    of real ego-network graphs.
    """
    if len(sizes) != len(p_intras):
        raise ValueError("sizes and p_intras must have one entry per community")
    g = np.random.default_rng(seed)
    n_communities = len(sizes)
    bases = np.concatenate([[0], np.cumsum(sizes)])
    n = int(bases[-1])
    edges = []
    for c in range(n_communities):
        base = int(bases[c])
        us, vs = np.triu_indices(sizes[c], k=1)
        keep = g.random(len(us)) < p_intras[c]
        for u, v in zip(us[keep], vs[keep]):
            edges.append((base + int(u), base + int(v)))
    for _ in range(n_inter):
        c = int(g.integers(0, n_communities))
        c2 = (c + 1) % n_communities
        u = int(bases[c]) + int(g.integers(0, sizes[c]))
        v = int(bases[c2]) + int(g.integers(0, sizes[c2]))
        if u != v:
            edges.append((u, v))
    return Graph.from_edges(n, np.array(edges, dtype=np.int64))


def collab_cliques(
    n: int,
    n_papers: int,
    max_authors: int,
    seed: int = 0,
    sigma: float = 20.0,
    center_gamma: float = 1.0,
) -> Graph:
    """Overlapping-cliques collaboration model (ca-HepPh / ca-AstroPh regime).

    Each "paper" picks a random center on a ring of author ids and 2..
    ``max_authors`` authors Gaussian-localized (std ``sigma``) around it,
    forming a clique. Locality keeps the diameter ~ n / (4 sigma), matching
    the paper's collaboration networks where an h-neighborhood at h=2..4 is
    a *fraction* of the graph, not all of it.

    Real collaboration networks also have a dense *nucleus* (a region far
    denser than the periphery) that produces the deep core hierarchy the
    paper's bounds exploit: ``center_gamma > 1`` concentrates paper centers
    toward low author ids (density ~ x^(1/gamma - 1)), reproducing that
    hierarchy.
    """
    g = np.random.default_rng(seed)
    edges = []
    for _ in range(n_papers):
        sz = int(g.integers(2, max_authors + 1))
        center = int(n * g.random() ** center_gamma) % n
        authors = np.unique(
            np.mod(center + np.round(g.normal(0, sigma, sz * 2)).astype(np.int64), n)
        )[: sz]
        for i in range(len(authors)):
            for j in range(i + 1, len(authors)):
                edges.append((int(authors[i]), int(authors[j])))
    return Graph.from_edges(n, np.array(edges, dtype=np.int64))


def hub_boost(g0: Graph, n_hubs: int, fanout: int, seed: int = 0) -> Graph:
    """Attach star edges from the highest-degree vertices to random targets.

    Pushes max degree far above the mean (soc-youtube / hyves regime, where
    max degree is ~10^4 on avg degree ~4).
    """
    g = np.random.default_rng(seed)
    deg = g0.degrees
    hubs = np.argsort(-deg)[:n_hubs]
    extra = []
    for hub in hubs:
        targets = g.choice(g0.n, size=min(fanout, g0.n - 1), replace=False)
        for t in targets:
            if int(t) != int(hub):
                extra.append((int(hub), int(t)))
    all_edges = np.concatenate([g0.edges, np.array(extra, dtype=np.int64)], axis=0)
    return Graph.from_edges(g0.n, all_edges)


def ensure_connected(g0: Graph, seed: int = 0) -> Graph:
    """Link all connected components into one by adding one edge per extra
    component (random endpoint in each), preserving structure otherwise.

    Components are labelled on ``substrate(g0)``, so a sparse graph's n x n
    matrix is never built here."""
    rng = np.random.default_rng(seed)
    comp = connected_components(substrate(g0), np.ones(g0.n, dtype=bool))
    labels = np.unique(comp)
    if len(labels) <= 1:
        return g0
    extra = []
    anchor = int(np.flatnonzero(comp == labels[0])[0])
    for lab in labels[1:]:
        members = np.flatnonzero(comp == lab)
        v = int(members[rng.integers(0, len(members))])
        extra.append((anchor, v))
    all_edges = np.concatenate([g0.edges, np.array(extra, dtype=np.int64)], axis=0)
    return Graph.from_edges(g0.n, all_edges)
