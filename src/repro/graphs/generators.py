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


def _rng(seed: int) -> np.random.Generator:
    return np.random.default_rng(seed)


def erdos_renyi(n: int, p: float, seed: int = 0) -> Graph:
    """G(n, p) — uniform random graph."""
    g = _rng(seed)
    us, vs = np.triu_indices(n, k=1)
    keep = g.random(len(us)) < p
    return Graph.from_edges(n, np.stack([us[keep], vs[keep]], axis=1))


def barabasi_albert(n: int, m: int, seed: int = 0) -> Graph:
    """Preferential attachment: each new vertex attaches to m earlier ones.

    Produces hub-skewed, small-diameter graphs (social / youtube regime).
    """
    g = _rng(seed)
    edges: list[tuple[int, int]] = []
    # Repeated-endpoint list implements preferential attachment in O(1).
    targets = list(range(m))
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
        targets.append(v)
    return Graph.from_edges(n, np.array(edges, dtype=np.int64))


def watts_strogatz(n: int, k: int, p: float, seed: int = 0) -> Graph:
    """Ring lattice with k neighbors per side, rewired with probability p.

    Low p keeps the diameter large (amazon co-purchase regime, diam 44).
    """
    g = _rng(seed)
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
    g = _rng(seed)
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


def caveman(n_communities: int, size: int, p_intra: float, n_inter: int,
            seed: int = 0, ring: bool = False,
            sizes: list[int] | None = None,
            p_intras: list[float] | None = None) -> Graph:
    """Dense communities with sparse inter-community edges.

    Collaboration-band regime (jazz, facebook egonets): high average degree.
    With ``ring=True`` inter-community edges only connect *adjacent*
    communities, so the diameter grows like n_communities/2 — this keeps the
    h-neighborhood a fraction of the graph at h=2..4 as in the paper's
    datasets, instead of collapsing to diameter ~3. Passing explicit
    ``sizes`` / ``p_intras`` makes communities heterogeneous (a dense
    nucleus + sparse periphery), reproducing the deep core hierarchy of
    real ego-network graphs.
    """
    g = _rng(seed)
    sz = sizes if sizes is not None else [size] * n_communities
    ps = p_intras if p_intras is not None else [p_intra] * n_communities
    if len(sz) != n_communities or len(ps) != n_communities:
        raise ValueError("sizes/p_intras must have n_communities entries")
    bases = np.concatenate([[0], np.cumsum(sz)])
    n = int(bases[-1])
    edges = []
    for c in range(n_communities):
        base = int(bases[c])
        us, vs = np.triu_indices(sz[c], k=1)
        keep = g.random(len(us)) < ps[c]
        for u, v in zip(us[keep], vs[keep]):
            edges.append((base + int(u), base + int(v)))
    for _ in range(n_inter):
        if ring:
            c = int(g.integers(0, n_communities))
            c2 = (c + 1) % n_communities
            u = int(bases[c]) + int(g.integers(0, sz[c]))
            v = int(bases[c2]) + int(g.integers(0, sz[c2]))
        else:
            u = int(g.integers(0, n))
            v = int(g.integers(0, n))
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
    g = _rng(seed)
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
    g = _rng(seed)
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
    rng = _rng(seed)
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
