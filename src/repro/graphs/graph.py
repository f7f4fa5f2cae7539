"""In-memory undirected graph with two cached adjacency representations.

The graphs here have a few hundred to a few thousand vertices (scaled-down
analogues of the paper's datasets, see DESIGN.md §4). The h-bounded BFS
kernel (:mod:`repro.core.kernels`) walks one of two substrates, both built
lazily from the canonical edge array:

- ``adjacency``: a dense ``(n, n)`` boolean matrix. A NumPy row scan costs
  O(n) per frontier vertex whatever its degree, which is cheap on dense
  graphs, and it bit-packs to n²/8 bytes for Spark broadcasts;
- ``adjacency_lists``: sorted neighbour lists, O(n + m) memory, walked in
  pure Python at a cost proportional to degree. On sparse graphs this is
  several times faster than the row scan.

``repro.core.kernels.substrate`` picks between them by density.
"""
from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np


def canonical_edges(edges: np.ndarray, n: int) -> np.ndarray:
    """Normalize an edge array on vertices ``0..n-1`` to unique undirected
    edges ``u < v``.

    Self-loops are dropped; duplicates (in either orientation) are merged.
    Returns an ``(m, 2)`` int64 array sorted lexicographically. Raises
    ``ValueError`` on an endpoint outside ``0..n-1``.

    Each edge is deduplicated as one int64 key ``lo * n + hi``, which sorts in
    the rows' lexicographic order, so one 1-D sort replaces a row-wise
    ``np.unique(..., axis=0)``.
    """
    e = np.asarray(edges, dtype=np.int64).reshape(-1, 2)
    lo = np.minimum(e[:, 0], e[:, 1])
    hi = np.maximum(e[:, 0], e[:, 1])
    keep = lo != hi
    lo, hi = lo[keep], hi[keep]
    if len(hi) and int(hi.max()) >= n:
        raise ValueError(f"edge endpoint {int(hi.max())} out of range for n={n}")
    if len(lo) and int(lo.min()) < 0:
        raise ValueError(f"edge endpoint {int(lo.min())} is negative")
    key = np.unique(lo * n + hi)
    return np.stack(np.divmod(key, n), axis=1)


@dataclass
class Graph:
    """Simple undirected graph on vertices ``0..n-1``.

    Attributes:
        n: number of vertices.
        edges: canonical ``(m, 2)`` array, each row ``u < v``, no duplicates.
    """

    n: int
    edges: np.ndarray
    _adj: np.ndarray | None = field(default=None, repr=False, compare=False)
    _adj_lists: list[list[int]] | None = field(default=None, repr=False, compare=False)

    @classmethod
    def from_edges(cls, n: int, edges: np.ndarray) -> "Graph":
        """Build a graph from any (possibly messy) edge array."""
        return cls(n=n, edges=canonical_edges(edges, n))

    @property
    def m(self) -> int:
        """Number of undirected edges."""
        return len(self.edges)

    @property
    def adjacency(self) -> np.ndarray:
        """Dense symmetric boolean adjacency matrix (cached)."""
        if self._adj is None:
            A = np.zeros((self.n, self.n), dtype=bool)
            if len(self.edges):
                A[self.edges[:, 0], self.edges[:, 1]] = True
                A[self.edges[:, 1], self.edges[:, 0]] = True
            self._adj = A
        return self._adj

    @property
    def adjacency_lists(self) -> list[list[int]]:
        """Sorted neighbour lists (cached), built from ``edges`` without the
        dense matrix."""
        if self._adj_lists is None:
            both = self.both_directions()
            both = both[np.lexsort((both[:, 1], both[:, 0]))]
            cuts = np.searchsorted(both[:, 0], np.arange(self.n + 1)).tolist()
            dst = both[:, 1].tolist()
            self._adj_lists = [dst[a:b] for a, b in zip(cuts, cuts[1:])]
        return self._adj_lists

    @property
    def degrees(self) -> np.ndarray:
        """Vertex degrees as an int64 array."""
        return np.bincount(self.edges.ravel(), minlength=self.n)

    def neighbors(self, v: int) -> np.ndarray:
        """Sorted neighbor ids of ``v``."""
        return np.array(self.adjacency_lists[v], dtype=np.intp)

    def induced(self, mask: np.ndarray) -> tuple["Graph", np.ndarray]:
        """Subgraph induced by the boolean ``mask``.

        Returns ``(subgraph, vertex_ids)`` where ``vertex_ids[i]`` is the
        original id of subgraph vertex ``i``.
        """
        ids = np.flatnonzero(mask)
        remap = np.full(self.n, -1, dtype=np.int64)
        remap[ids] = np.arange(len(ids))
        keep = mask[self.edges[:, 0]] & mask[self.edges[:, 1]]
        sub_edges = remap[self.edges[keep]]
        return Graph.from_edges(len(ids), sub_edges), ids

    def both_directions(self) -> np.ndarray:
        """Edges with both (u, v) and (v, u) rows; `adjacency_lists` sorts them."""
        return np.concatenate([self.edges, self.edges[:, ::-1]], axis=0)


def pack_adjacency(A: np.ndarray) -> bytes:
    """Bit-pack a boolean adjacency matrix for cheap Spark broadcast."""
    return np.packbits(A, axis=1).tobytes()


def unpack_adjacency(buf: bytes, n: int) -> np.ndarray:
    """Inverse of :func:`pack_adjacency`."""
    packed = np.frombuffer(buf, dtype=np.uint8).reshape(n, -1)
    return np.unpackbits(packed, axis=1, count=n).astype(bool)
