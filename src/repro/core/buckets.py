"""Bucketing structure: a vector of sets keyed by (bounded) h-degree.

The paper models B as a vector of *lists* rather than the flat array of
Khaouid et al. because a single deletion can move a vertex across many
cells (footnote 2). Python sets give the same O(1) add/remove/move.
"""
from __future__ import annotations


class Buckets:
    """Vector of sets with a reverse index ``where[v]`` (-1 = not present)."""

    def __init__(self, n: int):
        # Degrees are <= n-1 and the peel loop runs k up to n, so n+1 cells
        # cover every reachable index.
        self.cells: list[set[int]] = [set() for _ in range(n + 1)]
        # A list, not an int64 array: every op reads or writes one entry, and
        # NumPy scalar indexing costs several times a list's.
        self.where: list[int] = [-1] * n

    def add(self, v: int, i: int) -> None:
        """Insert ``v`` into cell ``i`` (must not already be present); a
        negative ``i`` means cell 0."""
        if i < 0:
            i = 0
        self.cells[i].add(v)
        self.where[v] = i

    def move(self, v: int, i: int) -> None:
        """Move ``v`` to cell ``i`` (no-op if already there or absent); a
        negative ``i`` means cell 0."""
        if i < 0:
            i = 0
        cur = self.where[v]
        if cur == i or cur < 0:
            return
        self.cells[cur].discard(v)
        self.cells[i].add(v)
        self.where[v] = i

    def pop(self, i: int) -> int:
        """Remove and return an arbitrary vertex from cell ``i``."""
        v = self.cells[i].pop()
        self.where[v] = -1
        return v

    def nonempty(self, i: int) -> bool:
        """True if cell ``i`` holds at least one vertex."""
        return bool(self.cells[i])
