"""Result record shared by all decomposition algorithms."""
from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np


@dataclass
class CoreResult:
    """Output of a (k,h)-core decomposition run.

    Attributes:
        core: per-vertex core index (int64, length n).
        h: the distance threshold used.
        algo: algorithm name ("h-BZ", "h-LB", "h-LB+UB", ...).
        visits: total point-to-point distance computations (paper's metric).
        bfs_calls: number of h-BFS traversals executed.
        order: vertex removal (peel) order when the algorithm produces a
            single global peeling (h-BZ and h-LB do; h-LB+UB does not).
        extra: algorithm-specific diagnostics (bounds, partition count, ...).
    """

    core: np.ndarray
    h: int
    algo: str
    visits: int = 0
    bfs_calls: int = 0
    order: list[int] | None = None
    extra: dict = field(default_factory=dict)

    @property
    def degeneracy(self) -> int:
        """The h-degeneracy — the largest k with a non-empty (k,h)-core."""
        return int(self.core.max()) if len(self.core) else 0

    def members(self, k: int) -> np.ndarray:
        """Boolean mask of the (k,h)-core (vertices with core index >= k)."""
        return self.core >= k

    def distinct_cores(self) -> int:
        """Number of distinct non-empty cores (Table 2's right number)."""
        return len(np.unique(self.core))
