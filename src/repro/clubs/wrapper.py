"""Algorithm 7 — maximum h-club via (k,h)-core decomposition (paper §5.2).

Theorem 3: every h-club of size k+1 is contained in the (k,h)-core. The
wrapper therefore runs any black-box maximum-h-club solver on the *top core
only*, descending to lower cores until a club larger than the current core
index is found — usually solving on a tiny fraction of the graph.
"""
from __future__ import annotations

from typing import Callable

import numpy as np

from repro.clubs.clubs import ClubBudgetExceeded, star_incumbent
from repro.core import BudgetExceeded, Counter, h_lb_ub
from repro.core.types import CoreResult
from repro.graphs.graph import Graph

BlackBox = Callable[..., np.ndarray]  # (g, h, mask=, incumbent=, counter=) -> mask


def max_h_club_with_cores(
    g: Graph,
    h: int,
    algo: BlackBox,
    decomposition: CoreResult | None = None,
    counter: Counter | None = None,
) -> np.ndarray:
    """Paper Algorithm 7: wrap ``algo`` with top-down core restriction.

    Args:
        algo: exact solver with the max_h_club_dbc / max_h_club_itdbc
            signature; called on progressively lower cores.
        decomposition: precomputed (k,h)-core decomposition (computed with
            h-LB+UB if omitted — its cost is part of the wrapper's runtime,
            as in the paper's Table 6).
        counter: charged with every h-BFS, the decomposition's included;
            when it runs out the wrapper raises :class:`ClubBudgetExceeded`.
    """
    # Seed with the global star incumbent (a valid h-club for h >= 2): the
    # inner exact calls then kernelize against the best known size from the
    # start, exactly as a warm-started IP solver would. They also carry it
    # (or better) on the ClubBudgetExceeded they raise.
    best = star_incumbent(g.adjacency, np.ones(g.n, dtype=bool), h)
    if decomposition is None:
        try:
            decomposition = h_lb_ub(g, h, counter=counter)
        except BudgetExceeded:
            raise ClubBudgetExceeded(best) from None
    core = decomposition.core
    k_cur = int(core.max(initial=0))
    while True:
        mask = core >= k_cur
        if mask.any():
            club = algo(
                g, h, mask=mask, incumbent=best if best.any() else None,
                counter=counter,
            )
            size = int(club.sum())
            if size > int(best.sum()):
                best = club
            if size > k_cur:
                return best  # Theorem 3: no larger club exists anywhere
            k_cur = min(k_cur - 1, size) if size > 0 else k_cur - 1
        else:
            k_cur -= 1
        if k_cur < 0:
            return best
