"""Algorithm 7 — maximum h-club via (k,h)-core decomposition (paper §5.2).

Theorem 3: every h-club of size k+1 is contained in the (k,h)-core. The
wrapper therefore runs any black-box maximum-h-club solver on the *top core*
first — usually a tiny fraction of the graph — and on one lower core at most,
the one Theorem 3 names from the size of the club the first call found.
"""
from __future__ import annotations

from typing import Callable

import numpy as np

from repro.clubs.clubs import star_incumbent
from repro.core.kernels import Counter, check_decomposition, check_h, substrate
from repro.core.types import CoreResult
from repro.graphs.graph import Graph

BlackBox = Callable[..., np.ndarray]  # (g, h, mask=, incumbent=, counter=) -> mask


def max_h_club_with_cores(
    g: Graph,
    h: int,
    algo: BlackBox,
    decomposition: CoreResult,
    counter: Counter | None = None,
) -> np.ndarray:
    """Paper Algorithm 7: wrap ``algo`` with top-down core restriction.

    Args:
        algo: exact solver with the max_h_club_dbc / max_h_club_itdbc
            signature; called on the top core, then on at most one lower
            core.
        decomposition: the (k,h)-core decomposition of ``g`` at this h. The
            caller computes it once and, as the paper's Table 6 does, adds
            its cost to the wrapper's runtime.
        counter: charged with every h-BFS of the solver calls; when it runs
            out the solver raises :class:`ClubBudgetExceeded`.
    """
    check_h(h)
    check_decomposition(g, decomposition.core, h, decomposition.h)
    # Seed with the global star incumbent (a valid h-club for h >= 2): the
    # inner exact calls then kernelize against the best known size from the
    # start, exactly as a warm-started IP solver would. They also carry it
    # (or better) on the ClubBudgetExceeded they raise.
    best = star_incumbent(substrate(g), np.ones(g.n, dtype=bool), h)
    core = decomposition.core
    # Theorem 3: a club larger than ``best`` lies in the (|best|,h)-core. If
    # |best| >= k*, that core is inside the k*-core just searched, so
    # ``best`` is optimal; otherwise one search of the |best|-core settles it.
    k = int(core.max(initial=0))
    best = algo(g, h, mask=core >= k, incumbent=best, counter=counter)
    if int(best.sum()) < k:
        best = algo(g, h, mask=core >= int(best.sum()), incumbent=best, counter=counter)
    return best
