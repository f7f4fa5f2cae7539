"""Shared plumbing for the table harnesses: budgets and NT markers.

The paper reports NT when an algorithm does not terminate within 20 hours;
we mark NT when a run passes a wall-clock cap (DESIGN.md §4, substitution
3). The tables set only that cap, so NT follows the host's speed until
ROADMAP item 11 gives a host-independent rule.
"""
from __future__ import annotations

import time
from dataclasses import dataclass

from repro.core import BudgetExceeded, Counter
from repro.core.kernels import timed_deadline

NT = "NT"


@dataclass
class CellResult:
    """One (dataset, h, algorithm) cell of a runtime table."""

    runtime_s: float | str  # seconds, or "NT"
    visits: int | str  # raw visit count, or "NT"
    core_max: int | None = None
    distinct_cores: int | None = None


def run_with_budget(fn, *args, time_budget_s: float, **kwargs) -> CellResult:
    """Run a decomposition algorithm under a wall-clock cap of
    ``time_budget_s`` seconds; past it, the cell is NT.

    ``fn(*args, counter=..., **kwargs)`` must return a CoreResult.
    """
    counter = Counter(deadline=timed_deadline(time_budget_s))
    t0 = time.monotonic()
    try:
        res = fn(*args, counter=counter, **kwargs)
    except BudgetExceeded:
        return CellResult(runtime_s=NT, visits=NT)
    return CellResult(
        runtime_s=round(time.monotonic() - t0, 2),
        visits=res.visits,
        core_max=int(res.core.max()),
        distinct_cores=res.distinct_cores(),
    )
