"""Shared plumbing for the table harnesses: budgets and NT markers.

The paper reports NT when an algorithm does not terminate within 20 hours;
we mark NT when a run passes a wall-clock cap or a visit budget (DESIGN.md
§4, substitution 3). The visit budget sits far above every finished cell, so
the wall clock decides every NT and NT follows the host's speed; ROADMAP
item 11 plans a host-independent rule.
"""
from __future__ import annotations

import time
from dataclasses import dataclass

from repro.core import BudgetExceeded, Counter
from repro.core.kernels import timed_deadline

NT = "NT"

# Default per-cell budgets for table jobs (overridable per call).
DEFAULT_TIME_BUDGET_S = 90.0
DEFAULT_VISIT_BUDGET = 2_000_000_000


@dataclass
class CellResult:
    """One (dataset, h, algorithm) cell of a runtime table."""

    runtime_s: float | str  # seconds, or "NT"
    visits: int | str  # raw visit count, or "NT"
    core_max: int | None = None
    distinct_cores: int | None = None


def run_with_budget(
    fn,
    *args,
    time_budget_s: float | None = DEFAULT_TIME_BUDGET_S,
    visit_budget: int | None = DEFAULT_VISIT_BUDGET,
    **kwargs,
) -> CellResult:
    """Run a decomposition algorithm under NT budgets.

    ``fn(*args, counter=..., **kwargs)`` must return a CoreResult.
    """
    counter = Counter(
        visit_budget=visit_budget, deadline=timed_deadline(time_budget_s)
    )
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
