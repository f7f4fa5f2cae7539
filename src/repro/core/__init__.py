"""The paper's primary contribution: (k,h)-core decomposition algorithms.

Public API:
    h_bz        — Algorithm 1 (distance-generalized Batagelj–Zaveršnik).
    h_lb        — Algorithms 2–3 (lower-bound algorithm).
    h_lb_ub     — Algorithms 4–6 (lower + upper bound, partitioned, top-down).

All three peel with the one bucket-peel engine in ``repro.core.decomp``.
"""
from repro.core.hbz import h_bz
from repro.core.hlb import h_lb
from repro.core.hlbub import h_lb_ub
from repro.core.kernels import BudgetExceeded, Counter
from repro.core.types import CoreResult

__all__ = ["h_bz", "h_lb", "h_lb_ub", "Counter", "BudgetExceeded", "CoreResult"]
