"""Table 5 — effect of the bounds on running time.

Left half: no lower bound (= h-BZ), LB1 (h-LB with LB1), LB2 (standard
h-LB). Right half: h-LB+UB with the h-degree baseline bound vs the real UB, both
with the paper's ImproveLB batch (``improve="all"``). Reports runtime seconds
per cell under NT budgets.
"""
from __future__ import annotations

import pandas as pd

from repro.core import h_bz, h_lb, h_lb_ub
from repro.graphs.datasets import load
from repro.tables.common import run_with_budget

DATASETS = ["caHe", "caAs", "amzn", "rnPA"]
H_VALUES = [2, 3, 4]

VARIANTS = [
    ("no LB", lambda g, h, counter: h_bz(g, h, counter=counter)),
    ("LB1", lambda g, h, counter: h_lb(g, h, counter=counter, lb="lb1")),
    ("LB2", lambda g, h, counter: h_lb(g, h, counter=counter, lb="lb2")),
    ("UB=h-degree", lambda g, h, counter: h_lb_ub(g, h, counter=counter,
                                                  ub_kind="hdegree", improve="all")),
    ("UB", lambda g, h, counter: h_lb_ub(g, h, counter=counter, ub_kind="ub",
                                         improve="all")),
]

# Paper Table 5 (runtime s): dataset -> h -> (noLB, LB1, LB2, hdeg-UB, UB).
PAPER_TABLE5 = {
    "caHe": {2: (158.30, 1.58, 0.95, 1.87, 1.19),
             3: (2825.41, 143.29, 128.16, 23.45, 92.68),
             4: (14333.30, 1229.54, 940.69, 308.91, 122.54)},
    "caAs": {2: (282.63, 6.70, 5.53, 6.39, 5.17),
             3: (16156.80, 590.45, 560.20, 191.25, 91.39),
             4: (72332.70, 5472.47, 4835.06, 1519.4, 372.93)},
    "amzn": {2: (18.33, 3.30, 2.51, 32.99, 12.98),
             3: (379.82, 34.91, 29.27, 89.71, 51.92),
             4: (6451.33, 529.84, 295.78, 404.80, 190.88)},
    "rnPA": {2: (4.68, 3.00, 3.18, 36.64, 36.14),
             3: (10.60, 5.98, 6.75, 124.26, 118.94),
             4: (23.25, 11.97, 11.47, 143.71, 139.80)},
}


def run(fast: bool = False, time_budget_s: float = 60.0) -> pd.DataFrame:
    """Run every bound variant per (dataset, h) and report runtimes."""
    names = ["rnPA"] if fast else DATASETS
    hs = [2] if fast else H_VALUES
    rows = []
    for name in names:
        g = load(name)
        for h in hs:
            row: dict = {"dataset": name, "h": h}
            for label, fn in VARIANTS:
                cell = run_with_budget(fn, g, h, time_budget_s=time_budget_s)
                row[label] = cell.runtime_s
                row[f"{label} visits"] = cell.visits
            p = PAPER_TABLE5[name].get(h) if name in PAPER_TABLE5 else None
            if p:
                row["paper (noLB,LB1,LB2,hdegUB,UB)"] = str(p)
            rows.append(row)
    return pd.DataFrame(rows)
