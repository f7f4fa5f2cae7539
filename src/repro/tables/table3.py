"""Table 3 — runtime and point-to-point distance computations per algorithm.

For each (dataset, h) cell, runs h-BZ, h-LB, and h-LB+UB under NT budgets
and reports runtime (s) and raw visit counts. Mirrors the paper's layout:
nine datasets, h in {2, 3, 4}. When an algorithm NTs at some h, higher h on
the same dataset is skipped (difficulty is monotone in h), as the paper's
NT rows imply.

The "h-LB+UB" row runs the paper's ImproveLB batch (``improve="all"``). The
extra "h-LB+UB+" row, which the paper does not have, is this repo's default
h-LB+UB: ImproveLB skips the vertices higher partitions already assigned.
"""
from __future__ import annotations

from functools import partial

import pandas as pd

from repro.core import h_bz, h_lb, h_lb_ub
from repro.graphs.datasets import load
from repro.tables.common import NT, CellResult, run_with_budget

DATASETS = ["FBco", "caHe", "caAs", "doub", "amzn", "rnPA", "rnTX", "sytb", "hyves"]
H_VALUES = [2, 3, 4]
ALGOS = [("h-BZ", h_bz), ("h-LB", h_lb), ("h-LB+UB", partial(h_lb_ub, improve="all")),
         ("h-LB+UB+", h_lb_ub)]

# Paper Table 3 (runtime s, visits x1e8), dataset -> algo -> h -> (rt, visits).
PAPER_TABLE3 = {
    "FBco": {"h-BZ": {2: (3.72, 0.87), 3: (269.34, 28.91), 4: (380.85, 33.68)},
             "h-LB": {2: (0.17, 0.06), 3: (1.19, 0.16), 4: (1.50, 0.26)},
             "h-LB+UB": {2: (0.24, 0.08), 3: (0.96, 0.13), 4: (1.48, 0.25)}},
    "caHe": {"h-BZ": {2: (158.30, 14.55), 3: (2825.41, 232.88), 4: (14333.30, 1153.18)},
             "h-LB": {2: (0.95, 0.13), 3: (128.16, 10.67), 4: (940.69, 73.70)},
             "h-LB+UB": {2: (1.19, 0.13), 3: (92.68, 18.43), 4: (122.54, 8.65)}},
    "caAs": {"h-BZ": {2: (283.63, 55.95), 3: (16156.80, 2032.47), 4: (72332.70, 6591.63)},
             "h-LB": {2: (5.52, 1.06), 3: (560.20, 75.19), 4: (4835.06, 414.82)},
             "h-LB+UB": {2: (5.17, 0.62), 3: (91.39, 10.54), 4: (372.93, 32.81)}},
    "doub": {"h-BZ": {2: (280.81, 87.45), 3: (None, None), 4: (None, None)},
             "h-LB": {2: (4.30, 1.13), 3: (1864.09, 397.71), 4: (54762.10, 10989.5)},
             "h-LB+UB": {2: (6.76, 1.06), 3: (220.72, 33.96), 4: (3556.72, 636.52)}},
    "amzn": {"h-BZ": {2: (18.33, 3.63), 3: (379.82, 81.36), 4: (6451.33, 1275.23)},
             "h-LB": {2: (2.51, 0.30), 3: (29.27, 4.70), 4: (295.78, 64.11)},
             "h-LB+UB": {2: (12.98, 0.59), 3: (51.92, 4.34), 4: (190.88, 25.97)}},
    "rnPA": {"h-BZ": {2: (4.68, 0.36), 3: (10.60, 1.24), 4: (23.25, 3.48)},
             "h-LB": {2: (3.18, 0.25), 3: (6.75, 0.66), 4: (11.47, 1.64)},
             "h-LB+UB": {2: (36.14, 0.43), 3: (118.94, 1.17), 4: (139.80, 2.27)}},
    "rnTX": {"h-BZ": {2: (5.74, 0.43), 3: (13.26, 1.48), 4: (27.10, 4.09)},
             "h-LB": {2: (4.21, 0.30), 3: (8.44, 0.80), 4: (13.90, 1.95)},
             "h-LB+UB": {2: (56.89, 0.52), 3: (184.29, 1.42), 4: (208.38, 2.71)}},
    "sytb": {"h-BZ": {2: (154185.00, 49035.00), 3: (None, None), 4: (None, None)},
             "h-LB": {2: (102.75, 33.36), 3: (None, None), 4: (None, None)},
             "h-LB+UB": {2: (192.46, 41.84), 3: (3192.07, 2085.06), 4: (9310.85, 7636.61)}},
    "hyves": {"h-BZ": {2: (56065.90, 20493.07), 3: (None, None), 4: (None, None)},
              "h-LB": {2: (113.48, 58.98), 3: (42163.60, 9467.16), 4: (None, None)},
              "h-LB+UB": {2: (440.93, 76.69), 3: (3724.94, 2710.22), 4: (48038.70, 118834.25)}},
}


def run(fast: bool = False, time_budget_s: float = 60.0) -> pd.DataFrame:
    """Run the Table-3 sweep; one output row per (dataset, algorithm)."""
    names = ["rnPA"] if fast else DATASETS
    hs = [2] if fast else H_VALUES
    rows = []
    for name in names:
        g = load(name)
        for algo_name, fn in ALGOS:
            row: dict = {"dataset": name, "algo": algo_name}
            skipped = False
            for h in hs:
                if skipped:
                    cell = CellResult(runtime_s=NT, visits=NT)
                else:
                    cell = run_with_budget(fn, g, h, time_budget_s=time_budget_s)
                    skipped = cell.runtime_s == NT
                row[f"time h={h}"] = cell.runtime_s
                row[f"visits h={h}"] = cell.visits
                # The paper has no h-LB+UB+ row: "-" there, NT where it gave none.
                paper = PAPER_TABLE3[name][algo_name].get(h, (None, None)) \
                    if algo_name in PAPER_TABLE3[name] else ("-", "-")
                row[f"paper time h={h}"] = paper[0] if paper[0] is not None else NT
                row[f"paper visits(x1e8) h={h}"] = (
                    paper[1] if paper[1] is not None else NT
                )
            rows.append(row)
    return pd.DataFrame(rows)
