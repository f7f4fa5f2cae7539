"""Table 2 — maximum core index / number of distinct cores, h = 1..5.

Every h runs h-LB+UB (at h=1 it gives the classic core decomposition,
tested). Cells that exceed the budget are reported NT (the paper's small
datasets all finish).
"""
from __future__ import annotations

import pandas as pd

from repro.core import h_lb_ub
from repro.graphs.datasets import load
from repro.tables.common import NT, run_with_budget

DATASETS = ["coli", "cele", "jazz", "FBco", "caHe", "caAs"]
H_VALUES = [1, 2, 3, 4, 5]

# Paper Table 2: dataset -> {h: (max core index, distinct cores)}.
PAPER_TABLE2 = {
    "coli": {1: (3, 3), 2: (72, 20), 3: (85, 40), 4: (139, 32), 5: (198, 26)},
    "cele": {1: (10, 10), 2: (186, 52), 3: (291, 25), 4: (336, 6), 5: (342, 3)},
    "jazz": {1: (29, 21), 2: (109, 27), 3: (174, 12), 4: (191, 6), 5: (196, 2)},
    "FBco": {1: (115, 96), 2: (1045, 43), 3: (1829, 15), 4: (3228, 10), 5: (3777, 5)},
    "caHe": {1: (238, 65), 2: (654, 589), 3: (2267, 1678), 4: (4392, 2121), 5: (7225, 1237)},
    "caAs": {1: (56, 53), 2: (680, 675), 3: (4305, 3339), 4: (10252, 2757), 5: (14403, 1185)},
}


def run(fast: bool = False, time_budget_s: float = 120.0) -> pd.DataFrame:
    """Build the Table-2 analogue (max core / distinct cores per h)."""
    names = ["coli", "jazz"] if fast else DATASETS
    hs = [1, 2] if fast else H_VALUES
    rows = []
    for name in names:
        g = load(name)
        row: dict = {"dataset": name}
        for h in hs:
            cell = run_with_budget(h_lb_ub, g, h, time_budget_s=time_budget_s)
            if cell.runtime_s == NT:
                row[f"h={h}"] = NT
            else:
                row[f"h={h}"] = f"{cell.core_max} / {cell.distinct_cores}"
            p = PAPER_TABLE2[name].get(h)
            row[f"paper h={h}"] = f"{p[0]} / {p[1]}" if p else ""
        rows.append(row)
    return pd.DataFrame(rows)
