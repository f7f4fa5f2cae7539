"""Table 4 — quality of the bounds.

Left half: lower bounds LB1, LB2; right half: the h-degree baseline upper
bound vs Algorithm 5's UB. Each cell reports
``mean relative error / fraction of vertices where the bound is tight``,
relative error being |bound - core| / core over vertices with core > 0.
UB and LB2 come from the h-LB+UB run that gives the true cores; LB1 and the
h-degree take one h-BFS batch each.
"""
from __future__ import annotations

import numpy as np
import pandas as pd

from repro.core import h_lb_ub
from repro.core.bounds import batch_h_degrees
from repro.core.kernels import substrate
from repro.graphs.datasets import load

DATASETS = ["caHe", "caAs", "amzn", "rnPA"]
H_VALUES = [2, 3, 4]

# Paper Table 4: dataset -> h -> (LB1 err, LB1 tight, LB2 err, LB2 tight,
#                                 hdeg err, hdeg tight, UB err, UB tight).
PAPER_TABLE4 = {
    "caHe": {2: (0.86, 0.039, 0.35, 0.192, 0.44, 0.194, 0.01, 0.536),
             3: (0.95, 0.038, 0.78, 0.044, 0.40, 0.103, 0.01, 0.298),
             4: (0.90, 0.045, 0.42, 0.061, 0.28, 0.073, 0.01, 0.179)},
    "caAs": {2: (0.79, 0.053, 0.18, 0.343, 0.35, 0.279, 0.02, 0.645),
             3: (0.92, 0.051, 0.62, 0.063, 0.32, 0.151, 0.01, 0.572),
             4: (0.87, 0.065, 0.31, 0.095, 0.37, 0.113, 0.01, 0.264)},
    "amzn": {2: (0.69, 0.021, 0.09, 0.565, 0.45, 0.161, 0.01, 0.814),
             3: (0.88, 0.000, 0.47, 0.000, 0.59, 0.090, 0.03, 0.420),
             4: (0.81, 0.001, 0.33, 0.127, 0.63, 0.062, 0.05, 0.287)},
    "rnPA": {2: (0.44, 0.026, 0.24, 0.246, 0.59, 0.203, 0.01, 0.982),
             3: (0.71, 0.001, 0.58, 0.001, 0.66, 0.148, 0.01, 0.903),
             4: (0.51, 0.002, 0.25, 0.072, 0.70, 0.090, 0.01, 0.799)},
}


def _err_tight(bound: np.ndarray, core: np.ndarray) -> tuple[float, float]:
    """(mean relative error, fraction tight) of a bound vs the true core."""
    pos = core > 0
    if not pos.any():
        return 0.0, 1.0
    rel = np.abs(bound[pos] - core[pos]) / core[pos]
    tight = float(np.mean(bound == core))
    return float(rel.mean()), tight


def run(fast: bool = False) -> pd.DataFrame:
    """Compute bound-quality statistics for every (dataset, h)."""
    names = ["rnPA"] if fast else DATASETS
    hs = [2] if fast else H_VALUES
    rows = []
    for name in names:
        g = load(name)
        A = substrate(g)
        for h in hs:
            res = h_lb_ub(g, h)
            core, lb2, ub = res.core, res.extra["lb2"], res.extra["ub"]
            alive = np.ones(g.n, dtype=bool)
            lb1 = batch_h_degrees(A, alive, h // 2)
            hdeg = batch_h_degrees(A, alive, h)
            row: dict = {"dataset": name, "h": h}
            for label, vec in (
                ("LB1", lb1), ("LB2", lb2), ("hdeg", hdeg), ("UB", ub)
            ):
                err, tight = _err_tight(vec, core)
                row[f"{label} err"] = round(err, 3)
                row[f"{label} tight"] = round(tight, 3)
            p = PAPER_TABLE4[name].get(h) if name in PAPER_TABLE4 else None
            if p:
                row["paper LB1 err/tight"] = f"{p[0]} / {p[1]}"
                row["paper LB2 err/tight"] = f"{p[2]} / {p[3]}"
                row["paper hdeg err/tight"] = f"{p[4]} / {p[5]}"
                row["paper UB err/tight"] = f"{p[6]} / {p[7]}"
            rows.append(row)
    return pd.DataFrame(rows)
