"""Table 7 — landmark selection for shortest-path distance estimation.

Selects 20 landmarks per strategy — random from the maximum (k,h)-core for
h in 1..4, top closeness (cc), top betweenness (bc), top h-degree for h in
1..4 — and reports the mean relative error of the midpoint estimator over
sampled vertex pairs (smaller is better), averaged over repeats. Also emits
the bottom block: max core index / size of that core per h.
"""
from __future__ import annotations

import numpy as np
import pandas as pd

from repro.core import h_lb_ub
from repro.core.kernels import distance_matrix
from repro.graphs.datasets import load
from repro.landmarks import estimate_error, select_landmarks

DATASETS = ["FBco", "caHe", "caAs", "doub"]
H_VALUES = [1, 2, 3, 4]
ELL = 20  # landmarks per selection
N_PAIRS = 500  # sampled vertex pairs per error estimate (50 when fast)
REPEATS = 5  # selections averaged per cell (2 when fast)

# Paper Table 7 (top block, approximation error).
PAPER_TABLE7 = {
    "FBco": {"h=1": 0.25, "h=2": 0.16, "h=3": 0.12, "h=4": 0.07,
             "cc": 0.26, "bc": 0.29,
             "deg1": 0.22, "deg2": 0.27, "deg3": 0.28, "deg4": 0.26},
    "caHe": {"h=1": 0.22, "h=2": 0.18, "h=3": 0.17, "h=4": 0.14,
             "cc": 0.24, "bc": 0.21,
             "deg1": 0.23, "deg2": 0.23, "deg3": 0.23, "deg4": 0.23},
    "caAs": {"h=1": 0.18, "h=2": 0.16, "h=3": 0.14, "h=4": 0.14,
             "cc": 0.22, "bc": 0.21,
             "deg1": 0.22, "deg2": 0.22, "deg3": 0.22, "deg4": 0.22},
    "doub": {"h=1": 0.20, "h=2": 0.20, "h=3": 0.17, "h=4": 0.14,
             "cc": 0.20, "bc": 0.26,
             "deg1": 0.26, "deg2": 0.26, "deg3": 0.26, "deg4": 0.26},
}


def run(fast: bool = False) -> tuple[pd.DataFrame, pd.DataFrame]:
    """Returns (error table, max-core table) — the two blocks of Table 7."""
    names = ["caHe"] if fast else DATASETS
    hs = [1, 2] if fast else H_VALUES
    n_pairs, repeats = (50, 2) if fast else (N_PAIRS, REPEATS)
    err_rows: dict[str, dict] = {}
    core_rows = []
    for name in names:
        g = load(name)
        dist = distance_matrix(g.adjacency)
        cores: dict[int, np.ndarray] = {}
        for h in hs:
            cores[h] = h_lb_ub(g, h).core
            core_rows.append(
                {
                    "dataset": name,
                    "h": h,
                    "max core / size": f"{int(cores[h].max())}"
                    f"/{int((cores[h] == cores[h].max()).sum())}",
                }
            )

        def mean_err(method: str, h: int = 1) -> float:
            errs = []
            lm = None
            for rep in range(repeats):
                # Only "core" draws from the seed: every other method picks
                # the same landmarks in each repeat, so it selects them once.
                if lm is None or method == "core":
                    lm = select_landmarks(
                        g, method, ell=ELL, h=h,
                        core=cores.get(h), seed=1000 * rep + h, dist=dist,
                    )
                errs.append(
                    estimate_error(g, lm, n_pairs=n_pairs, seed=rep, dist=dist)
                )
            return round(float(np.mean(errs)), 3)

        col: dict = {}
        for h in hs:
            col[f"h={h}"] = mean_err("core", h)
        col["cc"] = mean_err("cc")
        col["bc"] = mean_err("bc")
        for h in hs:
            col[f"deg{h}"] = mean_err("hdeg", h)
        for key, val in (PAPER_TABLE7.get(name) or {}).items():
            col[f"paper {key}"] = val
        err_rows[name] = col
    err_df = pd.DataFrame(err_rows)  # selectors as rows, datasets as columns
    return err_df, pd.DataFrame(core_rows)
