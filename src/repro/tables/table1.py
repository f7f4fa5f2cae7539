"""Table 1 — characteristics of the datasets used.

Columns: |V|, |E|, average degree, max degree, diameter — for our synthetic
analogues, with the paper's originals alongside, all from
``graphs.metrics.graph_stats``.
"""
from __future__ import annotations

import pandas as pd

from repro.graphs.datasets import DATASETS, PAPER_TABLE1, load
from repro.graphs.metrics import graph_stats

FAST_DATASETS = ["coli", "jazz"]


def run(fast: bool = False) -> pd.DataFrame:
    """Build the Table-1 analogue (ours vs paper)."""
    rows = []
    names = FAST_DATASETS if fast else list(DATASETS)
    for name in names:
        g = load(name)
        s = graph_stats(g)
        pv, pe, pavg, pmax, pdiam = PAPER_TABLE1[name]
        rows.append(
            {
                "dataset": name,
                "V": s.n,
                "E": s.m,
                "avg_deg": round(s.avg_deg, 2),
                "max_deg": s.max_deg,
                "diam": s.diameter,
                "paper_V": pv,
                "paper_E": pe,
                "paper_avg_deg": pavg,
                "paper_max_deg": pmax,
                "paper_diam": pdiam,
            }
        )
    return pd.DataFrame(rows)
