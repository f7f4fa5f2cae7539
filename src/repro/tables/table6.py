"""Table 6 — maximum h-club runtimes: direct solvers vs Algorithm 7 wrapper.

Reports the club size found and the runtimes of the DBC/ITDBC analogues run
directly on the graph vs wrapped by Algorithm 7 (core-restricted, including
the decomposition time, as in the paper).

The whole job runs under one wall-clock budget, ``JOB_BUDGET_S``. Each
call — a cell's h-LB+UB decomposition, then its four solver calls — gets a
``Counter`` whose deadline is an equal share of the time left over the
calls still to run, so a call that finishes early leaves its time to later
ones. NT marks a call that ran out of its share — the analogue of the
paper's NT/OM cells; the club size column then reports the incumbent as a
lower bound.
"""
from __future__ import annotations

import time

import pandas as pd

from repro.clubs import (
    ClubBudgetExceeded,
    max_h_club_dbc,
    max_h_club_itdbc,
    max_h_club_with_cores,
)
from repro.core import BudgetExceeded, Counter, h_lb_ub
from repro.core.kernels import timed_deadline
from repro.graphs.datasets import load
from repro.tables.common import NT

DATASETS = ["FBco", "caHe", "amzn", "rnTX", "rnPA"]
H_VALUES = [2, 3, 4]

# Wall-clock seconds for the whole job, graph loading included: 90% of the
# `timeout 2400` that results/run_all_jobs.sh gives each table job, leaving
# the rest for imports, printing and the last BFS past a deadline (tested).
JOB_BUDGET_S = 2160.0

# Paper Table 6: dataset -> h -> (club size, DBC, ITDBC, A7+DBC, A7+ITDBC);
# "OM" = out of memory (>128 GB), "NT" = >24h.
PAPER_TABLE6 = {
    "FBco": {2: (1046, 23.9, 0.6, 0.18, 0.2),
             3: (1830, 187.7, 55.1, 12.1, 12.4),
             4: (3229, 51.7, 52.7, 36.9, 37.1)},
    "caHe": {2: (512, 2517.1, 485, 165.7, 588.8),
             3: (2268, 6056.9, 20898, 355.9, 355.9),
             4: ("NT", "NT", "NT", "NT", "NT")},
    "amzn": {2: (550, "OM", 642, 2.5, 2.5),
             3: (621, "OM", 677, 29.3, 29.3),
             4: (1397, "OM", 636, 190.9, 190.9)},
    "rnTX": {2: (10, "OM", 16382, 4.2, 4.2),
             3: (15, "OM", 14420, 8.4, 8.4),
             4: (29, "OM", 14601, 13.9, 13.9)},
    "rnPA": {2: (13, "OM", 12238, 3.2, 3.2),
             3: (21, "OM", 59539, 128.3, 6.8),
             4: (29, "OM", 8195.8, 11.5, 11.5)},
}


def run(fast: bool = False) -> pd.DataFrame:
    """Run all four solver configurations per (dataset, h)."""
    names = ["rnPA"] if fast else DATASETS
    hs = [2] if fast else H_VALUES
    job_deadline = timed_deadline(JOB_BUDGET_S)
    calls_left = len(names) * len(hs) * 5  # per cell: h-LB+UB, four solvers

    def next_counter() -> Counter:
        nonlocal calls_left
        share = (job_deadline - time.monotonic()) / calls_left
        calls_left -= 1
        return Counter(deadline=timed_deadline(share))

    rows = []
    for name in names:
        g = load(name)
        for h in hs:
            t0 = time.monotonic()
            try:
                dec = h_lb_ub(g, h, counter=next_counter())
            except BudgetExceeded:
                dec = None
            t_dec = time.monotonic() - t0
            row: dict = {"dataset": name, "h": h,
                         "k*": NT if dec is None else int(dec.core.max())}
            sizes = []
            for label, fn, wrapped in (
                ("DBC", max_h_club_dbc, False),
                ("ITDBC", max_h_club_itdbc, False),
                ("A7+DBC", max_h_club_dbc, True),
                ("A7+ITDBC", max_h_club_itdbc, True),
            ):
                counter = next_counter()
                if wrapped and dec is None:
                    row[label] = NT  # no decomposition to wrap
                    continue
                t0 = time.monotonic()
                try:
                    if wrapped:
                        club = max_h_club_with_cores(
                            g, h, fn, decomposition=dec, counter=counter
                        )
                    else:
                        club = fn(g, h, counter=counter)
                    # The paper includes the decomposition in Alg 7's time.
                    rt = round(time.monotonic() - t0 + (t_dec if wrapped else 0), 2)
                    size = int(club.sum())
                except ClubBudgetExceeded as e:
                    rt, size = NT, int(e.incumbent.sum())
                row[label] = rt
                sizes.append((size, rt))
            exact_sizes = [s for s, rt in sizes if rt != NT]
            row["club size"] = (
                max(exact_sizes) if exact_sizes
                else f">={max(s for s, _ in sizes)}"
            )
            p = PAPER_TABLE6[name].get(h) if name in PAPER_TABLE6 else None
            if p:
                row["paper (size,DBC,ITDBC,A7+DBC,A7+ITDBC)"] = str(p)
            rows.append(row)
    return pd.DataFrame(rows)
