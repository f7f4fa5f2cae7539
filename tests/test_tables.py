"""Table harness smoke tests (fast mode) + budget/NT plumbing."""
import re
from pathlib import Path

import numpy as np
import pandas as pd
import pytest

from repro.core import h_bz
from repro.graphs.generators import erdos_renyi
from repro.tables import table1, table2, table3, table4, table5, table6, table7
from repro.tables.common import NT, run_with_budget


def test_run_with_budget_ok():
    g = erdos_renyi(20, 0.2, seed=0)
    cell = run_with_budget(h_bz, g, 2)
    assert isinstance(cell.runtime_s, float)
    assert cell.visits > 0
    assert cell.core_max is not None and cell.core_max >= 1


def test_run_with_budget_nt():
    g = erdos_renyi(40, 0.3, seed=0)
    cell = run_with_budget(h_bz, g, 3, visit_budget=10)
    assert cell.runtime_s == NT and cell.visits == NT


def test_table1_fast():
    df = table1.run(fast=True)
    assert set(df["dataset"]) == {"coli", "jazz"}
    assert (df["V"] > 0).all()
    assert {"paper_V", "paper_diam"} <= set(df.columns)


def test_table2_fast():
    df = table2.run(fast=True)
    assert "h=1" in df.columns and "h=2" in df.columns
    # h=1 cell format "max / distinct"
    assert all("/" in str(v) for v in df["h=1"])


def test_table3_fast():
    df = table3.run(fast=True)
    assert set(df["algo"]) == {"h-BZ", "h-LB", "h-LB+UB", "h-LB+UB+"}
    vis = df.set_index("algo")["visits h=2"]
    assert vis["h-LB"] <= vis["h-BZ"]  # the bounds must pay off
    # Skipping settled vertices only removes ImproveLB's BFS.
    assert vis["h-LB+UB+"] < vis["h-LB+UB"]
    plus = df.set_index("algo").loc["h-LB+UB+"]
    assert plus["paper time h=2"] == plus["paper visits(x1e8) h=2"] == "-"


def test_table4_fast():
    df = table4.run(fast=True)
    row = df.iloc[0]
    assert row["LB1 err"] >= row["LB2 err"] - 1e-9  # LB2 tighter than LB1
    assert row["UB err"] <= row["hdeg err"] + 1e-9  # UB tighter than h-degree
    assert 0 <= row["UB tight"] <= 1


def test_table5_fast():
    df = table5.run(fast=True)
    row = df.iloc[0]
    for col in ("no LB", "LB1", "LB2", "UB=h-degree", "UB"):
        assert col in df.columns
        assert row[col] == NT or row[col] >= 0


def test_table6_fast():
    df = table6.run(fast=True)
    row = df.iloc[0]
    assert {"DBC", "ITDBC", "A7+DBC", "A7+ITDBC", "club size"} <= set(df.columns)
    assert row["k*"] >= 1


def test_table6_job_budget_fits_the_job_timeout():
    """Table 6 ends by construction inside the timeout its job runs under,
    with a tenth of it left for imports, printing and deadline overshoot."""
    script = Path(__file__).parents[1] / "results" / "run_all_jobs.sh"
    (timeout,) = {int(t) for t in re.findall(r"\btimeout (\d+)", script.read_text())}
    assert 0 < table6.JOB_BUDGET_S <= 0.9 * timeout


def test_table7_fast():
    errs, cores = table7.run(fast=True)
    assert "caHe" in errs.columns
    assert ((errs["caHe"].dropna() >= 0) & (errs["caHe"].dropna() <= 2)).all()
    assert len(cores) >= 2


def test_table7_selects_deterministic_landmarks_once(monkeypatch):
    """Only the "core" selector draws from the seed, so it alone is called
    once per repeat; "cc", "bc" and each "hdeg" run once per dataset."""
    calls = []

    def spy(g, method, ell=20, h=1, **kw):
        calls.append((method, h))
        return np.arange(ell)

    monkeypatch.setattr(table7, "select_landmarks", spy)
    table7.run(fast=True)  # caHe, h in {1, 2}, 2 repeats
    assert calls.count(("bc", 1)) == 1 and calls.count(("cc", 1)) == 1
    assert calls.count(("hdeg", 1)) == calls.count(("hdeg", 2)) == 1
    assert calls.count(("core", 1)) == calls.count(("core", 2)) == 2
