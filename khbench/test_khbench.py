"""Self-tests of the benchmark: recipes, span sums and the correctness gate.

    python -m pytest khbench/test_khbench.py -q
"""
from __future__ import annotations

import sys
from pathlib import Path

import numpy as np
import pytest

HERE = Path(__file__).resolve().parent
sys.path[:0] = [str(HERE.parent / "src"), str(HERE)]

import bench  # noqa: E402
import layers  # noqa: E402
import recipes  # noqa: E402
from repro.graphs.datasets import load  # noqa: E402
from spans import SPANS, LEAVES, Tracer  # noqa: E402
from workloads import DIGESTS, Cell  # noqa: E402


@pytest.mark.parametrize("name", recipes.RECIPES)
def test_default_seed_recipe_is_the_dataset(name):
    (g, perm), ref = recipes.build(name, 0), load(name)
    assert g.n == ref.n
    assert np.array_equal(g.edges, ref.edges)
    assert np.array_equal(perm, np.arange(g.n))


def test_other_seed_relabels_the_same_graph():
    (g0, _), (g1, perm) = recipes.build("coli", 0), recipes.build("coli", 1)
    assert g0.n == g1.n and g0.m == g1.m
    assert not np.array_equal(g0.edges, g1.edges)
    assert np.array_equal(g1.adjacency[np.ix_(perm, perm)], g0.adjacency)
    assert np.array_equal(recipes.build("coli", 1)[0].edges, g1.edges)


CELLS = [Cell("coli", 2, "hlb"), Cell("coli", 2, "hlbub"), Cell("coli", 2, "hbz"),
         Cell("coli", 2, "bsp"), Cell("coli", 3, "hlbub")]


def _coli(seed):
    g, perm = recipes.build("coli", seed)
    return {"coli": g}, {"coli": perm}


def _traced_pass(cells, seed=0):
    graphs, _ = _coli(seed)
    plain = bench.run_pass(cells, graphs, None)
    tracer = Tracer()
    tracer.install()
    try:
        traced = bench.run_pass(cells, graphs, None, tracer)
    finally:
        tracer.uninstall()
    layers.attach_subtrees(traced, tracer)
    return plain, traced


def test_span_counts_sum_exactly_to_cell_totals():
    plain, traced = _traced_pass(CELLS)
    assert layers.check_sums([plain], [traced]) == {}
    for r in traced:
        calls, visits, _ = layers.leaf(r["spans"], "kernels")
        assert (calls, visits) == (r["out"].bfs_calls, r["out"].visits)
    assert {s.name for r in traced for s in r["spans"]} >= {
        "bounds.batch_hdeg", "bounds.lower_bounds", "bounds.upper_bound",
        "hlbub.improve_lb", "decomp.hlb", "decomp.hlbub"}


def test_uninstall_restores_every_binding():
    before = [owner.__dict__[attr] for owner, attr, _ in LEAVES + SPANS]
    t = Tracer()
    t.install()
    t.uninstall()
    assert [owner.__dict__[attr] for owner, attr, _ in LEAVES + SPANS] == before


@pytest.mark.parametrize("seed", [0, 7])
def test_gate_passes_agreeing_cells_and_flags_a_corrupted_core(seed):
    _, perms = _coli(seed)
    _, traced = _traced_pass(CELLS[:4], seed)
    assert bench.gate(traced, perms) == {}
    # h-BZ reports no bounds; the agreement and digest checks catch this.
    bad = traced[2]["out"]
    bad.core = bad.core.copy()
    bad.core[0] += 1
    assert set(bench.gate(traced, perms)) == {traced[2]["cell"].label}


@pytest.mark.parametrize("seed", [0, 7])
def test_gate_flags_a_digest_mismatch(seed):
    _, perms = _coli(seed)
    plain, _ = _traced_pass(CELLS[:1], seed)
    assert DIGESTS[("coli", 2)] == bench.digest(plain[0]["out"].core[perms["coli"]])
    # A lone cell has nothing to disagree with, so only the digest catches it.
    plain[0]["out"].core = plain[0]["out"].core[::-1].copy()
    assert set(bench.gate(plain, perms)) == {CELLS[0].label}


def test_gate_counts_an_exceeded_budget_as_a_failure(monkeypatch):
    monkeypatch.setattr(bench, "CELL_BUDGET_S", -1.0)
    graphs, perms = _coli(0)
    recs = bench.run_pass(CELLS[:1], graphs, None)
    assert recs[0]["error"].startswith("budget")
    assert set(bench.gate(recs, perms)) == {CELLS[0].label}
