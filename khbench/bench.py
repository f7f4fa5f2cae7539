"""Run one workload as a closed loop (one client, cells back to back).

``run(workload, seed, seconds, trace, root)`` returns the result record the
command prints. Untraced runs report the end-to-end metrics; traced runs
alternate untraced and traced passes and report the per-layer metrics.
"""
from __future__ import annotations

import gc
import hashlib
import os
import resource
import statistics
import sys
import time
import traceback
from pathlib import Path

import numpy as np

import calib
import recipes
import sparkenv
from workloads import DIGESTS, PROBES, WORKLOADS, Cell
from repro.core import BudgetExceeded, Counter, h_bz, h_lb, h_lb_ub
import repro.core.bounds as bounds_mod
from repro.pregel import kh_core_bsp

SETUP_REPEATS = 9
CELL_BUDGET_S = 60.0  # a cell slower than this counts as failed, not a hang


def digest(core: np.ndarray) -> str:
    return hashlib.sha256(np.asarray(core, dtype=np.int64).tobytes()).hexdigest()[:16]


# -- set-up ----------------------------------------------------------------

def build_graphs(names: list[str], seed: int) -> tuple[dict, dict, dict]:
    """Generate every named graph for ``seed`` and its adjacency.

    Returns the graphs and their vertex permutations by name, and the set-up
    times. Set-up is repeated and timed, each repeat scaled to the reference
    host speed (see ``calib``).
    """
    gen, adj = [], []
    host = calib.measure()
    for _ in range(SETUP_REPEATS):
        t0 = time.perf_counter()
        built = {name: recipes.build(name, seed) for name in names}
        graphs = {name: g for name, (g, _) in built.items()}
        t1 = time.perf_counter()
        for g in graphs.values():
            g.adjacency
        t2 = time.perf_counter()
        after = calib.measure()
        scale = 2 * calib.REF_S / (host + after)
        host = after
        gen.append((t1 - t0) * scale)
        adj.append((t2 - t1) * scale)
    total = [a + b for a, b in zip(gen, adj)]
    perms = {name: perm for name, (_, perm) in built.items()}
    return graphs, perms, {"setup_s": statistics.median(total),
                    "generate_s": statistics.median(gen),
                    "adjacency_s": statistics.median(adj)}


def warm_spark(spark, g) -> None:
    """Spawn the Python workers of both Spark paths before any timed pass."""
    from repro.pregel.hdegree import h_degrees_spark

    h_degrees_spark(spark, g.adjacency, np.ones(g.n, dtype=bool), 2)
    h_lb_ub(g, 2, spark=spark, parallel="intervals")


# -- one cell --------------------------------------------------------------

def run_cell(cell: Cell, g, spark, counter: Counter):
    """Run one decomposition; returns its CoreResult (an array for ``hdeg``)."""
    sp = spark if cell.spark else None
    if cell.algo == "hbz":
        return h_bz(g, cell.h, counter=counter)
    if cell.algo == "hlb":
        return h_lb(g, cell.h, counter=counter)
    if cell.algo == "hlbub":
        return h_lb_ub(g, cell.h, counter=counter, spark=sp,
                       parallel=cell.spark or "none")
    if cell.algo == "bsp":
        return kh_core_bsp(g, cell.h, spark=sp, counter=counter)
    if cell.algo == "hdeg":
        # Looked up at call time so a traced run sees the wrapped binding.
        return bounds_mod.batch_h_degrees(
            g.adjacency, np.ones(g.n, dtype=bool), cell.h, counter, sp)
    raise ValueError(f"unknown algo {cell.algo!r}")


def timed_cell(cell: Cell, g, spark, tracer=None) -> dict:
    gc.collect()  # the previous cell's garbage is not this cell's cost
    counter = Counter(deadline=time.monotonic() + CELL_BUDGET_S)
    if tracer is not None:
        tracer.open(cell.label, counter, cell=cell)
    t0 = time.perf_counter()
    try:
        out, err = run_cell(cell, g, spark, counter), None
    except BudgetExceeded as e:
        out, err = None, f"budget: {e}"
    except Exception:  # a failed cell is counted, and the run goes on
        out, err = None, traceback.format_exc()
    dt = time.perf_counter() - t0
    rec = {"cell": cell, "raw_s": dt, "out": out, "error": err,
           "visits": counter.visits, "bfs_calls": counter.bfs_calls}
    if tracer is not None:
        rec["root"] = tracer.stack[-1]
        tracer.close()
    return rec


# -- correctness gate ------------------------------------------------------

def gate(records: list[dict], perms: dict[str, np.ndarray]) -> dict[str, str]:
    """Failed cell label -> reason, for one pass.

    Every decomposition of one (graph, h) must return the same core vector
    (Spark paths included), ``LB2 <= core <= UB`` must hold where the bounds
    are reported, the Spark h-degree batch must equal the driver's, and the
    core vector, mapped back to the dataset's vertex ids by ``perms``, must
    match the digest recorded when all algorithms agreed.
    """
    failed: dict[str, str] = {}
    refs: dict[tuple, np.ndarray] = {}
    for r in records:
        c = r["cell"]
        if r["error"]:
            failed[c.label] = r["error"].strip().splitlines()[-1]
            continue
        key = (c.graph, c.h, c.algo == "hdeg")
        value = r["out"] if c.algo == "hdeg" else r["out"].core
        ref = refs.setdefault(key, value)
        if not np.array_equal(value, ref):
            failed[c.label] = "differs from " + ("driver h-degrees" if c.algo == "hdeg"
                                                 else "the other algorithms")
            continue
        if c.algo == "hdeg":
            continue
        ex = r["out"].extra
        lb = ex.get("lb2", ex.get("lb"))
        if lb is not None and np.any(lb > value):
            failed[c.label] = "lower bound above core"
        elif "ub" in ex and np.any(value > ex["ub"]):
            failed[c.label] = "core above upper bound"
        elif DIGESTS.get((c.graph, c.h)) not in (None, digest(value[perms[c.graph]])):
            failed[c.label] = "core digest differs from the recorded one"
    return failed


# -- passes ----------------------------------------------------------------

def passes_until(deadline: float):
    """Yield once per pass: at least once, and never for a pass that would
    mostly run past ``deadline`` (judged by the previous pass)."""
    while True:
        t0 = time.perf_counter()
        yield
        last = time.perf_counter() - t0
        if time.perf_counter() + last / 2 >= deadline:
            return


def run_pass(cells, graphs, spark, tracer=None) -> list[dict]:
    """Run the cells once, each between two runs of the calibration kernel.

    A record's ``seconds`` is its time scaled to the reference host speed by
    the mean of the kernel times just before and just after the cell.
    """
    recs = []
    host = calib.measure()
    for c in cells:
        rec = timed_cell(c, graphs[c.graph], spark, tracer)
        after = calib.measure()
        rec["host_s"] = (host + after) / 2
        rec["seconds"] = rec["raw_s"] * calib.REF_S / rec["host_s"]
        host = after
        recs.append(rec)
    return recs


def first_of_each(recs: list[dict]) -> list[dict]:
    """The first sample of each distinct cell (counts repeat exactly)."""
    seen: dict[Cell, dict] = {}
    for r in recs:
        seen.setdefault(r["cell"], r)
    return list(seen.values())


def cell_medians(passes: list[list[dict]], key: str = "seconds") -> dict[Cell, float]:
    """Median ``key`` of each distinct cell over all its samples in a run."""
    samples: dict[Cell, list[float]] = {}
    for p in passes:
        for r in p:
            samples.setdefault(r["cell"], []).append(r[key])
    return {c: statistics.median(xs) for c, xs in samples.items()}


def end_to_end(passes: list[list[dict]], setup: dict) -> dict:
    med = cell_medians(passes)

    def algo_s(algo: str) -> float:
        return sum(t for c, t in med.items() if c.algo == algo and not c.spark)

    first = first_of_each(passes[0])
    return {
        "setup_s": (setup["setup_s"], "s"),
        "wall_s": (sum(med.values()), "s"),
        "hlb_s": (algo_s("hlb"), "s"),
        "hlbub_s": (algo_s("hlbub"), "s"),
        "hbz_s": (algo_s("hbz"), "s"),
        "visits": (sum(r["visits"] for r in first), "count"),
        "bfs_calls": (sum(r["bfs_calls"] for r in first), "count"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB"),
    }


def run(workload: str, seed: int, seconds: float, trace: bool, root: Path) -> dict:
    cells = WORKLOADS[workload]
    probes = PROBES[workload] if trace else []
    graphs, perms, setup = build_graphs(sorted({c.graph for c in cells + probes}), seed)
    spark = None
    scratch = root / ".khbench_out"
    scratch.mkdir(exist_ok=True)
    try:
        if any(c.spark for c in cells + probes):
            t0 = time.perf_counter()
            spark = sparkenv.start(root, cores(), scratch)
            warm_spark(spark, recipes.build("coli", seed)[0])
            setup["setup_s"] += time.perf_counter() - t0
        if trace:
            import layers

            return layers.traced_run(cells, probes, graphs, perms, spark, seconds,
                                     setup, scratch / f"trace-{workload}-seed{seed}.jsonl")
        passes, failed, n_failed = [], {}, 0
        for _ in passes_until(time.perf_counter() + seconds):
            recs = run_pass(cells, graphs, spark)
            fails = gate(recs, perms)
            failed.update(fails)
            n_failed += len(fails)
            passes.append(recs)
        return report(passes, failed, n_failed, end_to_end(passes, setup))
    finally:
        if spark is not None:
            sparkenv.stop(spark)


def report(passes: list[list[dict]], failed: dict[str, str], n_failed: int,
           metrics: dict) -> dict:
    for label, why in sorted(failed.items()):
        print(f"FAILED {label}: {why}", file=sys.stderr)
    return {
        "correct": not failed,
        "attempted": sum(len(p) for p in passes),
        "failed": n_failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }


def cores() -> int:
    """CPUs this process may run on: the cap for Spark and BLAS threads."""
    return len(os.sched_getaffinity(0))
