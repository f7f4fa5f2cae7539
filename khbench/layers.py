"""The traced run: per-layer metrics from spans, checked against the cell totals."""
from __future__ import annotations

import statistics
import sys
import time
from pathlib import Path

import bench
from spans import Tracer
from workloads import Cell


def traced_run(cells: list[Cell], probes: list[Cell], graphs: dict, perms: dict,
               spark, seconds: float, setup: dict, out_path: Path) -> dict:
    """Alternate untraced and traced passes for ``seconds``; report the layers.

    The untraced passes give the base of ``trace.overhead_frac`` and the
    totals that the spans must sum to exactly.
    """
    tracer = Tracer()
    plain: list[list[dict]] = []
    traced: list[list[dict]] = []
    failed: dict[str, str] = {}
    n_failed = 0
    for _ in bench.passes_until(time.perf_counter() + seconds):
        plain.append(bench.run_pass(cells, graphs, spark))
        tracer.install()
        try:
            traced.append(bench.run_pass(cells + probes, graphs, spark, tracer))
        finally:
            tracer.uninstall()
        for recs in (plain[-1], traced[-1]):
            fails = bench.gate(recs, perms)
            failed.update(fails)
            n_failed += len(fails)
    for p in traced:
        attach_subtrees(p, tracer)
    mismatches = check_sums(plain, traced)
    failed.update(mismatches)
    n_failed += len(mismatches)
    tracer.dump(out_path)
    metrics = per_layer(cells, plain, traced, graphs, setup)
    return bench.report(plain + traced, failed, n_failed, metrics)


def attach_subtrees(recs: list[dict], tracer: Tracer) -> None:
    """Give each traced record the spans its cell opened (root first)."""
    for r in recs:
        r["spans"] = []
    spans = tracer.spans
    roots = {r["root"]: r for r in recs}
    owner: dict[int, dict] = {}
    for i in range(min(roots), len(spans)):
        s = spans[i]
        rec = roots.get(i) or owner.get(s.parent)
        if rec is None:
            continue
        owner[i] = rec
        rec["spans"].append(s)


def leaf(spans, name: str) -> list[float]:
    """[calls, visits, seconds] of one leaf layer, summed over ``spans``."""
    tot = [0, 0, 0.0]
    for s in spans:
        for i, x in enumerate(s.leaf.get(name, ())):
            tot[i] += x
    return tot


def check_sums(plain: list[list[dict]], traced: list[list[dict]]) -> dict[str, str]:
    """Spans must account for every BFS: driver kernel calls plus Spark task
    calls equal the cell's Counter, which equals the untraced run's."""
    bad: dict[str, str] = {}
    for p, t in zip(plain, traced):
        for i, r in enumerate(t):
            calls, visits, _ = leaf(r["spans"], "kernels")
            for s in r["spans"]:
                calls += s.attrs.get("task_calls", 0)
                visits += s.attrs.get("task_visits", 0)
            want = (r["bfs_calls"], r["visits"])
            if (calls, visits) != want:
                bad[r["cell"].label] = f"spans count {(calls, visits)}, Counter {want}"
            elif i < len(p) and (p[i]["bfs_calls"], p[i]["visits"]) != want:
                bad[r["cell"].label] = "traced totals differ from untraced"
    for label, why in bad.items():
        print(f"TRACE MISMATCH {label}: {why}", file=sys.stderr)
    return bad


def per_layer(cells: list[Cell], plain, traced, graphs: dict, setup: dict) -> dict:
    n = len(traced)
    work = [r for p in traced for r in bench.first_of_each(p[:len(cells)])]
    every = [r for p in traced for r in bench.first_of_each(p)]
    wspans = [s for r in work for s in r["spans"]]
    aspans = [s for r in every for s in r["spans"]]
    wall = sum(r["raw_s"] for r in work) / n

    def dur(spans, name):
        return sum(s.end - s.start for s in spans if s.name == name) / n

    def tally(spans, name, field):
        return sum(getattr(s, field) for s in spans if s.name == name) // n

    def attr(spans, name, key):
        return sum(s.attrs.get(key, 0) for s in spans if s.name == name) // n

    k_calls, k_visits, k_s = leaf(wspans, "kernels")
    b_ops, _, b_s = leaf(wspans, "buckets")
    k_calls, k_visits, k_s, b_ops, b_s = k_calls // n, k_visits // n, k_s / n, b_ops // n, b_s / n
    vk_in = attr(wspans, "hlbub.improve_lb", "vk_in")
    vk_out = attr(wspans, "hlbub.improve_lb", "vk_out")

    # Driver cells that run the same h-degree batches as a fanned-out cell.
    twins = {c[:3] for c in (r["cell"] for r in every)
             if c.spark in ("hdegree", "bsp", "fanout")}
    driver_twin = [s for r in every if not r["cell"].spark
                   and r["cell"][:3] in twins for s in r["spans"]]
    hdeg_spark = dur(aspans, "pregel.fanout")
    hdeg_driver = dur(driver_twin, "bounds.batch_hdeg")

    def median_sum(passes, key="seconds"):
        return sum(bench.cell_medians([p[:len(cells)] for p in passes], key).values())

    m = {
        "graphs.generate_s": (setup["generate_s"], "s"),
        "graphs.adjacency_s": (setup["adjacency_s"], "s"),
        "graphs.adjacency_bytes": (sum(g.n * g.n for g in graphs.values()), "bytes"),
        "kernels.calls": (k_calls, "count"),
        "kernels.visits": (k_visits, "count"),
        "kernels.self_s": (k_s, "s"),
        "kernels.us_per_bfs": (k_s / k_calls * 1e6, "us"),
        "kernels.ns_per_visit": (k_s / k_visits * 1e9, "ns"),
        "kernels.share": (k_s / wall, "ratio"),
        "buckets.ops": (b_ops, "count"),
        "buckets.self_s": (b_s, "s"),
        "buckets.ns_per_op": (b_s / b_ops * 1e9, "ns"),
    }
    for key, name in (("batch_hdeg", "bounds.batch_hdeg"),
                      ("lower_bounds", "bounds.lower_bounds"),
                      ("upper_bound", "bounds.upper_bound")):
        m[f"bounds.{key}_s"] = (dur(wspans, name), "s")
        m[f"bounds.{key}_visits"] = (tally(wspans, name, "visits"), "count")
    m.update({
        "hlbub.improve_lb_s": (dur(wspans, "hlbub.improve_lb"), "s"),
        "hlbub.improve_lb_visits": (tally(wspans, "hlbub.improve_lb", "visits"), "count"),
        "hlbub.intervals": (sum(len(r["out"].extra["intervals"]) for r in work
                                if r["cell"].algo == "hlbub" and r["out"] is not None) // n,
                            "count"),
        "hlbub.vk_in": (vk_in, "count"),
        "hlbub.vk_out": (vk_out, "count"),
        "hlbub.clean_frac": (1 - vk_out / vk_in, "ratio"),
    })
    for caller in ("hlb", "hlbub"):
        name = f"decomp.{caller}"
        m[f"{name}_self_s"] = (sum(s.self_s for s in wspans if s.name == name) / n, "s")
        m[f"{name}_visits"] = (tally(wspans, name, "visits"), "count")
        m[f"{name}_calls"] = (tally(wspans, name, "calls"), "count")
    m.update({
        "pregel.hdeg_spark_s": (hdeg_spark, "s"),
        "pregel.hdeg_driver_s": (hdeg_driver, "s"),
        "pregel.spark_over_driver": (hdeg_spark / hdeg_driver, "ratio"),
        "pregel.broadcast_bytes": (attr(aspans, "pregel.fanout", "broadcast_bytes")
                                   + attr(aspans, "pregel.intervals", "broadcast_bytes"),
                                   "bytes"),
        "pregel.fanout_calls": (sum(s.name == "pregel.fanout" for s in aspans) // n, "count"),
        "pregel.task_visits": (attr(aspans, "pregel.fanout", "task_visits"), "count"),
        "pregel.bsp_supersteps": (sum(r["out"].extra["supersteps"] for r in every
                                      if r["cell"].spark == "bsp" and r["out"] is not None)
                                  // n, "count"),
        "pregel.intervals_s": (dur(aspans, "pregel.intervals"), "s"),
        "pregel.intervals_tasks": (attr(aspans, "pregel.intervals", "tasks"), "count"),
        "pregel.spark_s": (sum(r["raw_s"] for r in every if r["cell"].spark) / n, "s"),
        "trace.overhead_frac": (median_sum(traced) / median_sum(plain) - 1, "ratio"),
        "host.calib_ms": (1e3 * statistics.median(r["host_s"] for p in plain for r in p), "ms"),
        "host.raw_wall_s": (median_sum(plain, "raw_s"), "s"),
    })
    return m
