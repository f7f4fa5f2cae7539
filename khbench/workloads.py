"""The benchmark's workloads (the cells one pass runs) and the traced probes.

A cell is ``(graph, h, algo, spark)``: ``graph`` names a recipe in
``recipes.py``; ``algo`` is ``hbz``, ``hlb``, ``hlbub``, ``bsp``, or ``hdeg``
(one h-degree batch over all vertices, used by the probes); ``spark`` is
``None`` (driver only) or the Spark path: ``hdegree`` (h-LB+UB with its
h-degree batches fanned out), ``intervals`` (h-LB+UB intervals as Spark
tasks), ``bsp`` (BSP peeling with fanned-out supersteps) or ``fanout`` (the
``hdeg`` batch fanned out).
"""
from __future__ import annotations

from typing import NamedTuple


class Cell(NamedTuple):
    graph: str
    h: int
    algo: str
    spark: str | None = None

    @property
    def label(self) -> str:
        tail = f"[spark-{self.spark}]" if self.spark else ""
        return f"{self.graph}/h{self.h}/{self.algo}{tail}"


# Why each workload exists is stated in BENCHMARK.json and README.md.
WORKLOADS: dict[str, list[Cell]] = {
    "dense-collab": [
        Cell("FBco", 2, "hlb"), Cell("FBco", 2, "hlbub"),
        Cell("caHe", 2, "hlb"), Cell("caHe", 2, "hlbub"),
        Cell("caHe", 2, "hbz"),
    ],
    "sparse-road": [
        Cell("rnPA", 4, "hbz"), Cell("rnPA", 4, "hlb"), Cell("rnPA", 4, "hlbub"),
        Cell("amzn", 2, "hlb"), Cell("amzn", 2, "hlbub"),
        Cell("hyves", 2, "hlb"), Cell("hyves", 2, "hlbub"),
    ],
}

# Neither workload runs Spark in its timed passes: Spark's job latency swings
# too much on a shared host to hold an end-to-end bound. The traced run adds
# these probes instead; they feed only the pregel.* metrics. Each probe set
# fans out one h-degree batch per graph next to the same batch on the driver
# and runs one intervals-mode h-LB+UB. dense-collab adds h-LB+UB with its
# batches fanned out, whose driver twin is the workload's own cell.
# sparse-road adds BSP peeling next to its driver twin; BSP runs one Spark
# job per superstep, so it uses the small coli recipe.
PROBES: dict[str, list[Cell]] = {
    "dense-collab": [Cell("FBco", 2, "hdeg", "fanout"), Cell("FBco", 2, "hdeg"),
                     Cell("caHe", 2, "hdeg", "fanout"), Cell("caHe", 2, "hdeg"),
                     Cell("caHe", 2, "hlbub", "intervals"),
                     Cell("caHe", 2, "hlbub", "hdegree")],
    "sparse-road": [Cell("rnPA", 4, "hdeg", "fanout"), Cell("rnPA", 4, "hdeg"),
                    Cell("amzn", 2, "hdeg", "fanout"), Cell("amzn", 2, "hdeg"),
                    Cell("amzn", 2, "hlbub", "intervals"),
                    Cell("coli", 2, "bsp", "bsp"), Cell("coli", 2, "bsp")],
}

# sha256 (first 16 hex digits) of the int64 core vector of each (graph, h)
# in the dataset's own vertex ids, recorded when every algorithm and path
# agreed on it. Every seed's answers are mapped back to those ids and checked.
DIGESTS: dict[tuple[str, int], str] = {
    ("FBco", 2): "574932c808e47af6",
    ("amzn", 2): "deba73bda58da85c",
    ("caHe", 2): "de6dcd45f405dfa8",
    ("coli", 2): "3210157609e7c5aa",
    ("hyves", 2): "1ed888b0f4a2e18d",
    ("rnPA", 4): "376846a37956cce6",
}
