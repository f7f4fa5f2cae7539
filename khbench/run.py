"""The benchmark's one command.

    python3 khbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a checkout. It builds the workload's graphs from the
seed, runs the workload's decompositions back to back for ``S`` seconds,
checks every answer, and prints one JSON record as its last line of stdout:
the end-to-end metrics with ``--trace 0``, the per-layer metrics with
``--trace 1``. It exits 1 when an answer is wrong and 2 when the checkout
has no program to run. See README.md in this directory.
"""
from __future__ import annotations

import argparse
import json
import os
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=20.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()

    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        print(f"khbench: no program under {ROOT / 'src'}", file=sys.stderr)
        return 2
    # Cap native thread pools at the CPUs this process may use; must be set
    # before NumPy is first imported.
    cpus = str(len(os.sched_getaffinity(0)))
    for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[var] = cpus
    sys.path[:0] = [str(ROOT / "src"), str(HERE)]

    import bench
    from workloads import WORKLOADS

    if args.workload not in WORKLOADS:
        ap.error(f"unknown workload {args.workload!r}; known: {sorted(WORKLOADS)}")
    result = bench.run(args.workload, args.seed, args.seconds, bool(args.trace), ROOT)
    for name, m in result["metrics"].items():
        print(f"{name:28s} {m['value']:>16.6g} {m['unit']}")
    print(f"{'fail_frac':28s} {result['failed'] / result['attempted']:>16.6g} ratio")
    print(json.dumps(result))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
