"""Host-speed calibration: a fixed kernel timed next to every cell.

On a shared host the speed a process gets drifts by up to 2x over tens of
seconds (neighbours contend for cores and caches; CPU steal stays near 0),
so raw cell times from different runs compare the host more than the
program. The benchmark therefore times this kernel before and after each
cell and reports cell times scaled to a host on which the kernel takes
``REF_S``: ``seconds * REF_S / kernel_seconds``.

The kernel mirrors the program's dominant cost (NumPy-vectorised 2-bounded
BFS rows over a dense boolean adjacency matrix, driven by a Python loop)
but is its own frozen code on its own fixed graph: it imports nothing from
the program and takes no benchmark seed, so no change to the program and
no workload can move it.
"""
from __future__ import annotations

import time

import numpy as np

# About the kernel's fastest time on a 4-vCPU x86-64 VM (Python 3.11, NumPy 1.26);
# its median there ranged from 40 to 65 ms.
REF_S = 0.040

_N = 1500
_A = np.random.default_rng(20190630).random((_N, _N)) < 3.0 / _N
_A |= _A.T
_ALIVE = np.ones(_N, dtype=bool)


def _kernel() -> int:
    total = 0
    for v in range(0, _N, 3):
        frontier = _A[v] & _ALIVE
        reached = frontier.copy()
        for _ in range(2):
            scan = _A[np.flatnonzero(frontier)] & _ALIVE
            total += int(scan.sum())
            frontier = scan.any(axis=0) & ~reached
            reached |= frontier
    return total


def measure() -> float:
    """Seconds one run of the calibration kernel takes now."""
    t0 = time.perf_counter()
    _kernel()
    return time.perf_counter() - t0


for _ in range(3):  # warm NumPy's code paths and allocator before any timing
    _kernel()
