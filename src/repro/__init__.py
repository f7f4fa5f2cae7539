"""Reproduction of "Distance-generalized Core Decomposition" (SIGMOD 2019).

Subpackages:
    graphs    — graph substrate (generators, datasets, metrics)
    core      — the paper's algorithms: h-BZ, h-LB, h-LB+UB (+ references)
    pregel    — distributed dataflow layer (h-degree, BSP decomposition)
    clubs     — maximum h-club solvers + Algorithm 7 wrapper
    densest   — distance-h densest subgraph
    coloring  — distance-h coloring
    landmarks — landmark selection for distance oracles
    cocktail  — distance-generalized cocktail party
    tables    — harnesses reproducing evaluation Tables 1–7
"""
__version__ = "0.1.0"
