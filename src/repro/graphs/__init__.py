"""Graph substrate: in-memory graphs, generators, datasets, metrics."""
from repro.graphs.graph import Graph

__all__ = ["Graph"]
