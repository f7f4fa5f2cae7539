"""Distributed layer: the Spark h-degree fan-out and BSP peeling."""
from repro.pregel.hdegree import h_degrees_spark
from repro.pregel.peeling import kh_core_bsp

__all__ = ["h_degrees_spark", "kh_core_bsp"]
