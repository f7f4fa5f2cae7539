"""Harnesses reproducing the paper's evaluation tables (one module each).

Each module exposes ``run(fast=False)``, which returns one pandas DataFrame
(Table 7 returns two: its error block and its max-core block). ``fast=True``
shrinks the sweep for smoke tests and benchmarks; jobs run the full sweep and
print the table next to the paper's numbers. No table starts a SparkSession.
"""
