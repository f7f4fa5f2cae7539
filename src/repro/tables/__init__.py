"""Harnesses reproducing the paper's evaluation tables (one module each).

Each module exposes ``run(fast=False) -> pandas.DataFrame``: ``fast=True``
shrinks the sweep for smoke tests and benchmarks; jobs run the full sweep and
print the table next to the paper's numbers. Table 1 alone uses Spark: its
``run(spark=None, fast=False)`` cross-checks the degree statistics through
Spark SQL when given a session, and ``python -m repro.tables 1`` is the only
job that starts one.
"""
