"""The algorithm packages load without pandas or Spark, and the table
harnesses without Spark or DuckDB.

Only the table harnesses need pandas, so a driver-only run stays small.
No table starts Spark, so ``python -m repro.tables N`` never loads it.
"""
import os
import subprocess
import sys

DRIVER_PACKAGES = [
    "repro.core", "repro.pregel", "repro.clubs", "repro.landmarks",
    "repro.densest", "repro.coloring", "repro.cocktail",
]

TABLE_MODULES = (
    ["repro.graphs.metrics"]
    + [f"repro.tables.table{i}" for i in range(1, 8)]
    + ["repro.tables.__main__"]
)


def _loaded_after_import(modules: list[str], watched: tuple[str, ...]) -> str:
    """Import ``modules`` in a fresh interpreter and return which of
    ``watched`` it loaded, as the printed sorted list."""
    code = "\n".join(
        [f"import {m}" for m in modules]
        + ["import sys",
           f"print(sorted(m for m in {watched!r} if m in sys.modules))"]
    )
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(sys.path))
    out = subprocess.run([sys.executable, "-c", code], env=env,
                         capture_output=True, text=True, check=True)
    return out.stdout.strip()


def test_driver_packages_do_not_load_pandas_or_spark():
    assert _loaded_after_import(DRIVER_PACKAGES, ("pandas", "pyspark")) == "[]"


def test_tables_do_not_load_spark_or_duckdb():
    assert _loaded_after_import(TABLE_MODULES, ("pyspark", "duckdb")) == "[]"
