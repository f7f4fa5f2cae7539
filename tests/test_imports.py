"""The algorithm packages load without pandas or Spark.

Only the Spark entry points and the table harnesses need them, and the Spark
entry points import them when called, so a driver-only run stays small.
"""
import os
import subprocess
import sys

DRIVER_PACKAGES = [
    "repro.core", "repro.pregel", "repro.clubs", "repro.landmarks",
    "repro.densest", "repro.coloring", "repro.cocktail",
]


def test_driver_packages_do_not_load_pandas_or_spark():
    code = "\n".join(
        [f"import {m}" for m in DRIVER_PACKAGES]
        + ["import sys",
           "print(sorted(m for m in ('pandas', 'pyspark') if m in sys.modules))"]
    )
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(sys.path))
    out = subprocess.run([sys.executable, "-c", code], env=env,
                         capture_output=True, text=True, check=True)
    assert out.stdout.strip() == "[]"
