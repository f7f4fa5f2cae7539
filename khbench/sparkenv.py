"""A quiet local SparkSession confined to the checkout, and its clean shutdown."""
from __future__ import annotations

import os
from pathlib import Path


def start(root: Path, cores: int, scratch: Path):
    """Start ``local[cores]`` with the checkout's ``src`` importable in workers.

    Spark's own log lines and progress bars go to stderr at ERROR level only,
    so they never mix with the benchmark's records on stdout. Spark's scratch
    files go under ``scratch`` inside the checkout.
    """
    src = str(root / "src")
    os.environ["PYTHONPATH"] = os.pathsep.join(
        p for p in (src, os.environ.get("PYTHONPATH")) if p)
    local = scratch / "spark-local"
    local.mkdir(parents=True, exist_ok=True)
    os.environ["SPARK_LOCAL_DIRS"] = str(local)
    os.environ["PYSPARK_SUBMIT_ARGS"] = (
        f"--master local[{cores}] --driver-memory 1g "
        f"--conf spark.driver.extraJavaOptions=-Djava.io.tmpdir={local} "
        "pyspark-shell"
    )
    from pyspark.sql import SparkSession

    spark = (
        SparkSession.builder.appName("khbench")
        .config("spark.driver.host", "127.0.0.1")
        .config("spark.ui.enabled", "false")
        .config("spark.ui.showConsoleProgress", "false")
        .config("spark.sql.shuffle.partitions", str(cores))
        .config("spark.sql.execution.arrow.pyspark.enabled", "true")
        .config("spark.sql.warehouse.dir", str(scratch / "spark-warehouse"))
        .getOrCreate()
    )
    spark.sparkContext.setLogLevel("ERROR")
    return spark


def stop(spark) -> None:
    """Stop the session and wait for its JVM to exit."""
    proc = getattr(spark.sparkContext._gateway, "proc", None)
    spark.stop()
    if proc is not None:
        proc.stdin.close()
        proc.wait(timeout=60)
