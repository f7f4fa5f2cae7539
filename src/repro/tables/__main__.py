"""Regenerate one evaluation table: ``python -m repro.tables N`` (N = 1..7).

Runs ``repro.tables.tableN.run`` over the full sweep and prints the table
with the paper's numbers alongside ours. No table starts a SparkSession.
"""
import argparse
import importlib

import pandas as pd

TITLES = {
    1: "Table 1 - dataset characteristics",
    2: "Table 2 - (k,h)-core characterization",
    3: "Table 3 - efficiency",
    4: "Table 4 - bound quality",
    5: "Table 5 - effect of bounds on runtime",
    6: "Table 6 - maximum h-club",
    7: "Table 7 - landmark approximation error",
}


def emit(title: str, df: pd.DataFrame) -> None:
    """Print one table in full width."""
    with pd.option_context("display.width", 250, "display.max_columns", 100):
        print(f"\n== {title} ==")
        print(df.to_string(index=False))


def main(argv: list[str] | None = None) -> None:
    parser = argparse.ArgumentParser(prog="python -m repro.tables", description=__doc__)
    parser.add_argument("table", type=int, choices=sorted(TITLES))
    n = parser.parse_args(argv).table
    run = importlib.import_module(f"repro.tables.table{n}").run
    out = run()
    if n == 7:
        errors, cores = out
        emit(TITLES[7], errors.reset_index(names="selector"))
        emit("Table 7 (bottom) - max core index / size", cores)
    else:
        emit(TITLES[n], out)


if __name__ == "__main__":
    main()
