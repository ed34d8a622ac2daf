"""Benchmark harness configuration.

What is left here is what no pinned figure covers: the substrate micro
timings and the event-driven Figure 6 cross-check, whose rows are
printed and written to ``benchmarks/results/``.  Every figure runner's
fast rows are pinned in ``results/DIGESTS.txt`` and its shape is
asserted in ``tests/experiments/``.

Set ``TAP_BENCH_SCALE=paper`` to run the paper-scale parameters.
"""

from __future__ import annotations

import os
import pathlib

import pytest

RESULTS_DIR = pathlib.Path(__file__).parent / "results"


def paper_scale() -> bool:
    return os.environ.get("TAP_BENCH_SCALE", "fast").lower() == "paper"


@pytest.fixture(scope="session")
def results_dir() -> pathlib.Path:
    RESULTS_DIR.mkdir(parents=True, exist_ok=True)
    return RESULTS_DIR


@pytest.fixture()
def emit(results_dir, capsys):
    """Print a rendered table and persist it (plus CSV) to results/."""

    def _emit(name: str, table: str, csv: str) -> None:
        (results_dir / f"{name}.txt").write_text(table)
        (results_dir / f"{name}.csv").write_text(csv)
        with capsys.disabled():
            print()
            print(table, end="")

    return _emit
