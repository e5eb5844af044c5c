"""Shared helpers for the benchmark harness.

Every benchmark regenerates one table or figure of the paper:

* the timing numbers reported by pytest-benchmark measure how long the
  reproduction takes to run (useful for tracking the simulator's own
  performance), and
* the regenerated rows/series — the actual figure content — are printed to
  stdout and written to ``benchmarks/results/<name>.txt`` so they can be
  compared against the paper and against EXPERIMENTS.md.

The perf benchmarks' reports carry wall-clock timings, which differ on every
run; they go to the git-ignored ``benchmarks/results/perf/`` so running the
suite never dirties the tree.

Run with ``pytest benchmarks/ --benchmark-only`` (add ``-s`` to see the
reports inline).
"""

from __future__ import annotations

import pathlib

import pytest

RESULTS_DIR = pathlib.Path(__file__).parent / "results"
TIMING_RESULTS_DIR = RESULTS_DIR / "perf"


def _writer(directory: pathlib.Path):
    directory.mkdir(parents=True, exist_ok=True)

    def write(name: str, text: str) -> None:
        path = directory / f"{name}.txt"
        path.write_text(text + "\n", encoding="utf-8")
        print(f"\n{'=' * 72}\n{text}\n(saved to {path})")

    return write


@pytest.fixture(scope="session")
def report_writer():
    """Returns a callable that persists a regenerated figure/table report."""
    return _writer(RESULTS_DIR)


@pytest.fixture(scope="session")
def timing_report_writer():
    """Like ``report_writer``, for timing-bearing reports (git-ignored)."""
    return _writer(TIMING_RESULTS_DIR)


@pytest.fixture(scope="session")
def production_results():
    """The shared scaled-down production replay used by Figures 13-16 / Table 1.

    Session-scoped so the five benchmarks that project it do not re-run the
    replay five times.
    """
    from repro.experiments import production

    return production.run(production.ProductionScale())
