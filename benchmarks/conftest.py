"""Shared helpers for the benchmark harness.

The ablation, kernel-throughput and scenario benches time their sweep
with pytest-benchmark and persist the rendered rows to
``benchmarks/results/<name>.txt``.  (The paper's tables and figures
regenerate through ``python -m repro.experiments <name> --scale paper``;
``tests/test_experiments.py`` holds their shape bands.)

Scale knobs: benches default to *medium* scale so the whole harness
finishes in minutes.  Set ``SIMDC_BENCH_FULL=1`` for the wider sweeps.
"""

import os
from pathlib import Path

import pytest

RESULTS_DIR = Path(__file__).parent / "results"


def full_scale() -> bool:
    """Whether paper-scale parameters were requested."""
    return os.environ.get("SIMDC_BENCH_FULL", "") == "1"


@pytest.fixture()
def persist_result():
    """Write a rendered table to benchmarks/results/ and echo it."""

    def _persist(name: str, text: str) -> None:
        RESULTS_DIR.mkdir(exist_ok=True)
        path = RESULTS_DIR / f"{name}.txt"
        path.write_text(text + "\n", encoding="utf-8")
        print(f"\n{text}\n[saved to {path}]")

    return _persist
