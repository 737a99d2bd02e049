"""Benchmark: Table VI — attacks against the random replacement policy.

Expected shape: there is no perfectly reliable attack; the step-reward value
trades attack length against accuracy.
"""

import pytest

from benchmarks._common import cell_rows, emit, run_once
from repro.experiments import table6


@pytest.mark.table
def test_table6_random_replacement(benchmark, bench_scale):
    rows = run_once(benchmark, cell_rows, "table6", bench_scale)
    emit("Table VI", table6.format_results(rows))
    assert len(rows) == 3
    assert all(0.0 <= row["end_accuracy"] <= 1.0 for row in rows)
    assert all(row["episode_length"] >= 1.0 for row in rows)
