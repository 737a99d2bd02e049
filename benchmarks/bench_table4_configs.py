"""Benchmark: Table IV — attacks across diverse cache/attack configurations.

All 17 configurations are verified with their textbook attack; RL training
runs on a subset at bench scale (every configuration at paper scale).
"""

import pytest

import repro
from benchmarks._common import emit, run_once
from repro.experiments import table4


def _table4_rows(scale, rl_subset):
    """Every config's row; RL trains on ``rl_subset`` (None: the scale's default)."""
    spec = repro.get_experiment("table4")
    cells = spec.cells(scale)
    if rl_subset is not None:
        cells = [{**cell, "rl": cell["config"] in rl_subset} for cell in cells]
    return [spec.run_cell(cell, scale) for cell in cells]


@pytest.mark.table
def test_table4_configs(benchmark, bench_scale):
    rl_subset = (5, 6) if bench_scale.name == "bench" else None
    rows = run_once(benchmark, _table4_rows, bench_scale, rl_subset)
    emit("Table IV", table4.format_results(rows))
    assert len(rows) == 17
    assert all(row["textbook_accuracy"] >= 0.5 for row in rows)
    trained = [row for row in rows if row["rl_trained"]]
    if trained:
        assert all(row["rl_accuracy"] is not None and row["rl_accuracy"] > 0.45
                   for row in trained)
        # At least one of the trained configurations converges to a reliable
        # attack within the bench-scale budget.
        assert max(row["rl_accuracy"] for row in trained) > 0.9
