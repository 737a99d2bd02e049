"""Benchmark: Table VII — attacking the partition-locked (PL) cache.

Expected shape: the agent still finds an attack with the victim line locked,
but needs at least as much training as against the unprotected baseline.
"""

import pytest

from benchmarks._common import cell_rows, emit, run_once
from repro.experiments import table7


@pytest.mark.table
def test_table7_plcache(benchmark, bench_scale):
    rows = run_once(benchmark, cell_rows, "table7", bench_scale)
    emit("Table VII", table7.format_results(rows))
    by_cache = {row["cache"]: row for row in rows}
    assert set(by_cache) == {"PL Cache", "Baseline"}
    assert by_cache["PL Cache"]["epochs_to_converge"] >= 0.0
    assert by_cache["Baseline"]["accuracy"] >= 0.5
