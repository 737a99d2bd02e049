"""Benchmark: Table IX — bypassing the Cyclone-style SVM detector.

Expected shape: the textbook attacker is detected at a high rate; the agent
trained with the SVM penalty is detected far less often than the textbook
attacker.
"""

import pytest

from benchmarks._common import cell_rows, emit, run_once
from repro.experiments import table9


@pytest.mark.table
def test_table9_svm_bypass(benchmark, bench_scale):
    rows = run_once(benchmark, cell_rows, "table9", bench_scale)
    emit("Table IX", table9.format_results(rows))
    by_attack = {row["attack"]: row for row in rows}
    assert set(by_attack) == {"textbook", "RL baseline", "RL SVM"}
    assert by_attack["textbook"]["detection_rate"] > 0.5
    assert by_attack["textbook"]["svm_validation_accuracy"] > 0.9
    assert (by_attack["RL SVM"]["detection_rate"]
            <= by_attack["textbook"]["detection_rate"])
