"""Tests of the benchmark's own helpers (no training, no server)."""

from __future__ import annotations

import copy
import json
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import benchlib  # noqa: E402


# ------------------------------------------------------- percentile rule
@pytest.mark.parametrize("samples, expected", [
    (0, None), (19, None), (20, 50.0), (99, 50.0), (100, 90.0), (199, 90.0),
    (200, 95.0), (999, 95.0), (1000, 99.0), (10_000, 99.9), (100_000, 99.99),
])
def test_tail_percentile_keeps_ten_samples_beyond(samples, expected):
    assert benchlib.tail_percentile(samples) == expected
    if expected is not None:
        assert samples * (100 - expected) / 100 >= 10 - 1e-9


def test_timing_summary_reports_tail_and_count():
    summary = benchlib.timing_summary([i / 1000 for i in range(1, 101)], scale=1000)
    assert summary["samples"] == 100
    assert summary["tail_percentile"] == 90.0
    assert summary["p50"] == pytest.approx(50.5)
    assert summary["tail"] == pytest.approx(90.1)
    assert benchlib.timing_summary([0.5])["tail"] is None


def test_percentile_matches_linear_interpolation():
    assert benchlib.percentile([4.0, 1.0, 3.0, 2.0], 50) == 2.5
    assert benchlib.percentile([1.0, 2.0], 99) == pytest.approx(1.99)
    with pytest.raises(ValueError):
        benchlib.percentile([], 50)


# --------------------------------------------------------- tracer
class FakeClock:
    def __init__(self, ticks):
        self.ticks = iter(ticks)

    def __call__(self):
        return next(self.ticks)


def test_self_time_subtracts_direct_children():
    # outer 0..10 holds inner 1..4 (which holds leaf 2..3) and inner 5..9.
    tracer = benchlib.Tracer(clock=FakeClock([0, 1, 2, 3, 4, 5, 9, 10]))
    tracer.enter("outer")
    tracer.enter("inner")
    tracer.enter("leaf")
    tracer.exit()
    tracer.exit()
    tracer.enter("inner")
    tracer.exit()
    tracer.exit()
    assert tracer.total("outer") == 10
    assert tracer.self_time("outer") == 10 - 3 - 4
    assert tracer.total("outer/inner") == 7
    assert tracer.self_time("outer/inner") == 7 - 1
    assert tracer.count("outer/inner") == 2
    assert tracer.self_time("outer/inner/leaf") == 1
    assert tracer.durations("outer/inner") == [3, 4]
    assert tracer.total("inner") == 0.0


class Worker:
    def step(self, value):
        return value * 2


def test_wrap_traces_calls_observes_results_and_restores():
    tracer = benchlib.Tracer()
    seen = []
    original = Worker.__dict__["step"]
    tracer.wrap(Worker, "step", "worker.step", observe=seen.append)
    assert Worker().step(3) == 6
    assert seen == [6]
    assert tracer.count("worker.step") == 1
    tracer.restore()
    assert Worker.__dict__["step"] is original
    Worker().step(1)
    assert tracer.count("worker.step") == 1


def test_wrap_keeps_span_stack_balanced_on_error():
    tracer = benchlib.Tracer()

    class Failing:
        def run(self):
            raise KeyError("boom")

    tracer.wrap(Failing, "run", "failing")
    with pytest.raises(KeyError):
        Failing().run()
    tracer.enter("after")
    tracer.exit()
    assert "after" in tracer.paths  # not nested under the failed span
    tracer.restore()


# ------------------------------------------------------ generated inputs
def test_same_seed_gives_same_inputs_and_seeds_differ():
    for make in (lambda s: benchlib.attack_inputs(s, 3),
                 lambda s: benchlib.campaign_inputs(s, 2),
                 lambda s: benchlib.drain_inputs(s, 40)):
        assert make(7) == make(7)
        assert make(7) != make(8)


def test_drain_inputs_sample_distinct_enqueued_seeds():
    inputs = benchlib.drain_inputs(3, 40)
    assert len(set(inputs["campaign_seeds"])) == 40
    assert len(set(inputs["sampled_seeds"])) == 3
    assert set(inputs["sampled_seeds"]) <= set(inputs["campaign_seeds"])


# --------------------------------------------------------- output checks
def test_binomial_cdf_matches_known_values():
    assert benchlib.binomial_cdf(10, 10, 0.3) == pytest.approx(1.0)
    assert benchlib.binomial_cdf(0, 3, 0.5) == pytest.approx(0.125)
    assert benchlib.binomial_cdf(1, 3, 0.5) == pytest.approx(0.5)


def test_check_attack_rejects_unconverged_or_weak_attack():
    good = {"converged": True, "updates": 150, "epochs_to_converge": 102.4}
    assert benchlib.check_attack(good, 200, 200) == []
    # Sampling noise around the 0.95 target passes ...
    assert benchlib.check_attack(good, 188, 200) == []
    # ... an agent that is clearly worse does not.
    assert benchlib.check_attack(good, 178, 200)
    assert benchlib.check_attack(good, 100, 200)
    assert benchlib.check_attack(dict(good, converged=False), 200, 200)
    assert benchlib.check_attack(dict(good, epochs_to_converge=None), 200, 200)


def _matrix_rows():
    rows = []
    for scenario in ("guessing/lru-4way-disjoint", "guessing/plcache-baseline-4way",
                     "guessing/sa-4set-2way"):
        for defense in ("none", "plcache", "keyed-remap", "way-partition", "random-fill"):
            expected = benchlib.PROBE_PREDICATES.get((scenario, defense), 1.0)
            rows.append({"scenario": scenario, "defense": defense,
                         "probe_accuracy": expected})
    return rows


def test_check_campaign_rows_rejects_missing_or_corrupted_rows():
    rows = _matrix_rows()
    assert benchlib.check_campaign_rows(rows) == []
    assert benchlib.check_campaign_rows(rows[:-1] + [None])
    for key in benchlib.PROBE_PREDICATES:
        corrupted = copy.deepcopy(rows)
        for row in corrupted:
            if (row["scenario"], row["defense"]) == key:
                row["probe_accuracy"] = 0.75
        assert benchlib.check_campaign_rows(corrupted), key


def test_check_drain_names_the_campaign_of_a_lost_duplicated_or_corrupted_cell():
    run_ids = {5: "run-a", 6: "run-b"}
    done = {("run-a", 0): 1, ("run-a", 1): 1, ("run-b", 0): 1, ("run-b", 1): 1}
    rows = {5: [{"config": 1, "textbook_accuracy": 1.0}]}
    assert benchlib.check_drain(done, run_ids, 2, rows, rows) == {}
    assert set(benchlib.check_drain(done | {("run-b", 1): 0}, run_ids, 2, rows, rows)) == {"run-b"}
    assert set(benchlib.check_drain(done | {("run-a", 1): 2}, run_ids, 2, rows, rows)) == {"run-a"}
    assert set(benchlib.check_drain(done | {("run-b", 2): 1}, run_ids, 2, rows, rows)) == {"run-b"}
    corrupted = {5: [{"config": 1, "textbook_accuracy": 0.5}]}
    assert set(benchlib.check_drain(done, run_ids, 2, corrupted, rows)) == {"run-a"}


def test_steal_fraction_from_cpu_counters():
    before = [100, 0, 50, 800, 10, 0, 0, 40]
    after = [160, 0, 70, 880, 10, 0, 0, 80]
    assert benchlib.steal_fraction(before, after) == pytest.approx(40 / 200)
    assert benchlib.steal_fraction(None, after) is None


# ------------------------------------------------------------ provenance
def test_provenance_differences_block_comparison():
    root = HERE.parent
    a = benchlib.provenance(root, "drain-http", 1, 30, False)
    assert benchlib.comparable(a, dict(a, seed=2, commit="other"))
    assert not benchlib.comparable(a, dict(a, cpu_count=64))
    assert not benchlib.comparable(a, dict(a, env=dict(a["env"], OPENBLAS_NUM_THREADS="1")))
    json.dumps(a)


def test_run_refuses_a_checkout_without_program_sources(tmp_path):
    bench = tmp_path / "perfbench"
    bench.mkdir()
    for path in HERE.glob("*.py"):
        (bench / path.name).write_text(path.read_text())
    (tmp_path / "BENCHMARK.json").write_text((HERE.parent / "BENCHMARK.json").read_text())
    completed = subprocess.run([sys.executable, str(bench / "run.py"), "--workload", "drain-http",
                                "--seed", "1", "--seconds", "1", "--trace", "0"],
                               cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert completed.returncode != 0
    assert completed.stdout == ""
