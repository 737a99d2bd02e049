"""Helpers shared by the benchmark files."""

from __future__ import annotations

import repro


def emit(title: str, text: str) -> None:
    """Print a regenerated table so it appears in the benchmark log (-s)."""
    print(f"\n=== {title} ===")
    print(text)


def run_once(benchmark, function, *args, **kwargs):
    """Run an expensive experiment exactly once under pytest-benchmark timing."""
    return benchmark.pedantic(function, args=args, kwargs=kwargs, rounds=1, iterations=1)


def cell_rows(experiment_id, scale, **params):
    """Every registered cell of an experiment run in-process, ``params`` merged in."""
    spec = repro.get_experiment(experiment_id)
    return [spec.run_cell({**cell, **params}, scale) for cell in spec.cells(scale)]
