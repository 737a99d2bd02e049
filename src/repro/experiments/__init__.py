"""Experiment drivers regenerating every table and figure of the paper.

Each module is the driver of one registered experiment: ``run_cell(params,
scale, seed=..., ctx=...)`` computes one table row, and ``format_results(rows)``
prints rows in the paper's layout.  Campaigns run the cells through
``repro.run("<experiment>", scale=...)``, which adds artifacts, resume and the
catalogue.  The :class:`repro.experiments.common.ExperimentScale` controls the
training budget so the same driver powers quick tests, the benchmark harness,
and full paper-scale runs.
"""

from repro.experiments.common import ExperimentScale, SMOKE, BENCH, PAPER

__all__ = ["ExperimentScale", "SMOKE", "BENCH", "PAPER"]
