"""Helpers shared by the campaign tests (runs, faults, experiments)."""

from __future__ import annotations

from repro.runs import get_experiment
from repro.store import Catalog, catalog_path


def cell_rows(experiment_id, scale="smoke", seed=0, **params):
    """Every registered cell computed in-process, ``params`` merged in."""
    spec = get_experiment(experiment_id)
    return [spec.run_cell({**cell, **params}, scale, seed=seed)
            for cell in spec.cells(scale)]


def catalog_run(out_dir):
    """The catalogue record of the campaign in ``out_dir`` (the default catalogue)."""
    with Catalog(catalog_path(out_dir.parent)) as catalog:
        return catalog.run_info(out_dir.name)
