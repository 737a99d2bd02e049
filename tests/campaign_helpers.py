"""Helpers shared by the campaign tests (runs, faults, store, telemetry)."""

from __future__ import annotations

from repro.runs import ExperimentSpec, get_experiment
from repro.store import Catalog, catalog_path


def chaos_spec(*cells: dict) -> ExperimentSpec:
    """A campaign over the training-free ``tests/chaos_driver`` cells."""
    return ExperimentSpec(experiment_id="chaos", driver="chaos_driver",
                          columns=("name", "value"), grid=cells,
                          default_scale="smoke")


def ok_cells(n: int):
    """``n`` chaos cells that succeed, each with a distinct value."""
    return tuple({"mode": "ok", "name": f"c{i}", "offset": i}
                 for i in range(n))


def cell_rows(experiment_id, scale="smoke", seed=0, **params):
    """Every registered cell computed in-process, ``params`` merged in."""
    spec = get_experiment(experiment_id)
    return [spec.run_cell({**cell, **params}, scale, seed=seed)
            for cell in spec.cells(scale)]


def catalog_run(out_dir):
    """The catalogue record of the campaign in ``out_dir`` (the default catalogue)."""
    with Catalog(catalog_path(out_dir.parent)) as catalog:
        return catalog.run_info(out_dir.name)
