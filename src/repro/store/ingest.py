"""Load benchmark trajectories into the catalogue's ``bench`` table.

``repro store ingest --bench`` flattens ``BENCH_throughput.json`` /
``BENCH_train.json`` entries into the ``bench`` table (one row per numeric
metric, tagged with scenario/variant/num_envs/dtype), so ``repro query
--bench`` covers the perf trajectory.  Rows from the same source file are
replaced on re-ingest; live benchmark emissions (``--catalog`` on the bench
scripts) append via :func:`record_bench_entry` instead.
"""

from __future__ import annotations

import json
import os
from pathlib import Path
from typing import Any, Dict, List, Mapping, Optional, Sequence

from repro.store.catalog import Catalog, catalog_path

#: result-row keys that are dimensions, not metrics, in a bench entry.
_BENCH_DIMENSIONS = ("workload", "mode", "num_envs", "dtype", "scenario")


# --------------------------------------------------------------- bench files
def record_bench_entry(catalog: Catalog, entry: Mapping[str, Any],
                       source: str) -> int:
    """Append one benchmark entry's numeric metrics to the bench table."""
    rows = _flatten_bench_entry(entry, source)
    with catalog.conn.transaction():
        catalog.conn.executemany(
            "INSERT INTO bench (benchmark, scenario, variant, num_envs,"
            " dtype, key, value, timestamp, source)"
            " VALUES (?, ?, ?, ?, ?, ?, ?, ?, ?)", rows)
    return len(rows)


def ingest_bench_file(catalog: Catalog, path: Path,
                      source: Optional[str] = None) -> int:
    """(Re-)ingest a BENCH_*.json trajectory file; replaces its old rows."""
    path = Path(path)
    source = source or path.name
    data = json.loads(path.read_text())
    entries = data.get("entries", []) if isinstance(data, dict) else []
    rows: List[tuple] = []
    for entry in entries:
        rows.extend(_flatten_bench_entry(entry, source))
    with catalog.conn.transaction():
        catalog.conn.execute("DELETE FROM bench WHERE source = ?", (source,))
        catalog.conn.executemany(
            "INSERT INTO bench (benchmark, scenario, variant, num_envs,"
            " dtype, key, value, timestamp, source)"
            " VALUES (?, ?, ?, ?, ?, ?, ?, ?, ?)", rows)
    return len(rows)


def _flatten_bench_entry(entry: Mapping[str, Any], source: str) -> List[tuple]:
    """``bench`` rows for one trajectory entry (both BENCH file shapes)."""
    benchmark = str(entry.get("benchmark", "unknown"))
    timestamp = entry.get("timestamp")
    entry_scenario = entry.get("scenario")
    config = entry.get("config", {}) if isinstance(entry.get("config"),
                                                   Mapping) else {}
    entry_num_envs = config.get("num_envs")
    rows: List[tuple] = []

    def add(key: str, value: Any, scenario: Any = None, variant: Any = None,
            num_envs: Any = None, dtype: Any = None) -> None:
        if isinstance(value, bool) or not isinstance(value, (int, float)):
            return
        rows.append((benchmark, scenario or entry_scenario, variant,
                     int(num_envs) if num_envs is not None else None,
                     dtype, key, float(value), timestamp, source))

    for result in entry.get("results", []):
        if not isinstance(result, Mapping):
            continue
        variant = result.get("workload") or result.get("mode")
        num_envs = result.get("num_envs", entry_num_envs)
        for key, value in result.items():
            if key in _BENCH_DIMENSIONS:
                continue
            add(key, value, scenario=result.get("scenario"), variant=variant,
                num_envs=num_envs, dtype=result.get("dtype"))
    for key, value in entry.items():
        if key in ("results", "config", "speedups"):
            continue
        add(key, value)
    for key, value in (entry.get("speedups") or {}).items():
        add(f"speedups.{key}", value)
    return rows


# ------------------------------------------------------------------ frontend
def ingest(root: os.PathLike = "runs",
           bench_files: Sequence[os.PathLike] = (),
           catalog_file: Optional[os.PathLike] = None) -> Dict[str, Any]:
    """Ingest BENCH files into the catalogue of ``root`` (or ``catalog_file``)."""
    path = (Path(catalog_file) if catalog_file is not None
            else catalog_path(Path(root)))
    with Catalog(path) as catalog:
        bench_rows = sum(ingest_bench_file(catalog, Path(bench))
                         for bench in bench_files)
    return {"bench_rows": bench_rows, "catalog": str(path)}


__all__ = [
    "ingest",
    "ingest_bench_file",
    "record_bench_entry",
]
