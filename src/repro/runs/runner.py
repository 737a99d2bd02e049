"""The campaign runner behind ``repro.run()``.

A *campaign* is one experiment × one scale × one seed, expanded into
independent *cells* (one per table row).  The runner:

* writes a **persistent run artifact** under ``out_dir`` (default
  ``runs/<experiment>-<scale>[-seed<seed>]``)::

      runs/table5-smoke/
        manifest.json                 # spec + scale + seed + cell grid
        results.json                  # all rows, written when complete
        faults/                       # fired fault-injection state (if any)
        cells/
          c00-lru/
            result.json               # the finished row + timing
            error.json                # structured failure record (if failed)
            run0.result.json          # memoized TrainingResult
            run0.history.jsonl        # per-update training metrics
            run0.extraction.json      # extracted attack sequences
            run0.policy.pkl           # trained policy (for re-evaluation)
            run0.checkpoint.pkl       # only while the training is in flight

  Every artifact is written atomically with a SHA-256 sidecar
  (:mod:`repro.runs.artifacts`): a kill mid-write leaves the previous state,
  and a corrupt/truncated file found on load is quarantined to
  ``<name>.corrupt-N`` and its cell transparently re-run from its last good
  checkpoint;

* executes cells **serially or across a pool of worker processes**
  (``workers=N``).  Cells are seeded deterministically and share no state, so
  serial and parallel execution produce identical rows.  Failed cells do not
  abort the campaign: each gets a structured ``error.json`` record, bounded
  in-process retries with deterministic exponential backoff
  (``max_attempts`` / ``retry_backoff``), and — opt-in via ``timeout`` — a
  per-cell wall-clock limit enforced by a watchdog that kills and reclaims
  hung workers.  ``strict=True`` (the default, for CI parity) raises an
  aggregated error afterwards; ``strict=False`` returns partial rows with
  per-cell status instead;

* **resumes**: re-invoking ``repro.run()`` on an existing out_dir skips cells
  whose ``result.json`` exists, re-attempts failed/timed-out cells, and
  in-flight PPO trainings continue from their checkpoints — bit-identical to
  a never-interrupted campaign;

* **injects faults** on request: a :class:`~repro.runs.faults.FaultPlan`
  (``fault_plan=`` argument, ``REPRO_RUN_FAULT_PLAN`` env var, or
  ``--fault-plan`` on the CLI) deterministically kills cells at checkpoint
  boundaries, tears or bit-flips just-written artifacts, and stalls workers
  past the watchdog;

* **records every outcome in the SQLite catalogue** (:mod:`repro.store`),
  the source of ``repro status``: cell status, attempt count and elapsed
  seconds.
"""

from __future__ import annotations

import multiprocessing
import os
import queue as queue_module
import time
import traceback
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Dict, List, Optional

from repro import telemetry
from repro.experiments.common import ExperimentScale, ScaleLike, resolve_scale
from repro.runs.artifacts import (
    CorruptArtifactError,
    atomic_write_json,
    clear_quarantine,
    load_json,
    quarantine,
)
from repro.runs.context import CampaignInterrupted, CellContext
from repro.runs.faults import FaultInjector, FaultPlan, resolve_fault_plan
from repro.runs.registry import ExperimentLike, resolve_experiment
from repro.runs.spec import ExperimentSpec

MANIFEST_FORMAT = "repro-campaign"
MANIFEST_VERSION = 1

#: Cell outcome statuses the runner reports.
CELL_STATUSES = ("completed", "cached", "failed", "timeout", "interrupted")

#: Seconds a terminated worker gets to exit before an uncatchable kill.
_KILL_GRACE_SECONDS = 2.0


@dataclass
class CampaignResult:
    """What ``repro.run()`` returns: the rows plus the artifact locations.

    With ``strict=False`` the campaign may be *partial*: ``rows`` holds None
    at the positions of failed/timed-out cells, and each entry of ``cells``
    carries the cell's ``status`` plus its structured ``error`` record.
    """

    spec: ExperimentSpec
    scale: ExperimentScale
    seed: int
    out_dir: Path
    rows: List[Optional[Dict]]
    cells: List[Dict] = field(default_factory=list)
    workers: int = 1
    strict: bool = True

    @property
    def experiment_id(self) -> str:
        return self.spec.experiment_id

    @property
    def completed(self) -> int:
        return sum(1 for cell in self.cells if cell["status"] in ("completed", "cached"))

    @property
    def resumed(self) -> int:
        """Cells whose finished row was loaded from a previous invocation."""
        return sum(1 for cell in self.cells if cell["status"] == "cached")

    @property
    def failed(self) -> int:
        return sum(1 for cell in self.cells
                   if cell["status"] in ("failed", "timeout", "interrupted"))

    @property
    def partial(self) -> bool:
        return self.completed < len(self.cells)

    @property
    def errors(self) -> List[Dict]:
        """The per-cell error records of every non-completed cell."""
        return [cell for cell in self.cells
                if cell["status"] in ("failed", "timeout", "interrupted")]

    def format_results(self) -> str:
        return self.spec.format_rows(self.rows)

    def to_dict(self) -> Dict[str, Any]:
        return {
            "experiment": self.experiment_id,
            "scale": self.scale.name,
            "seed": self.seed,
            "out_dir": str(self.out_dir),
            "workers": self.workers,
            "strict": self.strict,
            "cells": self.cells,
            "rows": self.rows,
        }


def campaign_id(experiment_id: str, scale: ExperimentScale, seed: int) -> str:
    """Deterministic campaign directory name (no timestamps, so resume finds it)."""
    name = f"{experiment_id}-{scale.name}"
    if seed:
        name += f"-seed{seed}"
    return name


def cell_slug(index: int, params: Dict) -> str:
    """Short stable directory name for one cell."""
    values = "-".join(str(v) for v in params.values() if isinstance(v, (str, int, float)))
    values = "".join(ch if ch.isalnum() or ch in "-._" else "_" for ch in values)
    return f"c{index:02d}" + (f"-{values[:40]}" if values else "")


def _cell_dir(out_dir: Path, index: int, params: Dict) -> Path:
    return out_dir / "cells" / cell_slug(index, params)


def _manifest_payload(spec: ExperimentSpec, scale: ExperimentScale, seed: int,
                      cells: List[Dict]) -> Dict[str, Any]:
    return {
        "format": MANIFEST_FORMAT,
        "version": MANIFEST_VERSION,
        "experiment": spec.to_dict(),
        "scale": scale.to_dict(),
        "seed": seed,
        "cells": [{"index": index, "slug": cell_slug(index, params), "params": params}
                  for index, params in enumerate(cells)],
    }


def _check_manifest(existing: Dict, fresh: Dict, out_dir: Path) -> None:
    """Refuse to resume into a directory holding a *different* campaign."""
    for key in ("experiment", "scale", "seed", "cells"):
        if existing.get(key) != fresh[key]:
            raise ValueError(
                f"{out_dir} already holds a different campaign ({key} differs); "
                "pass a fresh out_dir or delete the old artifact")


# ----------------------------------------------------------- cell execution
def _load_result(result_file: Path) -> Optional[Dict]:
    """The verified result.json payload, or None after quarantining a corrupt file."""
    if not result_file.exists():
        return None
    try:
        payload = load_json(result_file)
    except CorruptArtifactError:
        telemetry.counter("runner.cells.quarantined").inc()
        return None
    if not isinstance(payload, dict) or payload.get("row") is None:
        quarantine(result_file, "result.json without a row")
        telemetry.counter("runner.cells.quarantined").inc()
        return None
    return payload


def _cached_outcome(index: int, result_file: Path) -> Optional[Dict]:
    """The outcome of a cell finished by an earlier invocation, or None."""
    payload = _load_result(result_file)
    if payload is None:
        return None
    return {"index": index, "row": payload["row"], "status": "cached",
            "elapsed_seconds": payload.get("elapsed_seconds")}


def _execute_cell(spec_data: Dict, scale_data: Dict, seed: int, index: int,
                  params: Dict, cell_dir: str, out_dir: str, checkpoint_every: int,
                  fault_plan: Optional[Dict] = None, **_budget: Any) -> Dict:
    """Run one cell to completion (resuming in-flight training if any).

    Takes and returns plain data so it can cross a multiprocessing boundary.
    """
    spec = ExperimentSpec.from_dict(spec_data)
    scale = ExperimentScale.from_dict(scale_data)
    cell_path = Path(cell_dir)
    result_file = cell_path / "result.json"
    cached = _cached_outcome(index, result_file)
    if cached is not None:
        return cached
    cell_path.mkdir(parents=True, exist_ok=True)
    injector = None
    if fault_plan is not None:
        injector = FaultInjector(FaultPlan.from_dict(fault_plan), Path(out_dir), index)
        injector.on_cell_start()
    ctx = CellContext(cell_path, checkpoint_every=checkpoint_every,
                      injector=injector)
    started = time.perf_counter()
    row = spec.run_cell(params, scale, seed=seed, ctx=ctx)
    elapsed = time.perf_counter() - started
    payload = {
        "experiment": spec.experiment_id,
        "scale": scale.name,
        "seed": seed,
        "index": index,
        "params": params,
        "row": row,
        "elapsed_seconds": elapsed,
    }
    atomic_write_json(result_file, payload, indent=2)
    # Round-trip the row through the same JSON path that resume uses, so
    # serial, parallel, and resumed campaigns return identical rows.
    row = load_json(result_file)["row"]
    # The cell recovered: retire its failure record and quarantined corpses
    # (the quarantine.jsonl log keeps the history).
    (cell_path / "error.json").unlink(missing_ok=True)
    (cell_path / "error.json.sha256").unlink(missing_ok=True)
    clear_quarantine(cell_path)
    if injector is not None:
        injector.on_artifact_written("result", result_file)
    return {"index": index, "row": row, "status": "completed",
            "elapsed_seconds": elapsed}


def _error_record(index: int, error: BaseException, attempt: int,
                  elapsed: float, status: str = "failed") -> Dict:
    return {
        "index": index,
        "status": status,
        "error_type": type(error).__name__,
        "error": f"{type(error).__name__}: {error}",
        "traceback": traceback.format_exc(),
        "attempt": attempt,
        "elapsed_seconds": elapsed,
    }


def _prior_attempts(cell_dir: Path) -> int:
    """Cumulative attempt count recorded by previous invocations."""
    error_file = Path(cell_dir) / "error.json"
    if not error_file.exists():
        return 0
    try:
        return int(load_json(error_file).get("attempt", 0))
    except (CorruptArtifactError, TypeError, ValueError):
        return 0


def _attempt_cell(payload: Dict) -> Dict:
    """Run one cell with the bounded retry/backoff budget.

    Returns an outcome dict (never raises for ordinary failures).  Control
    flow — ``KeyboardInterrupt``/``SystemExit`` — is re-raised so Ctrl-C
    tears the campaign down promptly; an (injected or real) kill comes back
    as an ``interrupted`` outcome for the caller to surface.
    """
    index = payload["index"]
    cell_dir = Path(payload["cell_dir"])
    max_attempts = max(1, int(payload.get("max_attempts", 1)))
    backoff = float(payload.get("retry_backoff", 0.0))
    prior = _prior_attempts(cell_dir)
    run_label = Path(payload.get("out_dir", "")).name
    record: Dict = {}
    try:
        for attempt in range(1, max_attempts + 1):
            started = time.perf_counter()
            telemetry.counter("runner.cell.attempts").inc()
            if attempt > 1:
                telemetry.counter("runner.cell.retries").inc()
            try:
                with telemetry.span("runner.cell", run_id=run_label,
                                    cell=index, attempt=prior + attempt):
                    outcome = _execute_cell(**payload)
                telemetry.counter(
                    "runner.cells." + outcome.get("status", "completed")).inc()
                if outcome["status"] == "completed":
                    outcome["attempt"] = prior + attempt
                return outcome
            except (KeyboardInterrupt, SystemExit):
                raise
            except CampaignInterrupted as error:
                # A (simulated) kill: a real crash would persist nothing, so
                # no error.json — the cell's checkpoint is what resume picks
                # up.
                telemetry.counter("runner.cells.interrupted").inc()
                return _error_record(index, error, prior + attempt,
                                     time.perf_counter() - started,
                                     status="interrupted")
            except Exception as error:
                telemetry.counter("runner.cells.failed").inc()
                record = _error_record(index, error, prior + attempt,
                                       time.perf_counter() - started)
                atomic_write_json(cell_dir / "error.json", record, indent=2)
                if attempt < max_attempts:
                    time.sleep(backoff * (2 ** (attempt - 1)))
        return record
    finally:
        # Local runs persist telemetry per cell: with a worker pool each
        # cell runs in its own (short-lived) process, so this is the only
        # point where the child's registry can reach the catalogue.  Queue
        # workers omit catalog_file from their payloads — their drain loop
        # owns a flusher (remote workers must never touch the catalogue).
        catalog_file = payload.get("catalog_file")
        if catalog_file:
            telemetry.flush_to_catalog(Path(catalog_file))


def _cell_worker(payload: Dict) -> Dict:
    """Worker entry point: ordinary errors travel back as data.

    ``KeyboardInterrupt``/``SystemExit`` are deliberately re-raised — turning
    them into a generic "failed" record would swallow Ctrl-C and leave the
    pool draining cells nobody wants anymore.
    """
    try:
        return _attempt_cell(payload)
    except (KeyboardInterrupt, SystemExit):
        raise
    except BaseException as error:  # defensive: _attempt_cell already catches
        return _error_record(payload["index"], error, _prior_attempts(
            Path(payload["cell_dir"])) + 1, 0.0)


def _managed_worker(payload: Dict, outcome_queue) -> None:
    """Child-process entry: ship the outcome back over the queue."""
    try:
        outcome = _cell_worker(payload)
    except (KeyboardInterrupt, SystemExit):
        raise
    outcome_queue.put(outcome)


def _drain_outcomes(outcome_queue, outcomes: Dict[int, Dict],
                    timeout: float, until_index: Optional[int] = None) -> None:
    """Pull every queued outcome; optionally wait up to ``timeout`` for one
    specific index (a worker that just exited)."""
    deadline = time.perf_counter() + timeout
    while True:
        try:
            outcome = outcome_queue.get(
                timeout=max(0.0, deadline - time.perf_counter()))
        except queue_module.Empty:
            return
        outcomes[outcome["index"]] = outcome
        if until_index is not None and outcome["index"] == until_index:
            return


def _run_worker_pool(pending: List[Dict], workers: int,
                     timeout: Optional[float]) -> Dict[int, Dict]:
    """Execute cells across managed worker processes with a watchdog.

    One process per cell (cells are coarse units of work), at most
    ``workers`` alive at a time.  When ``timeout`` is set, a cell running
    past its wall-clock budget is killed, recorded as ``timeout``, and its
    worker slot reclaimed.  Ctrl-C terminates every live worker before
    re-raising.
    """
    ctx = multiprocessing.get_context()
    outcome_queue = ctx.Queue()
    outcomes: Dict[int, Dict] = {}
    waiting = list(pending)
    running: Dict[int, Dict] = {}  # index -> {process, payload, deadline}
    try:
        while waiting or running:
            while waiting and len(running) < workers:
                payload = waiting.pop(0)
                process = ctx.Process(target=_managed_worker,
                                      args=(payload, outcome_queue))
                process.start()
                running[payload["index"]] = {
                    "process": process, "payload": payload,
                    "deadline": (time.perf_counter() + timeout
                                 if timeout is not None else None),
                }
            _drain_outcomes(outcome_queue, outcomes, timeout=0.05)
            now = time.perf_counter()
            for index in list(running):
                entry = running[index]
                process = entry["process"]
                if index in outcomes:
                    process.join()
                    del running[index]
                    continue
                if not process.is_alive():
                    # The worker exited: its outcome (if it posted one) may
                    # still be in flight through the queue's feeder pipe.
                    process.join()
                    _drain_outcomes(outcome_queue, outcomes, timeout=0.2,
                                    until_index=index)
                    if index not in outcomes:
                        outcomes[index] = _worker_death_record(entry)
                    del running[index]
                    continue
                if entry["deadline"] is not None and now > entry["deadline"]:
                    process.terminate()
                    process.join(_KILL_GRACE_SECONDS)
                    if process.is_alive():
                        process.kill()
                        process.join()
                    outcomes[index] = _timeout_record(entry, timeout)
                    del running[index]
    except (KeyboardInterrupt, SystemExit):
        for entry in running.values():
            entry["process"].terminate()
        for entry in running.values():
            entry["process"].join(_KILL_GRACE_SECONDS)
            if entry["process"].is_alive():
                entry["process"].kill()
        raise
    finally:
        outcome_queue.close()
    return outcomes


def _timeout_record(entry: Dict, timeout: Optional[float]) -> Dict:
    """Record a watchdog kill (written by the parent; the child is gone)."""
    payload = entry["payload"]
    record = {
        "index": payload["index"],
        "status": "timeout",
        "error_type": "CellTimeout",
        "error": (f"CellTimeout: cell {payload['index']} exceeded the "
                  f"{timeout:g}s wall-clock budget and was killed"),
        "traceback": "",
        "attempt": _prior_attempts(Path(payload["cell_dir"])) + 1,
        "elapsed_seconds": timeout,
    }
    Path(payload["cell_dir"]).mkdir(parents=True, exist_ok=True)
    atomic_write_json(Path(payload["cell_dir"]) / "error.json", record, indent=2)
    return record


def _worker_death_record(entry: Dict) -> Dict:
    """Record a worker that died without reporting (hard crash / OOM kill)."""
    payload = entry["payload"]
    exitcode = entry["process"].exitcode
    record = {
        "index": payload["index"],
        "status": "failed",
        "error_type": "WorkerDied",
        "error": f"WorkerDied: worker exited with code {exitcode} before reporting",
        "traceback": "",
        "attempt": _prior_attempts(Path(payload["cell_dir"])) + 1,
        "elapsed_seconds": None,
    }
    Path(payload["cell_dir"]).mkdir(parents=True, exist_ok=True)
    atomic_write_json(Path(payload["cell_dir"]) / "error.json", record, indent=2)
    return record


def cell_payloads(spec: ExperimentSpec, scale: ExperimentScale, seed: int,
                  out_dir: Path, cells: List[Dict], checkpoint_every: int = 2,
                  fault_plan: Optional[FaultPlan] = None,
                  max_attempts: int = 1,
                  retry_backoff: float = 0.25,
                  catalog_file: Optional[Path] = None) -> List[Dict]:
    """One plain-data execution payload per cell.

    This is the unit of work both execution backends share: ``repro.run()``
    dispatches payloads to its worker pool, and the campaign service
    (:mod:`repro.store.worker`) enqueues the very same payloads as catalogue
    jobs — which is why a queue drain is bit-identical to a local run.

    ``catalog_file`` is set only by local runs: it tells the (possibly
    child-process) cell where to flush its telemetry.  Queue payloads leave
    it unset — a drain worker's own flusher reports instead, through
    whichever transport the worker is using.
    """
    return [{
        "spec_data": spec.to_dict(),
        "scale_data": scale.to_dict(),
        "seed": seed,
        "index": index,
        "params": params,
        "cell_dir": str(_cell_dir(out_dir, index, params)),
        "out_dir": str(out_dir),
        "checkpoint_every": checkpoint_every,
        "fault_plan": fault_plan.to_dict() if fault_plan is not None else None,
        "max_attempts": max_attempts,
        "retry_backoff": retry_backoff,
        "catalog_file": str(catalog_file) if catalog_file is not None else None,
    } for index, params in enumerate(cells)]


def _record_campaign_in_catalog(catalog_file: Optional[Path], out_dir: Path,
                                spec: ExperimentSpec, scale: ExperimentScale,
                                seed: int, cells: List[Dict],
                                plan: Optional[FaultPlan],
                                outcomes: Dict[int, Dict]) -> None:
    """Mirror a campaign's outcomes into the SQLite catalogue.

    The artifact tree already landed (atomically) by the time this runs; the
    catalogue is the queryable index over it, kept in lock-step by recording
    every run through here and through the queue workers.
    """
    if catalog_file is None:
        return
    from repro.store.catalog import Catalog  # late: repro.store imports us

    with Catalog(catalog_file) as catalog:
        catalog.record_campaign(
            out_dir.name, spec, scale.name, seed, out_dir, cells,
            slugs=[cell_slug(index, params)
                   for index, params in enumerate(cells)],
            fault_plan=plan.to_dict() if plan is not None else None,
            manifest_version=MANIFEST_VERSION)
        for index in sorted(outcomes):
            outcome = outcomes[index]
            # A cached cell carries no attempt: the catalogue keeps the count
            # recorded when the cell actually ran.
            catalog.record_cell(
                out_dir.name, index, cells[index], outcome["status"],
                row=outcome.get("row"), error=outcome.get("error"),
                attempts=outcome.get("attempt"),
                elapsed_seconds=outcome.get("elapsed_seconds"))
    # Drain the parent process's registry too (cached-cell counters, spans
    # of serially executed cells) — child processes flushed their own.
    telemetry.flush_to_catalog(catalog_file)


def resolve_catalog_file(catalog: Any, out_dir: Path) -> Optional[Path]:
    """Where a campaign's catalogue lives.

    ``None`` (the default) puts ``catalog.sqlite`` next to the campaign
    directory — so every campaign under one ``--root`` shares one catalogue;
    ``False`` disables catalogue recording; anything else is an explicit
    path.
    """
    if catalog is False:
        return None
    if catalog is None:
        from repro.store.connection import catalog_path

        return catalog_path(out_dir.parent)
    return Path(catalog)


# -------------------------------------------------------------------- run()
def run(experiment: ExperimentLike, scale: Optional[ScaleLike] = None,
        seed: Optional[int] = None, workers: int = 1,
        out_dir: Optional[os.PathLike] = None, root: os.PathLike = "runs",
        checkpoint_every: int = 2, *,
        strict: bool = True, max_attempts: int = 1, retry_backoff: float = 0.25,
        timeout: Optional[float] = None,
        fault_plan: Any = None, catalog: Any = None) -> CampaignResult:
    """Run (or resume) an experiment campaign and return its rows.

    Parameters
    ----------
    experiment:
        Registered experiment id or an :class:`ExperimentSpec`.
    scale:
        ``"smoke"`` / ``"bench"`` / ``"paper"`` or an
        :class:`~repro.experiments.common.ExperimentScale`; defaults to the
        spec's ``default_scale``.
    seed:
        Campaign seed (defaults to the spec's ``base_seed``); every cell
        derives its training seeds from it.
    workers:
        Number of processes for cell execution.  ``workers=1`` runs in-process
        (unless ``timeout`` is set, which needs killable workers); results are
        row-for-row identical either way.
    out_dir / root:
        Artifact location.  Default: ``<root>/<experiment>-<scale>[-seedN]``.
    checkpoint_every:
        Save a resumable trainer checkpoint every N PPO updates.
    strict:
        True (default): raise after the campaign if any cell failed, timed
        out, or was interrupted — with *every* affected cell aggregated into
        one message.  False: return partial rows (None at failed positions)
        plus structured per-cell error records; a later ``repro.run()`` on
        the same out_dir re-attempts only the non-completed cells.
    max_attempts / retry_backoff:
        Bounded in-process retries per cell with deterministic exponential
        backoff (``retry_backoff * 2**(attempt-1)`` seconds between
        attempts).  Attempt counts accumulate across invocations in the
        cell's ``error.json``.
    timeout:
        Opt-in per-cell wall-clock budget in seconds, enforced by a watchdog
        that kills and reclaims hung worker processes (cells then report
        status ``timeout``).
    fault_plan:
        A :class:`~repro.runs.faults.FaultPlan` (or its dict/JSON/path form)
        of deterministic faults to inject; also settable through the
        ``REPRO_RUN_FAULT_PLAN`` env var.
    catalog:
        Where to mirror the campaign in the SQLite catalogue
        (:mod:`repro.store`): ``None`` (default) uses
        ``<out_dir's parent>/catalog.sqlite``, ``False`` disables
        recording, a path selects an explicit catalogue file.
    """
    spec = resolve_experiment(experiment)
    scale = resolve_scale(scale if scale is not None else spec.default_scale)
    seed = spec.base_seed if seed is None else int(seed)
    plan = resolve_fault_plan(fault_plan)

    out_dir = (Path(out_dir) if out_dir is not None
               else Path(root) / campaign_id(spec.experiment_id, scale, seed))
    out_dir.mkdir(parents=True, exist_ok=True)

    cells = spec.cells(scale)
    manifest = _manifest_payload(spec, scale, seed, cells)
    manifest_file = out_dir / "manifest.json"
    existing_manifest = None
    if manifest_file.exists():
        try:
            existing_manifest = load_json(manifest_file)
        except CorruptArtifactError:
            existing_manifest = None  # quarantined; rewrite below
    if existing_manifest is not None:
        _check_manifest(existing_manifest, manifest, out_dir)
    else:
        atomic_write_json(manifest_file, manifest, indent=2)

    catalog_file = resolve_catalog_file(catalog, out_dir)
    payloads = cell_payloads(spec, scale, seed, out_dir, cells,
                             checkpoint_every=checkpoint_every,
                             fault_plan=plan, max_attempts=max_attempts,
                             retry_backoff=retry_backoff,
                             catalog_file=catalog_file)

    # Cached cells cost one JSON read; only dispatch real work to workers.
    # A corrupt cached result quarantines here and the cell re-runs.
    pending, outcomes = [], {}
    for payload in payloads:
        cached = _cached_outcome(payload["index"],
                                 Path(payload["cell_dir"]) / "result.json")
        if cached is not None:
            outcomes[payload["index"]] = cached
        else:
            pending.append(payload)

    use_workers = len(pending) > 1 and workers > 1
    if timeout is not None and pending:
        use_workers = True  # the watchdog needs killable worker processes
    try:
        if use_workers:
            pool_outcomes = _run_worker_pool(
                pending, max(1, min(workers, len(pending))), timeout)
            outcomes.update(pool_outcomes)
        else:
            for payload in pending:
                outcome = _attempt_cell(payload)
                outcomes[payload["index"]] = outcome
                if strict and outcome.get("status") == "interrupted":
                    # A (simulated) crash: stop exactly where a real kill would.
                    raise CampaignInterrupted(outcome["error"])
    finally:
        # The catalogue mirrors whatever the artifact tree holds — including
        # the partial state of an interrupted or strict-failing campaign.
        _record_campaign_in_catalog(catalog_file, out_dir, spec, scale, seed,
                                    cells, plan, outcomes)
    if strict:
        _raise_on_failures(outcomes)

    ordered = [outcomes[index] for index in range(len(cells))]
    rows = [outcome.get("row") for outcome in ordered]
    cell_summaries = []
    for index in range(len(cells)):
        summary = {"index": index, "params": cells[index],
                   "slug": cell_slug(index, cells[index]),
                   "status": ordered[index]["status"]}
        if ordered[index]["status"] not in ("completed", "cached"):
            summary["error"] = ordered[index].get("error")
            summary["attempt"] = ordered[index].get("attempt")
        cell_summaries.append(summary)
    if all(row is not None for row in rows):
        atomic_write_json(out_dir / "results.json", {
            "experiment": spec.experiment_id, "scale": scale.name, "seed": seed,
            "rows": rows,
        }, indent=2)
    return CampaignResult(spec=spec, scale=scale, seed=seed, out_dir=out_dir,
                          rows=rows, cells=cell_summaries, workers=workers,
                          strict=strict)


def _raise_on_failures(outcomes: Dict[int, Dict]) -> None:
    """Aggregate every non-completed cell into one strict-mode error."""
    interrupted = sorted((o for o in outcomes.values()
                          if o.get("status") == "interrupted"),
                         key=lambda o: o["index"])
    failed = sorted((o for o in outcomes.values()
                     if o.get("status") in ("failed", "timeout")),
                    key=lambda o: o["index"])
    if interrupted:
        lines = [f"cell {o['index']}: {o['error']}" for o in interrupted]
        lines += [f"cell {o['index']} ({o['status']}): {o['error']}" for o in failed]
        raise CampaignInterrupted(
            f"{len(interrupted)} cell(s) interrupted"
            + (f", {len(failed)} failed" if failed else "") + ":\n"
            + "\n".join(lines))
    if failed:
        details = "\n\n".join(
            f"cell {o['index']} ({o['status']}, attempt {o.get('attempt')}): "
            + (o.get("traceback") or o["error"]) for o in failed)
        raise RuntimeError(f"{len(failed)} campaign cell(s) failed:\n{details}")


# --------------------------------------------------------------- inspection
def load_rows(experiment: ExperimentLike, scale: Optional[ScaleLike] = None,
              seed: Optional[int] = None, root: os.PathLike = "runs",
              out_dir: Optional[os.PathLike] = None) -> List[Dict]:
    """Rows of a finished (or partially finished) campaign artifact."""
    spec = resolve_experiment(experiment)
    scale = resolve_scale(scale if scale is not None else spec.default_scale)
    seed = spec.base_seed if seed is None else int(seed)
    out_dir = (Path(out_dir) if out_dir is not None
               else Path(root) / campaign_id(spec.experiment_id, scale, seed))
    manifest_file = out_dir / "manifest.json"
    if not manifest_file.exists():
        raise FileNotFoundError(f"no campaign artifact at {out_dir}")
    manifest = load_json(manifest_file)
    rows = []
    for cell in manifest.get("cells", []):
        payload = _load_result(out_dir / "cells" / cell["slug"] / "result.json")
        if payload is not None:
            rows.append(payload["row"])
    return rows
