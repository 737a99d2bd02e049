"""Campaign submission and the ``repro work`` drain loop (local + remote).

``submit_campaign`` turns an experiment into durable queue state: it sets
the campaign up through the runner's own ``setup_campaign`` (the same
``manifest.json`` check or write, the same catalogue record of the run,
provenance and pending cells as ``repro.run()``) and enqueues one job per
cell.  Nothing executes yet — execution belongs to workers.

``work()`` is one worker process: claim a job, execute its cell through the
runner's own ``_attempt_cell`` path (same artifact tree, same
strict/lenient/retry/fault semantics as ``repro.run()``), renew the lease
from a background heartbeat thread while the cell runs, then settle the
lease: :meth:`~repro.store.queue.JobQueue.complete` or ``release`` moves
the job and writes the catalogue cell row in one transaction.  N workers on
one catalogue drain a campaign cooperatively; a killed worker's lease
expires and its cell is reclaimed and re-run, so the drained campaign is
bit-identical to a serial ``repro.run()`` of the same experiment.

Two queue backends share that loop:

* **local** (the default): the worker opens the catalogue file directly —
  same-host draining, on one connection shared with its heartbeats;
* **remote** (``server="http://host:port"``): the worker speaks the lease
  protocol over HTTP through :class:`~repro.store.client.StoreClient` —
  deadline, bounded deterministic retries, idempotency keys — and never
  touches the catalogue.  Cell artifacts land under a *local* root
  (payload paths are remapped per host); the finished row is uploaded with
  ``complete``, and the server settles it through the same ``JobQueue``
  calls.  Cells are deterministic in (params, scale, seed), so a cell
  reclaimed across hosts recomputes the identical row without any shared
  filesystem.

Either way, once a run has nothing outstanding its ``results.json`` is
written from the catalogue's rows by :meth:`~repro.store.queue.JobQueue
.finalize` — by the local worker, or by the server for remote workers.

Signals: SIGTERM/SIGINT interrupt the drain loop cleanly — the worker
releases its current lease (recorded as ``released`` in ``lease_events``,
job back to ``pending``), marks its summary ``interrupted``, and the CLI
exits non-zero.  No cell is ever left leased to a dead worker longer than
the signal handling takes.
"""

from __future__ import annotations

import os
import signal
import socket
import threading
import time
import zlib
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Callable, Dict, List, Mapping, Optional

from repro import telemetry
from repro.experiments.common import ScaleLike
from repro.runs.registry import ExperimentLike
from repro.runs.runner import _attempt_cell, setup_campaign
from repro.store.catalog import Catalog, catalog_path
from repro.store.client import (
    DEFAULT_BACKOFF_SECONDS,
    DEFAULT_MAX_RETRIES,
    DEFAULT_TIMEOUT_SECONDS,
    FatalRequestError,
    RetryableTransportError,
    StoreClient,
)
from repro.store.queue import (
    DEFAULT_JOB_ATTEMPTS,
    DEFAULT_LEASE_TTL,
    Job,
    JobQueue,
)


@dataclass
class Submission:
    """What ``submit_campaign`` returns: where the campaign lives."""

    run_id: str
    out_dir: Path
    cells: int
    enqueued: int

    def to_dict(self) -> Dict[str, Any]:
        return {"run_id": self.run_id, "out_dir": str(self.out_dir),
                "cells": self.cells, "enqueued": self.enqueued}


def submit_campaign(experiment: ExperimentLike,
                    scale: Optional[ScaleLike] = None,
                    seed: Optional[int] = None,
                    root: os.PathLike = "runs",
                    out_dir: Optional[os.PathLike] = None,
                    checkpoint_every: int = 2,
                    max_attempts: int = 1, retry_backoff: float = 0.25,
                    fault_plan: Any = None) -> Submission:
    """Register a campaign in the catalogue and enqueue its cells.

    Safe to call twice: the manifest check refuses a *different* campaign in
    the same directory, existing cell/job rows are kept, and already-finished
    cells complete instantly when a worker claims them (their ``result.json``
    is the memo).  The campaign is set up exactly as ``repro.run()`` sets it
    up, and its jobs are enqueued on the same catalogue connection.
    """
    setup = setup_campaign(experiment, scale, seed, out_dir, root,
                           checkpoint_every, max_attempts=max_attempts,
                           retry_backoff=retry_backoff, fault_plan=fault_plan)
    try:
        enqueued = JobQueue(setup.catalog).submit(setup.run_id,
                                                  setup.payloads)
    finally:
        setup.catalog.close()
    return Submission(run_id=setup.run_id, out_dir=setup.out_dir,
                      cells=len(setup.cells), enqueued=enqueued)


@dataclass
class WorkerSummary:
    """One worker's account of a drain loop."""

    worker_id: str
    completed: int = 0
    failed: int = 0
    released: int = 0
    reclaimed: int = 0
    interrupted: bool = False
    cells: List[Dict[str, Any]] = field(default_factory=list)

    def to_dict(self) -> Dict[str, Any]:
        return {"worker_id": self.worker_id, "completed": self.completed,
                "failed": self.failed, "released": self.released,
                "reclaimed": self.reclaimed,
                "interrupted": self.interrupted, "cells": self.cells}


class WorkerSignalled(BaseException):
    """SIGTERM/SIGINT reached the drain loop.

    A ``BaseException`` so the runner's ``except Exception`` retry paths
    cannot swallow it — the signal must reach the loop that releases the
    lease.
    """

    def __init__(self, signum: int):
        self.signum = signum
        self.name = signal.Signals(signum).name
        super().__init__(f"worker received {self.name}")


class _SignalGuard:
    """Convert SIGTERM/SIGINT into :class:`WorkerSignalled` for one scope.

    Only installs handlers on the main thread (``signal.signal`` refuses
    anywhere else — tests drive ``work()`` from helper threads); restores
    the previous handlers on exit.
    """

    def __init__(self) -> None:
        self._previous: List[Any] = []
        self._installed = False

    def __enter__(self) -> "_SignalGuard":
        if threading.current_thread() is threading.main_thread():
            def raise_signalled(signum: int, _frame: Any) -> None:
                raise WorkerSignalled(signum)

            for signum in (signal.SIGTERM, signal.SIGINT):
                self._previous.append(
                    (signum, signal.signal(signum, raise_signalled)))
            self._installed = True
        return self

    def __exit__(self, *exc: Any) -> None:
        if self._installed:
            for signum, previous in self._previous:
                signal.signal(signum, previous)


class _Heartbeat:
    """Background lease renewal while a cell executes.

    ``beat`` extends the lease once and answers True (alive), False (lost:
    stop beating, the claim's new owner re-runs the cell) or None (a
    transient failure: keep trying; the lease may lapse and be reclaimed,
    the semantics a dead network should have).  Beats only touch the lease,
    never the cell's computation, so worker results stay deterministic.

    ``join_timeout`` bounds how long leaving the scope waits for a beat in
    flight.  None waits it out: the local beat shares the worker's
    catalogue connection, which one thread may use at a time.
    """

    def __init__(self, beat: Callable[[], Optional[bool]], lease_ttl: int,
                 join_timeout: Optional[float]):
        self._beat = beat
        self._ttl = int(lease_ttl)
        self._join_timeout = join_timeout
        self._stop = threading.Event()
        self._thread = threading.Thread(target=self._run, daemon=True)

    def _run(self) -> None:
        interval = max(1.0, self._ttl / 3.0)
        gap_seconds = telemetry.histogram("worker.heartbeat.gap_seconds")
        last = time.perf_counter()
        while not self._stop.wait(interval):
            alive = self._beat()
            if alive is None:
                # The gap histogram only advances on success, so the next
                # successful beat records the true outage-spanning gap.
                continue
            if not alive:
                telemetry.counter("worker.heartbeat.lost").inc()
                return
            now = time.perf_counter()
            gap_seconds.record(now - last)
            last = now

    def __enter__(self) -> "_Heartbeat":
        self._thread.start()
        return self

    def __exit__(self, *exc: Any) -> None:
        self._stop.set()
        self._thread.join(timeout=self._join_timeout)


def default_worker_id() -> str:
    return f"{socket.gethostname()}-{os.getpid()}"


class _LocalBackend:
    """Queue access through the catalogue file (same-host draining).

    One catalogue connection serves the drain loop and its heartbeats.
    """

    def __init__(self, path: Path, worker_id: str, max_job_attempts: int):
        self.path = Path(path)
        self.worker_id = worker_id
        self.catalog = Catalog(self.path)
        self.queue = JobQueue(self.catalog, max_job_attempts=max_job_attempts)

    def claim(self, run_id: Optional[str], lease_ttl: int) -> Optional[Job]:
        return self.queue.claim(self.worker_id, run_id=run_id,
                                lease_ttl=lease_ttl)

    def heartbeat_channel(self, job: Job, lease_ttl: int) -> _Heartbeat:
        return _Heartbeat(
            lambda: self.queue.heartbeat(job, self.worker_id, lease_ttl),
            lease_ttl, join_timeout=None)

    def localize(self, job: Job) -> Dict[str, Any]:
        return dict(job.payload)

    def complete(self, job: Job, status: str, row: Optional[Mapping[str, Any]],
                 attempts: int, elapsed: Optional[float]) -> bool:
        return self.queue.complete(job, self.worker_id, status, row=row,
                                   attempts=attempts, elapsed_seconds=elapsed)

    def release(self, job: Job, status: str, error: Optional[str],
                attempts: int) -> str:
        return self.queue.release(job, self.worker_id, error=error,
                                  status=status, attempts=attempts)

    def outstanding(self, run_id: Optional[str]) -> int:
        return self.queue.outstanding(run_id)

    def finalize(self, job: Job) -> None:
        self.queue.finalize(job.run_id)

    def telemetry_sink(self, worker_id: str) -> Any:
        return telemetry.CatalogSink(self.path, worker=worker_id)

    def close(self) -> None:
        self.catalog.close()


class _RemoteBackend:
    """Queue access over HTTP through :class:`StoreClient`.

    Payload paths are remapped under ``local_root`` (artifacts land on the
    *worker's* host); the server finalizes ``results.json`` from uploaded
    rows, so :meth:`finalize` is a no-op here.
    """

    def __init__(self, server: str, worker_id: str, local_root: Path,
                 max_job_attempts: int, timeout: float, retries: int,
                 backoff: float):
        self.worker_id = worker_id
        self.local_root = Path(local_root)
        self.max_job_attempts = int(max_job_attempts)
        self.client = StoreClient(server, worker_id=worker_id,
                                  timeout=timeout, max_retries=retries,
                                  backoff=backoff,
                                  retry_seed=zlib.crc32(worker_id.encode("utf-8")))

    def claim(self, run_id: Optional[str], lease_ttl: int) -> Optional[Job]:
        record = self.client.claim(run_id=run_id, lease_ttl=lease_ttl,
                                   max_job_attempts=self.max_job_attempts)
        if record is None:
            return None
        return Job(run_id=record["run_id"],
                   cell_index=int(record["cell_index"]),
                   payload=dict(record["payload"]),
                   attempts=int(record["attempts"]),
                   reclaimed_from=record.get("reclaimed_from"))

    def heartbeat_channel(self, job: Job, lease_ttl: int) -> _Heartbeat:
        def beat() -> Optional[bool]:
            try:
                return self.client.heartbeat(job.run_id, job.cell_index,
                                             lease_ttl)
            except RetryableTransportError:
                return None  # server unreachable; keep trying
            except FatalRequestError:
                return False  # the server refuses this lease

        # A beat stuck in network retries is left to finish on its own.
        return _Heartbeat(beat, lease_ttl, join_timeout=5.0)

    def localize(self, job: Job) -> Dict[str, Any]:
        """Remap the payload's artifact paths onto this worker's host."""
        payload = dict(job.payload)
        slug = Path(payload["cell_dir"]).name
        out_dir = self.local_root / job.run_id
        payload["out_dir"] = str(out_dir)
        payload["cell_dir"] = str(out_dir / "cells" / slug)
        return payload

    def complete(self, job: Job, status: str, row: Optional[Mapping[str, Any]],
                 attempts: int, elapsed: Optional[float]) -> bool:
        response = self.client.complete(
            job.run_id, job.cell_index, status=status, row=row,
            attempts=attempts, elapsed_seconds=elapsed)
        return bool(response.get("applied"))

    def release(self, job: Job, status: str, error: Optional[str],
                attempts: int) -> str:
        response = self.client.release(job.run_id, job.cell_index,
                                       status=status, error=error,
                                       attempts=attempts,
                                       max_job_attempts=self.max_job_attempts)
        return str(response["state"])

    def outstanding(self, run_id: Optional[str]) -> int:
        return self.client.outstanding(run_id)

    def finalize(self, job: Job) -> None:
        pass  # the server materializes results.json from catalogue rows

    def telemetry_sink(self, worker_id: str) -> Any:
        return telemetry.ClientSink(self.client, worker=worker_id)

    def close(self) -> None:
        pass


def work(root: os.PathLike = "runs", run_id: Optional[str] = None,
         worker_id: Optional[str] = None,
         lease_ttl: int = DEFAULT_LEASE_TTL,
         max_job_attempts: int = DEFAULT_JOB_ATTEMPTS,
         poll_seconds: float = 0.5, watch: bool = False,
         max_cells: Optional[int] = None,
         catalog_file: Optional[os.PathLike] = None,
         server: Optional[str] = None,
         local_root: Optional[os.PathLike] = None,
         client_timeout: float = DEFAULT_TIMEOUT_SECONDS,
         client_retries: int = DEFAULT_MAX_RETRIES,
         client_backoff: float = DEFAULT_BACKOFF_SECONDS) -> WorkerSummary:
    """Drain the queue (optionally one campaign) as one worker.

    ``server=None`` drains through the catalogue file at ``root`` /
    ``catalog_file``; ``server="http://host:port"`` drains over HTTP with
    artifacts under ``local_root`` (default: ``root``).
    """
    worker_id = worker_id or default_worker_id()
    summary = WorkerSummary(worker_id=worker_id)
    if server is not None:
        backend: Any = _RemoteBackend(
            server, worker_id,
            local_root=Path(local_root if local_root is not None else root),
            max_job_attempts=max_job_attempts, timeout=client_timeout,
            retries=client_retries, backoff=client_backoff)
    else:
        path = (Path(catalog_file) if catalog_file is not None
                else catalog_path(Path(root)))
        backend = _LocalBackend(path, worker_id,
                                max_job_attempts=max_job_attempts)
    claim_seconds = telemetry.histogram("worker.claim.seconds")
    flusher = telemetry.TelemetryFlusher(backend.telemetry_sink(worker_id))
    flusher.start()
    job: Optional[Job] = None
    try:
        with _SignalGuard():
            while True:
                if max_cells is not None and len(summary.cells) >= max_cells:
                    break
                claim_started = time.perf_counter()
                job = backend.claim(run_id, lease_ttl)
                claim_seconds.record(time.perf_counter() - claim_started)
                if job is None:
                    if watch or backend.outstanding(run_id):
                        # Another worker holds a live lease (or new work may
                        # arrive): wait instead of abandoning the drain.
                        time.sleep(poll_seconds)
                        continue
                    break
                telemetry.counter("worker.claims.total").inc()
                if job.reclaimed_from is not None:
                    summary.reclaimed += 1
                    telemetry.counter("worker.claims.reclaimed").inc()
                payload = backend.localize(job)
                with backend.heartbeat_channel(job, lease_ttl):
                    outcome = _attempt_cell(payload)
                status = outcome.get("status", "failed")
                record = {"index": job.cell_index, "run_id": job.run_id,
                          "status": status, "attempts": job.attempts}
                if status in ("completed", "cached"):
                    # A finished cell counts its queue claims as attempts.
                    if backend.complete(job, status, outcome.get("row"),
                                        job.attempts,
                                        outcome.get("elapsed_seconds")):
                        summary.completed += 1
                        telemetry.counter("worker.cells.completed").inc()
                    # else: the lease was reclaimed while we ran; the new
                    # owner re-executes the (idempotent) cell and records it.
                else:
                    new_state = backend.release(
                        job, status, outcome.get("error"),
                        outcome.get("attempt", job.attempts))
                    if new_state == "failed":
                        summary.failed += 1
                        telemetry.counter("worker.cells.failed").inc()
                    elif new_state != "lost":  # lost: the new owner settles
                        summary.released += 1
                        telemetry.counter("worker.cells.released").inc()
                    record["error"] = outcome.get("error")
                summary.cells.append(record)
                backend.finalize(job)
                job = None
    except WorkerSignalled as signalled:
        summary.interrupted = True
        if job is not None:
            # Give the in-flight cell straight back to the queue so another
            # worker picks it up without waiting out the lease TTL.  If the
            # network is also gone, the lease expiring does the same job.
            try:
                lost = backend.release(job, "interrupted", str(signalled),
                                       job.attempts) == "lost"
            except (RetryableTransportError, FatalRequestError):
                lost = False
            if not lost:
                summary.released += 1
            summary.cells.append({"index": job.cell_index,
                                  "run_id": job.run_id,
                                  "status": "interrupted",
                                  "attempts": job.attempts,
                                  "error": str(signalled)})
    finally:
        flusher.stop()
        backend.close()
    return summary


__all__ = [
    "Submission",
    "WorkerSignalled",
    "WorkerSummary",
    "default_worker_id",
    "submit_campaign",
    "work",
]
