"""The cooperative job queue: worker leases over catalogue cells.

A submitted campaign becomes one ``jobs`` row per cell.  N independent
``repro work`` processes drain the queue cooperatively:

* **claim** — a worker takes the lowest (run, cell) job that is ``pending``
  or whose lease has expired, inside one ``BEGIN IMMEDIATE`` transaction, so
  two workers can never hold the same cell.  Claiming an expired lease is a
  **reclaim** (the previous worker crashed or stalled) and is recorded as
  such in ``lease_events``;
* **heartbeat** — while a cell executes, the worker extends its lease every
  ``lease_ttl/3`` seconds on the catalogue's shared clock.  A worker that
  dies stops heartbeating, its lease expires, and the cell is claimable
  again — the queue-level analogue of the runner's watchdog;
* **completion/release** — a finished cell marks its job ``done``; a failed
  cell goes back to ``pending`` until the queue-level attempt budget is
  exhausted, then ``failed``.  Either way the queue transition and the
  catalogue cell row commit in **one** transaction, and the row is written
  only when the worker still held the lease: a worker that lost its lease
  settles nothing (``release`` answers ``"lost"``), so it can never
  overwrite the outcome of the worker that reclaimed the cell.  Local
  workers and ``repro serve`` both settle leases through these two methods;
* **finalize** — once a run has nothing outstanding, ``results.json`` is
  written from the catalogue's rows (see :meth:`JobQueue.finalize`).

Every transition appends to ``lease_events`` (claimed / heartbeat /
completed / failed / released / reclaimed), which is what the chaos tests
assert against when they kill a worker mid-cell.

Determinism: the queue decides only *which worker* runs a cell, never *what*
the cell computes — cells are deterministic in (params, scale, seed) and
idempotent through the artifact tree (PR 7), so any interleaving of workers
produces rows bit-identical to serial execution.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from pathlib import Path
from typing import Any, Dict, List, Mapping, Optional, Sequence

from repro.rl.stats import dump_json
from repro.store.catalog import Catalog

#: Queue-level attempt budget per cell (re-claims after failures/reclaims).
DEFAULT_JOB_ATTEMPTS = 3

#: Default lease time-to-live in seconds (heartbeats extend it).
DEFAULT_LEASE_TTL = 60


def _released_status(status: str, state: str) -> str:
    """The cell status to record for a job released with ``status``.

    An ``interrupted`` cell normally resumes, but one the queue just retired
    (``state == "failed"``) will never be claimed again, so it is failed.
    """
    return "failed" if state == "failed" and status == "interrupted" else status


@dataclass(frozen=True)
class Job:
    """One claimed queue job: the cell payload plus lease bookkeeping."""

    run_id: str
    cell_index: int
    payload: Dict[str, Any]
    attempts: int
    reclaimed_from: Optional[str] = None


class JobQueue:
    """Lease-based claim/heartbeat/complete operations over one catalogue."""

    def __init__(self, catalog: Catalog,
                 max_job_attempts: int = DEFAULT_JOB_ATTEMPTS):
        self.catalog = catalog
        self.conn = catalog.conn
        self.max_job_attempts = int(max_job_attempts)

    # ---------------------------------------------------------------- submit
    def submit(self, run_id: str,
               payloads: Sequence[Mapping[str, Any]]) -> int:
        """Enqueue one job per cell payload (existing jobs are kept as-is)."""
        with self.conn.transaction():
            cursor = self.conn.executemany(
                "INSERT OR IGNORE INTO jobs (run_id, cell_index, state,"
                " payload_json) VALUES (?, ?, 'pending', ?)",
                [(run_id, int(payload["index"]), dump_json(payload))
                 for payload in payloads])
        return cursor.rowcount if cursor.rowcount is not None else 0

    # ----------------------------------------------------------------- claim
    def claim(self, worker: str, run_id: Optional[str] = None,
              lease_ttl: int = DEFAULT_LEASE_TTL) -> Optional[Job]:
        """Atomically claim the next available job (None when nothing is)."""
        with self.conn.transaction():
            row = self.conn.fetchone(
                "SELECT run_id, cell_index, state, worker, attempts,"
                " payload_json FROM jobs WHERE (state = 'pending'"
                " OR (state = 'leased' AND lease_expires_unix <"
                "     CAST(strftime('%s','now') AS INTEGER)))"
                " AND (? IS NULL OR run_id = ?)"
                " ORDER BY run_id, cell_index LIMIT 1", (run_id, run_id))
            if row is None:
                return None
            reclaimed_from = row["worker"] if row["state"] == "leased" else None
            self.conn.execute(
                "UPDATE jobs SET state = 'leased', worker = ?,"
                " lease_expires_unix ="
                "   CAST(strftime('%s','now') AS INTEGER) + ?,"
                " attempts = attempts + 1"
                " WHERE run_id = ? AND cell_index = ?",
                (worker, int(lease_ttl), row["run_id"], row["cell_index"]))
            event = "reclaimed" if reclaimed_from is not None else "claimed"
            detail = (f"lease expired on worker {reclaimed_from}"
                      if reclaimed_from is not None else None)
            self._event(row["run_id"], row["cell_index"], worker, event,
                        detail)
        return Job(run_id=row["run_id"], cell_index=int(row["cell_index"]),
                   payload=json.loads(row["payload_json"]),
                   attempts=int(row["attempts"]) + 1,
                   reclaimed_from=reclaimed_from)

    # ------------------------------------------------------------- heartbeat
    def heartbeat(self, job: Job, worker: str,
                  lease_ttl: int = DEFAULT_LEASE_TTL) -> bool:
        """Extend the lease; False means the lease was lost (reclaimed)."""
        with self.conn.transaction():
            cursor = self.conn.execute(
                "UPDATE jobs SET lease_expires_unix ="
                "   CAST(strftime('%s','now') AS INTEGER) + ?"
                " WHERE run_id = ? AND cell_index = ? AND worker = ?"
                " AND state = 'leased'",
                (int(lease_ttl), job.run_id, job.cell_index, worker))
            alive = cursor.rowcount == 1
            if alive:
                self._event(job.run_id, job.cell_index, worker, "heartbeat",
                            None)
        return alive

    # ------------------------------------------------------------ settlement
    def complete(self, job: Job, worker: str, status: str = "completed",
                 row: Optional[Mapping[str, Any]] = None,
                 attempts: Optional[int] = None,
                 elapsed_seconds: Optional[float] = None) -> bool:
        """Mark a job done and record its cell row, as one transaction.

        Applies only while ``worker`` still holds the lease; False means it
        was lost (reclaimed, or already settled) and nothing was recorded.
        ``attempts`` defaults to the job's queue claims.
        """
        with self.conn.transaction():
            cursor = self.conn.execute(
                "UPDATE jobs SET state = 'done', lease_expires_unix = NULL"
                " WHERE run_id = ? AND cell_index = ? AND worker = ?"
                " AND state = 'leased'",
                (job.run_id, job.cell_index, worker))
            if cursor.rowcount != 1:
                return False
            self._event(job.run_id, job.cell_index, worker, "completed",
                        None)
            self.catalog.record_cell(
                job.run_id, job.cell_index, job.payload["params"], status,
                row=row,
                attempts=job.attempts if attempts is None else attempts,
                elapsed_seconds=elapsed_seconds)
        return True

    def release(self, job: Job, worker: str, error: Optional[str] = None,
                status: str = "failed",
                attempts: Optional[int] = None) -> str:
        """Give a failed/interrupted job back (or retire it past the budget),
        recording the cell's ``status`` in the same transaction.

        Returns the job's new state: ``"pending"`` (re-claimable),
        ``"failed"`` (queue-level attempt budget exhausted), or ``"lost"``
        when ``worker`` no longer holds the lease — then nothing changed.
        """
        state = ("failed" if job.attempts >= self.max_job_attempts
                 else "pending")
        with self.conn.transaction():
            cursor = self.conn.execute(
                "UPDATE jobs SET state = ?, worker = NULL,"
                " lease_expires_unix = NULL WHERE run_id = ?"
                " AND cell_index = ? AND worker = ? AND state = 'leased'",
                (state, job.run_id, job.cell_index, worker))
            if cursor.rowcount != 1:
                return "lost"
            self._event(job.run_id, job.cell_index, worker,
                        "failed" if state == "failed" else "released",
                        error)
            self.catalog.record_cell(
                job.run_id, job.cell_index, job.payload["params"],
                _released_status(status, state), error=error,
                attempts=job.attempts if attempts is None else attempts)
        return state

    def finalize(self, run_id: str) -> None:
        """Write a drained run's ``results.json`` from its catalogue rows.

        Does nothing while jobs are outstanding or a row is missing.  Rows
        round-trip through the same canonical JSON as ``repro.run()``'s, so
        the file is byte-identical to a serial run.  Workers may race here;
        the content is deterministic and the write atomic.
        """
        from repro.runs.runner import write_results  # late: runs imports store

        if self.outstanding(run_id) != 0:
            return
        info = self.conn.fetchone(
            "SELECT experiment, scale, seed, out_dir FROM runs"
            " WHERE run_id = ?", (run_id,))
        if info is None:
            return
        rows = self.catalog.rows(run_id)
        if not rows or any(row is None for row in rows):
            return
        write_results(Path(info["out_dir"]), info["experiment"],
                      info["scale"], int(info["seed"]), rows)

    # ------------------------------------------------------------ inspection
    def counts(self, run_id: Optional[str] = None) -> Dict[str, int]:
        """Jobs per state (optionally for one run)."""
        rows = self.conn.fetchall(
            "SELECT state, COUNT(*) AS n FROM jobs"
            " WHERE (? IS NULL OR run_id = ?) GROUP BY state",
            (run_id, run_id))
        return {row["state"]: int(row["n"]) for row in rows}

    def outstanding(self, run_id: Optional[str] = None) -> int:
        """Jobs not yet done/failed — the drain-loop exit condition."""
        counts = self.counts(run_id)
        return counts.get("pending", 0) + counts.get("leased", 0)

    def lease_events(self, run_id: Optional[str] = None) -> List[Dict[str, Any]]:
        rows = self.conn.fetchall(
            "SELECT event_id, run_id, cell_index, worker, event, detail,"
            " at_unix FROM lease_events WHERE (? IS NULL OR run_id = ?)"
            " ORDER BY event_id", (run_id, run_id))
        return [dict(row) for row in rows]

    # -------------------------------------------------------------- internal
    def _event(self, run_id: str, cell_index: int, worker: Optional[str],
               event: str, detail: Optional[str]) -> None:
        self.conn.execute(
            "INSERT INTO lease_events (run_id, cell_index, worker, event,"
            " detail, at_unix) VALUES (?, ?, ?, ?, ?,"
            " CAST(strftime('%s','now') AS INTEGER))",
            (run_id, int(cell_index), worker, event, detail))
