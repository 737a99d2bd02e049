"""Tests for the campaign service: catalogue, queue, workers, serve, query.

The multi-worker scenarios use the training-free ``tests/chaos_driver``
experiment so drains finish in milliseconds; the kill-and-reclaim scenario
runs a real ``python -m repro work`` subprocess and kills it mid-cell.
"""

from __future__ import annotations

import json
import os
import signal
import subprocess
import sys
import threading
import time
import urllib.error
import urllib.request
from pathlib import Path

import pytest

import repro
from repro.rl.stats import dump_json
from repro.runs import ExperimentSpec, register_experiment, unregister_experiment
from repro.runs.cli import main as cli_main
from repro.runs.faults import Fault, FaultPlan
from repro.store import Catalog, JobQueue, catalog_path, connect, spec_hash
from repro.store.catalog import code_version
from repro.store.ingest import ingest_bench_file, record_bench_entry
from repro.store.query import aggregate_bench, aggregate_metric, format_rows
from repro.store.queue import Job
from repro.store.server import make_server
from repro.store.worker import submit_campaign, work

REPO_ROOT = Path(__file__).resolve().parents[1]


def chaos_spec(*cells: dict) -> ExperimentSpec:
    return ExperimentSpec(experiment_id="chaos", driver="chaos_driver",
                          columns=("name", "value"), grid=cells,
                          default_scale="smoke")


# --------------------------------------------------------------------------
class TestConnection:
    def test_schema_created_and_wal(self, tmp_path):
        with connect(tmp_path / "catalog.sqlite") as conn:
            mode = conn.scalar("PRAGMA journal_mode")
            assert mode == "wal"
            tables = {r["name"] for r in conn.fetchall(
                "SELECT name FROM sqlite_master WHERE type = 'table'")}
            assert {"runs", "cells", "metrics", "bench", "jobs",
                    "lease_events", "provenance", "meta", "idempotency",
                    "telemetry_points", "telemetry_spans"} <= tables

    def test_refuses_newer_schema(self, tmp_path):
        path = tmp_path / "catalog.sqlite"
        with connect(path) as conn:
            conn.execute("UPDATE meta SET value = '999' "
                         "WHERE key = 'schema_version'")
        with pytest.raises(RuntimeError, match="newer"):
            connect(path)

    def test_transaction_rolls_back(self, tmp_path):
        with connect(tmp_path / "catalog.sqlite") as conn:
            with pytest.raises(RuntimeError):
                with conn.transaction():
                    conn.execute(
                        "INSERT INTO bench (benchmark, key, value, source)"
                        " VALUES ('b', 'k', 1.0, 's')")
                    raise RuntimeError("boom")
            assert conn.scalar("SELECT COUNT(*) FROM bench") == 0

    def test_shared_clock(self, tmp_path):
        with connect(tmp_path / "catalog.sqlite") as conn:
            now = conn.now()
            assert isinstance(now, int) and now > 1_700_000_000

    def test_upgrades_v1_catalog_in_place(self, tmp_path):
        # A pre-PR-9 catalogue: no idempotency table, schema_version '1'.
        path = tmp_path / "catalog.sqlite"
        with connect(path) as conn:
            conn.execute("DROP TABLE idempotency")
            conn.execute("UPDATE meta SET value = '1' "
                         "WHERE key = 'schema_version'")
        with connect(path) as conn:
            assert conn.scalar("SELECT value FROM meta "
                               "WHERE key = 'schema_version'") == "3"
            assert conn.scalar(
                "SELECT COUNT(*) FROM sqlite_master "
                "WHERE type = 'table' AND name = 'idempotency'") == 1

    def test_upgrades_v2_catalog_in_place(self, tmp_path):
        # A pre-PR-10 catalogue: no telemetry tables, schema_version '2'.
        path = tmp_path / "catalog.sqlite"
        with connect(path) as conn:
            conn.execute("DROP TABLE telemetry_points")
            conn.execute("DROP TABLE telemetry_spans")
            conn.execute("UPDATE meta SET value = '2' "
                         "WHERE key = 'schema_version'")
        with connect(path) as conn:
            assert conn.scalar("SELECT value FROM meta "
                               "WHERE key = 'schema_version'") == "3"
            assert conn.scalar(
                "SELECT COUNT(*) FROM sqlite_master WHERE type = 'table'"
                " AND name IN ('telemetry_points', 'telemetry_spans')") == 2


# --------------------------------------------------------------------------
class TestCatalog:
    def test_runner_records_campaign(self, tmp_path):
        root = tmp_path / "runs"
        campaign = repro.run("table1", scale="smoke", root=root)
        with Catalog(catalog_path(root)) as catalog:
            assert catalog.has_run("table1-smoke")
            info = catalog.run_info("table1-smoke")
            assert info["status"] == "complete"
            assert info["provenance"]["spec_hash"] == spec_hash(
                campaign.spec.to_json())
            assert info["provenance"]["seed"] == campaign.seed
            rows = catalog.rows("table1-smoke")
        assert dump_json(rows) == dump_json(campaign.rows)

    def test_local_and_queue_runs_record_attempts_and_elapsed(self, tmp_path):
        repro.run("table1", scale="smoke", root=tmp_path / "local")
        submit_campaign("table1", scale="smoke", root=tmp_path / "queue")
        work(root=tmp_path / "queue", worker_id="w1")
        for root in (tmp_path / "local", tmp_path / "queue"):
            with Catalog(catalog_path(root)) as catalog:
                cells = catalog.cell_statuses("table1-smoke")
            assert len(cells) == 4
            for cell in cells:
                result = json.loads((root / "table1-smoke" / "cells" / cell["slug"]
                                     / "result.json").read_text())
                assert cell["attempts"] == 1, (root.name, cell)
                assert cell["elapsed_seconds"] == result["elapsed_seconds"]

    def test_catalog_disabled(self, tmp_path):
        root = tmp_path / "runs"
        repro.run("table1", scale="smoke", root=root, catalog=False)
        assert not catalog_path(root).exists()

    def test_record_cell_failure_then_recovery(self, tmp_path):
        spec = chaos_spec({"mode": "flaky", "name": "a", "fails": 1})
        root = tmp_path / "runs"
        first = repro.run(spec, out_dir=root / "chaos-smoke", strict=False)
        assert first.failed == 1
        with Catalog(catalog_path(root)) as catalog:
            statuses = catalog.cell_statuses("chaos-smoke")
            assert statuses[0]["status"] == "failed"
            assert statuses[0]["attempts"] == 1
        second = repro.run(spec, out_dir=root / "chaos-smoke", strict=False)
        assert second.completed == 1
        with Catalog(catalog_path(root)) as catalog:
            statuses = catalog.cell_statuses("chaos-smoke")
            assert statuses[0]["status"] == "completed"
            assert catalog.run_info("chaos-smoke")["status"] == "complete"

    def test_metrics_exploded_for_query(self, tmp_path):
        root = tmp_path / "runs"
        campaign = repro.run("table1", scale="smoke", root=root)
        with Catalog(catalog_path(root)) as catalog:
            rows = aggregate_metric(catalog, "accuracy", by="attack_category")
        assert len(rows) == len(campaign.rows)
        for row in rows:
            assert row["n"] == 1

    def test_code_version_resolves_in_repo(self):
        version = code_version(REPO_ROOT)
        assert version == "unknown" or len(version) == 40


# --------------------------------------------------------------------------
class TestJobQueue:
    def _submitted(self, tmp_path, cells=2):
        spec = chaos_spec(*({"mode": "ok", "name": f"c{i}"}
                            for i in range(cells)))
        root = tmp_path / "runs"
        submission = submit_campaign(spec, root=root)
        catalog = Catalog(catalog_path(root))
        return submission, catalog, JobQueue(catalog)

    def test_claim_orders_by_cell_index(self, tmp_path):
        submission, catalog, queue = self._submitted(tmp_path)
        try:
            first = queue.claim("w1")
            second = queue.claim("w2")
            assert (first.cell_index, second.cell_index) == (0, 1)
            assert queue.claim("w3") is None
        finally:
            catalog.close()

    def test_complete_requires_live_lease(self, tmp_path):
        submission, catalog, queue = self._submitted(tmp_path)
        try:
            job = queue.claim("w1")
            assert queue.complete(job, "imposter") is False
            assert queue.complete(job, "w1") is True
            assert queue.counts(submission.run_id)["done"] == 1
        finally:
            catalog.close()

    def test_release_returns_to_pending_then_fails(self, tmp_path):
        submission, catalog, queue = self._submitted(tmp_path, cells=1)
        queue.max_job_attempts = 2
        try:
            job = queue.claim("w1")
            assert queue.release(job, "w1", error="boom") == "pending"
            job = queue.claim("w1")
            assert job.attempts == 2
            assert queue.release(job, "w1", error="boom") == "failed"
            assert queue.outstanding(submission.run_id) == 0
        finally:
            catalog.close()

    def test_expired_lease_is_reclaimed(self, tmp_path):
        submission, catalog, queue = self._submitted(tmp_path, cells=1)
        try:
            job = queue.claim("w1", lease_ttl=-1)  # born expired
            reclaimed = queue.claim("w2")
            assert reclaimed is not None
            assert reclaimed.reclaimed_from == "w1"
            events = [e["event"] for e in
                      queue.lease_events(submission.run_id)]
            assert events == ["claimed", "reclaimed"]
            # The dead worker's late completion must be rejected.
            assert queue.complete(job, "w1") is False
            assert queue.complete(reclaimed, "w2") is True
        finally:
            catalog.close()

    def test_heartbeat_extends_and_detects_loss(self, tmp_path):
        submission, catalog, queue = self._submitted(tmp_path, cells=1)
        try:
            job = queue.claim("w1", lease_ttl=60)
            assert queue.heartbeat(job, "w1", lease_ttl=60) is True
            assert queue.heartbeat(job, "imposter", lease_ttl=60) is False
        finally:
            catalog.close()

    def test_release_after_budget_exhausted_is_terminal(self, tmp_path):
        submission, catalog, queue = self._submitted(tmp_path, cells=1)
        queue.max_job_attempts = 1
        try:
            job = queue.claim("w1")
            assert job.attempts == 1
            assert queue.release(job, "w1", error="boom") == "failed"
            # The job is retired: a second release of the same handle is a
            # no-op (no lease to give back, no duplicate event), and nothing
            # is claimable.
            queue.release(job, "w1", error="boom again")
            assert queue.claim("w2") is None
            assert queue.counts(submission.run_id) == {"failed": 1}
            events = [e["event"] for e in
                      queue.lease_events(submission.run_id)]
            assert events == ["claimed", "failed"]
        finally:
            catalog.close()

    def test_release_by_non_owner_is_ignored(self, tmp_path):
        submission, catalog, queue = self._submitted(tmp_path, cells=1)
        try:
            queue.claim("w1", lease_ttl=60)
            queue.release(Job(run_id=submission.run_id, cell_index=0,
                              payload={}, attempts=1), "imposter",
                          error="not mine")
            assert queue.counts(submission.run_id) == {"leased": 1}
            events = [e["event"] for e in
                      queue.lease_events(submission.run_id)]
            assert events == ["claimed"]
        finally:
            catalog.close()

    def test_double_complete_applies_once(self, tmp_path):
        submission, catalog, queue = self._submitted(tmp_path, cells=1)
        try:
            job = queue.claim("w1")
            assert queue.complete(job, "w1") is True
            assert queue.complete(job, "w1") is False
            events = [e["event"] for e in
                      queue.lease_events(submission.run_id)]
            assert events == ["claimed", "completed"]
        finally:
            catalog.close()

    def test_lost_ownership_heartbeat_and_complete_rejected(self, tmp_path):
        submission, catalog, queue = self._submitted(tmp_path, cells=1)
        try:
            stale = queue.claim("loser", lease_ttl=-1)  # born expired
            reclaimed = queue.claim("winner", lease_ttl=60)
            assert reclaimed.reclaimed_from == "loser"
            assert queue.owns(stale, "loser") is False
            assert queue.heartbeat(stale, "loser") is False
            assert queue.complete(stale, "loser") is False
            assert queue.complete(reclaimed, "winner") is True
            events = [e["event"] for e in
                      queue.lease_events(submission.run_id)]
            assert events == ["claimed", "reclaimed", "completed"]
        finally:
            catalog.close()


# --------------------------------------------------------------------------
class TestWorkerDrain:
    def test_single_worker_drains_and_finalizes(self, tmp_path):
        root = tmp_path / "runs"
        submission = submit_campaign("table1", scale="smoke", root=root)
        summary = work(root=root, worker_id="w1")
        assert summary.completed == submission.cells
        assert (submission.out_dir / "results.json").exists()

    def test_two_workers_bit_identical_to_serial(self, tmp_path):
        spec = chaos_spec(*({"mode": "ok", "name": f"c{i}", "offset": i}
                            for i in range(6)))
        serial_root = tmp_path / "serial"
        queue_root = tmp_path / "queued"
        repro.run(spec, seed=3, root=serial_root)
        submission = submit_campaign(spec, seed=3, root=queue_root)

        summaries = [None, None]

        def drain(slot: int) -> None:
            summaries[slot] = work(root=queue_root,
                                   worker_id=f"w{slot}", poll_seconds=0.05)

        threads = [threading.Thread(target=drain, args=(slot,))
                   for slot in range(2)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=60)
        assert all(s is not None for s in summaries)
        assert sum(s.completed for s in summaries) == submission.cells
        serial_results = (serial_root / "chaos-smoke-seed3"
                          / "results.json").read_bytes()
        queued_results = (submission.out_dir / "results.json").read_bytes()
        assert queued_results == serial_results

    def test_failed_cell_exhausts_queue_budget(self, tmp_path):
        spec = chaos_spec({"mode": "fail", "name": "a"})
        root = tmp_path / "runs"
        submit_campaign(spec, root=root)
        summary = work(root=root, worker_id="w1", max_job_attempts=2,
                       poll_seconds=0.05)
        assert summary.failed == 1
        with Catalog(catalog_path(root)) as catalog:
            queue = JobQueue(catalog)
            assert queue.counts("chaos-smoke") == {"failed": 1}
            events = [e["event"] for e in queue.lease_events("chaos-smoke")]
        assert events == ["claimed", "released", "claimed", "failed"]

    def test_interrupted_cell_past_queue_budget_reads_failed(self, tmp_path):
        # A killed cell normally resumes (the run is in-flight), but one the
        # queue retires on its last claim is never claimed again.
        spec = chaos_spec({"mode": "ok", "name": "a"})
        root = tmp_path / "runs"
        plan = FaultPlan(faults=(Fault(kind="kill", cell=0, artifact="result"),))
        submit_campaign(spec, root=root, fault_plan=plan)
        summary = work(root=root, worker_id="w1", max_job_attempts=1,
                       poll_seconds=0.05)
        assert summary.failed == 1
        with Catalog(catalog_path(root)) as catalog:
            assert JobQueue(catalog).counts("chaos-smoke") == {"failed": 1}
            assert catalog.run_info("chaos-smoke")["status"] == "failed"

    def test_submit_is_idempotent(self, tmp_path):
        root = tmp_path / "runs"
        first = submit_campaign("table1", scale="smoke", root=root)
        again = submit_campaign("table1", scale="smoke", root=root)
        assert first.enqueued == first.cells
        assert again.enqueued == 0  # jobs already queued


# --------------------------------------------------------------------------
class TestKilledWorkerReclaim:
    def test_lease_reclaimed_after_worker_kill(self, tmp_path):
        """Kill a worker mid-cell; a second worker reclaims and finishes."""
        spec = chaos_spec({"mode": "sleep_once", "name": "a", "seconds": 60},
                          {"mode": "ok", "name": "b"})
        root = tmp_path / "runs"
        submission = submit_campaign(spec, root=root)

        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(
            [str(REPO_ROOT / "src"), str(REPO_ROOT / "tests")]
            + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else []))
        victim = subprocess.Popen(
            [sys.executable, "-m", "repro", "work", "--root", str(root),
             "--worker-id", "victim", "--lease-ttl", "2"],
            env=env, cwd=REPO_ROOT,
            stdout=subprocess.DEVNULL, stderr=subprocess.DEVNULL)
        try:
            # Wait until the victim holds the sleeping cell's lease.
            deadline = time.perf_counter() + 30
            while time.perf_counter() < deadline:
                with Catalog(catalog_path(root)) as catalog:
                    events = JobQueue(catalog).lease_events("chaos-smoke")
                if any(e["event"] == "claimed" and e["worker"] == "victim"
                       for e in events):
                    break
                time.sleep(0.1)
            else:
                pytest.fail("victim worker never claimed a cell")
            victim.send_signal(signal.SIGKILL)
            victim.wait(timeout=10)

            # Second worker: waits out the dead lease, reclaims, finishes.
            summary = work(root=root, worker_id="rescuer", lease_ttl=2,
                           poll_seconds=0.1, max_job_attempts=5)
        finally:
            if victim.poll() is None:
                victim.kill()
                victim.wait()
        assert summary.reclaimed >= 1
        assert (submission.out_dir / "results.json").exists()
        with Catalog(catalog_path(root)) as catalog:
            queue = JobQueue(catalog)
            events = queue.lease_events("chaos-smoke")
            assert any(e["event"] == "reclaimed"
                       and e["worker"] == "rescuer" for e in events)
            assert queue.outstanding("chaos-smoke") == 0
            assert catalog.run_info("chaos-smoke")["status"] == "complete"


# --------------------------------------------------------------------------
class TestWorkerSignals:
    """SIGTERM mid-cell: exit non-zero, lease released, job back to pending."""

    @pytest.mark.parametrize("mode", ["local", "remote"])
    def test_sigterm_releases_lease_and_exits_nonzero(self, tmp_path, mode):
        spec = chaos_spec({"mode": "sleep", "name": "a", "seconds": 60})
        root = tmp_path / "runs"
        submit_campaign(spec, root=root)

        server = None
        argv = [sys.executable, "-m", "repro", "work",
                "--run-id", "chaos-smoke", "--worker-id", "doomed"]
        if mode == "remote":
            server = make_server(root, port=0)
            threading.Thread(target=server.serve_forever,
                             daemon=True).start()
            argv += ["--root", str(tmp_path / "worker-host"), "--server",
                     f"http://127.0.0.1:{server.server_address[1]}",
                     "--client-backoff", "0.05"]
        else:
            argv += ["--root", str(root)]
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(
            [str(REPO_ROOT / "src"), str(REPO_ROOT / "tests")]
            + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else []))
        doomed = subprocess.Popen(argv, env=env, cwd=REPO_ROOT,
                                  stdout=subprocess.PIPE,
                                  stderr=subprocess.PIPE, text=True)
        try:
            deadline = time.perf_counter() + 30
            while time.perf_counter() < deadline:
                with Catalog(catalog_path(root)) as catalog:
                    events = JobQueue(catalog).lease_events("chaos-smoke")
                if any(e["event"] == "claimed" for e in events):
                    break
                time.sleep(0.1)
            else:
                pytest.fail("worker never claimed the sleeping cell")
            time.sleep(0.3)  # let it get into the cell body
            doomed.send_signal(signal.SIGTERM)
            stdout, _stderr = doomed.communicate(timeout=30)
        finally:
            if doomed.poll() is None:
                doomed.kill()
                doomed.wait()
            if server is not None:
                server.shutdown()
                server.server_close()
        assert doomed.returncode == 3
        summary = json.loads(stdout)
        assert summary["interrupted"] is True
        assert summary["released"] == 1
        with Catalog(catalog_path(root)) as catalog:
            queue = JobQueue(catalog)
            events = queue.lease_events("chaos-smoke")
            assert [e["event"] for e in events
                    if e["event"] != "heartbeat"] == ["claimed", "released"]
            state = catalog.conn.scalar(
                "SELECT state FROM jobs WHERE run_id = 'chaos-smoke'")
        assert state == "pending"  # immediately reclaimable, no TTL wait


# --------------------------------------------------------------------------
class TestQuery:
    def test_aggregate_matches_results_json(self, tmp_path):
        root = tmp_path / "runs"
        campaign = repro.run("table1", scale="smoke", root=root)
        results = json.loads(
            (campaign.out_dir / "results.json").read_text())
        expected = sum(r["accuracy"] for r in results["rows"]) / len(
            results["rows"])
        with Catalog(catalog_path(root)) as catalog:
            by_run = aggregate_metric(catalog, "accuracy", by="run")
        assert len(by_run) == 1
        assert by_run[0]["group"] == "table1-smoke"
        assert by_run[0]["n"] == len(results["rows"])
        assert by_run[0]["mean"] == pytest.approx(expected)

    def test_group_by_param_across_runs(self, tmp_path):
        root = tmp_path / "runs"
        spec_a = chaos_spec({"mode": "ok", "name": "x", "offset": 1},
                            {"mode": "ok", "name": "y", "offset": 5})
        repro.run(spec_a, seed=0, root=root)
        repro.run(spec_a, seed=10, root=root)
        with Catalog(catalog_path(root)) as catalog:
            rows = aggregate_metric(catalog, "value", by="name")
        by_group = {r["group"]: r for r in rows}
        assert by_group["x"]["n"] == 2
        assert by_group["x"]["mean"] == pytest.approx((1 + 11) / 2)
        assert by_group["y"]["mean"] == pytest.approx((5 + 15) / 2)

    def test_format_rows_csv_and_json(self):
        rows = [{"group": "a", "n": 1, "mean": 0.5, "min": 0.5, "max": 0.5}]
        csv_text = format_rows(rows, "csv")
        assert csv_text.splitlines()[0] == "group,n,mean,min,max"
        assert json.loads(format_rows(rows, "json")) == rows
        with pytest.raises(ValueError):
            format_rows(rows, "yaml")


# --------------------------------------------------------------------------
class TestIngest:
    def test_bench_file_roundtrip_and_replacement(self, tmp_path):
        bench = tmp_path / "BENCH_t.json"
        bench.write_text(json.dumps({"entries": [{
            "benchmark": "env_throughput", "scenario": "s",
            "timestamp": "2026-01-01T00:00:00",
            "results": [{"workload": "replay", "num_envs": 32,
                         "soa_steps_per_second": 100.0, "speedup": 2.5}],
            "headline_speedup": 2.5,
        }]}))
        with Catalog(tmp_path / "catalog.sqlite") as catalog:
            first = ingest_bench_file(catalog, bench)
            again = ingest_bench_file(catalog, bench)
            assert first == again
            total = catalog.conn.scalar("SELECT COUNT(*) FROM bench")
            assert total == first  # replaced, not appended
            rows = aggregate_bench(catalog, "speedup", by="num_envs")
            assert rows == [{"group": "32", "n": 1, "mean": 2.5,
                             "min": 2.5, "max": 2.5}]

    def test_record_bench_entry_appends(self, tmp_path):
        entry = {"benchmark": "train_throughput",
                 "results": [{"mode": "fast", "dtype": "float32",
                              "updates_per_second": 10.0}],
                 "speedups": {"updates_fast_vs_graph": 3.0}}
        with Catalog(tmp_path / "catalog.sqlite") as catalog:
            record_bench_entry(catalog, entry, "live")
            record_bench_entry(catalog, entry, "live")
            assert catalog.conn.scalar(
                "SELECT COUNT(*) FROM bench WHERE key ="
                " 'speedups.updates_fast_vs_graph'") == 2

    def test_checked_in_bench_files_ingest(self, tmp_path):
        """The repo's own BENCH_*.json trajectories must flatten cleanly."""
        with Catalog(tmp_path / "catalog.sqlite") as catalog:
            rows = 0
            for name in ("BENCH_throughput.json", "BENCH_train.json"):
                rows += ingest_bench_file(catalog, REPO_ROOT / name)
            assert rows > 0
            speedups = aggregate_bench(catalog, "speedup", by="num_envs",
                                       benchmark="env_throughput")
        assert speedups, "env_throughput speedup rows must survive ingest"


# --------------------------------------------------------------------------
@pytest.fixture
def server_root(tmp_path):
    root = tmp_path / "runs"
    repro.run("table1", scale="smoke", root=root)
    server = make_server(root, port=0)
    thread = threading.Thread(target=server.serve_forever, daemon=True)
    thread.start()
    try:
        yield root, server.server_address[1]
    finally:
        server.shutdown()
        server.server_close()


def _get(port: int, path: str):
    with urllib.request.urlopen(f"http://127.0.0.1:{port}{path}") as response:
        return json.loads(response.read())


class TestServer:
    def test_health_and_listing(self, server_root):
        root, port = server_root
        assert _get(port, "/api/health")["ok"] is True
        campaigns = _get(port, "/api/campaigns")["campaigns"]
        assert [c["run_id"] for c in campaigns] == ["table1-smoke"]
        assert "table1" in _get(port, "/api/experiments")["experiments"]

    def test_campaign_detail_rows_and_query(self, server_root):
        root, port = server_root
        detail = _get(port, "/api/campaigns/table1-smoke")
        assert detail["status"] == "complete"
        assert detail["provenance"]["spec_hash"]
        rows = _get(port, "/api/campaigns/table1-smoke/rows")["rows"]
        assert len(rows) == 4
        query = _get(port, "/api/query?metric=accuracy&by=attack_category")
        assert len(query["rows"]) == 4

    def test_unknown_routes_and_campaigns_404(self, server_root):
        root, port = server_root
        for path in ("/api/campaigns/nope", "/nothing/here"):
            with pytest.raises(urllib.error.HTTPError) as err:
                _get(port, path)
            assert err.value.code == 404

    def test_submit_then_drain_then_stream(self, server_root):
        root, port = server_root
        body = json.dumps({"experiment": "fig4", "scale": "smoke"}).encode()
        request = urllib.request.Request(
            f"http://127.0.0.1:{port}/api/campaigns", data=body,
            method="POST")
        with urllib.request.urlopen(request) as response:
            assert response.status == 201
            submitted = json.loads(response.read())["submitted"]
        assert submitted["run_id"] == "fig4-smoke"
        summary = work(root=root, run_id="fig4-smoke", worker_id="w1")
        assert summary.completed == submitted["cells"]
        with urllib.request.urlopen(
                f"http://127.0.0.1:{port}/api/campaigns/fig4-smoke/stream"
                "?timeout=10") as response:
            events = [json.loads(line) for line in response.read().splitlines()]
        kinds = [e["event"] for e in events]
        assert kinds[0] == "snapshot"
        assert kinds[-1] == "run"
        assert kinds.count("cell") == submitted["cells"]

    def test_bad_submit_rejected(self, server_root):
        root, port = server_root
        request = urllib.request.Request(
            f"http://127.0.0.1:{port}/api/campaigns", data=b"not json",
            method="POST")
        with pytest.raises(urllib.error.HTTPError) as err:
            urllib.request.urlopen(request)
        assert err.value.code == 400

    def test_health_reports_version_and_uptime(self, server_root):
        root, port = server_root
        health = _get(port, "/api/health")
        assert health["schema_version"] == 3
        assert health["started_unix"] > 1_700_000_000
        assert health["uptime_seconds"] >= 0.0
        assert health["code_version"]
        assert "queue_depth" in health

    def test_telemetry_report_read_and_roster(self, server_root):
        from repro.store.client import StoreClient

        root, port = server_root
        client = StoreClient(f"http://127.0.0.1:{port}", worker_id="wtel")
        recorded = client.post_telemetry(
            "wtel",
            [{"name": "worker.cells.completed", "kind": "counter",
              "value": 3.0}],
            spans=[{"name": "runner.cell", "seconds": 0.25,
                    "labels": {"cell": 0}}],
            host="testhost", pid=os.getpid())
        assert recorded["recorded"] == {"points": 1, "spans": 1}
        read = _get(port, "/api/telemetry?name=worker.cells.completed")
        assert read["points"][0]["worker"] == "wtel"
        assert read["points"][0]["value"] == 3.0
        totals = {t["name"]: t["total"] for t in read["totals"]}
        assert totals["worker.cells.completed"] == 3.0
        roster = _get(port, "/api/workers")["workers"]
        entry = next(w for w in roster if w["worker"] == "wtel")
        assert entry["alive"] is True
        assert entry["pid"] == os.getpid()

    def test_follow_campaign_survives_restart(self, tmp_path):
        """The ``repro top`` stream consumer resumes across a server restart.

        A campaign is half-drained, the server shuts down mid-stream (the
        follower sees the ``shutdown`` event), a new server binds the same
        port, and the drain finishes — the follower must yield every cell
        exactly once plus the terminal run event.
        """
        from repro.store.client import StoreClient

        spec = chaos_spec(*({"mode": "ok", "name": f"c{i}"}
                            for i in range(3)))
        root = tmp_path / "runs"
        submission = submit_campaign(spec, root=root)
        server = make_server(root, port=0)
        port = server.server_address[1]
        threading.Thread(target=server.serve_forever, daemon=True).start()

        client = StoreClient(f"http://127.0.0.1:{port}", worker_id="follower",
                             timeout=5.0, max_retries=8, backoff=0.05)
        events = []
        done = threading.Event()

        def follow():
            try:
                for event in client.follow_campaign(submission.run_id,
                                                    poll_timeout=2.0):
                    events.append(event)
            finally:
                done.set()

        follower = threading.Thread(target=follow, daemon=True)
        follower.start()
        work(root=root, run_id=submission.run_id, worker_id="w1", max_cells=1)
        deadline = time.perf_counter() + 10
        while time.perf_counter() < deadline and not any(
                e["event"] == "cell" for e in events):
            time.sleep(0.05)
        server.shutdown()
        server.server_close()
        deadline = time.perf_counter() + 10
        while time.perf_counter() < deadline and not any(
                e["event"] == "shutdown" for e in events):
            time.sleep(0.05)
        assert any(e["event"] == "shutdown" for e in events)

        server = make_server(root, port=port)
        threading.Thread(target=server.serve_forever, daemon=True).start()
        try:
            work(root=root, run_id=submission.run_id, worker_id="w2")
            assert done.wait(timeout=20), f"follower never finished: {events}"
        finally:
            server.shutdown()
            server.server_close()
        cells = [e for e in events if e["event"] == "cell"]
        assert sorted(c["index"] for c in cells) == [0, 1, 2]
        assert len(cells) == 3  # dedup across reconnects: each cell once
        assert [e for e in events if e["event"] == "snapshot"] == events[:1]
        assert events[-1]["event"] == "run"
        assert events[-1]["status"] == "complete"


# --------------------------------------------------------------------------
class TestCLI:
    def test_status_prefers_catalogue(self, tmp_path, capsys):
        root = tmp_path / "runs"
        assert cli_main(["status", "--root", str(root)]) == 0
        assert "no catalogue" in capsys.readouterr().out
        repro.run("table1", scale="smoke", root=root)
        assert cli_main(["status", "--root", str(root)]) == 0
        out = capsys.readouterr().out
        assert "table1-smoke" in out and "catalogue" in out

    def test_query_and_list_keys(self, tmp_path, capsys):
        root = tmp_path / "runs"
        repro.run("table1", scale="smoke", root=root)
        assert cli_main(["query", "accuracy", "--by", "attack_category",
                         "--root", str(root), "--format", "csv"]) == 0
        out = capsys.readouterr().out
        assert out.startswith("group,n,mean,min,max")
        assert cli_main(["query", "--list-keys", "--root", str(root)]) == 0
        assert "accuracy" in capsys.readouterr().out

    def test_query_without_catalog_fails_cleanly(self, tmp_path, capsys):
        assert cli_main(["query", "accuracy",
                         "--root", str(tmp_path / "nope")]) == 1

    def test_submit_work_roundtrip(self, tmp_path, capsys):
        root = tmp_path / "runs"
        assert cli_main(["submit", "table1", "--scale", "smoke",
                         "--root", str(root)]) == 0
        assert "4 job(s)" in capsys.readouterr().out
        assert cli_main(["work", "--root", str(root)]) == 0
        summary = json.loads(capsys.readouterr().out)
        assert summary["completed"] == 4
        assert (root / "table1-smoke" / "results.json").exists()

    def test_store_ingest(self, tmp_path, capsys):
        root = tmp_path / "runs"
        assert cli_main(["store", "ingest", "--root", str(root), "--bench",
                         str(REPO_ROOT / "BENCH_throughput.json")]) == 0
        out = capsys.readouterr().out
        assert "bench row(s)" in out and str(catalog_path(root)) in out
        with Catalog(catalog_path(root)) as catalog:
            assert catalog.conn.scalar("SELECT COUNT(*) FROM bench") > 0
            assert catalog.list_runs() == []

    def test_status_watch_reprints_until_interrupted(self, tmp_path,
                                                     capsys, monkeypatch):
        root = tmp_path / "runs"
        repro.run("table1", scale="smoke", root=root)
        ticks = iter([None, None])

        def fake_sleep(seconds):
            assert seconds == 1.0
            if next(ticks, "done") == "done":
                raise KeyboardInterrupt

        monkeypatch.setattr(time, "sleep", fake_sleep)
        assert cli_main(["status", "--root", str(root), "--watch", "1"]) == 0
        out = capsys.readouterr().out
        assert out.count("table1-smoke") == 3  # one table per tick
        assert "refreshing every 1s" in out

    def test_status_shows_workers_column_while_draining(self, tmp_path,
                                                        capsys):
        spec = chaos_spec({"mode": "ok", "name": "a"},
                          {"mode": "ok", "name": "b"})
        root = tmp_path / "runs"
        submission = submit_campaign(spec, root=root)

        def header(text):
            return next(l for l in text.splitlines()
                        if l.startswith("campaign"))

        assert cli_main(["status", "--root", str(root)]) == 0
        assert "workers" not in header(capsys.readouterr().out)  # none leased
        with Catalog(catalog_path(root)) as catalog:
            JobQueue(catalog).claim("w1")
            assert cli_main(["status", "--root", str(root)]) == 0
            out = capsys.readouterr().out
        assert "workers" in header(out)
        line = next(l for l in out.splitlines()
                    if l.startswith(submission.run_id))
        assert " 1 " in line  # one distinct worker holds a lease

    def test_top_once_local_and_server(self, tmp_path, capsys):
        root = tmp_path / "runs"
        repro.run("table1", scale="smoke", root=root)
        assert cli_main(["top", "--root", str(root), "--once"]) == 0
        out = capsys.readouterr().out
        assert "repro top" in out and "table1-smoke" in out
        assert "[" in out and "4/4" in out  # the progress bar

        server = make_server(root, port=0)
        port = server.server_address[1]
        threading.Thread(target=server.serve_forever, daemon=True).start()
        try:
            assert cli_main(["top", "--server",
                             f"http://127.0.0.1:{port}", "--once"]) == 0
        finally:
            server.shutdown()
            server.server_close()
        out = capsys.readouterr().out
        assert "table1-smoke" in out and "schema=v3" in out

    def test_top_without_catalog_reports_error_frame(self, tmp_path, capsys):
        assert cli_main(["top", "--root", str(tmp_path / "nope"),
                         "--once"]) == 0
        assert "no catalogue" in capsys.readouterr().out
