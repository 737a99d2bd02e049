"""Tests for the remote-worker transport: StoreClient, chaos, lease HTTP.

Unit tests drive :class:`~repro.store.client.StoreClient` against a fake
in-memory transport (taxonomy, deterministic backoff, idempotency keys) and
the :class:`~repro.store.chaos.ChaosProxy` fault kinds against a counting
upstream; the live tests run a real
:class:`~repro.store.server.CampaignServer` and prove the acceptance
criterion — a chaos-perturbed multi-worker HTTP drain, including a
mid-drain server kill + restart, yields rows bit-identical to serial
``repro.run()`` with exactly one applied completion per cell.
"""

from __future__ import annotations

import json
import sqlite3
import sys
import threading
import time
import urllib.request
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer
from pathlib import Path

import pytest

import repro
from repro.runs.cli import main as cli_main
from repro.runs.faults import Fault, FaultPlan, NetworkChaosPlan, NetworkFault
from repro.store import Catalog, JobQueue, catalog_path
from repro.store.chaos import ChaosProxy
from repro.store.connection import StoreConnection
from repro.store.client import (
    BACKOFF_CAP_SECONDS,
    FatalRequestError,
    RetryableTransportError,
    StoreClient,
    backoff_schedule,
)
from repro.store.server import make_server
from repro.store.worker import submit_campaign, work

from campaign_helpers import chaos_spec, ok_cells

REPO_ROOT = Path(__file__).resolve().parents[1]


class FakeTransport:
    """Scripted transport: pops ``(status, body)`` or raises an exception."""

    def __init__(self, *script):
        self.script = list(script)
        self.requests = []

    def __call__(self, method, url, body, headers, timeout):
        self.requests.append({"method": method, "url": url, "body": body,
                              "timeout": timeout})
        step = self.script.pop(0)
        if isinstance(step, BaseException):
            raise step
        return step


def client_with(transport, **kwargs):
    kwargs.setdefault("backoff", 0.0)
    return StoreClient("http://fake", worker_id="w1", transport=transport,
                       sleep=lambda _s: None, **kwargs)


# --------------------------------------------------------------------------
class TestErrorTaxonomy:
    def test_4xx_is_fatal_and_never_retried(self):
        transport = FakeTransport((404, b'{"error": "nope"}'))
        client = client_with(transport, max_retries=5)
        with pytest.raises(FatalRequestError) as err:
            client.get("/api/campaigns/nope")
        assert err.value.status == 404
        assert len(transport.requests) == 1

    def test_5xx_retried_until_budget_exhausted(self):
        transport = FakeTransport(*[(503, b"busy")] * 3)
        client = client_with(transport, max_retries=2)
        with pytest.raises(RetryableTransportError) as err:
            client.health()
        assert err.value.status == 503
        assert err.value.attempts == 3
        assert len(transport.requests) == 3

    def test_connection_errors_retried_then_succeed(self):
        transport = FakeTransport(ConnectionResetError("rst"),
                                  TimeoutError("deadline"),
                                  (200, b'{"ok": true}'))
        client = client_with(transport, max_retries=4)
        assert client.health() == {"ok": True}
        assert len(transport.requests) == 3

    def test_torn_2xx_body_is_retryable(self):
        transport = FakeTransport((200, b'{"ok": tr'),  # torn mid-flight
                                  (200, b'{"ok": true}'))
        client = client_with(transport, max_retries=1)
        assert client.health() == {"ok": True}

    def test_every_request_carries_the_deadline(self):
        transport = FakeTransport((200, b"{}"), (200, b"{}"))
        client = client_with(transport, timeout=7.5)
        client.get("/api/health")
        client.request("GET", "/api/health", timeout=1.25)
        assert [r["timeout"] for r in transport.requests] == [7.5, 1.25]


class TestDeterministicBackoff:
    def test_schedule_is_deterministic_and_capped(self):
        first = backoff_schedule(0.25, 8, seed=42)
        again = backoff_schedule(0.25, 8, seed=42)
        other = backoff_schedule(0.25, 8, seed=43)
        assert first == again
        assert first != other
        assert all(d <= BACKOFF_CAP_SECONDS * 1.25 for d in first)
        # Exponential growth up to the cap, jitter never negative.
        assert first[0] >= 0.25 and first[1] >= 0.5 and first[2] >= 1.0

    def test_client_sleeps_the_schedule(self):
        slept = []
        transport = FakeTransport(*[(500, b"x")] * 4)
        client = StoreClient("http://fake", worker_id="w1",
                             transport=transport, max_retries=3,
                             backoff=0.25, retry_seed=7,
                             sleep=slept.append)
        with pytest.raises(RetryableTransportError):
            client.health()
        assert slept == backoff_schedule(0.25, 3, seed=7)


class TestIdempotencyKeys:
    def _keys_of(self, transport):
        return [json.loads(r["body"])["idempotency_key"]
                for r in transport.requests]

    def test_each_mutation_gets_a_fresh_key(self):
        transport = FakeTransport((200, b'{"job": null}'),
                                  (200, b'{"job": null}'))
        client = client_with(transport)
        client.claim()
        client.claim()
        keys = self._keys_of(transport)
        assert len(set(keys)) == 2
        assert all(key.startswith("w1.") for key in keys)

    def test_retries_reuse_the_same_key(self):
        transport = FakeTransport(ConnectionResetError("rst"), (500, b"x"),
                                  (200, b'{"applied": true}'))
        client = client_with(transport, max_retries=4)
        client.complete("run", 0, status="completed", row={"v": 1},
                        attempts=1)
        keys = self._keys_of(transport)
        assert len(keys) == 3
        assert len(set(keys)) == 1  # one logical mutation, one key

    def test_restarted_client_cannot_replay_old_keys(self):
        # Same worker_id, new process: the per-instance session token keeps
        # the key spaces disjoint, so a stale recorded response can never be
        # replayed to a new incarnation.
        t1, t2 = FakeTransport((200, b"{}")), FakeTransport((200, b"{}"))
        client_with(t1).claim()
        client_with(t2).claim()
        assert self._keys_of(t1) != self._keys_of(t2)

    def test_heartbeats_carry_no_key(self):
        transport = FakeTransport((200, b'{"alive": true}'))
        client = client_with(transport)
        assert client.heartbeat("run", 0) is True
        assert "idempotency_key" not in json.loads(
            transport.requests[0]["body"])


class _CountingHandler(BaseHTTPRequestHandler):
    """Upstream stand-in: records each delivered path, answers ``{}``."""

    def _reply(self):
        self.rfile.read(int(self.headers.get("Content-Length") or 0))
        self.server.paths.append(self.path)
        self.send_response(200)
        self.send_header("Content-Length", "2")
        self.end_headers()
        self.wfile.write(b"{}")

    do_GET = do_POST = _reply

    def log_message(self, *_args):
        pass


@pytest.fixture
def chaos_proxy():
    """``start(*faults)`` -> (delivered paths, proxy, no-retry client)."""
    started = []

    def start(*faults):
        upstream = ThreadingHTTPServer(("127.0.0.1", 0), _CountingHandler)
        upstream.paths = []
        threading.Thread(target=upstream.serve_forever, daemon=True).start()
        proxy = ChaosProxy(upstream.server_address[:2],
                           NetworkChaosPlan(faults=faults)).start()
        started.append((upstream, proxy))
        client = StoreClient(f"http://{proxy.address[0]}:{proxy.address[1]}",
                             timeout=5.0, max_retries=0)
        return upstream.paths, proxy, client

    yield start
    for upstream, proxy in started:
        proxy.stop()
        upstream.shutdown()
        upstream.server_close()


class TestChaosProxy:
    def test_reset_fires_before_delivery(self, chaos_proxy):
        delivered, _proxy, client = chaos_proxy(NetworkFault(kind="reset"))
        with pytest.raises(RetryableTransportError):
            client.get("/api/health")
        assert delivered == []  # request never reached the upstream

    def test_http_500_is_synthetic(self, chaos_proxy):
        delivered, _proxy, client = chaos_proxy(NetworkFault(kind="http-500"))
        with pytest.raises(RetryableTransportError) as err:
            client.get("/api/health")
        assert err.value.status == 500
        assert delivered == []

    def test_drop_response_delivers_then_raises(self, chaos_proxy):
        delivered, _proxy, client = chaos_proxy(
            NetworkFault(kind="drop-response"))
        with pytest.raises(RetryableTransportError):
            client.post("/api/jobs/complete", {})
        assert delivered == ["/api/jobs/complete"]  # the mutation WAS applied

    def test_duplicate_delivers_twice(self, chaos_proxy):
        delivered, _proxy, client = chaos_proxy(NetworkFault(kind="duplicate"))
        assert client.post("/api/jobs/complete", {}) == {}
        assert delivered == ["/api/jobs/complete"] * 2

    def test_op_filter_and_request_index(self, chaos_proxy):
        delivered, proxy, client = chaos_proxy(
            NetworkFault(kind="reset", at_request=1, op="claim"))
        client.post("/api/jobs/complete", {})  # no match
        client.post("/api/jobs/claim", {})     # index 0
        with pytest.raises(RetryableTransportError):
            client.post("/api/jobs/claim", {})  # index 1
        assert proxy.fired == [{"kind": "reset", "path": "/api/jobs/claim"}]
        assert delivered == ["/api/jobs/complete", "/api/jobs/claim"]


# --------------------------------------------------------------------------
@pytest.fixture
def lease_server(tmp_path):
    """A live server over a submitted 2-cell chaos campaign."""
    root = tmp_path / "server"
    submit_campaign(chaos_spec(*ok_cells(2)), root=root)
    server = make_server(root, port=0)
    thread = threading.Thread(target=server.serve_forever, daemon=True)
    thread.start()
    url = f"http://127.0.0.1:{server.server_address[1]}"
    try:
        yield root, server, url
    finally:
        server.shutdown()
        server.server_close()


@pytest.fixture
def serving():
    """Start live servers over runs roots; each is stopped at teardown."""
    servers = []

    def start(root):
        server = make_server(root, port=0)
        threading.Thread(target=server.serve_forever, daemon=True).start()
        servers.append(server)
        return server, f"http://127.0.0.1:{server.server_address[1]}"

    yield start
    for server in servers:
        server.shutdown()
        server.server_close()


class TestLeaseProtocolHTTP:
    def test_claim_heartbeat_complete_roundtrip(self, lease_server):
        root, server, url = lease_server
        client = StoreClient(url, worker_id="w1", backoff=0.01)
        assert client.outstanding("chaos-smoke") == 2
        job = client.claim(run_id="chaos-smoke")
        assert job["cell_index"] == 0
        assert job["payload"]["params"]["name"] == "c0"
        assert client.heartbeat("chaos-smoke", 0) is True
        response = client.complete("chaos-smoke", 0, status="completed",
                                   row={"name": "c0", "value": 1.0},
                                   attempts=1)
        assert response["applied"] is True
        assert client.outstanding("chaos-smoke") == 1
        health = client.health()
        assert health["queue_depth"] == 1
        assert health["active_leases"] == 0
        assert health["draining"] is False

    def test_duplicate_complete_replays_and_single_lease_event(
            self, lease_server):
        root, server, url = lease_server
        client = StoreClient(url, worker_id="w1", backoff=0.01)
        job = client.claim(run_id="chaos-smoke")
        body = {"worker": "w1", "run_id": "chaos-smoke",
                "cell_index": job["cell_index"], "status": "completed",
                "row": {"name": "c0", "value": 1.0}, "attempts": 1,
                "idempotency_key": "w1.feed.000001.complete"}
        first = client.post("/api/jobs/complete", body)
        second = client.post("/api/jobs/complete", body)  # duplicated delivery
        assert first["applied"] is True
        assert "replayed" not in first
        assert second["applied"] is True
        assert second["replayed"] is True
        with Catalog(catalog_path(root)) as catalog:
            events = JobQueue(catalog).lease_events("chaos-smoke")
        completed = [e for e in events if e["event"] == "completed"]
        assert len(completed) == 1

    def test_interrupted_release_past_budget_reads_failed(self, lease_server):
        root, server, url = lease_server
        client = StoreClient(url, worker_id="w1", backoff=0.01)
        states = []
        for _ in range(3):  # the server's default queue budget
            job = client.claim(run_id="chaos-smoke")
            assert job["cell_index"] == 0
            states.append(client.release(
                "chaos-smoke", 0, status="interrupted", error="killed",
                attempts=job["attempts"])["state"])
        assert states == ["pending", "pending", "failed"]
        with Catalog(catalog_path(root)) as catalog:
            assert catalog.run_info("chaos-smoke")["status"] == "failed"

    def test_release_retires_against_the_workers_budget(self, tmp_path,
                                                        serving):
        # With repro work --max-job-attempts 1, the first interrupted release
        # retires the job; the server's default budget would re-queue it.
        root = tmp_path / "server"
        plan = FaultPlan(faults=(Fault(kind="kill", cell=0,
                                       artifact="result"),))
        submit_campaign(chaos_spec(*ok_cells(1)), root=root, fault_plan=plan)
        server, url = serving(root)
        summary = _drain_remote(url, tmp_path / "w1", "w1",
                                max_job_attempts=1)
        assert summary.failed == 1
        with Catalog(catalog_path(root)) as catalog:
            queue = JobQueue(catalog)
            assert queue.counts("chaos-smoke") == {"failed": 1}
            events = [e["event"] for e in queue.lease_events("chaos-smoke")]
            assert events == ["claimed", "failed"]
            assert catalog.run_info("chaos-smoke")["status"] == "failed"

    def test_lost_ownership_complete_not_applied(self, lease_server):
        root, server, url = lease_server
        loser = StoreClient(url, worker_id="loser", backoff=0.01)
        job = loser.claim(run_id="chaos-smoke", lease_ttl=-1)  # born expired
        winner = StoreClient(url, worker_id="winner", backoff=0.01)
        reclaimed = winner.claim(run_id="chaos-smoke")
        assert reclaimed["reclaimed_from"] == "loser"
        assert loser.heartbeat("chaos-smoke", job["cell_index"]) is False
        late = loser.complete("chaos-smoke", job["cell_index"],
                              status="completed", row={"v": 1},
                              attempts=1)
        assert late["applied"] is False
        good = winner.complete("chaos-smoke", reclaimed["cell_index"],
                               status="completed", row={"v": 1},
                               attempts=2)
        assert good["applied"] is True

    def test_stale_release_after_reclaim_is_lost(self, tmp_path, serving):
        root = tmp_path / "server"
        submit_campaign(chaos_spec(*ok_cells(1)), root=root)
        server, url = serving(root)
        loser = StoreClient(url, worker_id="loser", backoff=0.01)
        winner = StoreClient(url, worker_id="winner", backoff=0.01)
        stale = loser.claim(run_id="chaos-smoke", lease_ttl=-1)  # born expired
        job = winner.claim(run_id="chaos-smoke")
        assert job["reclaimed_from"] == "loser"
        row = {"name": "c0", "value": 1.0}
        assert winner.complete("chaos-smoke", 0, status="completed", row=row,
                               attempts=job["attempts"])["applied"] is True
        late = loser.release("chaos-smoke", 0, status="failed",
                             error="late failure", attempts=stale["attempts"])
        assert late["state"] == "lost"
        assert winner.get("/api/campaigns/chaos-smoke/rows")["rows"] == [row]
        info = winner.get("/api/campaigns/chaos-smoke")
        assert info["status"] == "complete"
        assert info["cell_statuses"][0]["status"] == "completed"
        assert info["queue"] == {"done": 1}
        results = json.loads((root / "chaos-smoke" / "results.json").read_text())
        assert results["rows"] == [row]

    def test_draining_server_refuses_claims_with_503(self, lease_server):
        root, server, url = lease_server
        server.draining = True  # drain announced, accept loop still up
        client = StoreClient(url, worker_id="w1", max_retries=1, backoff=0.01)
        with pytest.raises(RetryableTransportError) as err:
            client.claim(run_id="chaos-smoke")
        assert err.value.status == 503
        assert client.health()["draining"] is True

    def test_body_cap_enforced_with_413(self, lease_server):
        root, server, url = lease_server
        server.max_body_bytes = 64
        client = StoreClient(url, worker_id="w1", backoff=0.01)
        with pytest.raises(FatalRequestError) as err:
            client.post("/api/jobs/heartbeat",
                        {"worker": "w1", "run_id": "chaos-smoke",
                         "cell_index": 0, "padding": "x" * 256})
        assert err.value.status == 413

    def test_stream_observes_shutdown_promptly(self, lease_server):
        root, server, url = lease_server
        events = []

        def consume():
            with urllib.request.urlopen(
                    f"{url}/api/campaigns/chaos-smoke/stream?timeout=60"
            ) as response:
                for line in response:
                    events.append(json.loads(line))

        consumer = threading.Thread(target=consume)
        consumer.start()
        time.sleep(0.5)  # snapshot delivered, stream now long-polling
        started = time.perf_counter()
        server.initiate_drain()
        consumer.join(timeout=10)
        elapsed = time.perf_counter() - started
        assert not consumer.is_alive()
        assert events[0]["event"] == "snapshot"
        assert events[-1]["event"] == "shutdown"
        assert elapsed < 5.0  # one poll interval, not the 60s budget


# --------------------------------------------------------------------------
@pytest.fixture
def opened_connections(monkeypatch):
    """Every StoreConnection built from here on, with its building thread."""
    opened = []
    init = StoreConnection.__init__

    def counting_init(self, *args, **kwargs):
        init(self, *args, **kwargs)
        opened.append((self, threading.current_thread().name))

    monkeypatch.setattr(StoreConnection, "__init__", counting_init)
    return opened


def _claim_concurrently(url, workers):
    """``workers`` clients claim at the same instant; the jobs they got."""
    barrier = threading.Barrier(workers)
    jobs = {}

    def claim(name):
        client = StoreClient(url, worker_id=name, backoff=0.01)
        barrier.wait()
        jobs[name] = client.claim(run_id="chaos-smoke")

    threads = [threading.Thread(target=claim, args=(f"w{i}",))
               for i in range(workers)]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join(timeout=60)
    assert all(not t.is_alive() for t in threads)
    return jobs


class TestCatalogPool:
    def test_requests_reuse_pooled_connections(self, tmp_path, serving,
                                               opened_connections):
        root = tmp_path / "server"
        submit_campaign(chaos_spec(*ok_cells(20)), root=root)
        server, url = serving(root)
        client = StoreClient(url, worker_id="w1", backoff=0.01)
        requests = 0
        while True:
            job = client.claim(run_id="chaos-smoke")
            requests += 1
            if job is None:
                break
            client.complete("chaos-smoke", job["cell_index"],
                            status="completed", row={"v": 1}, attempts=1)
            client.get("/api/campaigns/chaos-smoke")
            requests += 2
        assert requests >= 50
        # The telemetry flusher opens its own connection once per flush
        # interval; every request-path open counts.
        opened = [conn for conn, thread in opened_connections
                  if thread != "telemetry-flush"]
        assert len(opened) <= 3, \
            f"{len(opened)} catalogue opens for {requests} requests"

    def test_concurrent_claims_get_distinct_jobs(self, tmp_path, serving):
        root = tmp_path / "server"
        submit_campaign(chaos_spec(*ok_cells(10)), root=root)
        server, url = serving(root)
        # More threads than cores, switching often: a pool that lent one
        # connection to two threads would lose or duplicate a claim.
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            jobs = _claim_concurrently(url, 8)
        finally:
            sys.setswitchinterval(interval)
        cells = sorted(job["cell_index"] for job in jobs.values())
        assert len(set(cells)) == 8
        with Catalog(catalog_path(root)) as catalog:
            queue = JobQueue(catalog)
            claimed = sorted(e["cell_index"] for e in
                             queue.lease_events("chaos-smoke")
                             if e["event"] == "claimed")
            assert queue.counts("chaos-smoke") == {"leased": 8, "pending": 2}
        assert claimed == cells

    def test_server_close_closes_pool_and_removes_wal(
            self, tmp_path, serving, opened_connections):
        root = tmp_path / "server"
        submit_campaign(chaos_spec(*ok_cells(10)), root=root)
        del opened_connections[:]
        server, url = serving(root)
        _claim_concurrently(url, 8)
        StoreClient(url).get("/api/campaigns/chaos-smoke")
        assert (root / "catalog.sqlite-wal").exists()  # kept open
        server.shutdown()
        server.server_close()
        assert opened_connections
        for conn, _thread in opened_connections:
            with pytest.raises(sqlite3.ProgrammingError):
                conn.execute("SELECT 1")
        assert not (root / "catalog.sqlite-wal").exists()


def _drain_remote(url, root, name, **kwargs):
    kwargs.setdefault("client_backoff", 0.05)
    kwargs.setdefault("client_retries", 8)
    kwargs.setdefault("poll_seconds", 0.1)
    return work(root=root, run_id="chaos-smoke", worker_id=name, server=url,
                **kwargs)


def _assert_drained_bit_identical(serial_root, server_root, cells):
    serial = (serial_root / "chaos-smoke" / "results.json").read_bytes()
    drained = (server_root / "chaos-smoke" / "results.json").read_bytes()
    assert drained == serial
    with Catalog(catalog_path(server_root)) as catalog:
        queue = JobQueue(catalog)
        events = queue.lease_events("chaos-smoke")
        assert queue.outstanding("chaos-smoke") == 0
    completed = sorted(e["cell_index"] for e in events
                       if e["event"] == "completed")
    assert completed == list(range(cells)), \
        f"expected exactly one applied completion per cell, got {completed}"


class TestRemoteDrain:
    CELLS = 6

    def _prepared(self, tmp_path):
        spec = chaos_spec(*ok_cells(self.CELLS))
        serial_root = tmp_path / "serial"
        server_root = tmp_path / "server"
        repro.run(spec, root=serial_root)
        submit_campaign(spec, root=server_root)
        return serial_root, server_root

    def _run_workers(self, url, tmp_path, names=("w1", "w2")):
        summaries = {}

        def drain(name):
            summaries[name] = _drain_remote(url, tmp_path / name, name)

        threads = [threading.Thread(target=drain, args=(name,))
                   for name in names]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=120)
        assert all(not t.is_alive() for t in threads)
        return summaries

    @staticmethod
    def _proxy(port, plan):
        """A chaos proxy in front of the server on ``port``, and its URL."""
        proxy = ChaosProxy(("127.0.0.1", port), plan).start()
        return proxy, f"http://{proxy.address[0]}:{proxy.address[1]}"

    def _chaos_drain(self, tmp_path, plan):
        """Two workers drain through a proxy running ``plan``; the kinds fired.

        The drain must still be bit-identical to the serial run.
        """
        serial_root, server_root = self._prepared(tmp_path)
        server = make_server(server_root, port=0)
        threading.Thread(target=server.serve_forever, daemon=True).start()
        proxy, url = self._proxy(server.server_address[1], plan)
        try:
            summaries = self._run_workers(url, tmp_path)
        finally:
            proxy.stop()
            server.shutdown()
            server.server_close()
        assert sum(s.completed for s in summaries.values()) >= self.CELLS
        _assert_drained_bit_identical(serial_root, server_root, self.CELLS)
        return {f["kind"] for f in proxy.fired}

    def test_two_http_workers_bit_identical_under_chaos(self, tmp_path):
        fired = self._chaos_drain(tmp_path, NetworkChaosPlan(faults=(
            NetworkFault(kind="reset", at_request=1, op="claim"),
            NetworkFault(kind="http-500", at_request=2, op="claim"),
            NetworkFault(kind="stall", at_request=3, op="claim",
                         delay_seconds=0.2),
            NetworkFault(kind="drop-response", at_request=0, op="complete"),
            NetworkFault(kind="duplicate", at_request=2, op="complete"),
        )))
        assert fired == {
            "reset", "http-500", "stall", "drop-response", "duplicate"}

    def test_mid_drain_server_kill_and_restart(self, tmp_path):
        serial_root, server_root = self._prepared(tmp_path)
        server = make_server(server_root, port=0)
        port = server.server_address[1]
        threading.Thread(target=server.serve_forever, daemon=True).start()
        chaos = NetworkChaosPlan(faults=(
            NetworkFault(kind="reset", at_request=0, op="complete"),))
        proxy, url = self._proxy(port, chaos)
        workers = threading.Thread(
            target=lambda: self._run_workers(url, tmp_path))
        workers.start()
        # Kill the server after the first completed cell, then restart it on
        # the same port; the workers' retry budgets ride out the outage.
        deadline = time.perf_counter() + 60
        while time.perf_counter() < deadline:
            with Catalog(catalog_path(server_root)) as catalog:
                done = catalog.conn.scalar(
                    "SELECT COUNT(*) FROM jobs WHERE state = 'done'")
            if done:
                break
            time.sleep(0.05)
        else:
            pytest.fail("no cell completed before the kill window")
        server.shutdown()
        server.server_close()
        time.sleep(0.25)
        restarted = make_server(server_root, port=port)
        threading.Thread(target=restarted.serve_forever, daemon=True).start()
        try:
            workers.join(timeout=120)
            assert not workers.is_alive()
        finally:
            proxy.stop()
            restarted.shutdown()
            restarted.server_close()
        assert [f["kind"] for f in proxy.fired] == ["reset"]
        _assert_drained_bit_identical(serial_root, server_root, self.CELLS)

    def test_drain_through_tcp_chaos_proxy(self, tmp_path):
        fired = self._chaos_drain(tmp_path, NetworkChaosPlan(faults=(
            NetworkFault(kind="reset", at_request=0, op="claim"),
            NetworkFault(kind="duplicate", at_request=1, op="complete"),
            NetworkFault(kind="drop-response", at_request=2, op="complete"),
            NetworkFault(kind="http-500", at_request=3, op="claim"),
        )))
        assert {"reset", "duplicate", "drop-response"} <= fired


# --------------------------------------------------------------------------
class TestRemoteWorkCLI:
    def test_unreachable_server_exits_5(self, tmp_path, capsys):
        code = cli_main(["work", "--root", str(tmp_path / "runs"),
                         "--server", "http://127.0.0.1:1",
                         "--client-retries", "1",
                         "--client-backoff", "0.01"])
        assert code == 5
        assert "worker gave up" in capsys.readouterr().err
