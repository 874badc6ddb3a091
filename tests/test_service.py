"""Service API, HTTP transport and daemon lifecycle.

Three layers, pinned separately:

* **in-process transport seam** — :class:`repro.service.ServiceAPI`
  driven directly (the exact objects the HTTP handler calls), so these
  tests exercise scheduling semantics without sockets;
* **HTTP framing/auth** — a :class:`repro.service.ServiceServer` on a
  daemon thread: bearer-token auth in constant time, JSON framing,
  error mapping (400/401/404);
* **daemon lifecycle** — a real ``python -m repro.service`` subprocess:
  submit two jobs over the wire, poll ``/metrics``, SIGTERM, and assert
  a graceful drain with zero lost or double-counted jobs.
"""

from __future__ import annotations

import http.client
import json
import os
import signal
import subprocess
import sys
import time
import urllib.error
import urllib.parse
import urllib.request
from pathlib import Path

import pytest

from conftest import wait_for
from repro.exceptions import ConfigurationError
from repro.service import (
    ReplayConfig,
    ServiceAPI,
    ServiceServer,
    ServiceSession,
    VirtualClock,
)

REPO_ROOT = Path(__file__).resolve().parent.parent


def make_api(processors=16, mtbf_years=0.05, seed=11):
    clock = VirtualClock()
    config = ReplayConfig(
        processors=processors, mtbf_years=mtbf_years, seed=seed
    )
    session = ServiceSession(config.engine(), clock)
    return ServiceAPI(session), session, clock


class TestVirtualClock:
    def test_advances_and_sets_monotonically(self):
        clock = VirtualClock()
        clock.advance(5.0)
        clock.set(9.0)
        assert clock.now() == 9.0

    def test_rejects_time_travel(self):
        clock = VirtualClock(start=10.0)
        with pytest.raises(ConfigurationError):
            clock.set(9.0)
        with pytest.raises(ConfigurationError):
            clock.advance(-1.0)


class TestServiceAPI:
    def test_submit_assigns_processors_and_runs(self):
        api, _session, _clock = make_api()
        response = api.handle("submit", {"job_id": "alpha", "size": 8_000.0})
        job = response["job"]
        assert job["status"] == "running"
        assert 2 <= job["sigma"] <= 16
        assert job["alpha_remaining"] == 1.0

    def test_auto_job_ids_are_sequential(self):
        api, _session, _clock = make_api()
        first = api.handle("submit", {"size": 7_000.0})["job"]["job_id"]
        second = api.handle("submit", {"size": 7_000.0})["job"]["job_id"]
        assert [first, second] == ["job-0001", "job-0002"]

    def test_duplicate_job_id_rejected(self):
        api, _session, _clock = make_api()
        api.handle("submit", {"job_id": "dup", "size": 7_000.0})
        with pytest.raises(ConfigurationError):
            api.handle("submit", {"job_id": "dup", "size": 7_000.0})

    def test_submit_validates_size(self):
        api, _session, _clock = make_api()
        with pytest.raises(ConfigurationError):
            api.handle("submit", {})
        with pytest.raises(ConfigurationError):
            api.handle("submit", {"size": "not-a-number"})
        with pytest.raises(ConfigurationError):
            api.handle("submit", {"size": -3.0})

    def test_unknown_and_private_operations_raise_lookup(self):
        api, _session, _clock = make_api()
        with pytest.raises(LookupError):
            api.handle("explode", {})
        with pytest.raises(LookupError):
            api.handle("_op_submit", {})
        with pytest.raises(LookupError):
            api.handle("SUBMIT", {})

    def test_capacity_queueing_then_completion_admission(self):
        # p=4 admits at most one buddy-pair job alongside another:
        # 2*(n_active+1) <= p  =>  two running, the third queues.
        api, session, clock = make_api(processors=4)
        for name in ("a", "b", "c"):
            api.handle("submit", {"job_id": name, "size": 6_500.0})
        by_id = {j["job_id"]: j for j in api.handle("jobs", {})["jobs"]}
        assert by_id["a"]["status"] == "running"
        assert by_id["b"]["status"] == "running"
        assert by_id["c"]["status"] == "queued"
        # fast-forward the virtual timeline: completions admit the queue
        clock.set(1e9)
        by_id = {j["job_id"]: j for j in api.handle("jobs", {})["jobs"]}
        assert all(j["status"] == "completed" for j in by_id.values())
        assert api.handle("status", {})["queue_depth"] == 0

    def test_cancel_queued_running_and_unknown(self):
        api, _session, _clock = make_api(processors=4)
        for name in ("a", "b", "c"):
            api.handle("submit", {"job_id": name, "size": 6_500.0})
        assert api.handle("cancel", {"job_id": "c"})["cancelled"] is True
        assert api.handle("cancel", {"job_id": "a"})["cancelled"] is True
        assert api.handle("cancel", {"job_id": "ghost"})["cancelled"] is False
        # cancelling twice is a no-op, not an error
        assert api.handle("cancel", {"job_id": "a"})["cancelled"] is False
        with pytest.raises(ConfigurationError):
            api.handle("cancel", {})

    def test_schedule_exposes_epochs_and_allocations(self):
        api, _session, clock = make_api()
        api.handle("submit", {"job_id": "alpha", "size": 8_000.0})
        clock.advance(1_000.0)
        api.handle("submit", {"job_id": "beta", "size": 6_000.0})
        schedule = api.handle("schedule", {})
        assert [e["trigger"] for e in schedule["epochs"]] == [
            "arrival",
            "arrival",
        ]
        last = schedule["epochs"][-1]
        assert set(last["sigma"]) == {"alpha", "beta"}
        assert sum(last["sigma"].values()) <= 16

    def test_metrics_document_shape(self):
        api, _session, _clock = make_api()
        api.handle("submit", {"job_id": "alpha", "size": 8_000.0})
        metrics = api.handle("metrics", {})
        assert set(metrics) == {
            "service",
            "engine_stats",
            "decision_latency",
            "jobs",
            "draining",
            "host",
        }
        assert metrics["service"]["epochs"] == 1
        for key in ("models_built", "models_reused", "repack_moves"):
            assert key in metrics["service"]
        assert metrics["service"]["grids_built"] == 1
        assert metrics["service"]["grids_reused"] == 0
        assert metrics["service"]["grid_store_size"] == 1
        assert metrics["decision_latency"]["count"] == 1
        assert metrics["jobs"]["alpha"]["status"] == "running"
        assert isinstance(metrics["host"]["available"], bool)
        assert metrics["draining"] is False
        # the whole document must survive the HTTP framing
        json.dumps(metrics)

    @pytest.mark.skipif(
        not sys.platform.startswith("linux"), reason="reads /proc/self"
    )
    def test_host_sampler_reports_process_gauges(self):
        api, _session, _clock = make_api()
        host = api.handle("metrics", {})["host"]
        assert host["available"] is True
        assert host["rss_bytes"] > 0
        assert host["peak_rss_bytes"] >= host["rss_bytes"]
        assert host["num_threads"] >= 1
        assert host["cpu_percent"] >= 0

    def test_status_document(self):
        api, _session, _clock = make_api()
        status = api.handle("status", {})
        assert status["schema_version"] == 1
        assert status["processors"] == 16
        assert status["policy"] == "ig-el"
        assert status["jobs_total"] == 0

    def test_drain_completes_everything_and_refuses_new_work(self):
        api, session, _clock = make_api(processors=4)
        for name in ("a", "b", "c"):
            api.handle("submit", {"job_id": name, "size": 6_500.0})
        summary = api.handle("drain", {})
        assert summary["completed"] == 3
        assert summary["cancelled"] == 0
        assert summary["lost"] == []
        assert session.draining
        with pytest.raises(ConfigurationError):
            api.handle("submit", {"size": 5_000.0})
        # drain is idempotent
        assert api.handle("drain", {})["completed"] == 3


def _call(url, path, *, token=None, payload=None, timeout=10.0):
    """One JSON request; returns (status, decoded body)."""
    data = None if payload is None else json.dumps(payload).encode()
    request = urllib.request.Request(
        url + path, data=data, method="POST" if data is not None else "GET"
    )
    request.add_header("Content-Type", "application/json")
    if token is not None:
        request.add_header("Authorization", f"Bearer {token}")
    try:
        with urllib.request.urlopen(request, timeout=timeout) as response:
            return response.status, json.loads(response.read())
    except urllib.error.HTTPError as error:
        return error.code, json.loads(error.read())


class TestServiceHTTP:
    TOKEN = "service-secret"

    @pytest.fixture
    def server(self):
        _api, session, _clock = make_api(processors=8)
        server = ServiceServer(session, token=self.TOKEN)
        url = server.start()
        try:
            yield url
        finally:
            server.shutdown()

    def test_requests_without_token_are_rejected(self, server):
        status, body = _call(server, "/metrics")
        assert status == 401 and body["error"] == "unauthorized"
        status, _ = _call(server, "/api/submit", payload={"size": 5_000.0})
        assert status == 401
        status, _ = _call(server, "/metrics", token="wrong-secret")
        assert status == 401

    def test_unknown_paths_and_operations_404(self, server):
        status, _ = _call(server, "/nope", token=self.TOKEN)
        assert status == 404
        status, _ = _call(server, "/api/explode", token=self.TOKEN,
                          payload={})
        assert status == 404
        # GET routes are not reachable over POST
        status, _ = _call(server, "/api/jobs", token=self.TOKEN, payload={})
        assert status == 404

    def test_submit_jobs_metrics_cancel_roundtrip(self, server):
        status, body = _call(
            server, "/api/submit", token=self.TOKEN,
            payload={"job_id": "alpha", "size": 8_000.0},
        )
        assert status == 200
        assert body["job"]["status"] == "running"
        status, body = _call(server, "/api/jobs", token=self.TOKEN)
        assert status == 200
        assert [j["job_id"] for j in body["jobs"]] == ["alpha"]
        status, body = _call(server, "/metrics", token=self.TOKEN)
        assert status == 200
        assert body["jobs"]["alpha"]["status"] == "running"
        status, body = _call(
            server, "/api/cancel", token=self.TOKEN,
            payload={"job_id": "alpha"},
        )
        assert status == 200 and body["cancelled"] is True

    def test_bad_requests_400(self, server):
        status, body = _call(server, "/api/submit", token=self.TOKEN,
                             payload={})
        assert status == 400 and "size" in body["error"]
        status, _ = _call(server, "/api/submit", token=self.TOKEN,
                          payload={"size": -1.0})
        assert status == 400

    def test_chained_keepalive_requests_do_not_stall(self, server):
        """Each reply is one write, so a request chained on a keep-alive
        connection never waits out the client's delayed ACK (~40 ms)."""
        parsed = urllib.parse.urlsplit(server)
        conn = http.client.HTTPConnection(
            parsed.hostname, parsed.port, timeout=10.0
        )
        headers = {"Authorization": f"Bearer {self.TOKEN}"}

        def status() -> None:
            conn.request("GET", "/status", headers=headers)
            response = conn.getresponse()
            assert response.status == 200
            json.loads(response.read())

        try:
            status()  # open the connection
            best = float("inf")
            for _ in range(3):
                started = time.perf_counter()
                for _ in range(10):
                    status()
                    status()
                best = min(best, time.perf_counter() - started)
        finally:
            conn.close()
        assert best < 0.2, f"10 chained pairs took {best * 1e3:.0f} ms"

    def test_tokenless_server_is_open(self):
        _api, session, _clock = make_api(processors=8)
        server = ServiceServer(session, token=None)
        url = server.start()
        try:
            status, _ = _call(url, "/status")
            assert status == 200
        finally:
            server.shutdown()


class TestDaemonLifecycle:
    """End-to-end smoke: the daemon as users run it."""

    def test_sigterm_drains_gracefully(self):
        token = "smoke-secret"
        env = dict(
            os.environ,
            PYTHONPATH=str(REPO_ROOT / "src"),
            REPRO_SERVICE_TOKEN=token,
        )
        proc = subprocess.Popen(
            [
                sys.executable, "-m", "repro.service",
                "--port", "0", "--processors", "8",
                "--mtbf-years", "0.05", "--virtual-clock",
            ],
            stdout=subprocess.PIPE,
            stderr=subprocess.STDOUT,
            text=True,
            env=env,
            cwd=REPO_ROOT,
        )
        try:
            banner = proc.stdout.readline()
            assert "scheduling service on http://" in banner
            url = next(
                word for word in banner.split() if word.startswith("http://")
            )
            for job_id in ("smoke-a", "smoke-b"):
                status, body = _call(
                    url, "/api/submit", token=token,
                    payload={"job_id": job_id, "size": 6_000.0},
                )
                assert status == 200
                assert body["job"]["status"] == "running"

            def both_visible():
                status, metrics = _call(url, "/metrics", token=token)
                return status == 200 and len(metrics["jobs"]) == 2

            wait_for(both_visible, timeout=10.0, message="both jobs in /metrics")
            proc.send_signal(signal.SIGTERM)
            output, _ = proc.communicate(timeout=30)
        finally:
            if proc.poll() is None:  # pragma: no cover - cleanup path
                proc.kill()
                proc.communicate()
        assert proc.returncode == 0, output
        assert "service drained: 2 completed, 0 cancelled, 0 lost" in output
