"""``service-p1000``: open-loop HTTP traffic against the p=1000 daemon.

One run is a few *segments*.  Each segment spawns a fresh daemon
(``python -m repro.service --virtual-clock -p 1000``, through
:mod:`launcher`), warms it up to the paper's n=100 running jobs with one
pipelined burst of submits, and then drives two keep-alive connections:

* **write** — open loop at :data:`PAIR_RATE` pairs per second: a submit,
  then, as soon as its reply arrives, a cancel of the oldest job.  Both
  are full re-packs of ~100 jobs.  The *main* operation is the pair.
* **read** — open loop at :data:`REFRESH_RATE` refreshes per second: a
  ``GET /api/jobs``, then at once a ``GET /status``.  The *side*
  operation is the refresh.

After the open-loop window the write connection pushes a closed-loop
*batch* of :data:`BATCH_PAIRS` pairs back to back (``batch_s``), and
the segment ends with ``POST /api/drain``.  The drain must lose no job,
count every job, and match the golden digest that ``record_golden.py``
takes from the in-process reference (:func:`reference_drain`).  Under
the virtual clock the daemon's work is a pure function of the seed, and
reads do not change its state.

Latency runs from each request's due time (a chained request is due
when the reply before it arrives); the generator's lag and backlog are
reported beside it.
"""

from __future__ import annotations

import argparse
import http.client
import json
import os
import random
import socket
import subprocess
import sys
import threading
import time
from typing import Dict, List, Optional, Tuple

import harness

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)

PROCESSORS = 1000
#: The paper's n=100 on p=1000: jobs running when measuring starts.
WARM_JOBS = 100
#: Paper task sizes (Section 6.1): uniform in [1.5e6, 2.5e6].
SIZE_RANGE = (1.5e6, 2.5e6)
#: About half of what the daemon sustains with 100 jobs active: one
#: pair takes ~90 ms on a 2-core host, ~35% of the write connection.
PAIR_RATE = 4.0
REFRESH_RATE = 4.0
#: Pairs in the open-loop window and in the closed-loop batch.
PAIRS = 24
BATCH_PAIRS = 12
#: Nominal wall time of one segment (set-up, window, batch, drain),
#: used to fit segments into ``--seconds``.
SEGMENT_S = 16.0
#: Golden digests are recorded for this many segments per seed.
MAX_SEGMENTS = 4
TOKEN = "repobench"
REQUEST_TIMEOUT_S = 30.0


# -- the seeded plan ----------------------------------------------------------

def plan(seed: int, segment: int) -> Dict[str, object]:
    """The daemon seed and request sequence of one segment.

    ``pairs`` and ``batch`` hold ``(new id, size, id to cancel)``; the
    cancelled job is always the oldest one still running.
    """
    rng = random.Random(f"repobench-service:{seed}:{segment}")
    count = WARM_JOBS + PAIRS + BATCH_PAIRS
    sizes = [rng.uniform(*SIZE_RANGE) for _ in range(count)]
    ids = [f"s{seed}-g{segment}-{k:04d}" for k in range(count)]
    pairs = [
        (ids[WARM_JOBS + k], sizes[WARM_JOBS + k], ids[k])
        for k in range(PAIRS + BATCH_PAIRS)
    ]
    return {
        "daemon_seed": rng.randrange(2**31),
        "warm": list(zip(ids[:WARM_JOBS], sizes[:WARM_JOBS])),
        "pairs": pairs[:PAIRS],
        "batch": pairs[PAIRS:],
    }


def daemon_args(daemon_seed: int) -> List[str]:
    return [
        "--virtual-clock", "-p", str(PROCESSORS), "--port", "0",
        "--token", TOKEN, "--seed", str(daemon_seed),
    ]


def reference_drain(seed: int, segment: int) -> Dict[str, object]:
    """The segment's drain reply from the in-process service stack.

    The same session, API and JSON round trip as the HTTP daemon, minus
    the sockets; ``record_golden.py`` stores its digest.
    """
    from repro.service.server import (
        ServiceAPI,
        add_service_arguments,
        build_session,
    )

    steps = plan(seed, segment)
    parser = argparse.ArgumentParser()
    add_service_arguments(parser)
    args = parser.parse_args(daemon_args(steps["daemon_seed"]))
    api = ServiceAPI(build_session(args))

    def call(op: str, data: dict) -> dict:
        reply = api.handle(op, json.loads(json.dumps(data)))
        return json.loads(json.dumps(reply))

    for job_id, size in steps["warm"]:
        call("submit", {"job_id": job_id, "size": size})
    for new_id, size, old_id in steps["pairs"] + steps["batch"]:
        call("submit", {"job_id": new_id, "size": size})
        call("cancel", {"job_id": old_id})
    return call("drain", {})


# -- HTTP plumbing ------------------------------------------------------------

def _request(conn, method: str, path: str, doc: Optional[dict] = None):
    """One keep-alive request; returns ``(status, decoded body or None)``."""
    headers = {"Authorization": f"Bearer {TOKEN}"}
    body = None
    if doc is not None:
        body = json.dumps(doc).encode("utf-8")
        headers["Content-Type"] = "application/json"
    conn.request(method, path, body=body, headers=headers)
    resp = conn.getresponse()
    raw = resp.read()
    try:
        return resp.status, json.loads(raw)
    except ValueError:
        return resp.status, None


def _pipelined_submits(host: str, port: int, jobs) -> List[Tuple[int, dict]]:
    """Send every submit in one burst on one connection; read the replies.

    The daemon reads pipelined requests off the connection in order, so
    the jobs arrive exactly in ``jobs`` order.
    """
    burst = []
    for job_id, size in jobs:
        body = json.dumps({"job_id": job_id, "size": size}).encode("utf-8")
        head = (
            f"POST /api/submit HTTP/1.1\r\nHost: {host}\r\n"
            f"Authorization: Bearer {TOKEN}\r\n"
            "Content-Type: application/json\r\n"
            f"Content-Length: {len(body)}\r\n\r\n"
        ).encode("ascii")
        burst.append(head + body)
    replies = []
    with socket.create_connection((host, port), timeout=REQUEST_TIMEOUT_S) as sock:
        sock.sendall(b"".join(burst))
        with sock.makefile("rb") as stream:
            for _ in jobs:
                status = int(stream.readline().split()[1])
                length = 0
                while True:
                    line = stream.readline()
                    if line in (b"\r\n", b"\n", b""):
                        break
                    name, _, value = line.decode("latin-1").partition(":")
                    if name.strip().lower() == "content-length":
                        length = int(value)
                replies.append((status, json.loads(stream.read(length))))
    return replies


def _reply_ok(op: str, status: int, doc, expect: Optional[str]) -> bool:
    """Status 200 and the operation's reply shape."""
    if status != 200 or not isinstance(doc, dict):
        return False
    if op == "submit":
        job = doc.get("job")
        return (
            isinstance(job, dict)
            and job.get("job_id") == expect
            and job.get("status") == "running"
        )
    if op == "cancel":
        return (
            doc.get("job_id") == expect
            and doc.get("cancelled") is True
            and doc.get("status") == "cancelled"
        )
    if op == "jobs":
        jobs = doc.get("jobs")
        return isinstance(jobs, list) and len(jobs) >= WARM_JOBS
    if op == "status":
        return (
            doc.get("processors") == PROCESSORS
            and doc.get("draining") is False
        )
    return False


class _Stream(threading.Thread):
    """One keep-alive connection sending requests at their due times.

    ``requests`` holds ``(due, op, method, path, doc, expect)``; a
    ``due`` of ``None`` chains the request to the reply before it.
    """

    def __init__(self, conn, requests):
        super().__init__(daemon=True)
        self.conn = conn
        self.requests = requests
        self.records: List[dict] = []

    def run(self) -> None:
        done = 0.0
        for due, op, method, path, doc, expect in self.requests:
            if due is None:
                due = done
            pause = due - time.perf_counter()
            if pause > 0:
                time.sleep(pause)
            sent = time.perf_counter()
            try:
                status, reply = _request(self.conn, method, path, doc)
            except (OSError, http.client.HTTPException):
                status, reply = 0, None
                self.conn.close()
            done = time.perf_counter()
            self.records.append({
                "op": op, "due": due, "sent": sent, "done": done,
                "ok": _reply_ok(op, status, reply, expect),
            })


def _peak_rss_mb(pid: int) -> Optional[float]:
    """The daemon's peak resident set (``VmHWM``), in MiB."""
    try:
        with open(f"/proc/{pid}/status") as fh:
            for line in fh:
                if line.startswith("VmHWM:"):
                    return int(line.split()[1]) / 1024.0
    except OSError:
        pass
    return None


def _open_loop_requests(steps, start: float):
    writes = []
    for due, (new_id, size, old_id) in zip(
        harness.due_times(start, PAIR_RATE, PAIRS), steps["pairs"]
    ):
        writes.append((due, "submit", "POST", "/api/submit",
                       {"job_id": new_id, "size": size}, new_id))
        writes.append((None, "cancel", "POST", "/api/cancel",
                       {"job_id": old_id}, old_id))
    refreshes = int(round(PAIRS * REFRESH_RATE / PAIR_RATE))
    reads = []
    for due in harness.due_times(
        start, REFRESH_RATE, refreshes, 0.5 / REFRESH_RATE
    ):
        reads.append((due, "jobs", "GET", "/api/jobs", None, None))
        reads.append((None, "status", "GET", "/status", None, None))
    return writes, reads


def run_segment(seed: int, segment: int, trace: bool) -> Dict[str, object]:
    """Set up one daemon, drive its traffic, drain it; return raw records."""
    steps = plan(seed, segment)
    cmd = [sys.executable, os.path.join(HERE, "launcher.py")]
    if trace:
        cmd.append("--trace")
    cmd += ["--"] + daemon_args(steps["daemon_seed"])
    env = dict(os.environ, PYTHONPATH=os.path.join(ROOT, "src"))
    env.pop("REPRO_SERVICE_TOKEN", None)
    failures: List[str] = []
    conns: List[http.client.HTTPConnection] = []
    # ``setup_s`` is host-normalised by probes either side of it.
    clock = harness.HostClock()
    clock.probe(harness.SETUP_PROBES)
    spawned = time.perf_counter()
    proc = subprocess.Popen(
        cmd, stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True,
        cwd=ROOT, env=env,
    )
    try:
        banner = proc.stdout.readline()
        if " on http://" not in banner:
            raise RuntimeError(f"daemon did not start: {banner!r}")
        host, port = banner.split(" on http://")[1].split()[0].rsplit(":", 1)
        port = int(port)
        warm = _pipelined_submits(host, port, steps["warm"])
        warmed = time.perf_counter()
        clock.probe(harness.SETUP_PROBES)
        setup_s = clock.normalized(spawned, warmed)
        for (job_id, _), (status, doc) in zip(steps["warm"], warm):
            if not _reply_ok("submit", status, doc, job_id):
                failures.append(f"warm-up submit {job_id}")

        conns = [
            http.client.HTTPConnection(host, port, timeout=REQUEST_TIMEOUT_S)
            for _ in range(2)
        ]
        metrics = [_request(conns[0], "GET", "/metrics")[1]] if trace else []
        start = time.perf_counter() + 0.05
        writes, reads = _open_loop_requests(steps, start)
        streams = [_Stream(conns[0], writes), _Stream(conns[1], reads)]
        for stream in streams:
            stream.start()
        for stream, count in zip(streams, (len(writes), len(reads))):
            stream.join(REQUEST_TIMEOUT_S * count)
            if stream.is_alive():
                raise RuntimeError("load generator stream did not finish")
        window = (start, time.perf_counter())
        if trace:
            metrics.append(_request(conns[0], "GET", "/metrics")[1])

        batch = []
        for new_id, size, old_id in steps["batch"]:
            batch.append((None, "submit", "POST", "/api/submit",
                          {"job_id": new_id, "size": size}, new_id))
            batch.append((None, "cancel", "POST", "/api/cancel",
                          {"job_id": old_id}, old_id))
        batch_stream = _Stream(conns[0], batch)
        batch_started = time.perf_counter()
        batch_stream.run()
        batch_s = time.perf_counter() - batch_started

        rss_mb = _peak_rss_mb(proc.pid)
        status, drained = _request(conns[0], "POST", "/api/drain", {})
        submitted = WARM_JOBS + PAIRS + BATCH_PAIRS
        if status != 200 or not isinstance(drained, dict):
            failures.append(f"drain replied {status}")
            drained = {}
        elif (
            drained.get("lost") != []
            or drained.get("cancelled") != PAIRS + BATCH_PAIRS
            or drained.get("completed", 0) + drained.get("cancelled", 0)
            != submitted
        ):
            failures.append("drain lost or miscounted jobs")
        for conn in conns:
            conn.close()
        proc.terminate()
        out, err = proc.communicate(timeout=60)
        if proc.returncode != 0:
            failures.append(f"daemon exited {proc.returncode}: {err[-200:]}")
    finally:
        for conn in conns:
            conn.close()
        if proc.poll() is None:
            proc.kill()
            proc.communicate()

    spans: List[list] = []
    for line in out.splitlines():
        if line.startswith("SPANS "):
            spans = json.loads(line[len("SPANS "):])
    records = streams[0].records + streams[1].records
    ids = [job_id for job_id, _ in steps["warm"]]
    ids += [pair[0] for pair in steps["pairs"] + steps["batch"]]
    if len(set(ids)) != len(ids):
        failures.append("duplicate job ids")
    failures += [
        f"{r['op']} reply" for r in records + batch_stream.records
        if not r["ok"]
    ]
    # Every warm-up submit, window and batch request, and the drain.
    attempted = WARM_JOBS + len(records) + len(batch_stream.records) + 1
    return {
        "segment": segment,
        "setup_s": setup_s,
        "setup_wall_s": warmed - spawned,
        "batch_s": batch_s,
        "rss_mb": rss_mb,
        "records": records,
        "window": window,
        "digest": harness.canonical_digest(drained),
        "attempted": attempted,
        "failures": failures,
        "spans": spans,
        "metrics": metrics,
    }
