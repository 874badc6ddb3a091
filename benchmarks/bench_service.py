"""Service-layer benchmark: replay throughput and decision latency.

Drives a seeded arrival trace through both replay paths of
:mod:`repro.service.replay` —

* **reference** — the trace straight into an
  :class:`~repro.service.OnlineEngine` (no clock, no transport);
* **service** — the live stack (:class:`~repro.service.VirtualClock`,
  :class:`~repro.service.ServiceSession`,
  :class:`~repro.service.ServiceAPI`) with every request and response
  JSON round-tripped exactly as the HTTP framing does —

asserts the two canonical documents are byte-identical (the service
acceptance gate), that no job was lost or double-counted, and records

* end-to-end **throughput** (jobs/s and requests/s through the service
  stack), and
* the re-pack **decision latency** distribution (p50/p99/max over every
  epoch's ``optimal_schedule`` + residual-extraction + restart cost —
  the pause an arriving job inflicts on the daemon).

A second leg, **p1000**, measures the decision latency at the paper's
platform size: the service stack is warmed to 100 running jobs on
p=1000, then :data:`P1000_PAIRS` submit/cancel pairs each re-pack the
whole residual pack — 200 epochs, so the recorded p99 is a real
percentile rather than the maximum of a dozen samples.

Results land in the committed ``BENCH_service.json`` with::

    PYTHONPATH=src python -m benchmarks.bench_service --write

``REPRO_BENCH_SCALE`` (``tiny``/``small``/``paper``) sizes the trace;
``benchmarks.check_regression`` gates the recorded p99 decision latency
(``--max-decision-latency``) and the absolute seconds on a matching
host.
"""

from __future__ import annotations

import argparse
import json
import platform
import random
import time
from pathlib import Path
from typing import Dict, Optional, Sequence

from repro.service import (
    ReplayConfig,
    ServiceAPI,
    ServiceSession,
    VirtualClock,
    canonical_bytes,
    generate_trace,
    latency_percentiles,
    replay_reference,
    replay_service,
)

try:  # pytest / sys.path import (benchmarks/ on the path)
    from ._common import BENCH_SCALE, BENCH_SEED
except ImportError:  # pragma: no cover - direct execution fallback
    from _common import BENCH_SCALE, BENCH_SEED

#: Committed baseline location (repo root).
DEFAULT_BASELINE = Path(__file__).resolve().parent.parent / "BENCH_service.json"

#: Trace size per scale: enough arrivals to overlap (queueing, repacks,
#: cancels) without turning the bench into a soak.
PRESETS = {
    "tiny": {"n_jobs": 10, "mean_gap": 20_000.0},
    "small": {"n_jobs": 40, "mean_gap": 12_000.0},
    "paper": {"n_jobs": 120, "mean_gap": 8_000.0},
}

#: Short-MTBF platform so failure epochs land inside the trace.
CONFIG = ReplayConfig(processors=40, mtbf_years=0.5, seed=BENCH_SEED)

#: The p1000 leg: the paper's platform and task sizes (Section 6.1),
#: n=100 jobs running, and 100 submit/cancel pairs (200 epochs) spaced
#: by :data:`P1000_GAP` simulated seconds.
P1000_CONFIG = ReplayConfig(processors=1000, mtbf_years=10.0, seed=BENCH_SEED)
P1000_ACTIVE = 100
P1000_PAIRS = 100
P1000_SIZES = (1.5e6, 2.5e6)
P1000_GAP = 1_000.0

#: Maximum tolerated p99 re-pack decision latency (seconds).  A sanity
#: ceiling, not a perf target: one epoch is one ``optimal_schedule``
#: over at most ``p/2`` jobs plus residual extraction — milliseconds.
MAX_DECISION_LATENCY = 0.25


def _trace():
    preset = PRESETS.get(BENCH_SCALE, PRESETS["tiny"])
    return generate_trace(
        BENCH_SEED,
        n_jobs=preset["n_jobs"],
        mean_gap=preset["mean_gap"],
        m_inf=6_000.0,
        m_sup=10_000.0,
        cancel_every=5,
    )


def run_bench() -> Dict[str, object]:
    """Both replay paths, timed, plus the identity and accounting gates."""
    trace = _trace()
    submitted = sum(1 for event in trace if event.kind == "submit")

    start = time.perf_counter()
    reference = replay_reference(trace, CONFIG)
    reference_seconds = time.perf_counter() - start

    start = time.perf_counter()
    served, responses = replay_service(trace, CONFIG)
    service_seconds = time.perf_counter() - start

    assert canonical_bytes(reference) == canonical_bytes(served), (
        "service replay diverged from the offline reference"
    )
    statuses = [job["status"] for job in served.jobs.values()]
    completed = statuses.count("completed")
    cancelled = statuses.count("cancelled")
    assert len(statuses) == submitted, (
        f"{submitted} jobs submitted but {len(statuses)} accounted for"
    )
    assert completed + cancelled == submitted, (
        f"lost jobs: {submitted} submitted, {completed} completed, "
        f"{cancelled} cancelled"
    )

    latency = latency_percentiles(served.decision_latencies)
    return {
        "trace": {
            "jobs": submitted,
            "requests": len(responses),
            "epochs": len(served.epochs),
            "makespan": served.makespan,
        },
        "reference": {"seconds": reference_seconds},
        "service": {"seconds": service_seconds},
        "decision_latency": latency,
        "completed": completed,
        "cancelled": cancelled,
    }


def run_p1000_bench() -> Dict[str, object]:
    """Decision latency over 200 re-pack epochs at p=1000, 100 jobs.

    Requests cross the in-process transport seam (:class:`ServiceAPI`)
    under a virtual clock; each pair submits a job and cancels the
    oldest running one, so the pack stays at :data:`P1000_ACTIVE` jobs.
    """
    rng = random.Random(f"bench-service-p1000:{BENCH_SEED}")
    clock = VirtualClock()
    session = ServiceSession(P1000_CONFIG.engine(), clock)
    api = ServiceAPI(session)
    engine = session.engine
    for k in range(P1000_ACTIVE):
        api.handle(
            "submit",
            {"job_id": f"warm-{k:03d}", "size": rng.uniform(*P1000_SIZES)},
        )
    engine.decision_latencies.clear()
    start = time.perf_counter()
    for k in range(P1000_PAIRS):
        clock.advance(P1000_GAP)
        api.handle(
            "submit",
            {"job_id": f"pair-{k:03d}", "size": rng.uniform(*P1000_SIZES)},
        )
        api.handle("cancel", {"job_id": engine.active_jobs[0]})
    seconds = time.perf_counter() - start
    latencies = list(engine.decision_latencies)
    metrics = engine.metrics()
    assert len(engine.active_jobs) == P1000_ACTIVE, engine.active_jobs
    assert len(latencies) == 2 * P1000_PAIRS
    assert metrics["grid_store_size"] <= P1000_ACTIVE
    return {
        "trace": {
            "processors": P1000_CONFIG.processors,
            "active": P1000_ACTIVE,
            "epochs": len(latencies),
            "grids_built": metrics["grids_built"],
            "grids_reused": metrics["grids_reused"],
        },
        "seconds": seconds,
        "decision_latency": latency_percentiles(latencies),
    }


def decision_latency_p99(results: Dict[str, object]) -> float:
    """The gated quantity: p99 re-pack latency through the service stack."""
    return float(results["decision_latency"]["p99"])


def throughput_jobs_per_s(results: Dict[str, object]) -> float:
    """Jobs fully scheduled-to-completion per wall second of replay."""
    return results["trace"]["jobs"] / results["service"]["seconds"]


def payload_from(
    results: Dict[str, object], p1000: Dict[str, object]
) -> Dict[str, object]:
    return {
        "schema": 1,
        "scale": BENCH_SCALE,
        "seed": BENCH_SEED,
        "python": platform.python_version(),
        "machine": platform.machine(),
        "config": {
            "processors": CONFIG.processors,
            "mtbf_years": CONFIG.mtbf_years,
            "policy": CONFIG.policy,
        },
        "trace": results["trace"],
        "p1000_trace": p1000["trace"],
        "benchmarks": {
            "service_replay": {"seconds": results["service"]["seconds"]},
            "reference_replay": {"seconds": results["reference"]["seconds"]},
            "service_p1000_epochs": {"seconds": p1000["seconds"]},
        },
        "derived": {
            "service_decision_latency_p50": results["decision_latency"]["p50"],
            "service_decision_latency_p99": decision_latency_p99(results),
            "service_decision_latency_max": results["decision_latency"]["max"],
            "service_throughput_jobs_per_s": throughput_jobs_per_s(results),
            "service_p1000_decision_latency_p50": (
                p1000["decision_latency"]["p50"]
            ),
            "service_p1000_decision_latency_p99": decision_latency_p99(p1000),
            "service_p1000_decision_latency_max": (
                p1000["decision_latency"]["max"]
            ),
        },
    }


def write_baseline(path: Path = DEFAULT_BASELINE) -> Dict[str, object]:
    """Measure and record the committed baseline JSON."""
    payload = payload_from(run_bench(), run_p1000_bench())
    path.write_text(json.dumps(payload, indent=2, sort_keys=True) + "\n")
    return payload


# -- pytest entry points -----------------------------------------------------

def test_service_replay_is_byte_identical_and_loses_nothing():
    """Acceptance gate: transport invisible, every job accounted for."""
    results = run_bench()
    assert results["trace"]["epochs"] >= results["trace"]["jobs"]
    assert results["completed"] >= 1


def test_decision_latency_within_sanity_ceiling():
    """One re-pack must stay interactive (p99 under the ceiling)."""
    results = run_bench()
    assert decision_latency_p99(results) <= MAX_DECISION_LATENCY, (
        f"p99 decision latency {decision_latency_p99(results):.4f}s over "
        f"the {MAX_DECISION_LATENCY}s ceiling"
    )


def test_p1000_decision_latency_within_sanity_ceiling():
    """At p=1000 with 100 jobs running, p99 over 200 epochs stays under
    the same ceiling."""
    results = run_p1000_bench()
    assert results["trace"]["epochs"] >= 200
    assert decision_latency_p99(results) <= MAX_DECISION_LATENCY, (
        f"p=1000 p99 decision latency {decision_latency_p99(results):.4f}s "
        f"over the {MAX_DECISION_LATENCY}s ceiling"
    )


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = argparse.ArgumentParser(
        description=(
            "Benchmark the scheduling service's replay throughput and "
            "decision latency."
        )
    )
    parser.add_argument(
        "--write",
        action="store_true",
        help=f"record the baseline to {DEFAULT_BASELINE.name}",
    )
    parser.add_argument(
        "--output",
        type=Path,
        default=DEFAULT_BASELINE,
        help="baseline path (with --write)",
    )
    args = parser.parse_args(argv)
    if args.write:
        payload = write_baseline(args.output)
    else:
        payload = payload_from(run_bench(), run_p1000_bench())
    print(json.dumps(payload, indent=2, sort_keys=True))
    return 0


if __name__ == "__main__":  # pragma: no cover - manual invocation
    raise SystemExit(main())
