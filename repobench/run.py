"""Repository benchmark: one command per workload, untraced or traced.

::

    python3 repobench/run.py --workload fig7-small --seed 3 --seconds 48 --trace 0

Workloads (see README.md for why each exists):

* ``fig7-small``  — serial cold regenerations of fig7 at ``small``;
* ``fig11-small`` — the same for fig11;
* ``service-p1000`` — open-loop HTTP traffic against the p=1000 daemon.

With ``--trace 0`` the last stdout line reports the end-to-end metrics
(:data:`END_TO_END`); with ``--trace 1`` it reports the per-layer
metrics (:data:`PER_LAYER`) from spans around each layer's entry
points.  The line before it is the run's raw record: sample counts,
tail percentiles, calibration samples and the checks.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from typing import Dict, List, Optional, Sequence

HERE = os.path.dirname(os.path.abspath(__file__))
SRC = os.path.join(os.path.dirname(HERE), "src")
sys.path.insert(0, SRC)

import harness  # noqa: E402

FIGURE_WORKLOADS = {"fig7-small": "fig7", "fig11-small": "fig11"}
WORKLOADS = tuple(FIGURE_WORKLOADS) + ("service-p1000",)

#: End-to-end metrics and their units.  Every workload reports each of
#: them, so the names are roles (README.md maps them per workload).
END_TO_END = {
    "setup_s": "s",
    "peak_rss_mb": "MB",
    "batch_s": "s",
    "main_p50_ms": "ms",
    "main_tail_ms": "ms",
    "side_p50_ms": "ms",
    "side_tail_ms": "ms",
}

#: Per-layer metrics and their units (``--trace 1``).
PER_LAYER = {
    "experiments.self_s": "s",
    "engine.dispatch_s": "s",
    "engine.chunks": "count",
    "simulation.runs": "count",
    "simulation.events": "count",
    "simulation.self_s": "s",
    "simulation.us_per_event": "us",
    "simulation.start_ms": "ms",
    "core.completion_calls": "count",
    "core.completion_s": "s",
    "core.failure_calls": "count",
    "core.failure_s": "s",
    "core.rows_patched": "count",
    "core.rows_reused": "count",
    "core.row_reuse_ratio": "ratio",
    "core.optimal_calls": "count",
    "core.optimal_ms": "ms",
    "core.residual_ms": "ms",
    "resilience.model_builds": "count",
    "resilience.model_build_ms": "ms",
    "resilience.profile_hits": "count",
    "resilience.profile_misses": "count",
    "resilience.profile_hit_ratio": "ratio",
    "service.handle_ms.submit": "ms",
    "service.handle_ms.cancel": "ms",
    "service.handle_ms.jobs": "ms",
    "service.handle_ms.status": "ms",
    "service.engine_ms": "ms",
    "service.epoch_self_ms": "ms",
    "service.transport_ms": "ms",
    "service.models_built": "count",
    "service.models_reused": "count",
    "service.repack_moves": "count",
    "loadgen.submit_p50_ms": "ms",
    "loadgen.cancel_p50_ms": "ms",
    "loadgen.jobs_p50_ms": "ms",
    "loadgen.status_p50_ms": "ms",
    "loadgen.lag_p50_ms": "ms",
    "loadgen.backlog_max": "count",
    "host.calib_ms": "ms",
    "trace.overhead_pct": "%",
}


def _median_or_zero(values) -> float:
    values = list(values)
    return harness.median(values) if values else 0.0


def _ratio(part: float, whole: float) -> float:
    return part / whole if whole else 0.0


def _latency_summary(name: str, values_ms: Sequence[float], raw: dict) -> Dict[str, float]:
    """``<name>_p50_ms`` and ``<name>_tail_ms``; the tail's rank goes to ``raw``."""
    found = harness.tail(values_ms)
    if found is None:
        raise RuntimeError(f"{name}: {len(values_ms)} samples leave no tail")
    value, percentile, count = found
    raw[f"{name}_tail"] = {"percentile": percentile, "samples": count}
    return {
        f"{name}_p50_ms": harness.median(values_ms),
        f"{name}_tail_ms": value,
    }


# -- figure workloads ---------------------------------------------------------

def _names(spans, lo: int, hi: int, name: str) -> List[int]:
    return [i for i in range(lo, hi) if spans[i][0] == name]


def _durations(spans, indices) -> List[float]:
    return [spans[i][2] - spans[i][1] for i in indices]


def _model_build_ms(spans, builds, profiles) -> float:
    """Resilience time per built model: construction plus the Eq. 4
    profile blocks evaluated for schedules (the models build their grids
    lazily, on the first profile request)."""
    total = sum(_durations(spans, builds)) + sum(_durations(spans, profiles))
    return 1e3 * total / len(builds) if builds else 0.0


def figure_metrics(record: dict, trace: bool, raw: dict) -> Dict[str, float]:
    """End-to-end (host-normalised, see :class:`harness.HostClock`) or
    per-layer metrics of a figure run; the wall-clock readings go to
    ``raw``."""
    regens = record["regenerations"]
    spans = record["spans"]
    raw["regenerations"] = [r["seconds"] for r in regens]
    raw["setups"] = [end - start for start, end in record["setups"]]
    if not trace:
        clock = record["clock"]
        main = _names(spans, 0, len(spans), "replicate")
        side = _names(spans, 0, len(spans), "simulation.run")

        def normalized_ms(indices):
            return [clock.normalized(spans[i][1], spans[i][2]) * 1e3 for i in indices]

        raw["probe_ms"] = harness.median(clock.ms)
        raw["wall"] = {
            "main_p50_ms": harness.median(_durations(spans, main)) * 1e3,
            "side_p50_ms": harness.median(_durations(spans, side)) * 1e3,
        }
        metrics = {
            "setup_s": harness.median(clock.normalized(*s) for s in record["setups"]),
            "peak_rss_mb": record["peak_rss_mb"],
            "batch_s": harness.median(clock.normalized(*r["interval"]) for r in regens),
        }
        metrics.update(_latency_summary("main", normalized_ms(main), raw))
        metrics.update(_latency_summary("side", normalized_ms(side), raw))
        return metrics

    from tracing import span_cost_s

    cost = span_cost_s()
    selfs = harness.self_times(spans)
    events = record["events"]
    runs_before = 0
    per_regen: List[Dict[str, float]] = []
    for regen in regens:
        lo, hi = regen["spans"]

        def pick(name):
            return _names(spans, lo, hi, name)

        runs = pick("simulation.run")
        starts = pick("simulation.start")
        n_events = sum(events[runs_before:runs_before + len(runs)])
        runs_before += len(runs)
        sim_self = sum(selfs[i] for i in runs + starts)
        patched, reused = regen["rows"]
        hits, misses = regen["profiles"]
        builds = pick("resilience.model_build")
        completion, failure = pick("core.completion"), pick("core.failure")
        per_regen.append({
            "experiments.self_s": sum(selfs[i] for i in pick("experiments.figure")),
            "engine.dispatch_s": sum(_durations(spans, pick("engine.map")))
            - sum(_durations(spans, pick("replicate"))),
            "engine.chunks": len(pick("engine.chunk")),
            "simulation.runs": len(runs),
            "simulation.events": n_events,
            "simulation.self_s": sim_self,
            "simulation.us_per_event": _ratio(sim_self, n_events) * 1e6,
            "simulation.start_ms": _median_or_zero(_durations(spans, starts)) * 1e3,
            "core.completion_calls": len(completion),
            "core.completion_s": sum(_durations(spans, completion)),
            "core.failure_calls": len(failure),
            "core.failure_s": sum(_durations(spans, failure)),
            "core.rows_patched": patched,
            "core.rows_reused": reused,
            "core.row_reuse_ratio": _ratio(reused, patched + reused),
            "core.optimal_calls": len(pick("core.optimal")),
            "core.optimal_ms": _median_or_zero(_durations(spans, pick("core.optimal"))) * 1e3,
            "resilience.model_builds": len(builds),
            "resilience.model_build_ms": _model_build_ms(spans, builds, pick("resilience.profile")),
            "resilience.profile_hits": hits,
            "resilience.profile_misses": misses,
            "resilience.profile_hit_ratio": _ratio(hits, hits + misses),
            "trace.overhead_pct": 100.0 * (hi - lo) * cost / regen["seconds"],
        })
    metrics = {name: 0.0 for name in PER_LAYER}
    for name in per_regen[0]:
        metrics[name] = harness.median(r[name] for r in per_regen)
    metrics["host.calib_ms"] = harness.median(v for _, v in record["calib"])
    return metrics


def run_figure_workload(workload: str, seed: int, seconds: float, trace: bool) -> dict:
    import figures
    import record_golden

    golden = record_golden.load()
    figure = FIGURE_WORKLOADS[workload]
    seeds = [
        (seed + k) % golden["seeds"]
        for k in range(figures.regenerations_for(figure, seconds))
    ]
    record = figures.run(figure, seeds, trace, golden[figure])
    raw: Dict[str, object] = {"golden_seeds": seeds, "calib_ms": record["calib"]}
    metrics = figure_metrics(record, trace, raw)
    failed = sum(1 for r in record["regenerations"] if not r["digest_ok"])
    raw["digests_ok"] = failed == 0
    return {
        "attempted": len(record["regenerations"]),
        "failed": failed,
        "metrics": metrics,
        "raw": raw,
    }


# -- service workload ---------------------------------------------------------

def _by_op(records, op: str) -> List[dict]:
    return [r for r in records if r["op"] == op]


def _pairs(records, first: str, second: str) -> List[float]:
    """Latency (ms) of chained request pairs, from the first's due time."""
    a, b = _by_op(records, first), _by_op(records, second)
    return [(y["done"] - x["due"]) * 1e3 for x, y in zip(a, b)]


def service_layer_metrics(segment: dict, cost: float) -> Dict[str, float]:
    """Per-layer metrics of one traced segment's open-loop window."""
    import service

    spans, records = segment["spans"], segment["records"]
    lo, hi = segment["window"]
    selfs = harness.self_times(spans)

    def inside(name: str) -> List[int]:
        return [i for i, s in enumerate(spans) if s[0] == name and lo <= s[1] <= hi]

    def handle(op: str) -> List[int]:
        indices = [i for i, s in enumerate(spans) if s[0] == f"service.handle.{op}"]
        return sorted(indices, key=lambda i: spans[i][1])

    # Each op travels on one connection, so the k-th reply the client
    # saw for an op is the k-th span the daemon recorded for it; the
    # warm-up submits come first.
    offset = {"submit": service.WARM_JOBS}
    handle_ms: Dict[str, List[float]] = {}
    for op in ("submit", "cancel", "jobs", "status"):
        ordered = handle(op)[offset.get(op, 0):]
        handle_ms[op] = [
            (spans[i][2] - spans[i][1]) * 1e3
            for i in ordered[: len(_by_op(records, op))]
        ]
    jobs, status = _by_op(records, "jobs"), _by_op(records, "status")
    transport = [
        ((j["done"] - j["sent"]) + (s["done"] - s["sent"])) * 1e3 - hj - hs
        for j, s, hj, hs in zip(jobs, status, handle_ms["jobs"], handle_ms["status"])
    ]
    engine = inside("service.engine")
    starts = inside("simulation.start")
    builds = inside("resilience.model_build")
    before, after = segment["metrics"]

    def delta(section: str, key: str) -> float:
        return float(after[section][key] - before[section][key])

    patched = delta("engine_stats", "decision_rows_patched")
    reused = delta("engine_stats", "decision_rows_reused")
    hits = delta("engine_stats", "profile_hits")
    misses = delta("engine_stats", "profile_misses")
    traced = [i for i, s in enumerate(spans) if lo <= s[1] <= hi]
    busy = sum(sum(v) for v in handle_ms.values()) / 1e3
    metrics = {
        "service.handle_ms.submit": harness.median(handle_ms["submit"]),
        "service.handle_ms.cancel": harness.median(handle_ms["cancel"]),
        "service.handle_ms.jobs": harness.median(handle_ms["jobs"]),
        "service.handle_ms.status": harness.median(handle_ms["status"]),
        "service.engine_ms": harness.median(_durations(spans, engine)) * 1e3,
        "service.epoch_self_ms": harness.median(selfs[i] for i in engine) * 1e3,
        "service.transport_ms": harness.median(transport),
        "service.models_built": delta("service", "models_built"),
        "service.models_reused": delta("service", "models_reused"),
        "service.repack_moves": delta("service", "repack_moves"),
        "simulation.runs": len(starts),
        "simulation.self_s": sum(selfs[i] for i in starts),
        "simulation.start_ms": _median_or_zero(_durations(spans, starts)) * 1e3,
        "core.rows_patched": patched,
        "core.rows_reused": reused,
        "core.row_reuse_ratio": _ratio(reused, patched + reused),
        "core.optimal_calls": len(inside("core.optimal")),
        "core.optimal_ms": _median_or_zero(_durations(spans, inside("core.optimal"))) * 1e3,
        "core.residual_ms": _median_or_zero(_durations(spans, inside("core.residual"))) * 1e3,
        "resilience.model_builds": len(builds),
        "resilience.model_build_ms": _model_build_ms(spans, builds, inside("resilience.profile")),
        "resilience.profile_hits": hits,
        "resilience.profile_misses": misses,
        "resilience.profile_hit_ratio": _ratio(hits, hits + misses),
        "trace.overhead_pct": 100.0 * len(traced) * cost / busy if busy else 0.0,
    }
    return metrics


def run_service_workload(seed: int, seconds: float, trace: bool) -> dict:
    import record_golden
    import service

    golden = record_golden.load()
    golden_seed = seed % golden["seeds"]
    expected = golden["service"][str(golden_seed)]
    count = max(1, min(service.MAX_SEGMENTS, int(seconds // service.SEGMENT_S)))
    calib = [("start", harness.calibration_ms()) for _ in range(3)]
    segments = []
    for index in range(count):
        segments.append(service.run_segment(golden_seed, index, trace))
        calib.append(("middle" if index + 1 < count else "end", harness.calibration_ms()))
    calib += [("end", harness.calibration_ms()) for _ in range(2)]

    failures = [f for s in segments for f in s["failures"]]
    failures += [
        f"segment {s['segment']} drain digest"
        for s in segments if s["digest"] != expected[s["segment"]]
    ]
    records = [r for s in segments for r in s["records"]]
    raw: Dict[str, object] = {
        "golden_seed": golden_seed,
        "segments": count,
        "failures": failures[:20],
        "calib_ms": calib,
        "setups": [s["setup_wall_s"] for s in segments],
        "batches": [s["batch_s"] for s in segments],
    }
    if not trace:
        metrics = {
            "setup_s": harness.median(s["setup_s"] for s in segments),
            "peak_rss_mb": harness.median(s["rss_mb"] for s in segments),
            "batch_s": harness.median(s["batch_s"] for s in segments),
        }
        metrics.update(_latency_summary("main", _pairs(records, "submit", "cancel"), raw))
        metrics.update(_latency_summary("side", _pairs(records, "jobs", "status"), raw))
    else:
        from tracing import span_cost_s

        cost = span_cost_s()
        per_segment = [service_layer_metrics(s, cost) for s in segments]
        metrics = {name: 0.0 for name in PER_LAYER}
        for name in per_segment[0]:
            metrics[name] = harness.median(m[name] for m in per_segment)
        for op in ("submit", "cancel", "jobs", "status"):
            metrics[f"loadgen.{op}_p50_ms"] = harness.median(
                (r["done"] - r["due"]) * 1e3 for r in _by_op(records, op)
            )
        lags: List[float] = []
        backlog = 0
        for s in segments:
            for ops in (("submit", "cancel"), ("jobs", "status")):
                stream = [r for r in s["records"] if r["op"] in ops]
                report = harness.open_loop(
                    [r["due"] for r in stream], [r["sent"] for r in stream],
                    [r["done"] for r in stream],
                )
                lags += report["lag"]
                backlog = max(backlog, report["backlog_max"])
        metrics["loadgen.lag_p50_ms"] = harness.median(lags) * 1e3
        metrics["loadgen.backlog_max"] = backlog
        metrics["host.calib_ms"] = harness.median(v for _, v in calib)
    return {
        "attempted": sum(s["attempted"] for s in segments),
        "failed": len(failures),
        "metrics": metrics,
        "raw": raw,
    }


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seed < 0 or args.seconds <= 0:
        parser.error("--seed must be >= 0 and --seconds positive")
    if not os.path.isdir(os.path.join(SRC, "repro")):
        print(f"repobench: no repro package under {SRC}", file=sys.stderr)
        return 2
    trace = bool(args.trace)
    if args.workload in FIGURE_WORKLOADS:
        outcome = run_figure_workload(args.workload, args.seed, args.seconds, trace)
    else:
        outcome = run_service_workload(args.seed, args.seconds, trace)
    units = PER_LAYER if trace else END_TO_END
    metrics = outcome["metrics"]
    missing = sorted(set(units) - set(metrics))
    if missing:
        raise RuntimeError(f"metrics not measured: {missing}")
    print(json.dumps({"raw": outcome["raw"]}))
    print(json.dumps({
        "correct": outcome["failed"] == 0,
        "attempted": outcome["attempted"],
        "failed": outcome["failed"],
        "metrics": {
            name: {"value": float(metrics[name]), "unit": units[name]}
            for name in units
        },
    }))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
