"""Pure helpers of the repository benchmark.

Nothing here imports :mod:`repro` or starts a process: the statistics
(medians and the tail rule), open-loop accounting, span self-time, the
host calibration loop and the canonical digests.  ``repobench/tests``
pins each of them.
"""

from __future__ import annotations

import bisect
import hashlib
import json
import statistics
import time
from typing import Dict, Iterable, List, Optional, Sequence, Tuple

#: A tail is the highest percentile with at least this many samples
#: strictly beyond it.
MIN_BEYOND = 10


def median(values: Iterable[float]) -> float:
    """Median of a non-empty sample."""
    values = list(values)
    if not values:
        raise ValueError("median of an empty sample")
    return float(statistics.median(values))


def tail(
    values: Iterable[float], beyond: int = MIN_BEYOND
) -> Optional[Tuple[float, float, int]]:
    """``(value, percentile, count)`` of the tail, or ``None``.

    The tail is the highest order statistic that still has ``beyond``
    samples above it in sorted order: with ``n`` samples it is the value
    at 0-based rank ``n - beyond - 1``, reported as the
    ``100 * (rank + 1) / n`` percentile.  Fewer than ``beyond + 1``
    samples have no tail.
    """
    ordered = sorted(float(v) for v in values)
    n = len(ordered)
    rank = n - beyond - 1
    if rank < 0:
        return None
    return ordered[rank], 100.0 * (rank + 1) / n, n


def due_times(
    start: float, rate: float, count: int, offset: float = 0.0
) -> List[float]:
    """Open-loop schedule: ``count`` sends at ``rate`` per second."""
    if rate <= 0:
        raise ValueError(f"rate must be positive, got {rate}")
    return [start + offset + k / rate for k in range(count)]


def open_loop(
    due: Sequence[float], sent: Sequence[float], done: Sequence[float]
) -> Dict[str, object]:
    """Latency, lag and backlog of one open-loop request stream.

    ``due[i]`` is when request ``i`` was scheduled, ``sent[i]`` when the
    generator actually sent it and ``done[i]`` when its reply arrived.
    Latency runs from the due time, so a stall also charges the requests
    it delays; lag is how late the generator sent.  The backlog at a
    send is the number of other requests already due but not yet sent.
    """
    if not (len(due) == len(sent) == len(done)):
        raise ValueError("due, sent and done must have equal lengths")
    latency = [d - u for u, d in zip(due, done)]
    lag = [s - u for u, s in zip(due, sent)]
    due_sorted = sorted(due)
    sent_sorted = sorted(sent)
    backlog_max = 0
    for s in sent:
        due_by_now = bisect.bisect_right(due_sorted, s)
        sent_by_now = bisect.bisect_right(sent_sorted, s)
        backlog_max = max(backlog_max, due_by_now - sent_by_now)
    return {"latency": latency, "lag": lag, "backlog_max": backlog_max}


def self_times(spans: Sequence[Sequence]) -> List[float]:
    """Self time of every span: its duration minus its children's cover.

    ``spans[i]`` is ``(name, start, end, parent)`` with ``parent`` the
    index of the enclosing span or ``-1``.  Children of one span may
    overlap (threads), so their intervals are merged before the covered
    length is subtracted; a child sticking out of its parent counts only
    inside the parent.
    """
    children: Dict[int, List[Tuple[float, float]]] = {}
    for _, start, end, parent in (tuple(s)[:4] for s in spans):
        if parent >= 0:
            children.setdefault(parent, []).append((start, end))
    result = []
    for index, span in enumerate(spans):
        _, start, end, _ = tuple(span)[:4]
        covered = 0.0
        cursor = start
        for c_start, c_end in sorted(children.get(index, ())):
            c_start, c_end = max(c_start, cursor), min(c_end, end)
            if c_end > c_start:
                covered += c_end - c_start
                cursor = c_end
        result.append((end - start) - covered)
    return result


def calibration_ms(loops: int = 200_000) -> float:
    """Wall time of a fixed pure-Python loop, in ms (host drift probe)."""
    started = time.perf_counter()
    acc = 0
    for k in range(loops):
        acc += k * k % 7
    elapsed = time.perf_counter() - started
    if acc < 0:  # pragma: no cover - keeps the loop from being elided
        raise AssertionError
    return elapsed * 1e3


#: Loop count of one host-speed probe (about 1.5 ms on a fast core).
PROBE_LOOPS = 20_000
#: Probe time, in ms, that host-normalised durations are scaled to: a
#: normalised duration is what the interval would have taken with the
#: probe reading this.
PROBE_REF_MS = 1.5
#: Probes starting within this many seconds of an interval set the host
#: speed charged to it.
PROBE_WINDOW_S = 1.0
#: Probes taken before and after each set-up sample, which has no probes
#: inside it.
SETUP_PROBES = 8


class HostClock:
    """Host-normalised durations from probes interleaved with the work.

    The host's speed drifts by up to 1.7x for seconds to minutes (see
    README.md), and CPU-bound work slows in step with a fixed
    pure-Python loop.  The benchmark runs a short loop (:meth:`probe`)
    between its timed units of work;  :meth:`normalized` then returns an
    interval's length with the probes inside it taken out and every
    stretch between probes scaled by ``PROBE_REF_MS`` over the median
    probe time within ``window_s`` of that stretch.
    """

    def __init__(
        self, loops: int = PROBE_LOOPS, ref_ms: float = PROBE_REF_MS,
        window_s: float = PROBE_WINDOW_S,
    ) -> None:
        self.loops = loops
        self.ref_ms = ref_ms
        self.window_s = window_s
        self.starts: List[float] = []
        self.ends: List[float] = []
        self.ms: List[float] = []

    def record(self, start: float, end: float, ms: float) -> None:
        """Add a probe that ran over ``[start, end]`` and read ``ms``."""
        if self.starts and start < self.ends[-1]:
            raise ValueError("probes must be recorded in time order")
        self.starts.append(start)
        self.ends.append(end)
        self.ms.append(ms)

    def probe(self, count: int = 1) -> None:
        for _ in range(count):
            start = time.perf_counter()
            ms = calibration_ms(self.loops)
            self.record(start, time.perf_counter(), ms)

    def probe_ms(self, start: float, end: float) -> float:
        """Median probe time near ``[start, end]``.

        Probes starting within ``window_s`` of the interval count; when
        there are none, the last probe before it and the first after.
        """
        if not self.ms:
            raise ValueError("no host probes recorded")
        lo = bisect.bisect_left(self.starts, start - self.window_s)
        hi = bisect.bisect_right(self.starts, end + self.window_s)
        if lo == hi:
            lo, hi = max(lo - 1, 0), min(hi + 1, len(self.ms))
        return median(self.ms[lo:hi])

    def normalized(self, start: float, end: float) -> float:
        """Host-normalised seconds of ``[start, end]``, probes excluded."""
        total = 0.0
        cursor = start
        first = bisect.bisect_right(self.ends, start)
        for k in range(first, len(self.starts)):
            if self.starts[k] >= end:
                break
            if self.starts[k] > cursor:
                total += self._scaled(cursor, self.starts[k])
            cursor = max(cursor, self.ends[k])
        if end > cursor:
            total += self._scaled(cursor, end)
        return total

    def _scaled(self, start: float, end: float) -> float:
        return (end - start) * self.ref_ms / self.probe_ms(start, end)


def canonical_digest(document: object) -> str:
    """sha256 of a document's canonical JSON (sorted keys, no spaces)."""
    payload = json.dumps(document, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(payload.encode("utf-8")).hexdigest()


def figure_digest(result) -> str:
    """Canonical series digest of a sweep figure result.

    Covers the sweep positions and every series' mean and normalised
    values; JSON floats are written with ``repr`` precision, so any
    change in the last bit of a value changes the digest.
    """
    return canonical_digest(
        {
            "figure": result.figure,
            "x": list(result.x_values),
            "means": result.means,
            "normalized": result.normalized,
        }
    )
