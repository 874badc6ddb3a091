"""In-memory spans around the public entry points of each layer.

The benchmark records spans from its own files: :class:`Tracer` swaps a
timing wrapper in for a function or method (``patch``) and puts the
original back on ``restore``.  Spans stay in memory as
``[name, start, end, parent]`` rows (``time.perf_counter`` seconds,
which on Linux is ``CLOCK_MONOTONIC`` and so comparable across the
benchmark's processes) and are exported when the run ends.

:func:`figure_layers` and :func:`service_layers` name the entry points
each workload traces; both return ``(owner, attribute, span name)``
triples for :meth:`Tracer.patch_all`.
"""

from __future__ import annotations

import functools
import threading
import time
from typing import Callable, List, Optional, Sequence, Tuple

Patch = Tuple[object, str, str]


class Tracer:
    """Span recorder with one parent stack per thread."""

    def __init__(self) -> None:
        self.spans: List[list] = []
        self._local = threading.local()
        self._patched: List[Tuple[object, str, object]] = []

    def _stack(self) -> list:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def wrap(
        self, name: str, fn: Callable, name_of: Optional[Callable] = None,
        on_result: Optional[Callable] = None,
        before: Optional[Callable] = None,
    ) -> Callable:
        """``fn`` recording one span per call.

        ``name_of(*args, **kwargs)``, when given, returns a suffix for
        the span name (the service's operation name); ``on_result`` is
        called with each return value (the figure workload reads event
        counts off simulation results); ``before()`` runs ahead of each
        call, outside its span (the figure workload probes the host
        there).
        """
        spans = self.spans
        clock = time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if before is not None:
                before()
            stack = self._stack()
            label = name if name_of is None else f"{name}.{name_of(*args, **kwargs)}"
            row = [label, clock(), 0.0, stack[-1] if stack else -1]
            index = len(spans)
            spans.append(row)
            stack.append(index)
            try:
                result = fn(*args, **kwargs)
            finally:
                row[2] = clock()
                stack.pop()
            if on_result is not None:
                on_result(result)
            return result

        return traced

    def patch(
        self, owner: object, attr: str, name: str,
        name_of: Optional[Callable] = None,
        on_result: Optional[Callable] = None,
        before: Optional[Callable] = None,
    ) -> None:
        """Replace ``owner.attr`` by a traced wrapper."""
        original = getattr(owner, attr)
        self._patched.append((owner, attr, original))
        setattr(owner, attr, self.wrap(name, original, name_of, on_result, before))

    def patch_all(self, patches: Sequence[Patch]) -> None:
        for owner, attr, name in patches:
            self.patch(owner, attr, name)

    def restore(self) -> None:
        """Put every patched original back (reverse order)."""
        while self._patched:
            owner, attr, original = self._patched.pop()
            setattr(owner, attr, original)


def span_cost_s(samples: int = 20_000) -> float:
    """Measured extra cost of one traced call over a plain call (s)."""

    def noop() -> None:
        return None

    tracer = Tracer()
    traced = tracer.wrap("noop", noop)
    best = float("inf")
    for _ in range(3):
        started = time.perf_counter()
        for _ in range(samples):
            noop()
        plain = time.perf_counter() - started
        started = time.perf_counter()
        for _ in range(samples):
            traced()
        wrapped = time.perf_counter() - started
        tracer.spans.clear()
        best = min(best, (wrapped - plain) / samples)
    return max(best, 0.0)


def figure_layers() -> List[Patch]:
    """Entry points a figure regeneration crosses, outermost first."""
    from repro.core.heuristics.end_local import EndLocal
    from repro.core.heuristics.iterated_greedy import EndGreedy, IteratedGreedy
    from repro.core.heuristics.stf import ShortestTasksFirst
    from repro.engine import executors
    from repro.experiments import figures, runner
    from repro.resilience.expected_time import ExpectedTimeModel
    from repro.simulation import simulator

    return [
        (figures, "run_figure", "experiments.figure"),
        (executors.Executor, "map", "engine.map"),
        (executors, "_execute_chunk", "engine.chunk"),
        (runner, "_run_replicate", "replicate"),
        (ExpectedTimeModel, "__init__", "resilience.model_build"),
        (ExpectedTimeModel, "profile_batch", "resilience.profile"),
        (ExpectedTimeModel, "profile_matrix", "resilience.profile"),
        (simulator.Simulator, "run", "simulation.run"),
        (simulator.Simulator, "start", "simulation.start"),
        (simulator, "optimal_schedule", "core.optimal"),
        (EndLocal, "apply", "core.completion"),
        (EndGreedy, "apply", "core.completion"),
        (IteratedGreedy, "apply", "core.failure"),
        (ShortestTasksFirst, "apply", "core.failure"),
    ]


def service_layers() -> List[Patch]:
    """Entry points one service request crosses, outermost first."""
    from repro.resilience.expected_time import ExpectedTimeModel
    from repro.service import horizon, session
    from repro.simulation import simulator

    return [
        (session.ServiceSession, "submit", "service.engine"),
        (session.ServiceSession, "cancel", "service.engine"),
        (horizon, "residual_workload", "core.residual"),
        (ExpectedTimeModel, "__init__", "resilience.model_build"),
        (ExpectedTimeModel, "profile_batch", "resilience.profile"),
        (ExpectedTimeModel, "profile_matrix", "resilience.profile"),
        (horizon, "optimal_schedule", "core.optimal"),
        (simulator.Simulator, "start", "simulation.start"),
    ]
