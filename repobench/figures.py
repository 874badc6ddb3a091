"""``fig7-small`` / ``fig11-small``: serial cold figure regenerations.

Each regeneration runs ``run_figure(<fig>, "small", seed)`` on the
serial engine after clearing the workload cache, exactly what a
``repro run <fig> --scale small`` invocation computes, and must match
the figure's golden series digest.  A run makes a fixed number of them
(:func:`regenerations_for`), each on its own golden seed, so a run's
medians pool several workload draws; between them it takes cold set-up
samples (a fresh interpreter importing the CLI and laying
out the sweep) and host calibration samples.

*main* is one replicate (every series on one draw), *side* one series
simulation (one ``Simulator.run``), *batch* one regeneration.  Untraced
runs probe the host before every ``Simulator.run`` and around every
set-up (:class:`harness.HostClock`), so each of these timings can be
reported host-normalised.
"""

from __future__ import annotations

import os
import resource
import subprocess
import sys
import time
from typing import Dict, List, Tuple

import harness
from tracing import Tracer, figure_layers

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")

#: Cold set-ups sampled per run.
SETUP_SAMPLES = 5
#: Share of ``--seconds`` one regeneration is given (one takes 14-27 s
#: for fig7 and 8-13 s for fig11 on a 2-vCPU host, depending on the
#: host's drift; set-ups and calibration take the rest of a run).  A run
#: makes a fixed number of regenerations, fitted to ``--seconds`` rather
#: than to the clock, so every run of a workload pools the same number of
#: replicates and its tail sits at the same rank.
REGENERATION_BUDGET_S = {"fig7": 20.0, "fig11": 15.0}


def regenerations_for(figure: str, seconds: float) -> int:
    """Regenerations one run of ``figure`` makes in ``seconds``."""
    return max(1, int(seconds // REGENERATION_BUDGET_S[figure]))


#: A fresh process's set-up for one figure regeneration: the CLI's
#: imports and the sweep layout, then a line on stdout.
PROBE = (
    "import sys\n"
    "import repro.cli\n"
    "from repro.experiments.config import get_scale\n"
    "from repro.experiments.figures import FIGURES\n"
    "FIGURES[sys.argv[1]].points(get_scale('small'))\n"
    "print('ready', flush=True)\n"
)


def setup_sample(figure: str) -> Tuple[float, float]:
    """Clock readings at spawning a fresh interpreter and when it is ready."""
    env = dict(os.environ, PYTHONPATH=SRC)
    started = time.perf_counter()
    proc = subprocess.Popen(
        [sys.executable, "-c", PROBE, figure],
        stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True,
        cwd=ROOT, env=env,
    )
    try:
        line = proc.stdout.readline()
        ready = time.perf_counter()
        _, err = proc.communicate(timeout=60)
    finally:
        if proc.poll() is None:
            proc.kill()
            proc.communicate()
    if line.strip() != "ready" or proc.returncode != 0:
        raise RuntimeError(f"set-up probe failed: {err.strip()[-300:]}")
    return started, ready


def run(figure: str, seeds: List[int], trace: bool,
        golden: Dict[str, str]) -> Dict[str, object]:
    """Regenerate ``figure`` once per seed; return the raw record."""
    from repro.core.kernels import process_decision_snapshot
    from repro.engine.cache import shared_cache
    from repro.experiments import figures, runner
    from repro.resilience.expected_time import ExpectedTimeModel
    from repro.simulation.simulator import Simulator

    tracer = Tracer()
    clock = harness.HostClock()
    events: List[int] = []
    record_events = lambda result: events.append(result.events)  # noqa: E731
    if trace:
        patches = figure_layers()
        for owner, attr, name in patches:
            tracer.patch(
                owner, attr, name,
                on_result=record_events if name == "simulation.run" else None,
            )
    else:
        tracer.patch(runner, "_run_replicate", "replicate")
        tracer.patch(Simulator, "run", "simulation.run", before=clock.probe)

    def setup() -> Tuple[float, float]:
        clock.probe(harness.SETUP_PROBES)
        interval = setup_sample(figure)
        clock.probe(harness.SETUP_PROBES)
        return interval

    calib = [("start", harness.calibration_ms()) for _ in range(3)]
    setups = [setup() for _ in range(2)]
    regenerations = []
    try:
        for seed in seeds:
            shared_cache.clear()
            decisions = process_decision_snapshot()
            profiles = ExpectedTimeModel.process_cache_snapshot()
            first_span = len(tracer.spans)
            started = time.perf_counter()
            result = figures.run_figure(figure, "small", seed=seed)
            ended = time.perf_counter()
            after_decisions = process_decision_snapshot()
            after_profiles = ExpectedTimeModel.process_cache_snapshot()
            regenerations.append({
                "interval": (started, ended),
                "seconds": ended - started,
                "spans": (first_span, len(tracer.spans)),
                "seed": seed,
                "digest_ok": harness.figure_digest(result) == golden[str(seed)],
                "rows": (after_decisions[0] - decisions[0],
                         after_decisions[1] - decisions[1]),
                "profiles": (after_profiles[0] - profiles[0],
                             after_profiles[1] - profiles[1]),
            })
            calib.append(("middle", harness.calibration_ms()))
            if len(setups) < SETUP_SAMPLES:
                setups.append(setup())
    finally:
        tracer.restore()
    while len(setups) < SETUP_SAMPLES:
        setups.append(setup())
    calib += [("end", harness.calibration_ms()) for _ in range(3)]
    return {
        "regenerations": regenerations,
        "setups": setups,
        "calib": calib,
        "spans": tracer.spans,
        "clock": clock,
        "events": events,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }
