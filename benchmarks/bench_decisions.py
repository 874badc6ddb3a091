"""Decision benchmark: incremental vs rebuild vs scalar hot paths.

Two layers of the decision stack are measured on a *failure-heavy*
scenario (low MTBF, large pack, ~10k+ events) whose runtime is
dominated by rebuild decisions, and the decision state once more on a
*completion-heavy* one shaped like the figures (the mid-sweep fig7
point at the bench scale, EndLocal and EndGreedy, where task ends
outnumber failures):

* the ``decision_kernel="array"`` matrix build (:mod:`repro.core.
  kernels`) against the per-probe ``"scalar"`` reference (PR 3), and
* the ``decision_state="incremental"`` delta-patched
  :class:`~repro.core.kernels.DecisionCache` against the per-decision
  fresh build ``"rebuild"`` (this layer's claim: one event dirties at
  most a few rows, so patching beats rebuilding), and
* the PR-7 native-speed hot core (fused profile backend, vectorised
  failure path, incremental profile deltas) against the all-reference
  substrate (``profile_backend="reference"`` on the fresh-build array
  kernel).

Measurements:

* ``sim_failure_heavy_incremental`` — the default engine: array kernel
  + persistent decision cache + incremental rebuild heap + fused
  profile backend;
* ``sim_failure_heavy_array`` — the PR-3 fresh-build array kernel
  (``decision_state="rebuild"``);
* ``sim_failure_heavy_reference`` — the fresh-build array kernel on
  ``profile_backend="reference"`` (the PR-6-era substrate);
* ``sim_failure_heavy_scalar`` — the seed-style scalar kernel;
* ``sim_completion_heavy_{incremental,array}`` — one ``ig-el`` and one
  ``ig-eg`` run of the completion-heavy scenario on the default engine
  and on the fresh-build array kernel;
* ``rebuild_{array,scalar}`` — one isolated Algorithm-5 rebuild of an
  ``n``-task pack per kernel.

The simulations of one scenario run on the same workload and fault
draw and the benchmark asserts they are identical before timing is
trusted.

Runs two ways:

* under pytest: ``PYTHONPATH=src python -m pytest benchmarks/bench_decisions.py``
* standalone, recording the committed baseline ``BENCH_decisions.json``::

      REPRO_BENCH_SCALE=small PYTHONPATH=src \\
          python -m benchmarks.bench_decisions --write

``python -m benchmarks.check_regression`` re-runs the measurements and
enforces the derived host-relative floors: ``sim_kernel_speedup``
(scalar seconds over fresh-build array seconds, floor 1.5x),
``sim_state_speedup`` (fresh-build seconds over incremental seconds,
floor 1.3x), ``sim_failure_heavy_speedup`` (reference-substrate
seconds over incremental seconds, floor 2x at small/paper and 1.25x on
the tiny CI leg — the hot-core target) and
``sim_completion_heavy_speedup`` (fresh-build seconds over incremental
seconds on the completion-heavy scenario, where the column-windowed
decision rows pay off; floors in ``COMPLETION_HEAVY_FLOORS``).
``REPRO_BENCH_SCALE`` (``tiny``/``small``/``paper``) sizes the
scenarios.
"""

from __future__ import annotations

import argparse
import json
import platform
import time
from pathlib import Path
from typing import Callable, Dict, Optional, Sequence

from repro.cluster import Cluster
from repro.core import optimal_schedule
from repro.core.heuristics import greedy_rebuild
from repro.core.state import TaskRuntime
from repro.experiments.config import ScenarioConfig, get_scale
from repro.resilience import ExpectedTimeModel
from repro.simulation import simulate
from repro.tasks import uniform_pack

try:  # pytest / sys.path import (benchmarks/ on the path)
    from ._common import BENCH_SCALE
except ImportError:  # pragma: no cover - direct execution fallback
    from _common import BENCH_SCALE

#: Committed baseline location (repo root).
DEFAULT_BASELINE = Path(__file__).resolve().parent.parent / "BENCH_decisions.json"

#: Failure-heavy scenario per scale: pack size, platform size, task size
#: and a deliberately hopeless MTBF so failures (and their rebuild
#: decisions) dominate the event stream.
SCALE_PARAMS: Dict[str, Dict[str, float]] = {
    "tiny": dict(n=32, p=192, m_sup=14_000.0, mtbf_years=0.001, seed=3),
    "small": dict(n=64, p=512, m_sup=24_000.0, mtbf_years=0.002, seed=3),
    "paper": dict(n=100, p=1000, m_sup=25_000.0, mtbf_years=0.004, seed=3),
}

PARAMS = SCALE_PARAMS.get(BENCH_SCALE, SCALE_PARAMS["small"])

#: Scale-aware floor for the hot-core failure-heavy gate.  The 2x
#: tentpole target is a small/paper-scale claim — the substrate work
#: the hot core removes grows with the pack while the per-event Python
#: skeleton does not, so at ``tiny`` (n=32) the ratio compresses and
#: the CI leg enforces a correspondingly reduced floor.
FAILURE_HEAVY_FLOORS = {"tiny": 1.25, "small": 2.0, "paper": 2.0}
FAILURE_HEAVY_FLOOR = FAILURE_HEAVY_FLOORS.get(BENCH_SCALE, 2.0)

#: Completion-heavy scenario: the fig7 sweep point n=500 on p=5000
#: shrunk by the bench scale's preset (``small``: n=100 on p=1000, the
#: figure's own mid point; ``paper`` reuses that point), replicate seed,
#: and the policies run per rep — one per completion heuristic, both
#: with the Algorithm-5 failure rebuild.
COMPLETION_SCALE = BENCH_SCALE if BENCH_SCALE in ("tiny", "small") else "small"
COMPLETION_CONFIG = get_scale(COMPLETION_SCALE).apply(
    ScenarioConfig(n=500, p=5000)
)
COMPLETION_SEED = 3
COMPLETION_POLICIES = ("ig-el", "ig-eg")

#: Scale-aware floor for the completion-heavy decision-state gate.
#: Measured on a 2-vCPU host: 4.3-5.9x at small and 2.6-3.0x at tiny
#: with column-windowed rows, against 2.3-2.7x and 1.9-2.0x when the
#: cache patched EndLocal rows one at a time over the full grid.
COMPLETION_HEAVY_FLOORS = {"tiny": 2.0, "small": 3.0, "paper": 3.0}
COMPLETION_HEAVY_FLOOR = COMPLETION_HEAVY_FLOORS.get(BENCH_SCALE, 3.0)

#: Rebuild microbenchmark pack size per scale.
REBUILD_N = {"tiny": 24, "small": 64, "paper": 128}.get(BENCH_SCALE, 64)


def _sim_workload():
    params = PARAMS
    pack = uniform_pack(
        int(params["n"]),
        m_inf=params["m_sup"] * 0.8,
        m_sup=params["m_sup"],
        seed=1,
    )
    cluster = Cluster.with_mtbf_years(int(params["p"]), params["mtbf_years"])
    return pack, cluster, int(params["seed"])


def measure(
    fn: Callable[[], object], *, number: int = 1, repeats: int = 3
) -> float:
    """Best-of-``repeats`` mean seconds per call over ``number`` calls."""
    best = float("inf")
    for _ in range(repeats):
        start = time.perf_counter()
        for _ in range(number):
            fn()
        best = min(best, (time.perf_counter() - start) / number)
    return best


def _sim_runner(
    kernel: str, state: str, profile_backend: str,
    scenario: str = "failure_heavy",
) -> Callable[[], Dict[str, float]]:
    """A zero-argument run of ``scenario`` in the given modes, returning
    its identity fields: one failure-heavy ``ig-el`` simulation, or one
    simulation per :data:`COMPLETION_POLICIES` on the completion-heavy
    draw (fields summed)."""
    if scenario == "failure_heavy":
        pack, cluster, seed = _sim_workload()
        policies: Sequence[str] = ("ig-el",)
    else:
        pack = COMPLETION_CONFIG.build_pack(COMPLETION_SEED)
        cluster = COMPLETION_CONFIG.build_cluster()
        seed, policies = COMPLETION_SEED, COMPLETION_POLICIES
    model = ExpectedTimeModel(pack, cluster, profile_backend=profile_backend)

    def run() -> Dict[str, float]:
        results = [
            simulate(
                pack, cluster, policy, seed=seed, model=model,
                decision_kernel=kernel, decision_state=state,
            )
            for policy in policies
        ]
        return {
            "events": float(sum(r.events for r in results)),
            "failures": float(sum(r.failures_effective for r in results)),
            "makespan": sum(r.makespan for r in results),
        }

    return run


def measure_sim(
    kernel: str, state: str = "rebuild", profile_backend: str = "fused",
    scenario: str = "failure_heavy",
) -> Dict[str, float]:
    """One full ``scenario`` run on the given decision modes.

    Best-of-5 consecutive reps; when two sim modes feed a derived
    ratio, prefer :func:`run_all`, which interleaves the reps across
    modes so host drift cannot land on one side of the ratio.
    """
    run = _sim_runner(kernel, state, profile_backend, scenario)
    fields = run()
    return {"seconds": measure(run, repeats=5), **fields}


def _rebuild_once(n: int, kernel: str) -> Callable[[], list]:
    pack = uniform_pack(n, m_inf=6000, m_sup=10000, seed=0)
    cluster = Cluster.with_mtbf_years(8 * n, 0.02)
    model = ExpectedTimeModel(pack, cluster)
    sigma = optimal_schedule(model, 8 * n)

    def rebuild() -> list:
        runtimes = []
        for i, spec in enumerate(pack):
            rt = TaskRuntime(spec)
            rt.assign(sigma[i])
            rt.t_expected = model.expected_time(i, sigma[i], 1.0)
            runtimes.append(rt)
        t = min(rt.t_expected for rt in runtimes) * 0.5
        greedy_rebuild(model, t, runtimes, 8 * n, kernel=kernel)
        # Full mutated state, so identity checks compare the actual
        # allocations and bookkeeping, not just which tasks moved.
        return [
            (rt.sigma, rt.alpha, rt.t_last, rt.t_expected)
            for rt in runtimes
        ]

    return rebuild


def measure_rebuild(kernel: str) -> Dict[str, float]:
    """One Algorithm-5 rebuild on the given kernel."""
    return {
        "seconds": measure(
            _rebuild_once(REBUILD_N, kernel),
            number=max(2, 64 // REBUILD_N),
            repeats=5,
        )
    }


#: Simulation measurements: name -> (kernel, state, profile_backend,
#: scenario).
SIM_MODES: Dict[str, tuple] = {
    "sim_failure_heavy_array": ("array", "rebuild", "fused", "failure_heavy"),
    "sim_failure_heavy_reference": (
        "array", "rebuild", "reference", "failure_heavy",
    ),
    "sim_failure_heavy_incremental": (
        "array", "incremental", "fused", "failure_heavy",
    ),
    "sim_failure_heavy_scalar": ("scalar", "rebuild", "fused", "failure_heavy"),
    "sim_completion_heavy_array": (
        "array", "rebuild", "fused", "completion_heavy",
    ),
    "sim_completion_heavy_incremental": (
        "array", "incremental", "fused", "completion_heavy",
    ),
}

#: name -> zero-argument measurement returning at least {"seconds": s}.
#: Insertion order is the default execution order: the fresh-build run
#: goes first so process warm-up (allocator, CPU ramp) never lands on
#: one side of a derived speedup ratio.
MEASUREMENTS: Dict[str, Callable[[], Dict[str, float]]] = {
    **{
        name: (lambda modes=modes: measure_sim(*modes))
        for name, modes in SIM_MODES.items()
    },
    "rebuild_array": lambda: measure_rebuild("array"),
    "rebuild_scalar": lambda: measure_rebuild("scalar"),
}


def _measure_sims_interleaved(
    names: Sequence[str], repeats: int = 5
) -> Dict[str, Dict[str, float]]:
    """Best-of-``repeats`` for several sim modes, reps round-robin.

    The derived speedups divide two of these measurements, so the reps
    are interleaved (one run of *every* mode per round) — a load spike
    on a noisy shared host then inflates all modes in the same rounds
    instead of landing its whole duration on one side of a ratio.
    """
    runners = {name: _sim_runner(*SIM_MODES[name]) for name in names}
    results = {}
    for name, run in runners.items():  # warm-up + identity fields
        results[name] = {"seconds": float("inf"), **run()}
    for _ in range(repeats):
        for name, run in runners.items():
            start = time.perf_counter()
            run()
            elapsed = time.perf_counter() - start
            if elapsed < results[name]["seconds"]:
                results[name]["seconds"] = elapsed
    return results


def run_all(names: Optional[Sequence[str]] = None) -> Dict[str, Dict[str, float]]:
    """Run the selected measurements (all by default) and check identity."""
    selected = list(MEASUREMENTS) if names is None else list(names)
    sim_names = [name for name in selected if name in SIM_MODES]
    results = (
        _measure_sims_interleaved(sim_names) if len(sim_names) > 1 else {}
    )
    for name in selected:
        if name not in results:
            results[name] = MEASUREMENTS[name]()
    # The timing is only meaningful if every mode executed the exact
    # same simulations of its scenario.
    for scenario in ("failure_heavy", "completion_heavy"):
        sims = [
            results[name]
            for name, modes in SIM_MODES.items()
            if modes[3] == scenario and name in results
        ]
        for other in sims[1:]:
            for field in ("events", "failures", "makespan"):
                assert sims[0][field] == other[field], (
                    f"decision-mode divergence on {scenario} {field}: "
                    f"{sims[0][field]} vs {other[field]}"
                )
    return results


def sim_kernel_speedup(results: Dict[str, Dict[str, float]]) -> float:
    """Scalar seconds over fresh-build array seconds (failure-heavy)."""
    return (
        results["sim_failure_heavy_scalar"]["seconds"]
        / results["sim_failure_heavy_array"]["seconds"]
    )


def sim_state_speedup(results: Dict[str, Dict[str, float]]) -> float:
    """Fresh-build seconds over incremental seconds (failure-heavy).

    The decision-state acceptance number: how much the delta-patched
    ``DecisionCache`` buys over the PR-3 per-decision rebuild.
    """
    return (
        results["sim_failure_heavy_array"]["seconds"]
        / results["sim_failure_heavy_incremental"]["seconds"]
    )


def sim_failure_heavy_speedup(results: Dict[str, Dict[str, float]]) -> float:
    """Reference-substrate seconds over incremental seconds.

    The ISSUE 7 hot-core acceptance number: the full native-speed stack
    (fused profile backend + vectorised failure path + incremental
    profile deltas + decision cache) against the same simulation on the
    ``profile_backend="reference"`` fresh-build array kernel.
    """
    return (
        results["sim_failure_heavy_reference"]["seconds"]
        / results["sim_failure_heavy_incremental"]["seconds"]
    )


def sim_completion_heavy_speedup(
    results: Dict[str, Dict[str, float]]
) -> float:
    """Fresh-build seconds over incremental seconds (completion-heavy).

    The decision-state number on the figures' own mix of work: task
    ends outnumber failures, so EndLocal's batched window pass and the
    windowed Algorithm-5 rebuild carry the run.
    """
    return (
        results["sim_completion_heavy_array"]["seconds"]
        / results["sim_completion_heavy_incremental"]["seconds"]
    )


def rebuild_kernel_speedup(results: Dict[str, Dict[str, float]]) -> float:
    """Scalar seconds over array seconds on the isolated rebuild."""
    return (
        results["rebuild_scalar"]["seconds"]
        / results["rebuild_array"]["seconds"]
    )


def payload_from(results: Dict[str, Dict[str, float]]) -> Dict[str, object]:
    return {
        "schema": 1,
        "scale": BENCH_SCALE,
        "python": platform.python_version(),
        "machine": platform.machine(),
        "benchmarks": results,
        "derived": {
            "sim_kernel_speedup": sim_kernel_speedup(results),
            "sim_state_speedup": sim_state_speedup(results),
            "sim_failure_heavy_speedup": sim_failure_heavy_speedup(results),
            "sim_completion_heavy_speedup": (
                sim_completion_heavy_speedup(results)
            ),
            "rebuild_kernel_speedup": rebuild_kernel_speedup(results),
        },
    }


def write_baseline(path: Path = DEFAULT_BASELINE) -> Dict[str, object]:
    """Measure everything and record the committed baseline JSON."""
    payload = payload_from(run_all())
    path.write_text(json.dumps(payload, indent=2, sort_keys=True) + "\n")
    return payload


# -- pytest entry points -----------------------------------------------------

def test_array_kernel_beats_scalar_on_failures():
    """Acceptance gate: the array kernel is >= 1.5x on the decision path.

    One retry before failing — the margin is real, but shared CI
    runners can invert a single noisy sample.
    """
    results = run_all(["sim_failure_heavy_array", "sim_failure_heavy_scalar"])
    assert results["sim_failure_heavy_array"]["events"] >= 1000
    if sim_kernel_speedup(results) < 1.5:  # pragma: no cover - noisy host
        results = run_all(
            ["sim_failure_heavy_array", "sim_failure_heavy_scalar"]
        )
    speedup = sim_kernel_speedup(results)
    assert speedup >= 1.5, (
        f"array kernel only {speedup:.2f}x over scalar on the "
        "failure-heavy decision benchmark"
    )


def test_incremental_state_beats_rebuild():
    """Acceptance gate: delta-patching is >= 1.3x over the fresh build.

    The PR's decision-state claim on the failure-heavy run, with one
    retry for noisy shared runners.
    """
    results = run_all(
        ["sim_failure_heavy_array", "sim_failure_heavy_incremental"]
    )
    assert results["sim_failure_heavy_incremental"]["events"] >= 1000
    if sim_state_speedup(results) < 1.3:  # pragma: no cover - noisy host
        results = run_all(
            ["sim_failure_heavy_array", "sim_failure_heavy_incremental"]
        )
    speedup = sim_state_speedup(results)
    assert speedup >= 1.3, (
        f"incremental decision state only {speedup:.2f}x over the "
        "fresh-build array kernel on the failure-heavy benchmark"
    )


def test_hot_core_beats_reference_on_failures():
    """Acceptance gate: the native-speed hot core wins end to end.

    ISSUE 7's tentpole claim — fused profile backend + vectorised
    failure path + incremental profile deltas together at least double
    the failure-heavy run over the reference substrate at small/paper
    scale (``FAILURE_HEAVY_FLOORS`` relaxes the tiny CI leg).  One
    retry for noisy shared runners.
    """
    floor = FAILURE_HEAVY_FLOOR
    results = run_all(
        ["sim_failure_heavy_reference", "sim_failure_heavy_incremental"]
    )
    assert results["sim_failure_heavy_incremental"]["events"] >= 1000
    if sim_failure_heavy_speedup(results) < floor:  # pragma: no cover - noisy host
        results = run_all(
            ["sim_failure_heavy_reference", "sim_failure_heavy_incremental"]
        )
    speedup = sim_failure_heavy_speedup(results)
    assert speedup >= floor, (
        f"hot core only {speedup:.2f}x over the reference substrate on "
        f"the failure-heavy benchmark (floor {floor:g}x at {BENCH_SCALE})"
    )


def test_incremental_state_beats_rebuild_on_completions():
    """Acceptance gate: the column-windowed decision state wins on the
    completion-heavy scenario (``COMPLETION_HEAVY_FLOORS``), with one
    retry for noisy shared runners."""
    floor = COMPLETION_HEAVY_FLOOR
    names = ["sim_completion_heavy_array", "sim_completion_heavy_incremental"]
    results = run_all(names)
    assert results["sim_completion_heavy_incremental"]["events"] >= 100
    if sim_completion_heavy_speedup(results) < floor:  # pragma: no cover - noisy host
        results = run_all(names)
    speedup = sim_completion_heavy_speedup(results)
    assert speedup >= floor, (
        f"incremental decision state only {speedup:.2f}x over the fresh "
        f"build on the completion-heavy benchmark (floor {floor:g}x at "
        f"{BENCH_SCALE})"
    )


def test_rebuild_kernels_agree():
    """The two kernels rebuild identical state on the micro case."""
    array_state = _rebuild_once(REBUILD_N, "array")()
    scalar_state = _rebuild_once(REBUILD_N, "scalar")()
    assert array_state == scalar_state


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = argparse.ArgumentParser(
        description="Measure the decision-kernel benchmarks."
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
        payload = payload_from(run_all())
    print(json.dumps(payload, indent=2, sort_keys=True))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
