"""Record the golden digests the benchmark checks its outputs against.

::

    python3 repobench/record_golden.py            # rewrite golden.json

For each of :data:`GOLDEN_SEEDS` seeds it regenerates fig7 and fig11 at
``small`` on the serial reference engine from cold caches and stores
their canonical series digests, and replays every service segment
through the in-process reference (:func:`service.reference_drain`) and
stores the digest of its drain reply.  The benchmark maps its
``--seed`` onto these seeds (``seed % GOLDEN_SEEDS``).

Re-record only when a change is *meant* to alter figure values or the
service's schedule, and say so in the change; see README.md.
"""

from __future__ import annotations

import json
import os
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, os.path.join(os.path.dirname(HERE), "src"))

import harness  # noqa: E402
import service  # noqa: E402

GOLDEN_PATH = os.path.join(HERE, "golden.json")
GOLDEN_SEEDS = 16
FIGURES = ("fig7", "fig11")


def record() -> dict:
    from repro.engine.cache import shared_cache
    from repro.experiments.figures import run_figure

    golden: dict = {"seeds": GOLDEN_SEEDS, "scale": "small", "service": {}}
    for name in FIGURES:
        golden[name] = {}
    for seed in range(GOLDEN_SEEDS):
        started = time.perf_counter()
        for name in FIGURES:
            shared_cache.clear()
            result = run_figure(name, "small", seed=seed, engine="serial")
            golden[name][str(seed)] = harness.figure_digest(result)
        golden["service"][str(seed)] = [
            harness.canonical_digest(service.reference_drain(seed, segment))
            for segment in range(service.MAX_SEGMENTS)
        ]
        print(
            f"seed {seed}: {time.perf_counter() - started:.1f}s",
            file=sys.stderr, flush=True,
        )
    return golden


def load() -> dict:
    with open(GOLDEN_PATH) as fh:
        return json.load(fh)


if __name__ == "__main__":
    document = record()
    with open(GOLDEN_PATH, "w") as fh:
        json.dump(document, fh, indent=1, sort_keys=True)
        fh.write("\n")
