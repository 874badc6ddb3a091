"""Daemon launcher: ``repro.service.server.main`` with optional spans.

Usage (the service workload spawns it)::

    python3 repobench/launcher.py [--trace] -- <daemon arguments>

With ``--trace`` it wraps ``ServiceAPI.handle`` (one span per operation,
named ``service.handle.<op>``) and the entry points of
:func:`tracing.service_layers`, runs the daemon until it exits, and
prints its spans as one ``SPANS <json>`` line after the daemon's own
drain summary.
"""

from __future__ import annotations

import json
import os
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, os.path.join(os.path.dirname(HERE), "src"))


def main(argv) -> int:
    trace = False
    if argv and argv[0] == "--trace":
        trace, argv = True, argv[1:]
    if argv and argv[0] == "--":
        argv = argv[1:]

    from repro.service import server

    tracer = None
    if trace:
        from tracing import Tracer, service_layers

        tracer = Tracer()
        tracer.patch(
            server.ServiceAPI, "handle", "service.handle",
            name_of=lambda api, op, data: op,
        )
        tracer.patch_all(service_layers())
    code = server.main(argv)
    if tracer is not None:
        print("SPANS " + json.dumps(tracer.spans), flush=True)
    return code


if __name__ == "__main__":
    raise SystemExit(main(sys.argv[1:]))
