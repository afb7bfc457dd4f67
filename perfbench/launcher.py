"""The serve_warm server process.

Builds ``QueryService(workers=2)`` over the seeded serve databases,
starts ``serve.server.serve()`` on a kernel-chosen localhost port, and
prints ``ready <host> <port>``.  It then answers one-line commands on
stdin, each with one line on stdout:

* ``reset``  — start a fresh span window (traced servers); ``ok``
* ``report`` — one JSON object: peak RSS and, when traced, the layer
  totals and counters since the last reset (``report`` also resets)
* ``stop``   — graceful shutdown (listener, then the drained service);
  ``bye``, exit 0.  End of input does the same.

Run by ``serve_warm.py``; usable by hand::

    python3 perfbench/launcher.py --seed 1 [--trace]
"""

from __future__ import annotations

import argparse
import json
import os
import sys

import common


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--trace", action="store_true")
    parser.add_argument("--cpu", type=int, help="pin this process to one CPU")
    args = parser.parse_args(argv)
    if args.cpu is not None:
        os.sched_setaffinity(0, {args.cpu})
    if not common.use_source():
        print("launcher: no program source under src/", file=sys.stderr)
        return 2

    from repro import QueryService
    from repro.serve.server import serve

    import inputs

    tracer = None
    if args.trace:
        from tracer import Tracer

        tracer = Tracer().enable()
    service = QueryService(inputs.serve_databases_for(args.seed), workers=2)
    server = serve(service)
    host, port = server.address
    print(f"ready {host} {port}", flush=True)
    try:
        for line in sys.stdin:
            command = line.strip()
            if command == "reset":
                if tracer is not None:
                    tracer.take()
                    tracer.kept.clear()
                print("ok", flush=True)
            elif command == "report":
                report = {"rss_mb": common.peak_rss_mb()}
                if tracer is not None:
                    report["snapshot"] = tracer.take().as_dict()
                    report["spans"] = tracer.kept
                    report["overflowed"] = tracer.overflowed
                print(json.dumps(report), flush=True)
            elif command == "stop":
                break
            else:
                print(f"error unknown command {command!r}", flush=True)
    finally:
        server.stop()
        if tracer is not None:
            tracer.disable()
    print("bye", flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
