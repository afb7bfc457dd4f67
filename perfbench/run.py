"""The benchmark's one command.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Runs one workload from the checkout's ``src`` (pure Python: nothing to
build).  Set-up runs several times, fresh each time (each workload's
``setups``: enough that they take a second or more in all), and
``setup_s`` is the median.  The last set-up is measured for
``--seconds`` (a run that cannot split its operation, ``theorem_col``,
measures whole passes and at least ``--seconds``).  Every output is checked against an oracle
outside the timed region.

``--trace 0`` measures untraced and ends with the end-to-end metrics.
``--trace 1`` does the same untraced phase, then sets up again with
the span tracer installed, measures a traced phase, and ends with the
per-layer metrics (self times, counters, and the tracing overhead);
spans and layer totals are written under ``.perfbench_out/``.

Output: a human-readable report (each metric with its unit and sample
count, the sanity counters, any problem), one ``perfbench-detail``
JSON line with everything, and last the result line
``{"correct", "attempted", "failed", "metrics"}``.  The exit code is 0
only when every output was right and every sanity counter in range.
"""

from __future__ import annotations

import argparse
import importlib
import json
import statistics
import sys
import time

import common


#: The traced phase builds its inputs from ``seed + TRACED_SEED_OFFSET``:
#: the same shapes under other atom names, so the untraced phase before
#: it has not already warmed the process-wide interner with them.
TRACED_SEED_OFFSET = 1_000_000


#: Workload name -> class in the module of the same name.
WORKLOAD_CLASSES = {
    "serve_warm": "ServeWarm",
    "query_cold": "QueryCold",
    "theorem_col": "TheoremCol",
    "store_commit": "StoreCommit",
}


def _workload(name: str):
    return getattr(importlib.import_module(name), WORKLOAD_CLASSES[name])()


def run(name: str, seed: int, seconds: float, trace: bool) -> common.Outcome:
    workload = _workload(name)
    outcome = common.Outcome(name)

    setup_times = []
    state = None
    for _ in range(workload.setups):
        if state is not None:
            workload.teardown(state)
            state = None
        started = time.perf_counter()
        state = workload.setup(seed, traced=False)
        setup_times.append(time.perf_counter() - started)
    try:
        phase = workload.measure(state, seconds)
        workload.end_to_end(state, phase, outcome)
        workload.verify(state, phase, outcome)
    finally:
        workload.teardown(state)
    outcome.metric("setup_s", statistics.median(setup_times), len(setup_times))
    outcome.attempted += phase.attempted
    outcome.failed += phase.failed
    outcome.metric(
        "error_rate", outcome.failed / phase.attempted if phase.attempted else 1.0,
        phase.attempted,
    )
    if trace:
        traced = _traced_phase(workload, seed, seconds, outcome)
        outcome.attempted += traced.attempted
        outcome.failed += traced.failed
        if workload.in_process:
            overhead = traced.trace_overhead_pct(phase)
        elif phase.ops_per_s:
            overhead = 100.0 * (phase.ops_per_s - traced.ops_per_s) / phase.ops_per_s
        else:
            overhead = 0.0
        outcome.layer("obs.trace_overhead_pct", overhead)
        for layer, unit in common.PER_LAYER.items():
            outcome.layers.setdefault(layer, common.Metric(0.0, unit))
        _dump(name, seed, outcome, traced)
    return outcome


def _traced_phase(workload, seed: int, seconds: float, outcome):
    """Set up again under the tracer and measure one traced phase.

    In-process workloads trace every operation; their tracing overhead
    compares each kind of operation with the untraced phase.  The
    serving workload traces its whole server process and compares
    throughput with the untraced phase."""
    tracer = None
    if workload.in_process:
        from tracer import Tracer

        tracer = Tracer().enable()
    state = None
    try:
        state = workload.setup(seed + TRACED_SEED_OFFSET, traced=True)
        setup_snapshot = tracer.take() if tracer else None
        phase = workload.measure(state, seconds, tracer)
        if tracer is not None:
            tracer.disable()
            snapshot = tracer.take()
            phase.spans = tracer.kept
            outcome.check(not tracer.overflowed, "span buffer overflowed")
        else:
            snapshot = None
        workload.verify(state, phase, outcome)
        workload.layers(state, phase, setup_snapshot, snapshot, outcome)
    finally:
        if state is not None:
            workload.teardown(state)
        if tracer is not None:
            tracer.disable()
    return phase


def _dump(name: str, seed: int, outcome, phase) -> None:
    """Write the layer metrics and the kept spans of a traced run."""
    common.OUT.mkdir(exist_ok=True)
    path = common.OUT / f"{name}-seed{seed}-trace.json"
    layers = {key: metric.value for key, metric in sorted(outcome.layers.items())}
    path.write_text(json.dumps({"layers": layers, "spans": getattr(phase, "spans", [])}))


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        description="Run one benchmark workload and print its metrics."
    )
    parser.add_argument("--workload", required=True, choices=common.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds <= 0:
        parser.error("--seconds must be positive")
    if not common.use_source():
        print(f"perfbench: no program source at {common.SRC}", file=sys.stderr)
        return 2

    outcome = run(args.workload, args.seed, args.seconds, bool(args.trace))
    lines, detail, result = common.render(outcome, bool(args.trace))
    for line in lines:
        print(line)
    print(common.DETAIL_PREFIX + common.dump_json(detail))
    print(common.dump_json(result), flush=True)
    return 0 if outcome.correct else 1


if __name__ == "__main__":
    sys.exit(main())
