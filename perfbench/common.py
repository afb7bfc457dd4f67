"""Shared pieces: the metric tables, the percentile helper, the result.

``END_TO_END`` and ``PER_LAYER`` are read from ``BENCHMARK.json``: the
first set is what the last output line carries with ``--trace 0``, the
second with ``--trace 1``.  ``WORKLOAD_METRICS`` are end-to-end metrics
that only make sense on some workloads (commit latency has no meaning
on a read-only workload); they are printed, saved in the detail line,
and compared by ``compare.py``, with the bounds given here.
"""

from __future__ import annotations

import json
import math
import pathlib
import re
import resource
import statistics
import sys

HERE = pathlib.Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"

#: Where runs may write: scratch state (durable stores) and span dumps.
#: Both sit in the checkout and are ignored by git.
SCRATCH = ROOT / ".perfbench_tmp"
OUT = ROOT / ".perfbench_out"

NAME_PATTERN = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")

#: Marks the machine-readable detail line that precedes the result.
DETAIL_PREFIX = "perfbench-detail "

#: The declared workloads and metrics, read from ``BENCHMARK.json``.
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
WORKLOADS = tuple(workload["name"] for workload in SPEC["workloads"])
END_TO_END = {metric["name"]: metric["unit"] for metric in SPEC["end_to_end"]}
PER_LAYER = {metric["name"]: metric["unit"] for metric in SPEC["per_layer"]}

#: name -> (unit, bound as a share of the median).  ``latency_p99_ms``
#: is serve_warm's, ``latency_p90_ms`` query_cold's, the commit and read
#: medians store_commit's; every workload reports ``error_rate``.
WORKLOAD_METRICS = {
    "latency_p99_ms": ("ms", 0.25),
    "latency_p90_ms": ("ms", 0.25),
    "commit_p50_ms": ("ms", 0.25),
    "read_p50_ms": ("ms", 0.25),
    "error_rate": ("fraction", 0.0),
}


def use_source() -> bool:
    """Put the checkout's ``src`` first on ``sys.path``; False if the
    program's source is not there."""
    if not (SRC / "repro" / "__init__.py").is_file():
        return False
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))
    return True


# ---------------------------------------------------------------------------
# Percentiles
# ---------------------------------------------------------------------------


class TooFewSamples(ValueError):
    """A tail percentile was asked of too few samples to support it."""


class Percentile:
    """One percentile of a sample, with the sample count behind it."""

    __slots__ = ("q", "value", "samples")

    def __init__(self, q: float, value: float, samples: int):
        self.q = q
        self.value = value
        self.samples = samples

    def __repr__(self) -> str:
        return f"p{self.q:g}={self.value:.6g} (n={self.samples})"


#: A tail percentile needs this many samples beyond it.
MIN_BEYOND = 10


def samples_beyond(q: float, count: int) -> int:
    """How many of *count* samples lie beyond the *q*-th percentile."""
    return math.floor(count * (100.0 - q) / 100.0 + 1e-9)


def percentile(values, q: float) -> Percentile:
    """The *q*-th percentile of *values* (nearest rank; the median is
    ``statistics.median``).

    The median needs one sample.  A tail percentile (q > 50) needs at
    least ``MIN_BEYOND`` samples beyond it, else :class:`TooFewSamples`
    — a p99 of 200 samples is two samples' opinion, not a percentile.
    """
    values = sorted(values)
    count = len(values)
    if not count:
        raise TooFewSamples(f"p{q:g} of no samples")
    if q == 50:
        return Percentile(q, statistics.median(values), count)
    if q > 50 and samples_beyond(q, count) < MIN_BEYOND:
        raise TooFewSamples(
            f"p{q:g} needs {MIN_BEYOND} samples beyond it; "
            f"{count} samples leave {samples_beyond(q, count)}"
        )
    rank = max(1, math.ceil(q / 100.0 * count))
    return Percentile(q, values[rank - 1], count)


# ---------------------------------------------------------------------------
# Process measurements
# ---------------------------------------------------------------------------


def peak_rss_mb() -> float:
    """This process's peak resident set size so far, in MB."""
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


# ---------------------------------------------------------------------------
# Outcome of one run
# ---------------------------------------------------------------------------


class Metric:
    __slots__ = ("value", "unit", "samples")

    def __init__(self, value: float, unit: str, samples: int | None = None):
        self.value = float(value)
        self.unit = unit
        self.samples = samples


class Outcome:
    """What one workload run measured and checked."""

    def __init__(self, workload: str):
        self.workload = workload
        self.metrics: dict = {}
        self.layers: dict = {}
        self.sanity: dict = {}
        self.dropped: dict = {}
        self.attempted = 0
        self.failed = 0
        self.problems: list = []

    def metric(self, name: str, value: float, samples: int | None = None) -> None:
        unit = END_TO_END.get(name) or WORKLOAD_METRICS[name][0]
        self.metrics[name] = Metric(value, unit, samples)

    def layer(self, name: str, value: float) -> None:
        self.layers[name] = Metric(value, PER_LAYER[name])

    def drop(self, name: str, reason: str) -> None:
        """Leave metric *name* out of this run, saying why."""
        self.dropped[name] = reason

    def check(self, condition: bool, message: str) -> None:
        if not condition:
            self.problems.append(message)

    def expect(self, name: str, value, condition: bool) -> None:
        """Record one sanity counter and require *condition* of it."""
        self.sanity[name] = value
        self.check(condition, f"sanity counter {name}={value!r} out of range")

    @property
    def correct(self) -> bool:
        return not self.problems and self.failed == 0


def render(outcome: Outcome, trace: bool) -> tuple:
    """``(report lines, detail dict, result dict)`` for one run."""
    lines = [f"workload {outcome.workload}"]
    for name, metric in sorted(outcome.metrics.items()):
        samples = "" if metric.samples is None else f" (n={metric.samples})"
        lines.append(f"  {name} {metric.value:.6g} {metric.unit}{samples}")
    for name, metric in sorted(outcome.layers.items()):
        lines.append(f"  layer {name} {metric.value:.6g} {metric.unit}")
    for name, reason in sorted(outcome.dropped.items()):
        lines.append(f"  dropped {name}: {reason}")
    for name, value in sorted(outcome.sanity.items()):
        lines.append(f"  sanity {name} = {value}")
    for problem in outcome.problems:
        lines.append(f"  PROBLEM {problem}")
    lines.append(
        f"  attempted {outcome.attempted} failed {outcome.failed} "
        f"correct {str(outcome.correct).lower()}"
    )
    detail = {
        "workload": outcome.workload,
        "trace": trace,
        "metrics": {
            name: {"value": m.value, "unit": m.unit, "samples": m.samples}
            for name, m in outcome.metrics.items()
        },
        "layers": {
            name: {"value": m.value, "unit": m.unit}
            for name, m in outcome.layers.items()
        },
        "sanity": outcome.sanity,
        "dropped": outcome.dropped,
        "problems": outcome.problems,
    }
    wanted = PER_LAYER if trace else END_TO_END
    source = outcome.layers if trace else outcome.metrics
    result = {
        "correct": outcome.correct,
        "attempted": outcome.attempted,
        "failed": outcome.failed,
        "metrics": {
            name: {"value": source[name].value, "unit": unit}
            for name, unit in wanted.items()
            if name in source
        },
    }
    return lines, detail, result


def dump_json(data) -> str:
    return json.dumps(data, sort_keys=True)


# ---------------------------------------------------------------------------
# One measured phase
# ---------------------------------------------------------------------------


class Phase:
    """The timed operations of one phase.

    ``latencies`` maps an operation kind to its list of seconds, and
    ``traced`` the same for operations run with the tracer enabled;
    ``elapsed`` is the time the phase measured, from first send to last
    reply.
    """

    def __init__(self):
        self.latencies: dict = {}
        self.traced: dict = {}
        self.elapsed = 0.0
        self.attempted = 0
        self.failed = 0
        self.records: list = []

    def add(self, kind: str, seconds: float, traced: bool = False) -> None:
        (self.traced if traced else self.latencies).setdefault(kind, []).append(seconds)

    @property
    def traced_ops(self) -> int:
        return sum(len(values) for values in self.traced.values())

    def trace_overhead_pct(self, baseline: "Phase") -> float:
        """Extra time of this phase's traced operations over the untraced
        *baseline*'s operations of the same kinds, as a percentage of
        the untraced time."""
        extra = base = 0.0
        for kind, traced in self.traced.items():
            plain = baseline.latencies.get(kind)
            if not plain:
                continue
            mean_plain = sum(plain) / len(plain)
            extra += sum(traced) - len(traced) * mean_plain
            base += len(traced) * mean_plain
        return 100.0 * extra / base if base else 0.0

    def all_latencies(self) -> list:
        return [s for values in self.latencies.values() for s in values]

    @property
    def ops(self) -> int:
        return sum(len(values) for values in self.latencies.values())

    @property
    def ops_per_s(self) -> float:
        """Untraced operations per second of measured time."""
        return self.ops / self.elapsed if self.elapsed > 0 else 0.0


def ms(seconds: float) -> float:
    return 1000.0 * seconds


def record_latency(outcome: Outcome, name: str, values, q: float) -> None:
    """Record percentile *q* of *values* (seconds) as *name* in ms.  A
    tail the sample cannot support is dropped, with the reason."""
    try:
        point = percentile(values, q)
    except TooFewSamples as exc:
        outcome.drop(name, str(exc))
        return
    outcome.metric(name, ms(point.value), point.samples)


def fill_common_layers(outcome: Outcome, snapshot, ops: int) -> None:
    """The per-layer metrics every traced workload reads the same way
    from a tracer snapshot: ``_ms`` is mean self time per call, counts
    are per workload operation."""
    per_op = (lambda n: n / ops) if ops else (lambda n: 0.0)
    for layer, name in (
        ("query.parse", "query.parse_ms"),
        ("query.plan", "query.plan_ms"),
        ("query.execute", "query.execute_ms"),
        ("engine.canon", "engine.canon.ms"),
        ("deductive.order", "deductive.order.ms"),
        ("deductive.kernel_compile", "deductive.kernel_compile_ms"),
        ("engine.fixpoint.round", "engine.fixpoint.round_ms"),
        ("store.tx.apply", "store.tx.apply_ms"),
        ("store.wal.append", "store.wal.append_ms"),
        ("store.snapshot", "store.snapshot_ms"),
        ("catalog.migrate", "catalog.migrate_ms"),
        ("store.maintenance.apply_delta", "store.maintenance.apply_delta_ms"),
    ):
        outcome.layer(name, snapshot.layer(layer).ms_per_call())
    counts = snapshot.counts
    outcome.layer("engine.canon.calls", per_op(snapshot.layer("engine.canon").calls))
    outcome.layer("deductive.order.calls", per_op(snapshot.layer("deductive.order").calls))
    outcome.layer(
        "engine.fixpoint.rounds", per_op(snapshot.layer("engine.fixpoint.round").calls)
    )
    outcome.layer("deductive.kernels.built", per_op(counts.get("kernels_built", 0)))
    outcome.layer("deductive.kernels.runs", per_op(counts.get("kernel_runs", 0)))
    outcome.layer(
        "deductive.kernels.hit_rate",
        ratio(counts.get("kernel_hits", 0), counts.get("kernel_misses", 0)),
    )
    outcome.layer("engine.ops.rows_in", per_op(counts.get("rows_in", 0)))
    outcome.layer("engine.ops.probes", per_op(counts.get("probes", 0)))
    outcome.layer("engine.ops.index_builds", per_op(counts.get("index_builds", 0)))
    outcome.layer(
        "engine.intern.hit_rate", ratio(snapshot.intern_hits, snapshot.intern_misses)
    )


def ratio(hits: int, misses: int) -> float:
    """hits / (hits + misses), 0 when there were none."""
    total = hits + misses
    return hits / total if total else 0.0
