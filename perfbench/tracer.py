"""Instrumentation for the traced run, installed from outside the program.

Nothing under ``src/`` knows about it.  :class:`Tracer` replaces public
functions and methods *in the namespaces that call them* with wrappers
that open a ``repro.obs`` span named after the layer, so the
benchmark's spans and the program's own (``engine.fixpoint_round``,
``deductive.kernel_compile``, ``session.*``, ``serve.*``, ``store.*``)
land in one recorder (``repro.obs.enable_tracing(sample_every=1)``) as
one tree per thread.  Spans stay in memory; :meth:`Tracer.flush` folds
them into per-layer totals between operations, keeping a capped sample
for the dump written at the end.

A layer's *self time* is its span time minus the time its child layer
spans cover.  Program spans that are not layers (``session.run``,
``serve.request``, ...) are transparent: their time belongs to the
nearest enclosing layer, or to no layer at all.

Counters ride the same wrappers: rule kernels built and run, kernel
cache hits and misses, operator statistics (every ``OpStats`` created
while tracing), WAL fsyncs and bytes, snapshot bytes, and the interner.
"""

from __future__ import annotations

import functools
import os
import threading
from collections import Counter

from repro import obs
from repro.catalog import Catalog
from repro.deductive.kernels import KernelCache, RuleKernel
from repro.engine.intern import intern_stats
from repro.engine.ops import OpStats
from repro.query.session import Session
from repro.store.wal import WriteAheadLog

import repro.core.equivalence
import repro.deductive.kernels
import repro.engine.cache
import repro.query.session
import repro.serve.server
import repro.store.durable
import repro.store.wal

#: Program span name -> layer name, for the program's own spans that
#: are layers in their own right.
PROGRAM_LAYERS = {
    "engine.fixpoint_round": "engine.fixpoint.round",
    "deductive.kernel_compile": "deductive.kernel_compile",
}

#: (owner, attribute, layer) — functions timed by a benchmark span.
SPAN_TARGETS = (
    (repro.serve.server, "decode_message", "serve.protocol.decode"),
    (repro.serve.server, "encode_message", "serve.protocol.encode"),
    (Session, "parse", "query.parse"),
    (repro.query.session, "build_plan", "query.plan"),
    (repro.query.session, "execute_plan", "query.execute"),
    (repro.engine.cache, "canonicalise_database", "engine.canon"),
    (repro.deductive.kernels, "choose_order", "deductive.order"),
    (repro.core.equivalence, "compile_gtm_to_col", "core.compile_col"),
    (repro.store.durable, "apply_ops", "store.tx.apply"),
    (Catalog, "migrate", "catalog.migrate"),
    (Session, "apply_delta", "store.maintenance.apply_delta"),
)

#: Layers timed by the counting wrappers in :meth:`Tracer._prepare`.
COUNTED_LAYERS = ("store.wal.append", "store.snapshot")

LAYERS = frozenset(
    [layer for _, _, layer in SPAN_TARGETS]
    + list(COUNTED_LAYERS)
    + list(PROGRAM_LAYERS.values())
)

#: Raw spans kept for the dump, per tracer.
KEEP_SPANS = 20000

#: Span recorder capacity between two flushes; a full buffer is an error.
MAX_SPANS = 1 << 21


class LayerTotals:
    __slots__ = ("calls", "total", "self_time")

    def __init__(self):
        self.calls = 0
        self.total = 0.0
        self.self_time = 0.0

    def ms_per_call(self) -> float:
        return 1000.0 * self.self_time / self.calls if self.calls else 0.0

    def as_dict(self) -> dict:
        return {"calls": self.calls, "total_s": self.total, "self_s": self.self_time}


class Snapshot:
    """Layer totals and counters accumulated since the last take()."""

    def __init__(self, layers: dict, counts: Counter, intern: tuple):
        self.layers = layers
        self.counts = counts
        self.intern_hits, self.intern_misses = intern

    def layer(self, name: str) -> LayerTotals:
        return self.layers.get(name) or LayerTotals()

    @classmethod
    def from_dict(cls, data: dict) -> "Snapshot":
        layers = {}
        for name, fields in data["layers"].items():
            totals = layers[name] = LayerTotals()
            totals.calls = fields["calls"]
            totals.total = fields["total_s"]
            totals.self_time = fields["self_s"]
        return cls(layers, Counter(data["counts"]), tuple(data["intern"]))

    def as_dict(self) -> dict:
        return {
            "layers": {name: t.as_dict() for name, t in sorted(self.layers.items())},
            "counts": dict(sorted(self.counts.items())),
            "intern": [self.intern_hits, self.intern_misses],
        }


class _CountingOs:
    """``os`` as the WAL module sees it, with fsync calls counted."""

    def __init__(self, count):
        self._count = count

    def __getattr__(self, name):
        return getattr(os, name)

    def fsync(self, fd):
        self._count(wal_fsyncs=1)
        return os.fsync(fd)


class Tracer:
    """Holds the wrappers, owns the span recorder, aggregates spans.

    :meth:`enable` puts every wrapper in place and starts a recorder;
    :meth:`disable` restores the program's own functions and stops
    recording.
    """

    def __init__(self):
        self.counts: Counter = Counter()
        self.layers: dict = {}
        self.kept: list = []
        self.overflowed = False
        self.enabled = False
        self._opstats: list = []
        self._recorder = None
        self._intern_base = (0, 0)
        self._patches = self._prepare()

    # -- wrappers -------------------------------------------------------

    def _prepare(self) -> list:
        """``[(owner, attribute, original, replacement)]``."""
        counts = self.counts
        lock = threading.Lock()
        patches = []

        def count(**amounts):
            # Wrapped calls can run on several threads (the server's
            # workers); ``+=`` on a shared Counter is not atomic.
            with lock:
                counts.update(amounts)

        def patch(owner, name, replacement):
            patches.append((owner, name, owner.__dict__[name], replacement))

        kernel = KernelCache.kernel

        @functools.wraps(kernel)
        def counted_kernel(cache, *args, **kwargs):
            hits, misses = cache.hits, cache.misses
            entry = kernel(cache, *args, **kwargs)
            count(kernel_hits=cache.hits - hits, kernel_misses=cache.misses - misses)
            return entry

        patch(KernelCache, "kernel", counted_kernel)
        for owner, name, layer in SPAN_TARGETS:
            raw = owner.__dict__[name]
            if isinstance(raw, classmethod):
                patch(owner, name, classmethod(_spanned(raw.__func__, layer)))
            else:
                patch(owner, name, _spanned(raw, layer))

        append = WriteAheadLog.append

        @functools.wraps(append)
        def counted_append(wal, lsn, payload):
            with obs.span("store.wal.append"):
                size = append(wal, lsn, payload)
            count(wal_appends=1, wal_bytes=size)
            return size

        patch(WriteAheadLog, "append", counted_append)

        write_snapshot = repro.store.durable.write_snapshot

        @functools.wraps(write_snapshot)
        def counted_snapshot(directory, lsn, database):
            with obs.span("store.snapshot"):
                path = write_snapshot(directory, lsn, database)
            count(snapshot_bytes=path.stat().st_size, snapshots=1)
            return path

        patch(repro.store.durable, "write_snapshot", counted_snapshot)

        init, run = RuleKernel.__init__, RuleKernel.run

        @functools.wraps(init)
        def counted_init(kernel_, *args, **kwargs):
            init(kernel_, *args, **kwargs)
            count(kernels_built=1)

        @functools.wraps(run)
        def counted_run(kernel_, *args, **kwargs):
            count(kernel_runs=1)
            return run(kernel_, *args, **kwargs)

        patch(RuleKernel, "__init__", counted_init)
        patch(RuleKernel, "run", counted_run)

        opstats_init = OpStats.__init__
        registry = self._opstats

        @functools.wraps(opstats_init)
        def registered_init(stats):
            opstats_init(stats)
            registry.append(stats)

        patch(OpStats, "__init__", registered_init)
        patch(repro.store.wal, "os", _CountingOs(count))
        return patches

    def enable(self) -> "Tracer":
        if not self.enabled:
            for owner, name, _, replacement in self._patches:
                setattr(owner, name, replacement)
            self._new_recorder()
            self.enabled = True
        return self

    def disable(self) -> None:
        if self.enabled:
            self.flush()
            for owner, name, original, _ in reversed(self._patches):
                setattr(owner, name, original)
            if self._recorder is not None:
                obs.disable_tracing()
                self._recorder = None
            self.enabled = False

    # -- spans ----------------------------------------------------------

    def _new_recorder(self) -> None:
        obs.disable_tracing()
        self._recorder = obs.enable_tracing(max_entries=MAX_SPANS, sample_every=1)

    def flush(self) -> None:
        """Fold finished spans and operator counters into the totals and
        start a fresh recorder.  Call between operations."""
        if self._recorder is None:
            return
        spans = self._recorder.tail()
        if len(spans) >= MAX_SPANS:
            self.overflowed = True
        self._new_recorder()
        _self_times(spans, self.layers)
        room = KEEP_SPANS - len(self.kept)
        if room > 0:
            self.kept.extend(spans[:room])
        # The OpStats wrapper holds this list: empty it in place.
        registry = list(self._opstats)
        self._opstats.clear()
        for stats in registry:
            self.counts["rows_in"] += stats.rows_in
            self.counts["probes"] += stats.probes
            self.counts["index_builds"] += stats.index_builds

    def take(self) -> Snapshot:
        """Everything since the previous take(); resets the totals."""
        self.flush()
        stats = intern_stats()
        base_hits, base_misses = self._intern_base
        snapshot = Snapshot(
            self.layers,
            Counter(self.counts),
            (stats.hits - base_hits, stats.misses - base_misses),
        )
        self._intern_base = (stats.hits, stats.misses)
        self.layers = {}
        self.counts.clear()
        return snapshot


def _spanned(function, layer: str):
    @functools.wraps(function)
    def wrapper(*args, **kwargs):
        with obs.span(layer):
            return function(*args, **kwargs)

    return wrapper


def _self_times(spans: list, totals: dict) -> None:
    """Add each layer span's calls, duration and self time to *totals*."""
    by_id = {span["span_id"]: span for span in spans}
    owner_cache: dict = {}

    def layer_of(span) -> str | None:
        name = span["name"]
        return PROGRAM_LAYERS.get(name) or (name if name in LAYERS else None)

    def owning_layer(span_id):
        """The span id of the nearest layer ancestor of *span_id*."""
        path = []
        current = by_id.get(span_id)
        result = None
        while current is not None:
            parent_id = current["parent_id"]
            parent = by_id.get(parent_id)
            if parent is None:
                break
            if layer_of(parent) is not None:
                result = parent_id
                break
            if parent_id in owner_cache:
                result = owner_cache[parent_id]
                break
            path.append(parent_id)
            current = parent
        owner_cache[span_id] = result
        for pid in path:
            owner_cache[pid] = result
        return result

    self_time: dict = {}
    for span in spans:
        layer = layer_of(span)
        if layer is None or span["duration"] is None:
            continue
        duration = span["duration"]
        self_time[span["span_id"]] = self_time.get(span["span_id"], 0.0) + duration
        owner = owning_layer(span["span_id"])
        if owner is not None:
            self_time[owner] = self_time.get(owner, 0.0) - duration
        entry = totals.get(layer)
        if entry is None:
            entry = totals[layer] = LayerTotals()
        entry.calls += 1
        entry.total += duration
    for span_id, seconds in self_time.items():
        totals[layer_of(by_id[span_id])].self_time += seconds

