"""store_commit: durable writes beside reads.

One closed-loop caller drives an in-process
``QueryService(data_dir=..., sync=True)`` with the default
``CompactionPolicy`` (every 256 records or 1 MiB of log, whichever is
first; each run spans several snapshot cycles).  It alternates one
UPDATE with two reads:

* updates either grow the viewed predicate ``V`` (its transitive
  closure is materialised with ``session.materialize``, so the view is
  refreshed incrementally) or churn ``C`` (assert one fact, retract the
  oldest: a sliding window of steady size);
* a grow is followed by the view query and a point select on ``C``, a
  churn by two point selects; commits to ``C`` invalidate the selects'
  memo entries.

An UPDATE's latency runs from submission to the durable ``ok``.  Every
commit makes a new ``Database``, so caches keyed on database identity
miss here by design.
"""

from __future__ import annotations

import collections
import hashlib
import json
import shutil
import tempfile
import time

import common
import inputs
from common import Phase
from repro import QueryService
from repro.query.session import Session
from repro.store import DurableDatabase, canonical_state_bytes

#: View reads re-checked against a transitive closure computed here.
VIEW_SAMPLE = 10

#: Compactions (snapshot + log truncation) each phase must include.
MIN_COMPACTIONS = 2

#: A phase runs for at least its seconds *and* this many commits, so
#: that two compaction cycles fit under the default policy;
#: ``peak_rss_mb`` is read after this many.
MIN_COMMITS = 600

#: (commit, read) cycles run in set-up, before timing starts.
WARMUP_CYCLES = 32

#: Tails this workload never reports, whatever the run length: in runs
#: long enough to support them they did not repeat within a tenth.
DROPPED_TAILS = {
    "commit_p99_ms": "fsync tails on a shared disk; spread 0.42 over runs of 1000 commits",
    "read_p99_ms": "set by view reads late in the run; spread 0.20 over runs of 1000 commits",
}


class _State:
    def __init__(self, seed, directory, service, database):
        self.seed = seed
        self.directory = directory
        self.service = service
        self.ops = inputs.store_ops(seed, database)
        self.edges = sorted(inputs.labels(database["V"]))
        self.window = collections.deque(inputs.churn_fact(i) for i in range(inputs.WINDOW))
        self.recover_ms = 0.0
        self.acknowledged = 0


def _transitive_closure(edges) -> set:
    successors: dict = {}
    for a, b in edges:
        successors.setdefault(a, set()).add(b)
    closure = set()
    for start in successors:
        seen, frontier = set(), [start]
        while frontier:
            for nxt in successors.get(frontier.pop(), ()):
                if nxt not in seen:
                    seen.add(nxt)
                    frontier.append(nxt)
        closure.update((start, end) for end in seen)
    return closure


class StoreCommit:
    name = "store_commit"
    in_process = True
    setups = 10

    def setup(self, seed: int, traced: bool) -> _State:
        common.SCRATCH.mkdir(exist_ok=True)
        directory = tempfile.mkdtemp(prefix="store-", dir=common.SCRATCH)
        database = inputs.store_database(seed)
        service = QueryService({"s": database}, workers=1, data_dir=directory, sync=True)
        state = _State(seed, directory, service, database)
        try:
            service.session("s").materialize(inputs.VIEW_TEXT)
            for _ in range(WARMUP_CYCLES):
                op = next(state.ops)
                service.update("s", op.asserts, op.retracts).raise_for_status()
                self._apply(state, op)
                state.acknowledged += 1
                for read in op.reads:
                    service.query("s", read.text, priority=0).raise_for_status()
        except BaseException:
            self.teardown(state)
            raise
        return state

    def _caches(self, state: _State) -> dict:
        session = state.service.session("s")
        return {
            "memo.hits": session.memo.stats.hits,
            "memo.misses": session.memo.stats.misses,
            "plans.hits": session.plans.stats.hits,
            "plans.misses": session.plans.stats.misses,
            "snapshots": state.service.metrics.counter("store.snapshots").value,
        }

    def measure(self, state: _State, seconds: float, tracer=None) -> Phase:
        service = state.service
        phase = Phase()
        phase.commits = []  # (kind, result dict)
        phase.payload_bytes = 0
        before = self._caches(state)
        busy = 0.0
        cycle = 0
        while busy < seconds or cycle < MIN_COMMITS:
            op = next(state.ops)
            started = time.perf_counter()
            update = service.update("s", op.asserts, op.retracts)
            elapsed = time.perf_counter() - started
            busy += elapsed
            phase.attempted += 1
            if update.status == "ok":
                phase.add("commit", elapsed, traced=tracer is not None)
                phase.commits.append((op.kind, update.result))
                state.acknowledged += 1
                phase.payload_bytes += len(
                    json.dumps({"assert": op.asserts, "retract": op.retracts})
                )
                self._apply(state, op)
            else:
                phase.failed += 1
            for read in op.reads:
                started = time.perf_counter()
                answer = service.query("s", read.text, priority=0)
                elapsed = time.perf_counter() - started
                busy += elapsed
                phase.attempted += 1
                if answer.status != "ok":
                    phase.failed += 1
                    continue
                phase.add(read.kind, elapsed, traced=tracer is not None)
                expected = (
                    len(state.edges)
                    if read.kind == "view"
                    else {c for c, group in state.window if group == read.group}
                )
                phase.records.append((read.kind, answer.result, expected))
            cycle += 1
            if cycle == MIN_COMMITS:
                # The view grows with every commit: read the peak after
                # a fixed number of them, not after a host-speed-bound one.
                phase.rss_mb = common.peak_rss_mb()
            if tracer is not None:
                tracer.flush()
        phase.elapsed = busy
        after = self._caches(state)
        phase.caches = {key: after[key] - before[key] for key in after}
        return phase

    def _apply(self, state: _State, op) -> None:
        if op.kind == "grow":
            state.edges.extend(tuple(edge) for edge in op.asserts["V"])
        else:
            state.window.popleft()
            state.window.append(tuple(op.asserts["C"][0]))

    def verify(self, state: _State, phase: Phase, outcome) -> None:
        service = state.service
        wrong = 0
        views = []
        for kind, result, expected in phase.records:
            if kind == "view":
                views.append((result, expected))
            elif inputs.labels(result) != expected:
                wrong += 1
        rng = inputs.rng_for(state.seed, "store-oracle")
        for result, prefix in rng.sample(views, min(VIEW_SAMPLE, len(views))):
            if inputs.labels(result) != _transitive_closure(state.edges[:prefix]):
                wrong += 1
        database = service.session("s").database
        live_view = service.query("s", inputs.VIEW_TEXT, priority=0).value
        scratch = Session(database).query(inputs.VIEW_TEXT, backend="col-stratified")
        if live_view != scratch or inputs.labels(scratch) != _transitive_closure(state.edges):
            wrong += 1
            outcome.check(False, "the view differs from a from-scratch fixpoint")
        outcome.failed += wrong
        outcome.check(not wrong, f"{wrong} reads differ from their expected answers")

        acknowledged = state.acknowledged
        live_sha = hashlib.sha256(canonical_state_bytes(database)).hexdigest()
        path = service.store.path_for("s")
        service.close()
        started = time.perf_counter()
        reopened = DurableDatabase.open(path)
        state.recover_ms = common.ms(time.perf_counter() - started)
        try:
            sha = hashlib.sha256(canonical_state_bytes(reopened.database)).hexdigest()
            outcome.check(sha == live_sha, "the reopened store's state differs from the live one")
            outcome.check(
                reopened.lsn == acknowledged,
                f"reopened LSN {reopened.lsn} != {acknowledged} acknowledged commits",
            )
        finally:
            reopened.close()

        compactions = phase.caches["snapshots"]
        outcome.expect("store_commit.compactions", compactions, compactions >= MIN_COMPACTIONS)
        grows = [result for kind, result in phase.commits if kind == "grow"]
        refreshed = sum(1 for result in grows if result["views_refreshed"] >= 1)
        dropped = sum(result["views_dropped"] for _, result in phase.commits)
        outcome.expect("store_commit.views_refreshed", refreshed, refreshed == len(grows) > 0)
        outcome.expect("store_commit.views_dropped", dropped, dropped == 0)

    def end_to_end(self, state: _State, phase: Phase, outcome) -> None:
        latencies = phase.latencies
        reads = latencies.get("view", []) + latencies.get("point", [])
        outcome.metric("ops_per_s", phase.ops_per_s, phase.ops)
        common.record_latency(outcome, "latency_p50_ms", phase.all_latencies(), 50)
        common.record_latency(outcome, "commit_p50_ms", latencies.get("commit", []), 50)
        common.record_latency(outcome, "read_p50_ms", reads, 50)
        for name, reason in DROPPED_TAILS.items():
            outcome.drop(name, reason)
        outcome.metric("peak_rss_mb", phase.rss_mb)

    def layers(self, state: _State, phase: Phase, setup_snapshot, snapshot, outcome) -> None:
        common.fill_common_layers(outcome, snapshot, phase.traced_ops)
        counts = snapshot.counts
        commits = [result for _, result in phase.commits]
        per_commit = (lambda n: n / len(commits)) if commits else (lambda n: 0.0)
        outcome.layer("store.wal.fsyncs", per_commit(counts.get("wal_fsyncs", 0)))
        outcome.layer(
            "store.wal.bytes_per_commit",
            counts.get("wal_bytes", 0) / counts["wal_appends"] if counts.get("wal_appends") else 0.0,
        )
        written = counts.get("wal_bytes", 0) + counts.get("snapshot_bytes", 0)
        outcome.layer(
            "store.write_amp", written / phase.payload_bytes if phase.payload_bytes else 0.0
        )
        outcome.layer("store.snapshots", counts.get("snapshots", 0))
        outcome.layer(
            "store.incremental_rounds",
            per_commit(sum(result["incremental_rounds"] for result in commits)),
        )
        outcome.layer("store.recover_ms", state.recover_ms)
        caches = phase.caches
        outcome.layer(
            "query.memo.hit_rate", common.ratio(caches["memo.hits"], caches["memo.misses"])
        )
        outcome.layer(
            "query.plans.hit_rate", common.ratio(caches["plans.hits"], caches["plans.misses"])
        )

    def teardown(self, state: _State) -> None:
        try:
            state.service.close()
        finally:
            shutil.rmtree(state.directory, ignore_errors=True)
