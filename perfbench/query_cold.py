"""query_cold: the compile-and-execute path, every cache missing.

One closed-loop caller sends requests through the in-process
``QueryService.query`` over two mid-size databases (a random graph
and a skewed join pair).  Every request carries a constant no earlier
request used, so the plan cache and the memo miss every time and each
request pays parse → plan (catalog profile, cost) → memo key →
execute (join ordering, kernels, fixpoint).  The caller passes an
explicit priority, so the service does not plan the text a second
time to pick an admission class.
"""

from __future__ import annotations

import time

import common
import inputs
from common import Phase
from repro import QueryService
from repro.query.session import Session

#: Requests replayed against a fresh Session on another backend.
ORACLE_SAMPLE = 12

#: A phase runs for at least its seconds *and* this many requests, so
#: that the p90 always has ten samples beyond it; ``peak_rss_mb`` is
#: read after this many.
MIN_REQUESTS = 120

#: Backends the oracle prefers, in order, when re-running a request on
#: a candidate other than the one the planner chose.
ORACLE_PREFERENCE = (
    "col-inflationary", "col-stratified", "algebra", "bk-hashjoin", "col-naive",
)


class _State:
    def __init__(self, seed, databases, service, stream):
        self.seed = seed
        self.databases = databases
        self.service = service
        self.stream = stream


class QueryCold:
    name = "query_cold"
    in_process = True
    setups = 5

    def setup(self, seed: int, traced: bool) -> _State:
        databases = inputs.cold_databases(seed)
        service = QueryService(dict(databases), workers=1)
        stream = inputs.cold_stream(seed, databases)
        state = _State(seed, databases, service, stream)
        # Warm-up: one deck of templates under tags no timed request
        # uses, so lazy imports and first-use paths are paid here.
        warmup = inputs.cold_stream(seed, databases, "w")
        for _ in inputs.COLD_DECK:
            request = next(warmup)
            service.query(request.db, request.text, priority=0).raise_for_status()
        return state

    def _cache_counters(self, state: _State) -> dict:
        totals = dict.fromkeys(("plans.hits", "plans.misses", "memo.hits", "memo.misses"), 0)
        for db in state.databases:
            session = state.service.session(db)
            for cache in ("plans", "memo"):
                stats = getattr(session, cache).stats
                totals[f"{cache}.hits"] += stats.hits
                totals[f"{cache}.misses"] += stats.misses
        return totals

    def measure(self, state: _State, seconds: float, tracer=None) -> Phase:
        phase = Phase()
        before = self._cache_counters(state)
        service = state.service
        busy = 0.0
        while busy < seconds or phase.attempted < MIN_REQUESTS:
            request = next(state.stream)
            started = time.perf_counter()
            outcome = service.query(request.db, request.text, priority=0)
            elapsed = time.perf_counter() - started
            busy += elapsed
            phase.attempted += 1
            if phase.attempted == MIN_REQUESTS:
                # Every new request grows the heap: read the peak after
                # a fixed number of them, not after a host-speed-bound one.
                phase.rss_mb = common.peak_rss_mb()
            if outcome.status == "ok":
                phase.add(request.template, elapsed, traced=tracer is not None)
            else:
                phase.failed += 1
            phase.records.append((request, outcome.status, outcome.result, outcome.trace.backend))
            if tracer is not None:
                tracer.flush()
        phase.elapsed = busy
        after = self._cache_counters(state)
        phase.caches = {key: after[key] - before[key] for key in after}
        return phase

    def verify(self, state: _State, phase: Phase, outcome) -> None:
        for request, status, _, _ in phase.records:
            outcome.check(status == "ok", f"{request.template} request ended {status}")
        rng = inputs.rng_for(state.seed, "cold-oracle")
        sample = rng.sample(phase.records, min(ORACLE_SAMPLE, len(phase.records)))
        wrong = 0
        for request, status, result, backend in sample:
            if status != "ok":
                continue
            session = Session(state.databases[request.db])
            candidates = session.plan(request.text).backends()
            others = [b for b in ORACLE_PREFERENCE if b in candidates and b != backend]
            oracle = session.query(request.text, backend=(others or [backend])[0])
            if oracle != result:
                wrong += 1
                outcome.check(False, f"{request.template} differs from its oracle")
        outcome.failed += wrong
        hits = phase.caches["plans.hits"]
        outcome.expect("query_cold.plan_hits", hits, hits == 0)

    def end_to_end(self, state: _State, phase: Phase, outcome) -> None:
        latencies = phase.all_latencies()
        outcome.metric("ops_per_s", phase.ops_per_s, phase.ops)
        common.record_latency(outcome, "latency_p50_ms", latencies, 50)
        common.record_latency(outcome, "latency_p90_ms", latencies, 90)
        outcome.metric("peak_rss_mb", phase.rss_mb)

    def layers(self, state: _State, phase: Phase, setup_snapshot, snapshot, outcome) -> None:
        common.fill_common_layers(outcome, snapshot, phase.traced_ops)
        caches = phase.caches
        outcome.layer(
            "query.memo.hit_rate", common.ratio(caches["memo.hits"], caches["memo.misses"])
        )
        outcome.layer(
            "query.plans.hit_rate", common.ratio(caches["plans.hits"], caches["plans.misses"])
        )

    def teardown(self, state: _State) -> None:
        state.service.close()
