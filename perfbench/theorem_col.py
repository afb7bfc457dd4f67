"""theorem_col: Theorem 5.1's GTM→COL compilations, run for real.

One in-process caller runs ``core.equivalence.implementations_for``:
the ``select_eq`` machine through COL^str (``col_stratified``) and
``parity`` through COL^inf (``col_inflationary``), on the two-row
instances of the Theorem 5.1 integration test.  ``compile_gtm_to_col``
runs in set-up.  The deductive fixpoint — join ordering, rule kernels,
semi-naive rounds — does all the work; serve, query and store are
bypassed.  An operation is one program run on one instance (seconds
each), so a run measures whole passes over the two instances, at
least ``--seconds`` long.  The heap is collected between operations,
outside the timed region, so each run starts from the same state.

The timed phase runs uninstrumented.  The kernel sanity counters come
from the traced phase or, untraced, from one extra untimed program run
under the tracer.
"""

from __future__ import annotations

import gc
import time

import common
import inputs
from common import Phase
from repro.core.equivalence import implementations_for
from repro.engine.intern import enable_interning
from repro.gtm.library import all_machines
from repro.model.schema import Database


class _State:
    def __init__(self, cases):
        self.cases = cases  # [(label, compiled, direct, database)]


class TheoremCol:
    name = "theorem_col"
    in_process = True
    setups = 25

    def setup(self, seed: int, traced: bool) -> _State:
        # The serving stack runs with the process-wide interner on
        # (QueryService enables it); so does this workload.
        enable_interning()
        machines = all_machines()
        compiled: dict = {}
        cases = []
        for machine, route, rows in inputs.theorem_instances(seed):
            gtm, schema, output_type = machines[machine]
            if (machine, route) not in compiled:
                compiled[(machine, route)] = implementations_for(
                    gtm, schema, output_type, routes=(route, "gtm")
                )
            direct, via_col = sorted(
                compiled[(machine, route)], key=lambda impl: not impl.name.endswith("/gtm")
            )
            label = f"{machine}/{route}/{len(rows)}"
            cases.append((label, via_col, direct, Database(schema, {"R": rows})))
        return _State(cases)

    def measure(self, state: _State, seconds: float, tracer=None) -> Phase:
        phase = Phase()
        busy = 0.0
        while busy < seconds:
            for label, via_col, _, database in state.cases:
                gc.collect()
                started = time.perf_counter()
                result = via_col(database)
                elapsed = time.perf_counter() - started
                busy += elapsed
                phase.attempted += 1
                phase.add(label, elapsed, traced=tracer is not None)
                phase.records.append((label, result))
                if tracer is not None:
                    tracer.flush()
        phase.elapsed = busy
        phase.rss_mb = common.peak_rss_mb()
        return phase

    def verify(self, state: _State, phase: Phase, outcome) -> None:
        direct = {label: run(database) for label, _, run, database in state.cases}
        wrong = sum(1 for label, result in phase.records if result != direct[label])
        outcome.failed += wrong
        outcome.check(not wrong, f"{wrong} COL results differ from the direct GTM run")

    def end_to_end(self, state: _State, phase: Phase, outcome) -> None:
        outcome.metric("ops_per_s", phase.ops_per_s, phase.ops)
        common.record_latency(outcome, "latency_p50_ms", phase.all_latencies(), 50)
        outcome.metric("peak_rss_mb", phase.rss_mb)
        from tracer import Tracer

        tracer = Tracer().enable()
        try:
            _, via_col, _, database = state.cases[0]
            via_col(database)
        finally:
            tracer.disable()
        _expect_kernels(tracer.take().counts, outcome)

    def layers(self, state: _State, phase: Phase, setup_snapshot, snapshot, outcome) -> None:
        _expect_kernels(snapshot.counts, outcome)
        common.fill_common_layers(outcome, snapshot, phase.traced_ops)
        outcome.layer(
            "core.compile_col_ms", setup_snapshot.layer("core.compile_col").ms_per_call()
        )

    def teardown(self, state: _State) -> None:
        state.cases = []


def _expect_kernels(counts, outcome) -> None:
    """The compiled path must look up and compile rule kernels."""
    lookups = counts["kernel_hits"] + counts["kernel_misses"]
    outcome.expect("theorem_col.kernel_lookups", lookups, lookups > 0)
    misses = counts["kernel_misses"]
    outcome.expect("theorem_col.kernels_compiled", misses, misses > 0)
