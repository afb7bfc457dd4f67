"""serve_warm: warm queries through the whole serving path over real TCP.

Topology: one server process (``launcher.py``: ``QueryService(workers=2)``
behind ``serve.server.serve()``) and this process as the one load
process, driving two ``ServeClient`` connections in a closed loop —
each connection sends its next request when the previous reply is in.
A warm-up pass sends every distinct (database, text) of the stream
once before timing starts, so nearly every timed request hits both the
plan cache and the memo: the time goes to wire decode/encode,
admission, and memo-key canonicalisation.
"""

from __future__ import annotations

import itertools
import json
import os
import subprocess
import sys
import threading
import time

import common
import inputs
from common import Phase, ms, ratio
from repro.query.session import Session
from repro.serve import ServeClient

#: Requests generated per stream (far more than a run sends).
STREAM_LENGTH = 50000
CONNECTIONS = 2
#: Warm requests must hit the caches at least this often.
HIT_RATE_FLOOR = 0.95

#: The CPUs this process may use, read once: every set-up pins the
#: server to the first and this process to the second.
CPUS = sorted(os.sched_getaffinity(0))


class _State:
    def __init__(self, databases, stream, process):
        self.databases = databases
        self.stream = stream
        self.process = process
        self.clients: list = []


class ServeWarm:
    name = "serve_warm"
    in_process = False
    setups = 5

    def setup(self, seed: int, traced: bool) -> _State:
        command = [sys.executable, str(common.HERE / "launcher.py"), "--seed", str(seed)]
        if traced:
            command.append("--trace")
        if len(CPUS) >= 2:
            # The server's threads share one interpreter lock; left to
            # roam two CPUs they hand it across cores, and on a shared
            # host that made throughput swing by a third between runs.
            # One CPU for the server, another for the load.
            command += ["--cpu", str(CPUS[0])]
            os.sched_setaffinity(0, {CPUS[1]})
        process = subprocess.Popen(
            command,
            stdin=subprocess.PIPE,
            stdout=subprocess.PIPE,
            text=True,
            cwd=common.ROOT,
        )
        state = _State(
            inputs.serve_databases_for(seed), inputs.serve_stream(seed, STREAM_LENGTH), process
        )
        try:
            ready = process.stdout.readline().split()
            if ready[:1] != ["ready"]:
                raise RuntimeError("the server process did not start")
            host, port = ready[1], int(ready[2])
            state.clients = [
                ServeClient(host, port, seed=index) for index in range(CONNECTIONS)
            ]
            for client in state.clients:
                client.ping()
            for db, text in dict.fromkeys((r.db, r.text) for r in state.stream):
                state.clients[0].query(db, text)
        except BaseException:
            self.teardown(state)
            raise
        return state

    def _command(self, state: _State, command: str) -> str:
        state.process.stdin.write(command + "\n")
        state.process.stdin.flush()
        return state.process.stdout.readline()

    def measure(self, state: _State, seconds: float, tracer=None) -> Phase:
        control = state.clients[0]
        before = control.stats(trace_limit=0)["metrics"]
        self._command(state, "reset")
        cursor = itertools.count()
        lock = threading.Lock()
        start = time.perf_counter()
        deadline = start + seconds
        results = [[] for _ in state.clients]

        def drive(client, out):
            while True:
                with lock:
                    index = next(cursor)
                sent = time.perf_counter()
                if sent >= deadline:
                    return
                request = state.stream[index % len(state.stream)]
                try:
                    response = client.query(
                        request.db, request.text, priority=request.priority
                    )
                except Exception as exc:  # counted as failed below
                    response = exc
                out.append((index, sent, time.perf_counter(), response))

        threads = [
            threading.Thread(target=drive, args=(client, out))
            for client, out in zip(state.clients, results)
        ]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        records = sorted(record for out in results for record in out)
        phase = Phase()
        phase.elapsed = max((record[2] for record in records), default=start) - start
        phase.records = records
        for index, sent, done, response in records:
            phase.attempted += 1
            if isinstance(response, dict):
                phase.add("query", done - sent)
            else:
                phase.failed += 1
        phase.stats_before = before
        phase.stats_after = control.stats(trace_limit=0)["metrics"]
        phase.report = json.loads(self._command(state, "report"))
        return phase

    def verify(self, state: _State, phase: Phase, outcome) -> None:
        expected: dict = {}
        wrong = 0
        cached = answered = 0
        for index, _, _, response in phase.records:
            if not isinstance(response, dict):
                outcome.check(False, f"request {index} failed: {response}")
                continue
            request = state.stream[index % len(state.stream)]
            key = (request.db, request.text)
            if key not in expected:
                session = Session(state.databases[request.db])
                expected[key] = repr(session.query(request.text))
            if response["result"] != expected[key]:
                wrong += 1
            answered += 1
            cached += bool(response["cached"])
        outcome.failed += wrong
        outcome.check(not wrong, f"{wrong} responses differ from a fresh serial Session")
        memo = cached / answered if answered else 0.0
        plans = _hit_rate(phase.stats_before, phase.stats_after, "plans")
        outcome.expect("serve_warm.memo_hit_rate", round(memo, 4), memo >= HIT_RATE_FLOOR)
        outcome.expect("serve_warm.plan_hit_rate", round(plans, 4), plans >= HIT_RATE_FLOOR)

    def end_to_end(self, state: _State, phase: Phase, outcome) -> None:
        latencies = phase.all_latencies()
        outcome.metric("ops_per_s", phase.ops_per_s, phase.ops)
        common.record_latency(outcome, "latency_p50_ms", latencies, 50)
        common.record_latency(outcome, "latency_p99_ms", latencies, 99)
        outcome.metric("peak_rss_mb", phase.report["rss_mb"])

    def layers(self, state: _State, phase: Phase, setup_snapshot, snapshot, outcome) -> None:
        from tracer import Snapshot

        server = Snapshot.from_dict(phase.report["snapshot"])
        ops = phase.ops
        common.fill_common_layers(outcome, server, ops)
        responses = [r[3] for r in phase.records if isinstance(r[3], dict)]
        waits = [r["queue_wait"] or 0.0 for r in responses]
        executions = [r["execution_seconds"] or 0.0 for r in responses]
        decode = server.layer("serve.protocol.decode")
        encode = server.layer("serve.protocol.encode")
        outcome.layer("serve.protocol.decode_ms", decode.ms_per_call())
        outcome.layer("serve.protocol.encode_ms", encode.ms_per_call())
        outcome.layer(
            "serve.queue_wait_p50_ms", ms(common.percentile(waits, 50).value)
        )
        try:
            outcome.layer(
                "serve.queue_wait_p99_ms", ms(common.percentile(waits, 99).value)
            )
        except common.TooFewSamples as exc:
            outcome.drop("serve.queue_wait_p99_ms", str(exc))
        outcome.layer(
            "serve.execution_ms", ms(common.percentile(executions, 50).value)
        )
        attributed = (
            _mean(waits)
            + _mean(executions)
            + (decode.total / decode.calls if decode.calls else 0.0)
            + (encode.total / encode.calls if encode.calls else 0.0)
        )
        outcome.layer(
            "serve.unattributed_ms", ms(_mean(phase.all_latencies()) - attributed)
        )
        outcome.layer(
            "query.memo.hit_rate", _hit_rate(phase.stats_before, phase.stats_after, "memo")
        )
        outcome.layer(
            "query.plans.hit_rate", _hit_rate(phase.stats_before, phase.stats_after, "plans")
        )
        phase.spans = phase.report.get("spans", [])

    def teardown(self, state: _State) -> None:
        for client in state.clients:
            client.close()
        process = state.process
        try:
            if process.poll() is None:
                self._command(state, "stop")
            process.wait(timeout=60)
        except (OSError, subprocess.TimeoutExpired):
            process.kill()
            process.wait()
        finally:
            for stream in (process.stdin, process.stdout):
                try:
                    stream.close()
                except OSError:
                    pass


def _mean(values) -> float:
    return sum(values) / len(values) if values else 0.0


def _hit_rate(before: dict, after: dict, cache: str) -> float:
    """Hit rate of the per-database *cache* ("memo"/"plans") between two
    STATS metric snapshots."""

    def total(snapshot, outcome):
        suffix = f".{cache}.{outcome}"
        return sum(
            value
            for key, value in snapshot.items()
            if key.startswith("db.") and key.endswith(suffix)
        )

    return ratio(
        total(after, "hits") - total(before, "hits"),
        total(after, "misses") - total(before, "misses"),
    )
