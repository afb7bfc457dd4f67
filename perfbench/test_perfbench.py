"""Self-tests of the benchmark (not of the program it measures).

    python3 -m pytest perfbench/test_perfbench.py

They check that inputs are a function of the seed alone, that the
percentile helper refuses tails its sample cannot support, that the
metric names are well formed, that a run emits every name in
``BENCHMARK.json``, that the compare report holds two sets to their
bounds both ways, and that a checkout without the program's
source fails fast without printing a result.
"""

from __future__ import annotations

import hashlib
import itertools
import json
import os
import pathlib
import shutil
import subprocess
import sys

import pytest

HERE = pathlib.Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import common  # noqa: E402

assert common.use_source()

import inputs  # noqa: E402
from repro.store import canonical_state_bytes  # noqa: E402

SPEC = json.loads((common.ROOT / "BENCHMARK.json").read_text())


def _digest(seed: int) -> str:
    """One hash over every input every workload builds from *seed*."""
    parts = []
    for name, database in sorted(inputs.serve_databases_for(seed).items()):
        parts.append(name.encode() + canonical_state_bytes(database))
    parts.append(repr(inputs.serve_stream(seed, 400)).encode())
    cold = inputs.cold_databases(seed)
    for name, database in sorted(cold.items()):
        parts.append(name.encode() + canonical_state_bytes(database))
    parts.append(repr(list(itertools.islice(inputs.cold_stream(seed, cold), 40))).encode())
    parts.append(repr(inputs.theorem_instances(seed)).encode())
    store = inputs.store_database(seed)
    parts.append(canonical_state_bytes(store))
    parts.append(repr(list(itertools.islice(inputs.store_ops(seed, store), 40))).encode())
    return hashlib.sha256(b"\0".join(parts)).hexdigest()


class TestSeeds:
    def test_same_seed_same_inputs(self):
        assert _digest(3) == _digest(3)

    def test_different_seed_different_inputs(self):
        assert _digest(3) != _digest(4)

    @pytest.mark.parametrize("workload_part", ["serve", "cold", "theorem", "store"])
    def test_each_workload_depends_on_the_seed(self, workload_part):
        build = {
            "serve": lambda s: (
                inputs.serve_databases_for(s)["graph"],
                inputs.serve_stream(s, 200),
            ),
            "cold": lambda s: list(
                itertools.islice(inputs.cold_stream(s, inputs.cold_databases(s)), 16)
            ),
            "theorem": inputs.theorem_instances,
            "store": lambda s: list(
                itertools.islice(inputs.store_ops(s, inputs.store_database(s)), 16)
            ),
        }[workload_part]
        assert repr(build(5)) == repr(build(5))
        assert repr(build(5)) != repr(build(6))

    def test_inputs_ignore_the_hash_seed(self):
        code = (
            f"import sys; sys.path.insert(0, {str(HERE)!r}); "
            "import test_perfbench as t; print(t._digest(7))"
        )
        digests = set()
        for hash_seed in ("1", "2"):
            env = dict(os.environ, PYTHONHASHSEED=hash_seed)
            done = subprocess.run(
                [sys.executable, "-c", code], env=env, capture_output=True, text=True,
                check=True,
            )
            digests.add(done.stdout.strip().splitlines()[-1])
        assert len(digests) == 1

    def test_shapes_do_not_depend_on_the_seed(self):
        # The seed renames atoms; it never changes how much work there is.
        for build in (
            lambda s: inputs.serve_databases_for(s)["graph"],
            lambda s: inputs.cold_databases(s)["pair"],
            inputs.store_database,
        ):
            a, b = build(1), build(2)
            assert a != b
            for name in a.schema.names():
                assert len(a[name].items) == len(b[name].items)


class TestPercentile:
    def test_reports_its_sample_count(self):
        point = common.percentile(range(1, 101), 50)
        assert point.samples == 100
        assert point.value == 50.5

    def test_median_of_one_sample(self):
        assert common.percentile([4.0], 50).value == 4.0

    def test_refuses_a_tail_with_fewer_than_ten_beyond(self):
        with pytest.raises(common.TooFewSamples):
            common.percentile(range(999), 99)
        with pytest.raises(common.TooFewSamples):
            common.percentile(range(99), 90)

    def test_accepts_a_tail_with_ten_beyond(self):
        point = common.percentile(range(1, 1001), 99)
        assert (point.value, point.samples) == (990, 1000)
        assert common.percentile(range(1, 101), 90).value == 90

    def test_refuses_no_samples(self):
        with pytest.raises(common.TooFewSamples):
            common.percentile([], 50)


class TestNames:
    def test_every_declared_name_is_well_formed(self):
        names = list(common.END_TO_END) + list(common.WORKLOAD_METRICS) + list(common.PER_LAYER)
        names += [w["name"] for w in SPEC["workloads"]]
        assert len(names) == len(set(names))
        for name in names:
            assert common.NAME_PATTERN.match(name), name

    @pytest.mark.parametrize("trace", [0, 1])
    def test_a_run_emits_every_name(self, trace):
        done = subprocess.run(
            [
                sys.executable, str(HERE / "run.py"), "--workload", "query_cold",
                "--seed", "1", "--seconds", "1", "--trace", str(trace),
            ],
            cwd=common.ROOT, capture_output=True, text=True,
        )
        assert done.returncode == 0, done.stderr[-2000:]
        result = json.loads(done.stdout.strip().splitlines()[-1])
        assert set(result) == {"correct", "attempted", "failed", "metrics"}
        wanted = SPEC["per_layer"] if trace else SPEC["end_to_end"]
        assert set(result["metrics"]) == {m["name"] for m in wanted}
        for name, metric in result["metrics"].items():
            assert common.NAME_PATTERN.match(name)
            assert set(metric) == {"value", "unit"}
        if not trace:
            assert all(metric["value"] > 0 for metric in result["metrics"].values())


class TestCompare:
    @staticmethod
    def _sets(scale_b: float) -> list:
        a = {("query_cold", "ops_per_s"): [10.0 + 0.01 * i for i in range(10)]}
        b = {key: [v * scale_b for v in values] for key, values in a.items()}
        return [a, b]

    def test_sets_within_bound_agree(self):
        import io

        import compare

        assert compare.report(self._sets(1.05), out=io.StringIO())

    @pytest.mark.parametrize("scale_b", [0.5, 2.0])
    def test_a_median_far_off_either_way_disagrees(self, scale_b):
        import io

        import compare

        out = io.StringIO()
        assert not compare.report(self._sets(scale_b), out=out)
        verdict = "B no worse than A" if scale_b > 1 else "B WORSE than A"
        assert out.getvalue().rstrip().endswith(verdict)


class TestSelfTime:
    def test_children_are_subtracted_through_transparent_spans(self):
        from tracer import LayerTotals, _self_times

        def span(span_id, name, parent, duration):
            return {"span_id": span_id, "name": name, "parent_id": parent, "duration": duration}

        spans = [
            span(3, "deductive.order", 2, 1.0),
            span(2, "session.run", 1, 5.0),  # not a layer: transparent
            span(4, "engine.fixpoint_round", 1, 2.0),
            span(1, "query.execute", None, 10.0),
        ]
        totals: dict = {}
        _self_times(spans, totals)
        assert totals["query.execute"].self_time == pytest.approx(7.0)
        assert totals["deductive.order"].self_time == pytest.approx(1.0)
        assert totals["engine.fixpoint.round"].self_time == pytest.approx(2.0)
        assert isinstance(totals["query.execute"], LayerTotals)


def test_fails_fast_without_the_program(tmp_path):
    shutil.copy(common.ROOT / "BENCHMARK.json", tmp_path / "BENCHMARK.json")
    shutil.copytree(HERE, tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    done = subprocess.run(
        [
            sys.executable, "perfbench/run.py", "--workload", "serve_warm",
            "--seed", "1", "--seconds", "1", "--trace", "0",
        ],
        cwd=tmp_path, capture_output=True, text=True, timeout=180,
    )
    assert done.returncode != 0
    assert "correct" not in done.stdout
