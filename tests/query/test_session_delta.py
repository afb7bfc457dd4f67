"""Session.apply_delta: targeted invalidation, plan migration, views.

The session is the layer where a committed delta meets the caches: the
genericity-aware memo must drop exactly the entries whose footprint
intersects the delta (restricted keying makes the others *hit* across
the commit), the plan LRU migrates footprint-disjoint plans, and
materialized views refresh incrementally.
"""

import pytest

from repro.errors import EvaluationError
from repro.model.schema import Database, Schema
from repro.model.types import parse_type
from repro.query.session import Session
from repro.store.codec import rows_from_json
from repro.store.tx import apply_ops

TC = "rules { T(x, y) :- E(x, y). T(x, z) :- E(x, y), T(y, z). } answer T"
OVER_S = "{ x | S(x) }"


def make_db(edges, s=("q",)):
    schema = Schema({"E": parse_type("[U, U]"), "S": parse_type("U")})
    return Database(schema, {"E": set(edges), "S": set(s)})


def commit(database, asserts=None, retracts=None):
    schema = database.schema
    decoded = [
        {
            name: rows_from_json(rows, schema.rtype(name), name)
            for name, rows in (batch or {}).items()
        }
        for batch in (asserts, retracts)
    ]
    return apply_ops(database, *decoded)


class TestRestrictedMemoKeying:
    def test_unrelated_delta_preserves_the_memo_entry(self):
        session = Session(make_db([("a", "b"), ("b", "c")]))
        first, report = session.run(TC, backend="col-stratified")
        assert not report.cached
        new_db, delta = commit(session.database, {"S": ["zz"]})
        stats = session.apply_delta(new_db, delta)
        assert stats["invalidations"] == 0
        assert stats["plans_migrated"] >= 1
        second, report = session.run(TC, backend="col-stratified")
        assert report.cached  # memo HIT across the commit
        assert second == first

    def test_intersecting_delta_invalidates(self):
        session = Session(make_db([("a", "b")]))
        session.run(TC, backend="col-stratified")
        new_db, delta = commit(session.database, {"E": [["b", "c"]]})
        stats = session.apply_delta(new_db, delta)
        assert stats["invalidations"] == 1
        assert stats["plans_dropped"] >= 1
        result, report = session.run(TC, backend="col-stratified")
        assert not report.cached
        assert "Atom('c')" in repr(result)  # fresh answer sees the edge

    def test_footprint_includes_idb_named_predicates(self):
        """A schema predicate sharing an IDB head's name seeds the
        fixpoint, so a delta on it must invalidate the entry."""
        schema = Schema({"E": parse_type("[U, U]"), "T": parse_type("[U, U]")})
        database = Database(schema, {"E": {("a", "b")}, "T": set()})
        session = Session(database)
        first, _ = session.run(TC, backend="col-stratified")
        new_db, delta = commit(session.database, {"T": [["x", "y"]]})
        stats = session.apply_delta(new_db, delta)
        assert stats["invalidations"] == 1
        second, report = session.run(TC, backend="col-stratified")
        assert not report.cached
        assert second != first  # the base T fact feeds the answer

    def test_empty_delta_only_rebinds(self):
        session = Session(make_db([("a", "b")]))
        session.run(TC)
        new_db, delta = commit(session.database, {"E": [["a", "b"]]})
        assert delta.empty() and new_db == session.database
        stats = session.apply_delta(new_db, delta)
        assert all(count == 0 for count in stats.values())


class TestPlanMigration:
    def test_migrated_plan_is_the_same_object(self):
        session = Session(make_db([("a", "b")]))
        plan = session.plan(TC)
        new_db, delta = commit(session.database, {"S": ["zz"]})
        session.apply_delta(new_db, delta)
        assert session.plan(TC) is plan  # survived, re-keyed

    def test_intersecting_plan_is_replanned(self):
        session = Session(make_db([("a", "b")]))
        plan = session.plan(TC)
        new_db, delta = commit(session.database, {"E": [["b", "c"]]})
        session.apply_delta(new_db, delta)
        assert session.plan(TC) is not plan


class TestMaterializedViews:
    def test_view_answers_for_fixpoint_drivers(self):
        session = Session(make_db([("a", "b"), ("b", "c")]))
        view = session.materialize(TC)
        for backend in ("col-stratified", "col-inflationary"):
            result, report = session.run(TC, backend=backend)
            assert report.cached  # served by the view, nothing ran
            assert result == view.answer()

    def test_view_refreshes_across_apply_delta(self):
        session = Session(make_db([("a", "b")]))
        session.materialize(TC)
        new_db, delta = commit(session.database, {"E": [["b", "c"]]})
        stats = session.apply_delta(new_db, delta)
        assert stats["views_refreshed"] == 1
        assert stats["incremental_rounds"] >= 1
        result, report = session.run(TC, backend="col-inflationary")
        assert report.cached
        fresh, _ = Session(new_db).run(TC, backend="col-stratified")
        assert result == fresh

    def test_view_dropped_on_retraction_then_recompute_correct(self):
        session = Session(make_db([("a", "b"), ("b", "c")]))
        session.materialize(TC)
        new_db, delta = commit(session.database, retracts={"E": [["a", "b"]]})
        stats = session.apply_delta(new_db, delta)
        assert stats["views_dropped"] == 1
        result, report = session.run(TC, backend="col-stratified")
        assert not report.cached
        assert "Atom('a')" not in repr(result)

    def test_materialize_is_idempotent(self):
        session = Session(make_db([("a", "b")]))
        assert session.materialize(TC) is session.materialize(TC)

    def test_non_rule_queries_refuse(self):
        session = Session(make_db([("a", "b")]))
        with pytest.raises(EvaluationError, match="rule-block"):
            session.materialize(OVER_S)

    def test_unsafe_programs_refuse(self):
        session = Session(make_db([("a", "b")]))
        unsafe = (
            "rules { P(x) :- S(x), not T(x). T(x) :- E(x, x). } answer P"
        )
        with pytest.raises(EvaluationError, match="delta-safe"):
            session.materialize(unsafe)
