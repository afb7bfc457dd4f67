"""Planner: candidate construction, cost ordering, backend agreement."""

import pytest

from repro.budget import Budget
from repro.errors import SchemaError
from repro.model.schema import Database, Schema
from repro.model.types import parse_type
from repro.query.parser import parse
from repro.catalog import Catalog, domain_estimate
from repro.query.planner import build_plan, execute_plan


SCHEMA = Schema({"R": parse_type("[U, U]"), "S": parse_type("U")})
DB = Database.from_plain(
    SCHEMA, R=[("a", "b"), ("b", "c"), ("c", "d")], S=["a", "b"]
)


def _plan(text, database=DB):
    return build_plan(parse(text, schema=database.schema), database)


class TestCandidates:
    def test_conjunctive_comprehension_has_four_backends(self):
        plan = _plan("{ [x, z] | some y / U : R([x, y]) and R([y, z]) }")
        assert set(plan.backends()) == {
            "algebra",
            "col-stratified",
            "col-inflationary",
            "calculus",
        }

    def test_fact_driven_backends_beat_domain_enumeration(self):
        plan = _plan("{ [x, z] | some y / U : R([x, y]) and R([y, z]) }")
        assert plan.chosen.backend != "calculus"
        assert plan.candidate("calculus").cost > plan.chosen.cost

    def test_disjunction_is_calculus_only(self):
        plan = _plan("{ x | S(x) or R([x, x]) }")
        assert plan.backends() == ("calculus",)
        reasons = {r.name: r for r in plan.rewrites}
        assert not reasons["lower-to-algebra"].applied
        assert "disjunction" in reasons["lower-to-algebra"].note

    def test_literal_is_free(self):
        plan = _plan("{ 1, 2 }")
        assert plan.chosen.backend == "literal"
        assert plan.chosen.cost == 0

    def test_negation_gates_inflationary(self):
        plan = _plan(
            "rules { P(x) :- S(x), not T(x). T(x) :- R(x, x). } answer P"
        )
        assert "col-inflationary" not in plan.backends()
        negation_free = _plan("rules { T(x) :- S(x). } answer T")
        assert "col-inflationary" in negation_free.backends()

    def test_bk_mode_ordering(self):
        # One production driver; the naive one is the oracle, which the
        # planner never offers.
        plan = _plan("bk { A(x) :- S(x). } answer A")
        assert plan.backends() == ("bk-hashjoin",)

    def test_gtm_routes_ordered_by_simulation_overhead(self):
        schema = Schema({"R": parse_type("U")})
        db = Database.from_plain(schema, R=["a", "b"])
        plan = _plan("gtm parity", db)
        assert plan.backends() == (
            "gtm",
            "tm",
            "col-compiled",
            "alg-compiled",
            "calc-terminal",
        )

    def test_unknown_predicate_raises(self):
        with pytest.raises(SchemaError):
            build_plan(parse("rules { T(x) :- NOPE(x). } answer T"), DB)

    def test_gtm_schema_mismatch_raises(self):
        with pytest.raises(SchemaError, match="expects"):
            _plan("gtm parity")  # parity wants R : U, DB has R : [U, U]


class TestGenericity:
    def test_typed_comprehension_is_generic(self):
        assert _plan("{ x | S(x) }").generic

    def test_obj_annotation_marks_invention(self):
        assert not _plan("{ x / Obj | S(x) }").generic

    def test_obj_quantifier_marks_invention(self):
        assert not _plan("{ x | some s : S(x) and x in s }").generic


class TestCostModel:
    def test_domain_estimate_grows_with_nesting(self):
        profile = Catalog.for_database(DB).profile()
        atom = domain_estimate(parse_type("U"), profile, 200)
        sets = domain_estimate(parse_type("{U}"), profile, 200)
        pairs = domain_estimate(parse_type("[U, U]"), profile, 200)
        assert atom < pairs
        assert atom < sets
        assert sets == 2**atom

    def test_costs_deterministic(self):
        text = "{ [x, z] | some y / U : R([x, y]) and R([y, z]) }"
        first = _plan(text)
        second = _plan(text)
        assert [(c.backend, c.cost) for c in first.candidates] == [
            (c.backend, c.cost) for c in second.candidates
        ]

    def test_profile_shapes_cost(self):
        small = _plan("{ [x, y] | R([x, y]) and S(x) }")
        bigger_db = Database.from_plain(
            SCHEMA,
            R=[("a", "b"), ("b", "c"), ("c", "d"), ("d", "e"), ("e", "f")],
            S=["a", "b", "c", "d"],
        )
        large = _plan("{ [x, y] | R([x, y]) and S(x) }", bigger_db)
        assert large.candidate("algebra").cost > small.candidate("algebra").cost


class TestExecution:
    def test_all_candidates_agree(self):
        text = "{ [x, z] | some y / U : R([x, y]) and R([y, z]) }"
        plan = _plan(text)
        results = {
            backend: execute_plan(plan, DB, Budget(), backend=backend).result
            for backend in plan.backends()
        }
        assert len(set(results.values())) == 1

    def test_report_carries_spend(self):
        plan = _plan("{ x | S(x) }")
        report = execute_plan(plan, DB, Budget())
        assert report.backend == plan.chosen.backend
        assert isinstance(report.spent, dict)

    def test_unknown_backend_rejected(self):
        plan = _plan("{ x | S(x) }")
        with pytest.raises(SchemaError, match="no backend"):
            execute_plan(plan, DB, Budget(), backend="quantum")
