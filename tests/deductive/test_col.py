"""Unit tests for the COL evaluation core."""

import pytest

from repro.budget import Budget
from repro.deductive.ast import (
    ConstD,
    EqLit,
    FuncLit,
    FuncT,
    PredLit,
    Rule,
    SetD,
    TupD,
    VarD,
)
from repro.deductive.col import Interp, eval_term, match
from repro.deductive.oracle import apply_rule, fixpoint
from repro.errors import EvaluationError
from repro.model.values import Atom, SetVal, Tup


class TestMatching:
    def test_variable_binds(self):
        results = list(match(VarD("x"), Atom(1), {}))
        assert results == [{"x": Atom(1)}]

    def test_bound_variable_checks(self):
        assert list(match(VarD("x"), Atom(1), {"x": Atom(1)})) == [{"x": Atom(1)}]
        assert list(match(VarD("x"), Atom(2), {"x": Atom(1)})) == []

    def test_constant(self):
        assert list(match(ConstD(1), Atom(1), {})) == [{}]
        assert list(match(ConstD(1), Atom(2), {})) == []

    def test_tuple_structure(self):
        value = Tup([Atom(1), Atom(2)])
        results = list(match(TupD(["x", "y"]), value, {}))
        assert results == [{"x": Atom(1), "y": Atom(2)}]

    def test_tuple_shared_variable(self):
        assert list(match(TupD(["x", "x"]), Tup([Atom(1), Atom(2)]), {})) == []
        assert len(list(match(TupD(["x", "x"]), Tup([Atom(1), Atom(1)]), {}))) == 1

    def test_tuple_arity_mismatch(self):
        assert list(match(TupD(["x"]), Tup([Atom(1), Atom(2)]), {})) == []

    def test_singleton_set_pattern(self):
        value = SetVal([Atom(7)])
        assert list(match(SetD(["u"]), value, {})) == [{"u": Atom(7)}]
        # Non-singleton sets don't match a singleton pattern.
        assert list(match(SetD(["u"]), SetVal([Atom(1), Atom(2)]), {})) == []
        assert list(match(SetD(["u"]), SetVal([]), {})) == []

    def test_ground_set_pattern(self):
        pattern = SetD([ConstD(1), ConstD(2)])
        assert list(match(pattern, SetVal([Atom(1), Atom(2)]), {})) == [{}]
        assert list(match(pattern, SetVal([Atom(1)]), {})) == []

    def test_complex_set_pattern_rejected(self):
        with pytest.raises(EvaluationError):
            list(match(SetD(["u", "v"]), SetVal([Atom(1), Atom(2)]), {}))


class TestEvalTerm:
    def test_func_value(self):
        interp = Interp()
        interp.add_func("F", Atom("a"), Atom(1))
        interp.add_func("F", Atom("a"), Atom(2))
        value = eval_term(FuncT("F", ConstD("a")), {}, interp)
        assert value == SetVal([Atom(1), Atom(2)])

    def test_func_value_empty_default(self):
        assert eval_term(FuncT("F", ConstD("a")), {}, Interp()) == SetVal([])

    def test_set_term(self):
        value = eval_term(SetD(["x"]), {"x": Atom(1)}, Interp())
        assert value == SetVal([Atom(1)])

    def test_unbound_variable(self):
        with pytest.raises(EvaluationError):
            eval_term(VarD("ghost"), {}, Interp())


class TestRuleApplication:
    def test_join_rule(self):
        interp = Interp()
        interp.add_pred("R", Tup([Atom(1), Atom(2)]))
        interp.add_pred("S", Tup([Atom(2), Atom(3)]))
        rule = Rule(
            PredLit("ANS", TupD(["x", "z"])),
            [PredLit("R", TupD(["x", "y"])), PredLit("S", TupD(["y", "z"]))],
        )
        assert apply_rule(rule, interp, Budget())
        assert interp.pred("ANS") == {Tup([Atom(1), Atom(3)])}

    def test_negation_filter(self):
        interp = Interp()
        interp.add_pred("R", Atom(1))
        interp.add_pred("R", Atom(2))
        interp.add_pred("S", Atom(1))
        rule = Rule(
            PredLit("ANS", "x"),
            [PredLit("R", "x"), PredLit("S", "x", positive=False)],
        )
        apply_rule(rule, interp, Budget())
        assert interp.pred("ANS") == {Atom(2)}

    def test_equality_binder(self):
        interp = Interp()
        interp.add_pred("R", Atom(1))
        rule = Rule(
            PredLit("ANS", TupD(["x", "y"])),
            [PredLit("R", "x"), EqLit("y", SetD(["x"]))],
        )
        apply_rule(rule, interp, Budget())
        assert interp.pred("ANS") == {Tup([Atom(1), SetVal([Atom(1)])])}

    def test_inequality_filter(self):
        interp = Interp()
        interp.add_pred("R", Tup([Atom(1), Atom(1)]))
        interp.add_pred("R", Tup([Atom(1), Atom(2)]))
        rule = Rule(
            PredLit("ANS", TupD(["x", "y"])),
            [PredLit("R", TupD(["x", "y"])), EqLit("x", "y", positive=False)],
        )
        apply_rule(rule, interp, Budget())
        assert interp.pred("ANS") == {Tup([Atom(1), Atom(2)])}

    def test_func_head(self):
        interp = Interp()
        interp.add_pred("R", Atom(1))
        rule = Rule(FuncLit("F", ConstD("a"), "x"), [PredLit("R", "x")])
        apply_rule(rule, interp, Budget())
        assert interp.func_value("F", Atom("a")) == SetVal([Atom(1)])

    def test_set_valued_head_term(self):
        # The Theorem 5.1 counter step: {u} ∈ F(a) ← u ∈ F(a).
        interp = Interp()
        interp.add_func("F", Atom("a"), Atom("a"))
        rule = Rule(
            FuncLit("F", ConstD("a"), SetD(["u"])),
            [FuncLit("F", ConstD("a"), "u")],
        )
        apply_rule(rule, interp, Budget())
        assert SetVal([Atom("a")]) in interp.func_value("F", Atom("a"))

    def test_empty_body_rule_fires_once(self):
        interp = Interp()
        rule = Rule(PredLit("P", ConstD("c")))
        assert apply_rule(rule, interp, Budget())
        assert not apply_rule(rule, interp, Budget())  # idempotent
        assert interp.pred("P") == {Atom("c")}


class TestFixpoint:
    def test_counter_growth_is_budgeted(self):
        # Unconditional counter growth has no finite fixpoint.
        from repro.errors import BudgetExceeded

        interp = Interp()
        interp.add_func("F", Atom("a"), Atom("a"))
        rule = Rule(
            FuncLit("F", ConstD("a"), SetD(["u"])),
            [FuncLit("F", ConstD("a"), "u")],
        )
        with pytest.raises(BudgetExceeded):
            fixpoint([rule], interp, Budget(facts=50))

    def test_reaches_fixpoint(self):
        interp = Interp()
        interp.add_pred("E", Tup([Atom(1), Atom(2)]))
        interp.add_pred("E", Tup([Atom(2), Atom(3)]))
        rules = [
            Rule(PredLit("T", TupD(["x", "y"])), [PredLit("E", TupD(["x", "y"]))]),
            Rule(
                PredLit("T", TupD(["x", "z"])),
                [PredLit("T", TupD(["x", "y"])), PredLit("E", TupD(["y", "z"]))],
            ),
        ]
        fixpoint(rules, interp, Budget())
        assert len(interp.pred("T")) == 3


class TestInterp:
    def test_from_database(self, binary_db):
        interp = Interp.from_database(binary_db)
        assert len(interp.pred("R")) == 3

    def test_first_coordinate_index(self):
        interp = Interp()
        interp.add_pred("R", Tup([Atom(1), Atom(2)]))
        interp.add_pred("R", Tup([Atom(1), Atom(3)]))
        interp.add_pred("R", Tup([Atom(2), Atom(3)]))
        assert len(interp.pred_by_first("R", Atom(1))) == 2
        assert len(interp.pred_by_first("R", Atom(9))) == 0

    def test_copy_is_independent(self):
        interp = Interp()
        interp.add_pred("R", Atom(1))
        duplicate = interp.copy()
        duplicate.add_pred("R", Atom(2))
        assert len(interp.pred("R")) == 1
        assert len(duplicate.pred_by_first("R", Atom(2))) == 1

    def test_instance_export(self):
        interp = Interp()
        interp.add_pred("R", Atom(1))
        assert interp.instance("R") == SetVal([Atom(1)])
        assert interp.instance("missing") == SetVal([])
