"""Semi-naive == the naive oracle, cross-checked on the E6/E7/E8 workloads."""

import pytest

from repro.budget import Budget
from repro.deductive.ast import (
    ColProgram,
    EqLit,
    FuncLit,
    FuncT,
    PredLit,
    Rule,
    TupD,
    VarD,
)
from repro.deductive import oracle
from repro.deductive.bk import (
    BKAtom,
    BKProgram,
    BKRule,
    BKVar,
    chain_to_list_program,
    join_attempt_program,
    run_bk,
)
from repro.deductive.datalog import (
    non_reachable_datalog,
    run_datalog_inflationary,
    run_datalog_stratified,
    transitive_closure_datalog,
    unstratifiable_program,
)
from repro.deductive.inflationary import run_inflationary
from repro.deductive.stratify import run_stratified
from repro.errors import UNDEFINED, is_undefined
from repro.workloads import chain_for_bk, chain_graph, cycle_graph, random_graph


def _unlimited():
    return Budget(steps=None, objects=None, iterations=None, facts=None)


GRAPHS = [chain_graph(10), cycle_graph(7), random_graph(9, 18, seed=3)]


class TestDatalogE6:
    @pytest.mark.parametrize("database", GRAPHS, ids=["chain", "cycle", "random"])
    def test_tc_stratified(self, database):
        program = transitive_closure_datalog()
        naive = oracle.run_stratified(program, database, _unlimited())
        semi = run_datalog_stratified(program, database, _unlimited())
        assert semi == naive

    @pytest.mark.parametrize("database", GRAPHS, ids=["chain", "cycle", "random"])
    def test_tc_inflationary(self, database):
        program = transitive_closure_datalog()
        naive = oracle.run_inflationary(program, database, _unlimited())
        semi = run_datalog_inflationary(program, database, _unlimited())
        assert semi == naive

    @pytest.mark.parametrize("database", GRAPHS, ids=["chain", "cycle", "random"])
    def test_non_reachable_negation(self, database):
        program = non_reachable_datalog()
        naive = oracle.run_stratified(program, database, _unlimited())
        semi = run_datalog_stratified(program, database, _unlimited())
        assert semi == naive

    def test_win_move_inflationary(self):
        program = unstratifiable_program("ANS")
        for database in GRAPHS:
            relabelled = database  # R is the move relation modulo name
            naive = oracle.run_inflationary(
                _rename(program), relabelled, _unlimited()
            )
            semi = run_datalog_inflationary(_rename(program), relabelled, _unlimited())
            assert semi == naive

    def test_budget_exhaustion_stays_undefined(self):
        # A divergence observed naive-ly is still observed semi-naive-ly.
        program = transitive_closure_datalog()
        database = cycle_graph(8)
        tight = Budget(facts=5)
        assert is_undefined(run_datalog_stratified(program, database, tight))
        tight = Budget(facts=5)
        assert is_undefined(oracle.run_stratified(program, database, tight))


def _rename(program):
    """win-move reads ``move``; our graph workloads provide ``R``."""
    x, y = VarD("x"), VarD("y")
    rules = [
        Rule(
            PredLit("win", x),
            [PredLit("R", TupD([x, y])), PredLit("win", y, positive=False)],
        ),
        Rule(PredLit("ANS", x), [PredLit("win", x)]),
    ]
    return ColProgram(rules, answer="ANS", name="win-move-R")


class TestColFunctions:
    """COL rules with data functions exercise the FuncT paths."""

    def _collect_program(self):
        # F(x) collects the successors of x; ANS pairs x with the full
        # set value F(x) — a function-*value* term, the non-delta-safe
        # case in the inflationary driver and an extra stratum in the
        # stratified one.
        x, y = VarD("x"), VarD("y")
        rules = [
            Rule(FuncLit("F", x, y), [PredLit("R", TupD([x, y]))]),
            Rule(PredLit("node", x), [PredLit("R", TupD([x, y]))]),
            Rule(
                PredLit("ANS", TupD([x, FuncT("F", x)])),
                [PredLit("node", x)],
            ),
        ]
        return ColProgram(rules, answer="ANS", name="collect-successors")

    @pytest.mark.parametrize("database", GRAPHS, ids=["chain", "cycle", "random"])
    def test_stratified_with_function_values(self, database):
        program = self._collect_program()
        naive = oracle.run_stratified(program, database, _unlimited())
        semi = run_stratified(program, database, _unlimited())
        assert semi == naive

    @pytest.mark.parametrize("database", GRAPHS, ids=["chain", "cycle", "random"])
    def test_inflationary_with_function_values(self, database):
        program = self._collect_program()
        naive = oracle.run_inflationary(program, database, _unlimited())
        semi = run_inflationary(program, database, _unlimited())
        assert semi == naive

    def test_equality_binder_rule(self):
        # x ≈ t binders are filters after the join; check they survive
        # the generator/filter split.
        x, y, s = VarD("x"), VarD("y"), VarD("s")
        rules = [
            Rule(FuncLit("F", x, y), [PredLit("R", TupD([x, y]))]),
            Rule(PredLit("node", x), [PredLit("R", TupD([x, y]))]),
            Rule(
                PredLit("ANS", s),
                [PredLit("node", x), EqLit(s, FuncT("F", x))],
            ),
        ]
        program = ColProgram(rules, answer="ANS", name="binder")
        database = chain_graph(6)
        naive = oracle.run_stratified(program, database, _unlimited())
        semi = run_stratified(program, database, _unlimited())
        assert semi == naive


def _bk_budget():
    return Budget(objects=None, steps=None, facts=None, iterations=None)


def _bk_reach_program() -> BKProgram:
    """Multi-rule recursive BK: reachability over ``E`` copied through
    ``P``, the recursive rule listed before its base case.  The oracle
    re-joins a dirty rule in full over the live extents, so a rule sees
    facts derived earlier in the same round and can converge in fewer
    rounds than the delta-seeded hash-join driver."""
    x, y, z, w = BKVar("x"), BKVar("y"), BKVar("z"), BKVar("w")
    return BKProgram(
        [
            BKRule(
                BKAtom("T", {"F": x, "G": z}),
                [BKAtom("E", {"F": x, "G": y}), BKAtom("T", {"F": y, "G": z})],
            ),
            BKRule(BKAtom("T", {"F": x, "G": y}), [BKAtom("E", {"F": x, "G": y})]),
            BKRule(BKAtom("P", {"F": x, "G": y}), [BKAtom("T", {"F": x, "G": y})]),
            BKRule(BKAtom("ANS", w), [BKAtom("P", w)]),
        ],
        answer="ANS",
        name="reach",
    )


class TestBKE7E8:
    """The hash-join driver agrees with the oracle at every
    ``max_rounds`` cut, up to Hoare equivalence (a cut-off ``?`` agrees
    with anything)."""

    def test_join_attempt_indexed_equals_naive(self):
        program = join_attempt_program()
        data = {
            "R1": [{"A": f"a{i}", "B": f"b{i}"} for i in range(3)],
            "R2": [{"B": "b0", "C": f"c{j}"} for j in range(2)],
        }
        naive = oracle.run_bk(program, data, _bk_budget())
        indexed = run_bk(program, data, _bk_budget())
        assert not is_undefined(naive)
        assert indexed == naive
        # Round 2 derives nothing, so cut 1 is ``?`` and every cut from
        # 2 on is the fixpoint — on both drivers.
        for cut in range(1, 4):
            naive = oracle.run_bk(program, data, _bk_budget(), max_rounds=cut)
            indexed = run_bk(program, data, _bk_budget(), max_rounds=cut)
            assert indexed == naive, cut
            assert is_undefined(indexed) == (cut < 2), cut

    def test_chain_prefix_indexed_equals_naive(self):
        # Example 5.4 never converges (Proposition 5.5): every cut must
        # be observed as ``?`` by both drivers.
        program = chain_to_list_program()
        data = chain_for_bk(3)
        for cut in range(1, 4):
            naive = oracle.run_bk(program, data, _bk_budget(), max_rounds=cut)
            indexed = run_bk(program, data, _bk_budget(), max_rounds=cut)
            assert indexed == naive, cut
            assert is_undefined(indexed), cut

    def test_multi_rule_recursion_agrees_at_every_cut(self):
        program = _bk_reach_program()
        data = {"E": [{"F": f"n{i}", "G": f"n{i + 1}"} for i in range(6)]}
        fixpoint = oracle.run_bk(program, data, _bk_budget())
        assert not is_undefined(fixpoint)
        assert run_bk(program, data, _bk_budget()) == fixpoint
        for cut in range(1, 8):
            naive = oracle.run_bk(program, data, _bk_budget(), max_rounds=cut)
            indexed = run_bk(program, data, _bk_budget(), max_rounds=cut)
            # Neither driver answers before its fixpoint, and the oracle
            # never converges later than the hash-join driver.
            assert is_undefined(naive) or naive == fixpoint, cut
            assert is_undefined(indexed) or indexed == fixpoint, cut
            assert not is_undefined(naive) or is_undefined(indexed), cut
        assert not is_undefined(indexed)

    def test_divergence_still_observed(self):
        program = chain_to_list_program()
        data = chain_for_bk(2)
        out = run_bk(
            program,
            data,
            Budget(iterations=5, steps=100_000, objects=200_000, facts=None),
        )
        assert out is UNDEFINED
