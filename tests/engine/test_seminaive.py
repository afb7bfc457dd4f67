"""Semi-naive == the naive oracle, cross-checked on the E6/E7/E8 workloads."""

import pytest

from repro.budget import Budget
from repro.deductive.ast import (
    ColProgram,
    ConstD,
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
from repro.deductive.col import Interp
from repro.deductive.inflationary import run_inflationary
from repro.deductive.stratify import run_stratified
from repro.engine.seminaive import seminaive_fixpoint, seminaive_inflationary_fixpoint
from repro.errors import UNDEFINED, is_undefined
from repro.model.values import Atom
from repro.query.parser import parse
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


def _shared_body_rules(heads: int, negate: bool) -> list:
    """The shape Theorem 5.1's compiled δ entries take: one body tuple
    under *heads* heads, plus a rule extending that body (the same
    literal objects) with one more generator and filters."""
    x, y, z, w = VarD("x"), VarD("y"), VarD("z"), VarD("w")
    body = [PredLit("T", TupD([x, y])), PredLit("R", TupD([y, z]))]
    shared_heads = [
        PredLit("T", TupD([x, z])),
        PredLit("Left", x),
        PredLit("Pair", TupD([z, x])),
    ][:heads]
    extension = [PredLit("R", TupD([z, w])), EqLit(x, w, positive=False)]
    if negate:
        extension.append(PredLit("Pair", TupD([w, x]), positive=False))
    rules = [Rule(PredLit("T", TupD([x, y])), [PredLit("R", TupD([x, y]))])]
    rules += [Rule(head, body) for head in shared_heads]
    rules.append(Rule(PredLit("Hop", TupD([x, w])), body + extension))
    return rules


class TestSharedBodies:
    """Rules sharing one body tuple are evaluated once per round and
    each delta literal is matched once; both must leave the fixpoint
    the oracle computes rule by rule."""

    ANSWERS = ("T", "Left", "Pair", "Hop")

    @pytest.mark.parametrize("database", GRAPHS, ids=["chain", "cycle", "random"])
    @pytest.mark.parametrize("semantics", ["stratified", "inflationary"])
    def test_agrees_with_oracle(self, database, semantics):
        production = {"stratified": run_stratified, "inflationary": run_inflationary}
        reference = {
            "stratified": oracle.run_stratified,
            "inflationary": oracle.run_inflationary,
        }
        rules = _shared_body_rules(heads=3, negate=True)
        for answer in self.ANSWERS:
            program = ColProgram(rules, answer=answer, name="shared-body")
            expected = reference[semantics](program, database, _unlimited())
            assert not is_undefined(expected)
            assert production[semantics](program, database, _unlimited()) == expected

    @pytest.mark.parametrize(
        "driver", [seminaive_fixpoint, seminaive_inflationary_fixpoint]
    )
    def test_heads_on_one_body_compile_no_extra_kernels(self, driver):
        database = random_graph(9, 18, seed=3)

        def kernels_compiled(heads: int) -> int:
            interp = Interp.from_database(database)
            driver(_shared_body_rules(heads, negate=False), interp, _unlimited())
            return interp.kernels().misses

        single = kernels_compiled(1)
        assert single > 0
        assert kernels_compiled(3) == single


def _late_constant_rules() -> list:
    """Bodies whose constants no fact carries at first: ``Mark([y,
    far])`` appears only once the closure of ``chain(10)`` reaches
    ``a9``, so ``Hit`` must stay idle until then and fire after;
    ``Mark([y, near])`` never appears, so ``Never`` must stay empty."""
    x, y = VarD("x"), VarD("y")
    far, near = ConstD(Atom("far")), ConstD(Atom("near"))
    return [
        Rule(PredLit("T", TupD([x, y])), [PredLit("R", TupD([x, y]))]),
        Rule(
            PredLit("T", TupD([x, VarD("z")])),
            [PredLit("T", TupD([x, y])), PredLit("R", TupD([y, VarD("z")]))],
        ),
        Rule(
            PredLit("Mark", TupD([y, far])),
            [
                PredLit("T", TupD([ConstD(Atom("a0")), y])),
                PredLit("R", TupD([y, ConstD(Atom("a10"))])),
            ],
        ),
        Rule(
            PredLit("Hit", x),
            [PredLit("T", TupD([x, y])), PredLit("Mark", TupD([y, far]))],
        ),
        Rule(
            PredLit("Never", x),
            [PredLit("T", TupD([x, y])), PredLit("Mark", TupD([y, near]))],
        ),
    ]


class TestConstantGuards:
    """A body is skipped while a constant it requires is carried by no
    fact — and evaluated again as soon as one is."""

    @pytest.mark.parametrize("semantics", ["stratified", "inflationary"])
    def test_agrees_with_oracle(self, semantics):
        production = {"stratified": run_stratified, "inflationary": run_inflationary}
        reference = {
            "stratified": oracle.run_stratified,
            "inflationary": oracle.run_inflationary,
        }
        database = chain_graph(10)
        rules = _late_constant_rules()
        for answer, size in (("Mark", 1), ("Hit", 9), ("Never", 0)):
            program = ColProgram(rules, answer=answer, name="late-constant")
            expected = reference[semantics](program, database, _unlimited())
            assert len(expected) == size
            assert production[semantics](program, database, _unlimited()) == expected

    def test_dead_body_compiles_no_kernel(self):
        rules = _late_constant_rules()
        interp = Interp.from_database(chain_graph(10))
        seminaive_fixpoint(rules, interp, _unlimited())
        compiled = {id(kernel.rule) for kernel in interp.kernels().kernels()}
        hit, never = rules[3], rules[4]
        assert id(hit) in compiled
        assert id(never) not in compiled


BANK_TC = "rules { T(x, y) :- R(x, y). T(x, z) :- T(x, y), R(y, z). } answer T"


class TestBudgetParity:
    """On programs without shared bodies the per-round seed memo and
    its bulk charge leave ``steps`` accounting exactly as it was when
    every rule matched its delta literals itself (values pinned from
    that driver)."""

    @pytest.mark.parametrize(
        "database, stratified, inflationary",
        [(random_graph(9, 18, seed=3), 284, 232), (chain_graph(10), 168, 152)],
        ids=["random", "chain"],
    )
    def test_bank_rule_query_steps(self, database, stratified, inflationary):
        program = parse(BANK_TC, schema=database.schema).program
        budget = Budget()
        run_stratified(program, database, budget)
        assert budget.spent("steps") == stratified
        budget = Budget()
        run_inflationary(program, database, budget)
        assert budget.spent("steps") == inflationary

    def test_negation_steps(self):
        database = random_graph(9, 18, seed=3)
        budget = Budget()
        run_datalog_stratified(non_reachable_datalog(), database, budget)
        assert budget.spent("steps") == 415
        budget = Budget()
        run_datalog_inflationary(non_reachable_datalog(), database, budget)
        assert budget.spent("steps") == 377


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
