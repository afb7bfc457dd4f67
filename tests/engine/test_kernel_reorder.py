"""Kernel ordering work: paid once per rule body, not once per head or
per extent doubling — and still paid when the estimates really move.

The Theorem 5.1 compiled programs put several heads on one body and
grow history relations whose distinct time counts keep pace with their
sizes, so after the first compile a kernel's own per-step estimates
stay put.  A join whose narrow side becomes the wide side mid-fixpoint
must still be re-ordered.
"""

from repro.budget import Budget
from repro.core.col_simulation import compile_gtm_to_col, run_compiled_col
from repro.core.equivalence import implementations_for
from repro.deductive import kernels, oracle
from repro.deductive.ast import FuncLit, PredLit, Rule, TupD, VarD
from repro.deductive.col import Interp
from repro.deductive.datalog import DatalogProgram
from repro.engine.seminaive import seminaive_fixpoint
from repro.gtm.library import all_machines
from repro.model.schema import Database, Schema
from repro.model.types import parse_type
from repro.model.values import Atom, SetVal, Tup

#: ``choose_order`` calls on select_eq → COL^str, 2-row instance, when
#: every head of a shared body and every extent doubling re-ordered.
ORDER_CALLS_PER_HEAD = 13442


def _unlimited():
    return Budget(steps=None, objects=None, iterations=None, facts=None)


def _count_calls(monkeypatch, owner, name) -> list:
    calls = [0]
    original = getattr(owner, name)

    def counted(*args, **kwargs):
        calls[0] += 1
        return original(*args, **kwargs)

    monkeypatch.setattr(owner, name, counted)
    return calls


def _body_seed_pairs(program) -> int:
    """Distinct (body, seed) keys: one unseeded kernel per body plus
    one per positive generator occurrence."""
    bodies = {rule.body for rule in program.rules}
    return sum(
        1
        + sum(
            1
            for literal in body
            if isinstance(literal, (PredLit, FuncLit)) and literal.positive
        )
        for body in bodies
    )


class TestTheorem51OrderingWork:
    def test_select_eq_col_str_orders_once_per_body(self, monkeypatch):
        gtm, schema, output_type = all_machines()["select_eq"]
        program = compile_gtm_to_col(gtm, output_type)
        database = Database(schema, {"R": {(1, 1), (2, 3)}})
        orders = _count_calls(monkeypatch, kernels, "choose_order")
        builds = _count_calls(monkeypatch, kernels.RuleKernel, "__init__")

        result = run_compiled_col(program, gtm, database, "stratified", _unlimited())

        (direct,) = implementations_for(gtm, schema, output_type, routes=("gtm",))
        assert result == direct(database)
        assert 0 < orders[0] <= ORDER_CALLS_PER_HEAD // 2
        assert 0 < builds[0] <= _body_seed_pairs(program)


def _skew_appears_mid_fixpoint(rounds: int, fan: int, narrow: int, quiet: int):
    """``ANS(x, z) :- Wide(x, y), Narrow(y, z), Step(z)`` where ``Wide``
    grows by one fact per ``Step`` round for the first *quiet* rounds
    and by *fan* per round after, while each step's ``Narrow`` bucket
    stays at *narrow*.  Early on scanning ``Wide`` first is cheapest;
    later it is the wide side and ``Narrow`` must go first."""
    x, y, z, s, k = (VarD(name) for name in "xyzsk")
    rules = [
        Rule(PredLit("Step", x), [PredLit("Seed", x)]),
        Rule(PredLit("Step", y), [PredLit("Step", x), PredLit("Next", TupD([x, y]))]),
        Rule(
            PredLit("Wide", TupD([x, k])),
            [PredLit("Step", s), PredLit("Fan", TupD([s, x, k]))],
        ),
        Rule(
            PredLit("ANS", TupD([x, z])),
            [
                PredLit("Wide", TupD([x, y])),
                PredLit("Narrow", TupD([y, z])),
                PredLit("Step", z),
            ],
        ),
    ]
    program = DatalogProgram(rules, answer="ANS", name="skew-mid-fixpoint")
    steps = [Atom(f"s{i}") for i in range(rounds)]
    keys = [Atom(f"k{j}") for j in range(narrow)]
    fan_rows = {
        Tup([steps[i], Atom(f"w{i}_{j}"), keys[j % narrow]])
        for i in range(rounds)
        for j in range(1 if i < quiet else fan)
    }
    schema = Schema(
        {
            "Seed": parse_type("U"),
            "Next": parse_type("[U, U]"),
            "Fan": parse_type("[U, U, U]"),
            "Narrow": parse_type("[U, U]"),
        }
    )
    database = Database(
        schema,
        {
            "Seed": SetVal({steps[0]}),
            "Next": SetVal({Tup([steps[i], steps[i + 1]]) for i in range(rounds - 1)}),
            "Fan": SetVal(fan_rows),
            "Narrow": SetVal({Tup([key, step]) for key in keys for step in steps}),
        },
    )
    return program, database


class TestSkewStillReorders:
    def test_order_changes_when_estimates_move(self):
        program, database = _skew_appears_mid_fixpoint(
            rounds=12, fan=40, narrow=20, quiet=4
        )
        interp = Interp.from_database(database)
        seminaive_fixpoint(program.rules, interp, _unlimited())

        assert interp.kernels().invalidations > 0
        expected = oracle.run_stratified(program, database, _unlimited())
        assert interp.instance("ANS") == expected
