"""Plain relational DATALOG¬ — the flat baseline the paper contrasts.

A :class:`DatalogProgram` is a COL program restricted to flat terms
(variables, atomic constants, and tuples thereof) and no data
functions.  It runs under both semantics via the COL machinery; the
point of keeping it as its own class is the contrast the paper draws in
Section 5: for *flat* DATALOG¬, stratified ⊊ inflationary [Kol87,
KP88], while for COL with untyped sets the two coincide at **C**
(Theorem 5.1).

:func:`library` contains the standard programs used by tests and the
E6 experiment (transitive closure, complement-of-TC via stratified
negation, same-generation).
"""

from __future__ import annotations

from typing import Iterable

from ..budget import Budget
from ..errors import TypeCheckError
from ..model.schema import Database
from .ast import ColProgram, ConstD, DTerm, EqLit, FuncLit, PredLit, Rule, TupD, VarD
from .inflationary import run_inflationary
from .stratify import run_stratified


def _check_flat_term(term: DTerm, where: str) -> None:
    if isinstance(term, (VarD,)):
        return
    if isinstance(term, ConstD):
        from ..model.values import Atom

        if not isinstance(term.value, Atom):
            raise TypeCheckError(f"{where}: non-atomic constant {term!r}")
        return
    if isinstance(term, TupD):
        for item in term.items:
            if not isinstance(item, (VarD, ConstD)):
                raise TypeCheckError(f"{where}: nested term {term!r} is not flat")
            _check_flat_term(item, where)
        return
    raise TypeCheckError(f"{where}: term {term!r} is not flat")


class DatalogProgram(ColProgram):
    """A COL program statically restricted to flat relational DATALOG¬."""

    def __init__(self, rules: Iterable[Rule], answer: str = "ANS", name: str = "datalog"):
        super().__init__(rules, answer=answer, name=name)
        for rule in self.rules:
            if isinstance(rule.head, FuncLit):
                raise TypeCheckError("DATALOG has no data functions")
            _check_flat_term(rule.head.term, "head")
            for literal in rule.body:
                if isinstance(literal, FuncLit):
                    raise TypeCheckError("DATALOG has no data functions")
                if isinstance(literal, PredLit):
                    _check_flat_term(literal.term, "body")
                elif isinstance(literal, EqLit):
                    _check_flat_term(literal.left, "body")
                    _check_flat_term(literal.right, "body")


def run_datalog_stratified(
    program: DatalogProgram,
    database: Database,
    budget: Budget | None = None,
):
    """Stratified semantics (raises on unstratifiable programs)."""
    return run_stratified(program, database, budget)


def run_datalog_inflationary(
    program: DatalogProgram,
    database: Database,
    budget: Budget | None = None,
):
    """Inflationary semantics (defined for every program)."""
    return run_inflationary(program, database, budget)


def transitive_closure_datalog(relation: str = "R", answer: str = "ANS") -> DatalogProgram:
    """TC of a binary relation — pure positive DATALOG."""
    x, y, z = VarD("x"), VarD("y"), VarD("z")
    rules = [
        Rule(PredLit(answer, TupD([x, y])), [PredLit(relation, TupD([x, y]))]),
        Rule(
            PredLit(answer, TupD([x, z])),
            [PredLit(answer, TupD([x, y])), PredLit(relation, TupD([y, z]))],
        ),
    ]
    return DatalogProgram(rules, answer=answer, name="tc")


def non_reachable_datalog(relation: str = "R", answer: str = "ANS") -> DatalogProgram:
    """Pairs of active-domain values *not* connected — needs stratified
    negation over TC."""
    x, y, z = VarD("x"), VarD("y"), VarD("z")
    rules = [
        Rule(PredLit("tc", TupD([x, y])), [PredLit(relation, TupD([x, y]))]),
        Rule(
            PredLit("tc", TupD([x, z])),
            [PredLit("tc", TupD([x, y])), PredLit(relation, TupD([y, z]))],
        ),
        Rule(PredLit("node", x), [PredLit(relation, TupD([x, y]))]),
        Rule(PredLit("node", y), [PredLit(relation, TupD([x, y]))]),
        Rule(
            PredLit(answer, TupD([x, y])),
            [
                PredLit("node", x),
                PredLit("node", y),
                PredLit("tc", TupD([x, y]), positive=False),
            ],
        ),
    ]
    return DatalogProgram(rules, answer=answer, name="non-reachable")


def unstratifiable_program(answer: str = "ANS") -> DatalogProgram:
    """The classic win-move program: ``win(x) ← move(x,y), ¬win(y)``.

    Not stratifiable; the inflationary semantics still assigns it a
    meaning — the witness for "stratified ⊊ inflationary" on flat
    DATALOG¬ that Theorem 5.1 contrasts against.
    """
    x, y = VarD("x"), VarD("y")
    rules = [
        Rule(
            PredLit("win", x),
            [PredLit("move", TupD([x, y])), PredLit("win", y, positive=False)],
        ),
        Rule(PredLit(answer, x), [PredLit("win", x)]),
    ]
    return DatalogProgram(rules, answer=answer, name="win-move")
