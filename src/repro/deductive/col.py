"""COL evaluation core: interpretations, matching, rule application.

An :class:`Interp` holds the current facts: a set of member objects per
predicate, and a graph ``arg -> set of elements`` per data function.
Rule bodies run through compiled kernels (:mod:`repro.deductive.kernels`)
that instantiate variables by *matching* rule terms against stored
objects (range-restriction guarantees this covers every variable),
never by enumerating rtype domains, so untyped-set programs with
growing values (the Theorem 5.1 counter!) run in time proportional to
what they derive.  The naive textual-order drivers live in
:mod:`repro.deductive.oracle`.

Set-term patterns in bodies are supported when ground or of the
singleton form ``{t}`` (which is all the paper's constructions need);
richer set matching would require an ACI-unification engine with no
additional expressive payoff here.
"""

from __future__ import annotations

from typing import Iterator

from ..budget import Budget
from ..engine.ops import FIRST_COORDINATE, Scan
from ..errors import EvaluationError
from ..model.schema import Database
from ..model.values import SetVal, Tup, Value
from .ast import ConstD, DTerm, FuncT, Rule, SetD, TupD, VarD


class Interp:
    """An interpretation: predicate extents and data-function graphs.

    Each predicate's extent is a kernel :class:`~repro.engine.ops.Scan`
    — a relation extent with lazily-built, incrementally-maintained
    hash indexes.  The first-coordinate index
    (:data:`~repro.engine.ops.FIRST_COORDINATE`) makes rule bodies
    whose leading tuple component is already bound join in
    near-constant time — without this, the Theorem 5.1 machine
    histories (facts keyed by a time column) degrade to quadratic
    scans — and the scans' per-operator counters feed EXPLAIN's
    physical actuals.
    """

    #: Class-wide ablation switch: set to False to disable index use
    #: (every bound-leading-component join then falls back to a full
    #: scan).  Used by the ablation benchmark.
    use_index = True

    def __init__(self):
        self.preds: dict = {}
        self.funcs: dict = {}
        self._kernels = None

    @classmethod
    def from_database(cls, database: Database) -> "Interp":
        from ..catalog import Catalog

        interp = cls()
        catalog = Catalog.for_database(database)
        for name in database.schema.names():
            for value in database[name].items:
                interp.add_pred(name, value)
            scan = interp.pred(name)
            if scan.facts:
                # Seed the scan's statistics snapshot from the
                # database's catalog: computed once per database, not
                # once per evaluation, and replaced (never mutated)
                # if this extent later moves materially.
                scan._rel_stats = catalog.rel(name)
        return interp

    def copy(self) -> "Interp":
        duplicate = Interp()
        duplicate.preds = {name: scan.copy() for name, scan in self.preds.items()}
        duplicate.funcs = {
            name: {arg: set(elems) for arg, elems in graph.items()}
            for name, graph in self.funcs.items()
        }
        return duplicate

    def kernels(self):
        """The per-interpretation compiled-kernel cache (lazy)."""
        cache = self._kernels
        if cache is None:
            from .kernels import KernelCache

            cache = self._kernels = KernelCache(self)
        return cache

    def pred(self, name: str) -> Scan:
        scan = self.preds.get(name)
        if scan is None:
            scan = self.preds[name] = Scan(name)
        return scan

    def pred_by_first(self, name: str, first: Value) -> set:
        """Facts of *name* whose first coordinate equals *first*."""
        scan = self.preds.get(name)
        if scan is None:
            return set()
        return scan.probe(FIRST_COORDINATE, first)

    def func_graph(self, name: str) -> dict:
        return self.funcs.setdefault(name, {})

    def func_value(self, name: str, arg: Value) -> SetVal:
        """The (current) set value ``F(arg)`` — empty if undefined."""
        return SetVal(self.funcs.get(name, {}).get(arg, set()))

    def add_pred(self, name: str, value: Value) -> bool:
        return self.pred(name).add(value)

    def add_func(self, name: str, arg: Value, element: Value) -> bool:
        graph = self.func_graph(name)
        elems = graph.setdefault(arg, set())
        if element in elems:
            return False
        elems.add(element)
        return True

    def fact_count(self) -> int:
        total = sum(len(v) for v in self.preds.values())
        total += sum(len(e) for graph in self.funcs.values() for e in graph.values())
        return total

    def instance(self, name: str) -> SetVal:
        return SetVal(self.preds.get(name, set()))

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, Interp)
            and self.preds == other.preds
            and self.funcs == other.funcs
        )

    def __repr__(self) -> str:
        parts = [f"{n}={SetVal(v)}" for n, v in sorted(self.preds.items())]
        for name, graph in sorted(self.funcs.items()):
            for arg, elems in graph.items():
                parts.append(f"{name}({arg})={SetVal(elems)}")
        return "Interp(" + ", ".join(parts) + ")"


def match(term: DTerm, value: Value, subst: dict) -> Iterator[dict]:
    """All extensions of *subst* making *term* equal *value*."""
    if isinstance(term, VarD):
        if term.name in subst:
            if subst[term.name] == value:
                yield subst
            return
        extended = dict(subst)
        extended[term.name] = value
        yield extended
        return
    if isinstance(term, ConstD):
        if term.value == value:
            yield subst
        return
    if isinstance(term, TupD):
        if not isinstance(value, Tup) or len(value) != len(term.items):
            return
        yield from _match_sequence(term.items, value.items, subst)
        return
    if isinstance(term, SetD):
        if not isinstance(value, SetVal):
            return
        free = term.variables() - set(subst)
        if not free:
            # Ground (under subst): compare evaluated set for equality.
            evaluated = SetVal(
                _eval_ground(item, subst) for item in term.items
            )
            if evaluated == value:
                yield subst
            return
        if len(term.items) == 1:
            # Singleton pattern {t}: matches only singleton sets.
            if len(value) == 1:
                yield from match(term.items[0], next(iter(value)), subst)
            return
        raise EvaluationError(
            f"set pattern {term!r} too complex to match (ground or "
            f"singleton patterns only)"
        )
    if isinstance(term, FuncT):
        raise EvaluationError(
            f"function-value term {term!r} cannot appear in a matched "
            f"position; use it in equalities or heads"
        )
    raise EvaluationError(f"unknown term {term!r}")  # pragma: no cover


def _match_sequence(terms, values, subst: dict) -> Iterator[dict]:
    if not terms:
        yield subst
        return
    for extended in match(terms[0], values[0], subst):
        yield from _match_sequence(terms[1:], values[1:], extended)


def _eval_ground(term: DTerm, subst: dict) -> Value:
    if isinstance(term, VarD):
        return subst[term.name]
    if isinstance(term, ConstD):
        return term.value
    if isinstance(term, TupD):
        return Tup([_eval_ground(item, subst) for item in term.items])
    if isinstance(term, SetD):
        return SetVal([_eval_ground(item, subst) for item in term.items])
    raise EvaluationError(f"term {term!r} is not ground-evaluable here")


def eval_term(term: DTerm, subst: dict, interp: Interp) -> Value:
    """Evaluate a (ground-under-*subst*) term, resolving ``F(t)`` values."""
    if isinstance(term, FuncT):
        arg = eval_term(term.arg, subst, interp)
        return interp.func_value(term.func, arg)
    if isinstance(term, VarD):
        try:
            return subst[term.name]
        except KeyError:
            raise EvaluationError(f"unbound variable {term.name!r}") from None
    if isinstance(term, ConstD):
        return term.value
    if isinstance(term, TupD):
        return Tup([eval_term(item, subst, interp) for item in term.items])
    if isinstance(term, SetD):
        return SetVal([eval_term(item, subst, interp) for item in term.items])
    raise EvaluationError(f"unknown term {term!r}")  # pragma: no cover


def rule_substitutions(
    rule: Rule,
    interp: Interp,
    budget: Budget,
    negation_interp: Interp | None = None,
) -> list:
    """All body-satisfying substitutions of *rule* under *interp*.

    The body runs through the rule's cached, cost-ordered compiled
    kernel (:mod:`repro.deductive.kernels`).  Negated literals (and
    function-value terms in equalities) are evaluated against
    *negation_interp* when given — the stratified semantics points it
    at the completed lower strata; the inflationary semantics at the
    current interpretation.
    """
    neg = negation_interp if negation_interp is not None else interp
    return interp.kernels().kernel(rule).run([{}], neg, budget)
