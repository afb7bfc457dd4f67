"""Semi-naive (delta-driven) fixpoint evaluation for COL / DATALOG¬.

The naive drivers (:mod:`repro.deductive.oracle`) re-join *every* rule against
*every* fact each round, so a fixpoint that runs r rounds over n facts
does O(r·n) matching work per rule even when a round derived a single
new fact.  The classic fix is **semi-naive evaluation**: track the
*delta* (facts first derived last round) and only compute substitutions
that use at least one delta fact — everything else was already derived.

The textbook scheme is implemented exactly: for a rule with positive
generators ``L1, ..., Lk``, round r computes, for each position i, the
joins with

* ``Li`` drawn from **Δ** (last round's new facts),
* ``L1..Li-1`` drawn from old facts only (full minus Δ), and
* ``Li+1..Lk`` drawn from the full interpretation,

so every new substitution is found exactly once per round.  Negated
literals and equalities are filters, applied once their variables are
bound.

Two drivers cover the repository's two semantics:

* :func:`seminaive_fixpoint` — cumulative, for the **stratified**
  semantics: within a stratum negation and function values are frozen
  (monotone evaluation), so delta-driving is unconditionally sound and
  reaches the identical least fixpoint.
* :func:`seminaive_inflationary_fixpoint` — the simultaneous
  (snapshot) operator of the **inflationary** semantics, with the
  per-round ``Interp.copy()`` of the naive driver replaced by a pending
  buffer: rules match against the un-mutated interpretation and the
  round's derivations are flushed afterwards.  Rules whose terms use
  function *values* ``F(t)`` are re-evaluated in full every round (the
  value of ``F`` can grow without any single fact matching a body
  position), which keeps the driver exact on every COL program.

Both drivers are cross-checked against the naive oracle in
``tests/engine/test_seminaive.py`` on the E6/E7/E8 workloads.

Join work runs through compiled rule kernels
(:mod:`repro.deductive.kernels`): one cost-ordered kernel per (rule,
seed occurrence), probing the predicates' persistent hash indexes
instead of scanning every fact per substitution.
"""

from __future__ import annotations

from typing import Iterable

from ..budget import Budget
from ..deductive.ast import EqLit, FuncLit, FuncT, PredLit, Rule, SetD, TupD
from ..deductive.col import Interp, eval_term, match, rule_substitutions
from .ops import FixpointDriver, OpStats


class Delta:
    """The facts first derived in one fixpoint round."""

    __slots__ = ("preds", "funcs")

    def __init__(self):
        self.preds: dict = {}
        self.funcs: dict = {}

    def add_pred(self, name: str, value) -> None:
        self.preds.setdefault(name, set()).add(value)

    def add_func(self, name: str, arg, element) -> None:
        self.funcs.setdefault(name, set()).add((arg, element))

    def empty(self) -> bool:
        return not self.preds and not self.funcs

    def touches(self, pred_names: set, func_names: set) -> bool:
        return bool(
            (pred_names and not pred_names.isdisjoint(self.preds))
            or (func_names and not func_names.isdisjoint(self.funcs))
        )


def _mentions_function_value(rule: Rule) -> bool:
    """Does any term of *rule* use a data function's value ``F(t)``?"""

    def walk(term) -> bool:
        if isinstance(term, FuncT):
            return True
        if isinstance(term, (TupD, SetD)):
            return any(walk(item) for item in term.items)
        return False

    terms = []
    head = rule.head
    if isinstance(head, PredLit):
        terms.append(head.term)
    else:
        terms.extend([head.arg, head.element])
    for literal in rule.body:
        if isinstance(literal, PredLit):
            terms.append(literal.term)
        elif isinstance(literal, FuncLit):
            terms.extend([literal.arg, literal.element])
        elif isinstance(literal, EqLit):
            terms.extend([literal.left, literal.right])
    return any(walk(term) for term in terms)


def _rule_profile(rule: Rule) -> tuple:
    """(positive body preds, positive body funcs, positive generators)."""
    preds = {
        l.name for l in rule.body if isinstance(l, PredLit) and l.positive
    }
    funcs = {
        l.func for l in rule.body if isinstance(l, FuncLit) and l.positive
    }
    generators = [
        l for l in rule.body if isinstance(l, (PredLit, FuncLit)) and l.positive
    ]
    return preds, funcs, generators


def _delta_substitutions(
    rule: Rule,
    generators: list,
    interp: Interp,
    delta: Delta,
    budget: Budget,
    neg: Interp,
) -> list:
    """All substitutions of *rule* that use at least one delta fact.

    Each seed occurrence runs through a cached, cost-ordered
    :class:`~repro.deductive.kernels.RuleKernel`; the old/delta/full
    population of every generator is assigned by its *occurrence*
    index relative to the seed (carried in the kernel's step modes), so
    the exactly-once accounting of the textbook scheme is preserved
    under reordering.
    """
    results: list = []
    cache = interp.kernels()
    for index, delta_literal in enumerate(generators):
        budget.charge("steps")
        seeds: list = []
        if isinstance(delta_literal, PredLit):
            delta_facts = delta.preds.get(delta_literal.name)
            if not delta_facts:
                continue
            for fact in delta_facts:
                budget.charge("steps")
                seeds.extend(match(delta_literal.term, fact, {}))
        else:
            delta_pairs = delta.funcs.get(delta_literal.func)
            if not delta_pairs:
                continue
            for arg, element in delta_pairs:
                for arg_subst in match(delta_literal.arg, arg, {}):
                    budget.charge("steps")
                    seeds.extend(match(delta_literal.element, element, arg_subst))
        if not seeds:
            continue
        kernel = cache.kernel(rule, seed=index)
        results.extend(kernel.run(seeds, neg, budget, delta=delta))
    return results


def _consequence(rule: Rule, subst: dict, eval_interp: Interp) -> tuple:
    head = rule.head
    if isinstance(head, PredLit):
        return ("pred", head.name, eval_term(head.term, subst, eval_interp))
    return (
        "func",
        head.func,
        eval_term(head.arg, subst, eval_interp),
        eval_term(head.element, subst, eval_interp),
    )


def _apply_consequence(fact: tuple, interp: Interp, budget: Budget, delta: Delta) -> bool:
    if fact[0] == "pred":
        _, name, value = fact
        if interp.add_pred(name, value):
            budget.charge("facts")
            delta.add_pred(name, value)
            return True
        return False
    _, name, arg, element = fact
    if interp.add_func(name, arg, element):
        budget.charge("facts")
        delta.add_func(name, arg, element)
        return True
    return False


def seminaive_fixpoint(
    rules: Iterable[Rule],
    interp: Interp,
    budget: Budget,
    negation_interp: Interp | None = None,
    stats: OpStats | None = None,
    initial_delta: Delta | None = None,
) -> Interp:
    """Delta-driven replacement for :func:`repro.deductive.oracle.fixpoint`.

    Intended for the stratified discipline, where *negation_interp* is
    the frozen union of lower strata (rule bodies are then monotone in
    *interp* and the least fixpoint is strategy-independent).  Rounds
    run through the kernel :class:`~repro.engine.ops.FixpointDriver`;
    *stats* (when given) accumulates the round count for EXPLAIN.

    *initial_delta* turns the call into a **continuation**: *interp* is
    assumed to already be a fixpoint of *rules* except for the facts in
    the delta (which the caller has already added to *interp*), and
    round 1 becomes a delta round seeded from it instead of a full
    pass.  For monotone rule sets (no negation, no function-value
    terms — :func:`repro.store.maintenance.delta_safe`) this computes
    exactly the fixpoint of the enlarged base, which is how the store's
    incremental maintenance refreshes materialized fixpoints without
    recomputing them.
    """
    neg = negation_interp if negation_interp is not None else interp
    rules = list(rules)
    profiles = [_rule_profile(rule) for rule in rules]
    state: dict = {}

    def step(round_number: int) -> bool:
        if round_number == 1:
            if initial_delta is not None:
                # Continuation: the caller's inserted facts are the
                # first delta; skip the full seeding pass.
                state["delta"] = initial_delta
                return not initial_delta.empty()
            # Round 1: one full cumulative pass seeds the delta.
            delta = Delta()
            for rule in rules:
                for subst in list(rule_substitutions(rule, interp, budget, neg)):
                    _apply_consequence(
                        _consequence(rule, subst, interp), interp, budget, delta
                    )
            state["delta"] = delta
            return not delta.empty()
        delta = state["delta"]
        new_delta = Delta()
        for rule, (preds, funcs, generators) in zip(rules, profiles):
            if not generators:
                continue  # ground bodies were settled in round 1
            if not delta.touches(preds, funcs):
                continue  # rule-body index: no delta fact feeds this rule
            substitutions = _delta_substitutions(
                rule, generators, interp, delta, budget, neg
            )
            for subst in substitutions:
                _apply_consequence(
                    _consequence(rule, subst, interp), interp, budget, new_delta
                )
        state["delta"] = new_delta
        return not new_delta.empty()

    FixpointDriver(budget, stats=stats).run(step)
    return interp


def seminaive_inflationary_fixpoint(
    rules: Iterable[Rule],
    interp: Interp,
    budget: Budget,
    stats: OpStats | None = None,
) -> Interp:
    """The simultaneous inflationary operator, delta-driven.

    Matches run against the round-start interpretation (negation
    included — the inflationary semantics evaluates ``¬`` against the
    current snapshot); derivations are buffered and flushed between
    rounds, replacing the naive driver's per-round full copy.  Rules
    using function values are re-run in full each round (see module
    docstring); everything else is delta-driven.  Rounds run through
    the kernel :class:`~repro.engine.ops.FixpointDriver`.
    """
    rules = list(rules)
    profiles = [_rule_profile(rule) for rule in rules]
    unsafe = [_mentions_function_value(rule) for rule in rules]
    state: dict = {}

    def step(round_number: int) -> bool:
        if round_number == 1:
            pending = []
            for rule in rules:
                for subst in list(rule_substitutions(rule, interp, budget, interp)):
                    pending.append(_consequence(rule, subst, interp))
            delta = Delta()
            for fact in pending:
                _apply_consequence(fact, interp, budget, delta)
            state["delta"] = delta
            return not delta.empty()
        delta = state["delta"]
        pending = []
        for rule, profile, full_rerun in zip(rules, profiles, unsafe):
            preds, funcs, generators = profile
            if not generators:
                continue  # ground bodies: decided in round 1 (negation
                # only flips true->false as the interpretation grows)
            if full_rerun:
                for subst in list(rule_substitutions(rule, interp, budget, interp)):
                    pending.append(_consequence(rule, subst, interp))
                continue
            if not delta.touches(preds, funcs):
                continue
            for subst in _delta_substitutions(
                rule, generators, interp, delta, budget, interp
            ):
                pending.append(_consequence(rule, subst, interp))
        delta = Delta()
        for fact in pending:
            _apply_consequence(fact, interp, budget, delta)
        state["delta"] = delta
        return not delta.empty()

    FixpointDriver(budget, stats=stats).run(step)
    return interp
