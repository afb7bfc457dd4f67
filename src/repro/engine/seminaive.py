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

Compiled programs share work between rules.  Rules whose bodies are
the *same* tuple of literal objects (Theorem 5.1's compiled δ entries
put up to five heads on one body) are evaluated once per round and
every head applied to the result; and each delta literal's seed
substitutions are matched once per round (:meth:`Delta.seeds_for`)
however many rules carry that literal.  Parsed programs never share
literal objects, so for them both are no-ops.  Bodies that differ only
in constants (one δ entry per machine state and read symbols) are
skipped outright while some constant they require is carried by no
fact (:func:`_constant_guards`), so no kernel is compiled or run for
them until it could match.
"""

from __future__ import annotations

from typing import Iterable

from ..budget import Budget
from ..deductive.ast import ConstD, EqLit, FuncLit, FuncT, PredLit, Rule, SetD, TupD
from ..deductive.col import Interp, eval_term, match, rule_substitutions
from .ops import FixpointDriver, OpStats, TupleKey


class Delta:
    """The facts first derived in one fixpoint round.

    ``seeds`` memoises, per delta literal object, the substitutions
    matching it against these facts and the ``steps`` that matching
    costs (see :meth:`seeds_for`).  A delta is read-only while a round
    consumes it, so the memo never goes stale.
    """

    __slots__ = ("preds", "funcs", "seeds")

    def __init__(self):
        self.preds: dict = {}
        self.funcs: dict = {}
        self.seeds: dict = {}

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

    def seeds_for(self, literal, budget: Budget) -> list:
        """The substitutions matching delta facts against *literal*.

        Matched once per literal object and shared afterwards (kernels
        never mutate their input substitutions).  Every call charges
        the matching work, so ``steps`` accounting is the same as if
        each rule had matched the literal itself.
        """
        memo = self.seeds.get(literal)
        if memo is None:
            memo = self.seeds[literal] = self._match(literal)
        seeds, work = memo
        if work:
            budget.charge("steps", work)
        return seeds

    def _match(self, literal) -> tuple:
        seeds: list = []
        if isinstance(literal, PredLit):
            facts = self.preds.get(literal.name, ())
            for fact in facts:
                seeds.extend(match(literal.term, fact, {}))
            return seeds, len(facts)
        work = 0
        for arg, element in self.funcs.get(literal.func, ()):
            for arg_subst in match(literal.arg, arg, {}):
                work += 1
                seeds.extend(match(literal.element, element, arg_subst))
        return seeds, work


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
    """(positive body preds, positive body funcs, positive generators,
    constant guards)."""
    preds = {
        l.name for l in rule.body if isinstance(l, PredLit) and l.positive
    }
    funcs = {
        l.func for l in rule.body if isinstance(l, FuncLit) and l.positive
    }
    generators = [
        l for l in rule.body if isinstance(l, (PredLit, FuncLit)) and l.positive
    ]
    return preds, funcs, generators, _constant_guards(rule)


def _constant_guards(rule: Rule) -> list:
    """``(predicate, spec, key)`` index probes that must all find a fact
    for *rule*'s body to have any substitution: the constant positions
    of each positive tuple literal.  A failed probe proves the body
    empty against every population (full, old or delta) of that
    extent."""
    guards = []
    for literal in rule.body:
        if not (
            isinstance(literal, PredLit)
            and literal.positive
            and isinstance(literal.term, TupD)
        ):
            continue
        items = literal.term.items
        positions = tuple(
            position for position, item in enumerate(items) if isinstance(item, ConstD)
        )
        if positions:
            guards.append(
                (
                    literal.name,
                    TupleKey(len(items), positions),
                    tuple(items[position].value for position in positions),
                )
            )
    return guards


def _refuted(guards: list, interp: Interp) -> bool:
    """Does some constant guard find no fact in *interp*?  Never with
    indexes ablated (:attr:`~repro.deductive.col.Interp.use_index`)."""
    if not guards or not Interp.use_index:
        return False
    preds = interp.preds
    for name, spec, key in guards:
        scan = preds.get(name)
        if scan is None or not scan.index(spec).get(key):
            return True
    return False


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
        seeds = delta.seeds_for(delta_literal, budget)
        if not seeds:
            continue
        kernel = cache.kernel(rule, seed=index)
        results.extend(kernel.run(seeds, neg, budget, delta=delta))
    return results


def _body_groups(rules: Iterable[Rule], key=lambda rule: rule.body) -> list:
    """*rules* grouped by ``key(rule)``, in first-occurrence order.

    Literals compare by identity, so body tuples are equal only when
    they hold the same literal objects: a group's substitutions are
    computed once, through its first rule's kernels, and every rule
    in it applies its head to them.
    """
    groups: dict = {}
    for rule in rules:
        groups.setdefault(key(rule), []).append(rule)
    return list(groups.values())


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
    groups = _body_groups(rules)
    profiles = [_rule_profile(group[0]) for group in groups]
    state: dict = {}

    def apply(group: list, substitutions: list, delta: Delta) -> None:
        for rule in group:
            for subst in substitutions:
                _apply_consequence(
                    _consequence(rule, subst, interp), interp, budget, delta
                )

    def step(round_number: int) -> bool:
        if round_number == 1:
            if initial_delta is not None:
                # Continuation: the caller's inserted facts are the
                # first delta; skip the full seeding pass.
                state["delta"] = initial_delta
                return not initial_delta.empty()
            # Round 1: one full cumulative pass seeds the delta.
            delta = Delta()
            for group, (_, _, _, guards) in zip(groups, profiles):
                if not _refuted(guards, interp):
                    apply(group, rule_substitutions(group[0], interp, budget, neg), delta)
            state["delta"] = delta
            return not delta.empty()
        delta = state["delta"]
        new_delta = Delta()
        for group, (preds, funcs, generators, guards) in zip(groups, profiles):
            if not generators:
                continue  # ground bodies were settled in round 1
            if not delta.touches(preds, funcs):
                continue  # rule-body index: no delta fact feeds this rule
            if _refuted(guards, interp):
                continue  # some constant this body needs is in no fact
            substitutions = _delta_substitutions(
                group[0], generators, interp, delta, budget, neg
            )
            apply(group, substitutions, new_delta)
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
    # A rule using function values re-runs in full, so it only shares
    # a body with rules that do too.
    groups = _body_groups(
        rules, key=lambda rule: (rule.body, _mentions_function_value(rule))
    )
    profiles = [_rule_profile(group[0]) for group in groups]
    unsafe = [_mentions_function_value(group[0]) for group in groups]
    state: dict = {}

    def step(round_number: int) -> bool:
        pending = []

        def buffer(group: list, substitutions: list) -> None:
            for rule in group:
                for subst in substitutions:
                    pending.append(_consequence(rule, subst, interp))

        if round_number == 1:
            for group, (_, _, _, guards) in zip(groups, profiles):
                if not _refuted(guards, interp):
                    buffer(group, rule_substitutions(group[0], interp, budget, interp))
            delta = Delta()
            for fact in pending:
                _apply_consequence(fact, interp, budget, delta)
            state["delta"] = delta
            return not delta.empty()
        delta = state["delta"]
        for group, profile, full_rerun in zip(groups, profiles, unsafe):
            preds, funcs, generators, guards = profile
            if not generators:
                continue  # ground bodies: decided in round 1 (negation
                # only flips true->false as the interpretation grows)
            if _refuted(guards, interp):
                continue
            if full_rerun:
                buffer(group, rule_substitutions(group[0], interp, budget, interp))
                continue
            if not delta.touches(preds, funcs):
                continue
            buffer(
                group,
                _delta_substitutions(
                    group[0], generators, interp, delta, budget, interp
                ),
            )
        delta = Delta()
        for fact in pending:
            _apply_consequence(fact, interp, budget, delta)
        state["delta"] = delta
        return not delta.empty()

    FixpointDriver(budget, stats=stats).run(step)
    return interp
