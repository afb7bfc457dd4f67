"""The reference oracles: each deductive language's naive fixpoint, run as code.

The paper defines COL^str, COL^inf (Section 5) and BK's rule
iteration by their naive fixpoints: apply every rule to everything
derived so far until nothing changes.  Production evaluation is
semi-naive — compiled, cost-ordered rule kernels
(:mod:`repro.engine.seminaive`, :mod:`repro.deductive.kernels`) and
BK's hash-join driver (:func:`repro.deductive.bk.hashjoin_fixpoint`).
This module keeps the definitions themselves as the oracle those
paths are checked against.  Tests and benchmarks call it by name; the
query planner never offers it.

* :func:`run_stratified` — COL^str: each stratum re-joins every rule
  in textual literal order against the full interpretation, round
  after round, with negation read from the completed lower strata.
* :func:`run_inflationary` — COL^inf: every round matches all rules
  against a copy of the round-start interpretation.
* :func:`run_bk` — BK: every rule whose tail predicates changed last
  round re-joins in full over plain, unindexed set extents.  It shares
  no index or delta code with the hash-join driver.

The oracles return the same values as the production entry points
(the answer instance, or ``?`` on budget exhaustion or a *max_rounds*
cut), so a cross-check is a plain equality.
"""

from __future__ import annotations

from typing import Iterable, Iterator, Mapping

from ..budget import Budget
from ..catalog.policy import should_index
from ..engine.ops import NO_KEY, FixpointDriver, HashJoin, TupleKey
from ..errors import BudgetExceeded, EvaluationError, UNDEFINED
from ..model.schema import Database
from ..model.values import SetVal
from .ast import ColProgram, ConstD, EqLit, FuncLit, PredLit, Rule, TupD, VarD
from .bk import BKProgram, BKRule, bk_obj, instantiate, leq, match_leq, reduce_set
from .col import Interp, eval_term, match
from .stratify import stratify

# --------------------------------------------------------------------------
# COL: textual-order joins.
# --------------------------------------------------------------------------


def _candidate_facts(literal: PredLit, interp: Interp, subst: dict):
    """Facts worth matching against, using the first-coordinate index
    when the leading tuple component is already determined."""
    if not Interp.use_index:
        return interp.preds.get(literal.name, set())
    term = literal.term
    lead = None
    if isinstance(term, TupD):
        lead = term.items[0]
    elif isinstance(term, (VarD, ConstD)):
        lead = term
    if isinstance(lead, VarD) and lead.name in subst:
        return interp.pred_by_first(literal.name, subst[lead.name])
    if isinstance(lead, ConstD):
        return interp.pred_by_first(literal.name, lead.value)
    return interp.preds.get(literal.name, set())


def _literal_order(body) -> list:
    """Positive generators, then (binding) equalities, then negations."""
    generators: list = []
    equalities: list = []
    negations: list = []
    for literal in body:
        if isinstance(literal, (PredLit, FuncLit)) and literal.positive:
            generators.append(literal)
        elif isinstance(literal, EqLit) and literal.positive:
            equalities.append(literal)
        else:
            negations.append(literal)
    return generators + equalities + negations


def _hash_join_positions(term, first_subst: dict) -> list | None:
    """Tuple positions of *term* whose value is determined per-substitution.

    A position qualifies when its subterm is a constant or a variable
    bound in the batch (probed via *first_subst* — batches extend a
    common prefix, so bound-variable sets agree across a batch; a
    deviant substitution falls back to a scan at probe time).
    """
    if not isinstance(term, TupD):
        return None
    positions = [
        (index, sub)
        for index, sub in enumerate(term.items)
        if isinstance(sub, ConstD)
        or (isinstance(sub, VarD) and sub.name in first_subst)
    ]
    return positions or None


def _hash_join_pred(
    literal: PredLit,
    substitutions: list,
    interp: Interp,
    budget: Budget,
) -> list | None:
    """Hash-join a batch of substitutions with a positive predicate literal.

    Probes the scan's persistent :class:`~repro.engine.ops.TupleKey`
    index keyed on the literal's determined tuple positions (built
    lazily on first use and maintained incrementally as facts arrive —
    the values' construction-time cached hashes make the keying O(1)
    per fact): O(|facts| + |substitutions|) instead of the nested
    O(|facts| × |substitutions|) scan.  Returns ``None`` when the shape
    does not qualify (caller falls back to the scan).

    The batch-vs-scan decision is adaptive (no fixed minimum batch):
    an already-built index is always probed; otherwise a build must be
    paid for either by this batch's nested work or by the cumulative
    fallback scanning the scan has already absorbed
    (``Scan.fallback_work``) — so fixpoints whose batches are
    individually tiny still amortise one build across rounds.
    """
    if not Interp.use_index:
        return None
    scan = interp.preds.get(literal.name)
    if not scan or not len(scan):
        return None
    term = literal.term
    positions = _hash_join_positions(term, substitutions[0])
    if positions is None:
        return None
    spec = TupleKey(len(term.items), tuple(pos for pos, _ in positions))
    if not scan.has_index(spec):
        if positions[0][0] == 0:
            # The leading coordinate is determined, so the persistent
            # first-coordinate index already prunes the scan to
            # near-constant work per substitution; a second index over
            # the remaining positions would cost more than it saves.
            return None
        if not should_index(len(substitutions), len(scan), scan.fallback_work):
            return None
    join = HashJoin(scan, spec, stats=scan.stats, budget=budget)

    def key_for(subst):
        try:
            return tuple(
                sub.value if isinstance(sub, ConstD) else subst[sub.name]
                for _, sub in positions
            )
        except KeyError:
            # This substitution does not bind a probed variable: scan.
            return NO_KEY

    def extend(subst, fact):
        return list(match(term, fact, subst))

    def fallback(subst):
        extended: list = []
        for fact in _candidate_facts(literal, interp, subst):
            budget.charge("steps")
            extended.extend(match(term, fact, subst))
        return extended

    return join.join(substitutions, key_for, extend, fallback=fallback)


def extend_with_literal(
    literal,
    substitutions: list,
    interp: Interp,
    neg: Interp,
    budget: Budget,
) -> list:
    """One join/filter step: extensions of *substitutions* satisfying
    *literal*.

    The join step of the textual oracle drivers below.

    Positive predicate joins over a batch of substitutions go through
    :func:`_hash_join_pred` when the literal has determined tuple
    positions; otherwise each substitution scans the (first-coordinate
    indexed) candidate facts.
    """
    next_substitutions: list = []
    if isinstance(literal, PredLit) and literal.positive:
        joined = _hash_join_pred(literal, substitutions, interp, budget)
        if joined is not None:
            return joined
        scan = interp.preds.get(literal.name)
        stats = scan.stats if scan is not None else None
        for subst in substitutions:
            if stats is not None:
                stats.rows_in += 1
            facts = _candidate_facts(literal, interp, subst)
            if scan is not None:
                scan.fallback_work += len(facts)
            for fact in facts:
                budget.charge("steps")
                before = len(next_substitutions)
                next_substitutions.extend(match(literal.term, fact, subst))
                if stats is not None:
                    stats.rows_out += len(next_substitutions) - before
    elif isinstance(literal, FuncLit) and literal.positive:
        graph = interp.funcs.get(literal.func, {})
        for subst in substitutions:
            for arg, elements in graph.items():
                for arg_subst in match(literal.arg, arg, subst):
                    for element in elements:
                        budget.charge("steps")
                        next_substitutions.extend(
                            match(literal.element, element, arg_subst)
                        )
    elif isinstance(literal, PredLit):
        for subst in substitutions:
            value = eval_term(literal.term, subst, neg)
            if value not in neg.preds.get(literal.name, set()):
                next_substitutions.append(subst)
    elif isinstance(literal, FuncLit):
        for subst in substitutions:
            arg = eval_term(literal.arg, subst, neg)
            element = eval_term(literal.element, subst, neg)
            if element not in neg.funcs.get(literal.func, {}).get(arg, set()):
                next_substitutions.append(subst)
    elif isinstance(literal, EqLit):
        for subst in substitutions:
            # A positive equality with one unbound variable side is a
            # binder: x ≈ t assigns x the value of t.
            binder = None
            if literal.positive:
                for var_side, val_side in (
                    (literal.left, literal.right),
                    (literal.right, literal.left),
                ):
                    if (
                        isinstance(var_side, VarD)
                        and var_side.name not in subst
                        and val_side.variables() <= set(subst)
                    ):
                        binder = (var_side.name, val_side)
                        break
            if binder is not None:
                name, val_side = binder
                extended = dict(subst)
                extended[name] = eval_term(val_side, subst, neg)
                next_substitutions.append(extended)
                continue
            left = eval_term(literal.left, subst, neg)
            right = eval_term(literal.right, subst, neg)
            if (left == right) == literal.positive:
                next_substitutions.append(subst)
    else:  # pragma: no cover - defensive
        raise EvaluationError(f"unknown literal {literal!r}")
    return next_substitutions


def rule_substitutions(
    rule: Rule,
    interp: Interp,
    budget: Budget,
    negation_interp: Interp | None = None,
) -> Iterator[dict]:
    """All body-satisfying substitutions of *rule* under *interp*, in
    textual literal order.

    Negated literals (and function-value terms in equalities) are
    evaluated against *negation_interp* when given — the stratified
    semantics points it at the completed lower strata; the inflationary
    semantics at the current interpretation.
    """
    neg = negation_interp if negation_interp is not None else interp
    substitutions = [dict()]
    for literal in _literal_order(rule.body):
        budget.charge("steps")
        substitutions = extend_with_literal(literal, substitutions, interp, neg, budget)
        if not substitutions:
            return
    yield from substitutions


def apply_rule(
    rule: Rule,
    interp: Interp,
    budget: Budget,
    negation_interp: Interp | None = None,
) -> bool:
    """Add all immediate consequences of *rule*; report change."""
    changed = False
    head = rule.head
    for subst in list(rule_substitutions(rule, interp, budget, negation_interp)):
        if isinstance(head, PredLit):
            value = eval_term(head.term, subst, interp)
            if interp.add_pred(head.name, value):
                budget.charge("facts")
                changed = True
        else:
            arg = eval_term(head.arg, subst, interp)
            element = eval_term(head.element, subst, interp)
            if interp.add_func(head.func, arg, element):
                budget.charge("facts")
                changed = True
    return changed


def fixpoint(
    rules: Iterable[Rule],
    interp: Interp,
    budget: Budget,
    negation_interp: Interp | None = None,
) -> Interp:
    """Iterate the rules to a (cumulative) fixpoint in place."""
    rules = list(rules)

    def step(_round: int) -> bool:
        changed = False
        for rule in rules:
            if apply_rule(rule, interp, budget, negation_interp):
                changed = True
        return changed

    FixpointDriver(budget).run(step)
    return interp


# --------------------------------------------------------------------------
# COL: the two semantics.
# --------------------------------------------------------------------------


def run_stratified(
    program: ColProgram,
    database: Database,
    budget: Budget | None = None,
):
    """COL^str by the naive fixpoint of each stratum, negation and
    function values frozen at the previous strata's result."""
    budget = budget or Budget()
    interp = Interp.from_database(database)
    try:
        for rules in stratify(program):
            frozen = interp.copy()
            fixpoint(rules, interp, budget, negation_interp=frozen)
    except BudgetExceeded:
        return UNDEFINED
    return interp.instance(program.answer)


def run_inflationary(
    program: ColProgram,
    database: Database,
    budget: Budget | None = None,
):
    """COL^inf by the simultaneous operator: each round applies every
    rule against a *snapshot* of the current interpretation."""
    budget = budget or Budget()
    interp = Interp.from_database(database)
    try:
        changed = True
        while changed:
            budget.charge("iterations")
            snapshot = interp.copy()
            changed = False
            for rule in program.rules:
                # Positive matching runs on the snapshot; insertions go
                # into the live interpretation.
                if _apply_from_snapshot(rule, snapshot, interp, budget):
                    changed = True
    except BudgetExceeded:
        return UNDEFINED
    return interp.instance(program.answer)


def _apply_from_snapshot(rule, snapshot: Interp, live: Interp, budget: Budget) -> bool:
    changed = False
    for subst in list(rule_substitutions(rule, snapshot, budget, snapshot)):
        head = rule.head
        if isinstance(head, PredLit):
            value = eval_term(head.term, subst, snapshot)
            if live.add_pred(head.name, value):
                budget.charge("facts")
                changed = True
        else:
            arg = eval_term(head.arg, subst, snapshot)
            element = eval_term(head.element, subst, snapshot)
            if live.add_func(head.func, arg, element):
                budget.charge("facts")
                changed = True
    return changed


# --------------------------------------------------------------------------
# BK: full re-joins over unindexed extents.
# --------------------------------------------------------------------------


def _tail_valuations(rule: BKRule, state: dict, budget: Budget) -> Iterator[dict]:
    """Unindexed tail valuations over plain set extents."""

    def recurse(tails, valuation):
        if not tails:
            yield valuation
            return
        tail, rest = tails[0], tails[1:]
        extent = state.get(tail.pred, set())
        for bound in extent:
            for extended in match_leq(tail.pattern, bound, valuation, budget):
                yield from recurse(rest, extended)

    yield from recurse(list(rule.tails), {})


def run_bk(
    program: BKProgram,
    database: Mapping,
    budget: Budget | None = None,
    max_rounds: int | None = None,
):
    """BK's rule iteration with a dirty-predicate rule index.

    Rounds after the first re-evaluate only rules whose tail predicates
    changed last round, but each re-evaluation is a *full* join of the
    rule over unindexed extents.  A skipped rule's tail extents are, at
    the start of the round, the ones its last evaluation already
    joined, so it could only re-derive heads already present or
    dominated.
    """
    budget = budget or Budget()
    state: dict = {}
    for name, values in database.items():
        state[name] = {instantiate(bk_obj(value), {}) for value in values}
    try:
        changed = True
        rounds = 0
        dirty: set | None = None  # None = first round: evaluate everything
        while changed:
            budget.charge("iterations")
            rounds += 1
            if max_rounds is not None and rounds > max_rounds:
                return UNDEFINED
            changed = False
            next_dirty: set = set()
            for rule in program.rules:
                if dirty is not None and not any(
                    tail.pred in dirty for tail in rule.tails
                ):
                    continue
                for valuation in list(_tail_valuations(rule, state, budget)):
                    budget.charge("steps")
                    derived = instantiate(bk_obj(rule.head.pattern), valuation)
                    extent = state.setdefault(rule.head.pred, set())
                    if derived in extent or any(
                        leq(derived, existing) for existing in extent
                    ):
                        continue
                    budget.charge("facts")
                    dominated = {e for e in extent if leq(e, derived)}
                    extent -= dominated
                    extent.add(derived)
                    changed = True
                    next_dirty.add(rule.head.pred)
            dirty = next_dirty
    except BudgetExceeded:
        return UNDEFINED
    answer = state.get(program.answer, set())
    return reduce_set(SetVal(answer))
