"""The `Session` front door: parse, plan, cache, execute, explain.

A session holds a database, a root :class:`~repro.budget.Budget`, and
two caches:

* a text-keyed LRU of :class:`~repro.query.planner.Plan` objects (a
  plan depends on the database's instance statistics, so the database
  itself is part of the key);
* the genericity-aware :class:`~repro.engine.cache.MemoCache` for
  *results*, keyed by plan fingerprint and the canonical (isomorphism-
  invariant) form of the database — permuting atom names still hits.
  Plans marked non-generic (invention-capable comprehensions) bypass
  it, per Section 6: their output may depend on the fresh objects the
  evaluator invents, which no canonical key can capture.

Each query runs under a *child* of the session budget, so one runaway
query cannot silently drain the session's allowance for the rest.
"""

from __future__ import annotations

from ..budget import Budget
from ..engine.cache import LRUCache, MemoCache, program_fingerprint
from ..engine.intern import intern_stats, interning_enabled
from ..model.schema import Database, Schema
from ..obs.metrics import flatten
from ..obs.span import span
from .explain import render, render_plan
from .ir import BKQuery, RuleQuery
from .parser import parse
from .planner import FACT_DRIVEN, ExecutionReport, Plan, build_plan, execute_plan

#: Backend groups a materialized view answers for.  A delta-safe COL
#: program is one monotone stratum, so its stratified and inflationary
#: fixpoints coincide.  The compiled/whole-database routes re-encode
#: the full database and are served normally.
_COL_VIEW_BACKENDS = frozenset({"col-stratified", "col-inflationary"})
_BK_VIEW_BACKENDS = frozenset({"bk-hashjoin"})


def _program_predicates(query, schema) -> frozenset:
    """The schema predicates whose instances can influence *query*.

    For rule blocks this is every predicate the program *mentions* —
    reads **and** heads, since a base instance sharing a head's name
    seeds the fixpoint — intersected with the schema.  Other query
    forms fall back to their declared ``predicates()``.
    """
    if isinstance(query, RuleQuery):
        names: set = set()
        for rule in query.program.rules:
            names |= rule.predicates()
        names |= {
            name for kind, name in query.program.head_symbols() if kind == "pred"
        }
    elif isinstance(query, BKQuery):
        names = {rule.head.pred for rule in query.program.rules}
        for rule in query.program.rules:
            names |= {tail.pred for tail in rule.tails}
        names.add(query.program.answer)
    else:
        names = set(query.predicates())
    return frozenset(name for name in names if name in schema)


class Session:
    """An open connection to one database."""

    def __init__(
        self,
        database: Database,
        budget: Budget | None = None,
        obj_bound: int = 200,
        memo_entries: int = 256,
        plan_entries: int = 128,
    ):
        self.database = database
        self.budget = budget or Budget()
        self.obj_bound = obj_bound
        self.memo = MemoCache(max_entries=memo_entries)
        self.plans = LRUCache(max_entries=plan_entries)
        self.last_report: ExecutionReport | None = None
        from ..store.maintenance import ViewRegistry

        #: Materialized fixpoints (see :meth:`materialize`), maintained
        #: incrementally across :meth:`apply_delta`.
        self.views = ViewRegistry()

    # -- parsing and planning -------------------------------------------

    def parse(self, text: str):
        with span("session.parse"):
            return parse(text, schema=self.database.schema)

    def plan(self, text: str, database: Database | None = None) -> Plan:
        database = database or self.database
        key = (text, database)
        cached = self.plans.get(key)
        if cached is not None:
            return cached
        with span("session.plan"):
            plan = build_plan(self.parse(text), database, obj_bound=self.obj_bound)
        self.plans.put(key, plan)
        return plan

    # -- execution ------------------------------------------------------

    def run(
        self,
        text: str,
        backend: str | None = None,
        budget: Budget | None = None,
        database: Database | None = None,
    ) -> tuple:
        """Evaluate *text*; return ``(result, ExecutionReport)``.

        Unlike :meth:`query` this touches no per-session mutable state
        beyond the (thread-safe) plan and memo caches, so one session
        can serve many threads concurrently — the serving layer
        (:mod:`repro.serve`) calls this and keeps each request's report
        in its own trace instead of :attr:`last_report`.
        """
        database = database or self.database
        with span("session.run") as run_span:
            plan = self.plan(text, database)
            child = (budget or self.budget).child()
            chosen = backend or plan.chosen.backend

            captured: list = []

            def evaluate(db: Database):
                view = self._view_answer(plan, chosen, db)
                if view is not None:
                    return view
                with span("session.execute", backend=chosen):
                    report = execute_plan(plan, db, child, backend=backend)
                captured.append(report)
                return report.result

            # Fact-driven backends provably read only the query's own
            # predicates, so the memo key uses the database *restricted*
            # to them — the entry then survives deltas to other
            # predicates (apply_delta removes it only on footprint
            # intersection).  The footprint includes *defined* (IDB)
            # names too: a schema predicate sharing a head's name seeds
            # the fixpoint like any base fact.
            key_database = footprint = None
            if plan.generic and chosen in FACT_DRIVEN:
                preds = _program_predicates(plan.query, database.schema)
                if preds:
                    key_database = database.restrict(preds)
                    footprint = (
                        preds,
                        key_database.adom() | frozenset(plan.query.constants()),
                    )
            result = self.memo.run(
                evaluate,
                plan,
                database,
                constants=plan.query.constants(),
                generic=plan.generic,
                extra_key=("backend", chosen),
                key_database=key_database,
                footprint=footprint,
            )
            if captured:
                report = captured[0]
            else:
                # Memo hit: nothing ran. Report the hit itself as actuals.
                report = ExecutionReport(chosen, result, spent={}, cached=True)
            run_span.set(backend=report.backend, cached=report.cached)
        return result, report

    def query(
        self,
        text: str,
        backend: str | None = None,
        budget: Budget | None = None,
        database: Database | None = None,
    ):
        """Evaluate *text* and return its value (or ``?``).

        The result is memoized under the canonical-database key when
        the plan is generic; *backend* forces a specific candidate and
        keys separately (all candidates agree semantically, but their
        budget behaviour near exhaustion differs)."""
        result, report = self.run(
            text, backend=backend, budget=budget, database=database
        )
        self.last_report = report
        return result

    # -- materialized views and committed deltas ------------------------

    def _view_key(self, query) -> tuple | None:
        if isinstance(query, RuleQuery):
            return ("col", program_fingerprint(query.program))
        if isinstance(query, BKQuery):
            return ("bk", program_fingerprint(query.program))
        return None

    def _view_answer(self, plan, chosen: str, database: Database):
        """The materialized answer for *plan* on *database*, if a
        current view exists and *chosen* is a backend it stands in for."""
        if not len(self.views):
            return None
        query = plan.query
        if isinstance(query, RuleQuery) and chosen in _COL_VIEW_BACKENDS:
            key = self._view_key(query)
        elif isinstance(query, BKQuery) and chosen in _BK_VIEW_BACKENDS:
            key = self._view_key(query)
        else:
            return None
        # One lock acquisition covers lookup *and* read, so a
        # concurrent update cannot refresh the view in between.
        return self.views.answer(key, database)

    def materialize(self, text: str):
        """Materialize *text*'s fixpoint as an incrementally maintained
        view.

        Only rule-block queries qualify: a COL block must be
        *delta-safe* (no negation, no function-value terms — see
        :func:`repro.store.maintenance.delta_safe`); every BK block is
        (BK has no negation).  Subsequent :meth:`run` calls on the same
        database answer from the view for the drivers it stands in
        for, and :meth:`apply_delta` refreshes it by semi-naive delta
        rounds instead of recomputation.  Returns the view; raises
        :class:`~repro.errors.EvaluationError` for non-materializable
        queries.
        """
        from ..errors import EvaluationError
        from ..store.maintenance import BKView, ColView, delta_safe

        plan = self.plan(text)
        query = plan.query
        key = self._view_key(query)
        if key is None:
            raise EvaluationError(
                f"only rule-block queries can be materialized, not {query.form!r}"
            )
        existing = self.views.lookup(key, self.database)
        if existing is not None:
            return existing
        if isinstance(query, RuleQuery):
            if not delta_safe(query.program):
                raise EvaluationError(
                    "program is not delta-safe (negation or function-value "
                    "terms): incremental maintenance would be unsound"
                )
            view = ColView(query.program, self.database)
        else:
            view = BKView(query.program, self.database)
        self.views.register(key, view)
        return view

    def apply_delta(self, new_database: Database, delta) -> dict:
        """Move the session onto *new_database* after a committed
        *delta* (a :class:`~repro.store.tx.FactDelta`), keeping every
        cache that provably survives.

        * **Memo**: entries keyed on a restricted database are removed
          only when their footprint intersects the delta
          (:meth:`MemoCache.invalidate`); full-database entries become
          unreachable and age out.
        * **Plans**: entries for the old database whose program
          footprint is disjoint from the delta are re-keyed to the new
          database *preserving the Plan object* — its fingerprint (and
          with it the memo keys) survives; intersecting entries are
          dropped for replanning.
        * **Views**: asserted facts continue each view's fixpoint as
          delta rounds; views intersecting a retraction are dropped
          (see :class:`~repro.store.maintenance.ViewRegistry`).

        Returns a counter dict (folded into serve-layer STATS).
        """
        old = self.database
        stats = {
            "invalidations": 0,
            "plans_migrated": 0,
            "plans_dropped": 0,
            "views_refreshed": 0,
            "views_dropped": 0,
            "incremental_rounds": 0,
        }
        if delta.empty():
            self.database = new_database
            return stats
        touched = delta.predicates()
        stats["invalidations"] = self.memo.invalidate(touched, delta.atoms())
        for key, plan in self.plans.items():
            if not (isinstance(key, tuple) and len(key) == 2):
                continue
            text, keyed_db = key
            if keyed_db != old:
                continue
            self.plans.pop(key)
            if _program_predicates(plan.query, old.schema).isdisjoint(touched):
                self.plans.put((text, new_database), plan)
                stats["plans_migrated"] += 1
            else:
                stats["plans_dropped"] += 1
        view_stats = self.views.apply_delta(new_database, delta)
        stats["views_refreshed"] = view_stats["refreshed"]
        stats["views_dropped"] = view_stats["dropped"]
        stats["incremental_rounds"] = view_stats["incremental_rounds"]
        self.database = new_database
        return stats

    # -- observability ---------------------------------------------------

    def counters(self) -> dict:
        """This session's cache counters as one nested stats dict.

        The serve layer registers this (zero-arg, cheap, thread-safe)
        as a :meth:`~repro.obs.metrics.MetricsRegistry.register_collector`
        callback under a ``db.<name>`` prefix; embedded users can
        :func:`~repro.obs.metrics.flatten` it into the same dotted-key
        schema themselves.
        """
        return {
            "memo": self.memo.stats.as_dict(),
            "plans": self.plans.stats.as_dict(),
            "views": len(self.views),
        }

    def counter_snapshot(self) -> dict:
        """The flat dotted-key form of :meth:`counters`, plus the
        process-wide interner family when interning is enabled — the
        exact mapping EXPLAIN's counter block renders from."""
        flat = {
            **flatten("query.memo", self.memo.stats.as_dict()),
            **flatten("query.plans", self.plans.stats.as_dict()),
        }
        if interning_enabled():
            flat.update(flatten("engine.intern", intern_stats().as_dict()))
        return flat

    # -- explain --------------------------------------------------------

    def explain(
        self,
        text: str,
        run: bool = False,
        backend: str | None = None,
        budget: Budget | None = None,
    ) -> str:
        """The EXPLAIN transcript: the plan, plus actuals if *run*."""
        plan = self.plan(text)
        if not run:
            return render_plan(plan)
        self.query(text, backend=backend, budget=budget)
        return render(plan, self.last_report, counters=self.counter_snapshot())


def connect(
    database: Database | None = None,
    schema: Schema | None = None,
    budget: Budget | None = None,
    obj_bound: int = 200,
    memo_entries: int = 256,
    plan_entries: int = 128,
    **instances,
) -> Session:
    """Open a :class:`Session`.

    Either pass a ready :class:`Database`, or a :class:`Schema` plus
    plain-Python instances (coerced via ``Database.from_plain``).
    *memo_entries* and *plan_entries* bound the result memo cache and
    the plan LRU respectively; their hit/miss counters surface in
    EXPLAIN actuals."""
    if database is None:
        if schema is None:
            raise ValueError("connect() needs a database or a schema")
        database = Database.from_plain(schema, **instances)
    return Session(
        database,
        budget=budget,
        obj_bound=obj_bound,
        memo_entries=memo_entries,
        plan_entries=plan_entries,
    )
