"""Physical operators — the shared execution kernel of every evaluator.

Before this module each language stack carried its own join machinery:
BK kept private ``_Extent`` attribute indexes, COL kept a
``pred_by_first`` index plus a transient batch hash join, the algebra
and calculus evaluators re-implemented scan/select/project, and budget
charging was hand-rolled at every call site.  The kernel centralises
the physical layer the way one engine core underlies many surface
languages: a small library of **budget-instrumented operators over
streams of bindings**, each carrying an :class:`OpStats` counter block
(rows in/out, index builds, probe counts, fixpoint rounds) that the
planner can cost against and EXPLAIN can render as post-run actuals.

The operators:

* :class:`Scan` — one relation extent with *lazily built, incrementally
  maintained* attribute hash indexes.  Index shapes are pluggable
  (:class:`IndexSpec`); the shipped specs generalise both of the old
  private structures: :data:`FIRST_COORDINATE` is COL's leading-column
  index, :class:`TupleKey` its transient determined-positions join
  index, and :class:`AttrAtom` / :class:`AttrRest` / :class:`AttrPresent`
  are BK's ``atom_at`` / ``rest_at`` / ``present`` bucket triple.
* :class:`HashJoin` — one batched join step: probe a scan's index once
  per input binding, extend matches via a caller-supplied function.
* :func:`select` / :func:`project` / :func:`distinct` — streaming
  filter / map / dedup over binding streams.
* :func:`set_construct` — materialise a stream into a
  :class:`~repro.model.values.SetVal`.
* :class:`FixpointDriver` — the round loop shared by the semi-naive
  machinery: charges ``iterations``, counts rounds, observes a
  ``max_rounds`` cut.

All index keys hash through the values' construction-time cached
structural hashes, so a probe is a dict lookup, never a deep
comparison.  Operators charge the budget exactly where the evaluators
they replaced charged it; passing ``budget=None`` disables charging for
callers that meter themselves.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Iterable, Iterator

from ..budget import Budget
from ..model.values import Atom, NamedTup, SetVal, Tup, Value
from ..obs.span import get_recorder, span

__all__ = [
    "OpStats",
    "IndexSpec",
    "FirstCoordinate",
    "FIRST_COORDINATE",
    "TupleKey",
    "AttrAtom",
    "AttrRest",
    "AttrPresent",
    "ATTR_ATOM",
    "ATTR_REST",
    "ATTR_PRESENT",
    "Scan",
    "HashJoin",
    "FixpointDriver",
    "select",
    "project",
    "distinct",
    "set_construct",
    "nested_loop_join",
]


class OpStats:
    """Per-operator post-run actuals.

    Deterministic by construction — every counter is a function of the
    data and the plan, never of wall-clock or memory — which is what
    lets EXPLAIN output containing them be golden-tested byte-exact.
    """

    __slots__ = ("rows_in", "rows_out", "probes", "index_builds", "rounds")

    def __init__(self):
        self.rows_in = 0
        self.rows_out = 0
        self.probes = 0
        self.index_builds = 0
        self.rounds = 0

    def as_dict(self) -> dict:
        return {
            "rows_in": self.rows_in,
            "rows_out": self.rows_out,
            "probes": self.probes,
            "index_builds": self.index_builds,
            "rounds": self.rounds,
        }

    def render(self) -> str:
        """Non-zero counters in a fixed order (empty string if idle)."""
        parts = [
            f"{name}={value}"
            for name, value in self.as_dict().items()
            if value
        ]
        return " ".join(parts)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"OpStats({self.render() or 'idle'})"


#: Shared sink for callers that do not collect actuals: every operator
#: accepts ``stats=None`` and falls back to a throwaway block.
def _stats(stats: OpStats | None) -> OpStats:
    return stats if stats is not None else OpStats()


# ---------------------------------------------------------------------------
# Index specs
# ---------------------------------------------------------------------------


class IndexSpec:
    """How one :class:`Scan` index buckets facts.

    ``keys(fact)`` yields every key the fact is filed under (none if the
    fact has no probeable structure for this spec).  Specs are frozen
    and hashable: a scan keeps at most one index per distinct spec and
    maintains it incrementally on ``add``/``discard``.
    """

    __slots__ = ()

    def keys(self, fact: Value) -> Iterable:  # pragma: no cover - interface
        raise NotImplementedError


@dataclass(frozen=True, slots=True)
class FirstCoordinate(IndexSpec):
    """COL's leading-column index: a tuple's first item, else the fact
    itself (non-tuple facts are their own leading coordinate)."""

    def keys(self, fact: Value):
        yield fact.items[0] if isinstance(fact, Tup) else fact


@dataclass(frozen=True, slots=True)
class TupleKey(IndexSpec):
    """Determined-positions join index over tuples of one arity.

    Generalises COL's transient batch hash join: facts that are not
    tuples of exactly *arity* items cannot match the literal's tuple
    term and are filed nowhere (pruned outright)."""

    arity: int
    positions: tuple

    def keys(self, fact: Value):
        if isinstance(fact, Tup) and len(fact.items) == self.arity:
            yield tuple(fact.items[p] for p in self.positions)


@dataclass(frozen=True, slots=True)
class AttrAtom(IndexSpec):
    """BK's ``atom_at``: named-tuple facts under ``(attr, atom)`` for
    every attribute holding an atom."""

    def keys(self, fact: Value):
        if isinstance(fact, NamedTup):
            for name, value in fact.fields:
                if isinstance(value, Atom):
                    yield (name, value)


@dataclass(frozen=True, slots=True)
class AttrRest(IndexSpec):
    """BK's ``rest_at``: named-tuple facts under ``attr`` for every
    attribute holding a non-atom (sets, nested tuples, ⊥/⊤)."""

    def keys(self, fact: Value):
        if isinstance(fact, NamedTup):
            for name, value in fact.fields:
                if not isinstance(value, Atom):
                    yield name


@dataclass(frozen=True, slots=True)
class AttrPresent(IndexSpec):
    """BK's ``present``: named-tuple facts under every attribute they
    carry."""

    def keys(self, fact: Value):
        if isinstance(fact, NamedTup):
            for name, _ in fact.fields:
                yield name


#: Shared singleton specs (specs are stateless; sharing keeps the
#: per-scan index dictionaries keyed consistently).
FIRST_COORDINATE = FirstCoordinate()
ATTR_ATOM = AttrAtom()
ATTR_REST = AttrRest()
ATTR_PRESENT = AttrPresent()

_EMPTY: frozenset = frozenset()


# ---------------------------------------------------------------------------
# Scan
# ---------------------------------------------------------------------------


class Scan:
    """One relation extent with lazily-built attribute hash indexes.

    The physical home of every predicate's facts: COL's ``Interp``, BK's
    per-predicate extents, and the calculus' relation-membership checks
    all hold their facts in scans.  An index is built on the first probe
    of its spec (counted in ``stats.index_builds``) and maintained
    incrementally by ``add``/``discard`` afterwards, so fixpoints never
    rebuild from scratch.

    A scan compares equal to another scan with the same facts, and
    supports the read-only set protocol (``in``, ``len``, iteration) so
    existing extent consumers keep working unchanged.
    """

    __slots__ = ("name", "facts", "stats", "_indexes", "fallback_work", "_rel_stats")

    def __init__(self, name: str = "scan", facts: Iterable[Value] = (), stats: OpStats | None = None):
        self.name = name
        self.facts: set = set(facts)
        self.stats = _stats(stats)
        self._indexes: dict = {}
        #: Cumulative un-indexed candidate scanning this scan has
        #: absorbed — the adaptive join threshold builds a persistent
        #: index once this exceeds the build cost, even when every
        #: individual batch is tiny (heuristic state, reset on copy).
        self.fallback_work = 0
        #: Cached :class:`~repro.catalog.stats.RelStats` snapshot (see
        #: :meth:`rel_stats`), refreshed under the catalog's shared
        #: material-change policy.
        self._rel_stats = None

    # -- maintenance ----------------------------------------------------

    def add(self, fact: Value) -> bool:
        """Insert *fact*; returns True when it was not already present."""
        if fact in self.facts:
            return False
        self.facts.add(fact)
        for spec, buckets in self._indexes.items():
            for key in spec.keys(fact):
                buckets.setdefault(key, set()).add(fact)
        return True

    def discard(self, fact: Value) -> None:
        self.facts.discard(fact)
        for spec, buckets in self._indexes.items():
            for key in spec.keys(fact):
                bucket = buckets.get(key)
                if bucket is not None:
                    bucket.discard(fact)

    # -- probing --------------------------------------------------------

    def index(self, spec: IndexSpec) -> dict:
        """The bucket map for *spec*, built on first use."""
        buckets = self._indexes.get(spec)
        if buckets is None:
            buckets = {}
            for fact in self.facts:
                for key in spec.keys(fact):
                    buckets.setdefault(key, set()).add(fact)
            self._indexes[spec] = buckets
            self.stats.index_builds += 1
        return buckets

    def has_index(self, spec: IndexSpec) -> bool:
        """Is the index for *spec* already built?  Probing an existing
        index is always profitable, so adaptive join thresholds consult
        this before weighing a fresh build."""
        return spec in self._indexes

    def probe(self, spec: IndexSpec, key) -> set:
        """The facts filed under *key* (one dict lookup, counted)."""
        self.stats.probes += 1
        return self.index(spec).get(key, _EMPTY)

    def rel_stats(self):
        """Per-position statistics of the current extent, cached.

        The snapshot is recomputed only when the extent has moved
        materially since it was taken (:func:`~repro.catalog.policy.
        stale_size`, the per-symbol rule of
        :func:`~repro.catalog.policy.material_change`), so fixpoint
        rounds that trickle facts in read the cached statistics for
        free.  Kernel re-ordering reads these statistics but is gated
        separately: a material size change re-costs the cached plan,
        and only moved per-step estimates re-order it
        (:class:`~repro.deductive.kernels.KernelCache`).
        """
        from ..catalog.policy import stale_size
        from ..catalog.stats import RelStats

        cached = self._rel_stats
        size = len(self.facts)
        if cached is not None and not stale_size(cached.size, size):
            return cached
        # Estimation reads only size + per-position sketches; skip the
        # depth/atom aggregates the store-facing snapshots maintain.
        stats = RelStats.from_facts(self.facts, aggregates=False)
        self._rel_stats = stats
        return stats

    def contains(self, fact: Value) -> bool:
        """Instrumented membership test (the calculus' ``R(t)`` probe)."""
        self.stats.probes += 1
        return fact in self.facts

    # -- read-only set protocol -----------------------------------------

    def __contains__(self, fact) -> bool:
        return fact in self.facts

    def __iter__(self) -> Iterator[Value]:
        return iter(self.facts)

    def __len__(self) -> int:
        return len(self.facts)

    def __eq__(self, other) -> bool:
        if isinstance(other, Scan):
            return self.facts == other.facts
        if isinstance(other, (set, frozenset)):
            return self.facts == other
        return NotImplemented

    def __hash__(self):  # pragma: no cover - scans are mutable
        raise TypeError("Scan is unhashable (mutable extent)")

    def copy(self) -> "Scan":
        """An independent scan over the same facts (indexes rebuilt
        lazily; stats are shared deliberately — a copy is the same
        physical relation observed at another point of the run).  The
        cached statistics snapshot carries over: it is replaced, never
        mutated, so sharing it is safe and skips a rescan."""
        duplicate = Scan(self.name, self.facts, self.stats)
        duplicate._rel_stats = self._rel_stats
        return duplicate

    def __repr__(self) -> str:
        return f"Scan({self.name}, {len(self.facts)} fact(s))"


# ---------------------------------------------------------------------------
# Joins
# ---------------------------------------------------------------------------

#: Sentinel: the binding does not determine a probe key.
NO_KEY = object()


class HashJoin:
    """One batched hash-join step against a scan's index.

    ``join(bindings, key_for, extend)`` probes ``scan.index(spec)`` once
    per binding: *key_for(binding)* names the bucket (return
    :data:`NO_KEY` to route the binding to *fallback*), *extend(binding,
    fact)* yields the extended bindings.  *exclude* drops candidate
    facts at probe time — the semi-naive drivers use it to restrict
    earlier join positions to pre-delta facts.
    """

    __slots__ = ("scan", "spec", "stats", "budget", "resource")

    def __init__(
        self,
        scan: Scan,
        spec: IndexSpec,
        stats: OpStats | None = None,
        budget: Budget | None = None,
        resource: str = "steps",
    ):
        self.scan = scan
        self.spec = spec
        self.stats = _stats(stats)
        self.budget = budget
        self.resource = resource

    def join(
        self,
        bindings: Iterable,
        key_for: Callable,
        extend: Callable,
        exclude: set | None = None,
        fallback: Callable | None = None,
    ) -> list:
        index = self.scan.index(self.spec)
        stats = self.stats
        budget = self.budget
        results: list = []
        for binding in bindings:
            stats.rows_in += 1
            key = key_for(binding)
            if key is NO_KEY:
                if fallback is not None:
                    extended = fallback(binding)
                    stats.rows_out += len(extended)
                    results.extend(extended)
                continue
            stats.probes += 1
            for fact in index.get(key, _EMPTY):
                if exclude is not None and fact in exclude:
                    continue
                if budget is not None:
                    budget.charge(self.resource)
                for extended in extend(binding, fact):
                    stats.rows_out += 1
                    results.append(extended)
        return results


def nested_loop_join(
    bindings: Iterable,
    facts: Iterable[Value],
    extend: Callable,
    stats: OpStats | None = None,
    budget: Budget | None = None,
    resource: str = "steps",
    exclude: set | None = None,
) -> list:
    """The un-indexed reference join: every binding against every fact.

    Used as the kernel's differential oracle (property tests check the
    hash-join paths against it) and as the fallback when a literal has
    no probeable structure.
    """
    stats = _stats(stats)
    facts = list(facts)
    results: list = []
    for binding in bindings:
        stats.rows_in += 1
        for fact in facts:
            if exclude is not None and fact in exclude:
                continue
            if budget is not None:
                budget.charge(resource)
            for extended in extend(binding, fact):
                stats.rows_out += 1
                results.append(extended)
    return results


# ---------------------------------------------------------------------------
# Streaming operators
# ---------------------------------------------------------------------------


def select(
    rows: Iterable,
    predicate: Callable,
    stats: OpStats | None = None,
    budget: Budget | None = None,
    resource: str = "steps",
) -> Iterator:
    """Filter a stream, counting rows in/out."""
    stats = _stats(stats)
    for row in rows:
        stats.rows_in += 1
        if budget is not None:
            budget.charge(resource)
        if predicate(row):
            stats.rows_out += 1
            yield row


def project(
    rows: Iterable,
    fn: Callable,
    stats: OpStats | None = None,
) -> Iterator:
    """Map a stream, dropping rows *fn* maps to :data:`NO_KEY`.

    The drop sentinel carries the relaxed algebra's shape discipline:
    wrong-shaped members are ignored, and the in/out counters make that
    visible in EXPLAIN."""
    stats = _stats(stats)
    for row in rows:
        stats.rows_in += 1
        projected = fn(row)
        if projected is NO_KEY:
            continue
        stats.rows_out += 1
        yield projected


def distinct(rows: Iterable, stats: OpStats | None = None) -> Iterator:
    """Drop duplicate rows (hash-based, order-preserving)."""
    stats = _stats(stats)
    seen: set = set()
    for row in rows:
        stats.rows_in += 1
        if row in seen:
            continue
        seen.add(row)
        stats.rows_out += 1
        yield row


def set_construct(
    rows: Iterable[Value],
    stats: OpStats | None = None,
    budget: Budget | None = None,
    resource: str = "objects",
) -> SetVal:
    """Materialise a stream into a set value (the algebra's instances)."""
    stats = _stats(stats)
    members: list = []
    for row in rows:
        stats.rows_in += 1
        if budget is not None:
            budget.charge(resource)
        members.append(row)
    result = SetVal(members)
    stats.rows_out += len(result)
    return result


# ---------------------------------------------------------------------------
# Fixpoints
# ---------------------------------------------------------------------------


class FixpointDriver:
    """The round loop shared by every fixpoint evaluator.

    ``run(step)`` calls ``step(round_number)`` (1-based) until it
    returns falsy, charging one ``iterations`` per round and counting
    rounds into ``stats.rounds``.  Returns ``False`` when *max_rounds*
    was exceeded before convergence — the caller's observation of a
    cut-off run (``?``); budget exhaustion raises, exactly as the bare
    loops it replaces did.
    """

    __slots__ = ("budget", "stats", "max_rounds")

    def __init__(
        self,
        budget: Budget,
        stats: OpStats | None = None,
        max_rounds: int | None = None,
    ):
        self.budget = budget
        self.stats = _stats(stats)
        self.max_rounds = max_rounds

    def run(self, step: Callable) -> bool:
        rounds = 0
        # One recorder check ahead of the loop: with tracing off the
        # round loop is byte-for-byte the pre-obs code path.
        traced = get_recorder() is not None
        while True:
            self.budget.charge("iterations")
            rounds += 1
            if self.max_rounds is not None and rounds > self.max_rounds:
                return False
            self.stats.rounds += 1
            if traced:
                with span("engine.fixpoint_round", round=rounds):
                    converged = not step(rounds)
                if converged:
                    return True
            elif not step(rounds):
                return True
