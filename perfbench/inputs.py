"""Seeded inputs for every workload: databases and request streams.

The seed reaches the program only through what this module builds.
Each workload's database *shapes* are fixed; the seed renames their
atoms (an isomorphic copy) and drives every choice in the request
streams.  Two seeds therefore hand the program different inputs that
cost the same amount of work, so a run-to-run spread measures the
program and the machine, not a lottery over graph shapes.

Everything here is a pure function of the seed: the same seed gives
identical databases and streams in any process, under any
``PYTHONHASHSEED`` (``random.Random`` seeded with a string hashes it
with SHA-512).
"""

from __future__ import annotations

import itertools
import random
from typing import Iterator, NamedTuple

from repro.engine.canon import Renaming
from repro.model.schema import Database, Schema
from repro.model.types import parse_type
from repro.workloads import (
    SERVE_QUERY_BANK,
    Request,
    join_pair,
    random_graph,
    request_stream,
    serve_databases,
)


def rng_for(seed: int, salt: str) -> random.Random:
    """An independent PRNG per (seed, purpose)."""
    return random.Random(f"perfbench:{salt}:{seed}")


def relabel(database: Database, seed: int, salt: str) -> Database:
    """An isomorphic copy of *database*: its atoms permuted by the seed."""
    atoms = sorted(database.adom(), key=lambda atom: atom.canon_key())
    shuffled = list(atoms)
    rng_for(seed, salt).shuffle(shuffled)
    return Renaming(dict(zip(atoms, shuffled)))(database)


def labels(values) -> set:
    """A set value's members as plain Python (atoms → labels, tuples →
    tuples), for comparing results against models built here."""
    return {_plain(member) for member in values.items}


def _plain(value):
    items = getattr(value, "items", None)
    if items is None:
        return value.label
    return tuple(_plain(item) for item in items)


# ---------------------------------------------------------------------------
# serve_warm: the serve bank plus a mid-size graph, over real TCP
# ---------------------------------------------------------------------------

#: (nodes, edges, shape seed) of the mid-size graph shared by
#: serve_warm and query_cold.  Its canonicalisation costs ~15 ms — the
#: size was chosen to show the memo-key cost, not to hide it.
GRAPH_SHAPE = (64, 128, 11)

#: Bank-style queries on the ``graph`` database (binary ``R`` only).
GRAPH_BANK = (
    ("graph", "{ [x, y] | R([x, y]) }"),
    ("graph", "{ [x, z] | some y / U : R([x, y]) and R([y, z]) }"),
    ("graph", "R |> project(1)"),
    ("graph", "R |> select(1 = 'a0') |> project(2)"),
    ("graph", "rules { T(x, y) :- R(x, y). T(x, z) :- T(x, y), R(y, z). } answer T"),
    ("graph", "rules { Q(x, y) :- R(x, y), R(y, x). } answer Q"),
)

#: One request in every ``GRAPH_EVERY`` is replaced by a ``GRAPH_BANK``
#: query, at a seeded position in each block.  The graph queries cost
#: ten times the bank's, so a share left to chance moved throughput by
#: ±10% from seed to seed.  At one in four the median request sat on
#: the edge between bank queries that overlap a graph query on the
#: other connection and those that do not, and jumped between 2 and
#: 4 ms from run to run; at one in three it sits among the overlapped
#: ones and follows only the machine's speed.
GRAPH_EVERY = 3


def graph_database(seed: int, salt: str) -> Database:
    nodes, edges, shape = GRAPH_SHAPE
    return relabel(random_graph(nodes, edges, seed=shape), seed, salt)


def serve_databases_for(seed: int) -> dict:
    """``workloads.serve_databases()`` plus the seeded mid-size graph."""
    databases = serve_databases()
    databases["graph"] = graph_database(seed, "serve-graph")
    return databases


def serve_stream(seed: int, count: int) -> list:
    """``request_stream`` over ``SERVE_QUERY_BANK`` with one request in
    each block of ``GRAPH_EVERY`` replaced by a ``GRAPH_BANK`` query
    (every graph query once per round, in a seeded order)."""
    rng = rng_for(seed, "serve-mix")
    graph = _cycle(rng, GRAPH_BANK)
    stream = request_stream(count, seed=seed, bank=SERVE_QUERY_BANK)
    for block in range(0, count, GRAPH_EVERY):
        position = block + rng.randrange(GRAPH_EVERY)
        if position < count:
            db, text = next(graph)
            stream[position] = Request(db=db, text=text, priority=stream[position].priority)
    return stream


# ---------------------------------------------------------------------------
# query_cold: every request a never-seen text and constant
# ---------------------------------------------------------------------------

#: (left, right, overlap, shape seed) of the skewed join database: a
#: wide ``R`` and a narrow ``S`` sharing few join keys.
PAIR_SHAPE = (200, 40, 6, 5)

#: Request templates.  ``{tag}`` is a constant used by no earlier
#: request, so both the text-keyed plan cache and the memo (whose key
#: holds the query's constants) miss every time.  ``chain_filter`` and
#: ``skewed`` list their selective literal last: the textual order is
#: pessimal and cost-based ordering must find the good one
#: (the ``join_order_skewed`` case).
COLD_TEMPLATES = {
    "tc": (
        "graph",
        "rules { T(x, y) :- R(x, y). T(x, z) :- T(x, y), R(y, z). "
        "Q(x, y, '{tag}') :- T(x, y). } answer Q",
    ),
    "two_hop": (
        "graph",
        "{ [x, z, '{tag}'] | some y / U : R([x, y]) and R([y, z]) }",
    ),
    "select": ("graph", "R |> select(2 = '{tag}') |> project(1)"),
    "chain_filter": (
        "graph",
        "rules { Q(x, z, '{tag}') :- R(x, y), R(y, z), R(z, '{node}'). } answer Q",
    ),
    "skewed": (
        "pair",
        "rules { Q(x, w, '{tag}') :- R(x, y), R(w, y), S(y, '{right}'). } answer Q",
    ),
    "join": ("pair", "rules { Q(x, z, '{tag}') :- R(x, y), S(y, z). } answer Q"),
    "join_comp": (
        "pair",
        "{ [x, z, '{tag}'] | some y / U : R([x, y]) and S([y, z]) }",
    ),
}

#: One shuffled deck per block of requests: the template mix is exact
#: in every block, so percentiles do not drift with the seed.  The
#: counts place the median inside the middle cluster (the joins, ~50 ms)
#: and the p90 inside the slowest (``tc``), away from the edges between
#: clusters, where a percentile jumps from one cluster to the next.
COLD_DECK = (
    "select", "chain_filter", "two_hop",
    "skewed", "skewed", "join", "join", "join_comp", "join_comp",
    "tc", "tc",
)


class ColdRequest(NamedTuple):
    template: str
    db: str
    text: str


def cold_databases(seed: int) -> dict:
    left, right, overlap, shape = PAIR_SHAPE
    return {
        "graph": graph_database(seed, "cold-graph"),
        "pair": relabel(join_pair(left, right, overlap, seed=shape), seed, "cold-pair"),
    }


def _cycle(rng: random.Random, values) -> Iterator:
    """Every value once per round, in a fresh seeded order each round."""
    values = sorted(values)
    while True:
        order = list(values)
        rng.shuffle(order)
        yield from order


def cold_stream(seed: int, databases: dict, prefix: str = "q") -> Iterator[ColdRequest]:
    """An endless stream of cold requests over *databases*; *prefix*
    starts every tag, so streams with different prefixes share none."""
    rng = rng_for(seed, "cold-stream")
    nodes = _cycle(rng, [row.items[1].label for row in databases["graph"]["R"].items])
    rights = _cycle(rng, [row.items[1].label for row in databases["pair"]["S"].items])
    counter = itertools.count()
    while True:
        deck = list(COLD_DECK)
        rng.shuffle(deck)
        for template in deck:
            db, pattern = COLD_TEMPLATES[template]
            text = (
                pattern.replace("{tag}", f"{prefix}{seed}n{next(counter)}")
                .replace("{node}", str(next(nodes)))
                .replace("{right}", str(next(rights)))
            )
            yield ColdRequest(template, db, text)


# ---------------------------------------------------------------------------
# theorem_col: Theorem 5.1's compiled COL programs
# ---------------------------------------------------------------------------

#: (machine, route, shape) — the two-row instances of
#: ``tests/integration/test_theorems.py::_databases_for`` (whose answers
#: are non-empty), with atoms 1 < 2 < 3 standing for three seeded labels
#: in the same order.  The one-row instances add no code path, and with
#: them a run took half a minute, long enough for the host's speed to
#: drift within one run set.
THEOREM_CASES = (
    ("select_eq", "col_stratified", ((1, 1), (2, 3))),
    ("parity", "col_inflationary", (1, 2)),
)


def theorem_instances(seed: int) -> list:
    """``[(machine, route, rows)]`` in a seeded order, each instance an
    order-preserving relabelling of its shape."""
    rng = rng_for(seed, "theorem")
    names = dict(zip((1, 2, 3), sorted(rng.sample(range(1, 1000), 3))))
    cases = []
    for machine, route, shape in THEOREM_CASES:
        rows = {
            tuple(names[x] for x in row) if isinstance(row, tuple) else names[row]
            for row in shape
        }
        cases.append((machine, route, rows))
    rng.shuffle(cases)
    return cases


# ---------------------------------------------------------------------------
# store_commit: durable writes beside reads
# ---------------------------------------------------------------------------

STORE_SCHEMA = {"V": "[U, U]", "C": "[U, U]"}

#: (nodes, edges, shape seed) of the viewed predicate's initial graph.
STORE_CORE = (12, 16, 3)

#: Size of the churned predicate's sliding window, and its groups.
WINDOW = 16
GROUPS = 4

#: The view: transitive closure of the viewed predicate ``V``.
VIEW_TEXT = "rules { T(x, y) :- V(x, y). T(x, z) :- T(x, y), V(y, z). } answer T"

#: Point select on the churned predicate ``C``.
POINT_TEXT = "rules { Q(x) :- C(x, '{group}'). } answer Q"

#: Commit kinds in a fixed cycle: one grows ``V``, two churn ``C``.
COMMIT_CYCLE = ("grow", "churn", "churn")

#: The two reads after each commit kind.  The view is read after the
#: commits that grow it; point selects make up the rest.  With as many
#: view reads as selects, the median read sat on the edge between the
#: fast selects and the slower view reads and moved by half from run to
#: run; with one view read in six the medians sit inside the selects.
READS = {"grow": ("view", "point"), "churn": ("point", "point")}


def store_database(seed: int) -> Database:
    nodes, edges, shape = STORE_CORE
    core = relabel(random_graph(nodes, edges, seed=shape), seed, "store-core")
    schema = Schema({name: parse_type(rtype) for name, rtype in STORE_SCHEMA.items()})
    return Database.from_plain(
        schema,
        V=sorted(labels(core["R"])),
        C=[churn_fact(index) for index in range(WINDOW)],
    )


def churn_fact(index: int) -> tuple:
    return (f"c{index}", f"g{index % GROUPS}")


class StoreRead(NamedTuple):
    kind: str  # "view" | "point"
    text: str
    group: str | None


class StoreOp(NamedTuple):
    kind: str  # "grow" | "churn"
    asserts: dict
    retracts: dict
    reads: tuple  # of StoreRead


def store_ops(seed: int, database: Database) -> Iterator[StoreOp]:
    """An endless stream of commits, each with the reads that follow it.

    ``grow`` asserts an edge from a fresh node into the initial core, so
    the view grows linearly; ``churn`` asserts the next window fact and
    retracts the oldest, so ``C`` keeps its size.
    """
    rng = rng_for(seed, "store-ops")
    core = sorted({a for edge in labels(database["V"]) for a in edge})
    commits = itertools.cycle(COMMIT_CYCLE)
    grown = itertools.count()
    churned = itertools.count(WINDOW)
    while True:
        kind = next(commits)
        if kind == "grow":
            edge = [f"n{next(grown)}", rng.choice(core)]
            asserts, retracts = {"V": [edge]}, {}
        else:
            index = next(churned)
            asserts = {"C": [list(churn_fact(index))]}
            retracts = {"C": [list(churn_fact(index - WINDOW))]}
        reads = []
        for read in READS[kind]:
            if read == "view":
                reads.append(StoreRead(read, VIEW_TEXT, None))
            else:
                group = f"g{rng.randrange(GROUPS)}"
                reads.append(StoreRead(read, POINT_TEXT.replace("{group}", group), group))
        yield StoreOp(kind, asserts, retracts, tuple(reads))
