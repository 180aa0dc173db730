"""Seeded input streams for the benchmark workloads.

Everything a workload feeds the program — query positions, keywords,
the Zipf repetition pool and the update operations — is drawn here from
the benchmark's ``--seed`` with :class:`random.Random`.  Nothing comes
from ``repro.workloads``: an edit to the program's own generators must
not change what the benchmark measures.

The streams only read the loaded dataset (object positions and keyword
sets, edge ids and their original weights), snapshotted once by
:class:`DatasetView` before any update runs.  Positions are kept as
``(edge_id, fraction along the edge)`` so that they stay valid after an
edge reweight rescales offsets; they are turned into the program's
``NetworkPosition`` only when an operation is prepared.
"""

from __future__ import annotations

import bisect
import random
from dataclasses import dataclass
from typing import Dict, FrozenSet, Iterator, List, Optional, Tuple

import numpy as np

#: Salts separating the independent random streams of one seed.
_QUERY_SALT = 0x51
WARMUP_SALT = 0x77
_UPDATE_SALT = 0xA5
_POOL_SALT = 0x3C
#: Keyword-frequency strata queries cycle through (see DatasetView):
#: _GROUPS groups of _GROUP_SIZE neighbouring strata.
_GROUPS = 16
_GROUP_SIZE = 4
STRATA = _GROUPS * _GROUP_SIZE


@dataclass(frozen=True)
class QueryInput:
    """One query, independent of the program's types."""

    kind: str  # "sk" | "div"
    edge_id: int
    fraction: float
    terms: FrozenSet[str]
    delta_max: float
    k: int = 0
    lambda_: float = 0.8
    method: str = ""  # "com" | "seq" for diversified queries

    @property
    def key(self) -> Tuple:
        return (
            self.kind, self.edge_id, self.fraction, tuple(sorted(self.terms)),
            self.delta_max, self.k, self.lambda_, self.method,
        )


@dataclass(frozen=True)
class UpdateInput:
    """One update: ``insert`` / ``delete`` / ``reweight``."""

    kind: str
    edge_id: int = -1
    fraction: float = 0.0
    terms: FrozenSet[str] = frozenset()
    object_id: int = -1
    weight: float = 0.0


@dataclass(frozen=True)
class Op:
    """One step of a workload's closed loop."""

    index: int
    query: Optional[QueryInput] = None
    update: Optional[UpdateInput] = None
    #: Set on the first query after an update batch holding a reweight:
    #: that query pays the lazy oracle / CSR rebuild.
    after_reweight: bool = False
    #: The query's key was drawn earlier in this stream.
    repeated: bool = False
    #: A run may stop after this operation: it closes a query + update
    #: cycle (always true on query-only streams).
    cycle_end: bool = True


#: Grid cell side and neighbourhood radius (in cells) of the object
#: density used to stratify queries.
_DENSITY_CELL = 500.0
_DENSITY_RADIUS = 3


def _density(db, objects) -> List[int]:
    """Objects within ~_DENSITY_RADIUS cells of each object (grid count)."""
    cells = []
    counts: Dict[Tuple[int, int], int] = {}
    for o in objects:
        p = db.network.position_point(o.position)
        cell = (int(p.x // _DENSITY_CELL), int(p.y // _DENSITY_CELL))
        cells.append(cell)
        counts[cell] = counts.get(cell, 0) + 1
    r = _DENSITY_RADIUS
    around: Dict[Tuple[int, int], int] = {}
    for cx, cy in set(cells):
        around[(cx, cy)] = sum(
            counts.get((cx + dx, cy + dy), 0)
            for dx in range(-r, r + 1) for dy in range(-r, r + 1)
            if dx * dx + dy * dy <= r * r
        )
    return [around[c] for c in cells]


class DatasetView:
    """The parts of a freshly built dataset the generators read."""

    def __init__(self, db) -> None:
        objects = sorted(db.store, key=lambda o: o.object_id)
        self.object_ids: List[int] = [o.object_id for o in objects]
        self.object_terms: List[Tuple[str, ...]] = [
            tuple(sorted(o.keywords)) for o in objects
        ]
        self.object_places: List[Tuple[int, float]] = []
        for o in objects:
            weight = db.network.edge(o.position.edge_id).weight
            self.object_places.append(
                (o.position.edge_id, o.position.offset / weight)
            )
        edges = sorted(db.network.edges(), key=lambda e: e.edge_id)
        self.edge_ids: List[int] = [e.edge_id for e in edges]
        self.edge_weights: Dict[int, float] = {
            e.edge_id: e.weight for e in edges
        }
        frequency: Dict[str, int] = {}
        for terms in self.object_terms:
            for term in terms:
                frequency[term] = frequency.get(term, 0) + 1
        self.vocabulary: List[str] = sorted(frequency)
        self._cumulative: List[int] = []
        total = 0
        for term in self.vocabulary:
            total += frequency[term]
            self._cumulative.append(total)
        # Keyword occurrences (object, term) ordered by the candidates a
        # query there could meet — the term's frequency times the object
        # density around the object — and cut into STRATA slices of equal
        # size.  A query's first term and place come from one slice, so
        # every seed asks cheap and costly queries in the same
        # proportions (a query's cost follows its candidate count).
        density = np.asarray(_density(db, objects), dtype=np.int64)
        rank = {term: r for r, term in enumerate(self.vocabulary)}
        obj = np.fromiter(
            (i for i, terms in enumerate(self.object_terms) for _ in terms), dtype=np.int32
        )
        term = np.fromiter(
            (rank[t] for terms in self.object_terms for t in terms), dtype=np.int32
        )
        counts = np.array([frequency[t] for t in self.vocabulary], dtype=np.int64)
        order = np.lexsort((obj, term, counts[term] * density[obj]))
        self._occurrence_object = obj[order]
        self._occurrence_term = term[order]
        size = len(order) / STRATA
        self._stratum_bounds = [int(s * size) for s in range(STRATA + 1)]

    def occurrence(self, rng: random.Random, stratum: int) -> Tuple[int, str]:
        """A keyword occurrence ``(object index, term)`` of ``stratum``."""
        j = rng.randrange(self._stratum_bounds[stratum], self._stratum_bounds[stratum + 1])
        return int(self._occurrence_object[j]), self.vocabulary[self._occurrence_term[j]]

    def frequent_term(self, rng: random.Random) -> str:
        """A term drawn with probability proportional to its frequency."""
        pick = rng.random() * self._cumulative[-1]
        return self.vocabulary[bisect.bisect_right(self._cumulative, pick)]


def _draw_query(
    view: DatasetView,
    rng: random.Random,
    stratum: int,
    kind: str,
    num_terms: int,
    delta_max: float,
    k: int = 0,
    method: str = "",
) -> QueryInput:
    """A query located at an object, asking one of its keywords from
    the given frequency stratum plus ``num_terms - 1`` of its others, so
    at least that object satisfies the keyword constraint."""
    while True:
        i, first = view.occurrence(rng, stratum)
        terms = view.object_terms[i]
        if len(terms) >= num_terms:
            break
    others = [t for t in terms if t != first]
    edge_id, fraction = view.object_places[i]
    return QueryInput(
        kind=kind, edge_id=edge_id, fraction=fraction,
        terms=frozenset([first, *rng.sample(others, num_terms - 1)]),
        delta_max=delta_max, k=k, method=method,
    )


def distinct_queries(
    view: DatasetView, seed: int, shape, salt: int = _QUERY_SALT
) -> Iterator[QueryInput]:
    """An endless stream of pairwise-distinct queries.

    ``shape(i)`` returns the keyword arguments of query ``i`` for
    :func:`_draw_query`.  Each query shape (kind, keyword count, radius,
    k, method) walks the frequency strata one per query, in seeded
    rounds: a round visits every group of strata once, in a random
    order, and takes the next stratum of the group's own permutation.
    So any _GROUPS consecutive queries of a shape cover every group and
    any STRATA every stratum once: a shape's few costly queries, whose
    page reads dominate a run's mean, meet cheap and costly places in
    the same proportions on every seed, in a short pool as in a long
    run.  A query already given is re-drawn from the same stratum.
    ``salt`` selects an independent stream of the same seed.
    """
    rng = random.Random(seed * 1000003 + salt)
    seen = set()
    cycles: Dict[Tuple, List[int]] = {}
    i = 0
    while True:
        params = shape(i)
        cycle = cycles.setdefault(tuple(sorted(params.items())), [])
        if not cycle:
            inner = [rng.sample(range(_GROUP_SIZE), _GROUP_SIZE) for _ in range(_GROUPS)]
            for r in range(_GROUP_SIZE):
                cycle.extend(
                    g * _GROUP_SIZE + inner[g][r] for g in rng.sample(range(_GROUPS), _GROUPS)
                )
            cycle.reverse()
        stratum = cycle.pop()
        while True:
            q = _draw_query(view, rng, stratum, **params)
            if q.key not in seen:
                break
        seen.add(q.key)
        i += 1
        yield q


def query_ops(queries: Iterator[QueryInput]) -> Iterator[Op]:
    for i, q in enumerate(queries):
        yield Op(index=i, query=q)


class ZipfPool:
    """A fixed pool of distinct queries drawn with Zipf repetition."""

    def __init__(self, queries: List[QueryInput], exponent: float, rng) -> None:
        self.queries = queries
        self._rng = rng
        self._cumulative: List[float] = []
        total = 0.0
        for rank in range(len(queries)):
            total += 1.0 / (rank + 1) ** exponent
            self._cumulative.append(total)

    def draw(self) -> QueryInput:
        pick = self._rng.random() * self._cumulative[-1]
        return self.queries[bisect.bisect_right(self._cumulative, pick)]


def update_stream(view: DatasetView, seed: int, batch: Tuple[int, int, int]):
    """Endless update batches with exactly ``batch`` = (inserts, deletes,
    reweights) per batch, in a seeded order.

    Deletes take initial objects in a seeded order, never twice.
    Inserted objects carry 4-12 frequency-weighted terms.  A reweight
    scales the edge's *original* weight by a factor in [0.6, 0.95] or
    [1.05, 1.6], so it always changes the current weight.
    """
    rng = random.Random(seed * 1000003 + _UPDATE_SALT)
    victims = list(view.object_ids)
    rng.shuffle(victims)
    next_victim = 0
    inserts, deletes, reweights = batch
    while True:
        kinds = ["insert"] * inserts + ["delete"] * deletes + ["reweight"] * reweights
        rng.shuffle(kinds)
        out = []
        for kind in kinds:
            if kind == "insert":
                terms = set()
                for _ in range(rng.randint(4, 12)):
                    terms.add(view.frequent_term(rng))
                out.append(UpdateInput(
                    kind="insert", edge_id=rng.choice(view.edge_ids),
                    fraction=rng.random(), terms=frozenset(terms),
                ))
            elif kind == "delete":
                out.append(UpdateInput(kind="delete", object_id=victims[next_victim]))
                next_victim += 1
            else:
                edge_id = rng.choice(view.edge_ids)
                factor = rng.uniform(0.6, 0.95)
                if rng.random() < 0.5:
                    factor = rng.uniform(1.05, 1.6)
                out.append(UpdateInput(
                    kind="reweight", edge_id=edge_id,
                    weight=view.edge_weights[edge_id] * factor,
                ))
        yield out


def mixed_ops(
    view: DatasetView,
    seed: int,
    sk_shape,
    div_shape,
    pool_size: int,
    exponent: float,
    queries_per_batch: int,
    sk_every: int,
    update_batch: Tuple[int, int, int],
) -> Iterator[Op]:
    """Query batches alternating with update batches.

    In a batch, every ``sk_every``-th query (never the first) is a fresh
    distinct SK range query — it has no cache to repeat for; the others
    are diversified queries drawn from a Zipf pool of ``pool_size``
    distinct queries.  The first query after an update batch is thus a
    diversified one, and it pays any lazy rebuild a reweight left.
    Marks that query, and every query whose key was drawn before.
    """
    sk_queries = distinct_queries(view, seed, sk_shape)
    div_queries = distinct_queries(view, seed, div_shape, salt=_POOL_SALT)
    pool = ZipfPool(
        [next(div_queries) for _ in range(pool_size)], exponent,
        random.Random(seed * 1000003 + _POOL_SALT),
    )
    updates = update_stream(view, seed, update_batch)
    seen = set()
    index = 0
    after_reweight = False
    while True:
        for j in range(queries_per_batch):
            q = next(sk_queries) if j % sk_every == sk_every - 1 else pool.draw()
            repeated = q.key in seen
            seen.add(q.key)
            yield Op(
                index=index, query=q, repeated=repeated,
                after_reweight=after_reweight and j == 0, cycle_end=False,
            )
            index += 1
        batch = next(updates)
        after_reweight = any(u.kind == "reweight" for u in batch)
        for j, u in enumerate(batch):
            yield Op(index=index, update=u, cycle_end=j == len(batch) - 1)
            index += 1
