"""The benchmark's own answer oracle and answer digest.

Answers are checked against a plain Dijkstra over ``db.network`` (the
in-memory road graph), written here from the definitions and sharing
no code with the program:

* ``δ(q, o)`` is the along-edge distance when ``q`` and ``o`` share an
  edge (the paper's same-edge rule; such objects are never reached
  around the network), and otherwise
  ``min(δ(q, n1) + off(o), δ(q, n2) + w(e) - off(o))``.
* A boolean SK range query returns exactly the objects holding every
  query term within ``δmax``.
* A diversified answer ``S`` must be a subset of that set ``R`` with
  equal distances, hold ``min(k, |R|)`` objects, and carry the max-sum
  objective of Qin, Yu & Chang ("Diversifying Top-K Results") with the
  relevance/diversity terms of the paper, recomputed here from oracle
  distances: ``rel(u) = clamp(1 - δ(u, q)/δmax)``,
  ``div(u, v) = clamp(δ(u, v) / 2δmax)``,
  ``θ = λ(rel(u) + rel(v))/2 + (1 - λ) div(u, v)`` and
  ``f(S) = 2/(|S|(|S|-1)) Σ θ`` (``λ·rel`` for a singleton).
"""

from __future__ import annotations

import hashlib
import heapq
import math
from typing import Dict, Iterable, List, Tuple

_INF = float("inf")
#: Relative tolerance for distances and objectives: hub-label joins and
#: Dijkstra path sums may round the same shortest path differently.
_REL_TOL = 1e-9


def _close(a: float, b: float) -> bool:
    return math.isclose(a, b, rel_tol=_REL_TOL, abs_tol=_REL_TOL)


def node_distances(network, edge_id: int, offset: float, cutoff: float) -> Dict[int, float]:
    """Dijkstra from a point on an edge; nodes within ``cutoff`` only."""
    edge = network.edge(edge_id)
    best: Dict[int, float] = {}
    for node, d in ((edge.n1, offset), (edge.n2, edge.weight - offset)):
        if d <= cutoff and d < best.get(node, _INF):
            best[node] = d
    heap = [(d, n) for n, d in best.items()]
    heapq.heapify(heap)
    done: Dict[int, float] = {}
    while heap:
        d, node = heapq.heappop(heap)
        if node in done:
            continue
        done[node] = d
        for _edge_id, other, weight in network.neighbors(node):
            nd = d + weight
            if other not in done and nd <= cutoff and nd < best.get(other, _INF):
                best[other] = nd
                heapq.heappush(heap, (nd, other))
    return done


def point_distance(network, nodes: Dict[int, float], src, dst) -> float:
    """``δ(src, dst)`` for positions, given ``nodes`` from ``src``."""
    if src.edge_id == dst.edge_id:
        return abs(src.offset - dst.offset)
    edge = network.edge(dst.edge_id)
    return min(
        nodes.get(edge.n1, _INF) + dst.offset,
        nodes.get(edge.n2, _INF) + edge.weight - dst.offset,
    )


def range_answer(db, position, terms, delta_max: float) -> Dict[int, float]:
    """``object_id -> δ(q, o)`` for every object satisfying the query."""
    network = db.network
    nodes = node_distances(network, position.edge_id, position.offset, delta_max)
    out: Dict[int, float] = {}
    for obj in db.store:
        if not terms <= obj.keywords:
            continue
        d = point_distance(network, nodes, position, obj.position)
        if d <= delta_max:
            out[obj.object_id] = d
    return out


def check_sk(db, query, result) -> List[str]:
    """Problems with an SK range answer (empty list: correct)."""
    expected = range_answer(db, query.position, query.terms, query.delta_max)
    got = {item.object.object_id: item.distance for item in result}
    problems = []
    if len(got) != len(result.items):
        problems.append("duplicate objects in the answer")
    if set(got) != set(expected):
        missing = sorted(set(expected) - set(got))[:5]
        extra = sorted(set(got) - set(expected))[:5]
        problems.append(f"answer set differs: missing {missing} extra {extra}")
    for oid, d in got.items():
        if oid in expected and not _close(d, expected[oid]):
            problems.append(f"object {oid}: distance {d!r} != {expected[oid]!r}")
            break
    return problems


def objective(distances: List[float], pair: Dict[Tuple[int, int], float],
              delta_max: float, lambda_: float) -> float:
    """``f(S)`` from per-object and pairwise distances."""
    def rel(d):
        return max(0.0, min(1.0, 1.0 - d / delta_max))

    n = len(distances)
    if n == 0:
        return 0.0
    if n == 1:
        return lambda_ * rel(distances[0])
    total = 0.0
    for i in range(n):
        for j in range(i + 1, n):
            div = max(0.0, min(1.0, pair[(i, j)] / (2.0 * delta_max)))
            total += lambda_ * (rel(distances[i]) + rel(distances[j])) / 2.0 + (
                1.0 - lambda_
            ) * div
    return 2.0 * total / (n * (n - 1))


def check_diversified(db, query, result) -> List[str]:
    """Problems with a diversified answer (empty list: correct)."""
    expected = range_answer(db, query.position, query.terms, query.delta_max)
    items = list(result.items)
    problems = []
    ids = [it.object.object_id for it in items]
    if len(set(ids)) != len(ids):
        problems.append("duplicate objects in the answer")
    if len(items) != min(query.k, len(expected)):
        problems.append(
            f"|S| = {len(items)}, expected min(k={query.k}, |R|={len(expected)})"
        )
    for it in items:
        oid = it.object.object_id
        if oid not in expected:
            problems.append(f"object {oid} does not satisfy the query")
        elif not _close(it.distance, expected[oid]):
            problems.append(f"object {oid}: distance {it.distance!r} != {expected[oid]!r}")
    if problems:
        return problems
    network = db.network
    cutoff = 2.0 * query.delta_max
    pair: Dict[Tuple[int, int], float] = {}
    for i, a in enumerate(items):
        pos_a = a.object.position
        nodes = node_distances(network, pos_a.edge_id, pos_a.offset, cutoff)
        for j in range(i + 1, len(items)):
            pair[(i, j)] = point_distance(network, nodes, pos_a, items[j].object.position)
    f = objective(
        [expected[i] for i in ids], pair, query.delta_max, query.lambda_
    )
    if not _close(f, result.objective_value):
        problems.append(f"objective {result.objective_value!r} != oracle {f!r}")
    return problems


def answer_line(op_index: int, kind: str, result=None, note: str = "") -> str:
    """One canonical digest line for an operation's outcome."""
    if result is None:
        return f"{op_index}:{kind}:{note}"
    if kind == "sk":
        pairs = sorted((it.object.object_id, it.distance) for it in result)
    else:
        pairs = [(it.object.object_id, it.distance) for it in result]
    body = ",".join(f"{oid}@{d:.9g}" for oid, d in pairs)
    value = getattr(result, "objective_value", None)
    if value is not None:
        body += f"|f={value:.9g}"
    return f"{op_index}:{kind}:{body}"


def digest(lines: Iterable[str]) -> str:
    h = hashlib.sha256()
    for line in lines:
        h.update(line.encode())
        h.update(b"\n")
    return h.hexdigest()[:16]


def check(db, kind: str, query, result) -> List[str]:
    return check_sk(db, query, result) if kind == "sk" else check_diversified(
        db, query, result
    )

