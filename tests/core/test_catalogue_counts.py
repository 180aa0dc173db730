"""Property test: the object store's maintained catalogue counts.

The store updates per-term document frequencies and the keyword
occurrence total on every add and remove, so planning never rescans
the objects.  After any interleaving of inserts, deletes and edge
reweights on a live database, every statistic — and the planner's cost
hints — must equal a from-scratch recount over the store.
"""

from collections import Counter

from hypothesis import given, settings
from hypothesis import strategies as st

from repro import Database, DiversifiedSKQuery, NetworkPosition, SKQuery
from repro.engine import plan_diversified, plan_sk
from tests.conftest import make_grid4

VOCAB = ("pizza", "bar", "sushi", "cafe", "park")

_insert = st.tuples(
    st.just("insert"),
    st.integers(0, 11),
    st.floats(0.0, 1.0),
    st.sets(st.sampled_from(VOCAB), min_size=1, max_size=4),
)
_delete = st.tuples(st.just("delete"), st.integers(0, 10**6))
_reweight = st.tuples(
    st.just("reweight"), st.integers(0, 11), st.floats(0.25, 4.0)
)
_ops = st.lists(st.one_of(_insert, _delete, _reweight), max_size=30)
_terms = st.sets(
    st.sampled_from(VOCAB + ("absent",)), min_size=1, max_size=3
)


def _recount(store):
    freq = Counter(term for obj in store for term in obj.keywords)
    total = sum(len(obj.keywords) for obj in store)
    return dict(freq), total


def _expected_hints(db, freq, terms):
    n = sum(1 for _ in db.store)
    tf = tuple(sorted(
        ((term, freq.get(term, 0)) for term in terms),
        key=lambda pair: (pair[1], pair[0]),
    ))
    estimated = float(n)
    for _term, df in tf:
        estimated *= (df / n) if n else 0.0
    return {
        "num_objects": n,
        "num_edges": db.network.num_edges,
        "vocabulary_size": len(freq),
        "term_frequencies": tf,
        "estimated_matches": estimated,
        "selectivity": (estimated / n) if n else 0.0,
    }


def _apply(db, op):
    kind = op[0]
    if kind == "insert":
        _, edge_id, fraction, terms = op
        weight = db.network.edge(edge_id).weight
        db.insert_object(NetworkPosition(edge_id, weight * fraction), terms)
    elif kind == "delete":
        ids = sorted(obj.object_id for obj in db.store)
        if ids:
            db.delete_object(ids[op[1] % len(ids)])
    else:
        _, edge_id, factor = op
        db.update_edge_weight(edge_id, db.network.edge(edge_id).weight * factor)


@settings(max_examples=60, deadline=None)
@given(ops=_ops, terms=_terms)
def test_counts_match_a_recount(ops, terms):
    db = Database(make_grid4(), buffer_pages=64)
    db.add_object(NetworkPosition(0, 20.0), {"pizza"})
    db.add_object(NetworkPosition(3, 50.0), {"pizza", "bar"})
    db.freeze()
    index = db.build_index("if")
    for op in ops:
        _apply(db, op)

    store = db.store
    freq, total = _recount(store)
    n = sum(1 for _ in store)
    assert db.keyword_frequencies() == freq
    assert store.keyword_frequencies() == freq
    assert store.vocabulary() == frozenset(freq)
    assert store.vocabulary_size() == len(freq)
    for term in VOCAB:
        assert store.document_frequency(term) == freq.get(term, 0)
    # Integer sums, so the average is bit-identical to a recount.
    expected_avg = total / n if n else 0.0
    assert store.average_keywords_per_object() == expected_avg
    assert db.dataset_statistics() == {
        "num_objects": n,
        "vocabulary_size": len(freq),
        "avg_keywords": round(expected_avg, 2),
        "num_nodes": db.network.num_nodes,
        "num_edges": db.network.num_edges,
    }

    position = NetworkPosition(0, 10.0)
    want = _expected_hints(db, freq, terms)
    sk = plan_sk(db, index, SKQuery.create(position, terms, 300.0)).hints
    div = plan_diversified(
        db, index, DiversifiedSKQuery.create(position, terms, 300.0, k=2)
    ).hints
    for hints in (sk, div):
        got = {name: getattr(hints, name) for name in want}
        assert got == want
        assert hints.data_version == db.data_version


def test_returned_frequencies_are_a_copy():
    db = Database(make_grid4(), buffer_pages=64)
    db.add_object(NetworkPosition(0, 20.0), {"pizza"})
    db.freeze()
    db.keyword_frequencies()["pizza"] = 99
    db.store.keyword_frequencies()["bar"] = 1
    assert db.keyword_frequencies() == {"pizza": 1}
    assert db.store.document_frequency("bar") == 0
