"""Planner behaviour: cost hints, algorithm choice, plan rendering."""

import pytest

from repro.core.knn import SKkNNQuery
from repro.core.queries import DiversifiedSKQuery
from repro.engine import QueryPlan, plan_diversified, plan_knn, plan_sk
from repro.errors import QueryError
from repro.network.objects import ObjectStore
from repro.workloads.queries import (
    WorkloadConfig,
    generate_diversified_queries,
    generate_sk_queries,
)


@pytest.fixture(scope="module")
def sif(tiny_db):
    return tiny_db.build_index("sif", file_prefix="planner-sif")


@pytest.fixture(scope="module")
def sk_query(tiny_db):
    return generate_sk_queries(
        tiny_db, WorkloadConfig(num_queries=1, num_keywords=2, seed=7)
    )[0]


@pytest.fixture(scope="module")
def div_query(tiny_db):
    return generate_diversified_queries(
        tiny_db, WorkloadConfig(num_queries=1, num_keywords=2, k=4, seed=7)
    )[0]


class TestCostHints:
    def test_hints_derive_from_catalogue(self, tiny_db, sif, sk_query):
        plan = plan_sk(tiny_db, sif, sk_query)
        h = plan.hints
        assert h.num_objects == len(tiny_db.store)
        assert h.num_edges == tiny_db.network.num_edges
        assert {t for t, _ in h.term_frequencies} == set(sk_query.terms)
        freqs = [df for _, df in h.term_frequencies]
        assert freqs == sorted(freqs)  # rarest first
        assert h.rarest_term == h.term_frequencies[0][0]
        # Independence estimate never exceeds the rarest term's df.
        assert h.estimated_matches <= min(freqs) + 1e-9
        assert 0.0 <= h.selectivity <= 1.0

    def test_planning_is_pure_metadata(self, tiny_db, sif, sk_query):
        before = tiny_db.metrics.counters().get("query.count", 0)
        plan_sk(tiny_db, sif, sk_query)
        assert tiny_db.metrics.counters().get("query.count", 0) == before


class TestPlanShapes:
    def test_sk_plan(self, tiny_db, sif, sk_query):
        plan = plan_sk(tiny_db, sif, sk_query)
        assert plan.kind == "sk"
        assert plan.algorithm == "ine"
        assert plan.label == f"{sif.name}/INE"
        text = plan.describe()
        assert "QUERY PLAN" in text and plan.label in text
        assert "cost hints" in text

    def test_knn_plan(self, tiny_db, sif, div_query):
        query = SKkNNQuery.create(div_query.position, div_query.terms, k=3)
        plan = plan_knn(tiny_db, sif, query)
        assert plan.kind == "knn"
        assert plan.label.endswith("/INE-KNN")
        assert "k=3" in plan.describe()

    def test_database_plan_dispatch(self, tiny_db, sif, sk_query, div_query):
        assert tiny_db.plan(sif, sk_query).kind == "sk"
        assert tiny_db.plan(sif, div_query).kind == "diversified"
        knn = SKkNNQuery.create(div_query.position, div_query.terms, k=2)
        assert tiny_db.plan(sif, knn).kind == "knn"

    def test_invalid_algorithm_rejected(self, sif, sk_query):
        with pytest.raises(QueryError):
            QueryPlan(kind="sk", query=sk_query, index=sif, algorithm="com")
        with pytest.raises(QueryError):
            QueryPlan(kind="nope", query=sk_query, index=sif, algorithm="ine")


class TestDiversifiedChoice:
    def test_forced_method_wins(self, tiny_db, sif, div_query):
        for method in ("seq", "com", "COM"):
            plan = plan_diversified(tiny_db, sif, div_query, method=method)
            assert plan.algorithm == method.lower()
            assert "forced" in plan.rationale

    def test_bad_method_rejected(self, tiny_db, sif, div_query):
        with pytest.raises(QueryError):
            plan_diversified(tiny_db, sif, div_query, method="greedy")

    def test_auto_picks_seq_on_tiny_candidate_stream(self, tiny_db, sif, div_query):
        rare = DiversifiedSKQuery.create(
            div_query.position, ("zz-not-in-vocab", "zz-neither"),
            delta_max=div_query.delta_max, k=4,
        )
        plan = plan_diversified(tiny_db, sif, rare)
        assert plan.algorithm == "seq"
        assert plan.hints.estimated_matches == 0.0

    def test_auto_picks_com_on_large_candidate_stream(self, tiny_db, sif, div_query):
        term, df = max(
            tiny_db.keyword_frequencies().items(), key=lambda kv: kv[1]
        )
        assert df > 4  # the fixture vocabulary is Zipfian; heads are fat
        common = DiversifiedSKQuery.create(
            div_query.position, (term,), delta_max=div_query.delta_max, k=2,
        )
        plan = plan_diversified(tiny_db, sif, common)
        assert plan.algorithm == "com"
        assert plan.hints.estimated_matches == pytest.approx(df)

    def test_plan_carries_execution_knobs(self, tiny_db, sif, div_query):
        plan = plan_diversified(
            tiny_db, sif, div_query, method="com", enable_pruning=False,
        )
        assert plan.enable_pruning is False
        assert plan.landmarks is None


class _NoScanDict(dict):
    """An object map whose iteration fails the test."""

    def _scan(self, *args):
        raise AssertionError("planner walked the object map")

    __iter__ = values = items = keys = _scan


class TestPlanningReadsMaintainedCounts:
    def test_planning_never_walks_the_store(
        self, tiny_db, sif, sk_query, div_query, monkeypatch
    ):
        # Cost hints read the counts ObjectStore keeps on add/remove;
        # a rescan of the objects per plan must not come back.
        def no_scan(self):
            raise AssertionError("planner iterated the object store")

        store = tiny_db.store
        monkeypatch.setattr(ObjectStore, "__iter__", no_scan)
        monkeypatch.setattr(store, "_objects", _NoScanDict(store._objects))
        knn = SKkNNQuery.create(div_query.position, div_query.terms, k=3)
        assert plan_sk(tiny_db, sif, sk_query).hints.num_objects == len(store)
        assert plan_knn(tiny_db, sif, knn).hints is not None
        assert plan_diversified(tiny_db, sif, div_query).hints is not None
