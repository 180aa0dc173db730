"""The three benchmark workloads and the closed loop that runs them.

Every workload is a **closed loop with one client**: one process, serial
``plan_*`` + ``QueryEngine.execute`` (no ``workers``), the next
operation issued only after the previous one returned.  A latency is
CPU wall time as the caller sees it, from planning until ``execute``
returns (or, for an update, the ``Database`` update call), scaled to a
reference host speed by :mod:`calibrate`.  The simulated disk's
1 ms/page charge is reported beside it (``io_pages_per_query``) and
never added to it.

A run sets the workload up :data:`SETUP_REPS` times (dataset, index,
oracle, warm-up) and reports the median set-up time, scaled like the
latencies.  The
second-to-last set-up replays the first operations of the stream to
compute a reference answer digest; the last one is measured, and its
first operations must give the same digest.  Sampled answers are
compared with :mod:`oracle` outside the timed region.
"""

from __future__ import annotations

import gc
import math
import resource
import statistics
import time
from collections import defaultdict
from dataclasses import dataclass
from typing import Callable, Dict, Iterator, List, Optional

import calibrate
import inputs
import oracle
import spans

#: Set-ups per run; ``setup_s`` is their median.
SETUP_REPS = 3
#: Distinct queries run at the end of every set-up.
WARMUP_QUERIES = 16
#: Operations per traced / untraced block in a ``--trace 1`` run.
TRACE_BLOCK = 10
#: Largest |layer self times + unaccounted - traced latency| accepted,
#: as a share of the traced latency.
LAYER_SUM_TOLERANCE = 0.01
#: Simulated disk charge per physical page read (the paper's model).
MODELLED_MS_PER_PAGE = 1.0
#: Wide search radius of ``wide-seq-hub``: with one keyword it gives
#: candidate pools of ~70 objects on average and up to ~380.
WIDE_DELTA_MAX = 2700.0


@dataclass(frozen=True)
class Workload:
    name: str
    scale: float
    index: str
    backend: str
    #: Shared distance cache, result cache, flight recorder, slow log.
    sinks: bool
    ops: Callable[[inputs.DatasetView, int], Iterator[inputs.Op]]
    query_shape: Callable
    #: Every ``check_every``-th query is checked against the oracle.
    check_every: int
    #: Operations covered by the answer digest.
    digest_ops: int


def _read_default_shape(i):
    num_terms = 1 + (i // 2) % 4
    if i % 2 == 0:
        return dict(kind="sk", num_terms=num_terms, delta_max=500.0 * num_terms)
    return dict(kind="div", num_terms=num_terms, delta_max=500.0 * num_terms,
                k=10, method="com")


def _wide_shape(i):
    if i % 2 == 0:
        return dict(kind="sk", num_terms=1, delta_max=WIDE_DELTA_MAX)
    return dict(kind="div", num_terms=1, delta_max=WIDE_DELTA_MAX, k=20, method="seq")


def _live_sk_shape(i):
    num_terms = 1 + i % 3
    return dict(kind="sk", num_terms=num_terms, delta_max=500.0 * num_terms)


def _live_div_shape(i):
    num_terms = 1 + i % 3
    return dict(kind="div", num_terms=num_terms, delta_max=500.0 * num_terms,
                k=10, method="com")


#: ``live-updates-hub`` stream: batches of 120 queries (every 3rd a fresh
#: SK range query, the rest diversified queries drawn with Zipf
#: repetition from a pool of 100), then 4 inserts, 4 deletes and 2
#: reweights in a seeded order.  Every update batch holds a reweight,
#: so exactly 1 query in 120 (0.8 %; 1 in 80 diversified) pays the lazy
#: rebuilds — well below 5 %, so ``div_p95_ms`` stays in the
#: no-rebuild regime.  The pool's skew gives a result-cache hit rate
#: well clear of 0.5, so ``div_p50_ms`` stays a cache hit.
LIVE_QUERIES_PER_BATCH = 120
LIVE_SK_EVERY = 3
LIVE_UPDATE_BATCH = (4, 4, 2)
LIVE_POOL_SIZE = 100
LIVE_ZIPF_EXPONENT = 1.0


def _live_shape(i):
    """The live query mix without the pool (set-up warm-up only)."""
    if i % LIVE_SK_EVERY == LIVE_SK_EVERY - 1:
        return _live_sk_shape(i)
    return _live_div_shape(i)


def _live_ops(view, seed):
    return inputs.mixed_ops(
        view, seed, _live_sk_shape, _live_div_shape, LIVE_POOL_SIZE,
        LIVE_ZIPF_EXPONENT, LIVE_QUERIES_PER_BATCH, LIVE_SK_EVERY,
        LIVE_UPDATE_BATCH,
    )


WORKLOADS: Dict[str, Workload] = {
    "read-default": Workload(
        name="read-default", scale=1.0, index="sif", backend="dijkstra",
        sinks=False,
        ops=lambda view, seed: inputs.query_ops(
            inputs.distinct_queries(view, seed, _read_default_shape)),
        query_shape=_read_default_shape,
        check_every=20, digest_ops=40,
    ),
    "wide-seq-hub": Workload(
        name="wide-seq-hub", scale=1.0, index="sif-p", backend="hub",
        sinks=False,
        ops=lambda view, seed: inputs.query_ops(
            inputs.distinct_queries(view, seed, _wide_shape)),
        query_shape=_wide_shape,
        check_every=40, digest_ops=30,
    ),
    "live-updates-hub": Workload(
        name="live-updates-hub", scale=0.5, index="sif-p", backend="hub",
        sinks=True, ops=_live_ops,
        query_shape=_live_shape,
        check_every=20, digest_ops=LIVE_QUERIES_PER_BATCH + 20,
    ),
}


# ----------------------------------------------------------------------
# Set-up
# ----------------------------------------------------------------------
class Instance:
    """One built database with its index, ready to serve a stream."""

    def __init__(self, workload: Workload, seed: int, view_holder: list) -> None:
        from repro.datasets.catalog import build_dataset
        from repro.engine import plan as plan_mod

        #: Looked up per call, so traced runs see the wrapped planners.
        self.plan_mod = plan_mod
        self.workload = workload
        t0 = time.perf_counter()
        self.db = build_dataset("SYN", scale=workload.scale)
        t1 = time.perf_counter()
        self.index = self.db.build_index(workload.index)
        t2 = time.perf_counter()
        if workload.backend == "hub":
            self.db.use_distance_backend("hub")
            self.db.hub_oracle()
        self.db.csr_graph()
        t3 = time.perf_counter()
        if not view_holder:
            view_holder.append(inputs.DatasetView(self.db))
        view = view_holder[0]
        t4 = time.perf_counter()
        db = self.db
        if workload.sinks:
            db.use_shared_distance_cache()
            db.use_result_cache()
            db.enable_flight_recorder()
            db.enable_slow_query_log(latency_seconds=0.05)
        db.keyword_frequencies()
        warm = inputs.distinct_queries(
            view, seed, workload.query_shape, salt=inputs.WARMUP_SALT
        )
        for _ in range(WARMUP_QUERIES):
            self.run_query(self.prepare_query(next(warm)))
        t5 = time.perf_counter()
        self.parts = {
            "dataset": t1 - t0, "index": t2 - t1, "oracle": t3 - t2,
            "warmup": t5 - t4,
        }

    # Preparation turns benchmark inputs into program objects (untimed).
    def prepare_query(self, q: inputs.QueryInput):
        from repro.core.queries import DiversifiedSKQuery, SKQuery
        from repro.network.graph import NetworkPosition

        weight = self.db.network.edge(q.edge_id).weight
        position = NetworkPosition(q.edge_id, min(weight, q.fraction * weight))
        if q.kind == "sk":
            return q, SKQuery(position, q.terms, q.delta_max)
        return q, DiversifiedSKQuery(position, q.terms, q.delta_max, q.k, q.lambda_)

    def run_query(self, prepared):
        q, query = prepared
        if q.kind == "sk":
            plan = self.plan_mod.plan_sk(self.db, self.index, query)
        else:
            plan = self.plan_mod.plan_diversified(
                self.db, self.index, query, method=q.method
            )
        return self.db.engine.execute(plan)

    def prepare_update(self, u: inputs.UpdateInput):
        from repro.network.graph import NetworkPosition

        if u.kind == "insert":
            weight = self.db.network.edge(u.edge_id).weight
            position = NetworkPosition(u.edge_id, u.fraction * weight)
            return lambda: self.db.insert_object(position, u.terms, indexes=[self.index])
        if u.kind == "delete":
            return lambda: self.db.delete_object(u.object_id, indexes=[self.index])
        return lambda: self.db.update_edge_weight(u.edge_id, u.weight, indexes=[self.index])

    def index_mib(self) -> float:
        """Index plus distance oracle, from their public accessors.

        Hub labels hold an int64 hub id and a float64 distance per
        entry plus an int64 row pointer per node.
        """
        total = self.index.size_bytes()
        if self.workload.backend == "hub":
            stats = self.db.hub_oracle().stats()
            total += 16 * stats["label_entries"] + 8 * (stats["labels"] + 1)
        return total / 2**20


# ----------------------------------------------------------------------
# The closed loop
# ----------------------------------------------------------------------
@dataclass
class OpRecord:
    kind: str  # sk | div | insert | delete | reweight
    latency: float
    traced: bool
    #: Index of the host-speed sample taken before it (calibrate.py).
    sample: int = 0
    stats: object = None
    layers: Optional[Dict[str, float]] = None
    builds: Optional[Dict[str, list]] = None
    sig_tests: int = 0
    sig_pruned: int = 0
    repeated: bool = False
    after_reweight: bool = False
    algorithm: str = ""


class Loop:
    """Runs an operation stream against one instance."""

    def __init__(self, inst: Instance, rec: Optional[spans.SpanRecorder],
                 clock: Optional[calibrate.HostClock]) -> None:
        self.inst = inst
        self.rec = rec
        self.clock = clock
        self.wrappers = spans.Wrappers(rec) if rec is not None else None
        self.records: List[OpRecord] = []
        self.digest_lines: List[str] = []
        self.attempted = 0
        self.failed = 0
        self.failures: List[str] = []
        self.checked = 0
        self.busy = 0.0

    def _counters(self):
        c = self.inst.index.lifetime_counters
        return c.signature_tests_run, c.signature_tests_pruned

    def step(self, op: inputs.Op, traced: bool, digest: bool, check: bool) -> None:
        inst = self.inst
        rec = self.rec if traced else None
        self.attempted += 1
        if op.query is not None:
            prepared = inst.prepare_query(op.query)
            kind = op.query.kind
            before = self._counters()
            root = "op.sk" if kind == "sk" else "op.div"
        else:
            action = inst.prepare_update(op.update)
            kind = op.update.kind
            root = "op.update"
        sample = self.clock.sample() if self.clock is not None else 0
        if traced:
            self.wrappers.install()
        try:
            t0 = time.perf_counter()
            if rec is not None:
                rec.begin_op(op.index, root)
            try:
                if op.query is not None:
                    result = inst.run_query(prepared)
                else:
                    result = action()
            finally:
                if rec is not None:
                    layers, builds = rec.end_op()
            latency = time.perf_counter() - t0
        except Exception as exc:  # a failed operation, counted, not fatal
            self.failed += 1
            self.failures.append(f"op {op.index} ({kind}): {type(exc).__name__}: {exc}")
            if digest:
                self.digest_lines.append(oracle.answer_line(op.index, kind, note="error"))
            return
        finally:
            if traced:
                self.wrappers.restore()
        self.busy += latency
        record = OpRecord(kind=kind, latency=latency, traced=traced, sample=sample)
        if rec is not None:
            record.layers, record.builds = layers, builds
        if op.query is not None:
            after = self._counters()
            record.stats = result.stats
            record.sig_tests = after[0] - before[0]
            record.sig_pruned = after[1] - before[1]
            record.repeated = op.repeated
            record.after_reweight = op.after_reweight
            record.algorithm = op.query.method
            if digest:
                self.digest_lines.append(oracle.answer_line(op.index, kind, result))
            if check:
                self.checked += 1
                problems = oracle.check(inst.db, kind, prepared[1], result)
                if problems:
                    self.failed += 1
                    self.failures.append(f"op {op.index} ({kind}): {problems[0]}")
        elif digest:
            note = str(result.object_id) if kind == "insert" else "ok"
            self.digest_lines.append(oracle.answer_line(op.index, kind, note=note))
        self.records.append(record)

    def run(self, ops: Iterator[inputs.Op], seconds: float, min_ops: int,
            trace: bool, check_every: int) -> None:
        queries = 0
        stoppable = True
        for n, op in enumerate(ops):
            if n >= min_ops and self.busy >= seconds and stoppable:
                break
            stoppable = op.cycle_end
            traced = trace and (n // TRACE_BLOCK) % 2 == 1
            check = False
            if op.query is not None:
                queries += 1
                check = (queries - 1) % check_every == 0
            self.step(op, traced, digest=n < min_ops, check=check)


# ----------------------------------------------------------------------
# Metrics
# ----------------------------------------------------------------------
def _percentile(values: List[float], q: float) -> float:
    """Linear-interpolated percentile (``q`` in [0, 1])."""
    ordered = sorted(values)
    if not ordered:
        return float("nan")
    pos = q * (len(ordered) - 1)
    lo = math.floor(pos)
    hi = min(lo + 1, len(ordered) - 1)
    return ordered[lo] + (ordered[hi] - ordered[lo]) * (pos - lo)


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def end_to_end(loop: Loop, index_mib: float, setups: List[Dict[str, float]]):
    """End-to-end metrics (latencies scaled to the reference host speed)
    plus the same latencies unscaled, for display."""
    records = loop.records
    queries = [r for r in records if r.kind in ("sk", "div")]
    scale = {id(r): loop.clock.scale(r.sample) for r in records}
    metrics = {
        "setup_s": statistics.median(sum(p.values()) for p in setups),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "index_mib": index_mib,
    }
    raw = {}
    for out, scaled in ((metrics, True), (raw, False)):
        def ms(r):
            return r.latency * 1e3 * (scale[id(r)] if scaled else 1.0)

        div = [ms(r) for r in queries if r.kind == "div"]
        sk = [ms(r) for r in queries if r.kind == "sk"]
        out.update({
            "div_p50_ms": _percentile(div, 0.50),
            "div_p95_ms": _percentile(div, 0.95),
            "sk_p50_ms": _percentile(sk, 0.50),
            "sk_p95_ms": _percentile(sk, 0.95),
            "ops_per_s": 1e3 * len(records) / sum(ms(r) for r in records),
        })
    metrics["io_pages_per_query"] = statistics.fmean(
        r.stats.io.physical_reads for r in queries
    )
    raw["host_scale_median"] = statistics.median(scale.values())
    return metrics, raw


def _overhead_pct(queries: List[OpRecord]) -> float:
    """Traced vs untraced median latency per query kind, weighted by
    the traced query count of each kind."""
    total = weight = 0.0
    for kind in ("sk", "div"):
        plain = [r.latency for r in queries if r.kind == kind and not r.traced]
        traced = [r.latency for r in queries if r.kind == kind and r.traced]
        if plain and traced:
            total += (statistics.median(traced) / statistics.median(plain) - 1) * len(traced)
            weight += len(traced)
    return 100.0 * _ratio(total, weight)


def per_layer(loop: Loop, setups: List[Dict[str, float]], rec: spans.SpanRecorder):
    """Per-layer metrics of a ``--trace 1`` run (traced blocks only,
    except the input shares, update latencies and overhead)."""
    queries_all = [r for r in loop.records if r.kind in ("sk", "div")]
    traced = [r for r in queries_all if r.traced]
    n = len(traced)
    layer = defaultdict(float)
    builds = defaultdict(lambda: [0, 0.0])
    for r in traced:
        for name, seconds in r.layers.items():
            layer[name] += seconds * 1e3
        for kind, (count, ms) in r.builds.items():
            builds[kind][0] += count
            builds[kind][1] += ms
    traced_ms = sum(r.latency for r in traced) * 1e3
    layer_sum = sum(layer.values())
    st = [r.stats for r in traced]
    div = [r for r in traced if r.kind == "div"]
    seq = [r for r in div if r.algorithm == "seq"]
    cache_hits = sum(1 for s in st if s.result_cache_hit)
    dist_hits = sum(s.distance_cache_hits for s in st)
    dist_lookups = dist_hits + sum(s.distance_cache_misses for s in st)
    logical = sum(s.io.logical_reads for s in st)
    updates = defaultdict(list)
    for r in loop.records:
        if r.kind in ("insert", "delete", "reweight"):
            updates[r.kind].append(r.latency * 1e3)
    all_updates = [ms for values in updates.values() for ms in values]

    def per_q(name):
        return _ratio(layer[name], n)

    def mean(values):
        return statistics.fmean(values) if values else 0.0

    scans = rec.calls["db.dataset_statistics"] + rec.calls["store.keyword_frequencies"]
    return {
        "setup.dataset_s": statistics.median(p["dataset"] for p in setups),
        "setup.index_s": statistics.median(p["index"] for p in setups),
        "setup.oracle_s": statistics.median(p["oracle"] for p in setups),
        "setup.warmup_s": statistics.median(p["warmup"] for p in setups),
        "plan.ms_per_query": per_q("plan"),
        "plan.stats_scans": _ratio(scans, n),
        "plan.div_share": _ratio(
            sum(r.layers.get("plan", 0.0) for r in div), sum(r.latency for r in div)
        ),
        "execute.ms_per_query": per_q("execute"),
        "unaccounted.ms_per_query": per_q(spans.ROOT_LAYER),
        "trace.e2e_ms_per_query": _ratio(traced_ms, n),
        "trace.layer_sum_error_pct": 100.0 * _ratio(abs(layer_sum - traced_ms), traced_ms),
        "ine.self_ms_per_query": per_q("ine"),
        "ine.nodes_per_query": _ratio(sum(s.nodes_accessed for s in st), n),
        "ine.early_termination_share": _ratio(
            sum(1 for r in div if r.stats.expansion_terminated_early),
            sum(1 for r in div if not r.stats.result_cache_hit),
        ),
        "index.load_ms_per_query": per_q("index.load"),
        "index.objects_loaded_per_query": _ratio(sum(s.objects_loaded for s in st), n),
        "index.useful_ratio": _ratio(
            sum(s.candidates for s in st if not s.result_cache_hit),
            sum(s.objects_loaded for s in st),
        ),
        "signature.test_ms_per_query": per_q("signature"),
        "signature.tests_per_query": _ratio(sum(r.sig_tests for r in traced), n),
        "signature.pruned_ratio": _ratio(
            sum(r.sig_pruned for r in traced), sum(r.sig_tests for r in traced)
        ),
        "storage.logical_reads_per_query": _ratio(logical, n),
        "storage.modelled_io_ms_per_query": _ratio(
            sum(s.io.physical_reads for s in st) * MODELLED_MS_PER_PAGE, n
        ),
        "buffer.hit_rate": _ratio(sum(s.io.buffer_hits for s in st), logical),
        "distance.ms_per_query": per_q("distance"),
        "distance.dijkstras_per_query": _ratio(sum(s.pairwise_dijkstras for s in st), n),
        "distance_cache.hit_rate": _ratio(dist_hits, dist_lookups),
        "hub.matrix_ms_per_query": per_q("hub.matrix"),
        "hub.point_ms_per_query": per_q("hub.point"),
        "hub.build_ms_per_query": per_q("hub.build"),
        "hub.rebuilds": builds["hub"][0],
        "hub.rebuild_ms": _ratio(builds["hub"][1], builds["hub"][0]),
        "csr.build_ms_per_query": per_q("csr.build"),
        "csr.rebuilds": builds["csr"][0],
        "csr.rebuild_ms": _ratio(builds["csr"][1], builds["csr"][0]),
        "greedy.self_ms_per_query": per_q("greedy"),
        "greedy.candidates_per_query": _ratio(sum(r.stats.candidates for r in seq), n),
        "com.maintenance_ms_per_query": per_q("com"),
        "com.theta_evals_per_query": _ratio(sum(s.theta_evaluations for s in st), n),
        "result_cache.get_ms_per_query": per_q("result_cache.get"),
        "result_cache.put_ms_per_query": per_q("result_cache.put"),
        "result_cache.hit_rate": _ratio(cache_hits, len(div)),
        "obs.recorder_ms_per_query": per_q("obs.recorder"),
        "obs.slowlog_ms_per_query": per_q("obs.slowlog"),
        "update.insert_ms": mean(updates["insert"]),
        "update.delete_ms": mean(updates["delete"]),
        "update.reweight_ms": mean(updates["reweight"]),
        "update.p50_ms": _percentile(all_updates, 0.50) if all_updates else 0.0,
        "update.p95_ms": _percentile(all_updates, 0.95) if all_updates else 0.0,
        "update.queries_after_reweight_share": _ratio(
            sum(1 for r in queries_all if r.after_reweight), len(queries_all)
        ),
        "input.repeated_query_share": _ratio(
            sum(1 for r in queries_all if r.repeated), len(queries_all)
        ),
        "tracing.overhead_pct": _overhead_pct(queries_all),
        "host.scale_factor": statistics.median(
            loop.clock.scale(r.sample) for r in loop.records
        ),
    }


# ----------------------------------------------------------------------
# A whole run
# ----------------------------------------------------------------------
ROOTS = ("op.sk", "op.div", "op.update")


def _reference_digest(inst, workload, view, seed, trace) -> str:
    """Digest of the stream's first operations on an identical instance.

    Traced in a ``--trace 1`` run, so comparing it with the measured
    run's digest also covers traced vs untraced answers.
    """
    rec = spans.SpanRecorder(spans.layer_map(ROOTS)) if trace else None
    ref = Loop(inst, rec, None)
    ops = workload.ops(view, seed)
    for _ in range(workload.digest_ops):
        ref.step(next(ops), traced=trace, digest=True, check=False)
    if ref.failed:
        return "failed: " + "; ".join(ref.failures[:3])
    return oracle.digest(ref.digest_lines)


def run(name: str, seed: int, seconds: float, trace: bool, span_path=None) -> dict:
    workload = WORKLOADS[name]
    view_holder: list = []
    clock = calibrate.HostClock()
    raw_setups: List[Dict[str, float]] = []
    kernel_times: List[float] = []
    reference = None
    inst = None
    for rep in range(SETUP_REPS):
        inst = None
        gc.collect()
        kernel_times += clock.burst()
        inst = Instance(workload, seed, view_holder)
        kernel_times += clock.burst()
        raw_setups.append(inst.parts)
        if rep == SETUP_REPS - 2:
            reference = _reference_digest(inst, workload, view_holder[0], seed, trace)
    # One factor from every kernel time taken around the set-ups: a
    # burst next to one set-up is too short to judge the host's speed.
    factor = clock.scale_of(kernel_times)
    setups = [{part: t * factor for part, t in p.items()} for p in raw_setups]
    view = view_holder[0]
    index_mib = inst.index_mib() if not trace else None
    gc.collect()
    rec = spans.SpanRecorder(spans.layer_map(ROOTS))
    loop = Loop(inst, rec, clock)
    loop.run(workload.ops(view, seed), seconds, workload.digest_ops, trace,
             workload.check_every)
    answer_digest = oracle.digest(loop.digest_lines)
    failures = list(loop.failures)
    failed = loop.failed
    if answer_digest != reference:
        failures.append(f"answer digest {answer_digest} != reference {reference}")
        failed += 1
    raw = {}
    if trace:
        metrics = per_layer(loop, setups, rec)
        if metrics["trace.layer_sum_error_pct"] > 100 * LAYER_SUM_TOLERANCE:
            failed += 1
            failures.append(
                f"layer self times miss the traced latency by "
                f"{metrics['trace.layer_sum_error_pct']:.3f} %"
            )
        if span_path is not None:
            rec.write(span_path)
    else:
        metrics, raw = end_to_end(loop, index_mib, setups)
        raw["setup_s"] = statistics.median(sum(p.values()) for p in raw_setups)
    return {
        "metrics": metrics,
        "attempted": loop.attempted,
        "failed": failed,
        "failures": failures,
        "digest": answer_digest,
        "raw": raw,
        "untraced": loop.wrappers.missing if trace else [],
        "checked": loop.checked,
        "dataset": {
            "objects": len(view.object_ids),
            "nodes": inst.db.network.num_nodes,
            "edges": len(view.edge_ids),
        },
    }
