"""Tracing measured from outside the program.

:class:`Wrappers` replaces public callables of the program's layers with
thin timing wrappers for the traced phase of a run and puts the
originals back afterwards; nothing under ``src/`` is edited.  Each call
becomes a span with a name, start, end and parent, recorded by a
:class:`SpanRecorder`.  A layer's self time is its spans' durations
minus the time covered by their child spans; the benchmark's own root
span per operation keeps the remainder as ``unaccounted``, so the layer
self times of an operation sum exactly to the root span's duration.

The generator ``INEExpansion.run`` is traced per resumption: every
``next()`` on the object stream is one ``ine.run`` span, so INE work
done lazily inside COM's loop is attributed to INE and not to COM.
"""

from __future__ import annotations

import functools
import json
import time
from collections import Counter, defaultdict
from typing import Dict, List, Tuple

#: Root span names (the benchmark's own, one per operation).
ROOT_LAYER = "unaccounted"

#: (module, owner attribute path, attribute, span name, layer).  The
#: owner is a module or a class; ``plan_*`` and ``greedy_diversify`` are
#: patched in the module their caller looks them up in.
TARGETS: List[Tuple[str, str, str, str, str]] = [
    ("repro.engine.plan", "", "plan_sk", "plan.plan_sk", "plan"),
    ("repro.engine.plan", "", "plan_diversified", "plan.plan_diversified", "plan"),
    ("repro.core.database", "Database", "dataset_statistics", "db.dataset_statistics", "plan"),
    ("repro.core.database", "Database", "keyword_frequencies", "db.keyword_frequencies", "plan"),
    ("repro.network.objects", "ObjectStore", "keyword_frequencies", "store.keyword_frequencies", "plan"),
    ("repro.engine.executor", "QueryEngine", "execute", "engine.execute", "execute"),
    ("repro.core.ine", "INEExpansion", "run", "ine.run", "ine"),
    ("repro.index.sif", "SIFIndex", "load_objects", "sif.load_objects", "index.load"),
    ("repro.index.sif_p", "SIFPIndex", "load_objects", "sif_p.load_objects", "index.load"),
    ("repro.index.inverted_file", "InvertedFileIndex", "load_objects", "if.load_objects", "index.load"),
    ("repro.index.signature", "SignatureFile", "test", "signature.test", "signature"),
    ("repro.index.signature", "SignatureFile", "test_many", "signature.test_many", "signature"),
    ("repro.index.signature", "PackedBitMatrix", "combined", "bitmatrix.combined", "signature"),
    ("repro.index.signature", "PackedBitMatrix", "probe_range", "bitmatrix.probe_range", "signature"),
    ("repro.network.distance", "PairwiseDistanceComputer", "distance", "pairwise.distance", "distance"),
    ("repro.network.distance", "PairwiseDistanceComputer", "pairwise", "pairwise.pairwise", "distance"),
    ("repro.network.distance", "PairwiseDistanceComputer", "pairwise_matrix", "pairwise.pairwise_matrix", "distance"),
    ("repro.network.distance", "PairwiseDistanceComputer", "prefetch", "pairwise.prefetch", "distance"),
    ("repro.network.hub_labels", "HubLabelBackend", "position_distance", "hub.position_distance", "hub.point"),
    ("repro.network.hub_labels", "HubLabelBackend", "position_matrix", "hub.position_matrix", "hub.matrix"),
    ("repro.network.hub_labels", "HubLabelBackend", "position_matrix_array", "hub.position_matrix_array", "hub.matrix"),
    ("repro.core.database", "Database", "hub_oracle", "db.hub_oracle", "hub.build"),
    ("repro.network.hub_labels", "HubLabelBackend", "__init__", "hub.construct", "hub.build"),
    ("repro.network.ch", "ContractionHierarchy", "__init__", "ch.construct", "hub.build"),
    ("repro.core.database", "Database", "csr_graph", "db.csr_graph", "csr.build"),
    ("repro.network.csr", "CSRGraph", "from_network", "csr.construct", "csr.build"),
    ("repro.core.diversified_search", "", "greedy_diversify", "greedy.diversify", "greedy"),
    ("repro.core.core_pairs", "CorePairMaintainer", "add", "com.add", "com"),
    ("repro.core.core_pairs", "CorePairMaintainer", "bootstrap", "com.bootstrap", "com"),
    ("repro.engine.result_cache", "ResultCache", "get", "result_cache.get", "result_cache.get"),
    ("repro.engine.result_cache", "ResultCache", "put", "result_cache.put", "result_cache.put"),
    ("repro.obs.recorder", "FlightRecorder", "record_query", "recorder.record_query", "obs.recorder"),
    ("repro.obs.slowlog", "SlowQueryLog", "offer", "slowlog.offer", "obs.slowlog"),
    ("repro.core.database", "Database", "insert_object", "db.insert_object", "update.insert"),
    ("repro.core.database", "Database", "delete_object", "db.delete_object", "update.delete"),
    ("repro.core.database", "Database", "update_edge_weight", "db.update_edge_weight", "update.reweight"),
]

#: Span names whose call means "an oracle / snapshot was constructed".
BUILD_SPANS = {"hub.construct": "hub", "csr.construct": "csr"}
#: The lazy accessors a construction happens under.
BUILDER_SPANS = {"db.hub_oracle": "hub", "db.csr_graph": "csr"}
GENERATOR_SPANS = {"ine.run"}


class SpanRecorder:
    """Spans of the current operation plus per-layer self-time sums.

    Spans are kept in memory (the first ``keep`` of them) and written
    out by :meth:`write`; self times are folded per operation as spans
    close, so the accounting does not depend on that cap.
    """

    def __init__(self, layer_of: Dict[str, str], keep: int = 100_000) -> None:
        self.layer_of = dict(layer_of)
        self.keep = keep
        self.spans: List[Tuple] = []
        self.calls: Counter = Counter()
        self._stack: List[list] = []
        self._next_id = 0
        self._op = -1
        self.op_self: Dict[str, float] = defaultdict(float)
        #: Builds seen in the current operation: kind -> [count, ms].
        self.builds: Dict[str, List[float]] = defaultdict(lambda: [0, 0.0])
        self._constructed: set = set()

    def begin(self, name: str) -> None:
        stack = self._stack
        self._next_id += 1
        parent = stack[-1][3] if stack else 0
        stack.append([name, time.perf_counter(), 0.0, self._next_id, parent])

    def end(self) -> None:
        now = time.perf_counter()
        name, start, child, span_id, parent = self._stack.pop()
        duration = now - start
        self.op_self[self.layer_of[name]] += duration - child
        if self._stack:
            self._stack[-1][2] += duration
        self.calls[name] += 1
        kind = BUILD_SPANS.get(name)
        if kind is not None:
            self._constructed.add(kind)
        kind = BUILDER_SPANS.get(name)
        if kind is not None and kind in self._constructed:
            self._constructed.discard(kind)
            entry = self.builds[kind]
            entry[0] += 1
            entry[1] += duration * 1e3
        if len(self.spans) < self.keep:
            self.spans.append((self._op, span_id, parent, name, start, now))

    def begin_op(self, op_index: int, name: str) -> None:
        if self._stack:
            raise RuntimeError(f"span stack not empty at op {op_index}: {self._stack}")
        self._op = op_index
        self.op_self = defaultdict(float)
        self.builds = defaultdict(lambda: [0, 0.0])
        self.begin(name)

    def end_op(self) -> Tuple[Dict[str, float], Dict[str, List[float]]]:
        self.end()
        if self._stack:
            raise RuntimeError(f"unbalanced spans: {self._stack}")
        return dict(self.op_self), dict(self.builds)

    def write(self, path) -> None:
        with open(path, "w") as fh:
            for op, span_id, parent, name, start, end in self.spans:
                fh.write(json.dumps({
                    "op": op, "id": span_id, "parent": parent, "name": name,
                    "start": start, "end": end,
                }) + "\n")


def _wrap_call(fn, name, rec):
    begin, end = rec.begin, rec.end

    @functools.wraps(fn)
    def traced(*args, **kwargs):
        begin(name)
        try:
            return fn(*args, **kwargs)
        finally:
            end()

    return traced


def _wrap_generator(fn, name, rec):
    begin, end = rec.begin, rec.end

    def resumptions(inner):
        try:
            while True:
                begin(name)
                try:
                    item = next(inner)
                except StopIteration:
                    return
                finally:
                    end()
                yield item
        finally:
            inner.close()

    @functools.wraps(fn)
    def traced(*args, **kwargs):
        return resumptions(fn(*args, **kwargs))

    return traced


def _resolve(module_name: str, owner_name: str):
    import importlib

    owner = importlib.import_module(module_name)
    if owner_name:
        owner = getattr(owner, owner_name)
    return owner


class Wrappers:
    """Installs the span wrappers of :data:`TARGETS`; restores them.

    A target the program no longer defines is skipped and listed in
    :attr:`missing`; its time then counts as its caller's self time.
    """

    def __init__(self, rec: SpanRecorder, targets=TARGETS) -> None:
        self.rec = rec
        self.targets = targets
        self._resolved: List[Tuple[object, str, str]] = []
        self.missing: List[str] = []
        self._saved: List[Tuple[object, str, object]] = []

    def _resolve_all(self) -> None:
        for module_name, owner_name, attr, name, _layer in self.targets:
            try:
                owner = _resolve(module_name, owner_name)
            except (ImportError, AttributeError):
                owner = None
            if owner is None or attr not in owner.__dict__:
                self.missing.append(f"{module_name}.{owner_name}.{attr}".replace("..", "."))
                continue
            self._resolved.append((owner, attr, name))

    def install(self) -> None:
        if self._saved:
            raise RuntimeError("wrappers already installed")
        if not self._resolved and not self.missing:
            self._resolve_all()
        for owner, attr, name in self._resolved:
            original = owner.__dict__[attr]
            if isinstance(original, classmethod):
                wrapped = classmethod(_wrap_call(original.__func__, name, self.rec))
            elif name in GENERATOR_SPANS:
                wrapped = _wrap_generator(original, name, self.rec)
            else:
                wrapped = _wrap_call(original, name, self.rec)
            self._saved.append((owner, attr, original))
            setattr(owner, attr, wrapped)

    def restore(self) -> None:
        while self._saved:
            owner, attr, original = self._saved.pop()
            setattr(owner, attr, original)


def layer_map(roots) -> Dict[str, str]:
    layers = {name: layer for *_rest, name, layer in TARGETS}
    for root in roots:
        layers[root] = ROOT_LAYER
    return layers
