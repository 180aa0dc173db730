"""Property tests: path-cover-pruned hub labels ≡ raw CH search spaces.

Pruning drops label entries whose upward distance exceeds the true
distance — entries that can never win a join — so every query answer
(node pairs, position pairs, the batched matrix kernel) must be
**byte-identical** with and without pruning, while the labels only
shrink.  Both backends share one CH so the comparison isolates the
prune itself.

The batched prune kernel is checked against a per-entry reference
(one ``intersect1d`` join per label entry): the pruned flat arrays
must be array-equal, on fresh networks, after reweights, and with
blocks small enough to split rows.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.datasets.synthetic import random_planar_network
from repro.network.graph import NetworkPosition
from repro.network import hub_labels
from repro.network.hub_labels import HubLabelBackend

pytest.importorskip("numpy")


def build_pair(seed, nodes=40):
    network = random_planar_network(nodes, seed=seed)
    pruned = HubLabelBackend(network)
    raw = HubLabelBackend(network, ch=pruned.ch, prune_labels=False)
    return network, pruned, raw


@settings(max_examples=10, deadline=None)
@given(st.integers(0, 10**6))
def test_node_distances_byte_identical(seed):
    network, pruned, raw = build_pair(seed % 5)
    rng = np.random.default_rng(seed)
    nodes = [n.node_id for n in network.nodes()]
    for _ in range(40):
        a = nodes[int(rng.integers(0, len(nodes)))]
        b = nodes[int(rng.integers(0, len(nodes)))]
        assert pruned.node_distance(a, b) == raw.node_distance(a, b)


@settings(max_examples=8, deadline=None)
@given(st.integers(0, 10**6))
def test_position_matrix_byte_identical(seed):
    network, pruned, raw = build_pair(seed % 4)
    rng = np.random.default_rng(seed + 1)
    edges = list(network.edges())
    positions = []
    for _ in range(12):
        edge = edges[int(rng.integers(0, len(edges)))]
        offset = float(rng.uniform(0, edge.weight))
        positions.append(NetworkPosition(edge.edge_id, offset))
    got = pruned.position_matrix_array(positions)
    want = raw.position_matrix_array(positions)
    assert np.array_equal(got, want)  # bit-for-bit, infs included
    cutoff = float(rng.uniform(500, 4000))
    got_c = pruned.position_matrix_array(positions, cutoff=cutoff)
    want_c = raw.position_matrix_array(positions, cutoff=cutoff)
    assert np.array_equal(got_c, want_c)


def test_pruning_only_shrinks_labels():
    _network, pruned, raw = build_pair(7, nodes=60)
    assert pruned.label_entries <= raw.label_entries
    assert pruned.pruned_entries == raw.label_entries - pruned.label_entries
    assert pruned.label_entries_unpruned == raw.label_entries
    assert raw.pruned_entries == 0
    # Every pruned label is a subset of its raw counterpart.
    for node in _network.nodes():
        ph, _pd = pruned._node_label(node.node_id)
        rh, _rd = raw._node_label(node.node_id)
        assert set(ph.tolist()) <= set(rh.tolist())
        # The self hub always survives (it is tight by definition).
        assert pruned.ch.rank[node.node_id] in set(ph.tolist())


def test_stats_report_pruning():
    _network, pruned, _raw = build_pair(11, nodes=50)
    stats = pruned.stats()
    assert stats["pruned_entries"] == pruned.pruned_entries
    assert stats["label_entries_unpruned"] == pruned.label_entries_unpruned
    assert (
        stats["label_entries"] + stats["pruned_entries"]
        == stats["label_entries_unpruned"]
    )


def reference_prune(raw):
    """Per-entry path-cover prune over ``raw``'s unpruned labels.

    Entry ``(h, d)`` of row ``r`` goes iff ``join(L(r), L(h)) < d``,
    one ``intersect1d`` join per non-self entry.  Returns the pruned
    ``(indptr, hubs, dists)``.
    """
    indptr, hubs, dists = raw._indptr, raw._hubs, raw._dists
    n = raw.num_labels
    keep = np.ones(len(hubs), dtype=bool)
    for r in range(n):
        s, e = int(indptr[r]), int(indptr[r + 1])
        ha, da = hubs[s:e], dists[s:e]
        for k in range(e - s):
            h = int(ha[k])
            if h == r:
                continue
            hs, he = int(indptr[h]), int(indptr[h + 1])
            _c, ia, ib = np.intersect1d(
                ha, hubs[hs:he], assume_unique=True, return_indices=True
            )
            joined = float((da[ia] + dists[hs:he][ib]).min())
            if joined < float(da[k]):
                keep[s + k] = False
    sizes = np.add.reduceat(keep.astype(np.int64), indptr[:-1])
    new_indptr = np.zeros(n + 1, dtype=np.int64)
    new_indptr[1:] = np.cumsum(sizes)
    return new_indptr, hubs[keep], dists[keep]


def assert_matches_reference(network):
    pruned = HubLabelBackend(network)
    raw = HubLabelBackend(network, ch=pruned.ch, prune_labels=False)
    indptr, hubs, dists = reference_prune(raw)
    assert np.array_equal(pruned._indptr, indptr)
    assert np.array_equal(pruned._hubs, hubs)
    assert np.array_equal(pruned._dists, dists)
    assert pruned._hubs.dtype == hubs.dtype
    assert pruned._dists.dtype == dists.dtype
    assert pruned.pruned_entries == len(raw._hubs) - len(hubs)


@settings(max_examples=10, deadline=None)
@given(
    st.integers(0, 10**6),
    st.integers(20, 70),
    st.lists(
        st.tuples(st.integers(0, 10**6), st.floats(0.2, 5.0)), max_size=4
    ),
)
def test_batched_prune_equals_reference(seed, nodes, reweights):
    network = random_planar_network(nodes, seed=seed)
    assert_matches_reference(network)
    if not reweights:
        return
    edges = sorted(e.edge_id for e in network.edges())
    for pick, factor in reweights:
        edge = network.edge(edges[pick % len(edges)])
        network.update_edge_weight(edge.edge_id, edge.weight * factor)
    assert_matches_reference(network)


@pytest.mark.parametrize("budget", [1, 7])
def test_batched_prune_tiny_blocks_split_rows(monkeypatch, budget):
    # A budget below a label's size forces block boundaries inside
    # rows (and single-entry blocks at budget 1).
    monkeypatch.setattr(hub_labels, "_PRUNE_CELL_BUDGET", budget)
    assert_matches_reference(random_planar_network(45, seed=5))


@settings(max_examples=25, deadline=None)
@given(st.integers(0, 10**6), st.integers(1, 40), st.sampled_from([3, 64]))
def test_batched_prune_on_arbitrary_labels(seed, n, budget):
    # Raw CH labels nest (L(h) is a subset of L(r) whenever h is in
    # L(r)), so every hub lookup hits.  Random labels break that and
    # exercise the non-member mask: the kernel must still implement
    # "drop (h, d) iff join(L(r), L(h)) < d" exactly.
    rng = np.random.default_rng(seed)
    rows = []
    for r in range(n):
        hubs = np.union1d(rng.choice(n, size=rng.integers(0, n + 1)), [r])
        dists = rng.integers(0, 20, size=len(hubs)).astype(np.float64)
        dists[hubs == r] = 0.0
        rows.append((hubs.astype(np.int64), dists))
    indptr = np.zeros(n + 1, dtype=np.int64)
    indptr[1:] = np.cumsum([len(h) for h, _ in rows])
    labels = HubLabelBackend.__new__(HubLabelBackend)
    labels._np = np
    labels.num_labels = n
    labels.pruned_entries = 0
    labels._indptr = indptr
    labels._hubs = np.concatenate([h for h, _ in rows])
    labels._dists = np.concatenate([d for _, d in rows])
    want = reference_prune(labels)
    old = hub_labels._PRUNE_CELL_BUDGET
    hub_labels._PRUNE_CELL_BUDGET = budget
    try:
        labels._prune_path_covered()
    finally:
        hub_labels._PRUNE_CELL_BUDGET = old
    assert np.array_equal(labels._indptr, want[0])
    assert np.array_equal(labels._hubs, want[1])
    assert np.array_equal(labels._dists, want[2])
